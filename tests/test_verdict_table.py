"""The table of verdicts against what the check command prints.

`checks.VERDICTS` declares every verdict once: its id, the kind of body it
applies to, its claim, the tail of its passing detail and its skip.  The
golden files of `facelat check <fixture> --suite all` must show only
declared verdicts, each reading as declared, and every declared verdict
must show in some golden file.  Every report, of a fixture, of a polar
body or of a single point, lists every verdict declared for its kind.  The
README may name only declared ids.
"""

import json
import re
from pathlib import Path

import pytest

from facelat import bodyio, checks
from facelat import planar as pl
from facelat import polytope as pt
from facelat.errors import OriginNotInterior, UnsupportedArcCenter
from facelat.exactgeom import vec
from facelat.polytope import Polytope

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def pattern(text: str) -> re.Pattern:
    """text as a regular expression, each braced field matching any text."""
    return re.compile(re.sub(r"\\\{\w+\\\}", ".+", re.escape(text)))


def declared(kind: str, check_id: str) -> checks.Claim:
    """The one table entry of this kind whose id (a family's template
    included) matches check_id."""
    found = [c for (k, _), c in checks.VERDICTS.items()
             if k == kind and pattern(c.check_id).fullmatch(check_id)]
    assert len(found) == 1, (kind, check_id, found)
    return found[0]


def golden_report(fixture: str) -> tuple[str, list[dict]]:
    """The fixture's kind and the verdicts of its golden check report."""
    text = (GOLDEN / f"{fixture}.check.txt").read_text()
    return (checks._kind(bodyio.load_fixture(fixture)),
            json.loads(text.split("\n", 1)[1])["verdicts"])


def golden_verdicts():
    """(kind, verdict) for every verdict of every golden check report."""
    for fixture in bodyio.list_fixtures():
        kind, verdicts = golden_report(fixture)
        for verdict in verdicts:
            yield kind, verdict


def test_every_golden_verdict_is_declared_and_reads_as_declared():
    statuses = set()
    for kind, v in golden_verdicts():
        claim = declared(kind, v["id"])
        statuses.add(v["status"])
        if v["status"] == "skip":
            assert pattern(claim.skip).fullmatch(v["detail"]), v
        else:
            assert pattern(claim.claim + claim.tail).fullmatch(v["detail"]), v
    assert statuses == {"pass", "skip"}


def test_every_declared_verdict_shows_in_a_golden_file():
    shown = {(kind, declared(kind, v["id"]).check_id) for kind, v in golden_verdicts()}
    assert shown == set(checks.VERDICTS)


def test_the_coatom_family_is_one_entry_for_many_ids():
    ids = {v["id"] for kind, v in golden_verdicts() if v["id"].startswith("coatoms.face[")}
    assert len(ids) > 1
    assert {declared("planar", i).check_id for i in ids} == {"coatoms.face[{face}]"}


def expected_ids(kind: str, listed: set) -> set:
    """The table ids of this kind that a report listing the table ids
    `listed` must list: a suite that applies lists every id it declares
    but its `{suite}.applicable` skip, and a suite that does not lists only
    that skip, which stands for the whole suite.  A suite that declares
    nothing but that skip never applies."""
    table = [c for k, c in checks.VERDICTS if k == kind]
    applies = {s for s in checks.SUITE_NAMES if f"{s}.applicable" not in listed
               and any(c.startswith(f"{s}.") and c != f"{s}.applicable" for c in table)}
    return {c for c in table if (c.split(".")[0] in applies) != c.endswith(".applicable")}


def assert_lists_every_declared_verdict(kind: str, ids: list[str]):
    """Each id once, and as table ids, with `coatoms.face[...]` as one
    family, exactly the ids the table declares for the kind."""
    assert len(ids) == len(set(ids)), ids
    listed = {declared(kind, i).check_id for i in ids}
    assert listed == expected_ids(kind, listed)


def polar_bodies():
    """(fixture, its polar body) for each fixture that has one."""
    for name in bodyio.list_fixtures():
        body = bodyio.load_fixture(name)
        try:
            yield name, pt.polar(body) if isinstance(body, Polytope) else pl.polar_planar(body)
        except (OriginNotInterior, UnsupportedArcCenter):
            pass


@pytest.mark.parametrize("fixture", bodyio.list_fixtures())
def test_every_fixture_report_lists_every_declared_verdict(fixture):
    """Read off the golden report, which `test_golden` pins to the check
    command's output."""
    kind, verdicts = golden_report(fixture)
    assert_lists_every_declared_verdict(kind, [v["id"] for v in verdicts])


def test_every_polar_body_report_lists_every_declared_verdict():
    polars = list(polar_bodies())
    assert len(polars) == 10
    for name, q in polars:
        report = checks.run_suite(q, f"{name}.polar", "all")
        assert report.passed, name
        assert_lists_every_declared_verdict(
            checks._kind(q), [v.check_id for v in report.verdicts])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_a_point_report_lists_every_declared_verdict(dim):
    """25 verdicts: the 13 claims excluded on a single point, the polar and
    2d suites' skips, and 10 passes."""
    report = checks.run_suite(Polytope((vec(*range(1, dim + 1)),)), "point", "all")
    ids = [v.check_id for v in report.verdicts]
    assert_lists_every_declared_verdict("polytope", ids)
    assert len(ids) == 25
    assert [v.status for v in report.verdicts].count("pass") == 10


def test_readme_names_only_declared_verdicts():
    """Every backticked `suite.name` in README.md is a table id."""
    suites = "|".join(map(re.escape, checks.SUITE_NAMES))
    named = set(re.findall(rf"`((?:{suites})\.\w+)`", (ROOT / "README.md").read_text()))
    assert len(named) >= 10
    assert named <= {c.check_id for c in checks.VERDICTS.values()}
