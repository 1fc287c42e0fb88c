"""The table of verdicts against what the check command prints.

`checks.VERDICTS` declares every verdict once: its id, the kind of body it
applies to, its claim, the tail of its passing detail and its skip.  The
golden files of `facelat check <fixture> --suite all` must show only
declared verdicts, each reading as declared, and every declared verdict
must show in some golden file.  The README may name only declared ids.
"""

import json
import re
from pathlib import Path

from facelat import bodyio, checks
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


def golden_verdicts():
    """(kind, verdict) for every verdict of every golden check report."""
    for path in sorted(GOLDEN.glob("*.check.txt")):
        fixture = path.name.removesuffix(".check.txt")
        body = bodyio.load_fixture(fixture)
        kind = "polytope" if isinstance(body, Polytope) else "planar"
        report = json.loads(path.read_text().split("\n", 1)[1])
        for verdict in report["verdicts"]:
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


def test_readme_names_only_declared_verdicts():
    """Every backticked `suite.name` in README.md is a table id."""
    suites = "|".join(map(re.escape, checks.SUITE_NAMES))
    named = set(re.findall(rf"`((?:{suites})\.\w+)`", (ROOT / "README.md").read_text()))
    assert len(named) >= 10
    assert named <= {c.check_id for c in checks.VERDICTS.values()}
