"""Byte-for-byte CLI outputs on every shipped fixture.

`tests/golden/<fixture>.<command>.txt` holds the exit code and the standard
output of `facelat check <fixture> --suite all` (command `check`) and of
`facelat lattice <fixture> --kind <command>` for the four lattice kinds.  A
change that alters any exact answer, report text or lattice order fails here.
After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from facelat import bodyio
from facelat.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("check", "faces", "exposed", "normal", "touching")


def argv(fixture: str, command: str) -> list[str]:
    if command == "check":
        return ["check", fixture, "--suite", "all"]
    return ["lattice", fixture, "--kind", command]


def render(fixture: str, command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv(fixture, command))
    return f"exit {code}\n" + out.getvalue()


CASES = [(f, c) for f in bodyio.list_fixtures() for c in COMMANDS]


def test_every_fixture_and_command_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(
        f"{f}.{c}.txt" for f, c in CASES)


@pytest.mark.parametrize("fixture,command", CASES)
def test_cli_output_matches_golden(fixture, command):
    assert render(fixture, command) == (GOLDEN / f"{fixture}.{command}.txt").read_text()


if __name__ == "__main__":
    for fixture, command in CASES:
        (GOLDEN / f"{fixture}.{command}.txt").write_text(render(fixture, command))
