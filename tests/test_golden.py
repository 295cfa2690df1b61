"""Byte-for-byte regression of the ``--format json`` reports.

Every command that applies to a file's role is run on each ``samples/`` file
and on the fixed trees in ``tests/golden/``; the output must equal the stored
report in ``tests/golden/reports/STEM.COMMAND.json``, which was written by
``tautfol COMMAND FILE --format json``.  A deliberate change to a report
(a correctness fix) replaces the stored file in the same change.
"""

import json
from pathlib import Path

import pytest

import tautfol.snf
from tautfol.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = {
    "closed": ("validate", "ctf", "oracle-check"),
    "solid-torus": ("validate", "longitude", "detect", "oracle-check"),
}


def _cases():
    inputs = sorted((ROOT / "samples").glob("*.json")) + sorted(GOLDEN.glob("*.json"))
    for path in inputs:
        role = json.loads(path.read_text(encoding="utf-8"))["role"]
        for command in COMMANDS[role]:
            yield pytest.param(path, command, id=f"{path.stem}-{command}")


@pytest.mark.parametrize("path,command", list(_cases()))
def test_golden_report(path, command, capsys):
    code = main([command, str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / "reports" / f"{path.stem}.{command}.json").read_text(encoding="utf-8")
    assert out == expected


def test_reports_never_call_the_dense_smith_normal_form(monkeypatch, capsys):
    """Every H_1 question is answered by the sparse elimination and the
    modular Smith normal form; the dense ``smith_normal_form`` is the tests'
    reference only, so the reports stay the same when it refuses to run."""
    def refuse(matrix):
        raise AssertionError("smith_normal_form called by the program")

    monkeypatch.setattr(tautfol.snf, "smith_normal_form", refuse)
    for case in _cases():
        path, command = case.values
        code = main([command, str(path), "--format", "json"])
        out = capsys.readouterr().out
        expected = (GOLDEN / "reports" / f"{path.stem}.{command}.json").read_text(encoding="utf-8")
        assert (code, out) == (0, expected), case.id
