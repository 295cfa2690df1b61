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
from conftest import plumbing_chain
from tautfol.cli import main
from tautfol.graph import dump_manifold

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


def test_longitude_never_solves_h1(monkeypatch, capsys, tmp_path):
    """``longitude`` reads the rational longitude and its order off one walk
    of the tree: the reports stay the same when H_1 refuses to be solved,
    also on a chain far deeper than the interpreter's recursion limit."""
    def refuse(self):
        raise AssertionError("Presentation.solve called by longitude")

    monkeypatch.setattr(tautfol.snf.Presentation, "solve", refuse)
    chain = tmp_path / "plumbing_chain_1000.json"
    chain.write_text(json.dumps(dump_manifold(plumbing_chain(1000))), encoding="utf-8")
    cases = [(path, path.stem) for path, command in (c.values for c in _cases())
             if command == "longitude"]
    for path, stem in cases + [(chain, "plumbing_chain_1000")]:
        code = main(["longitude", str(path), "--format", "json"])
        out = capsys.readouterr().out
        expected = (GOLDEN / "reports" / f"{stem}.longitude.json").read_text(encoding="utf-8")
        assert (code, out) == (0, expected), stem


def test_longitude_betti_error_still_names_the_betti_number(capsys, tmp_path):
    """Two crosscap-1 children whose longitudes are both the root piece's
    fibre leave b1 = 2; H_1 is solved to name it."""
    kb = {"base": {"orientable": False, "crosscaps": 1}, "cones": [], "b": 0, "boundary": 1}
    manifold = {
        "role": "solid-torus",
        "pieces": [
            {"id": "root", "base": {"orientable": True, "crosscaps": 0}, "cones": [],
             "b": 0, "boundary": 3},
            {"id": "k1", **kb},
            {"id": "k2", **kb},
        ],
        "edges": [
            {"from": ["k1", 0], "to": ["root", 1], "matrix": [[1, 0], [0, -1]]},
            {"from": ["k2", 0], "to": ["root", 2], "matrix": [[1, 0], [0, -1]]},
        ],
    }
    path = tmp_path / "two_vertical_children.json"
    path.write_text(json.dumps(manifold), encoding="utf-8")
    code = main(["longitude", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: rational longitude needs betti = 1, got 2\n"
