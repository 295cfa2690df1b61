"""Byte-for-byte regression of the reports, in both formats.

Every command that applies to a file's role is run on each ``samples/`` file
and on the fixed trees in ``tests/golden/``; the output must equal the stored
report in ``tests/golden/reports/STEM.COMMAND.json``, which was written by
``tautfol COMMAND FILE --format json``, and in ``STEM.COMMAND.txt``, written
by ``tautfol COMMAND FILE`` (the default text format).  A deliberate change
to a report (a correctness fix) replaces the stored file in the same change.
"""

import json
from pathlib import Path

import pytest

import tautfol.graph
import tautfol.snf
from conftest import plumbing_chain
from helpers import TWO_VERTICAL_CHILDREN
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


@pytest.mark.parametrize("path,command", list(_cases()))
def test_golden_text_report(path, command, capsys):
    code = main([command, str(path)])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / "reports" / f"{path.stem}.{command}.txt").read_text(encoding="utf-8")
    assert out == expected


LONGITUDE_BETTI_2 = "error: rational longitude needs betti = 1, got 2\n"


def _write(tmp_path, stem, manifold):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(manifold), encoding="utf-8")
    return path


@pytest.fixture
def refuse_h1(monkeypatch):
    """Make graph.homology, graph.presentation and snf.smith_normal_form
    raise, so a command that solves H_1 fails."""
    def refuse(*args):
        raise AssertionError("H_1 solved by a command")

    for module, name in ((tautfol.graph, "homology"), (tautfol.graph, "presentation"),
                         (tautfol.graph, "smith_normal_form"),
                         (tautfol.snf, "smith_normal_form")):
        monkeypatch.setattr(module, name, refuse)


def test_reports_never_call_the_dense_smith_normal_form(refuse_h1, capsys):
    """No command solves H_1: with every H_1 entry point made to raise, every
    golden report stays the same, with nothing on stderr."""
    for case in _cases():
        path, command = case.values
        code = main([command, str(path), "--format", "json"])
        captured = capsys.readouterr()
        expected = (GOLDEN / "reports" / f"{path.stem}.{command}.json").read_text(encoding="utf-8")
        assert (code, captured.out, captured.err) == (0, expected, ""), case.id


def test_longitude_never_solves_h1(refuse_h1, capsys, tmp_path):
    """With every H_1 entry point made to raise, ``longitude`` reproduces the
    stored reports (both formats) of a chain far deeper than the
    interpreter's recursion limit, and the Betti errors, which the tree walk names, keep their exit
    code and text, also on the 1,002-piece two-leaf chains."""
    chain = _write(tmp_path, "plumbing_chain_1000", dump_manifold(plumbing_chain(1000)))
    code = main(["longitude", str(chain), "--format", "json"])
    captured = capsys.readouterr()
    expected = (GOLDEN / "reports" / "plumbing_chain_1000.longitude.json").read_text(encoding="utf-8")
    assert (code, captured.out, captured.err) == (0, expected, "")
    code = main(["longitude", str(chain)])
    captured = capsys.readouterr()
    expected = (GOLDEN / "reports" / "plumbing_chain_1000.longitude.txt").read_text(encoding="utf-8")
    assert (code, captured.out, captured.err) == (0, expected, "")
    closed = plumbing_chain(1000, "closed", leaves=True)
    unknown = f"error: no edge 'e9999'; the edges are: {', '.join(e.ident for e in closed.edges)}\n"
    leaves = str(_write(tmp_path, "leaves", dump_manifold(plumbing_chain(1000, leaves=True))))
    closed = str(_write(tmp_path, "closed", dump_manifold(closed)))
    three = str(_write(tmp_path, "three", TWO_VERTICAL_CHILDREN))
    for argv, code, err in [
        (["longitude", three], 2, LONGITUDE_BETTI_2),
        (["longitude", leaves], 2, LONGITUDE_BETTI_2),
        (["ctf", closed], 2, "error: not a rational homology sphere (betti = 1)\n"),
        (["ctf", closed, "--split-edge", "e9999"], 1, unknown),
    ]:
        assert main(argv) == code, argv
        assert capsys.readouterr() == ("", err), argv


@pytest.mark.parametrize("stem,role,command", [
    ("plumbing_chain_1000", "solid-torus", "detect"),
    ("closed_chain_1000", "closed", "ctf"),
])
def test_chain_reports_never_solve_h1(stem, role, command, refuse_h1, capsys, tmp_path):
    """With every H_1 entry point made to raise, ``detect`` on the 1,000-piece
    chain and ``ctf`` on the closed one reproduce their stored reports, in
    both formats."""
    path = str(_write(tmp_path, stem, dump_manifold(plumbing_chain(1000, role))))
    for flags, suffix in ((["--format", "json"], "json"), ([], "txt")):
        code = main([command, path, *flags])
        expected = (GOLDEN / "reports" / f"{stem}.{command}.{suffix}").read_text(encoding="utf-8")
        assert (code, *capsys.readouterr()) == (0, expected, ""), suffix


def test_longitude_betti_error_still_names_the_betti_number(capsys, tmp_path):
    """Two crosscap-1 children whose longitudes are both the root piece's
    fibre leave b1 = 2, which the tree walk names."""
    code = main(["longitude", str(_write(tmp_path, "two_vertical_children", TWO_VERTICAL_CHILDREN))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == LONGITUDE_BETTI_2
