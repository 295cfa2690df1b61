"""The command line front end: commands, formats, exit codes, determinism."""

import argparse
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from tautfol import (
    VERTICAL,
    Edge,
    FamilyError,
    GluingMatrix,
    PieceError,
    PlumbingGraph,
    SeifertPiece,
    Slope,
    SlopeError,
    detect_tree,
    dump_manifold,
    rational_longitude,
)
from tautfol.cli import ORACLE_N_BUDGET, _PARSER, _fraction_str, _json_text, _tau_str, main

ROOT = Path(__file__).resolve().parent.parent

N2 = {
    "role": "solid-torus",
    "pieces": [
        {"id": "k", "base": {"orientable": False, "crosscaps": 1},
         "cones": [], "b": 0, "boundary": 1},
    ],
    "edges": [],
}

HALFHALF = {
    "role": "solid-torus",
    "pieces": [
        {"id": "a", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
    ],
    "edges": [],
}

CLOSED_ADMITS = {
    "role": "closed",
    "pieces": [
        {"id": "A", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
        {"id": "B", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
    ],
    "edges": [{"from": ["A", 0], "to": ["B", 0], "matrix": [[1, -3], [0, -1]]}],
}

CLOSED_REFUSES = {
    "role": "closed",
    "pieces": CLOSED_ADMITS["pieces"],
    "edges": [{"from": ["A", 0], "to": ["B", 0], "matrix": [[1, 1], [0, -1]]}],
}


@pytest.fixture
def manifold_file(tmp_path):
    def write(data, name="m.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_command(manifold_file, capsys):
    code, out, _ = run(capsys, "validate", manifold_file(N2), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1 and report["clean"]


def test_longitude_command(manifold_file, capsys):
    code, out, _ = run(capsys, "longitude", manifold_file(N2), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["longitude"]["slope"] == "1/0"
    assert report["longitude"]["tau"] == "inf"
    assert report["order"] == 2


def test_detect_n2(manifold_file, capsys):
    code, out, _ = run(capsys, "detect", manifold_file(N2), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["detected"]["kind"] == "point"
    assert report["detected"]["point"]["slope"] == "1/0"
    assert report["exceptional"] == []


def test_detect_interval(manifold_file, capsys):
    code, out, _ = run(capsys, "detect", manifold_file(HALFHALF), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["detected"]["kind"] == "arc"
    assert report["detected"]["start"]["tau"] == "-2/1"
    assert report["detected"]["end"]["tau"] == "-1/1"
    statuses = {e["tau"]: e["status"] for e in report["exceptional"]}
    assert statuses == {"-2/1": "not-strong", "-1/1": "not-strong"}


def test_ctf_admits(manifold_file, capsys):
    code, out, _ = run(capsys, "ctf", manifold_file(CLOSED_ADMITS), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["admits"] is True
    assert report["witness"]["e0"] == "1/1"
    assert "not a Heegaard Floer L-space" in report["lspace_note"]


def test_ctf_refuses_exit_zero(manifold_file, capsys):
    code, out, _ = run(capsys, "ctf", manifold_file(CLOSED_REFUSES), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["admits"] is False


def test_ctf_split_edge_flag(manifold_file, capsys):
    code, out, _ = run(capsys, "ctf", manifold_file(CLOSED_ADMITS),
                       "--format", "json", "--split-edge", "e0")
    assert code == 0
    assert json.loads(out)["split_edge"] == "e0"


def test_ctf_unknown_split_edge_exit_1(manifold_file, capsys):
    code, out, err = run(capsys, "ctf", manifold_file(CLOSED_ADMITS),
                         "--split-edge", "e1")
    assert code == 1 and out == ""
    assert err == "error: no edge 'e1'; the edges are: e0\n"


def test_oracle_check(manifold_file, capsys):
    code, out, _ = run(capsys, "oracle-check", manifold_file(HALFHALF),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert any(r.get("core_matches_grid") for r in report["rows"])
    code2, out2, _ = run(capsys, "oracle-check", manifold_file(CLOSED_ADMITS),
                         "--format", "json")
    assert code2 == 0


def test_malformed_input_exit_1(manifold_file, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "detect", str(bad))
    assert code == 1 and "error" in err
    data = dict(N2)
    data["surprise"] = 1
    code2, _, err2 = run(capsys, "detect", manifold_file(data, "n2x.json"))
    assert code2 == 1 and "unknown keys" in err2


def test_role_mismatch_exit_2(manifold_file, capsys):
    code, _, err = run(capsys, "ctf", manifold_file(N2))
    assert code == 2 and "error" in err
    code2, _, _ = run(capsys, "detect", manifold_file(CLOSED_ADMITS))
    assert code2 == 2
    code3, _, _ = run(capsys, "longitude", manifold_file(CLOSED_ADMITS))
    assert code3 == 2


CROSSCAP_TWO = {
    "role": "solid-torus",
    "pieces": [
        {"id": "p0", "base": {"orientable": False, "crosscaps": 2},
         "cones": [], "b": 0, "boundary": 1},
    ],
    "edges": [],
}


CLOSED_DET_PLUS_ONE = {
    "role": "closed",
    "pieces": CLOSED_ADMITS["pieces"],
    "edges": [{"from": ["A", 0], "to": ["B", 0], "matrix": [[1, 3], [0, 1]]}],
}


EDGE_OUT_OF_RANGE = {
    "role": "solid-torus",
    "pieces": [
        {"id": "root", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [3, 1]], "b": 0, "boundary": 1},
        {"id": "leaf", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [3, 1]], "b": 0, "boundary": 1},
    ],
    "edges": [{"from": ["leaf", 0], "to": ["root", 1], "matrix": [[0, 1], [1, 0]]}],
}


def test_invalid_graph_exit_2_with_one_prefix(manifold_file, capsys):
    commands = ("detect", "ctf", "oracle-check")
    for data, message, extra in (
            (CROSSCAP_TWO, "piece p0: crosscap number >= 2 is unsupported", ()),
            (CLOSED_DET_PLUS_ONE, "edge e0: orientation-incompatible gluing (det != -1)", ()),
            (EDGE_OUT_OF_RANGE, "edge e0 boundary index 1 out of range", ("longitude",))):
        path = manifold_file(data)
        for command in commands + extra:
            code, out, err = run(capsys, command, path)
            assert (code, out) == (2, ""), command
            assert err == f"error: {message}\n", command


def test_reports_deterministic(manifold_file, capsys):
    path = manifold_file(CLOSED_ADMITS)
    outputs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "ctf", path, "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_report_fractions_round_trip(manifold_file, capsys):
    _, out, _ = run(capsys, "detect", manifold_file(HALFHALF), "--format", "json")
    report = json.loads(out)
    text = json.dumps(report, sort_keys=True, indent=2)
    assert json.loads(text) == report


def test_text_format(manifold_file, capsys):
    code, out, _ = run(capsys, "detect", manifold_file(N2))
    assert code == 0
    assert "point 1/0" in out


HALFTHIRD = {
    "role": "solid-torus",
    "pieces": [
        {"id": "a", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [3, 1]], "b": 0, "boundary": 1},
    ],
    "edges": [],
}


def test_oracle_mismatch_exit_3(manifold_file, capsys, monkeypatch):
    import tautfol.cli as cli

    def broken(piece, family):
        return (-99, 99)

    monkeypatch.setattr(cli, "core_interval", broken)
    code, out, _ = run(capsys, "oracle-check", manifold_file(HALFHALF),
                       "--format", "json")
    assert code == 3
    assert json.loads(out)["ok"] is False


def test_kernel_errors_exit_2_and_a_failed_replay_exit_3(capsys, monkeypatch):
    import tautfol.cli as cli
    import tautfol.seifert as seifert

    path = str(Path(__file__).resolve().parent / "golden" / "two_cone_torus.json")
    for error in (PieceError, FamilyError, SlopeError):
        def raising(graph, error=error):
            raise error("out of scope")

        monkeypatch.setattr(cli, "detect_tree", raising)
        assert run(capsys, "detect", path) == (2, "", "error: out of scope\n")
    monkeypatch.undo()
    # A certificate replay that the scan contradicts: no value fits a slot.
    monkeypatch.setattr(seifert, "_satisfies", lambda *args: False)
    code, out, err = run(capsys, "detect", path)
    assert (code, out) == (3, "")
    assert err.startswith("internal-consistency failure: certificate replay failed")


def test_oracle_check_random_trees(manifold_file, capsys):
    import random

    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from conftest import rand_valid_solid_tree
    from tautfol import dump_manifold

    rng = random.Random(31337)
    for k in range(8):
        graph = rand_valid_solid_tree(rng, max_pieces=3)
        code, out, _ = run(capsys, "oracle-check",
                           manifold_file(dump_manifold(graph), f"r{k}.json"),
                           "--format", "json")
        assert code == 0, out
        assert json.loads(out)["ok"] is True


def test_unreduced_cones_report_as_their_reduction(manifold_file, capsys):
    """A cone (a, beta + k a) with obstruction b is the cone (a, beta) with
    b - k: every report but validate's warning equals the reduced graph's."""
    import copy
    import random

    from conftest import rand_valid_closed, rand_valid_solid_tree
    from tautfol import dump_manifold

    rng = random.Random(2718)
    shifted_cones = 0
    for k in range(150):
        closed = k % 3 == 0
        graph = rand_valid_closed(rng, 3) if closed else rand_valid_solid_tree(rng, 3)
        data = dump_manifold(graph)
        unreduced = copy.deepcopy(data)
        for piece in unreduced["pieces"]:
            for cone in piece["cones"]:
                shift = rng.choice([-2, -1, 1, 2])
                cone[1] += shift * cone[0]
                piece["b"] += shift
                shifted_cones += 1
        reduced_path = manifold_file(data, "reduced.json")
        unreduced_path = manifold_file(unreduced, "unreduced.json")
        commands = ("ctf", "oracle-check") if closed else ("longitude", "detect", "oracle-check")
        for command in commands:
            want = run(capsys, command, reduced_path, "--format", "json")[:2]
            got = run(capsys, command, unreduced_path, "--format", "json")[:2]
            assert got == want, (command, unreduced)
            if command == "oracle-check":
                assert got[0] == 0 and json.loads(got[1])["ok"] is True, unreduced
    assert shifted_cones > 150


def _two_piece_torus(m):
    """A solid torus whose high refinement certificate has N = m."""
    return {
        "role": "solid-torus",
        "pieces": [
            {"id": "root", "base": {"orientable": True, "crosscaps": 0},
             "cones": [[2, 1]], "b": -1, "boundary": 2},
            {"id": "leaf", "base": {"orientable": True, "crosscaps": 0},
             "cones": [[2, 1], [3, 1]], "b": -1, "boundary": 1},
        ],
        "edges": [{"from": ["leaf", 0], "to": ["root", 1],
                   "matrix": [[m, 1], [m + 1, 1]]}],
    }


def test_detect_certificate_at_a_64_bit_bound(manifold_file, capsys):
    m = 2**64 + 1
    code, out, _ = run(capsys, "detect", manifold_file(_two_piece_torus(m)),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["refinement_high"]["N"] == m


def test_detect_certificate_pattern_matches_the_linear_scan(manifold_file, capsys,
                                                             monkeypatch):
    from test_seifert import _linear_scan_on_pairs

    from tautfol import seifert

    for k in range(1, 13):
        m = 2**k + 1
        path = manifold_file(_two_piece_torus(m), f"t{k}.json")
        code, out, _ = run(capsys, "detect", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["refinement_high"]["N"] == m
        with monkeypatch.context() as patch:
            patch.setattr(seifert, "_scan_certificates", _linear_scan_on_pairs)
            assert run(capsys, "detect", path, "--format", "json") == (code, out, "")


def test_every_command_ends_in_an_exit_code(manifold_file, capsys):
    """No command ends in a traceback on the samples or on a graph whose
    edge names a boundary its piece does not have."""
    bad = manifold_file(EDGE_OUT_OF_RANGE)
    samples = sorted(str(p) for p in (ROOT / "samples").glob("*.json"))
    for path in samples + [bad]:
        for command in ("validate", "longitude", "detect", "ctf", "oracle-check"):
            code, _, _ = run(capsys, command, path, "--format", "json")
            assert code in (0, 1, 2, 3), (path, command)


def _source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _fresh_process(*argv):
    """Run ``python -m tautfol.cli ARGV`` in a new interpreter, so that an
    uncaught exception would show as a traceback on stderr."""
    return subprocess.run([sys.executable, "-m", "tautfol.cli", *argv], env=_source_env(),
                          capture_output=True, text=True, timeout=60)


def test_import_loads_no_dataclasses_or_typing():
    """Each command is a fresh process, and importing ``dataclasses`` (with
    ``inspect``, ``ast``) or ``typing`` would cost more than a decision.
    -S keeps site from loading any of them first."""
    code = ("import sys; before = set(sys.modules); import tautfol; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=_source_env(),
                          capture_output=True, text=True, timeout=60)
    added = set(proc.stdout.split())
    assert proc.returncode == 0 and "tautfol.decide" in added
    assert added.isdisjoint({"dataclasses", "inspect", "typing", "ast"})


# Runs each command named after FILE through main and prints
# {command: [exit code, stdout, stderr]} as JSON.
_EACH_COMMAND = """
import contextlib, io, json, sys
from tautfol.cli import main
results = {}
for command in sys.argv[2:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, sys.argv[1]])
    results[command] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


@pytest.mark.parametrize("role", ["solid-torus", "closed"])
def test_a_huge_boundary_count_fails_at_once(role, manifold_file):
    """Counting the dangling tori reads only the edges, so a declared
    boundary count of 10**9 is refused with the usual message, in a process
    capped at 1 GiB and 20 s, instead of walking every index."""
    data = {"role": role, "pieces": [dict(HALFTHIRD["pieces"][0], boundary=10**9)],
            "edges": []}
    invalid = f"error: {role} role but 1000000000 dangling boundary tori\n"
    expected = {
        "validate": [0, invalid, ""],
        "longitude": [2, "", invalid],
        "detect": [2, "", invalid],
        "ctf": [2, "", invalid],
        "oracle-check": [2, "", invalid],
    }
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", _EACH_COMMAND, manifold_file(data), *expected],
        env=_source_env(),
        capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["undecodable", "too-deeply-nested"])
def test_unreadable_file_exit_1(content, tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    proc = _fresh_process("detect", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read manifold file:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_closed_stdout_ends_without_a_traceback(fmt):
    """A reader that has gone before the report is written (as with
    ``| head -c 20``) ends the run with exit 141 and nothing on stderr.  The
    read end of the pipe is closed before the process starts, so every
    write meets a broken pipe."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tautfol.cli", "ctf",
             str(ROOT / "samples" / "closed_admits.json"), "--format", fmt],
            env=_source_env(), stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("command,stem", [("detect", "two_piece_tree"),
                                          ("ctf", "closed_admits")])
def test_no_flag_sets_a_certificate_bound(capsys, command, stem):
    """Detection over a tree is exact, so no flag sets the certificate
    bound: ``--nmax`` is an unknown argument, with exit 2 and no report."""
    assert "--nmax" not in _PARSER.format_help()
    with pytest.raises(SystemExit) as exc:
        main([command, str(ROOT / "samples" / f"{stem}.json"), "--nmax", "4"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("\ntautfol: error: unrecognized arguments: --nmax 4\n")


def test_main_is_reentrant_with_the_parser_built_at_import(manifold_file, capsys,
                                                           monkeypatch):
    """Repeated main calls in one process build no argument parser, the
    flags of one call do not reach the next, and a usage error leaves the
    next report byte-identical."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    half = manifold_file(HALFTHIRD)
    five = str(ROOT / "tests" / "golden" / "closed_five.json")
    five_ctf = (ROOT / "tests" / "golden" / "reports" / "closed_five.ctf.json").read_text(
        encoding="utf-8")
    detect = run(capsys, "detect", half, "--format", "json")
    assert detect[0] == 0
    for _ in range(3):
        code, out, _ = run(capsys, "detect", half)  # the text report
        assert code == 0 and out != detect[1]
        assert run(capsys, "detect", half, "--format", "json") == detect
        code, out, _ = run(capsys, "ctf", five, "--format", "json", "--split-edge", "e1")
        assert code == 0 and json.loads(out)["split_edge"] == "e1"
        assert run(capsys, "ctf", five, "--format", "json") == (0, five_ctf, "")
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", half])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        assert run(capsys, "detect", half, "--format", "json") == detect
    assert built == []


def _long_slope_chain():
    """A 3-piece solid chain glued by [[x, x + 1], [1, 1]] twice, x = 10^2500,
    onto a crosscap-1 leaf: every input integer is under the interpreter's
    4,300-digit limit on int-to-str conversion, but the longitude and the
    detected set's upper end are over it."""
    x = 10 ** 2500
    matrix = GluingMatrix(x, x + 1, 1, 1)
    pieces = [SeifertPiece(True, ((3, 1),), b=-1, boundary_count=2, ident="p0"),
              SeifertPiece(True, ((2, 1), (3, 1)), b=-2, boundary_count=2, ident="p1"),
              SeifertPiece(False, (), boundary_count=1, crosscaps=1, ident="q")]
    edges = [Edge("p1", 0, "p0", 1, matrix, "e0"), Edge("q", 0, "p1", 1, matrix, "e1")]
    return PlumbingGraph(pieces, edges, "solid-torus")


def test_reports_print_integers_past_the_conversion_limit(tmp_path, capsys):
    """The report prints every slope exactly; the limit still refuses an
    over-long input integer, and is back in place after each command."""
    graph = _long_slope_chain()
    path = tmp_path / "long.json"
    path.write_text(json.dumps(dump_manifold(graph)), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        slopes = {"longitude": str(rational_longitude(graph).slope),
                  "detect": str(detect_tree(graph).detected.end)}
    finally:
        sys.set_int_max_str_digits(limit)
    assert min(len(slope) for slope in slopes.values()) > 5000
    for command, slope in slopes.items():
        code, out, err = run(capsys, command, str(path))
        assert (code, err) == (0, "")
        assert f" {slope} (tau = " in out
        code, out, err = run(capsys, command, str(path), "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        got = report["longitude"] if command == "longitude" else report["detected"]["end"]
        assert got["slope"] == slope
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)
    too_long = tmp_path / "too_long.json"
    too_long.write_text(json.dumps(HALFHALF).replace('"b": 0', '"b": 1' + "0" * 4300),
                        encoding="utf-8")
    code, out, err = run(capsys, "longitude", str(too_long))
    assert (code, out) == (1, "") and err.startswith("error: cannot read manifold file")
    assert sys.get_int_max_str_digits() == limit


# The JSON report writer against the stdlib encoder it stands in for.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\xe9\u2028\U0001f600'),
                          st.characters()))
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@given(_REPORT_VALUES)
@example({"a": {}, "b": [], "c": (), "d": [[], [{}], ("x", -1)], "": -(10 ** 30)})
@example({"\u00e9\"\\\n": ["\x00\u2028", "\U0001f600"], "\x1f": {"k": [True, False, None]}})
@example(-7)
def test_the_report_writer_matches_the_stdlib_encoder(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_the_report_writer_reproduces_every_golden_report():
    reports = sorted((ROOT / "tests" / "golden" / "reports").glob("*.json"))
    assert reports
    for path in reports:
        text = path.read_text(encoding="utf-8")
        assert _json_text(json.loads(text)) + "\n" == text, path.name


@pytest.mark.parametrize("value", [
    1.5, {"a": [0.0]}, {1, 2}, {"a": frozenset()}, {1: "a"}, {"a": {None: 1}},
    ["x", b"bytes"], Fraction(1, 2),
], ids=["float", "nested-float", "set", "nested-set", "int-key", "none-key", "bytes",
        "fraction"])
def test_the_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("slope", [
    VERTICAL, Slope(0, 1), Slope(1, 1), Slope(-3, 7), Slope(4, -6), Slope(5, 2),
    Slope(-(2 ** 127 - 1), 3), Slope(10 ** 60 + 1, 10 ** 60), Slope(1, 10 ** 90),
    Slope(-1, 2 ** 200 + 1), Slope(7 ** 300, 1),
], ids=repr)
def test_tau_is_written_from_the_primitive_pair(slope):
    assert _tau_str(slope) == _fraction_str(slope.tau)


def _cones_past_the_budget(tmp_path):
    """A one-piece solid torus whose default N bound, 200,320,126, is far
    past the oracle's budget: the brute force would take a step per N."""
    data = {"role": "solid-torus",
            "pieces": [{"id": "a", "base": {"orientable": True, "crosscaps": 0},
                        "cones": [[10007, 1], [10009, 1]], "b": -1, "boundary": 1}],
            "edges": []}
    path = tmp_path / "cones_10007_10009.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_oracle_check_skips_a_piece_past_the_budget(tmp_path):
    """In a fresh process, main ends with exit 0 in under 1 s, and the
    skipped row names the bound and the budget."""
    timed_main = ("import sys, time; from tautfol.cli import main; "
                  "start = time.perf_counter(); code = main(sys.argv[1:]); "
                  "print(code, time.perf_counter() - start, file=sys.stderr)")
    proc = subprocess.run(
        [sys.executable, "-c", timed_main, "oracle-check", _cones_past_the_budget(tmp_path),
         "--format", "json"],
        env=_source_env(), capture_output=True, text=True, timeout=60)
    code, seconds = proc.stderr.split()
    assert code == "0" and float(seconds) < 1.0
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    piece, degenerate = report["rows"]
    assert piece["skipped"] == {"n_bound": 200_320_126, "budget": ORACLE_N_BUDGET}
    assert piece["core_matches_grid"] is True
    assert (piece["exhaustive_low"], piece["exhaustive_high"],
            piece["refinements_match"]) == (None, None, None)
    assert degenerate["consistent"] is True


def test_oracle_check_counts_only_the_checks_made(manifold_file, capsys, monkeypatch):
    """With every piece past the budget, the brute force never runs, each
    row is skipped, and ``ok`` still follows the core-versus-grid check."""
    import tautfol.cli as cli

    def refuse(*args):
        raise AssertionError("brute force run past the budget")

    monkeypatch.setattr(cli, "ORACLE_N_BUDGET", 1)
    monkeypatch.setattr(cli, "jn_exhaustive_extremal", refuse)
    path = manifold_file(HALFHALF)
    code, out, _ = run(capsys, "oracle-check", path, "--format", "json")
    report = json.loads(out)
    skipped = [row for row in report["rows"] if "skipped" in row]
    assert (code, report["ok"]) == (0, True)
    assert skipped and all(row["refinements_match"] is None for row in skipped)
    monkeypatch.setattr(cli, "core_interval", lambda piece, family: (-99, 99))
    code, out, _ = run(capsys, "oracle-check", path, "--format", "json")
    assert (code, json.loads(out)["ok"]) == (3, False)
