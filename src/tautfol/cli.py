"""Command line front end.

Commands operate on a manifold JSON file (format documented in graph.py):

    tautfol validate      FILE    graph diagnostics
    tautfol longitude     FILE    rational longitude of a solid-torus graph
    tautfol detect        FILE    detected/strongly detected boundary slopes
    tautfol ctf           FILE    taut-foliation decision for a closed graph
    tautfol oracle-check  FILE    closed form vs brute force cross-check

Exit codes: 0 success (including a mathematical "admits = false"), 1
malformed input or an unknown ``--split-edge``, 2 a usage error (as
argparse's, an unknown flag included), a role mismatch, a graph that fails
validation (every command names its errors alike) or a piece, constraint
family or slope the kernel cannot take, 3 internal-consistency failure: an
oracle-check mismatch, or a DecisionError (a witness that fails its check,
or a certificate scan that its replay contradicts), 141 standard output
closed before the report was written (as for a process that SIGPIPE ends,
128 + 13; no traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .decide import (
    DecisionError,
    check_degenerate,
    decide_ctf,
    detect_tree,
    iter_piece_evaluations,
)
from .graph import (
    ManifoldFormatError,
    RoleError,
    load_manifold,
    rational_longitude,
    require_valid,
    split_at_edge,
)
from .oracle import grid_union, jn_exhaustive_extremal
from .seifert import (
    FamilyError,
    PieceError,
    core_interval,
    default_n_bound,
    jn_refine_high,
    jn_refine_low,
    v_count,
)
from .slopes import SlopeError

SCHEMA = 1
EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_ROLE = 2
EXIT_ORACLE = 3
EXIT_PIPE = 141
# oracle-check's brute force takes a step per N, so a piece whose N bound
# passes this budget is reported as skipped rather than searched.
ORACLE_N_BUDGET = 100_000


def _fraction_str(value):
    if value is None:
        return "inf"
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _tau_str(slope):
    """tau = -p/q of a slope, written from its primitive pair; "inf" for the
    vertical slope."""
    return f"{-slope.p}/{slope.q}" if slope.q else "inf"


def _slope_json(slope):
    return {"slope": str(slope), "tau": _tau_str(slope)}


def _arc_json(arc):
    out = {"kind": arc.kind}
    if arc.is_point:
        out["point"] = _slope_json(arc.start)
    elif arc.kind == "arc":
        out["start"] = _slope_json(arc.start)
        out["end"] = _slope_json(arc.end)
    return out


def _certificate_json(cert):
    if cert is None:
        return None
    return {
        "N": cert.n_value,
        "A": cert.a_value,
        "side": cert.side,
        "cones": list(cert.cone_numerators),
        "boundaries": [[j, v] for j, v in cert.boundary_numerators],
        "excluded": list(cert.excluded),
        "target": cert.target_numerator,
    }


def _detection_json(result):
    return {
        "detected": _arc_json(result.detected),
        "branch": result.branch,
        "exceptional": [
            {
                "slope": str(e.slope),
                "tau": _tau_str(e.slope),
                "status": e.status.value,
                "reason": e.reason,
            }
            for e in result.exceptions
        ],
        "refinement_low": _certificate_json(result.low_certificate),
        "refinement_high": _certificate_json(result.high_certificate),
    }


def _json_text(value):
    """``json.dumps(value, sort_keys=True, indent=2)`` for the values a
    report holds: str, int, bool, None, and lists, tuples and str-keyed
    dicts of them.  Any other value, a float included, raises TypeError.

    The stdlib serves ``indent`` only with its pure-Python encoder; this
    writes the same bytes directly, strings through its C escaper."""
    parts = []
    _write_json(value, "\n", parts.append)
    return "".join(parts)


def _write_json(value, indent, put):
    kind = type(value)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is int:
        put(int.__repr__(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        # A key that is not a str raises TypeError, in the sort or the escaper.
        for key, item in sorted(value.items()):
            put(sep)
            put(encode_basestring_ascii(key))
            put(": ")
            _write_json(item, inner, put)
            sep = "," + inner
        put(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put)
            sep = "," + inner
        put(indent + "]")
    else:
        raise TypeError(f"a report holds no {kind.__name__}: {value!r}")


def _emit(report, fmt, text_lines):
    """Print the report as JSON, or the lines that ``text_lines()`` builds
    for ``--format text``; only the printed form is built."""
    if fmt == "json":
        print(_json_text(report))
    else:
        for line in text_lines():
            print(line)


def _cmd_validate(graph, args):
    diags = graph.diagnostics
    report = {"schema": SCHEMA, "command": "validate", "diagnostics": diags,
              "clean": not diags}
    _emit(report, args.format, lambda: ["validation: clean"] if not diags else diags)
    return EXIT_OK


def _cmd_longitude(graph, args):
    result = rational_longitude(graph)
    report = {
        "schema": SCHEMA,
        "command": "longitude",
        "longitude": _slope_json(result.slope),
        "order": result.order,
    }
    _emit(report, args.format, lambda: [
        f"rational longitude: {result.slope} (tau = "
        f"{_tau_str(result.slope)}), order {result.order} in H_1"])
    return EXIT_OK


def _cmd_detect(graph, args):
    result = detect_tree(graph)
    report = {"schema": SCHEMA, "command": "detect"}
    report.update(_detection_json(result))

    def lines():
        arc = result.detected
        yield f"detected set: {arc.kind}"
        if arc.is_point:
            yield f"  point {arc.start} (tau = {_tau_str(arc.start)})"
        elif arc.kind == "arc":
            yield f"  from {arc.start} (tau = {_tau_str(arc.start)})"
            yield f"  to   {arc.end} (tau = {_tau_str(arc.end)})"
        for e in result.exceptions:
            yield (f"  {e.status.value}: {e.slope} "
                   f"(tau = {_tau_str(e.slope)}) - {e.reason}")
        if not result.exceptions:
            yield "  every detected rational slope is strongly detected"

    _emit(report, args.format, lines)
    return EXIT_OK


def _cmd_ctf(graph, args):
    idents = [e.ident for e in graph.edges]
    if args.split_edge is not None and args.split_edge not in idents:
        print(f"error: no edge {args.split_edge!r}; the edges are: "
              f"{', '.join(idents) or 'none'}", file=sys.stderr)
        return EXIT_MALFORMED
    verdict = decide_ctf(graph, split_edge=args.split_edge)
    report = {
        "schema": SCHEMA,
        "command": "ctf",
        "admits": verdict.admits,
        "witness": {key: str(s) for key, s in sorted(verdict.witness.items())},
        "piece_tags": {str(k): v for k, v in sorted(verdict.piece_tags.items(),
                                                    key=lambda kv: str(kv[0]))},
        "lspace_note": verdict.note,
        "split_edge": verdict.split_edge,
    }

    def lines():
        yield f"admits co-oriented taut foliation: {verdict.admits}"
        yield f"note: {verdict.note}"
        for key, s in sorted(verdict.witness.items()):
            yield f"  witness slope on {key}: {s} (tau = {_tau_str(s)})"
        for k, v in sorted(verdict.piece_tags.items(), key=lambda kv: str(kv[0])):
            yield f"  piece {k}: {v}"

    _emit(report, args.format, lines)
    return EXIT_OK


def _cmd_oracle_check(graph, args):
    rows = []
    ok = True
    if graph.role == "closed":
        require_valid(graph)  # before graph.edges[0]: a closed file may have none
        sides = split_at_edge(graph, graph.edges[0])
    else:
        sides = (graph,)
    for side in sides:
        for piece, family in iter_piece_evaluations(side):
            if (not piece.base_orientable or piece.is_solid_torus_piece
                    or piece.is_product_piece or v_count(family) != 0):
                continue
            c_min, c_max = core_interval(piece, family)
            endpoints = [(-s.p, s.q) for arc in family.arcs for s in (arc.start, arc.end) if s]
            lo, hi = grid_union(piece, family)
            row = {
                "piece": str(piece.ident),
                "core": [c_min, c_max],
                "grid": [lo, hi],
                "core_matches_grid": (c_min, c_max) == (lo, hi),
            }
            n_bound = default_n_bound(piece, endpoints)
            low = jn_refine_low(piece, family, n_max=n_bound)
            high = jn_refine_high(piece, family, n_max=n_bound)
            row["refine_low"] = _fraction_str(low[0]) if low else None
            row["refine_high"] = _fraction_str(high[0]) if high else None
            if n_bound > ORACLE_N_BUDGET:
                row.update(exhaustive_low=None, exhaustive_high=None, refinements_match=None,
                           skipped={"n_bound": n_bound, "budget": ORACLE_N_BUDGET})
            else:
                ex_low = jn_exhaustive_extremal(piece, family, "low", n_bound)
                ex_high = jn_exhaustive_extremal(piece, family, "high", n_bound)
                row["exhaustive_low"] = _fraction_str(ex_low) if ex_low is not None else None
                row["exhaustive_high"] = _fraction_str(ex_high) if ex_high is not None else None
                row["refinements_match"] = (
                    ((low[0] if low else None) == ex_low)
                    and ((high[0] if high else None) == ex_high))
            # A skipped search (refinements_match None) is no check made.
            ok = ok and row["core_matches_grid"] and row["refinements_match"] is not False
            rows.append(row)
        degenerate = check_degenerate(side)
        rows.append({
            "piece": "degenerate-cross-check",
            "is_degenerate": degenerate.is_degenerate,
            "branch": degenerate.branch,
            "consistent": degenerate.consistent,
        })
        ok = ok and degenerate.consistent
    report = {"schema": SCHEMA, "command": "oracle-check", "ok": ok, "rows": rows}
    _emit(report, args.format, lambda: [json.dumps(row, sort_keys=True) for row in rows]
          + [f"oracle-check: {'ok' if ok else 'MISMATCH'}"])
    return EXIT_OK if ok else EXIT_ORACLE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tautfol",
        description="Foliation-detected slope sets and taut-foliation "
                    "decisions for graph manifolds.")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("input", help="manifold JSON file")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--split-edge", default=None,
                        help="edge ident to split along for ctf (default e0)")
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "longitude": _cmd_longitude,
    "detect": _cmd_detect,
    "ctf": _cmd_ctf,
    "oracle-check": _cmd_oracle_check,
}
# parse_args leaves the parser unchanged, so one serves every call of main.
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        graph = load_manifold(args.input)
    except ManifoldFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    # A report prints every integer in full, so the interpreter's limit on
    # int-to-str conversion (Python 3.10.7 on; 0 is none) guards only the
    # reader above and is lifted while the command runs.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = _HANDLERS[args.command](graph, args)
        sys.stdout.flush()  # a reader that has gone is met here, not at exit
    except (RoleError, PieceError, FamilyError, SlopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ROLE
    except DecisionError as exc:
        print(f"internal-consistency failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's own flush at
        # exit does not fail on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
