"""Run one workload's corpus in a single process: one caller, closed loop.

    python3 perfbench/worker.py MANIFEST OUT

MANIFEST (written by run.py) names the workload, the instance files, their
recorded expected outcomes, the run length, the per-instance time limit and
whether to trace.  The worker imports ``tautfol`` from ``src/`` of the
current directory, makes whole passes over the instances until the run
length has elapsed, not counting calls aborted at the time limit (and at
least ``min_samples`` calls succeeded), checks
every output outside the timed region, and writes its raw findings as JSON
to OUT.  Metrics are computed from them by run.py.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import gen  # noqa: E402
import spans  # noqa: E402

COMMANDS = {
    ("census", "closed"): "ctf",
    ("census", "solid-torus"): "detect",
    ("snf-chain", "closed"): "ctf",
    ("snf-chain", "solid-torus"): "longitude",
    ("oracle", "solid-torus"): "oracle-check",
}


class InstanceTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


class Failure(Exception):
    """The call ended without a usable result (exit code, exception)."""


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Workload:
    """The user-facing call of a workload and the checks on its output."""

    def __init__(self, tautfol, name):
        self.t = tautfol
        self.name = name

    def call(self, inst):
        """The timed call.  Returns the raw result."""
        t = self.t
        if self.name == "deep-chain":
            graph = t.load_manifold(inst["path"])
            result = t.detect_tree(graph)
            target = t.simplest_slope(result.detected)
            return result, target, t.extract_witness(graph, target)
        out, err = io.StringIO(), io.StringIO()
        argv = [COMMANDS[self.name, inst["role"]], inst["path"], "--format", "json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = t.cli.main(argv)
        if code != 0:
            raise Failure(f"exit:{code}")
        return out.getvalue().encode()

    def projection(self, result):
        """(bytes of the output, the part of it that is compared with the
        recorded hash).  A witness is one valid choice among many, so it is
        checked by ``verify`` instead of by hash."""
        if self.name == "deep-chain":
            detection, target, assignment = result
            full = canonical({"detection": self._detection(detection),
                              "target": str(target),
                              "assignment": {k: str(v) for k, v in assignment.items()}})
            return full, canonical({"detection": self._detection(detection),
                                    "target": str(target)})
        report = json.loads(result)
        if report.get("command") == "ctf":
            report.pop("witness", None)
            report.pop("piece_tags", None)
        return result, canonical(report)

    @staticmethod
    def _detection(r):
        def cert(c):
            return None if c is None else [c.n_value, c.a_value, c.side,
                                           list(c.cone_numerators),
                                           [list(p) for p in c.boundary_numerators],
                                           list(c.excluded), c.target_numerator]
        return {"kind": r.detected.kind, "start": str(r.detected.start),
                "end": str(r.detected.end), "branch": r.branch,
                "exceptions": [[str(e.slope), e.status.value, e.reason]
                               for e in r.exceptions],
                "low": cert(r.low_certificate), "high": cert(r.high_certificate)}

    def verify(self, inst, result):
        """Checks that do not rely on the recorded hash, and the recorded
        verdict of a ``ctf`` member whose default split failed when recorded.
        Returns a list of problems, empty when the output is right."""
        t = self.t
        if self.name == "deep-chain":
            _detection, target, assignment = result
            return self._coherent(t.load_manifold(inst["path"]), target, assignment)
        report = json.loads(result)
        if report["command"] == "oracle-check":
            return [] if report["ok"] is True else ["oracle-check reported ok = false"]
        admits = inst["expected"].get("admits")
        if report["command"] == "ctf" and admits not in (None, report["admits"]):
            return [f"ctf verdict admits = {report['admits']}, recorded {admits}"]
        if report["command"] == "ctf" and report["admits"]:
            graph = t.load_manifold(inst["path"])
            witness = {k: t.slope_from_string(v) for k, v in report["witness"].items()}
            if set(witness) != {e.ident for e in graph.edges}:
                return ["witness does not cover every JSJ torus"]
            if not t.revalidate_witness(graph, witness):
                return ["revalidate_witness rejected the witness"]
        if report["command"] == "longitude":
            return self._longitude_is_torsion(inst["manifold"], report["longitude"]["slope"])
        return []

    def _coherent(self, graph, target, assignment):
        """Every piece's boundary slopes lie in its relative detected set,
        for each choice of target torus."""
        t = self.t
        root = graph.root()
        if set(assignment) != {e.ident for e in graph.edges} | {"root"}:
            return ["assignment does not cover every torus"]
        if assignment["root"] != target:
            return ["assignment root differs from the target"]
        for pid, piece in graph.pieces.items():
            slopes = {}
            for j in range(piece.boundary_count):
                e = graph.edge_at(pid, j)
                if e is None:
                    slopes[j] = target if (pid, j) == root else None
                elif (e.from_piece, e.from_bdry) == (pid, j):
                    slopes[j] = assignment[e.ident]
                else:
                    slopes[j] = t.act(e.matrix, assignment[e.ident])
            for k in range(piece.boundary_count):
                family = t.ConstraintFamily(tuple(
                    t.SlopeArc.point(slopes[j])
                    for j in range(piece.boundary_count) if j != k))
                rel = t.detect_relative(piece, family)
                if not rel.detected.contains(slopes[k]):
                    return [f"piece {pid}: slope {slopes[k]} on torus {k} is "
                            "not detected relative to the others"]
        return []

    @staticmethod
    def _longitude_is_torsion(manifold, text):
        """p*h - q*d on the dangling torus is torsion in H_1: adding it to
        the relations leaves the exact rank unchanged."""
        p, q = (int(x) for x in text.split("/"))
        used = {tuple(e[s]) for e in manifold["edges"] for s in ("from", "to")}
        pid, j = next((p_["id"], k) for p_ in manifold["pieces"]
                      for k in range(p_["boundary"]) if (p_["id"], k) not in used)
        index, rels = gen.h1_relations(manifold)
        vec = [0] * len(index)
        vec[index[("h", pid)]] += p
        vec[index[("d", pid, j)]] -= q
        if gen.bareiss_rank(rels + [vec]) != gen.bareiss_rank(rels):
            return [f"longitude {text} is not torsion in H_1"]
        return []


# A reference run follows at most this much call time, so each call is
# scaled by the speed measured just after it: the speed of the shared
# machine changes within a second (see DESIGN.md, "Noise and bounds").
REFERENCE_PERIOD_S = 0.025
_REFERENCE_MATRICES = [[[random.Random(f"reference:{k}:{i}").randint(-9, 9) for i in range(10)]
                        for _ in range(10)] for k in range(4)]


def reference_work():
    """A fixed pure-Python kernel like the program's own work (exact integer
    elimination and Fraction arithmetic), about 1 ms on a shared two-core
    Xeon.  Timed between calls, it measures how fast the shared machine runs
    at that moment.  The garbage collector is off while it runs, so the heap
    the program left behind does not change its time."""
    gc.disable()
    try:
        for rows in _REFERENCE_MATRICES:
            gen.bareiss_rank(rows)
        x = Fraction(1, 3)
        for i in range(1, 60):
            x = (x * x + Fraction(i, 7)) / (x + 1)
            x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
    finally:
        gc.enable()


def nonproduct_pieces(manifold):
    return sum(1 for p in manifold["pieces"]
               if not (p["base"]["orientable"] and p["boundary"] == 2 and not p["cones"]))


def run(manifest):
    import tautfol
    import tautfol.cli  # noqa: F401  (bound as tautfol.cli for the CLI call)

    work = Workload(tautfol, manifest["workload"])
    tracer = spans.Tracer()
    if manifest["trace"]:
        tracer.install()
    insts = manifest["instances"]
    for inst in insts:
        with open(inst["path"], encoding="utf-8") as fh:
            inst["manifold"] = json.load(fh)
    state = [{"name": inst["name"], "times": [], "calls": [], "traced_times": [],
              "failure": None, "problems": [], "output": None} for inst in insts]
    limit = manifest["limit_s"]
    signal.signal(signal.SIGALRM, _on_alarm)
    passes = []
    start = time.perf_counter()
    aborted = since_reference = 0.0
    # Untraced calls as [seconds, seconds of the reference run that followed
    # the call], and every reference run's seconds.
    calls, references = [], []
    pending = []  # untraced calls that wait for the next reference run

    def measure_speed():
        nonlocal since_reference
        r0 = time.perf_counter()
        reference_work()
        took = time.perf_counter() - r0
        references.append(took)
        for call in pending:
            call[1] = took
        pending.clear()
        since_reference = 0.0

    successes = 0
    pass_no = 0
    while True:
        traced = manifest["trace"] and pass_no % 2 == 1
        tracer.reset()
        for inst, st in zip(insts, state):
            if st["failure"] == "timeout":
                continue  # a timeout is not retried: it would cost the limit again
            tracer.active = traced
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                result = work.call(inst)
                failure = None
            except InstanceTimeout:
                failure = "timeout"
            except Failure as exc:
                failure = str(exc)
            except Exception as exc:  # the program under test raised: count it
                failure = f"exception:{type(exc).__name__}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                dt = time.perf_counter() - t0
                tracer.active = False
            if failure == "timeout":  # charged to failures, not to time measured
                aborted += dt
            elif not traced:
                call = [dt, None]
                calls.append(call)
                pending.append(call)
                since_reference += dt
            if since_reference >= REFERENCE_PERIOD_S:
                measure_speed()
            if failure is not None:
                st["failure"] = st["failure"] or failure
                st["failed_s"] = dt
                continue
            if traced:
                st["traced_times"].append(dt)
            else:
                st["times"].append(dt)
                st["calls"].append(call)
                successes += 1
            full, part = work.projection(result)
            if st["output"] is None:
                st["output"] = gen.sha(full)
                st["bytes"] = len(full) if work.name != "deep-chain" else 0
                st["hash"] = gen.sha(part)
                expected = inst["expected"]
                if expected.get("hash") not in (None, st["hash"]):
                    st["problems"].append("report differs from the recorded one")
                st["problems"].extend(work.verify(inst, result))
            elif st["output"] != gen.sha(full):
                st["problems"].append("output differs between repeated calls")
        if pending:
            measure_speed()
        passes.append({"spans": {k: list(v) for k, v in
                                 spans.self_times(tracer.spans).items()},
                       "counters": dict(tracer.counters)} if traced else {})
        pass_no += 1
        elapsed = time.perf_counter() - start - aborted
        done = elapsed >= manifest["seconds"] and successes >= manifest["min_samples"]
        if manifest["trace"]:  # at least two untraced passes, for the first-call figures
            done = done and pass_no % 2 == 0 and pass_no >= 4
        if done or elapsed >= manifest["max_seconds"] or successes == 0:
            break
    tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for inst, st in zip(insts, state):
        st["nonproduct"] = nonproduct_pieces(inst["manifold"])
    return {"instances": state, "calls": calls, "references": references,
            "passes": passes, "peak_rss_mb": peak_kb / 1024.0}


def main(argv):
    manifest_path, out_path = argv
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    found = run(manifest)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(found, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
