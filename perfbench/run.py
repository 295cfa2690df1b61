"""The tautfol benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The command

1. regenerates the workload's corpus from ``--seed`` (see ``select``) and
   writes it as manifold JSON files under ``.perfbench_work/``;
2. measures ``setup_s``: in fresh processes, importing ``tautfol`` from
   ``src/`` and loading every corpus file, median of several processes,
   scaled to the reference speed;
3. runs the corpus in one fresh worker process (``worker.py``) for
   ``--seconds``, checks every output, and
4. prints each metric with its unit, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  The workloads, metrics
and predictions are described in ``DESIGN.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
WORK_DIR = ".perfbench_work"
LIMIT_S = 5.0            # per-instance time limit; a timeout is a failure
MIN_SAMPLES = 100        # so that 10 samples lie above the 90th percentile
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0   # the whole command stays under 180 s
# Call times are scaled to the machine speed at which worker.reference_work
# takes REFERENCE_NOMINAL_S, each by the time of the reference run that
# followed the call (see DESIGN.md, "Noise and bounds").
REFERENCE_NOMINAL_S = 0.001

END_TO_END_UNITS = {
    "setup_s": "s", "instance_p50_ms": "ms", "instance_p90_ms": "ms",
    "throughput_per_s": "1/s", "within_1s_share": "ratio",
    "failed_share": "ratio", "peak_rss_mb": "MB",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_record():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def select(workload, seed, record):
    """The run's pool members, chosen by ``seed`` from two strata.

    Members that failed when the record was made: all of them.  The rest:
    sorted by the time each took when recorded, cut into consecutive groups,
    one member from each.  Every corpus thus has the same mix of cheap,
    expensive and failing instances.  The order is shuffled by ``seed``."""
    pool = record["pools"][workload]
    size = gen.CORPUS_SIZE[workload]
    failing = sorted(name for name in pool if pool[name]["failure"])
    ranked = sorted((name for name in pool if not pool[name]["failure"]),
                    key=lambda name: (pool[name]["ms"], name))
    rng = random.Random(f"select:{workload}:{seed}")
    picks = list(failing)
    groups, total = size - len(failing), len(ranked)
    picks += [rng.choice(ranked[g * total // groups:(g + 1) * total // groups])
              for g in range(groups)]
    rng.shuffle(picks)
    return picks


def build_corpus(workload, seed, record, root):
    """Write the corpus; return the worker's instance list and its digest."""
    out_dir = os.path.join(root, WORK_DIR, f"{workload}-{seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    items = []
    for name in select(workload, seed, record):
        items.append((name, gen.encode(gen.pool_instance(name)),
                      record["pools"][workload][name]))
    if workload == "census":
        for name, entry in sorted(record["samples"].items()):
            with open(os.path.join(root, "samples", name + ".json"), "rb") as fh:
                items.append((f"samples-{name}", fh.read(), entry))
    instances = []
    for name, data, entry in items:
        if gen.sha(data) != entry["file"]:
            fail(f"{name}: input differs from the recorded corpus; "
                 "regenerate expected.json with perfbench/record.py")
        path = os.path.join(out_dir, name + ".json")
        with open(path, "wb") as fh:
            fh.write(data)
        role = json.loads(data)["role"]
        expected = {"hash": entry["hash"], "failure": entry["failure"],
                    "admits": entry.get("admits")}
        instances.append({"name": name, "path": path, "role": role,
                          "expected": expected})
    return instances, gen.digest((n, d) for n, d, _ in items), out_dir


def remove_work_dir(out_dir):
    """Remove this run's files, and the work directory once it is empty."""
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(out_dir))
    except OSError:
        pass  # another run's files are still there


def measure_setup(instances, out_dir):
    """Median over fresh processes of import + load_manifold of every file,
    each scaled to the reference speed by a reference run made right after."""
    listing = os.path.join(out_dir, "files.json")
    with open(listing, "w", encoding="utf-8") as fh:
        json.dump([inst["path"] for inst in instances], fh)
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first process only warms caches
        out = subprocess.run([sys.executable, probe, listing], check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            took, reference = map(float, out.stdout.split())
            times.append(took * REFERENCE_NOMINAL_S / reference)
    return statistics.median(times)


def run_worker(manifest, out_dir, deadline):
    path = os.path.join(out_dir, "manifest.json")
    out = os.path.join(out_dir, "found.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), path, out],
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail("worker did not finish before the run deadline")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(found, setup_s):
    """The end-to-end metrics.  Each call time is scaled to the reference
    speed: by the nominal over the time of the reference run that followed
    the call."""
    insts = found["instances"]
    times = [t * REFERENCE_NOMINAL_S / ref for st in insts if not st["failure"]
             for t, ref in st["calls"]]
    timed = sum(t * REFERENCE_NOMINAL_S / ref for t, ref in found["calls"])
    attempted = len(insts)
    failed = sum(1 for st in insts if st["failure"])
    within = sum(1 for st in insts  # the ROADMAP target is in wall seconds, unscaled
                 if not st["failure"] and st["times"] and statistics.median(st["times"]) < 1.0)
    return {
        "setup_s": setup_s,
        "instance_p50_ms": 1000 * statistics.median(times),
        "instance_p90_ms": 1000 * percentile(times, 90),
        "throughput_per_s": len(times) / timed,
        "within_1s_share": within / attempted,
        # Rule of succession: (failed + 1) / (attempted + 2) estimates the
        # failure probability and is never 0; the raw counts are printed.
        "failed_share": (failed + 1) / (attempted + 2),
        "peak_rss_mb": found["peak_rss_mb"],
    }


PER_LAYER_SPANS = [
    "snf.smith_normal_form",
    "graph.load_manifold", "graph.validate", "graph.presentation",
    "graph.homology", "graph.rational_longitude", "graph.split_at_edge",
    "seifert.detect_relative",
    "decide.detect_tree", "decide.extract_witness", "decide.classify_piece",
    "decide.check_degenerate", "decide.iter_piece_evaluations", "decide.decide_ctf",
    "slopes.simplest_slope",
    "oracle.grid_union", "oracle.jn_exhaustive_extremal",
]
PER_LAYER_COUNTERS = {
    "snf.max_rows": "rows", "snf.u_max_bits": "bits",
    "seifert.n_bound_max": "count", "seifert.cert_n_max": "count",
}


def first_and_repeat_p50(insts):
    """(median first call, median later call) in seconds, over the instances
    that succeeded at least twice untraced, or None if none did.  The first
    pass is untraced, so ``times[0]`` is each instance's first call in the
    process; a cache that outlives a call shows as a gap between the two."""
    run = [st["times"] for st in insts if not st["failure"] and len(st["times"]) > 1]
    if not run:
        return None
    return (statistics.median([times[0] for times in run]),
            statistics.median([t for times in run for t in times[1:]]))


def per_layer(found):
    """Per traced pass: calls and self time of each traced function (self
    time as the median over traced passes), counters read from return
    values, first against repeated calls, and the tracing overhead against
    the untraced passes."""
    traced = [p for p in found["passes"] if "spans" in p]
    first = traced[0]

    def calls(name):
        return first["spans"].get(name, [0, 0.0])[0]

    def self_ms(*names):
        return 1000 * statistics.median(
            sum(p["spans"].get(n, [0, 0.0])[1] for n in names) for p in traced)

    out = {}
    for name in PER_LAYER_SPANS:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    refine = ("seifert.jn_refine_low", "seifert.jn_refine_high")
    out["seifert.jn_refine.calls"] = (sum(calls(n) for n in refine), "count")
    out["seifert.jn_refine.self_ms"] = (self_ms(*refine), "ms")
    for name, unit in PER_LAYER_COUNTERS.items():
        out[name] = (first["counters"].get(name, 0), unit)
    kernel = calls("seifert.detect_relative")
    horizontal = first["counters"].get("seifert.horizontal_results", 0)
    out["seifert.horizontal_share"] = (horizontal / kernel if kernel else 0.0, "ratio")
    run = [st for st in found["instances"] if st["failure"] != "timeout"]
    pieces = sum(st["nonproduct"] for st in run)
    out["decide.kernel_calls_per_piece"] = (kernel / pieces if pieces else 0.0, "ratio")
    out["slopes.arc_ops.calls"] = (calls("slopes.act_arc") + calls("slopes.arc_intersect"),
                                   "count")
    out["cli.main.self_ms"] = (self_ms("cli.main"), "ms")
    out["cli.report_bytes"] = (sum(st.get("bytes", 0) for st in run), "B")
    first, repeat = first_and_repeat_p50(found["instances"])
    out["cache.first_call_p50_ms"] = (1000 * first, "ms")
    out["cache.repeat_call_p50_ms"] = (1000 * repeat, "ms")
    both = [st for st in found["instances"]
            if not st["failure"] and st["times"] and st["traced_times"]]
    traced_times = [t for st in both for t in st["traced_times"]]
    plain_times = [t for st in both for t in st["times"]]
    out["trace.overhead_p50_ms"] = (
        1000 * (statistics.median(traced_times) - statistics.median(plain_times)), "ms")
    out["trace.overhead_share"] = (
        sum(statistics.median(st["traced_times"]) for st in both)
        / sum(statistics.median(st["times"]) for st in both) - 1, "ratio")
    return out


def check(found, instances):
    """Problems that make the run incorrect: an output that differs from the
    record or fails an independent check, and a failure of an instance that
    succeeded when the record was made."""
    problems = []
    for inst, st in zip(instances, found["instances"]):
        problems.extend(f"{st['name']}: {p}" for p in st["problems"])
        if st["failure"] and inst["expected"]["failure"] is None:
            problems.append(f"{st['name']}: {st['failure']} (succeeded when recorded)")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tautfol", "__init__.py")):
        fail("no src/tautfol here; run from the root of a tautfol checkout")
    if args.workload == "census" and not os.path.isdir(os.path.join(root, "samples")):
        fail("no samples/ here; run from the root of a tautfol checkout")
    record = load_record()
    instances, digest, out_dir = build_corpus(args.workload, args.seed, record, root)
    setup_s = None if args.trace else measure_setup(instances, out_dir)
    manifest = {"workload": args.workload, "instances": instances,
                "seconds": args.seconds, "max_seconds": 4 * args.seconds,
                "min_samples": 0 if args.trace else MIN_SAMPLES, "limit_s": LIMIT_S,
                "trace": bool(args.trace)}
    found = run_worker(manifest, out_dir, deadline)
    remove_work_dir(out_dir)

    problems = check(found, instances)
    insts = found["instances"]
    samples = sum(len(st["times"]) for st in insts)
    failures = [f"{st['name']}={st['failure']}" for st in insts if st["failure"]]
    print(f"workload {args.workload}, seed {args.seed}, corpus {digest[:16]}, "
          f"{len(insts)} instances, {samples} timed calls in "
          f"{len([p for p in found['passes'] if 'spans' not in p])} untraced passes")
    print(f"failed: {len(failures)} of {len(insts)} {' '.join(failures)}".rstrip())
    if not args.trace:
        times = [t for st in insts if not st["failure"] for t in st["times"]]
        reference = statistics.mean(found["references"])
        print(f"unscaled: p50 {1000 * statistics.median(times):.4g} ms, "
              f"{len(times) / sum(t for t, _ in found['calls']):.4g} calls/s; reference "
              f"kernel {1000 * reference:.4g} ms over {len(found['references'])} runs "
              f"(nominal {1000 * REFERENCE_NOMINAL_S:g} ms)")
        first_repeat = first_and_repeat_p50(insts)
        if first_repeat:
            print(f"unscaled: first call p50 {1000 * first_repeat[0]:.4g} ms, "
                  f"later calls p50 {1000 * first_repeat[1]:.4g} ms")
    if args.trace:
        metrics = per_layer(found)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(found, setup_s).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for p in problems:
        print(f"OUTPUT CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": len(insts), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
