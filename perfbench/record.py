"""Record the expected outcome of every pool member into expected.json.

    python3 perfbench/record.py

Run from the root of a source checkout.  Each pool member of every workload
(and, for census, each ``samples/`` file) is run once through the worker.
The record keeps the input file's sha256, a digest of each whole pool, the
hash of the checked part of the output (or the failure, for members that
fail), and the time taken, which ``run.select`` uses to stratify the corpus.

Members that fail still get what can be checked: a member that times out is
run once more with the limit ``LONG_LIMIT_S``, and its hash is kept if it
finishes; a ``ctf`` member that fails on its default split keeps the verdict
(``admits``) of another split, since the verdict does not depend on the
split.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

LONG_LIMIT_S = 600.0


def split_verdict(path):
    """``admits`` of ``ctf`` along the first JSJ torus after the default
    one whose split succeeds, or None."""
    sys.path.insert(0, os.path.abspath("src"))
    import tautfol.cli

    for edge in tautfol.load_manifold(path).edges[1:]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tautfol.cli.main(["ctf", path, "--split-edge", edge.ident, "--format", "json"])
        if code == 0:
            return json.loads(out.getvalue())["admits"]
    return None


def record_workload(workload, root, samples):
    out_dir = os.path.join(root, run.WORK_DIR, f"record-{workload}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    items = [(name, gen.encode(gen.pool_instance(name))) for name in gen.pool_names(workload)]
    digest = gen.digest(items)
    sample_names = []
    if samples:
        for fname in sorted(os.listdir(os.path.join(root, "samples"))):
            if fname.endswith(".json"):
                with open(os.path.join(root, "samples", fname), "rb") as fh:
                    items.append((fname[:-5], fh.read()))
                sample_names.append(fname[:-5])
    instances = []
    for name, data in items:
        path = os.path.join(out_dir, name + ".json")
        with open(path, "wb") as fh:
            fh.write(data)
        instances.append({"name": name, "path": path, "role": json.loads(data)["role"],
                          "expected": {"hash": None, "failure": None}})
    manifest = {"workload": workload, "instances": instances, "seconds": 0,
                "max_seconds": 0, "min_samples": 0, "limit_s": run.LIMIT_S,
                "trace": False}
    found = run.run_worker(manifest, out_dir, time.monotonic() + 3600)["instances"]
    slow = [inst for inst, st in zip(instances, found) if st["failure"] == "timeout"]
    if slow:
        manifest.update(instances=slow, limit_s=LONG_LIMIT_S)
        slow_found = run.run_worker(manifest, out_dir, time.monotonic() + 3600)["instances"]
        long_runs = {st["name"]: st for st in slow_found}
    pool, recorded_samples = {}, {}
    for inst, (name, data), st in zip(instances, items, found):
        failure = st["failure"] or ("check" if st["problems"] else None)
        seconds = st["times"][0] if st["times"] else st["failed_s"]
        entry = {"file": gen.sha(data), "hash": None if failure else st["hash"],
                 "failure": failure, "ms": round(1000 * seconds, 3)}
        if failure == "timeout":
            long_run = long_runs[name]
            if not (long_run["failure"] or long_run["problems"]):
                entry["hash"] = long_run["hash"]
            print(f"{name}: {long_run['failure'] or 'succeeds'} with a limit of "
                  f"{LONG_LIMIT_S:g} s", file=sys.stderr)
        elif failure and workload in ("census", "snf-chain") and inst["role"] == "closed":
            entry["admits"] = split_verdict(inst["path"])
        (recorded_samples if name in sample_names else pool)[name] = entry
        if failure:
            print(f"{name}: {failure} {st['problems']}", file=sys.stderr)
    run.remove_work_dir(out_dir)
    return pool, recorded_samples, digest


def main():
    root = os.getcwd()
    record = {"limit_s": run.LIMIT_S, "pools": {}, "digests": {}, "samples": {}}
    for workload in gen.WORKLOADS:
        pool, samples, digest = record_workload(workload, root, workload == "census")
        record["pools"][workload] = pool
        record["digests"][workload] = digest
        if workload == "census":
            record["samples"] = samples
        print(f"{workload}: {len(pool)} members, "
              f"{sum(1 for e in pool.values() if e['failure'])} failing", file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
