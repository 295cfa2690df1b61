"""The per-piece constant of the four stages on the deep-chain pool.

    python3 tools/per_piece.py [--src DIR ...] [--processes 6] [--passes 9]

Run from the root of a source checkout.  The pool is the benchmark's
deep-chain pool (``perfbench/gen.py``, imported read-only): 120 solid
plumbing chains, 1,902 pieces.  Each stage is timed over the whole pool, in
microseconds per piece:

* reader: ``json.loads`` and ``parse_manifold`` of each member's text;
* kernel: ``detect_relative`` on the families the tree feeds it;
* tree step: ``detect_tree`` on freshly read graphs (validation included),
  with the kernel's answers looked up instead of computed;
* extraction: ``extract_witness`` at the simplest detected slope.

A process reports the least of ``--passes`` passes per stage, with the
garbage collector off while a pass runs.  Each ``--src`` (default:
``src``) is imported in its own processes; with two or more, the processes
alternate and the side that runs first alternates too.  The table gives
the least over each side's processes, and the last line is the same as
JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STAGES = ("reader", "kernel", "tree_step", "extraction")


def _least(passes, run, setup=lambda: None):
    """The least time of ``passes`` runs of ``run(setup())``, only ``run``
    timed and the collector off while it runs."""
    best = None
    for _ in range(passes):
        made = setup()
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        run(made)
        took = time.perf_counter() - start
        gc.enable()
        best = took if best is None else min(best, took)
    return best


def measure(src, passes):
    """{stage: microseconds per piece} of the tree under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import gen
    import tautfol
    from tautfol import decide

    texts = [gen.encode(gen.pool_instance(name)) for name in gen.pool_names("deep-chain")]
    pieces = sum(len(json.loads(text)["pieces"]) for text in texts)

    def read():
        return [tautfol.parse_manifold(json.loads(text)) for text in texts]

    graphs = read()
    targets = [tautfol.simplest_slope(tautfol.detect_tree(g).detected) for g in graphs]
    pairs = [pair for g in graphs for pair in decide.iter_piece_evaluations(g)]

    # The kernel's answers, in the order the tree step asks for them.
    answers, kernel = [], decide.detect_relative

    def recording(piece, family, n_max=None):
        answers.append(kernel(piece, family, n_max))
        return answers[-1]

    decide.detect_relative = recording
    for g in read():
        tautfol.detect_tree(g)

    def replaying():
        replay = iter(answers)
        decide.detect_relative = lambda piece, family, n_max=None: next(replay)
        return read()

    took = {
        "reader": _least(passes, lambda _: read()),
        "kernel": _least(passes, lambda _: [kernel(p, f) for p, f in pairs]),
        "tree_step": _least(passes, lambda fresh: [tautfol.detect_tree(g) for g in fresh],
                            replaying),
    }
    decide.detect_relative = kernel
    took["extraction"] = _least(passes, lambda _: [tautfol.extract_witness(g, t)
                                                   for g, t in zip(graphs, targets)])
    return {stage: round(seconds / pieces * 1e6, 2) for stage, seconds in took.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append",
                        help="a source tree to import tautfol from (repeatable)")
    parser.add_argument("--processes", type=int, default=6)
    parser.add_argument("--passes", type=int, default=9)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child, args.passes)))
        return 0
    sources = args.src or ["src"]
    best = {src: {} for src in sources}
    for k in range(args.processes):
        for src in sources[k % len(sources):] + sources[:k % len(sources)]:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", src,
                 "--passes", str(args.passes)],
                check=True, capture_output=True, text=True).stdout
            for stage, value in json.loads(out).items():
                best[src][stage] = min(best[src].get(stage, value), value)
    print("stage        " + "".join(f"{src[-24:]:>26}" for src in sources))
    for stage in STAGES:
        print(f"{stage:<13}" + "".join(f"{best[src][stage]:>26.2f}" for src in sources))
    print(json.dumps(best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
