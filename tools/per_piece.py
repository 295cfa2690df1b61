"""The per-piece constant of the four stages on the deep-chain pool, with
validation and the kernel's certificate scan timed apart.

    python3 tools/per_piece.py [--src DIR ...] [--processes 6] [--passes 9]

Run from the root of a source checkout.  The pool is the benchmark's
deep-chain pool (``perfbench/gen.py``, imported read-only): 120 solid
plumbing chains, 1,902 pieces.  Each stage is timed over the whole pool, in
microseconds per piece:

* reader: ``json.loads`` and ``parse_manifold`` of each member's text;
* validation: ``validate`` on each of the pool's graphs, timed apart: a
  part of the reader where building a graph validates it, and of the tree
  step where the first walk of a graph does;
* kernel: ``detect_relative`` on the families the tree feeds it;
* scan: the kernel's certificate scan, ``_scan_certificates``, replayed on
  the slot lists it was given during the kernel stage (a part of the
  kernel, which the table also shows without it as ``kernel less scan``);
* tree step: ``detect_tree`` on freshly read graphs, with the kernel's
  answers looked up instead of computed;
* extraction: ``extract_witness`` at the simplest detected slope;
* total: the per-piece constant, reader + kernel + tree step + extraction
  (validation and the scan are parts of the reader and the kernel).

A process reports the least of ``--passes`` passes per stage, with the
garbage collector off while a pass runs.  Each ``--src`` (default:
``src``) is imported in its own processes; with two or more, the processes
alternate and the side that runs first alternates too.  The table gives
the least over each side's processes, then each later side's ratio to the
first, stage by stage, and the last line is the same least values as JSON.
A hook that the tree no longer reaches (the kernel through
``decide.detect_relative``, the scan through ``seifert._scan_certificates``)
ends the run with an error instead of timing nothing.
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
STAGES = ("reader", "validation", "kernel", "scan", "tree_step", "extraction")
TOTAL = ("reader", "kernel", "tree_step", "extraction")


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
    from tautfol import decide, seifert

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

    # The scan's slot lists, as the kernel stage hands them over.
    scans, scan = [], seifert._scan_certificates

    def recording_scan(slots, n_max):
        scans.append((slots, n_max))
        return scan(slots, n_max)

    seifert._scan_certificates = recording_scan
    for piece, family in pairs:
        kernel(piece, family)
    seifert._scan_certificates = scan
    if len(answers) != len(pairs) or not scans:
        sys.exit(f"per_piece: the hooks saw {len(answers)} of {len(pairs)} kernel calls "
                 f"and {len(scans)} scans")

    def replaying():
        replay = iter(answers)
        decide.detect_relative = lambda piece, family, n_max=None: next(replay)
        return read()

    took = {
        "reader": _least(passes, lambda _: read()),
        "validation": _least(passes, lambda _: [tautfol.validate(g) for g in graphs]),
        "kernel": _least(passes, lambda _: [kernel(p, f) for p, f in pairs]),
        "scan": _least(passes, lambda _: [scan(slots, n_max) for slots, n_max in scans]),
        "tree_step": _least(passes, lambda fresh: [tautfol.detect_tree(g) for g in fresh],
                            replaying),
    }
    decide.detect_relative = kernel
    took["extraction"] = _least(passes, lambda _: [tautfol.extract_witness(g, t)
                                                   for g, t in zip(graphs, targets)])
    per_piece = {stage: round(seconds / pieces * 1e6, 2) for stage, seconds in took.items()}
    per_piece["total"] = round(sum(per_piece[stage] for stage in TOTAL), 2)
    return per_piece


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
                check=True, stdout=subprocess.PIPE, text=True).stdout
            for stage, value in json.loads(out).items():
                best[src][stage] = min(best[src].get(stage, value), value)
    rows = [(stage, [best[src][stage] for src in sources]) for stage in (*STAGES, "total")]
    rows.insert(4, ("kernel less scan", [best[src]["kernel"] - best[src]["scan"]
                                         for src in sources]))
    print(f"{'stage':<17}" + "".join(f"{src[-24:]:>26}" for src in sources)
          + "".join(f"{'ratio ' + str(k + 1) + '/1':>12}" for k in range(1, len(sources))))
    for stage, values in rows:
        print(f"{stage:<17}" + "".join(f"{value:>26.2f}" for value in values)
              + "".join(f"{value / values[0]:>12.3f}" for value in values[1:]))
    print(json.dumps(best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
