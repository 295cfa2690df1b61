"""Time, in this fresh process, importing tautfol and loading every file.

    python3 perfbench/setup_probe.py FILES_JSON

FILES_JSON holds a list of manifold paths.  Prints the seconds taken and
the seconds of a reference run made right after (the second one: the first
warms it up), which measures how fast the machine ran at that moment.
"""

import json
import sys
import time

import worker


def main(listing):
    with open(listing, encoding="utf-8") as fh:
        paths = json.load(fh)
    start = time.perf_counter()
    import tautfol

    for path in paths:
        tautfol.load_manifold(path)
    took = time.perf_counter() - start
    worker.reference_work()
    r0 = time.perf_counter()
    worker.reference_work()
    print(took, time.perf_counter() - r0)


if __name__ == "__main__":
    main(sys.argv[1])
