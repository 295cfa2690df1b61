"""The relative-detection kernel against a stored digest of its answers.

Seeded draws of pieces and constraint families (vertical-free families from
``rand_horizontal_piece_and_family``, and families with one or more arcs
through the vertical slope) are run through ``detect_relative``; each answer
is written out with its detected arc, exceptions, branch and both
certificates, together with what ``realize`` picks for the arc's endpoints
and a few interior slopes.  The lines are hashed in blocks of 100 draws and
compared with ``tests/golden/kernel_digest.txt``, so a rewrite of the kernel
must reproduce every answer exactly.  A deliberate change to the kernel's
answers (a correctness fix) rewrites the file in the same change:

    PYTHONPATH=src:tests python tests/test_kernel_lock.py > tests/golden/kernel_digest.txt
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

from tautfol import VERTICAL, detect_relative, realize, slope_of_tau
from tautfol.seifert import merge_exceptions

from conftest import rand_horizontal_piece_and_family, rand_vertical_piece_and_family
from helpers import kernel_bound

DIGEST = Path(__file__).resolve().parent / "golden" / "kernel_digest.txt"
BLOCK = 100
KINDS = (("horizontal", 2400, rand_horizontal_piece_and_family),
         ("vertical", 800, rand_vertical_piece_and_family))
HALF = Fraction(1, 2)


def _targets(arc):
    """The arc's endpoints and interior slopes: the midpoint and two points
    near the ends of a finite interval, a slope inside each ray, and the
    vertical slope when the arc holds it."""
    if arc.is_full:
        return (VERTICAL, slope_of_tau(0), slope_of_tau(HALF))
    if arc.is_point:
        return (arc.start,)
    out = list(arc.endpoints())
    pieces, has_vertical = arc.tau_pieces()
    if has_vertical:
        out.append(VERTICAL)
    for lo, hi in pieces:
        if lo is None:
            out.append(slope_of_tau(hi - HALF))
        elif hi is None:
            out.append(slope_of_tau(lo + HALF))
        else:
            step = (hi - lo) / 16
            out.extend(slope_of_tau(t) for t in (lo + step, (lo + hi) / 2, hi - step))
    return tuple(out)


def _record(piece, family):
    res = detect_relative(piece, family)
    # decide._detect relies on the kernel's exceptions coming merged and sorted.
    assert merge_exceptions(res.exceptions) == res.exceptions
    exceptions = [(str(e.slope), e.status.value, e.reason) for e in res.exceptions]
    parts = [res.branch, repr(res.detected), repr(exceptions),
             repr(res.low_certificate), repr(res.high_certificate)]
    for target in _targets(res.detected):
        picks = realize(piece, family, res, target)
        parts.append(f"{target} <- {' '.join(map(str, picks))}")
    return " | ".join(parts)


def digest_lines():
    """One line per block of draws: kind, first seed, count, sha256."""
    lines = []
    for kind, count, draw in KINDS:
        for start in range(0, count, BLOCK):
            h = hashlib.sha256()
            for seed in range(start, start + BLOCK):
                piece, family = draw(random.Random(f"{kind}-{seed}"))
                with kernel_bound((None, 6, 40)[seed % 3]):
                    h.update(_record(piece, family).encode())
                h.update(b"\n")
            lines.append(f"{kind} {start} {BLOCK} {h.hexdigest()}")
    return lines


def test_kernel_reproduces_the_stored_digest():
    expected = DIGEST.read_text(encoding="utf-8").splitlines()
    got = digest_lines()
    assert len(got) == len(expected)
    assert [a for a, b in zip(got, expected) if a != b] == []


if __name__ == "__main__":
    print("\n".join(digest_lines()))
