"""Shared random-instance generators.

Everything is driven by seeded random.Random instances so failures are
reproducible; tests that sweep many instances print nothing unless they
fail.
"""

import math
import random
from fractions import Fraction

import pytest

from tautfol import (
    ConstraintFamily,
    Edge,
    GluingMatrix,
    PlumbingGraph,
    SeifertPiece,
    SlopeArc,
    VERTICAL,
    slope_of_tau,
)
from tautfol.graph import homology, subtree_longitudes


def rand_fraction(rng, den_max=12, lo=-3, hi=3):
    d = rng.randint(1, den_max)
    return Fraction(rng.randint(lo * d, hi * d), d)


def rand_cones(rng, n_max=3, a_max=5, n_min=0):
    out = []
    for _ in range(rng.randint(n_min, n_max)):
        a = rng.randint(2, a_max)
        out.append((a, rng.choice([x for x in range(1, a) if math.gcd(a, x) == 1])))
    return tuple(out)


def rand_orientable_piece(rng, r, n_max=4, a_max=5, ident=None):
    return SeifertPiece(base_orientable=True, cones=rand_cones(rng, n_max, a_max),
                        b=rng.randint(-2, 2), boundary_count=r, ident=ident)


def rand_tree_piece(rng, ident, r, q_prob=0.25):
    if rng.random() < q_prob:
        return SeifertPiece(base_orientable=False, crosscaps=1, cones=rand_cones(rng),
                            b=rng.randint(-2, 2), boundary_count=r, ident=ident)
    return SeifertPiece(base_orientable=True, cones=rand_cones(rng),
                        b=rng.randint(-2, 2), boundary_count=r, ident=ident)


def rand_matrix(rng, emax=5):
    """Random integer matrix with determinant -1 and entries bounded."""
    while True:
        a, b, c = (rng.randint(-emax, emax) for _ in range(3))
        if a == 0:
            if b * c == 1:
                return GluingMatrix(0, b, c, rng.randint(-emax, emax))
            continue
        num = b * c - 1
        if num % a == 0 and abs(num // a) <= emax:
            return GluingMatrix(a, b, c, num // a)


def rand_unimodular(rng, emax=5):
    """Random GL(2,Z) matrix of either determinant sign."""
    m = rand_matrix(rng, emax)
    if rng.random() < 0.5:
        return GluingMatrix(m.a, -m.b, m.c, -m.d)  # det +1
    return m


def rand_family(rng, r, den_max=12, strong_prob=0.3, point_prob=0.3):
    arcs, strong = [], set()
    for j in range(r - 1):
        x = rand_fraction(rng, den_max)
        if rng.random() < point_prob:
            arcs.append(SlopeArc.point(slope_of_tau(x)))
        else:
            w = abs(rand_fraction(rng, den_max, 0, 2)) or Fraction(1, den_max)
            arcs.append(SlopeArc.from_tau_interval(x, x + w))
            if rng.random() < strong_prob:
                strong.add(j)
    return ConstraintFamily(tuple(arcs), frozenset(strong))


def rand_horizontal_piece_and_family(rng, den_max=12, r_max=4, n_max=4, a_max=5):
    """A piece with n + r >= 3 and a vertical-free family, as the grid oracle
    needs."""
    while True:
        r = rng.randint(1, r_max)
        piece = rand_orientable_piece(rng, r, n_max, a_max)
        if piece.n + r >= 3:
            return piece, rand_family(rng, r, den_max)


def rand_vertical_arc(rng, den_max=12):
    """An arc through the vertical slope: the vertical point, a ray either
    side of it, a proper arc wrapping through it, or the full circle."""
    x = rand_fraction(rng, den_max)
    kind = rng.randrange(5)
    if kind == 0:
        return SlopeArc.point(VERTICAL)
    if kind == 1:
        return SlopeArc.arc(VERTICAL, slope_of_tau(x))
    if kind == 2:
        return SlopeArc.arc(slope_of_tau(x), VERTICAL)
    if kind == 3:
        w = abs(rand_fraction(rng, den_max, 0, 2)) or Fraction(1, den_max)
        return SlopeArc.arc(slope_of_tau(x + w), slope_of_tau(x))
    return SlopeArc.full()


def rand_vertical_piece_and_family(rng, den_max=12, r_max=4):
    """A piece with n + r >= 3 and r >= 2, and a family in which one or more
    free constraints contain the vertical slope: the vertical-arc and full
    branches of the kernel."""
    while True:
        r = rng.randint(2, r_max)
        piece = rand_orientable_piece(rng, r)
        if piece.n + r >= 3:
            break
    family = rand_family(rng, r, den_max)
    vertical = rng.sample(range(r - 1), rng.randint(1, r - 1))
    arcs = list(family.arcs)
    for j in vertical:
        arcs[j] = rand_vertical_arc(rng, den_max)
    return piece, ConstraintFamily(tuple(arcs), family.strong - set(vertical))


def rand_solid_tree(rng, max_pieces=4, q_prob=0.25):
    count = rng.randint(1, max_pieces)
    parents = [None] + [rng.randrange(i) for i in range(1, count)]
    child_counts = [sum(1 for p in parents if p == i) for i in range(count)]
    pieces = [rand_tree_piece(rng, f"p{i}", child_counts[i] + 1, q_prob)
              for i in range(count)]
    used = [1] * count
    edges = []
    for i in range(1, count):
        par = parents[i]
        j = used[par]
        used[par] += 1
        edges.append(Edge(f"p{i}", 0, f"p{par}", j, rand_matrix(rng), f"e{len(edges)}"))
    return PlumbingGraph(pieces, edges, "solid-torus")


def rand_valid_solid_tree(rng, max_pieces=4, q_prob=0.25):
    """A valid solid tree of b1 = 1, the Betti number read off the tree walk
    (test_tree_longitudes_match_homology checks it against H_1)."""
    while True:
        g = rand_solid_tree(rng, max_pieces, q_prob)
        if any(d.startswith("error:") for d in g.diagnostics):
            continue
        *_, root = subtree_longitudes(g).values()
        if root.betti == 1:
            return g


def rand_closed(rng, max_pieces=4, min_pieces=2):
    count = rng.randint(min_pieces, max_pieces)
    parents = [None] + [rng.randrange(i) for i in range(1, count)]
    child_counts = [sum(1 for p in parents if p == i) for i in range(count)]
    pieces = []
    for i in range(count):
        r = child_counts[i] + (0 if i == 0 else 1)
        if r == 0:
            return None
        pieces.append(rand_tree_piece(rng, f"p{i}", r))
    used = [0 if i == 0 else 1 for i in range(count)]
    edges = []
    for i in range(1, count):
        par = parents[i]
        j = used[par]
        used[par] += 1
        edges.append(Edge(f"p{i}", 0, f"p{par}", j, rand_matrix(rng), f"e{len(edges)}"))
    return PlumbingGraph(pieces, edges, "closed")


def rand_valid_closed(rng, max_pieces=4, min_pieces=2):
    while True:
        g = rand_closed(rng, max_pieces, min_pieces)
        if g is None or any(d.startswith("error:") for d in g.diagnostics):
            continue
        if homology(g).betti == 0:
            return g


def plumbing_chain(k, role="solid-torus", leaves=False):
    """k pieces with cones (2,1), (3,1) and b = -2 glued end to end by
    [[0,1],[1,0]]; in the solid-torus role p0 carries the dangling torus,
    in the closed role (k >= 2) both ends have one boundary torus.  With
    ``leaves``, the last piece has two more boundary tori, and on them two
    crosscap-1 leaves k1, k2 (no cones, one boundary torus) are glued by
    [[1,0],[0,-1]]: the leaves' longitudes are both that piece's fibre, so
    the Betti number is 2 in the solid-torus role and 1 in the closed one."""
    ends = (0, k - 1) if role == "closed" else (k - 1,)
    pieces = [SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=-2,
                           boundary_count=(1 if i in ends else 2) + 2 * (leaves and i == k - 1),
                           ident=f"p{i}")
              for i in range(k)]
    edges = [Edge(f"p{i + 1}", 0, f"p{i}", 0 if i == 0 and role == "closed" else 1,
                  GluingMatrix(0, 1, 1, 0), f"e{i}")
             for i in range(k - 1)]
    if leaves:
        for j in (1, 2):
            pieces.append(SeifertPiece(base_orientable=False, crosscaps=1, cones=(), b=0,
                                       boundary_count=1, ident=f"k{j}"))
            edges.append(Edge(f"k{j}", 0, f"p{k - 1}", j, GluingMatrix(1, 0, 0, -1),
                              f"e{len(edges)}"))
    return PlumbingGraph(pieces, edges, role)


@pytest.fixture
def rng():
    return random.Random(0x5EED)


if __name__ == "__main__":
    # python tests/conftest.py K [closed] [leaves]: the K-piece plumbing chain
    # (in the solid-torus role unless "closed" is given, with the two
    # crosscap-1 leaves if "leaves" is given) as manifold JSON.
    import json
    import sys

    from tautfol.graph import dump_manifold

    words = sys.argv[2:]
    role = "closed" if "closed" in words else "solid-torus"
    print(json.dumps(dump_manifold(plumbing_chain(int(sys.argv[1]), role, "leaves" in words))))
