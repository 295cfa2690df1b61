"""Finitely presented abelian groups over Z, and the dense Smith normal form.

A group is presented as Z^g modulo the span of integer relations
(``Presentation``; graph.presentation builds the one of H_1 of a graph).
``smith_normal_form`` is the dense Smith normal form over the integers with
its transforms, and the one integer linear-algebra path: it alternates row
and column Hermite forms, each taken in one row at a time and kept reduced,
then makes the diagonal divisible by 2 x 2 gcd/lcm moves, so its entries stay
bounded by minors of the input.

No command solves H_1: the tree walk reads the Betti number and the rational
longitude off the pieces (graph.piece_longitude).  graph.homology reads H_1
from this Smith normal form, and the tests check the walk against it.
"""

from __future__ import annotations

from math import gcd


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix):
    """Return (d, U, V) with U * matrix * V = D diagonal, d the diagonal,
    U and V unimodular, and each diagonal entry dividing the next.

    ``matrix`` is a list of rows; it is not modified.  Row and column
    Hermite forms alternate until the matrix is diagonal, and each keeps
    its entries bounded (see ``_hermite_rows``); eliminating one pivot at a
    time instead lets them grow without bound.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    a = [list(r) for r in matrix]
    u = _identity(rows)
    vt = _identity(cols)  # V transposed: a column move is a row move of a^T
    while True:
        piv = _hermite_rows(a, u)
        if all(sum(1 for x in a[i] if x) == 1 for i in range(len(piv))):
            break
        at = [list(c) for c in zip(*a)]
        _hermite_rows(at, vt)
        a = [list(r) for r in zip(*at)]
    # Pivot columns first, in order, then the others.
    vt = [vt[j] for j in piv + [j for j in range(cols) if j not in piv]]
    d = [a[i][c] for i, c in enumerate(piv)] + [0] * (min(rows, cols) - len(piv))
    # Divisibility along the diagonal by 2 x 2 moves that touch no other
    # entry: with s*x + t*y = g, [[s, t], [-y/g, x/g]] * diag(x, y) *
    # [[1, -t*y/g], [1, s*x/g]] is diag(g, x*y/g).
    for i in range(len(piv)):
        for j in range(i + 1, len(piv)):
            x, y = d[i], d[j]
            if y % x:
                s, t, p, q = move = _gcd_move(x, y)
                u[i], u[j] = _move(u[i], u[j], move)
                vt[i], vt[j] = _move(vt[i], vt[j], (1, 1, t * p, s * q))
                d[i], d[j] = x // q, x * p
    return d, u, [list(c) for c in zip(*vt)]


def _hermite_rows(a, u):
    """Bring ``a`` to Hermite normal form in place by row moves, applied to
    ``u`` as well, and return its pivot columns: the nonzero rows come
    first, each pivot is positive, the rows' pivot columns increase, and
    every entry above a pivot lies in [0, pivot).

    Rows are taken in one at a time and the form is fully reduced after
    each, so that every entry stays bounded by minors of the input
    (Kannan and Bachem 1979)."""
    piv = []
    for k in range(len(a)):
        r = len(piv)
        a[r], a[k] = a[k], a[r]
        u[r], u[k] = u[k], u[r]
        # Clear row r at the pivot columns by gcd moves, left to right,
        # until it is zero or leads at a new column.
        i, lead = 0, None
        for c in range(len(a[r])):
            if not a[r][c]:
                continue
            while i < r and piv[i] < c:
                i += 1
            if i == r or piv[i] != c:
                lead = c
                break
            move = _gcd_move(a[i][c], a[r][c])
            a[i], a[r] = _move(a[i], a[r], move)
            u[i], u[r] = _move(u[i], u[r], move)
        if lead is None:
            continue
        if a[r][lead] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        a.insert(i, a.pop(r))
        u.insert(i, u.pop(r))
        piv.insert(i, lead)
        for j, c in enumerate(piv):
            for h in range(j):
                f = a[h][c] // a[j][c]
                if f:
                    a[h] = [y - f * z for y, z in zip(a[h], a[j])]
                    u[h] = [y - f * z for y, z in zip(u[h], u[j])]
    return piv


class Presentation:
    """Z^g modulo integer relations, with named generators."""

    def __init__(self, generators):
        self.generators = list(generators)
        self.index = {g: i for i, g in enumerate(self.generators)}
        self.relations = []

    def add_relation(self, coeffs):
        """coeffs: mapping generator -> integer coefficient."""
        vec = [0] * len(self.generators)
        for g, c in coeffs.items():
            vec[self.index[g]] += c
        self.relations.append(vec)


def _bezout(a, b):
    """(s, t) with s * a + t * b == +-gcd(a, b), the plus sign when a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return s0, t0


def _gcd_move(x, y):
    """(s, t, p, q) with [[s, t], [-p, q]] unimodular, sending (x, y), x > 0,
    to (gcd, 0) with gcd > 0; the identity on x when x divides y, so the
    pivot stays."""
    if y % x == 0:
        return 1, 0, y // x, 1
    s, t = _bezout(x, y)
    g = s * x + t * y
    if g < 0:
        s, t, g = -s, -t, -g
    return s, t, y // g, x // g


def _move(v, w, move):
    """Rows v, w after the 2 x 2 move [[s, t], [-p, q]]."""
    s, t, p, q = move
    return ([s * a + t * b for a, b in zip(v, w)],
            [q * b - p * a for a, b in zip(v, w)])

