"""Finitely presented abelian groups over Z.

A group is presented as Z^g modulo the span of integer relations.  Solving a
presentation first shrinks it by exact unimodular moves on the sparse
relations: a generator with coefficient +-1 in some relation is eliminated
through it (a Tietze move, pivot chosen for least fill-in, its substitution
recorded), and when no +-1 is left, two relations whose coefficients in one
column are coprime are combined by the extended gcd to make one.

The small residual R (k kept generators, rank r) is then solved without
letting its entries grow.  One fraction-free Gauss-Jordan pass over the
relations gives r, a nonzero r x r minor delta and a basis of the left kernel
of R, betti integer functionals that vanish on every relation: they span the
rational dual of H_1, so an element is torsion exactly when each of them
pairs to zero with it.  The torsion comes from the Smith normal form of
[R | delta I] computed modulo delta: its diagonal is d_1 | ... | d_r followed
by betti copies of delta, and since delta kills the torsion subgroup T, T
embeds in H_1 / delta H_1, so the order of a torsion element is read from
its coordinates modulo that diagonal (Domich, Kannan and Trotter 1987).  An
element of Z^g is first rewritten in the kept generators by the recorded
substitutions.

The program solves H_1 only on error paths, to name the Betti number of a
graph whose tree walk finds no rational longitude or no rational homology
sphere; the tests solve it as the reference for those walks.
``smith_normal_form`` is the dense Smith normal form over the integers with
its transforms.  The program does not call it; the tests use it as the
reference that the reduced presentations are checked against.
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

    def solve(self):
        return SolvedPresentation(self)


def _combine(f1, r1, f2, r2):
    """The sparse relation f1 * r1 + f2 * r2."""
    out = {}
    for y in r1.keys() | r2.keys():
        v = f1 * r1.get(y, 0) + f2 * r2.get(y, 0)
        if v:
            out[y] = v
    return out


def _eliminate(ngens, relations):
    """Shrink sparse relations (dicts generator index -> nonzero coefficient)
    by unimodular moves.

    Returns (substitutions, kept, residual): ``substitutions`` lists, in
    elimination order, (x, expr) with x equal in the group to the combination
    ``expr`` of generators not yet eliminated; ``kept`` are the remaining
    generator indices and ``residual`` the remaining nonzero relations, which
    present the same group on ``kept``.
    """
    rels = {}
    occ = [set() for _ in range(ngens)]  # generator -> keys of its relations

    def put(k, r):
        if r:
            rels[k] = r
            for x in r:
                occ[x].add(k)

    def take(k):
        for x in rels[k]:
            occ[x].discard(k)
        return rels.pop(k)

    for k, r in enumerate(relations):
        put(k, r)
    next_key = len(relations)
    substitutions = []
    while rels:
        # Tietze move through the +-1 entry of least fill-in (Markowitz); the
        # first one found without fill-in is taken at once.
        best = None
        for k, r in rels.items():
            for x, c in r.items():
                if c in (1, -1):
                    cost = (len(r) - 1) * (len(occ[x]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, k, x)
            if best is not None and best[0] == 0:
                break
        if best is not None:
            _cost, k, x = best
            pivot = take(k)
            e = pivot[x]
            substitutions.append((x, {y: -e * c for y, c in pivot.items() if y != x}))
            for j in list(occ[x]):
                r = take(j)
                put(j, _combine(1, r, -r[x] * e, pivot))
            continue
        # No +-1 left: make one from two relations coprime in some column.
        pairs = [(len(rels[k1]) + len(rels[k2]), k1, k2, x)
                 for x in range(ngens) for k1 in occ[x] for k2 in occ[x]
                 if k1 < k2 and gcd(rels[k1][x], rels[k2][x]) == 1]
        if not pairs:
            break
        _size, k1, k2, x = min(pairs)
        r1, r2 = take(k1), take(k2)
        a, b = r1[x], r2[x]
        s, t = _bezout(a, b)
        # [[s, t], [-b, a]] has determinant s * a + t * b = +-1.
        put(next_key, _combine(s, r1, t, r2))
        put(next_key + 1, _combine(-b, r1, a, r2))
        next_key += 2
    eliminated = {x for x, _expr in substitutions}
    kept = [x for x in range(ngens) if x not in eliminated]
    return substitutions, kept, list(rels.values())


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


def _mix(v, w, move, m):
    """Rows v, w after the 2 x 2 move [[s, t], [-p, q]], reduced modulo m."""
    v, w = _move(v, w, move)
    return [x % m for x in v], [x % m for x in w]


def _fraction_free_rref(rows, width):
    """Fraction-free Gauss-Jordan elimination of integer ``rows`` in place.

    Returns (pivot columns, last pivot).  Every division is exact (Bareiss),
    entries stay minors of the input, and at the end each pivot row holds the
    last pivot in its own pivot column and zero in the others.
    """
    prev, piv = 1, []
    for col in range(width):
        row = len(piv)
        i = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[row], rows[i] = rows[i], rows[row]
        p, top = rows[row][col], rows[row]
        for i, r in enumerate(rows):
            if i != row:
                f = r[col]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(r, top)]
        prev = p
        piv.append(col)
    return piv, prev


def _smith_mod(matrix, m):
    """Smith normal form of [matrix | m I] for a k-row ``matrix`` and m > 0
    a multiple of each of its nonzero invariant factors: returns the k
    diagonal entries, each dividing the next, and a row transform U reduced
    modulo m.  Row moves act on U; column moves, among them those with the
    m I block that reduce entries modulo m, need no record."""
    k = len(matrix)
    a = [[x % m for x in row] for row in matrix]
    u = _identity(k)
    d = []
    for r in range(k):
        # Pivot: the entry that generates the largest ideal of Z/m.
        pivot = min(((gcd(x, m), i, j) for i in range(r, k)
                     for j, x in enumerate(a[i]) if j >= r and x), default=None)
        if pivot is None:
            break
        _g, i, j = pivot
        a[r], a[i] = a[i], a[r]
        u[r], u[i] = u[i], u[r]
        for row in a:
            row[r], row[j] = row[j], row[r]
        # Clear the pivot column by row moves and the pivot row by column
        # moves; a move that does not keep the pivot strictly lowers it.
        while True:
            for i in range(r + 1, k):
                if a[i][r]:
                    move = _gcd_move(a[r][r], a[i][r])
                    a[r], a[i] = _mix(a[r], a[i], move, m)
                    u[r], u[i] = _mix(u[r], u[i], move, m)
            for j in range(r + 1, len(a[r])):
                if a[r][j]:
                    s, t, p, q = _gcd_move(a[r][r], a[r][j])
                    for row in a:
                        row[r], row[j] = (s * row[r] + t * row[j]) % m, (q * row[j] - p * row[r]) % m
            if not any(a[i][r] for i in range(r + 1, k)):
                break
        d.append(gcd(a[r][r], m))
    d += [m] * (k - len(d))
    # Divisibility along the diagonal: diag(x, y) -> diag(gcd, lcm).
    for i in range(k):
        for j in range(i + 1, k):
            x, y = d[i], d[j]
            if y % x:
                u[i], u[j] = _mix(u[i], u[j], _gcd_move(x, y), m)
                g = gcd(x, y)
                d[i], d[j] = g, x * y // g
    return d, u


class SolvedPresentation:
    """Reduced presentation with element queries: ``kernel`` spans the
    rational dual of H_1, ``u`` and ``orders`` give the torsion (see the
    module docstring)."""

    def __init__(self, pres):
        self.generators = pres.generators
        self.index = pres.index
        sparse = [{i: c for i, c in enumerate(r) if c} for r in pres.relations]
        self.substitutions, self.kept, residual = _eliminate(len(self.generators), sparse)
        k = len(self.kept)
        rows = [[r.get(x, 0) for x in self.kept] for r in residual]
        reduced = [list(r) for r in rows]
        piv, last = _fraction_free_rref(reduced, k)
        self.rank = len(piv)
        # A basis of the left kernel of R, one vector per non-pivot generator.
        self.kernel = []
        for n in range(k):
            if n not in piv:
                y = [0] * k
                y[n] = last
                for i, c in enumerate(piv):
                    y[c] = -reduced[i][n]
                self.kernel.append(y)
        matrix = [[r[i] for r in rows] for i in range(k)]
        self.orders, self.u = _smith_mod(matrix, abs(last) if piv else 1)

    @property
    def betti(self):
        return len(self.kept) - self.rank

    def invariant_factors(self):
        """Torsion invariant factors, each dividing the next."""
        return [o for o in self.orders[:self.rank] if o > 1]

    def coordinates(self, coeffs):
        """An element of Z^g rewritten in the kept generators by the recorded
        substitutions."""
        vec = {}
        for g, c in coeffs.items():
            i = self.index[g]
            vec[i] = vec.get(i, 0) + c
        for x, expr in self.substitutions:
            c = vec.pop(x, 0)
            if c:
                for y, e in expr.items():
                    vec[y] = vec.get(y, 0) + c * e
        return [vec.get(x, 0) for x in self.kept]

    def rational_image(self, coeffs):
        """The pairings of the element with the kernel basis: its image in
        Q^betti, in coordinates that need not be a basis of the free
        quotient over Z."""
        w = self.coordinates(coeffs)
        return tuple(sum(a * b for a, b in zip(y, w)) for y in self.kernel)

    def is_torsion(self, coeffs):
        return all(x == 0 for x in self.rational_image(coeffs))

    def element_order(self, coeffs):
        """Order of the class, or 0 if infinite."""
        if not self.is_torsion(coeffs):
            return 0
        w = self.coordinates(coeffs)
        order = 1
        for row, o in zip(self.u, self.orders):
            residue = sum(a * b for a, b in zip(row, w)) % o
            if residue:
                k = o // gcd(o, residue)
                order = order * k // gcd(order, k)
        return order
