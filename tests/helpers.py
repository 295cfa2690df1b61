"""Test-side references shared by several test modules: H_1 of a
presentation solved by the dense Smith normal form alone, the multiset
check of a refinement certificate, the kernel's certificate bound held at
a constant, the endpoint a brute-force gap places past the core, a solid
tree of b1 = 2, and the closed-Seifert criterion for horizontal foliations
with the Dehn filling that feeds it."""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import tautfol.seifert
from tautfol import GluingMatrix, SeifertPiece
from tautfol.graph import Edge, PlumbingGraph
from tautfol.snf import smith_normal_form


class DenseH1:
    """A presentation (``tautfol.snf.Presentation``) solved by
    smith_normal_form alone, unreduced: the reference for every H_1
    question the tree walk answers without it."""

    def __init__(self, pres):
        g = len(pres.generators)
        rels = pres.relations
        matrix = [[r[i] for r in rels] for i in range(g)] if rels else [[0]] * g
        d, self.u, _v = smith_normal_form(matrix)
        self.index = pres.index
        self.orders = [abs(x) for x in d] + [0] * (g - len(d))
        self.betti = sum(1 for o in self.orders if o == 0)

    def coordinates(self, coeffs):
        vec = [0] * len(self.orders)
        for gen, c in coeffs.items():
            vec[self.index[gen]] += c
        return [sum(a * b for a, b in zip(row, vec)) for row in self.u]

    def free_image(self, coeffs):
        w = self.coordinates(coeffs)
        return tuple(x for x, o in zip(w, self.orders) if o == 0)

    def element_order(self, coeffs):
        """Order of the class, or 0 if infinite."""
        order = 1
        for x, o in zip(self.coordinates(coeffs), self.orders):
            if o == 0 and x != 0:
                return 0
            if o:
                k = o // gcd(o, x % o)
                order = order * k // gcd(order, k)
        return order


def assert_multiset_distributed(cert):
    """The certificate's values over N are the multiset (A, N - A, 1, ...,
    1) distributed over its cone points, non-excluded constraint tori and
    target torus."""
    values = sorted(list(cert.cone_numerators)
                    + [v for _, v in cert.boundary_numerators]
                    + [cert.target_numerator])
    expected = sorted([cert.a_value, cert.n_value - cert.a_value] + [1] * (len(values) - 2))
    assert values == expected, cert


def past_core(piece, family, side, gap):
    """The refined endpoint that ``jn_exhaustive_extremal``'s gap (C, N)
    gives on ``side``: c_min - C/N or c_max + C/N; None without a gap."""
    if gap is None:
        return None
    c_min, c_max = tautfol.seifert.core_interval(piece, family)
    return c_min - Fraction(*gap) if side == "low" else c_max + Fraction(*gap)


@contextmanager
def kernel_bound(n):
    """Hold the kernel's certificate bound at ``n`` inside the block: every
    bound site of the kernel calls ``tautfol.seifert.default_n_bound``,
    which answers ``n`` until the block ends.  None keeps the default."""
    default = tautfol.seifert.default_n_bound
    if n is not None:
        tautfol.seifert.default_n_bound = lambda piece, endpoints: n
    try:
        yield
    finally:
        tautfol.seifert.default_n_bound = default


# Two crosscap-1 children whose longitudes are both the root piece's fibre:
# b1 = 2.
_KB = {"base": {"orientable": False, "crosscaps": 1}, "cones": [], "b": 0, "boundary": 1}
TWO_VERTICAL_CHILDREN = {
    "role": "solid-torus",
    "pieces": [
        {"id": "root", "base": {"orientable": True, "crosscaps": 0}, "cones": [],
         "b": 0, "boundary": 3},
        {"id": "k1", **_KB},
        {"id": "k2", **_KB},
    ],
    "edges": [
        {"from": ["k1", 0], "to": ["root", 1], "matrix": [[1, 0], [0, -1]]},
        {"from": ["k2", 0], "to": ["root", 2], "matrix": [[1, 0], [0, -1]]},
    ],
}


# ---------------------------------------------------------------------------
# Closed Seifert fibred spaces: Dehn fillings and horizontal foliations
# ---------------------------------------------------------------------------


def fill(piece, slopes):
    """(b, cones) of the closed Seifert fibred space made by filling each
    boundary torus of ``piece`` (planar orientable base) along the
    horizontal slope there.  In the frame (h, h#), h# = -d_j, the slope
    (p, q) is the class p*h - q*d_j, so its filling adds the relation
    q*d_j - p*h = 0: a new cone (q, -p), or, when q = 1, d_j = p*h, which
    moves b to b + p."""
    b, cones = piece.b, list(piece.cones)
    for s in slopes:
        if s.q == 1:
            b += s.p
        else:
            cones.append((s.q, -s.p))
    return b, cones


def euler_number(b, cones):
    """e = sum(beta_i/a_i) - b: with a_i*x_i + beta_i*h = 0 and sum(x_i) +
    b*h = 0, h has rational order given by e, and |H_1| = |e| * prod(a_i)
    when e != 0 (H_1 is infinite when e = 0)."""
    return sum((Fraction(beta, a) for a, beta in cones), Fraction(-b))


def has_horizontal_foliation(b, cones):
    """Whether the closed Seifert fibred space (b, cones) over the sphere
    carries a foliation transverse to its fibres (Eisenbud-Hirsch-Neumann,
    Jankins-Neumann, Naimi).  Normalized as M(e0; r_1, ..., r_k) with
    e = e0 + sum(r_i), 0 < r_i < 1: yes when 2 - k <= e0 <= -2; at
    e0 = -1 when some coprime 0 < a < m puts two of the r's below a/m and
    (m - a)/m and the rest below 1/m; at e0 = 1 - k when the 1 - r_i do
    so; never when k <= 2.  Reversing the orientation takes (e0, r_i) to
    (-k - e0, 1 - r_i), which the criterion maps to itself, so the sign
    convention of e does not matter."""
    e0 = -b + sum(beta // a for a, beta in cones)
    rs = [Fraction(beta % a, a) for a, beta in cones if beta % a]
    k = len(rs)
    if k <= 2:
        return False
    if 2 - k <= e0 <= -2:
        return True
    if e0 == -1:
        return _realizable(rs)
    if e0 == 1 - k:
        return _realizable([1 - r for r in rs])
    return False


def _realizable(rs):
    """Some coprime 0 < a < m with r's below a/m and (m - a)/m and the rest
    below 1/m.  Matching the r's in decreasing order to a/m >= (m - a)/m
    >= 1/m is best, and the third largest r bounds m."""
    rs = sorted(rs, reverse=True)
    m = 2
    while rs[2] * m < 1:
        if any(gcd(a, m) == 1 and rs[0] * m < a and rs[1] * m < m - a
               for a in range((m + 1) // 2, m)):
            return True
        m += 1
    return False


def filled_graph(piece, slopes):
    """The filling of ``fill`` as a closed plumbing graph: ``piece`` with a
    solid torus (no cones, b = 0, meridian (0, 1)) glued to each boundary
    torus by a matrix of determinant -1 whose second column is the
    slope."""
    pieces = [piece._replace(ident="P")]
    edges = []
    for j, s in enumerate(slopes):
        # x*q + y*p = 1, so [[-x, p], [y, q]] has determinant -1.
        y = pow(s.p, -1, s.q)
        x = (1 - y * s.p) // s.q
        pieces.append(SeifertPiece(True, (), 0, 1, ident=f"D{j}"))
        edges.append(Edge(f"D{j}", 0, "P", j, GluingMatrix(-x, s.p, y, s.q), f"e{j}"))
    return PlumbingGraph(pieces, edges, "closed")

