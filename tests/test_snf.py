"""Smith normal form and presented abelian groups."""

import random
from itertools import combinations
from math import gcd

import tautfol.decide
from tautfol import (
    PlumbingGraph,
    SeifertPiece,
    Slope,
    classify_piece,
    detect_tree,
    rational_longitude,
)
from tautfol.graph import homology, presentation, subtree_longitude
from tautfol.snf import Presentation, smith_normal_form
from conftest import plumbing_chain, rand_cones, rand_valid_closed
from helpers import DenseH1


def _mm(x, y):
    return [[sum(x[i][t] * y[t][j] for t in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def _minor_invariants(matrix):
    """Invariant factors from gcds of k x k minors: the independent oracle."""
    rows, cols = len(matrix), len(matrix[0])

    def det(sub):
        if len(sub) == 1:
            return sub[0][0]
        total = 0
        for j in range(len(sub)):
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, det([[matrix[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _check(matrix):
    rows, cols = len(matrix), len(matrix[0])
    d, u, v = smith_normal_form(matrix)
    product = _mm(_mm(u, matrix), v)
    for i in range(rows):
        for j in range(cols):
            expect = d[i] if i == j and i < len(d) else 0
            assert product[i][j] == expect
    nonzero = [abs(x) for x in d if x != 0]
    for i in range(len(nonzero) - 1):
        assert nonzero[i + 1] % nonzero[i] == 0
    return d


def test_known_forms():
    assert [abs(x) for x in _check([[2, 0], [0, 3]]) if x] == [1, 6]
    assert _check([[0]]) == [0]
    d = _check([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [abs(x) for x in d] == _minor_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])


def test_random_matrices():
    rng = random.Random(11)
    for _ in range(250):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = [[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)]
        _check(matrix)


def test_against_minor_gcds():
    rng = random.Random(12)
    for _ in range(80):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d = _check(matrix)
        expected = _minor_invariants(matrix)
        assert [abs(x) for x in d if x != 0] == expected


def test_presentation_cyclic():
    pres = Presentation(["x", "y"])
    pres.add_relation({"x": 2})
    h1 = DenseH1(pres)
    assert h1.betti == 1
    assert [o for o in h1.orders if o > 1] == [2]
    assert h1.element_order({"x": 1}) == 2
    assert h1.element_order({"y": 1}) == 0


def test_presentation_no_relations():
    h1 = DenseH1(Presentation(["a", "b", "c"]))
    assert h1.betti == 3
    assert [o for o in h1.orders if o > 1] == []


def test_presentation_torsion_orders():
    pres = Presentation(["x", "y"])
    pres.add_relation({"x": 4})
    pres.add_relation({"y": 6})
    h1 = DenseH1(pres)
    assert h1.betti == 0
    assert [o for o in h1.orders if o > 1] == [2, 12]
    assert h1.element_order({"x": 1, "y": 1}) == 12
    assert h1.element_order({"x": 2}) == 2


def test_homology_of_seed_5023():
    # A 38 x 38 presentation: a Smith normal form eliminating one pivot at
    # a time took 12.6 s on it and grew U to 134,531 bits.
    g = rand_valid_closed(random.Random(5023), max_pieces=8)
    summary = homology(g)
    assert summary.betti == 0
    assert summary.invariant_factors == (2, 2, 4, 4, 20, 120, 3669960)


def test_long_chain_longitude():
    # The walk's Betti number: the dense Smith normal form of this chain's
    # presentation takes tens of seconds.
    g = plumbing_chain(128)
    assert subtree_longitude(g).betti == 1
    assert detect_tree(g).detected.contains(rational_longitude(g).slope)


def _rank(matrix):
    return sum(1 for x in smith_normal_form(matrix)[0] if x)


def _dense_piece_free_images(piece):
    dense = DenseH1(presentation(PlumbingGraph([piece], [], "solid-torus")))
    return (dense.free_image({("h", piece.ident): 1}),
            [dense.free_image({("d", piece.ident, j): 1})
             for j in range(piece.boundary_count)])


def _dense_is_fibred_tuple(piece, slopes):
    """Reference: a fibration completes the tuple exactly when some integral
    class vanishes on every boundary slope but not on the fibre, that is,
    when v_h lies outside the rational span of the boundary rows."""
    v_h, v_d = _dense_piece_free_images(piece)
    rows = [[s.p * h - s.q * d for h, d in zip(v_h, v_d[j])]
            for j, s in enumerate(slopes)]
    return _rank(rows + [list(v_h)]) > _rank(rows)


def _dense_fibration_slope(piece, target_bdry, child_bdry, child_slope):
    """Reference: the primitive integral class u on the free quotient Z^2
    that kills the child slope's class; its kernel on the target torus and
    gcd(u(h), u(d_c))."""
    v_h, v_d = _dense_piece_free_images(piece)
    p, q = child_slope.p, child_slope.q
    v_c = tuple(p * v_h[i] - q * v_d[child_bdry][i] for i in range(len(v_h)))
    if all(x == 0 for x in v_c) or len(v_c) != 2:
        return None
    u = (-v_c[1], v_c[0])
    g = gcd(u[0], u[1])
    u = (u[0] // g, u[1] // g)
    phi_h = u[0] * v_h[0] + u[1] * v_h[1]
    if phi_h == 0:
        return None
    phi_dc = u[0] * v_d[child_bdry][0] + u[1] * v_d[child_bdry][1]
    phi_dt = u[0] * v_d[target_bdry][0] + u[1] * v_d[target_bdry][1]
    return Slope(phi_dt, phi_h), gcd(abs(phi_h), abs(phi_dc))


def _rand_slope(rng):
    q = rng.randint(0, 5)
    return Slope(rng.randint(-7, 7), q) if q else Slope(1, 0)


def test_piece_tags_and_fibrations_match_dense():
    """The closed forms of decide against the free images of the dense
    Smith normal form, on pieces with 1-3 boundary tori, crosscap bases,
    vertical slopes, fibred tuples and target == child."""
    rng = random.Random(15)
    tags, child_divs, bettis = set(), set(), set()
    same_torus = vertical = crosscap = 0
    for i in range(3000):
        r = rng.randint(1, 3)
        orientable = rng.random() < 0.7
        piece = SeifertPiece(base_orientable=orientable, cones=rand_cones(rng),
                             b=rng.randint(-4, 4), boundary_count=r,
                             crosscaps=0 if orientable else 1, ident=f"q{i}")
        v_h, v_d = _dense_piece_free_images(piece)
        bettis.add((r, len(v_h)))
        slopes = [_rand_slope(rng) for _ in range(r)]
        # Half the time, the boundary slopes of a fibration: the kernels of a
        # random functional u on the free quotient.
        u = [rng.randint(-3, 3) for _ in v_h]
        if rng.random() < 0.5 and sum(a * b for a, b in zip(u, v_h)):
            slopes = [Slope(sum(a * b for a, b in zip(u, v_d[j])),
                            sum(a * b for a, b in zip(u, v_h)))
                      for j in range(r)]
        t, c = rng.randrange(r), rng.randrange(r)
        if any(s.is_vertical for s in slopes):
            expect_tag = tautfol.decide.TAG_VERTICAL
            vertical += 1
        else:
            fibred = _dense_is_fibred_tuple(piece, slopes)
            assert tautfol.decide._is_fibred_tuple(piece, slopes) == fibred
            expect_tag = (tautfol.decide.TAG_FIBRATION if fibred
                          else tautfol.decide.TAG_HORIZONTAL)
        assert classify_piece(piece, dict(enumerate(slopes))) == expect_tag
        tags.add(expect_tag)
        fib = _dense_fibration_slope(piece, t, c, slopes[c])
        assert tautfol.decide._fibration_slope(piece, t, c, slopes[c]) == fib
        if fib is not None:
            child_divs.add(fib[1])
            same_torus += t == c
        crosscap += not orientable
    assert len(tags) == 3 and same_torus and vertical and crosscap
    assert {(1, 1), (2, 2), (3, 3)} <= bettis
    assert child_divs - {1}


def _det(matrix):
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in matrix]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def test_entries_stay_small_on_a_large_matrix():
    """A 14 x 13 matrix of 60-bit entries: the transforms stay within a
    Hadamard-sized bound, where eliminating one pivot at a time reaches tens
    of thousands of bits."""
    rng = random.Random(14)
    matrix = [[rng.randint(-2 ** 60, 2 ** 60) for _ in range(13)] for _ in range(14)]
    d = _check(matrix)
    _d, u, v = smith_normal_form(matrix)
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1
    assert all(x > 0 for x in d)
    assert max(abs(x).bit_length() for m in (u, v) for row in m for x in row) <= 2000
