"""Slope arithmetic, arcs, and the unimodular action."""

from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, strategies as st

from tautfol import (
    GluingMatrix,
    IDENTITY,
    Slope,
    SlopeArc,
    SlopeError,
    VERTICAL,
    act,
    act_arc,
    arc_intersect,
    simplest_slope,
    slope_from_string,
    slope_of_tau,
)
from conftest import rand_unimodular


def test_canonical_pairs():
    assert Slope(2, 4) == Slope(1, 2)
    assert Slope(-3, 0) == Slope(1, 0) == VERTICAL
    assert Slope(5, -10) == Slope(-1, 2)


def test_zero_rejected():
    with pytest.raises(SlopeError):
        Slope(0, 0)


def test_canonicalization_idempotent(rng):
    for _ in range(200):
        p, q = rng.randint(-30, 30), rng.randint(-30, 30)
        if (p, q) == (0, 0):
            continue
        s = Slope(p, q)
        again = Slope(s.p, s.q)
        assert again == s
        assert gcd(s.p, s.q) == 1 and s.q >= 0


def test_tau_round_trip():
    assert Slope(-3, 2).tau == Fraction(3, 2)
    assert VERTICAL.tau is None
    assert slope_of_tau(-2) == Slope(2, 1)
    for p, q in [(1, 2), (-7, 3), (5, 1), (1, 0)]:
        s = Slope(p, q)
        assert slope_of_tau(s.tau) == s


def test_slopes_sort_by_tau_with_the_vertical_slope_last(rng):
    """A slope is a tuple, but < and > compare tau, with the vertical slope
    last, and <= and >= are refused rather than read lexicographically."""
    slopes = [Slope(p, q) for q in range(6) for p in range(-9, 10) if gcd(p, q) == 1
              and (q or p == 1)]
    ordered = sorted(slopes, key=lambda s: (s.q == 0, s.tau if s.q else 0, s.p))
    assert sorted(reversed(slopes)) == sorted(slopes) == ordered
    assert ordered[-1] == VERTICAL and not VERTICAL < VERTICAL
    for a, b in (rng.sample(slopes, 2) for _ in range(300)):
        assert (a > b) == (b < a) != (a < b)
    assert Slope(-1, 1) > Slope(1, 1) and max(Slope(-1, 1), Slope(1, 1)) == Slope(-1, 1)
    for a, b in ((Slope(1, 2), Slope(1, 2)), (Slope(-1, 1), Slope(1, 1)), (VERTICAL, Slope(0, 1))):
        with pytest.raises(TypeError):
            a <= b
        with pytest.raises(TypeError):
            a >= b


def test_replace_goes_through_the_constructor():
    assert Slope(1, 2)._replace(p=4, q=-6) == Slope(-2, 3) == (-2, 3)
    arc = SlopeArc.arc(Slope(1, 2), VERTICAL)
    assert arc._replace(end=Slope(1, 2)) == SlopeArc.point(Slope(1, 2))
    assert arc._replace(kind=SlopeArc.FULL) == SlopeArc.full() == (SlopeArc.FULL, None, None)
    assert GluingMatrix(2, 1, 1, 1)._replace(a=0) == GluingMatrix(0, 1, 1, 1)
    with pytest.raises(SlopeError):
        Slope(1, 2)._replace(p=0, q=0)
    with pytest.raises(SlopeError):
        GluingMatrix(2, 1, 1, 1)._replace(d=2)


def test_slope_strings():
    assert str(Slope(-3, 2)) == "-3/2"
    assert slope_from_string("-3/2") == Slope(-3, 2)
    assert slope_from_string("1/0") == VERTICAL
    for text in ("1/2/3", "3", "x/1", "1.5/2"):
        with pytest.raises(SlopeError) as excinfo:
            slope_from_string(text)
        assert str(excinfo.value) == f"malformed slope string {text!r}"
    with pytest.raises(SlopeError, match=r"^slope \(0, 0\) is not a point of the circle$"):
        slope_from_string("0/0")


def test_act_examples():
    assert act(IDENTITY, Slope(1, 2)) == Slope(1, 2)
    assert act(GluingMatrix(0, -1, 1, 0), Slope(1, 0)) == Slope(0, 1)


def test_act_rejects_non_unimodular():
    with pytest.raises(SlopeError):
        GluingMatrix(2, 0, 0, 1)


@pytest.mark.parametrize("entries", [
    (1.5, 0.5, 1, 1),
    (Fraction(3, 2), Fraction(1, 2), 1, 1),
    (True, False, False, True),
    ("1", 0, 0, "1"),
], ids=["float", "Fraction", "bool", "str"])
def test_gluing_matrix_takes_only_integer_entries(entries):
    """Each of these has determinant 1 (or, for str, none): a float or
    Fraction matrix would send Slope(1, 1) to a pair that is neither
    integral nor primitive.  They are refused as the reader refuses them,
    through _replace too; an int subclass is an integer."""
    with pytest.raises(SlopeError, match="^gluing matrix entries must be integers, got "):
        GluingMatrix(*entries)
    with pytest.raises(SlopeError, match="^gluing matrix entries must be integers, got "):
        IDENTITY._replace(a=entries[0])

    class Integer(int):
        pass

    assert GluingMatrix(Integer(2), 1, 1, 1) == GluingMatrix(2, 1, 1, 1)


def test_equal_gluing_matrices_hash_alike():
    m, same = GluingMatrix(2, 1, 1, 1), GluingMatrix(2, 1, 1, 1)
    assert m == same and m is not same and hash(m) == hash(same)
    assert len({m, same, GluingMatrix(1, 1, 1, 2)}) == 2


def test_act_preserves_primitivity(rng):
    for _ in range(100):
        g = rand_unimodular(rng)
        s = Slope(rng.randint(-20, 20) or 3, rng.randint(-20, 20))
        image = act(g, s)
        assert gcd(image.p, image.q) == 1


def test_act_matches_the_canonicalizing_constructor(rng):
    """act takes no gcd, as a det +-1 image of a primitive pair is primitive;
    it must still give what Slope(a p + b q, c p + d q) canonicalizes to,
    also when the raw image has q < 0, or q = 0 and p < 0."""
    seen = {"det +1": 0, "det -1": 0, "vertical input": 0, "q < 0": 0, "q = 0, p < 0": 0}
    for _ in range(4000):
        g = rand_unimodular(rng)
        s = VERTICAL if rng.random() < 0.1 else Slope(rng.randint(-20, 20) or 3,
                                                      rng.randint(-20, 20))
        p, q = g.a * s.p + g.b * s.q, g.c * s.p + g.d * s.q
        image, expected = act(g, s), Slope(p, q)
        assert (image.p, image.q) == (expected.p, expected.q), (g, s)
        assert image == expected and hash(image) == hash(expected)
        seen["det +1" if g.det == 1 else "det -1"] += 1
        seen["vertical input"] += s == VERTICAL
        seen["q < 0"] += q < 0
        seen["q = 0, p < 0"] += q == 0 and p < 0
    assert min(seen.values()) > 20, seen


def test_act_is_group_action(rng):
    for _ in range(100):
        g = rand_unimodular(rng)
        h = rand_unimodular(rng)
        s = Slope(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
        assert act(g.compose(h), s) == act(g, act(h, s))


def _grid_slopes(den=8, span=4):
    out = [VERTICAL]
    for q in range(1, den + 1):
        for p in range(-span * q, span * q + 1):
            if gcd(p, q) == 1:
                out.append(Slope(p, q))
    return out


GRID = _grid_slopes()


def test_act_arc_identity_and_point(rng):
    arc = SlopeArc.from_tau_interval(Fraction(-1, 2), Fraction(3, 2))
    assert act_arc(IDENTITY, arc) == arc
    g = rand_unimodular(rng)
    s = Slope(3, 5)
    assert act_arc(g, SlopeArc.point(s)) == SlopeArc.point(act(g, s))


def test_act_arc_membership_equivariance(rng):
    for _ in range(30):
        g = rand_unimodular(rng)
        start = Slope(rng.randint(-6, 6) or 1, rng.randint(-6, 6))
        end = Slope(rng.randint(-6, 6) or 2, rng.randint(-6, 6))
        if start == end:
            continue
        arc = SlopeArc.arc(start, end)
        image = act_arc(g, arc)
        for x in GRID[::7]:
            assert arc.contains(x) == image.contains(act(g, x))


def test_arc_intersect_trivia():
    full = SlopeArc.full()
    assert list(arc_intersect(full, full)) == [full]
    a = SlopeArc.from_tau_interval(0, 1)
    b = SlopeArc.from_tau_interval(1, 2)
    meet = arc_intersect(a, b)
    assert list(meet) == [SlopeArc.point(slope_of_tau(1))]
    assert arc_intersect(a, SlopeArc.empty()) == ()


def test_arc_intersect_two_components():
    # Two arcs through the vertical slope overlapping on both sides.
    a = SlopeArc.arc(slope_of_tau(1), slope_of_tau(-1))      # [1, oo] u [-oo, -1]
    b = SlopeArc.arc(slope_of_tau(Fraction(3, 2)), slope_of_tau(Fraction(-1, 2)))
    meet = arc_intersect(a, b)
    assert len(meet) == 1  # both pass through the vertical slope: one arc
    c = SlopeArc.from_tau_interval(-3, 3)                    # avoids vertical
    meet2 = arc_intersect(a, c)
    assert len(meet2) == 2
    for x in GRID:
        assert any(m.contains(x) for m in meet2) == (a.contains(x) and c.contains(x))


def _tau_arc(lo, hi):
    return SlopeArc.arc(slope_of_tau(Fraction(lo)), slope_of_tau(Fraction(hi)))


def test_arc_intersect_grid_oracle(rng):
    slopes = [VERTICAL] + sorted({slope_of_tau(Fraction(n, d)) for d in range(1, 6)
                                  for n in range(-3 * d, 3 * d + 1)}, key=lambda s: s.tau)

    def rand_arc():
        kind = rng.random()
        if kind < 0.05:
            return SlopeArc.empty()
        if kind < 0.15:
            return SlopeArc.full()
        if kind < 0.3:
            return SlopeArc.point(rng.choice(slopes))
        s, e = rng.sample(slopes, 2)
        return SlopeArc.arc(s, e)

    def check(a, b):
        meet = arc_intersect(a, b)
        assert len(meet) <= 2
        for c in meet:
            for end in c.endpoints():
                assert a.contains(end) and b.contains(end), (a, b, c)
        for x in GRID:
            hits = sum(c.contains(x) for c in meet)
            assert hits <= 1, (a, b, x)  # the components are disjoint
            assert bool(hits) == (a.contains(x) and b.contains(x)), (a, b, x)
        # commutativity
        assert set(arc_intersect(b, a)) == set(meet)
        return meet

    for _ in range(600):
        check(rand_arc(), rand_arc())
    point = SlopeArc.point
    # Arcs that only touch meet in their common end.
    assert check(_tau_arc(0, 1), _tau_arc(1, 2)) == (point(slope_of_tau(1)),)
    # Two arcs covering the circle meet in both ends.
    assert set(check(_tau_arc(0, 1), _tau_arc(1, 0))) == {point(slope_of_tau(0)),
                                                          point(slope_of_tau(1))}
    for arc in (_tau_arc(0, 1), _tau_arc(1, -1), SlopeArc.arc(VERTICAL, slope_of_tau(2))):
        assert check(arc, arc) == (arc,)                   # identical arcs
    assert check(_tau_arc(-3, 3), _tau_arc(1, 2)) == (_tau_arc(1, 2),)     # nested
    assert check(_tau_arc(1, -1), _tau_arc(2, -2)) == (_tau_arc(2, -2),)  # nested, wrapping
    # Arcs that share a start run to the nearer end.
    assert check(_tau_arc(0, 1), _tau_arc(0, 2)) == (_tau_arc(0, 1),)
    assert check(_tau_arc(0, -1), _tau_arc(0, 2)) == (_tau_arc(0, 2),)
    assert check(SlopeArc.point(VERTICAL), _tau_arc(1, -1)) == (SlopeArc.point(VERTICAL),)
    assert check(SlopeArc.point(VERTICAL), _tau_arc(-1, 1)) == ()


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40))
def test_arc_membership_against_cyclic_order(p1, q1, p2, q2):
    if (p1, q1) == (0, 0) or (p2, q2) == (0, 0):
        return
    s, e = Slope(p1, q1), Slope(p2, q2)
    if s == e:
        return
    arc = SlopeArc.arc(s, e)
    comp = SlopeArc.arc(e, s)
    for x in GRID[::11]:
        # The two closed arcs cover the circle and meet only at endpoints.
        both = arc.contains(x) and comp.contains(x)
        assert arc.contains(x) or comp.contains(x)
        assert both == (x in (s, e))


def _tau_between(lo, x, hi):
    """tau(lo) <= tau(x) <= tau(hi) by cross-multiplying, VERTICAL ends
    unbounded: tau(a) <= tau(b) is b.p * a.q <= a.p * b.q."""
    return (not lo.q or x.p * lo.q <= lo.p * x.q) and (not hi.q or hi.p * x.q <= x.p * hi.q)


def test_tau_intervals_cover_the_arc():
    ends = GRID[::5]
    arcs = [SlopeArc.empty(), SlopeArc.full()]
    arcs += [SlopeArc.point(x) for x in GRID]
    arcs += [SlopeArc.arc(s, e) for s in ends for e in ends if s != e]
    kinds = set()
    for arc in arcs:
        intervals, has_vertical = arc.tau_intervals()
        for x in GRID:
            held = (has_vertical if x.is_vertical
                    else any(_tau_between(lo, x, hi) for lo, hi in intervals))
            assert held == arc.contains(x), (arc, x)
        for lo, hi in intervals:
            assert not (lo.q and hi.q) or _tau_between(lo, hi, hi)  # lo <= hi
        if arc.kind == SlopeArc.ARC and arc.start.q and arc.end.q:
            wraps = arc.start.p * arc.end.q < arc.end.p * arc.start.q  # tau(start) > tau(end)
            kinds.add("wrap" if wraps else "finite")
            if wraps:
                assert intervals == [(VERTICAL, arc.end), (arc.start, VERTICAL)]
        elif arc.kind == SlopeArc.ARC:
            kinds.add("ray")
        assert arc.tau_pieces() == ([(lo.tau, hi.tau) for lo, hi in intervals], has_vertical)
    assert kinds == {"wrap", "finite", "ray"}
    assert SlopeArc.point(VERTICAL).tau_intervals() == ([], True)
    assert SlopeArc.full().tau_intervals() == ([(VERTICAL, VERTICAL)], True)
    assert SlopeArc.empty().tau_intervals() == ([], False)



def test_contains_vertical_is_membership_of_the_vertical_slope():
    ends = GRID[::3]
    arcs = [SlopeArc.empty(), SlopeArc.full()] + [SlopeArc.point(x) for x in GRID]
    arcs += [SlopeArc.arc(s, e) for s in ends for e in ends if s != e]
    held = [arc.contains_vertical() for arc in arcs]
    assert held == [arc.contains(VERTICAL) for arc in arcs]
    assert 0 < sum(held) < len(arcs)

def test_simplest_slope():
    assert simplest_slope(SlopeArc.full()) == VERTICAL
    assert simplest_slope(SlopeArc.full(), allow_vertical=False) == Slope(0, 1)
    arc = SlopeArc.from_tau_interval(Fraction(5, 3), Fraction(7, 3))
    assert simplest_slope(arc) == Slope(-2, 1)  # tau = 2
    arc2 = SlopeArc.from_tau_interval(Fraction(-7, 3), Fraction(-5, 3))
    assert simplest_slope(arc2) == Slope(2, 1)  # tau = -2
    # Positive tau preferred between +2 and -2:
    arc3 = SlopeArc.from_tau_interval(-2, 2)
    assert simplest_slope(arc3, allow_vertical=False) == Slope(0, 1)
    arc4 = SlopeArc.arc(slope_of_tau(2), slope_of_tau(-2))  # through vertical
    assert simplest_slope(arc4, allow_vertical=False) == Slope(-2, 1)


def test_simplest_slope_refuses_a_region_without_a_slope_to_pick():
    for region in (SlopeArc.empty(), [], [SlopeArc.empty(), SlopeArc.empty()]):
        with pytest.raises(SlopeError, match="^cannot pick a slope from the empty set$"):
            simplest_slope(region)
    with pytest.raises(SlopeError, match="^no rational slope found; malformed region$"):
        simplest_slope(SlopeArc.point(VERTICAL), allow_vertical=False)


def test_tau_interval_ends_must_be_in_order():
    with pytest.raises(SlopeError, match="^tau interval endpoints out of order$"):
        SlopeArc.from_tau_interval(Fraction(1, 2), Fraction(1, 3))
    assert SlopeArc.from_tau_interval(Fraction(1, 2), Fraction(1, 2)).is_point


def _simplest_by_scan(pieces):
    """Least q, then least |p|, then least p, over finite tau-pieces."""
    q = 1
    while True:
        found = [Slope(p, q) for lo, hi in pieces
                 for p in range(ceil(-hi * q), floor(-lo * q) + 1) if gcd(p, q) == 1]
        if found:
            return min(found, key=lambda s: (abs(s.p), s.p))
        q += 1


def test_simplest_slope_between_integers(rng):
    # A piece holding an integer gives the one nearest 0; a piece between two
    # integers gives its slope of least q by the continued fraction descent.
    # Both must agree with a scan over q, mirror images (ties on q and |p|)
    # included.
    for _ in range(600):
        arcs = []
        for _ in range(rng.randint(1, 3)):
            b, d = rng.randint(-6, 6), rng.choice([5, 12, 97, 1000, 4099])
            if rng.random() < 0.5:
                x, y = sorted(rng.sample(range(1, d), 2))
                lo, hi = b + Fraction(x, d), b + Fraction(y, d)
            else:
                lo = b + Fraction(rng.randrange(d), d)
                hi = lo + Fraction(rng.randrange(3 * d), d)
            arcs.append(SlopeArc.from_tau_interval(lo, hi))
            if rng.random() < 0.25:
                arcs.append(SlopeArc.from_tau_interval(-hi, -lo))
        pieces = [p for arc in arcs for p in arc.tau_pieces()[0]]
        assert simplest_slope(arcs) == _simplest_by_scan(pieces)
    # Rays and arcs through the vertical slope: a ray's simplest horizontal
    # slope is its integer nearest 0, so the scan runs on each piece clipped
    # to a finite window from that integer.
    for _ in range(300):
        arcs = []
        for _ in range(rng.randint(1, 3)):
            d = rng.choice([5, 12, 97, 1000, 4099])
            s, e = sorted(rng.randint(-6, 6) + Fraction(rng.randrange(d), d) for _ in range(2))
            arcs.append(rng.choice([SlopeArc.arc(slope_of_tau(s), VERTICAL),
                                    SlopeArc.arc(VERTICAL, slope_of_tau(e)),
                                    SlopeArc.arc(slope_of_tau(e), slope_of_tau(s)),
                                    SlopeArc.from_tau_interval(s, e)]))
        pieces, has_vertical = [], False
        for arc in arcs:
            ps, v = arc.tau_pieces()
            has_vertical = has_vertical or v
            pieces += [(min(0, floor(hi)) if lo is None else lo,
                        max(0, ceil(lo)) if hi is None else hi) for lo, hi in ps]
        assert simplest_slope(arcs, allow_vertical=False) == _simplest_by_scan(pieces)
        assert (simplest_slope(arcs) == VERTICAL) == has_vertical
    assert simplest_slope(SlopeArc.from_tau_interval(1, 10**6)) == Slope(-1, 1)
    assert simplest_slope(SlopeArc.from_tau_interval(-10**6, -1)) == Slope(1, 1)
    arcs = [SlopeArc.from_tau_interval(Fraction(-5, 2), Fraction(-3, 2)),
            SlopeArc.from_tau_interval(Fraction(3, 2), Fraction(5, 2))]
    assert simplest_slope(arcs) == Slope(-2, 1)
    # Two pieces whose slopes of least q tie on q and |p|: positive tau wins.
    arcs = [SlopeArc.from_tau_interval(Fraction(-3, 5), Fraction(-2, 5)),
            SlopeArc.from_tau_interval(Fraction(2, 5), Fraction(3, 5))]
    assert simplest_slope(arcs) == Slope(-1, 2)
    point = SlopeArc.point(Slope(-355, 113))
    assert simplest_slope(point) == Slope(-355, 113)


def test_simplest_slope_builds_no_fraction(rng, monkeypatch):
    regions = [SlopeArc.full(), SlopeArc.point(Slope(-355, 113)),
               SlopeArc.arc(slope_of_tau(2), slope_of_tau(-2)),
               SlopeArc.arc(VERTICAL, Slope(7, 3)), SlopeArc.arc(Slope(-7, 3), VERTICAL)]
    for _ in range(100):
        lo = Fraction(rng.randint(-40, 40), rng.randint(1, 30))
        hi = lo + Fraction(rng.randint(0, 20), rng.randint(1, 30))
        regions.append(SlopeArc.from_tau_interval(lo, hi))
        regions.append(SlopeArc.arc(slope_of_tau(hi), slope_of_tau(lo)))
    expected = [(simplest_slope(r), simplest_slope(r, allow_vertical=False)) for r in regions]

    def no_fraction(*args):
        raise AssertionError("simplest_slope built a Fraction")

    monkeypatch.setattr("tautfol.slopes.Fraction", no_fraction)
    assert [(simplest_slope(r), simplest_slope(r, allow_vertical=False))
            for r in regions] == expected


def test_simplest_slope_in_members(rng):
    for _ in range(60):
        lo = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        hi = lo + Fraction(rng.randint(0, 20), rng.randint(1, 9))
        arc = SlopeArc.from_tau_interval(lo, hi)
        s = simplest_slope(arc)
        assert arc.contains(s)
