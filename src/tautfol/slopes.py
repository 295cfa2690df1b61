"""Exact slopes on a torus, closed arcs on the projective circle, and the
GL(2,Z) change-of-basis action.

A slope is a point of the projective circle S(T) = P(H_1(T;R)) of a torus T.
Rational slopes are stored as primitive integer pairs (p, q) with q >= 0,
meaning the class p*h + q*h# in a fixed ordered basis (h, h#) of H_1(T).
The pair (1, 0) is the *vertical* slope (the fibre class h when T bounds a
Seifert piece); every other slope is *horizontal* and carries the affine
coordinate tau = -p/q.

The circle is oriented by increasing tau, with the vertical slope sitting
between tau = +oo and tau = -oo.  All arcs are read in this orientation.
Everything here is exact: no floats, ever.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd


class SlopeError(ValueError):
    """Raised for invalid slope, arc or matrix constructions."""


def _before(a, b):
    """a < b in the order of increasing tau with the vertical slope last, by
    cross-multiplying: tau(a) < tau(b) is b.p * a.q < a.p * b.q, as both q
    are positive."""
    if b.q == 0:
        return a.q != 0
    return a.q != 0 and b.p * a.q < a.p * b.q


class _Record:
    """Base of the named-tuple records whose constructor checks or
    normalizes its fields: the tuple's own _make, which _replace calls,
    would skip the constructor; this one builds through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Slope(_Record, namedtuple("Slope", "p q")):
    """A rational slope: primitive (p, q), q >= 0, and p > 0 when q = 0.

    Slopes order by increasing tau with the vertical slope last, not as
    tuples; <= and >= are refused rather than read lexicographically."""

    __slots__ = ()

    def __new__(cls, p, q):
        if p == 0 and q == 0:
            raise SlopeError("slope (0, 0) is not a point of the circle")
        g = gcd(p, q)
        if q < 0 or (q == 0 and p < 0):
            g = -g
        return tuple.__new__(cls, (p // g, q // g))

    __lt__ = _before

    def __gt__(self, other):
        return _before(other, self)

    def __le__(self, other):
        return NotImplemented

    __ge__ = __le__

    @property
    def is_vertical(self):
        return self.q == 0

    @property
    def tau(self):
        """tau = -p/q for horizontal slopes, None for the vertical slope."""
        if self.q == 0:
            return None
        return Fraction(-self.p, self.q)

    def __repr__(self):
        return f"Slope({self.p}, {self.q})"

    def __str__(self):
        return f"{self.p}/{self.q}"


def _primitive(p, q):
    """The slope of a pair (p, q) already known to be primitive: only the
    sign is normalized, with no gcd."""
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return tuple.__new__(Slope, (p, q))


VERTICAL = Slope(1, 0)


def slope_from_string(text):
    """Parse a "p/q" string back into a slope."""
    try:
        p, q = map(int, text.strip().split("/"))
    except ValueError:
        raise SlopeError(f"malformed slope string {text!r}") from None
    return Slope(p, q)


def slope_of_tau(tau):
    """Inverse of Slope.tau: None gives the vertical slope, a Fraction or
    int t the slope (-t.numerator, t.denominator)."""
    if tau is None:
        return VERTICAL
    return Slope(-tau.numerator, tau.denominator)


def _cyclically_between(a, x, b):
    """True when x lies strictly inside the arc from a to b (positive
    orientation); False when two of the three points coincide."""
    ax, xb, ba = _before(a, x), _before(x, b), _before(b, a)
    return (ax and xb) or (ba and ax) or (xb and ba)


class SlopeArc(_Record, namedtuple("SlopeArc", "kind start end")):
    """A non-empty-or-empty closed connected subset of the circle.

    Four kinds: the empty set, the full circle, a single point, or the
    closed arc traversed from ``start`` to ``end`` in the direction of
    increasing tau (wrapping through the vertical slope when
    tau(start) > tau(end) or an endpoint is vertical).
    """

    EMPTY = "empty"
    FULL = "full"
    POINT = "point"
    ARC = "arc"

    __slots__ = ()

    def __new__(cls, kind, start=None, end=None):
        # The kinds by value, the four strings above.
        if kind == "arc" and start == end:
            kind = "point"
        if kind == "point":
            end = None
        elif kind == "empty" or kind == "full":
            start = end = None
        return tuple.__new__(cls, (kind, start, end))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty():
        return SlopeArc(SlopeArc.EMPTY)

    @staticmethod
    def full():
        return SlopeArc(SlopeArc.FULL)

    @staticmethod
    def point(slope):
        return SlopeArc(SlopeArc.POINT, slope)

    @staticmethod
    def arc(start, end):
        return SlopeArc(SlopeArc.ARC, start, end)

    @staticmethod
    def from_tau_interval(lo, hi):
        """Closed arc of horizontal slopes with tau in [lo, hi], lo <= hi."""
        if lo > hi:
            raise SlopeError("tau interval endpoints out of order")
        return SlopeArc.arc(slope_of_tau(lo), slope_of_tau(hi))

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self):
        return self.kind == "empty"

    @property
    def is_full(self):
        return self.kind == "full"

    @property
    def is_point(self):
        return self.kind == "point"

    def endpoints(self):
        if self.kind == SlopeArc.POINT:
            return (self.start, self.start)
        if self.kind == SlopeArc.ARC:
            return (self.start, self.end)
        return ()

    def contains(self, slope):
        if self.kind == SlopeArc.EMPTY:
            return False
        if self.kind == SlopeArc.FULL:
            return True
        if self.kind == SlopeArc.POINT:
            return slope == self.start
        if slope == self.start or slope == self.end:
            return True
        return _cyclically_between(self.start, slope, self.end)

    def contains_vertical(self):
        """contains(VERTICAL), read off the ends: an arc holds the vertical
        slope when an end is vertical or tau falls from its start to its end."""
        kind, start, end = self
        if kind == "arc":
            return not (start.q and end.q) or _before(end, start)
        return kind == "full" or (kind == "point" and not start.q)

    def tau_intervals(self):
        """The horizontal part as closed tau-intervals, plus whether the
        vertical slope belongs to the set.

        Returns (intervals, has_vertical) where each interval is a pair
        (lo, hi) of end slopes, VERTICAL meaning -oo for lo resp. +oo for hi.
        An arc wrapping through the vertical slope gives two rays, the one
        up to its end first.
        """
        if self.kind == SlopeArc.EMPTY:
            return [], False
        s, e = self.start or VERTICAL, self.end or self.start or VERTICAL
        if not (s.q and e.q):
            return ([] if self.kind == SlopeArc.POINT else [(s, e)]), True
        if _before(e, s):
            return [(VERTICAL, e), (s, VERTICAL)], True
        return [(s, e)], False

    def tau_pieces(self):
        """tau_intervals with each end slope read as its tau: Fractions, None
        for an unbounded end."""
        intervals, has_vertical = self.tau_intervals()
        return [(lo.tau, hi.tau) for lo, hi in intervals], has_vertical

    def __repr__(self):
        if self.kind == SlopeArc.POINT:
            return f"SlopeArc.point({self.start!r})"
        if self.kind == SlopeArc.ARC:
            return f"SlopeArc.arc({self.start!r}, {self.end!r})"
        return f"SlopeArc.{self.kind}()"


def arc_intersect(a, b):
    """Exact intersection of two closed arcs: a tuple of 0, 1 or 2 disjoint
    closed arcs, points included.

    Each component starts at the start of one arc that lies in the other arc
    and runs forward to whichever of the two ends comes first."""
    if a.is_empty or b.is_empty:
        return ()
    if a.is_full or b.is_full:
        return (b if a.is_full else a,)
    if a.is_point or b.is_point:
        point, other = (a, b) if a.is_point else (b, a)
        return (point,) if other.contains(point.start) else ()
    out = []
    for first, other in ((a, b), (b, a)):
        s = first.start
        if not other.contains(s) or any(c.start == s for c in out):
            continue
        # other.end comes first unless first.end lies strictly before it; a
        # component that starts where other ends is that one point.
        end = first.end if _cyclically_between(s, first.end, other.end) else other.end
        out.append(SlopeArc.arc(s, end))
    return tuple(out)


class GluingMatrix(_Record, namedtuple("GluingMatrix", "a b c d")):
    """An integer 2x2 matrix of determinant +-1 acting on slope pairs by
    (p, q) |-> (a*p + b*q, c*p + d*q).  Its entries are ints, as the reader
    takes them: an int subclass, but no bool, float or Fraction."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if not type(a) is type(b) is type(c) is type(d) is int and not all(
                isinstance(x, int) and not isinstance(x, bool) for x in (a, b, c, d)):
            raise SlopeError(f"gluing matrix entries must be integers, got {(a, b, c, d)!r}")
        if a * d - b * c not in (1, -1):
            raise SlopeError("gluing matrix must have determinant +-1")
        return tuple.__new__(cls, (a, b, c, d))

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    # Inverses and products of such matrices are such matrices: built unchecked.
    def inverse(self):
        a, b, c, d = self
        s = self.det  # +-1, its own inverse
        return tuple.__new__(GluingMatrix, (s * d, -s * b, -s * c, s * a))

    def compose(self, other):
        """Matrix product self * other (apply other first)."""
        return tuple.__new__(GluingMatrix, (
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        ))

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    def __repr__(self):
        return f"GluingMatrix({self.a}, {self.b}, {self.c}, {self.d})"


IDENTITY = GluingMatrix(1, 0, 0, 1)


def act(g, slope):
    """Projective action of a unimodular matrix on a slope (primitive image)."""
    return _primitive(g.a * slope.p + g.b * slope.q, g.c * slope.p + g.d * slope.q)


def act_inverse(g, slope):
    """act(g.inverse(), slope), with no inverse built: the adjugate
    (d, -b; -c, a) is the inverse up to the sign det = +-1, which the
    primitive pair's sign normalization takes out."""
    return _primitive(g.d * slope.p - g.b * slope.q, g.a * slope.q - g.c * slope.p)


def act_arc(g, arc):
    """Image of a closed arc.  The traversal direction flips when the induced
    circle map is orientation-reversing (det = -1)."""
    kind, start, end = arc
    # act is a bijection, so the images need no normalizing constructor.
    if kind == "arc":
        s, e = act(g, start), act(g, end)
        return tuple.__new__(SlopeArc, (kind, s, e) if g.det > 0 else (kind, e, s))
    if kind == "point":
        return tuple.__new__(SlopeArc, (kind, act(g, start), None))
    return arc  # empty or full


def simplest_slope(region, allow_vertical=True):
    """The simplest rational slope in a non-empty SlopeArc or iterable of arcs:
    minimal q, then minimal |p|, then positive tau preferred.

    The vertical slope (q = 0) is the simplest of all when present and
    allowed.
    """
    if isinstance(region, SlopeArc):
        arcs = [region]
    else:
        arcs = list(region)
    if not arcs or all(a.is_empty for a in arcs):
        raise SlopeError("cannot pick a slope from the empty set")
    intervals = []
    has_vertical = False
    for a in arcs:
        ivs, v = a.tau_intervals()
        intervals.extend(ivs)
        has_vertical = has_vertical or v
    if allow_vertical and has_vertical:
        return VERTICAL
    if not intervals:
        raise SlopeError("no rational slope found; malformed region")
    return min((_simplest_in(lo, hi) for lo, hi in intervals),
               key=lambda s: (s.q, abs(s.p), s.p))


def _simplest_in(lo, hi):
    """The simplest slope with tau in the closed interval between the end
    slopes lo and hi (VERTICAL unbounded): the integer nearest 0 when the
    interval holds one, else its unique slope of least q."""
    k = 0
    if lo.q and lo.p < 0:  # tau(lo) > 0: its ceiling
        k = -(lo.p // lo.q)
    elif hi.q and hi.p > 0:  # tau(hi) < 0: its floor
        k = -hi.p // hi.q
    if (not lo.q or -lo.p <= k * lo.q) and (not hi.q or k * hi.q <= -hi.p):
        return _primitive(-k, 1)
    p, q = _least_denominator(-lo.p, lo.q, -hi.p, hi.q)
    return _primitive(-p, q)


def _least_denominator(lo_num, lo_den, hi_num, hi_den, lo_open=False, hi_open=False):
    """(p, q): the rational p/q of least denominator q > 0 in the non-empty
    interval from lo_num/lo_den to hi_num/hi_den (positive denominators; an
    end is left out when its flag is set), by the continued fraction
    expansion (the Stern-Brocot descent); it is unique when the interval
    holds no integer.  Takes O(log) integer steps in the ends' sizes."""
    # x = (p1*y + p0) / (q1*y + q0) for the tail y, which lies between the
    # current ends; hi_den == 0 means the tail has no upper end.
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        k = lo_num // lo_den + 1 if lo_open else -(-lo_num // lo_den)
        if hi_den == 0 or k * hi_den < hi_num or (k * hi_den == hi_num and not hi_open):
            return p1 * k + p0, q1 * k + q0
        # No integer in between: y = a + 1/z, and z lies between
        # 1/(hi - a) and 1/(lo - a), so the ends swap.
        a = lo_num // lo_den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        lo_num, lo_den, hi_num, hi_den = hi_den, hi_num - a * hi_den, lo_den, lo_num - a * lo_den
        lo_open, hi_open = hi_open, lo_open
