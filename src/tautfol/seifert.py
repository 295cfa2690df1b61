"""Relative slope detection on a Seifert piece.

Given a Seifert piece with boundary tori T_1, ..., T_r, constraint arcs
S_1, ..., S_{r-1} on all but the last torus, and a subset J of constraint
indices on which detection must be strong, this module computes the set of
slopes on T_r detected by a co-oriented taut foliation compatible with the
constraints, together with the (finite) list of detected slopes that are not
strongly detected.

The horizontal case runs through the tau-coordinate bookkeeping: for a
constraint tuple tau_* we count integral and non-integral coordinates, form

    b0 = -(floor(tau_1) + ... + floor(tau_{r-1}))
    m0 = b0 + i0 - (n + r - 1)          m1 = b0 + s0 - 1

and the union over the i0 = 0 stratum of the intervals [m0, m1] is the core
interval [c_min, c_max].  The detected set can stick out of the core by less
than 1 on each side; whether it does is governed by a finite search for
coprime integers 0 < A < N distributing (A/N, 1-A/N, 1/N, ..., 1/N) over the
cone points, the free constraint endpoints and the target torus subject to
sharp fractional-part inequalities.  That search is performed here with a
configurable bound on N; absence below the bound is reported as absence.

Every tau endpoint is read off its arc's end slope (p, q) as the integer pair
(-p, q); Fraction appears only at the public API (Slope.tau, gammas,
horizontal_sum, jn_refine_low/high).

A horizontal surface in a piece meets its boundary tori in slopes whose taus
sum to b_eff - sum(gamma_i); SeifertPiece.horizontal_completion is the one
home of that rule.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .slopes import (
    VERTICAL,
    GluingMatrix,
    Slope,
    SlopeArc,
    SlopeError,
    act,
    act_arc,
    _least_denominator,
    _primitive,
    _Record,
    _simplest_in,
    simplest_slope,
)


class PieceError(ValueError):
    """Invalid or unsupported Seifert piece data."""


class FamilyError(ValueError):
    """Constraint family violating the normalization assumptions."""


class DecisionError(ValueError):
    """Internal inconsistency between independent computations."""


def _slope_at(end, shift):
    """The slope of tau = num/den + shift, for an end (num, den) in lowest
    terms with den > 0: a primitive pair already in sign order."""
    num, den = end
    return tuple.__new__(Slope, (-num - shift * den, den))


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


def _require_int(value, field, *args):
    if not isinstance(value, int) or isinstance(value, bool):
        raise PieceError(f"{field.format(*args)} must be an integer, got {value!r}")


class SeifertPiece(_Record, namedtuple("SeifertPiece", "base_orientable cones b boundary_count "
                                        "crosscaps ident", defaults=(0, 1, 0, None))):
    """One Seifert-fibred piece.

    The base orbifold is a planar orientable surface or a once-punctured-or-
    more non-orientable surface of crosscap number ``crosscaps`` with
    ``boundary_count`` boundary circles and cone points of orders given by
    ``cones`` (pairs (a_i, beta_i), gcd = 1, a_i >= 2, gamma_i = beta_i/a_i).
    ``b`` is the integer obstruction in the section relation
    sum(x_i) + sum(d_j) + b*h = 0.

    The derived ``b_eff``, ``cone_order_lcm``, ``n`` (the number of cones)
    and the shape predicates are written once into the instance dict,
    which a tuple subclass needs in place of slots, beside the numerator
    of ``horizontal_sum`` over ``cone_order_lcm``; ``horizontal_sum``
    itself, a Fraction, is made on read.  Assignment is refused, to the
    fields and the derived values alike.  The predicates: ``is_n2``, the
    twisted I-bundle over the Klein bottle, presented over the Moebius band
    (crosscap 1, no cones, one boundary); ``is_solid_torus_piece``;
    ``is_product_piece``, S^1 x S^1 x I (annulus base, no cones); and
    ``is_cable_space``, an annulus base with one cone point.
    """

    def __new__(cls, base_orientable, cones, b=0, boundary_count=1, crosscaps=0, ident=None):
        typed = (type(base_orientable) is bool and type(b) is int
                 and type(boundary_count) is int and type(crosscaps) is int
                 and type(cones) is tuple)
        for cone in cones if typed else ():
            if not (type(cone) is tuple and len(cone) == 2 and type(cone[0]) is type(cone[1]) is int):
                typed = False
                break
        if not typed:
            cones = _check_field_types(base_orientable, cones, b, boundary_count, crosscaps)
        if boundary_count < 1:
            raise PieceError("a piece needs at least one boundary torus")
        if base_orientable and crosscaps != 0:
            raise PieceError("orientable base cannot carry crosscaps")
        if not base_orientable and crosscaps < 1:
            raise PieceError("non-orientable base needs crosscap number >= 1")
        # b_eff, the section obstruction with every beta_i reduced into
        # (0, a_i); and b_eff - sum(gamma_i), over the lcm m of the a_i,
        # which a horizontal surface's taus sum to.  With a >= 2 and
        # gcd(a, beta) = 1, a does not divide beta: gamma is never integral.
        m, m_gammas, reduced = 1, 0, 0
        for a, beta in cones:
            if a < 2:
                raise PieceError(f"cone order {a} < 2")
            if gcd(a, beta) != 1:
                raise PieceError(f"cone pair ({a}, {beta}) not coprime")
            step = lcm(m, a)
            m, m_gammas = step, m_gammas * (step // m) + beta % a * (step // a)
            reduced += beta // a
        self = tuple.__new__(cls, (base_orientable, cones, b, boundary_count, crosscaps, ident))
        b_eff, n = b - reduced, len(cones)
        annulus = base_orientable and boundary_count == 2
        _SET_DICT(self, {
            "b_eff": b_eff, "cone_order_lcm": m, "_horizontal_num": b_eff * m - m_gammas,
            "n": n, "is_n2": not base_orientable and crosscaps == 1 and n == 0 and boundary_count == 1,
            "is_solid_torus_piece": base_orientable and boundary_count == 1 and n <= 1,
            "is_product_piece": annulus and n == 0, "is_cable_space": annulus and n == 1})
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SeifertPiece is immutable")

    def __delattr__(self, name):
        raise AttributeError("SeifertPiece is immutable")

    @property
    def horizontal_sum(self):
        """b_eff - sum(gamma_i), which a horizontal surface's boundary taus
        sum to."""
        return Fraction(self._horizontal_num, self.cone_order_lcm)

    def horizontal_completion(self, slopes):
        """The slope on the remaining boundary torus that completes a
        horizontal surface with the horizontal ``slopes`` on the others:
        tau = b_eff - sum(gamma_i) - sum(tau_j)."""
        return Slope(*self._completion(slopes))

    def _completion(self, slopes):
        """The pair (p, q) of horizontal_completion before it is reduced:
        horizontal_sum plus each p_j/q_j folded over a common denominator."""
        num, den = self._horizontal_num, self.cone_order_lcm
        for s in slopes:
            num, den = num * s.q + s.p * den, den * s.q
        return -num, den

    @property
    def gammas(self):
        """gamma_i = beta_i/a_i mod 1 in (0, 1), computed on read (for the oracle)."""
        return tuple(Fraction(beta % a, a) for a, beta in self.cones)


# The instance dict's own setter, which the guard in __setattr__ does not see.
_SET_DICT = SeifertPiece.__dict__["__dict__"].__set__


def _check_field_types(base_orientable, cones, b, boundary_count, crosscaps):
    """The field type checks of SeifertPiece one by one, in order, to name
    the first field at fault; the cones as a tuple of pairs when none is."""
    if not isinstance(base_orientable, bool):
        raise PieceError(f"base_orientable must be a boolean, got {base_orientable!r}")
    try:
        cones = tuple(cones)
    except TypeError:
        raise PieceError(f"cones must be a sequence of pairs, got {cones!r}") from None
    for t, cone in enumerate(cones):
        if not isinstance(cone, (tuple, list)) or len(cone) != 2:
            raise PieceError(f"cones[{t}] must be a pair (a, beta), got {cone!r}")
    cones = tuple((a, beta) for a, beta in cones)
    _require_int(b, "b")
    _require_int(boundary_count, "boundary_count")
    _require_int(crosscaps, "crosscaps")
    for t, (a, beta) in enumerate(cones):
        _require_int(a, "cones[{}][0]", t)
        _require_int(beta, "cones[{}][1]", t)
    return cones


# ---------------------------------------------------------------------------
# Constraint families
# ---------------------------------------------------------------------------


_NO_STRONG = frozenset()


class ConstraintFamily(_Record, namedtuple("ConstraintFamily", "arcs strong",
                                           defaults=(_NO_STRONG,))):
    """Arcs S_1, ..., S_{r-1} (0-indexed here) plus the strong index set J.
    Its length is the number of arcs.  A strong index is an ``int`` (not a
    ``bool``) naming an arc."""

    __slots__ = ()

    def __new__(cls, arcs, strong=_NO_STRONG):
        arcs = tuple(arcs)
        if strong is not _NO_STRONG:
            strong = frozenset(strong)
            for j in strong:
                if not isinstance(j, int) or isinstance(j, bool):
                    raise FamilyError(f"strong index {j!r} is not an integer")
                if not 0 <= j < len(arcs):
                    raise FamilyError(f"strong index {j} out of range")
        for j, arc in enumerate(arcs):
            if arc.kind == "empty":
                raise FamilyError(f"constraint {j} is empty")
            if j in strong:
                if arc.contains_vertical():
                    raise FamilyError(
                        f"constraint {j} is strong but contains the vertical slope")
                if arc.is_point:
                    raise FamilyError(
                        f"constraint {j} is strong but is a single slope")
        return tuple.__new__(cls, (arcs, strong))

    def __len__(self):
        return len(self.arcs)


def v_count(family):
    """Number of constraint arcs containing the vertical slope."""
    return sum(map(SlopeArc.contains_vertical, family.arcs))


def _horizontal_ends(piece, family):
    """_arc_ends, once the horizontal case's preconditions are checked."""
    if not piece.base_orientable:
        raise PieceError("core interval is defined over orientable bases")
    if v_count(family) != 0:
        raise FamilyError("core interval requires a vertical-free family")
    r = piece.boundary_count
    if len(family) != r - 1:
        raise FamilyError("family size must be boundary count minus one")
    if piece.n + r < 3:
        raise PieceError("core interval needs n + r >= 3")
    return _arc_ends(family)


def _arc_ends(family):
    """(zetas, etas): the upper and lower ends, as (num, den) pairs, of the
    [eta_j, zeta_j] tau-intervals of a vertical-free family."""
    zetas, etas = [], []
    for _, lo, hi in family.arcs:
        hi = hi or lo
        etas.append((-lo.p, lo.q))
        zetas.append((-hi.p, hi.q))
    return zetas, etas


def _core_end(piece, zetas, etas, strong):
    """(c_min, c_max), from the zetas and the etas in one pass: integral
    ends count on strong constraints below, on free ones above."""
    c_min = c_max = j = 0
    for (z_num, z_den), (e_num, e_den) in zip(zetas, etas):
        c_min += (z_den == 1 and j in strong) - z_num // z_den
        c_max += (e_den == 1 and j not in strong) - e_num // e_den
        j += 1
    return c_min - (piece.n + piece.boundary_count - 1), c_max - 1


def core_interval(piece, family):
    """The core integer interval [c_min, c_max] of the horizontal case."""
    zetas, etas = _horizontal_ends(piece, family)
    return _core_end(piece, zetas, etas, family.strong)


# ---------------------------------------------------------------------------
# The (A, N) refinement search
# ---------------------------------------------------------------------------


class JNCertificate(namedtuple("JNCertificate", "n_value a_value side cone_numerators "
                                "boundary_numerators excluded target_numerator")):
    """Witness that the detected set extends past the core interval.

    The multiset (A/N, 1-A/N, 1/N, ..., 1/N) is distributed over the cone
    points (values A_i/N), the non-excluded constraint tori (values B_j/N)
    and the target torus (value C/N); all values are stored as numerators
    over ``n_value``.  ``side`` is "low" or "high"; ``boundary_numerators``
    holds pairs (constraint index, numerator); ``excluded`` the strong
    indices with an integral extreme endpoint.
    """

    __slots__ = ()


def default_n_bound(piece, endpoints):
    """Search bound for the certificate hunt: twice the lcm of the cone
    orders times the largest denominator of the (num, den) endpoints."""
    largest = 1  # the largest denominator, 1 when there is none
    for _, den in endpoints:
        if den > largest:
            largest = den
    return max(2 * piece.cone_order_lcm * largest, 2)


def _satisfies(value_num, n_value, threshold, strict):
    lhs, rhs = value_num * threshold[1], threshold[0] * n_value
    return lhs > rhs if strict else lhs >= rhs


def _scan_certificates(slots, n_max):
    """Maximize C/N over certificates whose non-target values satisfy the
    slot thresholds, with N <= n_max.  ``slots`` is a list of (tag,
    threshold, strict), each threshold a pair (num, den) in lowest terms
    with den > 0.

    Returns ((C, N), N, A, assignment dict tag -> numerator, C) or None.

    Every candidate C/N is in lowest terms: (N-1)/N, A/N or (N-A)/N with
    gcd(A, N) = 1, or 1/N.  So the largest C/N fixes its N, which is unique,
    and each way of placing the values is one Farey question with a bounded
    denominator, answered in O(log n_max) integer steps:

    * while 1/N fits every slot but the hardest (threshold t0), the target
      takes A or N - A and the hardest slot the other: C/N is the best
      approximation of 1 - t0 from below with N <= cut1 (_farey_below);
    * the target takes a 1/N copy and {A, N - A} go on the two hardest
      slots: the least N <= cut2 with some big/N = max(A, N - A)/N in
      lowest terms in the window _least_pair_denominator reads off those
      slots, the window's simplest fraction (slopes._least_denominator).
      That fixes A = N - big: two consecutive terms of the Farey sequence
      of order N never share a denominator >= 2, so between two fractions
      of denominator N in the window would lie one of smaller
      denominator, and big/N is the only one at the least N.

    At the winning N the least A reaching C is taken, then the lowest case:
    the first optimum in (N, then C, then A) order.
    """
    if not slots:
        return None
    # Hardest first: the highest threshold, strict before loose, then slot order.
    common = 1
    for _, (_, td), _ in slots:
        common = lcm(common, td)
    ranked = []
    for i, (_, (tn, td), strict) in enumerate(slots):
        ranked.append((tn * (common // td), strict, -i, tn, td))
    ranked.sort(reverse=True)
    # The largest N <= n_max for which the value 1 satisfies the second
    # (cut1) and the third (cut2) hardest slot.  A slot's cutoff never falls
    # along that order, so up to there 1/N satisfies every later slot too.
    cut1 = cut2 = n_max
    for _, strict, _, tn, td in ranked[2:0:-1]:
        cut2, cut1 = cut1, n_max if tn <= 0 else min(n_max, (td - 1) // tn if strict else td // tn)
    _, strict0, _, t0n, t0d = ranked[0]
    # Up to cut1 only the hardest slot can refuse a 1/N; A/N < 1 - t0 and
    # (N-A)/N > t0 are the same condition, so cases 0 and 1 reach the same
    # C at every N, and where 1/N fits every slot that C is N - 1.
    best = _farey_below(t0d - t0n, t0d, strict0, cut1)
    big = None
    if len(ranked) >= 2:
        _, strict1, _, t1n, t1d = ranked[1]
        pair = _least_pair_denominator(t0n, t0d, strict0, t1n, t1d, strict1)
        # A tie goes to cases 0 and 1: at N <= cut1 they reach C = 1 with A = 1.
        if (pair is not None and pair[1] <= cut2
                and (best is None or best[0] * pair[1] < best[1])):
            big, n_value = pair
            best = (1, n_value)
    if best is None:
        return None
    c_num, n_value = best
    if big is not None:  # case 2: {big, A} on the two hardest slots
        a_val = n_value - big
        values = (big, a_val)
    else:
        # Cases 0 (the target takes A = C) and 1 (it takes N - A = C) leave
        # N - C for the hardest slot; case 0 wins a tie in A, at N = 2.
        a_val = min(c_num, n_value - c_num)
        values = (n_value - c_num,)
    assign = _build_assignment(slots, ranked, n_value, a_val, values)
    return (c_num, n_value), n_value, a_val, assign, c_num


def _farey_below(num, den, strict, bound):
    """(C, N): the largest C/N in (0, 1), in lowest terms, with N <= bound
    and C/N < num/den (<= when not strict), or None.  num/den is in lowest
    terms with den > 0."""
    if num >= den:
        num, den, strict = 1, 1, True
    if num <= 0 or bound < 2:
        return None
    if den > bound:
        # num/den is beyond the bound: its last convergent p1/q1 under the
        # bound and the largest semiconvergent after it bracket num/den.
        p0, q0, p1, q1 = 0, 1, 1, 0
        n, d = num, den
        while True:
            a = n // d
            if q0 + a * q1 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            n, d = d, n - a * d
        k = (bound - q0) // q1
        c, n = (p1, q1) if p1 * den < num * q1 else (p0 + k * p1, q0 + k * q1)
    elif not strict:
        return num, den
    else:
        # The left neighbour of num/den in the Farey sequence of order
        # bound: num*n - den*c = 1 with bound - den < n <= bound.
        n = bound - (bound - pow(num, -1, den)) % den
        c = (num * n - 1) // den
    return (c, n) if c > 0 else None


def _least_pair_denominator(t0n, t0d, s0, t1n, t1d, s1):
    """(big, N): the fraction big/N of least denominator with 1/2 <= big/N
    < 1, above the hardest threshold t0 and below 1 - t1, t1 the second
    hardest (or at them without strictness), in lowest terms.  None when
    that window is empty."""
    lo = (1, 2, False) if 2 * t0n < t0d else (t0n, t0d, s0)
    hi = (1, 1, True) if t1n <= 0 else (t1d - t1n, t1d, s1)
    gap = lo[0] * hi[1] - hi[0] * lo[1]
    if gap > 0 or (gap == 0 and (lo[2] or hi[2])):
        return None
    return _least_denominator(lo[0], lo[1], hi[0], hi[1], lo[2], hi[2])


def _build_assignment(slots, ranked, n_value, a_val, values):
    """The winning (N, A)'s values on the slots, hardest first (in the
    scan's ``ranked`` order, each entry naming its slot i as -i):
    ``values``, the larger non-target ones in descending order, then 1s.
    Each is checked against its slot's threshold."""
    assign = {}
    for k, (_, _, minus_i, _, _) in enumerate(ranked):
        tag, threshold, strict = slots[-minus_i]
        value = values[k] if k < len(values) else 1
        if not _satisfies(value, n_value, threshold, strict):
            raise DecisionError(
                f"certificate replay failed at N = {n_value}, A = {a_val}: "
                f"no value left for slot {tag} (threshold {threshold[0]}/{threshold[1]})")
        assign[tag] = value
    return assign


def _side_reach(piece, end, ends, strong, side, n_max):
    """How far the detected set reaches past the core end ``end`` (c_min on
    side "low", c_max on "high"): (end - C/N or end + C/N as a (num, den)
    pair, certificate) for the largest C/N certified with N <= n_max, or ((end, 1), None).

    ``ends`` are the side's extreme endpoints, one per constraint: zeta for
    low, eta for high.  Ends are (num, den) pairs in lowest terms.
    """
    low = side == "low"
    # Thresholds 1 - gamma_i (low) or gamma_i (high), gamma_i = (beta_i mod a_i)/a_i.
    slots = []
    for i, (a, beta) in enumerate(piece.cones):
        slots.append((("cone", i), (a - beta % a if low else beta % a, a), True))
    excluded, held = [], []  # held: the constraints with a slot
    for j, (num, den) in enumerate(ends):
        if den != 1:
            slots.append((("bdry", j), (-num % den if low else num % den, den), j in strong))
            held.append(j)
        elif j in strong:
            excluded.append(j)
        else:
            # Absence rule: an integral extreme endpoint on a free constraint
            # makes the extremal stratum integral, which kills the refinement.
            return (end, 1), None
    found = _scan_certificates(slots, n_max)
    if found is None:
        return (end, 1), None
    (c_num, n_value), _, a_val, assign, _ = found
    values, n = [assign[tag] for tag, _, _ in slots], piece.n
    cert = tuple.__new__(JNCertificate, (n_value, a_val, side, tuple(values[:n]),
                                         tuple(zip(held, values[n:])), tuple(excluded), c_num))
    return (end * n_value - c_num if low else end * n_value + c_num, n_value), cert


def _refine_family(piece, family, side, n_max):
    """_side_reach on a vertical-free family, bounded by both sides' ends."""
    zetas, etas = _horizontal_ends(piece, family)
    bound = n_max if n_max is not None else default_n_bound(piece, etas + zetas)
    low = side == "low"
    core = _core_end(piece, zetas, etas, family.strong)[0 if low else 1]
    end, cert = _side_reach(piece, core, zetas if low else etas, family.strong, side, bound)
    return None if cert is None else (Fraction(*end), cert)


def jn_refine_low(piece, family, n_max=None):
    """Extremal eta in (c_min - 1, c_min) realizable past the core interval,
    with its certificate, or None when no certificate exists up to n_max."""
    return _refine_family(piece, family, "low", n_max)


def jn_refine_high(piece, family, n_max=None):
    """Extremal zeta in (c_max, c_max + 1); mirror of jn_refine_low."""
    return _refine_family(piece, family, "high", n_max)


# ---------------------------------------------------------------------------
# Detection results
# ---------------------------------------------------------------------------


class Strength(Enum):
    STRONG = "strong"
    NOT_STRONG = "not-strong"
    INDETERMINATE = "indeterminate"


class ExceptionalSlope(namedtuple("ExceptionalSlope", "slope status reason")):
    """A detected slope whose Strength is not STRONG, and why."""

    __slots__ = ()


# The one exception of every full detected circle.
_VERTICAL_IN_FULL = (ExceptionalSlope(VERTICAL, Strength.NOT_STRONG,
                                      "vertical slope in a full circle"),)
# The status and reason of every frontier slope of a detected interval.
_FRONTIER = (Strength.NOT_STRONG, "frontier of the detected interval")


class DetectionResult(namedtuple("DetectionResult", "detected exceptions branch "
                                  "low_certificate high_certificate",
                                  defaults=((), "", None, None))):
    """Detected arc (a SlopeArc) plus the finite list of detected-but-not-
    strong slopes (ExceptionalSlope), the kernel branch that answered, and
    the JNCertificate of each side the horizontal branch extended.

    Every rational slope of ``detected`` not listed in ``exceptions`` is
    strongly detected.
    """

    __slots__ = ()

    def strong_status(self, slope):
        if not self.detected.contains(slope):
            raise ValueError(f"slope {slope} is not detected")
        for exc in self.exceptions:
            if exc.slope == slope:
                return exc.status
        return Strength.STRONG


def merge_exceptions(entries):
    """Combine exception records for the same slope: a definite not-strong
    verdict wins over an indeterminate one; reasons accumulate."""
    by_slope = {}
    order = []
    for exc in entries:
        key = exc.slope
        if key not in by_slope:
            by_slope[key] = exc
            order.append(key)
            continue
        old = by_slope[key]
        status = old.status
        if Strength.NOT_STRONG in (old.status, exc.status):
            status = Strength.NOT_STRONG
        reason = old.reason if exc.reason in old.reason else f"{old.reason}; {exc.reason}"
        by_slope[key] = ExceptionalSlope(key, status, reason)
    out = [by_slope[k] for k in order]
    if len(out) > 1:
        out.sort(key=lambda e: e.slope)  # increasing tau, vertical last
    return tuple(out)


# ---------------------------------------------------------------------------
# detect_relative
# ---------------------------------------------------------------------------


def product_transport(piece):
    """The slope map S(T_1) -> S(T_2) induced by an S^1 x S^1 x I piece,
    as a gluing matrix on (p, q) pairs: tau goes to b - tau."""
    return GluingMatrix(1, piece.b_eff, 0, -1)


def solid_torus_meridian(piece):
    """Meridional slope of a fibred solid torus piece, in its boundary frame."""
    if not piece.is_solid_torus_piece:
        raise PieceError("piece is not a solid torus")
    return piece.horizontal_completion(())


def _ray_reach(piece, family, j0, ray_end, side, n_max):
    """How far one side reaches when constraint j0 contains the vertical
    slope, through one of its two rays: on side "high" the supremum end of
    (-oo, right] coming from the ray [ray_end, +oo), on side "low" the
    infimum of [left, +oo) coming from the ray (-oo, ray_end].  The ray end
    is a slope; the answer is a (num, den) pair in the normalized (b = 0)
    frame.  The other arcs are finite: their zeta below, their eta above.
    """
    # Each side's default bound counts only that side's extreme endpoints,
    # where the horizontal branch counts both sides': a larger bound can
    # certify a larger C/N, and recorded reports were made this way.
    high = side == "high"
    slopes = [ray_end if j == j0 else arc.start if high else arc.end or arc.start
              for j, arc in enumerate(family.arcs)]
    ends = [(-s.p, s.q) for s in slopes]
    bound = n_max if n_max is not None else default_n_bound(piece, ends)
    core = _core_end(piece, ends, ends, family.strong)[high]
    return _side_reach(piece, core, ends, family.strong, side, bound)[0]


def detect_relative(piece, family, n_max=None):
    """Detected and strongly detected slopes on the last boundary torus."""
    if not piece.base_orientable and piece.crosscaps > 1:
        raise PieceError("bases with crosscap number >= 2 are out of scope")
    r = piece.boundary_count
    if len(family.arcs) != r - 1:
        raise FamilyError(
            f"piece has {r} boundary tori but family has {len(family)} arcs")
    shift = piece.b_eff
    v = v_count(family)

    if piece.is_n2:
        return DetectionResult(SlopeArc.point(VERTICAL), branch="n2")

    if not piece.base_orientable:
        if v == 0:
            exc = (ExceptionalSlope(VERTICAL, Strength.NOT_STRONG,
                                    "vertical point over a non-orientable base"),)
            return DetectionResult(SlopeArc.point(VERTICAL), exc,
                                   branch="nonorientable-point")
        return DetectionResult(SlopeArc.full(), _VERTICAL_IN_FULL, branch="nonorientable-full")

    if piece.is_solid_torus_piece:
        return DetectionResult(SlopeArc.point(solid_torus_meridian(piece)),
                               branch="solid-torus")

    if piece.is_product_piece:
        image = act_arc(product_transport(piece), family.arcs[0])
        return DetectionResult(image, branch="product")

    # General orientable case: n + r >= 3 from here on.
    if v >= 2:
        return DetectionResult(SlopeArc.full(), _VERTICAL_IN_FULL, branch="full")

    if v == 0:
        zetas, etas = _arc_ends(family)
        bound = n_max if n_max is not None else default_n_bound(piece, etas + zetas)
        c_min, c_max = _core_end(piece, zetas, etas, family.strong)
        left, low = _side_reach(piece, c_min, zetas, family.strong, "low", bound)
        right, high = _side_reach(piece, c_max, etas, family.strong, "high", bound)
        if left[0] * right[1] > right[0] * left[1]:
            raise SlopeError("tau interval endpoints out of order")
        lo, hi = _slope_at(left, shift), _slope_at(right, shift)
        # The frontier slopes in tau order, one record when they coincide
        # (both ends are pairs in lowest terms).
        exc = (tuple.__new__(ExceptionalSlope, (lo, *_FRONTIER)),)
        if left != right:
            exc += (tuple.__new__(ExceptionalSlope, (hi, *_FRONTIER)),)
        return tuple.__new__(DetectionResult, (SlopeArc("arc", lo, hi), exc,
                                               "horizontal-interval", low, high))

    # v == 1: the detected set is a closed arc through the vertical slope.
    j0 = next(j for j, arc in enumerate(family.arcs) if arc.contains_vertical())
    if family.arcs[j0].is_full:
        return DetectionResult(SlopeArc.full(), _VERTICAL_IN_FULL, branch="vertical-full")
    # The rays (-oo, a] and [b, +oo) of the arc through the vertical slope:
    # a is its horizontal end, b its horizontal start.
    a, b = family.arcs[j0].end, family.arcs[j0].start
    left = _ray_reach(piece, family, j0, a, "low", n_max) if a and a.q else None
    right = _ray_reach(piece, family, j0, b, "high", n_max) if b.q else None
    if left is None and right is None:
        exc = (ExceptionalSlope(VERTICAL, Strength.NOT_STRONG,
                                "vertical point detected through a vertical constraint"),)
        return DetectionResult(SlopeArc.point(VERTICAL), exc, branch="vertical-arc")
    if left is not None and right is not None and left[0] * right[1] <= right[0] * left[1]:
        return DetectionResult(SlopeArc.full(), _VERTICAL_IN_FULL, branch="vertical-full")
    entries = [ExceptionalSlope(VERTICAL, Strength.NOT_STRONG,
                                "vertical slope inside the detected arc")]
    detected = SlopeArc.arc(VERTICAL if left is None else _slope_at(left, shift),
                            VERTICAL if right is None else _slope_at(right, shift))
    for end in detected.endpoints():
        if not end.is_vertical:
            entries.append(ExceptionalSlope(
                end, Strength.INDETERMINATE,
                "endpoint of an arc through the vertical slope"))
    return DetectionResult(detected, merge_exceptions(entries), branch="vertical-arc")


def detects(piece, slopes, slope, n_max=None):
    """Whether the point family of ``slopes`` detects ``slope``: the answer
    of ``detect_relative(piece, family, n_max).detected.contains(slope)``
    for that family.  ``slopes`` holds one slope per constraint torus, as a
    witness holds its constraint tuple; no arc is built for it unless the
    kernel runs.

    On the horizontal branch the detected set is [c_min - C/N, c_max +
    C'/N] + b_eff, which holds the core, so a slope whose normalized tau
    lies in [c_min, c_max] is detected whatever the certificates are; only
    the slopes past the core, and the other branches, need the kernel."""
    q = slope.q  # the normalized tau is (-p - b_eff q)/q
    if (q and piece.base_orientable and not piece.is_solid_torus_piece
            and not piece.is_product_piece):
        ends = [(-s.p, s.q) for s in slopes if s.q]  # a point's two ends are its slope
        if len(ends) == len(slopes) == piece.boundary_count - 1:
            c_min, c_max = _core_end(piece, ends, ends, _NO_STRONG)
            if c_min * q <= -slope.p - piece.b_eff * q <= c_max * q:
                return True
    family = ConstraintFamily(tuple(map(SlopeArc.point, slopes)))
    return detect_relative(piece, family, n_max=n_max).detected.contains(slope)


# ---------------------------------------------------------------------------
# Realizing a detected slope
# ---------------------------------------------------------------------------


def realize(piece, family, result, target, n_max=None):
    """One slope in each constraint arc such that the point family detects
    ``target``, a slope of ``result.detected``.

    ``result`` is what ``detect_relative`` answered for ``family`` under the
    certificate bound ``n_max`` (on a product piece, which only relays its
    child, ``family`` may be None).  The detected set is the union of the sets
    detected relative to single-slope tuples, and the tuple is read off the
    branch that ``result`` took.
    """
    branch = result.branch
    if branch == "product":
        return (act(product_transport(piece), target),)
    arcs = family.arcs
    # The kernel answers on the horizontal-interval branch only when no
    # arc holds the vertical slope.
    vertical = ([] if branch == "horizontal-interval"
                else [j for j, arc in enumerate(arcs) if arc.contains_vertical()])
    q = target.q
    if not piece.base_orientable:
        # Without a vertical slope the point family detects only the fibre
        # slope; with one, every slope.
        return _vertical_or_simplest(arcs, vertical[:1 if q else 0])
    if not q:
        return _vertical_or_simplest(arcs, vertical[:1])
    if branch == "full":
        return _vertical_or_simplest(arcs, vertical[:2])
    # Horizontal target of normalized tau -u/q; at most one vertical arc.
    # The window is the core of the all-zero point tuple, shifted by the target.
    u = target.p + piece.b_eff * q
    zeros = [(0, 1)] * len(arcs)
    c_min, c_max = _core_end(piece, zeros, zeros, _NO_STRONG)
    low, high = c_min - (-u // q), c_max + u // q
    if not vertical:
        # A vertical-free arc's one tau-interval runs from its start to its end.
        return _floor_tuple([(lo, hi or lo) for _, lo, hi in arcs], low, high)[0]
    # A vertical point holds no horizontal target: it reads as the line.
    pieces = [arc.tau_intervals()[0] or [(VERTICAL, VERTICAL)] for arc in arcs]
    j0 = vertical[0]
    tuples = []
    for ray in pieces[j0]:
        picks, in_core = _floor_tuple(
            [ray if j == j0 else p[0] for j, p in enumerate(pieces)], low, high)
        if in_core:
            return picks
        tuples.append(picks)
    if len(tuples) == 1:
        return tuples[0]
    # Past both cores, so in the refinement zone of the ray (-oo, a] (low,
    # reaching down to ``left``) or of [b, +oo) (high, up to ``right``).
    if result.detected.is_full:
        right = _ray_reach(piece, family, j0, pieces[j0][1][0], "high", n_max)
    else:
        end = result.detected.end
        right = (-end.p - piece.b_eff * end.q, end.q)
    return tuples[1] if -u * right[1] <= right[0] * q else tuples[0]


def _vertical_or_simplest(arcs, chosen):
    """The vertical slope on the arcs in ``chosen`` and on arcs holding no
    other slope; the simplest horizontal slope on the rest."""
    return tuple(VERTICAL if j in chosen or not arc.tau_intervals()[0]
                 else simplest_slope(arc, allow_vertical=False)
                 for j, arc in enumerate(arcs))


def _floor_tuple(intervals, low, high):
    """(slopes, in_core) for one closed tau-interval per constraint, given
    by its end slopes (vertical unbounded).

    A point tuple tau_* puts the normalized target in its core interval
    exactly when sum(floor(tau_j)) >= low and sum(ceil(tau_j)) <= high.
    An interval holding an integer contributes an integer, whose floor and
    ceiling agree; the floors are moved from 0 towards the window.  When the
    window cannot be met the target lies past the core, and the tuple of
    extreme endpoints (upper ones below the core, lower ones above) has the
    same refinement certificate as the family.
    """
    spans, floors, fixed, total = [], [], [], 0
    for lo, hi in intervals:
        a = -(lo.p // lo.q) if lo.q else None  # ceil(tau(lo))
        b = -hi.p // hi.q if hi.q else None  # floor(tau(hi))
        if a is None or b is None or a <= b:
            floor = _clamp(0, a, b)
            fixed.append(None)
        else:  # inside (b, b + 1): floor b, ceiling b + 1
            a = floor = b
            fixed.append(_simplest_in(lo, hi))
            high -= 1
        spans.append((a, b))
        floors.append(floor)
        total += floor
    # Once the sum is in the window no later floor moves.
    if not low <= total <= high:
        for j, (a, b) in enumerate(spans):
            floor = _clamp(floors[j] + (low if total < low else high) - total, a, b)
            total += floor - floors[j]
            floors[j] = floor
            if low <= total <= high:
                break
        if total < low:
            return tuple([hi for _, hi in intervals]), False
        if total > high:
            return tuple([lo for lo, _ in intervals]), False
    return tuple([s or _primitive(-f, 1) for s, f in zip(fixed, floors)]), True


def _clamp(x, lo, hi):
    """x moved into [lo, hi], None unbounded."""
    if lo is not None and x < lo:
        return lo
    if hi is not None and x > hi:
        return hi
    return x
