"""Brute-force cross-checkers for the detection kernel.

grid_union re-derives the core interval by enumerating constraint tuples
over a finite rational grid and minimizing/maximizing the interval ends
straight from their definitions; it must agree exactly with the closed-form
core_interval (the extrema sit at interval endpoints and just inside integer
coordinates, so endpoints, integer points and integer + 1/2 offsets are
always sampled).  Each tuple's ends come from _tuple_ends, written here
from the definition, so the check shares no code with the kernel's core.

Each certificate condition becomes an integer threshold built from its
definition, sharing no search logic with the optimized scan in the kernel.
A condition only gets easier as the value grows, so each N has one least
passing value per slot, read from that check's column: a generator over
N = 2..n_max that evaluates the threshold at each N.
jn_exhaustive_extremal needs only the largest target value C/N, so it
builds no certificate and lists no placement: it visits every N up to the
bound, passes over it when more than two slots fail on 1, and otherwise
scans A up from one start for a value coprime to N, a few integer steps
per N and check.  It answers with the gap C/N, and the caller places the
endpoint: the module imports no kernel formula, only FamilyError.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd

from .seifert import FamilyError


def _samples(eta, zeta):
    """Both endpoints of [eta, zeta], every integer k in it, and each
    k + 1/2 in it.  No k - 1/2 is needed: an open (k - 1, k) that the
    interval meets holds an endpoint or lies whole inside it, and then its
    k - 1/2 is (k - 1) + 1/2."""
    points = {eta, zeta}
    half = Fraction(1, 2)
    for k in range(ceil(eta), floor(zeta) + 1):
        points.add(Fraction(k))
        if k + half <= zeta:
            points.add(k + half)
    return sorted(points)


def _finite(family):
    """family.arcs, refused unless each is one finite tau-interval."""
    if any(arc.contains_vertical() for arc in family.arcs):
        raise FamilyError("grid oracle needs finite horizontal constraints")
    return family.arcs


def _intervals(family):
    return [(lo.tau, (hi or lo).tau) for _, lo, hi in _finite(family)]


def _tuple_ends(taus, strong, n_cones):
    """(m0, m1) of one finite tau tuple on the r - 1 constraint tori, from
    the definition: with b0 = -(floor(tau_1) + ... + floor(tau_{r-1})), i0
    the integral strong coordinates and s0 the integral free ones,
    m0 = b0 + i0 - (n + r - 1) and m1 = b0 + s0 - 1."""
    r = len(taus) + 1
    b0 = -sum(floor(t) for t in taus)
    i0 = sum(1 for j, t in enumerate(taus) if t.denominator == 1 and j in strong)
    s0 = sum(1 for j, t in enumerate(taus) if t.denominator == 1 and j not in strong)
    return b0 + i0 - (n_cones + r - 1), b0 + s0 - 1


def grid_union(piece, family):
    """(min m0, max m1) over all sampled tuples with no integral strong
    coordinate; the brute-force counterpart of core_interval.

    Each constraint interval is sampled at _samples; the offsets' step does
    not matter.  _tuple_ends reads only the floor and the integrality of
    each coordinate, and every such class that an interval meets holds an
    endpoint or lies whole inside it: an integer m, which is sampled, or
    the open (m, m + 1), whose m + 1/2 is.  Integers alone would not do:
    a strong coordinate must take a non-integral class."""
    grids = [_samples(eta, zeta) for eta, zeta in _intervals(family)]
    lo = None
    hi = None
    for taus in itertools.product(*grids) if grids else [()]:
        if any(t.denominator == 1 and j in family.strong for j, t in enumerate(taus)):
            continue
        m0, m1 = _tuple_ends(taus, family.strong, piece.n)
        if lo is None or m0 < lo:
            lo = m0
        if hi is None or m1 > hi:
            hi = m1
    if lo is None:
        raise FamilyError("no admissible grid tuple; strong point constraints?")
    return lo, hi


def _thresholds(piece, family, side):
    """The cone and boundary conditions on ``side`` as integer thresholds
    (p, q, strict), the cones first, a value v at N passing by v*q > N*p (or
    >= where not strict).  A boundary slot is a constraint whose endpoint
    on ``side`` is not an integral strong one."""
    low = side == "low"
    # Each check reads value/N > p/q, or >= where not strict.  Cone
    # condition, gamma = (beta mod a)/a: 1 - value/N < gamma on the low side,
    # value/N > gamma on the high side.  Slot condition (2): 1 - value/N <
    # frac(x), or <= off J, x = num/den the upper end: p/q = 1 - frac(x).
    # The high side is the low side applied to the fibre-reversed piece, so
    # x is the negated lower end there: frac(-eta) is 1 - frac(eta) off the
    # integers but 0 on them, which is what makes an integral free endpoint
    # kill the refinement on both sides.
    checks = [(a - beta % a if low else beta % a, a, True) for a, beta in piece.cones]
    for j, (_, lo, hi) in enumerate(_finite(family)):
        end = (hi or lo) if low else lo
        num, den = -end.p if low else end.p, end.q
        if den > 1 or j not in family.strong:
            checks.append((den - num % den, den, j in family.strong))
    return checks


def _least_column(p, q, strict, n_max):
    """One check's least passing value at each N = 2..n_max, from its
    definition: the least v with v*q > N*p (or >= where not strict).  Every
    value is at least 1, so a least value below 1 counts as 1."""
    for n_value in range(2, n_max + 1):
        least = n_value * p // q + 1 if strict else -(-n_value * p // q)
        yield least if least > 1 else 1


def jn_exhaustive_extremal(piece, family, side, n_max):
    """The largest gap (C, N), in lowest terms, past the core on ``side``
    over all certificates with N <= n_max, found by pure enumeration, or
    None: the refined endpoint c_min - C/N resp. c_max + C/N.  Used to
    cross-check the optimized scan.

    Every N is visited, with every check's least passing value read from
    its column.  A placement puts A on slot pos_a, N - A on pos_b and 1
    elsewhere, so the slots that fail on 1 must be among pos_a and pos_b.
    With the target on pos_b, the best C is N minus the least A coprime to
    N from the failing slot's least value (or 1) up; the scan ends by
    N - 1, which is coprime to N.  A target on pos_a is the mirrored
    placement.  With the target holding 1, C = 1, and since every C/N found
    earlier is at least 1/N, such a placement counts only while nothing
    beats 1/N: it needs two failing slots (fewer is already the first
    case) and an A coprime to N between the one's least value and N minus
    the other's."""
    checks = _thresholds(piece, family, side)
    best_c, best_n = 0, 1
    # One generator per check, made in a function so that each binds its
    # own (p, q, strict).
    columns = [_least_column(p, q, strict, n_max) for p, q, strict in checks]
    for n_value, least in zip(range(2, n_max + 1), zip(*columns)):
        failing = len(least) - least.count(1)
        if failing < 2:
            a_value = max(least)
            # C is at most N - a_value: scan for A only if that beats best.
            if a_value < n_value and (n_value - a_value) * best_n > best_c * n_value:
                while gcd(a_value, n_value) != 1:
                    a_value += 1
                if (n_value - a_value) * best_n > best_c * n_value:
                    best_c, best_n = n_value - a_value, n_value
        elif failing == 2 and best_n > best_c * n_value:
            low, high = sorted(least)[-2:]
            if any(gcd(a, n_value) == 1 for a in range(low, n_value - high + 1)):
                best_c, best_n = 1, n_value
    return (best_c, best_n) if best_c else None
