"""Brute-force cross-checkers for the detection kernel.

grid_union re-derives the core interval by enumerating constraint tuples
over a finite rational grid and minimizing/maximizing the interval ends
straight from their definitions; it must agree exactly with the closed-form
core_interval once the grid is fine enough (the extrema sit at interval
endpoints and just inside integer coordinates, so endpoints, integer points
and integer +- 1/d offsets are always sampled).

_certificates enumerates every (N, A, placement) triple in lexicographic
order and yields those whose non-target values pass the cone and boundary
conditions, tested verbatim and sharing no search logic with the optimized
scan in the kernel.  jn_exhaustive takes the first one whose target value
proves a proposed refined endpoint; jn_exhaustive_extremal the largest target
value C/N over all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil, floor, gcd

from .seifert import (
    FamilyError,
    JNCertificate,
    core_interval,
    tau_stats,
    v_count,
)


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan: rationals of denominator <= ``denominator`` inside each
    constraint interval, always including both endpoints, every integer
    point, and the integer +- 1/denominator offsets.

    The denominator is clamped to >= 2: a denominator-1 grid contains no
    non-integral point at all, so it cannot sample the stratum where strong
    coordinates must avoid the integers."""

    denominator: int = 24

    def __post_init__(self):
        object.__setattr__(self, "denominator", max(2, self.denominator))

    def samples(self, eta, zeta):
        d = self.denominator
        points = {eta, zeta}
        step = Fraction(1, d)
        for k in range(ceil(eta), floor(zeta) + 1):
            points.add(Fraction(k))
            if eta <= k - step <= zeta:
                points.add(k - step)
            if eta <= k + step <= zeta:
                points.add(k + step)
        return sorted(points)


def _intervals(family):
    out = []
    for arc in family.arcs:
        pieces, has_vertical = arc.tau_pieces()
        if has_vertical or len(pieces) != 1:
            raise FamilyError("grid oracle needs finite horizontal constraints")
        out.append(pieces[0])
    return out


def grid_union(piece, family, spec=None):
    """(min m0, max m1) over all sampled tuples with no integral strong
    coordinate; the brute-force counterpart of core_interval."""
    if v_count(family) != 0:
        raise FamilyError("grid oracle needs a vertical-free family")
    if spec is None:
        spec = GridSpec()
    grids = [spec.samples(eta, zeta) for eta, zeta in _intervals(family)]
    lo = None
    hi = None
    for taus in itertools.product(*grids) if grids else [()]:
        if any(Fraction(t).denominator == 1 and j in family.strong
               for j, t in enumerate(taus)):
            continue
        stats = tau_stats(taus, family.strong, piece.n)
        if lo is None or stats.m0 < lo:
            lo = stats.m0
        if hi is None or stats.m1 > hi:
            hi = stats.m1
    if lo is None:
        raise FamilyError("no admissible grid tuple; strong point constraints?")
    return lo, hi


def _condition_slot(endpoint, in_j, side, b_num, n_value):
    """Condition (2) for one constraint endpoint.

    The high side is the low side applied to the fibre-reversed piece, so it
    reads the fractional part of the negated endpoint: frac(-eta) is
    1 - frac(eta) off the integers but 0 on them, which is what makes an
    integral free endpoint kill the refinement on both sides."""
    value = Fraction(b_num, n_value)
    x = Fraction(endpoint if side == "low" else -endpoint)
    f = x - floor(x)
    return (1 - value) < f if in_j else (1 - value) <= f


def _condition_cone(gamma, a_num, n_value, side):
    value = Fraction(a_num, n_value)
    if side == "low":
        return (1 - value) < gamma
    return value > gamma


def _placements(n_value, a_value, slot_count):
    """Every distribution of the multiset {A, N-A, 1, ..., 1} over
    ``slot_count`` labelled slots, in a stable lexicographic order."""
    if slot_count < 2:
        return
    seen = set()
    for pos_a in range(slot_count):
        for pos_b in range(slot_count):
            if pos_b == pos_a:
                continue
            values = [1] * slot_count
            values[pos_a] = a_value
            values[pos_b] = n_value - a_value
            key = tuple(values)
            if key in seen:
                continue
            seen.add(key)
            yield values


def _certificates(piece, family, side, n_max):
    """Every certificate with N <= n_max whose cone and boundary values pass
    their conditions on ``side``, in (N, A, placement) lexicographic order;
    the target takes the value left on the last slot."""
    intervals = _intervals(family)
    endpoints = [z for _, z in intervals] if side == "low" else [e for e, _ in intervals]
    gammas = piece.gammas
    excluded = tuple(j for j, e in enumerate(endpoints)
                     if j in family.strong and Fraction(e).denominator == 1)
    bdry = [j for j in range(len(endpoints)) if j not in excluded]
    checks = ([partial(_condition_cone, gamma, side=side) for gamma in gammas]
              + [partial(_condition_slot, endpoints[j], j in family.strong, side)
                 for j in bdry])
    for n_value in range(2, n_max + 1):
        for a_value in range(1, n_value):
            if gcd(a_value, n_value) != 1:
                continue
            for values in _placements(n_value, a_value, len(checks) + 1):
                if all(check(v, n_value) for check, v in zip(checks, values)):
                    yield JNCertificate(
                        n_value=n_value,
                        a_value=a_value,
                        side=side,
                        cone_numerators=tuple(values[:len(gammas)]),
                        boundary_numerators=tuple(zip(bdry, values[len(gammas):-1])),
                        excluded=excluded,
                        target_numerator=values[-1],
                    )


def jn_exhaustive(piece, family, boundary_target, n_max):
    """First certificate, in (N, A, placement) lexicographic order, proving
    the proposed refined endpoint ``boundary_target``; None when no
    certificate with N <= n_max exists.

    The side is inferred from whether the target sits in (c_min - 1, c_min)
    or (c_max, c_max + 1); targets in neither gap cannot satisfy the
    endpoint equation and yield None.
    """
    target = Fraction(boundary_target)
    c_min, c_max = core_interval(piece, family)
    if c_min - 1 < target < c_min:
        side = "low"
        c_over_n = c_min - target
    elif c_max < target < c_max + 1:
        side = "high"
        c_over_n = target - c_max
    else:
        return None
    return next((cert for cert in _certificates(piece, family, side, n_max)
                 if Fraction(cert.target_numerator, cert.n_value) == c_over_n), None)


def jn_exhaustive_extremal(piece, family, side, n_max):
    """Extremal refined endpoint found by pure enumeration: the minimal eta
    below c_min resp. maximal zeta above c_max over all certificates with
    N <= n_max, or None.  Used to cross-check the optimized scan."""
    c_min, c_max = core_interval(piece, family)
    gap = max((Fraction(cert.target_numerator, cert.n_value)
               for cert in _certificates(piece, family, side, n_max)), default=None)
    if gap is None:
        return None
    return c_min - gap if side == "low" else c_max + gap
