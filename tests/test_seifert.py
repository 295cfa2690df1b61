"""The relative detection kernel: the core interval, the certificate
search, and the full case analysis.

The certificate scan ``_scan_certificates`` is locked against a stored digest
of what the loop over every N, ``_linear_scan``, answers on 40,000 seeded
draws, hashed in blocks of 1,000 draws in ``tests/golden/scan_digest.txt``;
every 10th draw is also compared with the loop directly.  A deliberate
change to the scan's answers rewrites the file in the same change:

    PYTHONPATH=src:tests python tests/test_seifert.py > tests/golden/scan_digest.txt
"""

import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tautfol import (
    ConstraintFamily,
    FamilyError,
    PieceError,
    SeifertPiece,
    SlopeArc,
    Slope,
    Strength,
    VERTICAL,
    core_interval,
    detect_relative,
    detects,
    jn_refine_high,
    jn_refine_low,
    realize,
    simplest_slope,
    slope_of_tau,
    v_count,
)
from tautfol.oracle import grid_union, jn_exhaustive_extremal
from tautfol.seifert import (
    _floor_tuple,
    _scan_certificates,
    default_n_bound,
    solid_torus_meridian,
)
from conftest import (
    rand_cones,
    rand_family,
    rand_fraction,
    rand_horizontal_piece_and_family,
    rand_orientable_piece,
    rand_vertical_piece_and_family,
)
from helpers import assert_multiset_distributed

F = Fraction
SCAN_DIGEST = Path(__file__).resolve().parent / "golden" / "scan_digest.txt"
SCAN_DRAWS = 40000
SCAN_BLOCK = 1000
LIVE_EVERY = 10


def _piece(cones, b=0, r=1, orientable=True, crosscaps=0):
    return SeifertPiece(base_orientable=orientable, cones=tuple(cones), b=b,
                        boundary_count=r, crosscaps=crosscaps)


def _point_family(*taus, strong=()):
    return ConstraintFamily(tuple(SlopeArc.point(slope_of_tau(t)) for t in taus),
                            frozenset(strong))


def _interval_family(*pairs, strong=()):
    return ConstraintFamily(
        tuple(SlopeArc.from_tau_interval(lo, hi) for lo, hi in pairs),
        frozenset(strong))


# ---------------------------------------------------------------------------
# v_count
# ---------------------------------------------------------------------------


def test_v_count():
    fam = _point_family(F(1, 2), F(3))
    assert v_count(fam) == 0
    fam2 = ConstraintFamily((SlopeArc.full(), SlopeArc.point(slope_of_tau(0))))
    assert v_count(fam2) == 1
    fam3 = ConstraintFamily((
        SlopeArc.full(),
        SlopeArc.arc(slope_of_tau(1), slope_of_tau(-1)),  # through vertical
        SlopeArc.from_tau_interval(0, 1),
    ))
    assert v_count(fam3) == sum(a.contains_vertical() for a in fam3.arcs) == 2


# ---------------------------------------------------------------------------
# Core interval
# ---------------------------------------------------------------------------


def test_core_interval_no_constraints():
    assert core_interval(_piece([(2, 1), (2, 1)]), ConstraintFamily(())) == (-2, -1)


def test_core_interval_point_constraint():
    piece = _piece([(2, 1)], r=2)
    assert core_interval(piece, _point_family(F(1, 2))) == (-2, -1)


def test_core_interval_strong_integer_endpoint():
    piece = _piece([(2, 1)], r=2)
    fam = _interval_family((0, 1), strong=(0,))
    # zeta = 1 is integral on the strong side, so i_1 = 1.
    assert core_interval(piece, fam) == (1 - 1 - 2, 0 - 1 - 0) == (-2, -1)


def test_core_interval_preconditions():
    with pytest.raises(PieceError):
        core_interval(_piece([(2, 1)]), ConstraintFamily(()))  # n + r = 2
    piece = _piece([(2, 1), (3, 1)], r=2)
    vertical_fam = ConstraintFamily((SlopeArc.full(),))
    with pytest.raises(FamilyError):
        core_interval(piece, vertical_fam)
    klein = _piece([(2, 1)], r=2, orientable=False, crosscaps=1)
    with pytest.raises(PieceError, match="^core interval is defined over orientable bases$"):
        core_interval(klein, _point_family(F(1, 2)))
    with pytest.raises(FamilyError, match="^family size must be boundary count minus one$"):
        core_interval(_piece([(2, 1)], r=3), _point_family(F(1, 2)))


def test_core_interval_matches_grid_oracle(rng):
    for _ in range(150):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=8)
        assert core_interval(piece, fam) == grid_union(piece, fam)


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------


def test_refinements_absent_for_two_half_cones():
    piece = _piece([(2, 1), (2, 1)])
    fam = ConstraintFamily(())
    assert jn_refine_low(piece, fam) is None
    assert jn_refine_high(piece, fam) is None


def test_refinements_absent_for_half_third():
    piece = _piece([(2, 1), (3, 1)])
    assert jn_refine_low(piece, ConstraintFamily(())) is None


def test_high_refinement_values():
    # gamma = (1/2, 1/3): the smallest window N = 5 gives C/N = 1/5.
    piece = _piece([(2, 1), (3, 1)])
    got = jn_refine_high(piece, ConstraintFamily(()))
    assert got is not None and got[0] == F(-4, 5)
    # gamma = (1/2, 2/3): mirrored situation on the low side.
    piece2 = _piece([(2, 1), (3, 2)])
    low = jn_refine_low(piece2, ConstraintFamily(()))
    assert low is not None and low[0] == F(-11, 5)
    assert jn_refine_high(piece2, ConstraintFamily(())) is None


def test_refinement_killed_by_integral_free_endpoint():
    piece = _piece([(2, 1)], r=2)
    fam = _interval_family((F(1, 2), 2))   # zeta = 2 integral, free side
    assert jn_refine_low(piece, fam) is None
    fam2 = _interval_family((1, F(5, 2)))  # eta = 1 integral, free side
    assert jn_refine_high(piece, fam2) is None


def test_certificates_revalidate(rng):
    seen = 0
    for _ in range(200):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=4, n_max=3,
                                                      a_max=4)
        for refine in (jn_refine_low, jn_refine_high):
            got = refine(piece, fam, n_max=12)
            if got is None:
                continue
            endpoint, cert = got
            assert_multiset_distributed(cert)
            # The brute force over every N up to the certificate's finds
            # the same extremal endpoint.
            assert jn_exhaustive_extremal(piece, fam, cert.side, cert.n_value) == endpoint
            c_min, c_max = core_interval(piece, fam)
            if cert.side == "low":
                assert c_min - 1 < endpoint < c_min
            else:
                assert c_max < endpoint < c_max + 1
            seen += 1
    assert seen > 10


def _best_c_over_n(slots, n_max):
    """(largest C/N, least N reaching it) over N <= n_max, A coprime to N
    and the target's value C taken from {A, N - A, 1, ..., 1} (one value
    per slot and the target), such that the other values fit the slots;
    None if nothing fits."""
    fits = [(t, strict) for _, t, strict in slots]
    fits.sort(key=lambda ts: (-ts[0], not ts[1]))
    best = None
    for n in range(2, n_max + 1):
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            values = [a, n - a] + [1] * (len(slots) - 1)
            for k in range(len(values)):
                rest = sorted(values[:k] + values[k + 1:], reverse=True)
                if all(F(v, n) > t if strict else F(v, n) >= t
                       for v, (t, strict) in zip(rest, fits)):
                    c = F(values[k], n)
                    if best is None or c > best[0]:
                        best = (c, n)
    return best


def test_certificate_scan_finds_the_optimum(rng):
    # Thresholds summing to 1 or more make the 1/N case impossible, where
    # the scan stops early; they are drawn often.
    for _ in range(300):
        slots = [(i, F(rng.randint(0, 7), rng.choice([2, 3, 5, 8])), rng.random() < 0.5)
                 for i in range(rng.randint(1, 4))]
        if len(slots) >= 2 and rng.random() < 0.4:
            slots[1] = (1, 1 - slots[0][1], slots[1][2])
        n_max = rng.randint(2, 24)
        found = _fraction_scan(slots, n_max)
        assert (found[:2] if found else None) == _best_c_over_n(slots, n_max), (slots, n_max)
    # Non-strict thresholds summing to exactly 1: only {5, 3} at N = 8 fits.
    slots = [(0, F(5, 8), False), (1, F(3, 8), False)]
    assert _fraction_scan(slots, 14)[:2] == _best_c_over_n(slots, 14) == (F(1, 8), 8)


def _pair_slots(slots):
    """Slots with Fraction thresholds as the kernel's (num, den) slots."""
    return [(tag, (t.numerator, t.denominator), strict) for tag, t, strict in slots]


def _fraction_scan(slots, n_max):
    """_scan_certificates on slots with Fraction thresholds, answering C/N
    as a Fraction."""
    found = _scan_certificates(_pair_slots(slots), n_max)
    return found and (F(*found[0]), *found[1:])


def _linear_scan_on_pairs(slots, n_max):
    """_linear_scan on the kernel's (num, den) slots, answering C/N as a
    (C, N) pair: a stand-in for _scan_certificates."""
    found = _linear_scan([(tag, F(*t), strict) for tag, t, strict in slots], n_max)
    return found and ((found[0].numerator, found[0].denominator), *found[1:])


def _linear_scan(slots, n_max):
    """The certificate scan as a loop over every N <= n_max, with the same
    per-N rule: the reference for _scan_certificates' closed form.  It
    searches each N's pair window for A and replays the greedy placement
    on its own (_first_a_pair_fits, _greedy_assignment), so it calls
    nothing of the scan it checks.  (The loop built the assignment at
    every improvement; it is built once here, for the optimum, with the
    same result.)"""
    if not slots:
        return None
    order = sorted(range(len(slots)), key=lambda i: (-slots[i][1], not slots[i][2]))
    thresholds = [(slots[i][1], slots[i][2]) for i in order]

    def one_cutoff(threshold, strict):
        tn, td = threshold.numerator, threshold.denominator
        if tn <= 0:
            return n_max
        return (td - 1) // tn if strict else td // tn

    cut_all = min((one_cutoff(t, s) for t, s in thresholds), default=n_max)
    cut1 = min((one_cutoff(t, s) for t, s in thresholds[1:]), default=n_max)
    cut2 = min((one_cutoff(t, s) for t, s in thresholds[2:]), default=n_max)
    t0, strict0 = thresholds[0]
    t0n, t0d = t0.numerator, t0.denominator
    pair = None
    if len(thresholds) >= 2:
        t1, strict1 = thresholds[1]
        if t0 + t1 < 1 or (t0 + t1 == 1 and not (strict0 or strict1)):
            pair = (t0n, t0d, strict0, t1.numerator, t1.denominator, strict1)
    n_stop = min(n_max, max(cut1, cut2) if pair else cut1)
    best = None
    best_c, best_n = 0, 1
    for n_value in range(2, n_stop + 1):
        if best_c * n_value >= (n_value - 1) * best_n:
            continue
        candidates = []
        if n_value <= cut_all:
            candidates.append((n_value - 1, n_value - 1, 0))
            candidates.append((n_value - 1, 1, 1))
        elif n_value <= cut1:
            spare = n_value * (t0d - t0n)
            a_cap = (spare - 1) // t0d if strict0 else spare // t0d
            a = next((a for a in range(min(a_cap, n_value - 1), 0, -1)
                      if math.gcd(a, n_value) == 1), None)
            if a is not None:
                candidates.append((a, a, 0))
            need = n_value * t0n
            a_floor = need // t0d + 1 if strict0 else -((-need) // t0d)
            a = next((a for a in range(max(a_floor, 1), n_value)
                      if math.gcd(a, n_value) == 1), None)
            if a is not None:
                candidates.append((n_value - a, a, 1))
        if pair and n_value <= cut2 and best_c * n_value < best_n:
            a = _first_a_pair_fits(n_value, pair)
            if a is not None:
                candidates.append((1, a, 2))
        if not candidates:
            continue
        c_num, a_val, case = max(candidates, key=lambda t: (t[0], -t[1], -t[2]))
        if c_num * best_n > best_c * n_value:
            best = (c_num, n_value, a_val, case)
            best_c, best_n = c_num, n_value
    if best is None:
        return None
    c_num, n_value, a_val, case = best
    return (F(c_num, n_value), n_value, a_val,
            _greedy_assignment(slots, order, n_value, a_val, case), c_num)


def _first_a_pair_fits(n_value, pair):
    """Smallest A such that {A, N-A} sorted descending satisfies the two
    hardest slots, by a loop over big = max(A, N-A) in the window the two
    thresholds leave.  ``pair`` is (numerator, denominator, strict) of the
    hardest threshold followed by the same three of the second hardest."""
    t0n, t0d, s0, t1n, t1d, s1 = pair
    # big > t0*N (or >=):
    need = n_value * t0n
    lo = need // t0d + 1 if s0 else -((-need) // t0d)
    # N - big > t1*N  <=>  big < N(1 - t1) (or <=):
    spare = n_value * (t1d - t1n)
    hi = (spare - 1) // t1d if s1 else spare // t1d
    lo = max(lo, (n_value + 1) // 2)
    hi = min(hi, n_value - 1)
    for big in range(hi, lo - 1, -1):
        if math.gcd(big, n_value) == 1:
            return n_value - big
    return None


def _greedy_assignment(slots, order, n_value, a_val, case):
    """The greedy placement for the winning (N, A, case): each slot, hardest
    first, takes the first of the values left, largest first, that fits."""
    if case == 0:  # target took A
        values = [n_value - a_val] + [1] * (len(slots) - 1)
    elif case == 1:  # target took N - A
        values = [a_val] + [1] * (len(slots) - 1)
    else:  # target took 1
        big, small = max(a_val, n_value - a_val), min(a_val, n_value - a_val)
        values = [big, small] + [1] * (len(slots) - 2)
    assign = {}
    remaining = sorted(values, reverse=True)
    for idx in order:
        tag, threshold, strict = slots[idx]
        placed = next((k for k, v in enumerate(remaining)
                       if (F(v, n_value) > threshold if strict else F(v, n_value) >= threshold)),
                      None)
        assert placed is not None, (slots, n_value, a_val, case)
        assign[tag] = remaining.pop(placed)
    return assign


def _placement(slots, n):
    """Which values can fit at N: 1/N fits every slot ("all"), every slot
    but the hardest ("hardest"), or fewer ("pair": only the target's 1/N)."""
    fits = sorted(((t, s) for _, t, s in slots), key=lambda ts: (-ts[0], not ts[1]))
    ok = [F(1, n) > t if s else F(1, n) >= t for t, s in fits]
    return "all" if all(ok) else "hardest" if all(ok[1:]) else "pair"


def _scan_answers(scan):
    """(slots, n_max, answer of ``scan``) for each seeded draw, in order."""
    rng = random.Random(0x5EED)  # the seed of the rng fixture
    dens = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 17, 30, 97]
    for _ in range(SCAN_DRAWS):
        slots = []
        for i in range(rng.randint(1, 5)):
            d = rng.choice(dens)
            num = rng.choice([0, 1, 1, 1, 1, 1, rng.randint(1, d - 1), rng.randint(1, d - 1)])
            slots.append((i, F(num, d), rng.random() < 0.5))
        if len(slots) >= 2 and rng.random() < 0.3:
            # Two hard slots, t0 >= 1/2 and t1 just under 1 - t0, and easy
            # others: often only the target's 1/N copy is left.
            d = rng.choice(dens)
            t0 = F(rng.randint(d, 2 * d - 1), 2 * d)
            hard = [t0, (1 - t0) * F(rng.randint(2 * d, 3 * d), 3 * d)]
            slots = [(i, hard[i] if i < 2 else F(1, rng.choice([30, 97])), strict)
                     for i, (_, _, strict) in enumerate(slots)]
        elif len(slots) >= 2 and rng.random() < 0.3:
            # Two thresholds summing to exactly 1, or to more than 1.
            j = rng.randrange(1, len(slots))
            excess = F(rng.randint(1, 3), rng.choice(dens)) if rng.random() < 0.5 else 0
            slots[j] = (j, 1 - slots[0][1] + excess, slots[j][2])
        n_max = rng.randint(0, rng.choice([12, 60, 300]))
        yield slots, n_max, scan(slots, n_max)


def scan_digest_lines(answers):
    """One line per block of draws: first draw, count, sha256 of the answers
    (the assignment sorted by slot)."""
    blocks = {}
    for k, (_, _, found) in enumerate(answers):
        if found is not None:
            found = (*found[:3], sorted(found[3].items()), found[4])
        blocks.setdefault(k - k % SCAN_BLOCK, hashlib.sha256()).update(f"{found!r}\n".encode())
    return [f"{start} {SCAN_BLOCK} {h.hexdigest()}" for start, h in blocks.items()]


def test_certificate_scan_matches_the_linear_scan():
    answers = list(_scan_answers(_fraction_scan))
    wins = {"all": 0, "hardest": 0, "pair": 0, None: 0}
    for k, (slots, n_max, found) in enumerate(answers):
        if k % LIVE_EVERY == 0:
            assert found == _linear_scan(slots, n_max), (slots, n_max)
        wins[found and _placement(slots, found[1])] += 1
    assert min(wins.values()) > 1000, wins
    expected = SCAN_DIGEST.read_text(encoding="utf-8").splitlines()
    got = scan_digest_lines(answers)
    assert len(got) == len(expected)
    assert [a for a, b in zip(got, expected) if a != b] == []


def test_certificate_scan_at_large_bounds():
    # The optimum sits at the bound: (k-2)/2 over k-1 for even k, so
    # 499999/999999 at k = 10^6.
    for k in (10**6, 10**40):
        slots = [(0, F(1, 2), True), (1, F(1, k), True)]
        c_over_n, n_value, a_val, assign, c_num = _fraction_scan(slots, k)
        assert (c_over_n, n_value, c_num) == (F((k - 2) // 2, k - 1), k - 1, (k - 2) // 2)
        assert assign == {0: k // 2, 1: 1} and a_val == (k - 2) // 2
    # The slowest scan of a census member: found at N = 3 under a bound of
    # 822,871,550.
    slots = [(("cone", 0), F(3, 5), True), (("bdry", 0), F(24636223, 82287155), False)]
    assert _fraction_scan(slots, 822871550)[:3] == (F(1, 3), 3, 1)


# ---------------------------------------------------------------------------
# detect_relative: the case analysis
# ---------------------------------------------------------------------------


def test_q_base_point():
    piece = _piece([], r=2, orientable=False, crosscaps=1)
    fam = _point_family(F(1, 2))
    res = detect_relative(piece, fam)
    assert res.detected == SlopeArc.point(VERTICAL)
    assert res.strong_status(VERTICAL) == Strength.NOT_STRONG


def test_q_base_full():
    piece = _piece([(3, 1)], r=2, orientable=False, crosscaps=1)
    fam = ConstraintFamily((SlopeArc.full(),))
    res = detect_relative(piece, fam)
    assert res.detected.is_full
    assert res.strong_status(VERTICAL) == Strength.NOT_STRONG
    assert res.strong_status(Slope(5, 7)) == Strength.STRONG


def test_n2_point():
    piece = _piece([], r=1, orientable=False, crosscaps=1)
    assert piece.is_n2
    res = detect_relative(piece, ConstraintFamily(()))
    assert res.detected == SlopeArc.point(VERTICAL)
    assert res.strong_status(VERTICAL) == Strength.STRONG


def test_crosscaps_two_rejected():
    piece = _piece([], r=1, orientable=False, crosscaps=2)
    with pytest.raises(PieceError):
        detect_relative(piece, ConstraintFamily(()))


@pytest.mark.parametrize("fields, message", [
    (dict(cones=((F(5, 2), 1),)), "cones[0][0] must be an integer, got Fraction(5, 2)"),
    (dict(cones=((2, 1), (3, 1.9))), "cones[1][1] must be an integer, got 1.9"),
    (dict(cones=((True, 1),)), "cones[0][0] must be an integer, got True"),
    (dict(b=F(1, 2)), "b must be an integer, got Fraction(1, 2)"),
    (dict(b=0.5), "b must be an integer, got 0.5"),
    (dict(b=False), "b must be an integer, got False"),
    (dict(boundary_count=1.0), "boundary_count must be an integer, got 1.0"),
    (dict(boundary_count=True), "boundary_count must be an integer, got True"),
    (dict(base_orientable=False, crosscaps=1.0), "crosscaps must be an integer, got 1.0"),
    (dict(base_orientable=False, crosscaps=True), "crosscaps must be an integer, got True"),
    (dict(cones=((2,),)), "cones[0] must be a pair (a, beta), got (2,)"),
    (dict(cones=((3, 1), (2, 1, 5))), "cones[1] must be a pair (a, beta), got (2, 1, 5)"),
    (dict(cones=(2,)), "cones[0] must be a pair (a, beta), got 2"),
    (dict(cones=5), "cones must be a sequence of pairs, got 5"),
    (dict(base_orientable="no"), "base_orientable must be a boolean, got 'no'"),
    (dict(base_orientable=1), "base_orientable must be a boolean, got 1"),
], ids=["cone-fraction", "cone-float", "cone-bool", "b-fraction", "b-float", "b-bool",
        "boundary-float", "boundary-bool", "crosscaps-float", "crosscaps-bool",
        "cone-single", "cone-triple", "cone-bare", "cones-int", "base-str", "base-int"])
def test_piece_refuses_non_integer_fields(fields, message):
    # Coercing these would build a different manifold with no error, and
    # unpacking a malformed cone would fail without naming the field.
    with pytest.raises(PieceError) as excinfo:
        SeifertPiece(**{"base_orientable": True, "cones": (), **fields})
    assert str(excinfo.value) == message



@pytest.mark.parametrize("fields, message", [
    (dict(boundary_count=0), "a piece needs at least one boundary torus"),
    (dict(base_orientable=False, crosscaps=0), "non-orientable base needs crosscap number >= 1"),
    (dict(base_orientable=False, crosscaps=-1), "non-orientable base needs crosscap number >= 1"),
], ids=["boundary-0", "nonorientable-crosscaps-0", "nonorientable-crosscaps-negative"])
def test_piece_refusal_messages(fields, message):
    with pytest.raises(PieceError) as excinfo:
        SeifertPiece(**{"base_orientable": True, "cones": (), **fields})
    assert str(excinfo.value) == message


def _piece_grid():
    """(orientable, crosscaps, boundary, cones) for every small integer field
    value around the limits, with no cone or one: 2,848 field tuples."""
    cone_choices = [()] + [((a, beta),) for a in range(-1, 7) for beta in range(-3, 8)]
    for orientable in (True, False):
        for crosscaps in range(-1, 3):
            for boundary in range(-1, 3):
                for cones in cone_choices:
                    yield orientable, crosscaps, boundary, cones


def test_piece_accepts_exactly_the_documented_pieces():
    """SeifertPiece accepts a piece exactly when README's rules hold: at least
    one boundary torus, no crosscaps over an orientable base and at least one
    over a non-orientable base, and every cone (a, beta) with a >= 2 and
    gcd(a, beta) = 1.  Checked on every small integer field value around the
    limits, with no cone or one; an accepted piece's shape predicates are
    checked against their definitions."""
    for orientable, crosscaps, boundary, cones in _piece_grid():
        rules = (boundary >= 1
                 and (crosscaps == 0 if orientable else crosscaps >= 1)
                 and all(a >= 2 and math.gcd(a, beta) == 1 for a, beta in cones))
        try:
            piece = SeifertPiece(orientable, cones, 0, boundary, crosscaps)
        except PieceError:
            assert not rules, (orientable, crosscaps, boundary, cones)
            continue
        assert rules, (orientable, crosscaps, boundary, cones)
        n = len(cones)
        assert (piece.n, piece.is_n2, piece.is_solid_torus_piece,
                piece.is_product_piece, piece.is_cable_space) == (
            n, not orientable and crosscaps == 1 and n == 0 and boundary == 1,
            orientable and boundary == 1 and n <= 1,
            orientable and boundary == 2 and n == 0,
            orientable and boundary == 2 and n == 1)


def test_horizontal_sum_is_b_eff_less_the_gammas_and_read_only():
    """On every accepted piece of the grid, horizontal_sum is the Fraction
    b_eff - sum(gamma_i), read off the raw cones (gamma_i = beta_i mod a_i
    over a_i, b_eff = b - sum(floor(beta_i / a_i))), and assigning or
    deleting it raises and leaves it unchanged."""
    checked = 0
    for orientable, crosscaps, boundary, cones in _piece_grid():
        for b in (-2, 0, 3):
            try:
                piece = SeifertPiece(orientable, cones, b, boundary, crosscaps)
            except PieceError:
                continue
            b_eff = b - sum(beta // a for a, beta in cones)
            want = b_eff - sum(Fraction(beta % a, a) for a, beta in cones)
            assert piece.b_eff == b_eff
            assert type(piece.horizontal_sum) is Fraction and piece.horizontal_sum == want
            with pytest.raises(AttributeError):
                piece.horizontal_sum = want + 1
            with pytest.raises(AttributeError):
                del piece.horizontal_sum
            assert piece.horizontal_sum == want
            checked += 1
    assert checked > 500  # 198 accepted pieces, three b each


def test_solid_torus_meridian():
    piece = _piece([(3, 2)], b=1, r=1)
    res = detect_relative(piece, ConstraintFamily(()))
    # tau of the meridian is b - gamma = 1 - 2/3 = 1/3.
    assert res.detected == SlopeArc.point(slope_of_tau(F(1, 3)))
    assert res.strong_status(res.detected.start) == Strength.STRONG
    plain = _piece([], r=1)
    assert detect_relative(plain, ConstraintFamily(())).detected == \
        SlopeArc.point(slope_of_tau(0))
    for other in (_piece([(2, 1), (3, 1)]), _piece([(2, 1)], r=2)):
        with pytest.raises(PieceError, match="^piece is not a solid torus$"):
            solid_torus_meridian(other)


def test_horizontal_completion_sums_the_taus_to_b_eff_minus_the_gammas(rng):
    """The completed tau and the given ones sum to b_eff - sum(gamma_i),
    read off the raw cones; with no slopes it is the solid torus meridian."""
    for _ in range(300):
        cones = [(a, rng.choice([x for x in range(-2 * a, 2 * a) if math.gcd(a, x) == 1]))
                 for a in (rng.randint(2, 7) for _ in range(rng.randint(0, 3)))]
        piece = _piece(cones, b=rng.randint(-3, 3), r=rng.randint(1, 4))
        target = piece.b - sum(Fraction(beta, a) for a, beta in cones)
        others = [slope_of_tau(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                  for _ in range(piece.boundary_count - 1)]
        completion = piece.horizontal_completion(others)
        assert completion.tau + sum(s.tau for s in others) == target
    meridian = _piece([(3, 2)], b=1).horizontal_completion(())
    assert meridian == slope_of_tau(Fraction(1, 3))


def test_product_piece_transport():
    piece = _piece([], b=0, r=2)
    arc = SlopeArc.from_tau_interval(F(1, 3), F(5, 2))
    res = detect_relative(piece, ConstraintFamily((arc,)))
    # tau -> -tau: the image runs from -5/2 to -1/3.
    assert res.detected == SlopeArc.from_tau_interval(F(-5, 2), F(-1, 3))
    shifted = _piece([], b=2, r=2)
    res2 = detect_relative(shifted, ConstraintFamily((arc,)))
    assert res2.detected == SlopeArc.from_tau_interval(F(-1, 2), F(5, 3))


def test_horizontal_interval_plain():
    piece = _piece([(2, 1), (2, 1)])
    res = detect_relative(piece, ConstraintFamily(()))
    assert res.detected == SlopeArc.from_tau_interval(-2, -1)
    assert res.branch == "horizontal-interval"
    assert res.strong_status(slope_of_tau(-2)) == Strength.NOT_STRONG
    assert res.strong_status(slope_of_tau(-1)) == Strength.NOT_STRONG
    assert res.strong_status(slope_of_tau(F(-3, 2))) == Strength.STRONG
    assert res.strong_status(slope_of_tau(F(-5, 4))) == Strength.STRONG
    with pytest.raises(ValueError):
        res.strong_status(slope_of_tau(17))


def test_horizontal_interval_with_refinement_and_shift():
    piece = _piece([(2, 1), (3, 1)], b=3)
    res = detect_relative(piece, ConstraintFamily(()))
    assert res.detected == SlopeArc.from_tau_interval(-2 + 3, F(-4, 5) + 3)
    assert res.high_certificate is not None
    assert res.low_certificate is None


def test_full_when_two_vertical_constraints():
    piece = _piece([(2, 1)], r=3)
    fam = ConstraintFamily((SlopeArc.full(),
                            SlopeArc.arc(slope_of_tau(1), VERTICAL)))
    res = detect_relative(piece, fam)
    assert res.detected.is_full
    assert res.strong_status(VERTICAL) == Strength.NOT_STRONG


def test_vertical_arc_proper():
    piece = _piece([(2, 1), (2, 1)], r=2)
    fam = ConstraintFamily((SlopeArc.arc(slope_of_tau(5), slope_of_tau(-5)),))
    res = detect_relative(piece, fam)
    # Rays: [2, +oo) from the a = -5 side and (-oo, -5] from the b = 5 side.
    assert res.detected == SlopeArc.arc(slope_of_tau(2), slope_of_tau(-5))
    assert res.detected.contains(VERTICAL)
    assert res.strong_status(VERTICAL) == Strength.NOT_STRONG
    assert res.strong_status(slope_of_tau(2)) == Strength.INDETERMINATE
    assert res.strong_status(slope_of_tau(-5)) == Strength.INDETERMINATE
    assert res.strong_status(slope_of_tau(10)) == Strength.STRONG


def test_vertical_point_constraint():
    piece = _piece([(2, 1), (2, 1)], r=2)
    fam = ConstraintFamily((SlopeArc.point(VERTICAL),))
    res = detect_relative(piece, fam)
    assert res.detected == SlopeArc.point(VERTICAL)


def test_vertical_one_ray():
    piece = _piece([(2, 1), (2, 1)], r=2)
    fam = ConstraintFamily((SlopeArc.arc(slope_of_tau(5), VERTICAL),))
    res = detect_relative(piece, fam)
    # Only the b = 5 ray: detected is {vertical} u (-oo, c_max'].
    assert res.detected.start == VERTICAL
    assert not res.detected.is_full
    fam2 = ConstraintFamily((SlopeArc.arc(VERTICAL, slope_of_tau(-5)),))
    res2 = detect_relative(piece, fam2)
    assert res2.detected.end == VERTICAL


def test_strong_constraints_must_avoid_vertical():
    with pytest.raises(FamilyError):
        ConstraintFamily((SlopeArc.full(),), frozenset({0}))
    with pytest.raises(FamilyError):
        ConstraintFamily((SlopeArc.point(slope_of_tau(1)),), frozenset({0}))



@pytest.mark.parametrize("index, message", [
    (0.5, "strong index 0.5 is not an integer"),
    (1.0, "strong index 1.0 is not an integer"),
    (True, "strong index True is not an integer"),
    ("0", "strong index '0' is not an integer"),
    (2, "strong index 2 out of range"),
], ids=["half", "float-one", "bool", "string", "out-of-range"])
def test_strong_index_must_be_an_arc_index(index, message):
    # A float equal to an index, or True, would otherwise stand for it, and
    # 0.5 would be ignored.
    arcs = (SlopeArc.from_tau_interval(F(1, 3), F(1, 2)),
            SlopeArc.from_tau_interval(F(1, 5), F(1, 4)))
    with pytest.raises(FamilyError) as excinfo:
        ConstraintFamily(arcs, {index})
    assert str(excinfo.value) == message
    assert ConstraintFamily(arcs, {1}).strong == {1}


def test_a_family_refuses_an_empty_arc_also_when_replaced():
    """_replace builds through the constructor, so its checks run too."""
    arc = SlopeArc.from_tau_interval(F(1, 3), F(1, 2))
    with pytest.raises(FamilyError, match="^constraint 1 is empty$"):
        ConstraintFamily((arc, SlopeArc.empty()))
    fam = ConstraintFamily((arc,))
    with pytest.raises(FamilyError, match="^constraint 0 is empty$"):
        fam._replace(arcs=(SlopeArc.empty(),))
    with pytest.raises(FamilyError, match="^strong index 1 out of range$"):
        fam._replace(strong={1})
    assert fam._replace(strong={0}) == ConstraintFamily((arc,), {0})


def test_family_size_checked():
    piece = _piece([(2, 1)], r=3)
    with pytest.raises(FamilyError):
        detect_relative(piece, ConstraintFamily(()))


def test_detected_contains_core_always(rng):
    for _ in range(80):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
        res = detect_relative(piece, fam)
        c_min, c_max = core_interval(piece, fam)
        shift = piece.b_eff
        for t in (c_min, c_max, F(2 * c_min + 1, 2) if c_min + 1 == c_max else c_min):
            assert res.detected.contains(slope_of_tau(t + shift))
        lo_end, hi_end = res.detected.endpoints()
        assert c_min - 1 < lo_end.tau - shift <= c_min
        assert c_max <= hi_end.tau - shift < c_max + 1


def _membership_draw(rng, kind):
    """A piece and a point family with no strong index, as witness
    extraction asks, for the membership test: one slope, an end or the
    simplest, from each arc of a vertical-free family (kinds 0 and 1), of
    a family through the vertical slope (kind 2), or of any branch's family
    (kind 3)."""
    if kind == 0:
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
    elif kind == 1:
        piece, fam = rand_horizontal_piece_and_family(rng)
    elif kind == 2:
        piece, fam = rand_vertical_piece_and_family(rng, den_max=6)
    else:
        r = rng.randint(1, 4)
        orientable = rng.random() < 0.8
        piece = _piece(rand_cones(rng), b=rng.randint(-2, 2), r=r,
                       orientable=orientable, crosscaps=0 if orientable else 1)
        fam = ConstraintFamily(tuple(_rand_arc(rng) for _ in range(r - 1)))
    return piece, ConstraintFamily(tuple(
        SlopeArc.point(rng.choice([e for e in (a.start, a.end) if e] + [simplest_slope(a)]))
        for a in fam.arcs))


def _membership_probes(piece, fam, res, rng):
    """Slopes in the core, in each refinement zone, at each frontier, just
    past it and past the zone, random slopes, and the vertical slope."""
    taus = [rand_fraction(rng, 12, -6, 6) for _ in range(3)]
    for end in res.detected.endpoints():
        if not end.is_vertical:
            taus += [end.tau + d for d in (0, F(1, 97), F(-1, 97), 1, -1)]
    if res.branch == "horizontal-interval":
        c_min, c_max = core_interval(piece, fam)
        shift = piece.b_eff
        left, right = (e.tau for e in res.detected.endpoints())
        taus += [t + shift for t in (c_min, c_max, F(c_min + c_max, 2), c_min - 1, c_max + 1)]
        taus += [(left + c_min + shift) / 2, (right + c_max + shift) / 2]
    return [VERTICAL] + [slope_of_tau(t) for t in taus]


def test_detects_matches_the_kernel():
    """detects(piece, slopes, slope) on the slope tuple of a point family,
    the form a witness passes, is detect_relative(piece, family)
    .detected.contains(slope) for that family on every branch and under
    several bounds; many probes lie in the core, which detects answers
    without the kernel."""
    in_core = probes = 0
    branches = set()
    for seed in range(3200):
        rng = random.Random(f"detects-{seed}")
        piece, fam = _membership_draw(rng, seed % 4)
        n_max = rng.choice((None, None, 2, 6, 40))
        res = detect_relative(piece, fam, n_max=n_max)
        branches.add(res.branch)
        horizontal = res.branch == "horizontal-interval"
        c_min, c_max = core_interval(piece, fam) if horizontal else (1, 0)
        points = tuple(arc.start for arc in fam.arcs)
        for slope in _membership_probes(piece, fam, res, rng):
            want = res.detected.contains(slope)
            assert detects(piece, points, slope, n_max=n_max) == want, (piece, points, slope, n_max)
            probes += 1
            in_core += not slope.is_vertical and c_min <= slope.tau - piece.b_eff <= c_max
    assert probes > 40000 and in_core > 15000, (probes, in_core)
    assert branches == {"n2", "nonorientable-point", "nonorientable-full", "solid-torus",
                        "product", "full", "horizontal-interval", "vertical-arc"}, branches


def test_monotone_in_constraints(rng):
    for _ in range(60):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
        if len(fam) == 0:
            continue
        res = detect_relative(piece, fam)
        # Enlarge one arc.
        j = rng.randrange(len(fam))
        pieces_, _ = fam.arcs[j].tau_pieces()
        lo, hi = pieces_[0]
        grown = SlopeArc.from_tau_interval(lo - F(rng.randint(0, 3), 2),
                                           hi + F(rng.randint(0, 3), 2))
        arcs = list(fam.arcs)
        arcs[j] = grown
        bigger = ConstraintFamily(tuple(arcs),
                                  fam.strong - ({j} if grown.contains_vertical() else set()))
        res2 = detect_relative(piece, bigger)
        for q in range(1, 7):
            for p in range(-12 * q, 12 * q + 1):
                if math.gcd(p, q) == 1:
                    s = Slope(p, q)
                    if res.detected.contains(s):
                        assert res2.detected.contains(s), (piece, fam.arcs, grown, s)


def test_endpoints_never_strong(rng):
    for _ in range(80):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
        res = detect_relative(piece, fam)
        if res.detected.is_point or res.detected.is_full:
            continue
        for end in res.detected.endpoints():
            assert res.strong_status(end) != Strength.STRONG


def test_family_union_structure(rng):
    """A family's detected set is the union over its constraint tuples: the
    low frontier is attained exactly at the all-upper-endpoints tuple, the
    high frontier at the all-lower-endpoints tuple, and every sampled
    interior tuple detects a subset."""
    checked = 0
    while checked < 60:
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
        if fam.strong:
            fam = ConstraintFamily(fam.arcs)  # union statement needs J empty
        res = detect_relative(piece, fam)
        uppers = _point_family(*(arc.tau_pieces()[0][0][1] for arc in fam.arcs))
        lowers = _point_family(*(arc.tau_pieces()[0][0][0] for arc in fam.arcs))
        left, right = res.detected.endpoints() if not res.detected.is_point \
            else (res.detected.start, res.detected.start)
        at_uppers = detect_relative(piece, uppers)
        at_lowers = detect_relative(piece, lowers)
        assert at_uppers.detected.endpoints()[0] == left
        assert at_lowers.detected.endpoints()[1] == right
        for _ in range(3):
            taus = []
            for arc in fam.arcs:
                lo, hi = arc.tau_pieces()[0][0]
                t = lo + (hi - lo) * F(rng.randint(0, 8), 8)
                taus.append(t)
            sub = detect_relative(piece, _point_family(*taus))
            for end in sub.detected.endpoints():
                assert res.detected.contains(end), (piece, fam.arcs, taus, end)
        checked += 1


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def _assert_realizes(piece, family, target):
    picks = realize(piece, family, detect_relative(piece, family), target)
    assert all(arc.contains(s) for arc, s in zip(family.arcs, picks))
    points = ConstraintFamily(tuple(SlopeArc.point(s) for s in picks))
    assert detect_relative(piece, points).detected.contains(target), \
        (piece, family.arcs, target, picks)
    return picks


def test_realize_full_branch_uses_two_vertical_slopes():
    piece = _piece([(2, 1)], r=3)
    family = ConstraintFamily((SlopeArc.full(),
                               SlopeArc.arc(VERTICAL, slope_of_tau(1))))
    assert detect_relative(piece, family).branch == "full"
    assert _assert_realizes(piece, family, slope_of_tau(F(7, 3))) == (VERTICAL, VERTICAL)


def _rand_arc(rng):
    x, y = rand_fraction(rng), rand_fraction(rng)
    kind = rng.randrange(7)
    if kind == 0:
        return SlopeArc.point(slope_of_tau(x))
    if kind == 1:
        return SlopeArc.point(VERTICAL)
    if kind == 2:
        return SlopeArc.full()
    if kind == 3:
        return SlopeArc.from_tau_interval(min(x, y), max(x, y))
    if kind == 4:
        return SlopeArc.arc(VERTICAL, slope_of_tau(x))
    if kind == 5:
        return SlopeArc.arc(slope_of_tau(x), VERTICAL)
    return SlopeArc.arc(slope_of_tau(max(x, y) + 1), slope_of_tau(min(x, y)))


def _floor_tuple_reference(taus, low, high, reach=16):
    """Whether some point tuple, one point per closed tau-interval (lo, hi)
    (Fractions, None unbounded), has sum(floor) >= low and sum(ceil) <=
    high, by brute force: each interval's integers within +-reach, and one
    non-integer point per unit gap (k, k + 1) it meets, folded into the set
    of reachable (sum of floors, sum of ceilings)."""
    sums = {(0, 0)}
    for lo, hi in taus:
        points = set()
        for k in range(-reach, reach + 1):
            if (lo is None or lo <= k) and (hi is None or k <= hi):
                points.add((k, k))
            if (lo is None or lo < k + 1) and (hi is None or k < hi):
                points.add((k, k + 1))
        sums = {(f + pf, c + pc) for f, c in sums for pf, pc in points}
    return any(f >= low and c <= high for f, c in sums)


def test_floor_tuple_matches_a_brute_force():
    """_floor_tuple on 2,000 seeded tuples of 1-3 closed tau-intervals
    (ends of denominator <= 4 and |tau| <= 4, some unbounded) and windows
    of small integers, some empty: in_core is the brute force's answer,
    every returned slope lies in its interval (the vertical slope only at
    an unbounded end), and an in-core tuple meets the window."""
    rng = random.Random(3601)

    def end():
        q = rng.randint(1, 4)
        return None if rng.random() < 0.15 else F(rng.randint(-4 * q, 4 * q), q)

    cases = {True: 0, False: 0}
    for _ in range(2000):
        taus = []
        for _ in range(rng.randint(1, 3)):
            lo, hi = end(), end()
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            taus.append((lo, hi))
        low = rng.randint(-6, 6)
        high = low + rng.randint(-2, 8)
        intervals = [(slope_of_tau(lo), slope_of_tau(hi)) for lo, hi in taus]
        picks, in_core = _floor_tuple(intervals, low, high)
        assert in_core == _floor_tuple_reference(taus, low, high), (taus, low, high)
        cases[in_core] += 1
        assert len(picks) == len(taus)
        for s, (lo, hi) in zip(picks, taus):
            if s.is_vertical:
                assert not in_core and None in (lo, hi), (taus, low, high, picks)
            else:
                assert (lo is None or lo <= s.tau) and (hi is None or s.tau <= hi), (taus, picks)
        if in_core:
            assert sum(math.floor(s.tau) for s in picks) >= low, (taus, low, high, picks)
            assert sum(math.ceil(s.tau) for s in picks) <= high, (taus, low, high, picks)
    assert min(cases.values()) > 200, cases


def test_realize_random_families(rng):
    """Every branch: the simplest slope and both endpoints of the detected
    set are detected by the realized point family."""
    branches = set()
    for _ in range(400):
        r = rng.randint(2, 4)
        orientable = rng.random() < 0.8
        piece = _piece(rand_cones(rng), b=rng.randint(-2, 2), r=r,
                       orientable=orientable, crosscaps=0 if orientable else 1)
        family = ConstraintFamily(tuple(_rand_arc(rng) for _ in range(r - 1)))
        res = detect_relative(piece, family)
        branches.add(res.branch)
        for target in (simplest_slope(res.detected), *res.detected.endpoints()):
            _assert_realizes(piece, family, target)
    assert branches >= {"product", "full", "horizontal-interval", "vertical-arc",
                        "vertical-full", "nonorientable-point", "nonorientable-full"}


def test_realize_between_abutting_ray_cores():
    # The two rays of the vertical arc give cores (-oo, -2] and [-1, +oo);
    # the refinements meet at -3/2, so targets in (-2, -1) lie past both
    # cores and the kernel's own bound picks the ray.
    piece = _piece([], r=3)
    family = ConstraintFamily((SlopeArc.arc(Slope(-1, 2), Slope(4, 3)),
                               SlopeArc.point(Slope(-3, 2))))
    assert detect_relative(piece, family).branch == "vertical-full"
    for den in range(2, 13):
        for k in range(1, den):
            _assert_realizes(piece, family, slope_of_tau(-2 + F(k, den)))


def test_realize_in_refined_zones_under_the_point_bound(rng):
    """In a refined zone realize picks the side's extreme endpoints.  The
    point family's default bound counts only their denominators, the
    family's bound both sides'; here the other side's reach 2^32, and the
    point family must still find the family's certificate."""
    targets = smaller = 0
    for _ in range(1200):
        r = rng.randint(2, 4)
        piece = rand_orientable_piece(rng, r)
        if piece.n + r < 3:
            continue
        small_high = rng.random() < 0.5
        pairs = []
        for _ in range(r - 1):
            x = rand_fraction(rng)
            d = rng.randint(2, 2**32)
            w = F(rng.randint(1, 3 * d), d)
            pairs.append((x - w, x) if small_high else (x, x + w))
        family = _interval_family(*pairs)
        res = detect_relative(piece, family)
        c_min, c_max = core_interval(piece, family)
        shift = piece.b_eff
        left, right = res.detected.start.tau - shift, res.detected.end.tau - shift
        zones = []
        if res.low_certificate is not None:
            zones.append(("low", left, c_min))
        if res.high_certificate is not None:
            zones.append(("high", right, c_max))
        for side, reach, core in zones:
            ends = [(e.numerator, e.denominator)
                    for e in (hi if side == "low" else lo for lo, hi in pairs)]
            all_ends = [(e.numerator, e.denominator) for pair in pairs for e in pair]
            smaller += default_n_bound(piece, ends) < default_n_bound(piece, all_ends)
            for t in (reach, (reach + core) / 2):
                _assert_realizes(piece, family, slope_of_tau(t + shift))
                targets += 1
    assert targets > 300 and smaller > 50, (targets, smaller)


if __name__ == "__main__":
    print("\n".join(scan_digest_lines(_scan_answers(_linear_scan))))
