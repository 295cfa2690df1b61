"""The brute-force cross-checkers themselves.

The oracle's certificate thresholds, ``tautfol.oracle._thresholds``, are
locked against a stored digest: ``_certificates`` here runs
``_every_placement``, the loop over every N, A and placement, on them, and
what it yields on 3,000 seeded draws is hashed in blocks of 100 draws in
``tests/golden/oracle_digest.txt``; every 10th draw is also compared with
the Fraction reference ``_fraction_certificates`` directly.  A deliberate
change to the thresholds' answers rewrites the file in the same change:

    PYTHONPATH=src:tests python tests/test_oracle.py > tests/golden/oracle_digest.txt

``jn_exhaustive_extremal``, which reads each N's best target value from
the checks' least passing values instead of walking the certificates, is
compared with the largest C/N over that enumeration, and with the kernel's
scan at the bounds the commands use; it still answers with the kernel's
search made to raise.  ``grid_union`` is compared with the tuple statistic
written out here, and still answers with the kernel's core made to raise.

One check shares no formula with the kernel: on two-boundary pieces, a
slope beta whose double filling with alpha passes the closed-Seifert
criterion (``tests/helpers.py``) must be detected relative to the point
alpha.
"""

import ast
import hashlib
import math
import random
from fractions import Fraction
from functools import partial
from math import floor, gcd
from pathlib import Path

import pytest

from tautfol import (
    ConstraintFamily,
    FamilyError,
    JNCertificate,
    SeifertPiece,
    Slope,
    SlopeArc,
    VERTICAL,
    core_interval,
    detect_relative,
    seifert,
    slope_of_tau,
)
import tautfol.oracle
from tautfol.oracle import _intervals, _samples, grid_union, jn_exhaustive_extremal
from tautfol import jn_refine_high, jn_refine_low
from tautfol.graph import homology, validate
from tautfol.seifert import default_n_bound
from conftest import rand_cones, rand_horizontal_piece_and_family, rand_orientable_piece
from helpers import (
    assert_multiset_distributed,
    euler_number,
    fill,
    filled_graph,
    has_horizontal_foliation,
    kernel_bound,
    past_core,
)

F = Fraction
DIGEST = Path(__file__).resolve().parent / "golden" / "oracle_digest.txt"
DRAWS = 3000
BLOCK = 100
LIVE_EVERY = 10


def _piece(cones, b=0, r=1):
    return SeifertPiece(base_orientable=True, cones=tuple(cones), b=b,
                        boundary_count=r)


def _points(*taus):
    return ConstraintFamily(tuple(SlopeArc.point(slope_of_tau(t)) for t in taus))


def test_grid_union_no_constraints():
    piece = _piece([(2, 1), (2, 1)])
    assert grid_union(piece, ConstraintFamily(())) == (-2, -1)


def test_grid_union_point_constraint():
    piece = _piece([(2, 1)], r=2)
    assert grid_union(piece, _points(F(1, 2))) == (-2, -1)


def test_grid_union_hand_values_on_point_families():
    """A point family samples the one tuple: m0 = b0 - (n + r - 1) and
    m1 = b0 + s0 - 1, b0 the negated sum of floors and s0 the integral
    coordinates."""
    assert grid_union(_piece([(2, 1), (3, 1)], r=2), _points(F(1, 2))) == (-3, -1)
    assert grid_union(_piece([], r=2), _points(0)) == (-1, 0)
    assert grid_union(_piece([(2, 1)], r=3), _points(F(-3, 2), 2)) == (-3, 0)


def test_grid_union_on_random_point_families(rng):
    for _ in range(100):
        r = rng.randint(1, 5)
        taus = [F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(r - 1)]
        n = rng.randint(0, 4)
        b0 = -sum(floor(t) for t in taus)
        s0 = sum(t.denominator == 1 for t in taus)
        piece = _piece([(2, 1)] * n, r=r)
        assert grid_union(piece, _points(*taus)) == (b0 - (n + r - 1), b0 + s0 - 1), taus


def _raise(*_args, **_kwargs):
    raise AssertionError("an oracle reached the kernel")


def test_grid_union_needs_no_kernel_core(rng, monkeypatch):
    """With the kernel's core, refinement scan and core_interval made to
    raise, grid_union still gives the core intervals read beforehand.  The
    oracle module binds none of them itself: see
    test_the_oracle_imports_no_kernel_formula."""
    cases = []
    for _ in range(40):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
        cases.append((piece, fam, core_interval(piece, fam)))
    for name in ("_core_end", "_side_reach", "_scan_certificates", "core_interval"):
        monkeypatch.setattr(seifert, name, _raise)
    for piece, fam, expected in cases:
        assert grid_union(piece, fam) == expected, (piece, fam.arcs, fam.strong)
    with pytest.raises(AssertionError):
        seifert.core_interval(*cases[0][:2])


def test_the_oracle_imports_no_kernel_formula():
    """oracle.py takes nothing from the kernel's module but its FamilyError:
    no name bound from ``.seifert`` can hand the brute force a kernel
    formula, whatever the tests patch."""
    tree = ast.parse(Path(tautfol.oracle.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [("", alias.name) for alias in node.names]
    assert [pair for pair in imported if "seifert" in " ".join(pair)] == [
        ("seifert", "FamilyError")]


def test_grid_samples_include_endpoints_integers_offsets():
    samples = _samples(F(-1, 3), F(5, 2))
    assert samples == [F(-1, 3), 0, F(1, 2), 1, F(3, 2), 2, F(5, 2)]
    assert _samples(F(1, 3), F(2, 3)) == [F(1, 3), F(2, 3)]
    assert _samples(F(-1, 2), F(1, 2)) == [F(-1, 2), 0, F(1, 2)]
    assert _samples(F(-7, 10), F(1, 3)) == [F(-7, 10), 0, F(1, 3)]


def test_the_oracles_refuse_a_vertical_family():
    """Both brute forces read each arc as one finite tau interval."""
    piece = _piece([(2, 1)], r=2)
    for arc in (SlopeArc.point(VERTICAL), SlopeArc.full(),
                SlopeArc.arc(slope_of_tau(1), slope_of_tau(0))):
        fam = ConstraintFamily((arc,))
        for oracle in (grid_union, partial(jn_exhaustive_extremal, side="low", n_max=8),
                       partial(jn_exhaustive_extremal, side="high", n_max=8)):
            with pytest.raises(FamilyError,
                               match="^grid oracle needs finite horizontal constraints$"):
                oracle(piece, fam)


def test_exhaustive_absent_cases():
    """The twisted I-bundle over the Klein bottle, over the disk, has no
    certificate on either side up to N = 16."""
    piece = _piece([(2, 1), (2, 1)])
    fam = ConstraintFamily(())
    for side in ("low", "high"):
        assert jn_exhaustive_extremal(piece, fam, side, 16) is None
        assert list(_certificates(piece, fam, side, 16)) == []


def test_exhaustive_finds_and_revalidates():
    """Cones (2,1), (3,1): the high side reaches c_max + 1/5 from N = 5 on,
    and every certificate that proves it distributes its multiset."""
    piece = _piece([(2, 1), (3, 1)])
    fam = ConstraintFamily(())
    c_max = core_interval(piece, fam)[1]
    assert jn_exhaustive_extremal(piece, fam, "high", 4) is None
    assert jn_exhaustive_extremal(piece, fam, "high", 10) == (1, 5)
    assert past_core(piece, fam, "high", (1, 5)) == c_max + F(1, 5) == F(-4, 5)
    proofs = [c for c in _certificates(piece, fam, "high", 10)
              if F(c.target_numerator, c.n_value) == F(1, 5)]
    assert proofs
    for cert in proofs:
        assert_multiset_distributed(cert)


def test_exhaustive_extremal_agrees_with_refine(rng):
    for _ in range(80):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=4, n_max=3,
                                                      a_max=4)
        for side, refine in (("low", jn_refine_low), ("high", jn_refine_high)):
            with kernel_bound(10):
                got = refine(piece, fam)
            expected = past_core(piece, fam, side, jn_exhaustive_extremal(piece, fam, side, 10))
            assert (got[0] if got else None) == expected, (piece, fam.arcs, side)


def _extremal_by_gaps(piece, fam, side, n_max):
    """The per-gap definition: the largest c/n with n <= n_max that the
    target value C/N of some certificate of the Fraction enumeration equals,
    as a refined endpoint."""
    proved = {F(c.target_numerator, c.n_value)
              for c in _fraction_certificates(piece, fam, side, n_max)}
    c_min, c_max = core_interval(piece, fam)
    for gap in sorted({F(c, n) for n in range(2, n_max + 1) for c in range(1, n)},
                      reverse=True):
        if gap in proved:
            return c_min - gap if side == "low" else c_max + gap
    return None


def test_exhaustive_extremal_matches_per_gap_definition(rng):
    found = 0
    for _ in range(40):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=4, n_max=3,
                                                      a_max=4)
        for side in ("low", "high"):
            expected = _extremal_by_gaps(piece, fam, side, 8)
            assert past_core(piece, fam, side, jn_exhaustive_extremal(piece, fam, side, 8)) \
                == expected, (piece, fam.arcs, side)
            found += expected is not None
    assert found


def _condition_slot(endpoint, in_j, side, b_num, n_value):
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


def _slots(family, side):
    """The constraint endpoints on ``side``, the constraint indices of the
    boundary slots, and the excluded ones: strong with an integral
    endpoint."""
    intervals = _intervals(family)
    endpoints = [z for _, z in intervals] if side == "low" else [e for e, _ in intervals]
    excluded = tuple(j for j, e in enumerate(endpoints)
                     if j in family.strong and e.denominator == 1)
    bdry = [j for j in range(len(endpoints)) if j not in excluded]
    return endpoints, bdry, excluded


def _fraction_certificates(piece, family, side, n_max):
    """The certificate enumeration with every condition tested as a Fraction
    on an explicit list of placements: the reference for the oracle's
    integer thresholds."""
    endpoints, bdry, excluded = _slots(family, side)
    gammas = [F(beta % a, a) for a, beta in piece.cones]
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


def _passing(checks, value, n_value):
    """Whether value/n_value clears each check's threshold p/q, by
    cross-multiplication; the target slot, last, has no condition."""
    return [value * q > n_value * p if strict else value * q >= n_value * p
            for p, q, strict in checks] + [True]


def _every_placement(checks, n_max):
    """Every (N, A, values) with 2 <= N <= n_max whose values pass their
    checks, in (N, A, placement) order: the loop over every N, every A
    coprime to it and every placement, testing each slot's check on 1, A
    and N - A.  values holds one numerator per check and the target's, last;
    a placement puts A on slot pos_a, N - A on slot pos_b and 1 elsewhere."""
    slots = len(checks) + 1
    for n_value in range(2, n_max + 1):
        on_one = _passing(checks, 1, n_value)
        fails_on_one = on_one.count(False)
        for a_value in range(1, n_value):
            if gcd(a_value, n_value) != 1:
                continue
            b_value = n_value - a_value
            on_a = _passing(checks, a_value, n_value)
            on_b = _passing(checks, b_value, n_value)
            seen = set()
            for pos_a in range(slots):
                for pos_b in range(slots):
                    # Every slot but pos_a and pos_b holds 1.
                    if (pos_b == pos_a or not on_a[pos_a] or not on_b[pos_b]
                            or fails_on_one != (not on_one[pos_a]) + (not on_one[pos_b])):
                        continue
                    # A position holding 1 does not tell placements apart.
                    key = (pos_a if a_value != 1 else None,
                           pos_b if b_value != 1 else None)
                    if key in seen:
                        continue
                    seen.add(key)
                    values = [1] * slots
                    values[pos_a] = a_value
                    values[pos_b] = b_value
                    yield n_value, a_value, values


def _certificates(piece, family, side, n_max):
    """Every certificate with N <= n_max that passes the oracle's integer
    thresholds on ``side``, found by _every_placement; the values go to the
    cones, the boundary slots and the target, in that order."""
    _, bdry, excluded = _slots(family, side)
    cones = piece.n
    for n_value, a_value, values in _every_placement(
            tautfol.oracle._thresholds(piece, family, side), n_max):
        yield JNCertificate(n_value=n_value, a_value=a_value, side=side,
                            cone_numerators=tuple(values[:cones]),
                            boundary_numerators=tuple(zip(bdry, values[cones:-1])),
                            excluded=excluded, target_numerator=values[-1])


# Thresholds (p, q, strict): 1/40 passes on 1 up to N = 40 and fails past
# it; 1/4, 1/3 and 1/2 fail on 1 from N = 2 to 4 and hit their least value
# exactly at some N, where strict and non-strict part; 1 strict has the least
# value N + 1 and 1 non-strict N, beyond every A; 0 and -1/2 pass everything.
EASY = (1, 40, False)
QUARTER_OR_EQUAL = (1, 4, False)
THIRD = (1, 3, True)
HALF = (1, 2, True)
HALF_OR_EQUAL = (1, 2, False)
EDGE_CHECKS = {
    "no checks": [],
    "0 failing": [EASY, EASY, (0, 1, True), (-1, 2, False)],
    "1 failing": [EASY, HALF, EASY],
    "1 failing, non-strict": [HALF_OR_EQUAL, EASY],
    "2 failing": [THIRD, EASY, HALF_OR_EQUAL],
    "2 failing, both non-strict": [QUARTER_OR_EQUAL, HALF_OR_EQUAL, EASY],
    "3 failing": [THIRD, QUARTER_OR_EQUAL, HALF],
    "strict 1": [(1, 1, True), EASY],
    "non-strict 1": [(1, 1, False), EASY],
    "strict and non-strict 1": [(1, 1, True), (1, 1, False)],
}


def _extremal_by_certificates(piece, fam, side, n_max):
    """The refined endpoint of the largest C/N over every placement that
    passes the oracle's thresholds: the reference for
    jn_exhaustive_extremal, which reads each N's best C from the checks'
    least passing values instead."""
    gaps = [F(values[-1], n_value) for n_value, _, values in _every_placement(
        tautfol.oracle._thresholds(piece, fam, side), n_max)]
    if not gaps:
        return None
    c_min, c_max = core_interval(piece, fam)
    return c_min - max(gaps) if side == "low" else c_max + max(gaps)


def test_exhaustive_extremal_matches_the_certificates_past_the_digest_bounds():
    rng = random.Random(0x5EED + 3)
    found = 0
    for i in range(100):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=(2, 4, 12)[i % 3],
                                                      a_max=6)
        n_max = rng.randint(25, 120)
        for side in ("low", "high"):
            expected = _extremal_by_certificates(piece, fam, side, n_max)
            got = past_core(piece, fam, side, jn_exhaustive_extremal(piece, fam, side, n_max))
            assert got == expected, (piece, fam.arcs, fam.strong, side, n_max)
            found += expected is not None
    assert found >= 20


def test_exhaustive_extremal_matches_the_certificates_at_the_threshold_edges(monkeypatch):
    """Each EDGE_CHECKS set stands in for the thresholds of a piece, so the
    target, last, sits beside 0-3 slots that fail on 1."""
    piece, fam = _piece([(2, 1), (2, 1)]), ConstraintFamily(())
    found = {}
    for name, checks in EDGE_CHECKS.items():
        monkeypatch.setattr(tautfol.oracle, "_thresholds",
                            lambda *_, checks=checks: checks)
        for side in ("low", "high"):
            expected = _extremal_by_certificates(piece, fam, side, 60)
            got = past_core(piece, fam, side, jn_exhaustive_extremal(piece, fam, side, 60))
            assert got == expected, (name, side)
        found[name] = expected
    # With no slot failing on 1 the target takes N - 1 up to N = 40, past
    # which the easy slots fail on 1 and must hold A and N - A.  Beside the
    # strict half, the target takes 19 at N = 39, below A = 20; beside two
    # failing slots it holds 1, best at N = 2.  The core is [-2, -1].
    assert found["0 failing"] == -1 + F(39, 40)
    assert found["1 failing"] == -1 + F(19, 39)
    assert found["2 failing"] == -1 + F(1, 2)
    assert [name for name, gap in found.items() if gap is None] == [
        "no checks", "3 failing", "strict 1", "non-strict 1", "strict and non-strict 1"]


def test_exhaustive_extremal_agrees_with_refine_at_the_default_bounds():
    """One-piece solid tori with 2-3 cones of order up to 40: the kernel's
    scan and the brute force over every N agree at the bound the commands
    use, 2 lcm(cone orders), from 48 to about 30,000 here."""
    rng = random.Random(0x5EED + 2)
    found = 0
    for _ in range(48):
        piece = SeifertPiece(base_orientable=True, cones=rand_cones(rng, 3, 40, n_min=2),
                             b=rng.randint(-3, 2), boundary_count=1)
        fam = ConstraintFamily(())
        n_bound = default_n_bound(piece, [])
        for side, refine in (("low", jn_refine_low), ("high", jn_refine_high)):
            got = refine(piece, fam)
            expected = past_core(piece, fam, side,
                                 jn_exhaustive_extremal(piece, fam, side, n_bound))
            assert (got[0] if got else None) == expected, (piece.cones, piece.b, side)
            found += expected is not None
    assert found >= 25


def test_exhaustive_extremal_needs_no_kernel_search(monkeypatch):
    """With the kernel's scan, its Farey steps, its N bound, its
    refinements, detect_relative and its core made to raise,
    jn_exhaustive_extremal still gives the gaps read beforehand."""
    rng = random.Random(0x5EED + 4)
    cases = []
    for i in range(40):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=(2, 4, 12)[i % 3],
                                                      a_max=6)
        cases.append((piece, fam, rng.randint(25, 120)))
    for _ in range(8):
        piece = SeifertPiece(base_orientable=True, cones=rand_cones(rng, 3, 12, n_min=2),
                             b=rng.randint(-3, 2), boundary_count=1)
        cases.append((piece, ConstraintFamily(()), default_n_bound(piece, [])))
    expected = [jn_exhaustive_extremal(piece, fam, side, n_max)
                for piece, fam, n_max in cases for side in ("low", "high")]
    assert sum(value is not None for value in expected) >= 10
    for name in ("_side_reach", "_scan_certificates", "_farey_below",
                 "_least_pair_denominator", "default_n_bound", "jn_refine_low",
                 "jn_refine_high", "detect_relative", "core_interval", "_core_end"):
        monkeypatch.setattr(seifert, name, _raise)
    got = [jn_exhaustive_extremal(piece, fam, side, n_max)
           for piece, fam, n_max in cases for side in ("low", "high")]
    assert got == expected
    with pytest.raises(AssertionError):
        seifert.jn_refine_high(*cases[0][:2])


def _enumerations(enumerate_certificates):
    """(draw, piece, family, side, n_max, certificates) for both sides of
    each seeded draw, in order."""
    rng = random.Random(0x5EED)  # the seed of the rng fixture
    for i in range(DRAWS):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=(2, 4, 12)[i % 3],
                                                      a_max=6)
        n_max = rng.randint(0, 24)
        for side in ("low", "high"):
            yield i, piece, fam, side, n_max, list(enumerate_certificates(
                piece, fam, side, n_max))


def digest_lines(records):
    """One line per block of draws: first draw, count, sha256 of the
    certificate lists."""
    blocks = {}
    for i, *_, certs in records:
        blocks.setdefault(i - i % BLOCK, hashlib.sha256()).update(f"{certs!r}\n".encode())
    return [f"{start} {BLOCK} {h.hexdigest()}" for start, h in blocks.items()]


def test_certificates_match_the_fraction_enumeration():
    records = list(_enumerations(_certificates))
    for i, piece, fam, side, n_max, got in records:
        if i % LIVE_EVERY == 0:
            assert got == list(_fraction_certificates(piece, fam, side, n_max)), (
                piece, fam.arcs, fam.strong, side, n_max)
    assert sum(len(certs) for *_, certs in records) > 5000
    expected = DIGEST.read_text(encoding="utf-8").splitlines()
    got = digest_lines(records)
    assert len(got) == len(expected)
    assert [a for a, b in zip(got, expected) if a != b] == []
    # Placements collapse where a value is 1: N = 2 puts 1 everywhere, and
    # A = 1 or N - A = 1 leaves one position that tells them apart.
    for cones, tau, side in (([(3, 1), (5, 1)], F(1, 3), "high"),
                             ([(3, 2), (5, 4)], F(2, 3), "low")):
        piece, fam = _piece(cones, r=2), _points(tau)
        got = list(_certificates(piece, fam, side, 7))
        assert got == list(_fraction_certificates(piece, fam, side, 7))
        assert [(c.n_value, c.a_value, c.cone_numerators, c.boundary_numerators,
                 c.target_numerator) for c in got] == [
            (2, 1, (1, 1), ((0, 1),), 1),
            (3, 1, (2, 1), ((0, 1),), 1),
            (3, 2, (2, 1), ((0, 1),), 1),
        ]


# ---------------------------------------------------------------------------
# An oracle that shares no formula with the kernel: fillings of two-boundary
# pieces under the closed-Seifert criterion
# ---------------------------------------------------------------------------


def _two_boundary_sample():
    """110 seeded pieces over the annulus (0-3 cones, a <= 7, b in -2..2),
    each with 6 distinct horizontal slopes alpha (q <= 5, |p| <= 12)."""
    rng = random.Random(5)
    for _ in range(110):
        piece = rand_orientable_piece(rng, 2, n_max=3, a_max=7)
        alphas = set()
        while len(alphas) < 6:
            p, q = rng.randint(-12, 12), rng.randint(1, 5)
            if gcd(p, q) == 1:
                alphas.add(Slope(p, q))
        yield piece, sorted(alphas)


# Every horizontal slope with q <= 5 and |p| <= 6q.
_BETAS = [Slope(p, q) for q in range(1, 6) for p in range(-6 * q, 6 * q + 1) if gcd(p, q) == 1]


def test_the_closed_criterion_on_the_poincare_and_brieskorn_spheres():
    # Sigma(2,3,5) = S^2((2,1),(3,1),(5,1)) with b = 1: e = 1/30, no
    # horizontal foliation, in either orientation; Sigma(2,3,7) has one.
    for b, cones in ((1, [(2, 1), (3, 1), (5, 1)]), (2, [(2, 1), (3, 2), (5, 4)])):
        assert abs(euler_number(b, cones)) == F(1, 30)
        assert not has_horizontal_foliation(b, cones)
    assert abs(euler_number(1, [(2, 1), (3, 1), (7, 1)])) == F(1, 42)
    assert has_horizontal_foliation(1, [(2, 1), (3, 1), (7, 1)])
    assert has_horizontal_foliation(2, [(2, 1), (3, 2), (7, 6)])


def test_the_filling_fold_matches_homology():
    """|H_1| = prod(a_i) * |e| for the folded invariants, and e = 0 exactly
    when H_1 is infinite, against graph.homology of the filled graph."""
    rng = random.Random(7)
    for piece, alphas in _two_boundary_sample():
        for alpha in alphas[:3]:
            beta = rng.choice(_BETAS)
            graph = filled_graph(piece, (alpha, beta))
            assert not [d for d in validate(graph) if d.startswith("error")]
            b, cones = fill(piece, (alpha, beta))
            e, h1 = euler_number(b, cones), homology(graph)
            if e == 0:
                assert h1.betti == 1, (piece, alpha, beta)
            else:
                orders = math.prod(a for a, _ in cones)
                assert (h1.betti, math.prod(h1.invariant_factors)) == (0, abs(e) * orders), (
                    piece, alpha, beta)


def test_fillings_with_a_horizontal_foliation_are_detected():
    """When filling both tori of a two-boundary piece, along alpha and
    beta, gives a closed Seifert space with a horizontal foliation, the
    piece carries a horizontal foliation linear at both slopes, so beta is
    detected relative to the point alpha.  The check is one-way: a beta
    whose filling the criterion refuses proves nothing."""
    accepted = []
    for piece, alphas in _two_boundary_sample():
        for alpha in alphas:
            detected = detect_relative(piece, ConstraintFamily((SlopeArc.point(alpha),))).detected
            for beta in _BETAS:
                if has_horizontal_foliation(*fill(piece, (alpha, beta))):
                    accepted.append((piece, alpha, beta))
                    assert detected.contains(beta), (piece, alpha, beta)
    assert len(accepted) > 3000


if __name__ == "__main__":
    print("\n".join(digest_lines(_enumerations(_fraction_certificates))))
