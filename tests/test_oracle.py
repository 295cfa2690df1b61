"""The brute-force cross-checkers themselves.

The certificate enumeration ``_certificates`` is locked against a stored
digest of what the Fraction reference ``_fraction_certificates`` yields on
3,000 seeded draws, hashed in blocks of 100 draws in
``tests/golden/oracle_digest.txt``; every 10th draw is also compared with the
reference directly.  A deliberate change to the enumeration's answers
rewrites the file in the same change:

    PYTHONPATH=src:tests python tests/test_oracle.py > tests/golden/oracle_digest.txt

The placements themselves, ``tautfol.oracle._placements``, which visit
only the (N, A) pairs that some placement can pass, are compared with
``_every_placement``, the loop over every N, A and placement, at bounds past
the digest's and on hand-built thresholds at the edges.
"""

import hashlib
import random
from fractions import Fraction
from functools import partial
from math import floor, gcd
from pathlib import Path

from tautfol import ConstraintFamily, JNCertificate, SeifertPiece, core_interval
import tautfol.oracle
from tautfol.oracle import (_certificates, _intervals, _samples, grid_union, jn_exhaustive,
                            jn_exhaustive_extremal)
from tautfol import jn_refine_high, jn_refine_low
from conftest import rand_horizontal_piece_and_family
from helpers import assert_multiset_distributed

F = Fraction
DIGEST = Path(__file__).resolve().parent / "golden" / "oracle_digest.txt"
DRAWS = 3000
BLOCK = 100
LIVE_EVERY = 10


def _piece(cones, b=0, r=1):
    return SeifertPiece(base_orientable=True, cones=tuple(cones), b=b,
                        boundary_count=r)


def _points(*taus):
    from tautfol import SlopeArc, slope_of_tau
    return ConstraintFamily(tuple(SlopeArc.point(slope_of_tau(t)) for t in taus))


def test_grid_union_no_constraints():
    piece = _piece([(2, 1), (2, 1)])
    assert grid_union(piece, ConstraintFamily(())) == (-2, -1)


def test_grid_union_point_constraint():
    piece = _piece([(2, 1)], r=2)
    assert grid_union(piece, _points(F(1, 2))) == (-2, -1)


def test_grid_samples_include_endpoints_integers_offsets():
    samples = _samples(F(-1, 3), F(5, 2), 6)
    for required in (F(-1, 3), F(5, 2), 0, 1, 2,
                     F(-1, 6), F(1, 6), F(5, 6), F(7, 6), F(11, 6), F(13, 6)):
        assert F(required) in samples


def test_grid_same_answer_at_every_denominator(rng):
    """grid_union reads only each coordinate's floor and integrality, which
    the endpoints, integers and 1/d offsets meet for every d >= 2."""
    for _ in range(40):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=6)
        answers = [grid_union(piece, fam, denominator=d) for d in (2, 3, 6, 12)]
        assert answers.count(answers[0]) == 4, answers


def test_exhaustive_absent_cases():
    piece = _piece([(2, 1), (2, 1)])
    fam = ConstraintFamily(())
    c_min, c_max = core_interval(piece, fam)
    for c, n in ((1, 2), (1, 3), (2, 3), (3, 4)):
        assert jn_exhaustive(piece, fam, c_min - F(c, n), 16) is None
    # Targets outside the refinement gaps violate the endpoint equation.
    assert jn_exhaustive(piece, fam, c_min, 16) is None
    assert jn_exhaustive(piece, fam, c_min - 2, 16) is None
    assert jn_exhaustive(piece, fam, F(2 * c_min + 2 * c_max, 4), 16) is None


def test_exhaustive_finds_and_revalidates():
    piece = _piece([(2, 1), (3, 1)])
    fam = ConstraintFamily(())
    cert = jn_exhaustive(piece, fam, F(-4, 5), 10)
    assert cert is not None
    assert cert.side == "high"
    assert_multiset_distributed(cert)
    assert Fraction(cert.target_numerator, cert.n_value) == F(1, 5)


def test_exhaustive_extremal_agrees_with_refine(rng):
    for _ in range(80):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=4, n_max=3,
                                                      a_max=4)
        for side, refine in (("low", jn_refine_low), ("high", jn_refine_high)):
            got = refine(piece, fam, n_max=10)
            expected = jn_exhaustive_extremal(piece, fam, side, 10)
            assert (got[0] if got else None) == expected, (piece, fam.arcs, side)


def _extremal_by_gaps(piece, fam, side, n_max):
    """The per-gap definition: the largest c/n with n <= n_max for which
    jn_exhaustive proves the refined endpoint."""
    c_min, c_max = core_interval(piece, fam)
    for gap in sorted({F(c, n) for n in range(2, n_max + 1) for c in range(1, n)},
                      reverse=True):
        target = c_min - gap if side == "low" else c_max + gap
        if jn_exhaustive(piece, fam, target, n_max) is not None:
            return target
    return None


def test_exhaustive_extremal_matches_per_gap_definition(rng):
    found = 0
    for _ in range(40):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=4, n_max=3,
                                                      a_max=4)
        for side in ("low", "high"):
            expected = _extremal_by_gaps(piece, fam, side, 8)
            assert jn_exhaustive_extremal(piece, fam, side, 8) == expected, (
                piece, fam.arcs, side)
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


def _fraction_certificates(piece, family, side, n_max):
    """The certificate enumeration with every condition tested as a Fraction
    on an explicit list of placements: the reference for _certificates'
    integer thresholds."""
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


def _passing(checks, value, n_value):
    """Whether value/n_value clears each check's threshold p/q, by
    cross-multiplication; the target slot, last, has no condition."""
    return [value * q > n_value * p if strict else value * q >= n_value * p
            for p, q, strict in checks] + [True]


def _every_placement(checks, n_max):
    """The loop over every N, every A coprime to it and every placement that
    _placements replaces, testing each slot's check on 1, A and N - A: the
    reference for which (N, A) pairs _placements may skip."""
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


def test_certificates_match_every_placement_past_the_digest_bounds(monkeypatch):
    """Seeded draws at bounds 25-120, where the digest's draws stop at 24."""
    rng = random.Random(0x5EED + 1)
    cases = []
    for i in range(70):
        piece, fam = rand_horizontal_piece_and_family(rng, den_max=(2, 4, 12)[i % 3],
                                                      a_max=6)
        n_max = rng.randint(25, 120)
        for side in ("low", "high"):
            cases.append((piece, fam, side, n_max,
                          list(_certificates(piece, fam, side, n_max))))
    assert sum(len(certs) for *_, certs in cases) > 5000
    monkeypatch.setattr(tautfol.oracle, "_placements", _every_placement)
    for piece, fam, side, n_max, got in cases:
        assert got == list(_certificates(piece, fam, side, n_max)), (
            piece, fam.arcs, fam.strong, side, n_max)


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


def test_placements_match_every_placement_at_the_threshold_edges():
    found = {}
    for name, checks in EDGE_CHECKS.items():
        got = list(tautfol.oracle._placements(checks, 60))
        assert got == list(_every_placement(checks, 60)), name
        found[name] = len(got)
    # A threshold of 1 leaves its slot no value below N, and three slots
    # failing on 1 leave two positions for them.
    assert [name for name, count in found.items() if count == 0] == [
        "no checks", "3 failing", "strict 1", "non-strict 1", "strict and non-strict 1"]
    # Past N = 40 the easy threshold fails on 1 as well, which leaves
    # "2 failing" three failing slots and no placement.
    assert max(n_value for n_value, _, _ in tautfol.oracle._placements(
        EDGE_CHECKS["2 failing"], 60)) == 40


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


if __name__ == "__main__":
    print("\n".join(digest_lines(_enumerations(_fraction_certificates))))
