"""The brute-force cross-checkers themselves.

The certificate enumeration ``_certificates`` is locked against a stored
digest of what the Fraction reference ``_fraction_certificates`` yields on
3,000 seeded draws, hashed in blocks of 100 draws in
``tests/golden/oracle_digest.txt``; every 10th draw is also compared with the
reference directly.  A deliberate change to the enumeration's answers
rewrites the file in the same change:

    PYTHONPATH=src:tests python tests/test_oracle.py > tests/golden/oracle_digest.txt
"""

import hashlib
import random
from fractions import Fraction
from functools import partial
from math import floor, gcd
from pathlib import Path

from tautfol import ConstraintFamily, JNCertificate, SeifertPiece, core_interval
from tautfol.oracle import (_certificates, _intervals, _samples, grid_union, jn_exhaustive,
                            jn_exhaustive_extremal)
from tautfol import jn_refine_high, jn_refine_low
from conftest import rand_horizontal_piece_and_family

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
    assert cert.distributed_multiset() == cert.expected_multiset()
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
