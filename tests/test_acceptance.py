"""Acceptance criteria.

Each test sweeps the stated number of randomized or fixed instances at exact
arithmetic (zero tolerance everywhere) and prints one PASS line; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they go.
"""

import random
import time
from fractions import Fraction

from tautfol import (
    ConstraintFamily,
    Edge,
    GluingMatrix,
    PlumbingGraph,
    SeifertPiece,
    SlopeArc,
    Strength,
    VERTICAL,
    act_arc,
    check_degenerate,
    core_interval,
    decide_ctf,
    detect_tree,
    jn_refine_high,
    jn_refine_low,
    rational_longitude,
    revalidate_witness,
    slope_of_tau,
)
from tautfol.oracle import grid_union, jn_exhaustive_extremal
from tautfol.seifert import product_transport
from conftest import (
    rand_horizontal_piece_and_family,
    rand_matrix,
    rand_valid_closed,
    rand_valid_solid_tree,
)

F = Fraction


def _report(name, detail):
    print(f"ACCEPTANCE PASS  {name}: {detail}")


def test_criterion_1_core_equals_grid():
    """Closed form vs grid oracle on >= 1000 randomized Seifert instances."""
    rng = random.Random(101)
    start = time.time()
    count = 1000
    for _ in range(count):
        piece, family = rand_horizontal_piece_and_family(
            rng, den_max=12, r_max=4, n_max=4, a_max=9)
        assert core_interval(piece, family) == grid_union(piece, family)
    elapsed = time.time() - start
    assert elapsed < 60
    _report("1 core interval vs grid oracle",
            f"{count} instances, 0 failures, {elapsed:.1f}s")


def test_criterion_2_longitude_membership():
    """tau(lambda_V) in detect_tree(V) on >= 200 randomized trees."""
    rng = random.Random(202)
    count = 200
    for _ in range(count):
        graph = rand_valid_solid_tree(rng, max_pieces=4)
        lam = rational_longitude(graph).slope
        assert detect_tree(graph).detected.contains(lam)
    _report("2 longitude membership", f"{count} trees, 0 failures")


def test_criterion_3_n2_fixture():
    graph = PlumbingGraph(
        [SeifertPiece(base_orientable=False, crosscaps=1, cones=(), b=0,
                      boundary_count=1, ident="k")], [], "solid-torus")
    result = detect_tree(graph)
    assert result.detected == SlopeArc.point(VERTICAL)
    assert result.strong_status(VERTICAL) == Strength.STRONG
    assert result.exceptions == ()
    lam = rational_longitude(graph)
    assert lam.slope == VERTICAL and lam.order == 2
    _report("3 twisted I-bundle fixture",
            "detected = strongly detected = fibre point; longitude is the fibre class")


def test_criterion_4_nonorientable_dichotomy():
    q_piece = SeifertPiece(base_orientable=False, crosscaps=1, cones=(),
                           b=0, boundary_count=2, ident="Q")
    child = SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                         boundary_count=1, ident="C")
    no_vertical = GluingMatrix(1, 0, 0, -1)     # child arc lands in [1, 2]
    with_vertical = GluingMatrix(1, -2, -2, 3)  # tau = -3/2 goes vertical
    g0 = PlumbingGraph([q_piece, child],
                       [Edge("C", 0, "Q", 1, no_vertical, "e0")], "solid-torus")
    g1 = PlumbingGraph([q_piece, child],
                       [Edge("C", 0, "Q", 1, with_vertical, "e0")], "solid-torus")
    assert detect_tree(g0).detected == SlopeArc.point(VERTICAL)
    assert detect_tree(g1).detected.is_full
    _report("4 non-orientable base dichotomy",
            "fibre point without a vertical child, full circle with one")


def test_criterion_5_endpoints_never_strong():
    rng = random.Random(505)
    count = 0
    arcs = 0
    while count < 200:
        graph = rand_valid_solid_tree(rng, max_pieces=4)
        result = detect_tree(graph)
        count += 1
        assert not result.detected.is_empty
        if result.detected.is_point or result.detected.is_full:
            continue
        arcs += 1
        for end in result.detected.endpoints():
            assert result.strong_status(end) != Strength.STRONG
    _report("5 endpoint exclusion",
            f"{count} trees, {arcs} non-degenerate arcs, all endpoints not strong")


def test_criterion_6_splitting_invariance():
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        graph = rand_valid_closed(rng, max_pieces=4, min_pieces=3)
        if len(graph.edges) < 2:
            continue
        answers = {decide_ctf(graph, split_edge=edge).admits
                   for edge in graph.edges}
        assert len(answers) == 1
        checked += 1
    _report("6 splitting invariance", f"{checked} closed instances, 0 disagreements")


def test_criterion_7_witness_validity():
    rng = random.Random(707)
    checked = admitted = 0
    while checked < 100:
        graph = rand_valid_closed(rng, max_pieces=4, min_pieces=2)
        verdict = decide_ctf(graph)
        checked += 1
        if verdict.admits:
            admitted += 1
            assert revalidate_witness(graph, verdict.witness)
    assert admitted > 0
    _report("7 witness validity",
            f"{checked} instances, {admitted} witnesses, all re-validated")


def test_criterion_8_degenerate_cross_check():
    rng = random.Random(808)
    count = 200
    degenerate = 0
    for _ in range(count):
        graph = rand_valid_solid_tree(rng, max_pieces=4)
        report = check_degenerate(graph)
        assert report.consistent, (report.branch, report.explanation)
        degenerate += report.is_degenerate
    _report("8 degenerate cross-check",
            f"{count} trees, {degenerate} degenerate, 0 disagreements")


def test_criterion_9_equivariance():
    rng = random.Random(909)
    for _ in range(50):
        graph = rand_valid_solid_tree(rng, max_pieces=3)
        base = detect_tree(graph)
        matrix = rand_matrix(rng)
        pid, via = graph.root()
        adapter = SeifertPiece(base_orientable=True, cones=(),
                               b=rng.randint(-1, 1), boundary_count=2,
                               ident="adapter")
        reframed = PlumbingGraph(
            list(graph.pieces.values()) + [adapter],
            list(graph.edges) + [Edge(pid, via, "adapter", 0, matrix,
                                      f"e{len(graph.edges)}")],
            "solid-torus")
        effective = product_transport(adapter).compose(matrix)
        assert detect_tree(reframed).detected == act_arc(effective, base.detected)
    _report("9 equivariance", "50 random unimodular re-framings, exact act_arc match")


def test_criterion_10_half_half_fixture():
    piece = SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                         boundary_count=1, ident="a")
    family = ConstraintFamily(())
    assert core_interval(piece, family) == (-2, -1)
    assert jn_refine_low(piece, family, n_max=64) is None
    assert jn_refine_high(piece, family, n_max=64) is None
    assert jn_exhaustive_extremal(piece, family, "low", 16) is None
    assert jn_exhaustive_extremal(piece, family, "high", 16) is None
    graph = PlumbingGraph([piece], [], "solid-torus")
    result = detect_tree(graph)
    assert result.detected == SlopeArc.from_tau_interval(-2, -1)
    assert result.strong_status(slope_of_tau(-2)) == Strength.NOT_STRONG
    assert result.strong_status(slope_of_tau(-1)) == Strength.NOT_STRONG
    for t in (F(-3, 2), F(-4, 3), F(-7, 4), F(-5, 3)):
        assert result.strong_status(slope_of_tau(t)) == Strength.STRONG
    _report("10 half-half fixture",
            "detected [-2,-1], strong interior (-2,-1), refinements absent both ways")
