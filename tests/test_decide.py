"""Tree evaluation, degenerate analysis, witnesses and the closed decision."""

import copy
import json
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tautfol.cli
import tautfol.decide
import tautfol.graph
from tautfol import (
    ConstraintFamily,
    DecisionError,
    DetectionResult,
    Edge,
    GluingMatrix,
    PieceError,
    PlumbingGraph,
    RoleError,
    SeifertPiece,
    Slope,
    SlopeArc,
    Strength,
    VERTICAL,
    act,
    act_arc,
    check_degenerate,
    classify_piece,
    decide_ctf,
    detect_relative,
    detect_tree,
    detects,
    dump_manifold,
    extract_witness,
    load_manifold,
    rational_longitude,
    revalidate_witness,
    simplest_slope,
    slope_of_tau,
)
from tautfol.decide import ROOT_KEY, iter_piece_evaluations
from tautfol.graph import (
    homology,
    parse_manifold,
    post_order,
    presentation,
    split_at_edge,
    subtree_longitudes,
)
from tautfol.seifert import product_transport
from conftest import (
    plumbing_chain,
    rand_closed,
    rand_matrix,
    rand_solid_tree,
    rand_valid_closed,
    rand_valid_solid_tree,
)
from helpers import TWO_VERTICAL_CHILDREN, DenseH1

F = Fraction


def piece(ident, cones, b=0, r=1, orientable=True, crosscaps=0):
    return SeifertPiece(base_orientable=orientable, cones=tuple(cones), b=b,
                        boundary_count=r, crosscaps=crosscaps, ident=ident)


def n2_tree():
    return PlumbingGraph([piece("k", [], orientable=False, crosscaps=1)],
                         [], "solid-torus")


def one_piece_tree(cones, b=0):
    return PlumbingGraph([piece("a", cones, b=b)], [], "solid-torus")


Q_PIECE = piece("Q", [], r=2, orientable=False, crosscaps=1)
HALFHALF = piece("C", [(2, 1), (2, 1)])
M_NOVERT = GluingMatrix(1, 0, 0, -1)       # [-2,-1] -> [1,2], no vertical
M_VERT = GluingMatrix(1, -2, -2, 3)        # sends tau = -3/2 to vertical


# ---------------------------------------------------------------------------
# detect_tree fixtures
# ---------------------------------------------------------------------------


def test_n2_tree():
    res = detect_tree(n2_tree())
    assert res.detected == SlopeArc.point(VERTICAL)
    assert res.strong_status(VERTICAL) == Strength.STRONG


def test_single_piece_interval():
    res = detect_tree(one_piece_tree([(2, 1), (2, 1)]))
    assert res.detected == SlopeArc.from_tau_interval(-2, -1)
    assert res.strong_status(slope_of_tau(F(-3, 2))) == Strength.STRONG
    assert res.strong_status(slope_of_tau(-2)) == Strength.NOT_STRONG


def test_q_root_point_when_no_vertical_child():
    g = PlumbingGraph([Q_PIECE, HALFHALF],
                      [Edge("C", 0, "Q", 1, M_NOVERT, "e0")], "solid-torus")
    res = detect_tree(g)
    assert res.detected == SlopeArc.point(VERTICAL)
    assert res.strong_status(VERTICAL) == Strength.NOT_STRONG


def test_q_root_full_when_vertical_child():
    g = PlumbingGraph([Q_PIECE, HALFHALF],
                      [Edge("C", 0, "Q", 1, M_VERT, "e0")], "solid-torus")
    res = detect_tree(g)
    assert res.detected.is_full
    assert res.strong_status(VERTICAL) == Strength.NOT_STRONG
    assert res.strong_status(Slope(1, 1)) == Strength.STRONG


def test_product_root_transports_statuses():
    prod = piece("T", [], r=2)
    g = PlumbingGraph([prod, HALFHALF],
                      [Edge("C", 0, "T", 1, M_NOVERT, "e0")], "solid-torus")
    res = detect_tree(g)
    # Child arc [1, 2] through tau -> -tau twice: the product map is tau -> -tau.
    assert res.detected == SlopeArc.from_tau_interval(-2, -1)
    for end in res.detected.endpoints():
        assert res.strong_status(end) == Strength.NOT_STRONG
    assert res.strong_status(slope_of_tau(F(-3, 2))) == Strength.STRONG


def test_cable_meridian_exception():
    cable = piece("r", [(2, 1)], r=2)
    g = PlumbingGraph([cable, HALFHALF],
                      [Edge("C", 0, "r", 1, GluingMatrix(-3, -1, -1, 0), "e0")],
                      "solid-torus")
    res = detect_tree(g)
    target = Slope(-3, 1)  # tau = 3, an interior integer slope
    assert res.detected.contains(target)
    assert res.strong_status(target) == Strength.INDETERMINATE
    [exc] = [e for e in res.exceptions if e.slope == target]
    assert "cable" in exc.reason


def test_cable_exception_from_an_added_child_exception():
    """tests/golden/cable_chain.json: the cable piece p4 adds the
    indeterminate 2/1 inside its own arc, which is no end of that arc, and
    the cable piece p1 above it carries it up as 7/1.  So a cable child's
    exceptions are not only the ends of its transported arc, even on the
    horizontal-interval branch."""
    g = load_manifold(Path(__file__).resolve().parent / "golden" / "cable_chain.json")
    nodes = tautfol.decide._evaluate(g, None)
    assert [n.piece.ident for n in nodes] == ["p5", "p4", "p1"]
    for node, slope in zip(nodes[1:], (Slope(2, 1), Slope(7, 1))):
        result = node.result
        assert node.piece.is_cable_space and result.branch == "horizontal-interval"
        assert slope not in result.detected.endpoints()
        assert result.strong_status(slope) == Strength.INDETERMINATE


def test_degenerate_fibration_exception():
    root = piece("r", [(3, 1)], b=-1, r=2)
    qchild = piece("q", [(2, 1)], orientable=False, crosscaps=1)
    g = PlumbingGraph([root, qchild],
                      [Edge("q", 0, "r", 1, GluingMatrix(-2, -1, -3, -1), "e0")],
                      "solid-torus")
    res = detect_tree(g)
    lam = rational_longitude(g).slope
    assert lam == Slope(2, 3)
    assert res.strong_status(lam) == Strength.INDETERMINATE
    [exc] = [e for e in res.exceptions if e.slope == lam]
    assert "fibre" in exc.reason


def test_vertical_degenerate_tree():
    # Child detects exactly the root fibre slope: detected set is that point.
    qchild = piece("q", [(3, 1)], orientable=False, crosscaps=1)
    root = piece("r", [(2, 1), (2, 1)], r=2)
    # Transport the child's vertical point to the root's vertical slope.
    m = GluingMatrix(1, 2, 0, -1)  # (1,0) -> (1,0)
    g = PlumbingGraph([root, qchild], [Edge("q", 0, "r", 1, m, "e0")],
                      "solid-torus")
    res = detect_tree(g)
    assert res.detected == SlopeArc.point(VERTICAL)
    lam = rational_longitude(g).slope
    assert lam == VERTICAL
    rep = check_degenerate(g)
    assert rep.is_degenerate and rep.predicted and rep.consistent
    assert "vertical-longitude" in rep.branch


def test_tree_requires_valid_graph():
    bad = PlumbingGraph([piece("a", [(2, 1)], r=2)], [], "solid-torus")
    with pytest.raises(RoleError):
        detect_tree(bad)


def test_check_degenerate_needs_betti_one():
    with pytest.raises(RoleError, match="^rational longitude needs betti = 1, got 2$"):
        check_degenerate(plumbing_chain(4, leaves=True))


def test_walk_rejects_a_cycle():
    # Validation rejects the cycle before any walk starts, the longitude's
    # walk too.
    swap = GluingMatrix(0, 1, 1, 0)
    g = PlumbingGraph(
        [piece("r", [(2, 1)], r=2), piece("x", [(2, 1)], r=3), piece("y", [(3, 1)], r=2)],
        [Edge("x", 2, "r", 1, swap, "e0"), Edge("y", 0, "x", 0, swap, "e1"),
         Edge("y", 1, "x", 1, swap, "e2")],
        "solid-torus")
    with pytest.raises(RoleError):
        iter_piece_evaluations(g)
    with pytest.raises(RoleError, match="not a tree"):
        rational_longitude(g)


def _counting(monkeypatch, modules, name):
    """Patch ``name`` in each of ``modules`` to record its first argument's
    ident (a piece's) and call through; the list of records."""
    calls, function = [], getattr(modules[0], name)

    def counting(piece, *args, **kwargs):
        calls.append(piece.ident)
        return function(piece, *args, **kwargs)

    for module in modules:
        # raising=False: a module that has no such name gains one that the
        # count would see, should it ever call it.
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


def test_kernel_runs_once_per_piece(monkeypatch):
    # Patched in seifert too, so a membership query that falls back to the
    # kernel is counted.
    calls = _counting(monkeypatch, (tautfol.decide, tautfol.seifert), "detect_relative")
    checks = _counting(monkeypatch, (tautfol.decide,), "detects")
    g = plumbing_chain(24)
    res = detect_tree(g)
    assert sorted(calls) == sorted(g.pieces)
    # The graph keeps its evaluation: extraction only rechecks each piece
    # that has children, by one membership query that the core interval
    # answers, and the other questions call the kernel no more.
    calls.clear()
    extract_witness(g, simplest_slope(res.detected))
    assert calls == []
    assert sorted(checks) == sorted(f"p{i}" for i in range(23))
    calls.clear()
    iter_piece_evaluations(g)
    check_degenerate(g)
    assert calls == []
    # detect_tree itself evaluates the tree on every call.
    assert detect_tree(g) == res
    assert len(calls) == 24
    calls.clear()
    iter_piece_evaluations(g, n_max=5)
    check_degenerate(g, n_max=5)
    assert len(calls) == 24


def test_work_on_the_1000_piece_chain(monkeypatch):
    """The pinned 1,000-piece chain (`python tests/conftest.py 1000`), read
    as the CLI reads it: detection runs the kernel once per piece and builds
    no gluing matrix; extraction runs no kernel, builds no gluing matrix
    (a child's slope is carried back without inverting the edge) and asks
    no arc whether it holds the vertical slope (the kernel's branch and the
    realized slopes already say)."""
    counts = dict.fromkeys(("matrices", "vertical"), 0)
    make, holds = GluingMatrix.__init__, SlopeArc.contains_vertical

    def counting_make(self, *args):
        counts["matrices"] += 1
        make(self, *args)

    def counting_holds(self):
        counts["vertical"] += 1
        return holds(self)

    g = parse_manifold(json.loads(json.dumps(dump_manifold(plumbing_chain(1000)))))
    kernel = _counting(monkeypatch, (tautfol.decide, tautfol.seifert), "detect_relative")
    monkeypatch.setattr(GluingMatrix, "__init__", counting_make)
    monkeypatch.setattr(SlopeArc, "contains_vertical", counting_holds)
    res = detect_tree(g)
    assert sorted(kernel) == sorted(g.pieces)  # no product piece: one call each
    assert counts["matrices"] == 0
    target = simplest_slope(res.detected)
    kernel.clear()
    counts.update(matrices=0, vertical=0)
    witness = extract_witness(g, target)
    assert (len(kernel), counts["matrices"], counts["vertical"]) == (0, 0, 0)
    assert len(witness) == 1000


def test_longitudes_come_from_one_walk_only(monkeypatch):
    """Detection and extraction compute no longitude; decide_ctf and
    rational_longitude compute each piece's once, in the longitude walk."""
    longitudes = _counting(monkeypatch, (tautfol.graph, tautfol.decide), "piece_longitude")
    g = plumbing_chain(24)
    extract_witness(g, simplest_slope(detect_tree(g).detected))
    iter_piece_evaluations(g, n_max=5)
    assert longitudes == []
    closed = plumbing_chain(24, "closed")
    for split_edge in (None, "e11", "e22"):
        decide_ctf(closed, split_edge=split_edge)
        assert sorted(longitudes) == sorted(closed.pieces), split_edge
        longitudes.clear()
    rational_longitude(g)
    assert sorted(longitudes) == sorted(g.pieces)


def test_betti_errors_come_before_the_kernel(monkeypatch):
    """A closed chain with leaves (b1 = 1) is refused by decide_ctf, at a
    known split edge or an unknown one, and TWO_VERTICAL_CHILDREN (b1 = 2)
    by check_degenerate, before the kernel runs."""
    kernel = _counting(monkeypatch, (tautfol.decide, tautfol.seifert), "detect_relative")
    closed = plumbing_chain(12, "closed", leaves=True)
    for split_edge in (None, "e5", "e9999"):
        with pytest.raises(RoleError, match=r"^not a rational homology sphere \(betti = 1\)$"):
            decide_ctf(closed, split_edge=split_edge)
    with pytest.raises(RoleError, match="^rational longitude needs betti = 1, got 2$"):
        check_degenerate(parse_manifold(TWO_VERTICAL_CHILDREN))
    assert kernel == []


def test_each_graph_is_validated_once(monkeypatch, capsys):
    """Validity is decided once per graph, where it is built: the questions
    asked of a solid tree, decide_ctf on a closed graph and every command
    validate nothing more, a copy or a pickle validates its twin once, and
    oracle-check on a closed file validates the graph and the two sides
    that split_at_edge builds."""
    validated, validate = [], tautfol.graph.validate

    def counting(graph):
        validated.append(graph)
        return validate(graph)

    monkeypatch.setattr(tautfol.graph, "validate", counting)
    g = plumbing_chain(6)
    assert validated == [g]
    extract_witness(g, simplest_slope(detect_tree(g).detected))
    iter_piece_evaluations(g)
    check_degenerate(g)
    rational_longitude(g)
    assert validated == [g]
    for twin_of in (copy.copy, copy.deepcopy, lambda graph: pickle.loads(pickle.dumps(graph))):
        validated.clear()
        twin = twin_of(g)
        detect_tree(twin)
        rational_longitude(twin)
        assert validated == [twin]
    validated.clear()
    closed = plumbing_chain(6, "closed")
    decide_ctf(closed)
    assert validated == [closed]
    samples = Path(__file__).resolve().parent.parent / "samples"
    for command, sample in (("validate", "closed_admits"), ("longitude", "two_piece_tree"),
                            ("detect", "two_piece_tree"), ("ctf", "closed_admits"),
                            ("oracle-check", "two_piece_tree")):
        validated.clear()
        assert tautfol.cli.main([command, str(samples / f"{sample}.json")]) == 0
        capsys.readouterr()
        assert len(validated) == 1, command
    validated.clear()
    assert tautfol.cli.main(["oracle-check", str(samples / "closed_admits.json")]) == 0
    capsys.readouterr()
    assert [graph.role for graph in validated] == ["closed", "solid-torus", "solid-torus"]


def test_evaluation_is_kept_on_its_own_graph():
    path = Path(__file__).resolve().parent.parent / "samples" / "two_piece_tree.json"
    g, h = load_manifold(path), load_manifold(path)
    assert detect_tree(g) == detect_tree(h)
    nodes_g, nodes_h = g.evaluations[None], h.evaluations[None]
    assert all(a is not b for a, b in zip(nodes_g, nodes_h))
    assert extract_witness(g, simplest_slope(nodes_g[-1].result.detected))
    assert g.evaluations[None] is nodes_g
    with pytest.raises(AttributeError):
        g.pieces = {}
    with pytest.raises(TypeError):
        g.pieces["extra"] = g.pieces["root"]
    with pytest.raises(AttributeError):
        g.edges = ()
    with pytest.raises(AttributeError):
        g.role = "closed"


def _records():
    """One of each record the library answers with, built by the calls that
    return them, then a slope, an arc and a gluing matrix."""
    samples = Path(__file__).resolve().parent.parent / "samples"
    piece = SeifertPiece(True, ((2, 1), (3, 1)), boundary_count=2)
    family = ConstraintFamily((SlopeArc.from_tau_interval(Fraction(1, 5), Fraction(2, 5)),))
    result = detect_relative(piece, family)
    closed = load_manifold(samples / "closed_admits.json")
    tree = load_manifold(samples / "two_piece_tree.json")
    return [piece, family, result, result.high_certificate, result.exceptions[0],
            closed.edges[0], rational_longitude(tree), check_degenerate(tree),
            decide_ctf(closed), Slope(1, 2), family.arcs[0], closed.edges[0].matrix]


def test_records_are_read_only_values():
    records = _records()
    assert [type(r).__name__ for r in records] == [
        "SeifertPiece", "ConstraintFamily", "DetectionResult", "JNCertificate",
        "ExceptionalSlope", "Edge", "LongitudeResult", "DegenerateReport", "CtfVerdict",
        "Slope", "SlopeArc", "GluingMatrix"]
    for record in records:
        for name in record._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) is before
        assert record == tuple(record)
    for value in records[-3:]:  # the value types, also set members and dict keys
        assert hash(value) == hash(tuple(value))
    # The derived values a graph's kept evaluation depends on.
    piece = records[0]
    for name in ("b_eff", "horizontal_sum", "cone_order_lcm", "n", "is_n2",
                 "is_solid_torus_piece", "is_product_piece", "is_cable_space"):
        before = getattr(piece, name)
        with pytest.raises(AttributeError):
            setattr(piece, name, 5)
        with pytest.raises(AttributeError):
            delattr(piece, name)
        assert getattr(piece, name) == before
    with pytest.raises(AttributeError):
        piece.extra = 1
    # Values: equal when built apart from equal fields, also to the plain tuple.
    again = SeifertPiece(True, [[2, 1], [3, 1]], boundary_count=2)
    assert again == piece and hash(again) == hash(piece)
    assert piece == (True, ((2, 1), (3, 1)), 0, 2, 0, None)
    assert piece != SeifertPiece(True, ((2, 1), (3, 1)), boundary_count=2, ident="x")
    assert len(records[1]) == 1  # a family's length counts its arcs
    # _replace builds through the checks and derives afresh.
    assert piece._replace(b=3).b_eff == 3
    with pytest.raises(PieceError):
        piece._replace(cones=((2, 2),))


def test_records_copy_and_pickle():
    samples = Path(__file__).resolve().parent.parent / "samples"
    graph = load_manifold(samples / "two_piece_tree.json")
    result = detect_tree(graph)
    for record in _records() + [result]:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
    # A graph has no value equality: compare what it describes and detects.
    # Its kept evaluation is made afresh, not copied, and its diagnostics
    # are those of its own build.
    for twin in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert type(twin) is PlumbingGraph and twin is not graph
        assert (twin.evaluations, twin.diagnostics) == ({}, graph.diagnostics)
        assert dump_manifold(twin) == dump_manifold(graph)
        assert detect_tree(twin) == result


def test_deep_chain_needs_no_recursion():
    g = plumbing_chain(600)
    assert len(g.pieces) > sys.getrecursionlimit() // 2
    res = detect_tree(g)
    target = simplest_slope(res.detected)
    witness = extract_witness(g, target)
    assert revalidate_witness(g, witness)


def _h1_longitude(g):
    """(b1, longitude, order) read from H_1 of the whole graph, solved by the
    dense Smith normal form, the order None unless b1 = 1.  The longitude
    is the class p*h - q*d on the root torus that dies in H_1(g; Q): p*fh =
    q*fd for the images fh, fd of h and d in the free quotient, which are
    parallel since that kernel is one line whatever b1 is."""
    pid, j = g.root()
    dense = DenseH1(presentation(g))
    fh = dense.free_image({("h", pid): 1})
    fd = dense.free_image({("d", pid, j): 1})
    i = next(i for i, (h, d) in enumerate(zip(fh, fd)) if h or d)
    slope = Slope(fd[i], fh[i])
    assert all(slope.p * h == slope.q * d for h, d in zip(fh, fd))
    order = (dense.element_order({("h", pid): slope.p, ("d", pid, j): -slope.q})
             if dense.betti == 1 else None)
    return dense.betti, slope, order


def test_tree_longitudes_match_homology():
    """The longitude walk's Betti number, longitude and order at the root
    are the ones H_1 gives, on 800 solid trees drawn with crosscap pieces
    half the time, so that 55 have b1 >= 2 (39 of them at a crosscap root);
    rational_longitude, which reads the same walk, agrees on 1,500 more
    trees of b1 = 1."""
    high_betti, high_crosscap_roots = 0, 0
    for seed in range(800):
        g = rand_solid_tree(random.Random(seed), max_pieces=8, q_prob=0.5)
        expected = _h1_longitude(g)
        *_, root = subtree_longitudes(g).values()
        assert tuple(root) == expected, seed
        if expected[0] >= 2:
            high_betti += 1
            high_crosscap_roots += not g.pieces[g.root()[0]].base_orientable
    assert high_betti >= 50 and high_crosscap_roots >= 30
    rng = random.Random(2026)
    orders, crosscap_roots, vertical_children = 0, 0, 0
    for draw in range(1500):
        g = rand_valid_solid_tree(rng, max_pieces=6)
        result = rational_longitude(g)
        assert (1, result.slope, result.order) == _h1_longitude(g), draw
        orders += result.order > 1
        crosscap_roots += not g.pieces[g.root()[0]].base_orientable
        # Every subtree of a b1 = 1 tree has b1 = 1; count the vertical
        # longitudes in their parent's frame.
        longitudes = subtree_longitudes(g)
        for _, _, children in post_order(g):
            vertical_children += sum(act(t, longitudes[cid].slope).is_vertical
                                     for _, _, cid, t in children)
    assert orders > 500 and crosscap_roots > 100 and vertical_children > 20


def test_betti_test_at_every_split_matches_homology():
    """decide_ctf reads b1 off the two sides' walks at the split torus, at
    every edge, and names it when it is not 0; with an unknown split edge,
    it reads b1 at the first edge before naming the edges."""
    spheres, positive = 0, 0
    for seed in range(1000):
        g = rand_closed(random.Random(seed), max_pieces=6)
        if g is None:
            continue
        betti = homology(g).betti
        spheres += betti == 0
        positive += betti > 0
        for e in g.edges:
            if betti == 0:
                decide_ctf(g, split_edge=e.ident)
            else:
                with pytest.raises(RoleError, match=f"betti = {betti}"):
                    decide_ctf(g, split_edge=e.ident)
        with pytest.raises(RoleError, match=f"betti = {betti}" if betti else "no edge 'e9'"):
            decide_ctf(g, split_edge="e9")
    assert spheres + positive >= 1000 and positive >= 15


def test_ctf_cuts_in_place_with_one_walk_per_side(monkeypatch):
    """decide_ctf builds no PlumbingGraph and walks each side of the cut
    torus once, rooted at its end there; the Betti check and detection read
    the same walk."""
    g = load_manifold(Path(__file__).resolve().parent / "golden" / "closed_five.json")
    expected = decide_ctf(g, split_edge=g.edges[1].ident)
    built, roots = [], []
    init, walk = PlumbingGraph.__init__, tautfol.graph.post_order

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    def counting_walk(graph, *root):
        roots.append(root)
        return walk(graph, *root)

    monkeypatch.setattr(PlumbingGraph, "__init__", counting_init)
    # subtree_longitudes walks through the graph module's binding.
    monkeypatch.setattr(tautfol.graph, "post_order", counting_walk)
    monkeypatch.setattr(tautfol.decide, "post_order", counting_walk)
    edge = g.edges[1]
    assert decide_ctf(g, split_edge=edge.ident) == expected and expected.admits
    assert len(built) == 0
    assert roots == [((edge.from_piece, edge.from_bdry),), ((edge.to_piece, edge.to_bdry),)]


def test_rooted_walks_match_the_split_sides():
    """At every edge of 200 seeded closed graphs, the walk rooted at each end
    is the post_order walk of the matching side of split_at_edge, the
    reference, and gives the same root longitude, detected arc and
    exceptions."""
    rng = random.Random(3101)
    ends = 0
    for draw in range(200):
        g = rand_valid_closed(rng, max_pieces=6)
        for edge in g.edges:
            sides = split_at_edge(g, edge)
            for side, root in zip(sides, ((edge.from_piece, edge.from_bdry),
                                          (edge.to_piece, edge.to_bdry))):
                walk = post_order(g, root)
                assert walk == post_order(side), (draw, edge.ident)
                *_, here = subtree_longitudes(g, walk).values()
                *_, there = subtree_longitudes(side).values()
                assert here == there, (draw, edge.ident)
                here = tautfol.decide._evaluate(g, None, walk)[-1].result
                there = detect_tree(side)
                assert (here.branch, here.detected, here.exceptions) == (
                    there.branch, there.detected, there.exceptions), (draw, edge.ident)
                ends += 1
    assert ends >= 600


def test_lambda_membership_random(rng):
    for _ in range(40):
        g = rand_valid_solid_tree(rng)
        lam = rational_longitude(g).slope
        assert detect_tree(g).detected.contains(lam)


# ---------------------------------------------------------------------------
# check_degenerate
# ---------------------------------------------------------------------------


def test_degenerate_n2():
    rep = check_degenerate(n2_tree())
    assert rep.is_degenerate and rep.consistent
    assert "twisted I-bundle" in rep.branch


def test_degenerate_interval_case():
    rep = check_degenerate(one_piece_tree([(2, 1), (2, 1)]))
    assert not rep.is_degenerate and rep.consistent


def test_degenerate_q_branch():
    g = PlumbingGraph([Q_PIECE, HALFHALF],
                      [Edge("C", 0, "Q", 1, M_NOVERT, "e0")], "solid-torus")
    rep = check_degenerate(g)
    assert rep.is_degenerate and rep.predicted and rep.consistent
    assert "non-orientable" in rep.branch


def test_degenerate_random(rng):
    for _ in range(40):
        g = rand_valid_solid_tree(rng)
        rep = check_degenerate(g)
        assert rep.consistent, (rep.branch, rep.explanation)
        if rep.is_degenerate:
            assert rep.result.detected == SlopeArc.point(rep.longitude)


# A point off every longitude below, and the tree each case reads it on: one
# piece, whose point is not its longitude, and a leaf glued to a root piece,
# where the leaf's point is not the leaf's longitude either.
OFF_LONGITUDE = Slope(7, 3)
DEGENERATE_MISMATCHES = [
    (lambda: one_piece_tree([(2, 1), (2, 1)]),
     "the relative detected set is not a point; the degenerate point differs "
     "from the rational longitude"),
    (lambda: PlumbingGraph([HALFHALF, piece("R", [(2, 1), (3, 1)], r=2)],
                           [Edge("C", 0, "R", 1, M_NOVERT, "e0")], "solid-torus"),
     "a child is degenerate away from its longitude; the degenerate point "
     "differs from the rational longitude"),
]


@pytest.mark.parametrize("make,explanation", DEGENERATE_MISMATCHES)
def test_check_degenerate_reports_a_kernel_it_contradicts(monkeypatch, tmp_path,
                                                          make, explanation):
    """A kernel answering one fixed point everywhere is degenerate where the
    branch conditions say it is not, at a point that is not the longitude:
    check_degenerate says so, and oracle-check exits 3."""
    monkeypatch.setattr(tautfol.decide, "detect_relative",
                        lambda piece, family, n_max=None: DetectionResult(
                            SlopeArc.point(OFF_LONGITUDE)))
    rep = check_degenerate(make())
    assert rep.is_degenerate and not rep.predicted and not rep.consistent
    assert rep.longitude != OFF_LONGITUDE
    assert explanation in rep.explanation
    path = tmp_path / "m.json"
    path.write_text(json.dumps(dump_manifold(make())), encoding="utf-8")
    assert tautfol.cli.main(["oracle-check", str(path)]) == 3


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------


def test_witness_single_piece():
    g = one_piece_tree([(2, 1), (2, 1)])
    target = slope_of_tau(F(-3, 2))
    assert extract_witness(g, target) == {ROOT_KEY: target}
    with pytest.raises(DecisionError):
        extract_witness(g, slope_of_tau(5))


def test_witness_revalidates_random(rng):
    for _ in range(30):
        g = rand_valid_solid_tree(rng)
        res = detect_tree(g)
        target = simplest_slope(res.detected)
        assignment = extract_witness(g, target)
        assert assignment[ROOT_KEY] == target
        # Per-piece re-validation through the relative kernel.
        pid, via = g.root()
        _assert_assignment_coherent(g, assignment, target)


def _assert_assignment_coherent(graph, assignment, root_slope):
    pid, via = graph.root()
    slopes = {}  # (piece, boundary) -> slope in the piece frame
    slopes[(pid, via)] = root_slope
    for e in graph.edges:
        s = assignment[e.ident]
        slopes[(e.from_piece, e.from_bdry)] = s
        slopes[(e.to_piece, e.to_bdry)] = act(e.matrix, s)
    for qid, p in graph.pieces.items():
        tuple_slopes = [slopes[(qid, j)] for j in range(p.boundary_count)]
        arcs = tuple(SlopeArc.point(s) for s in tuple_slopes[:-1])
        rel = detect_relative(p, ConstraintFamily(arcs))
        assert rel.detected.contains(tuple_slopes[-1]), (qid, tuple_slopes)


def test_witness_longitude_target(rng):
    # The rational longitude is always detected, so always witnessable.
    for _ in range(20):
        g = rand_valid_solid_tree(rng)
        lam = rational_longitude(g).slope
        assignment = extract_witness(g, lam)
        _assert_assignment_coherent(g, assignment, lam)


# ---------------------------------------------------------------------------
# decide_ctf
# ---------------------------------------------------------------------------


def closed_two(matrix):
    a = piece("A", [(2, 1), (2, 1)])
    b = piece("B", [(2, 1), (2, 1)])
    return PlumbingGraph([a, b], [Edge("A", 0, "B", 0, matrix, "e0")], "closed")


def test_ctf_admits_overlapping_arcs():
    g = closed_two(GluingMatrix(1, -3, 0, -1))  # image of [-2,-1] is [-2,-1]
    verdict = decide_ctf(g)
    assert verdict.admits
    assert str(verdict.witness["e0"]) == "1/1"  # tau = -1, simplest in the overlap
    assert verdict.note.startswith("admits")
    assert revalidate_witness(g, verdict.witness)
    assert set(verdict.piece_tags) == {"A", "B"}


def test_ctf_refuses_disjoint_arcs():
    g = closed_two(GluingMatrix(1, 1, 0, -1))  # image of [-2,-1] is [2,3]
    assert homology(g).betti == 0
    verdict = decide_ctf(g)
    assert not verdict.admits
    assert verdict.witness == {}
    assert "no gluing coherent" in verdict.note


def test_ctf_role_errors():
    solid = one_piece_tree([(2, 1), (2, 1)])
    with pytest.raises(RoleError):
        decide_ctf(solid)
    betti_positive = PlumbingGraph(
        [piece("A", [], r=1), piece("B", [], r=1)],
        [Edge("A", 0, "B", 0, GluingMatrix(1, 0, 0, -1), "e0")], "closed")
    with pytest.raises(RoleError):
        decide_ctf(betti_positive)


def test_ctf_rejects_edgeless():
    g = PlumbingGraph([piece("A", [(2, 1), (2, 1), (2, 1)])], [], "closed")
    # A one-piece "closed" graph still has a dangling torus, so it fails
    # validation; build the error path through decide_ctf's own check.
    with pytest.raises(RoleError):
        decide_ctf(g)


def test_ctf_unknown_split_edge_names_the_edges():
    g = closed_two(GluingMatrix(1, 1, 0, -1))
    with pytest.raises(RoleError, match="no edge 'e9'; the edges are: e0"):
        decide_ctf(g, split_edge="e9")


def test_ctf_refuses_a_foreign_edge():
    """An Edge is taken only when it equals the graph's edge of that ident:
    another graph's e0 carries another gluing matrix."""
    samples = Path(__file__).resolve().parent.parent / "samples"
    g = load_manifold(samples / "closed_admits.json")
    foreign = load_manifold(samples / "closed_refuses.json").edges[0]
    assert foreign.ident == "e0" and foreign != g.edges[0]
    assert decide_ctf(g, split_edge=g.edges[0]).admits
    assert decide_ctf(g, split_edge=load_manifold(samples / "closed_admits.json").edges[0]).admits
    with pytest.raises(RoleError, match=r"^no edge Edge\(.*\); the edges are: e0$"):
        decide_ctf(g, split_edge=foreign)
    # The Betti error comes first, as for an unknown ident.
    with pytest.raises(RoleError, match="betti = 1"):
        decide_ctf(plumbing_chain(3, "closed", leaves=True), split_edge=foreign)


def test_ctf_splitting_invariance(rng):
    for _ in range(15):
        g = rand_valid_closed(rng, max_pieces=4, min_pieces=2)
        answers = {decide_ctf(g, split_edge=e).admits for e in g.edges}
        assert len(answers) == 1


def test_ctf_witness_revalidates(rng):
    for _ in range(15):
        g = rand_valid_closed(rng)
        verdict = decide_ctf(g)
        if verdict.admits:
            assert revalidate_witness(g, verdict.witness)


def test_revalidate_witness_refuses_a_gap_or_a_moved_slope():
    g = rand_valid_closed(random.Random(10))
    witness = decide_ctf(g).witness
    assert len(witness) == 3 and revalidate_witness(g, witness)
    for ident in witness:
        assert not revalidate_witness(g, {k: s for k, s in witness.items() if k != ident})
    # Each piece of closed_two detects [-2, -1] in tau; tau = 5 is outside.
    g = closed_two(GluingMatrix(1, -3, 0, -1))
    assert revalidate_witness(g, decide_ctf(g).witness)
    assert not revalidate_witness(g, {"e0": slope_of_tau(5)})


def test_a_witness_tuple_that_detects_nothing_is_named(monkeypatch):
    """extract_witness checks each tuple that realize returns: one that does
    not detect the piece's slope raises DecisionError naming the piece, the
    branch, the tuple and the slope."""
    g = load_manifold(Path(__file__).resolve().parent.parent / "samples"
                      / "two_piece_tree.json")
    target = simplest_slope(detect_tree(g).detected)
    monkeypatch.setattr(tautfol.decide, "realize", lambda *args: (VERTICAL,))
    with pytest.raises(DecisionError) as info:
        extract_witness(g, target)
    assert str(info.value) == (
        "witness search failed at piece root (branch horizontal-interval): "
        f"the constraint tuple (1/0) does not detect {target}")


# Splits on which witness extraction once failed: the root saw two child arcs
# through the fibre slope, so its kernel returned the full circle.
PINNED_SPLITS = [(563, "e2"), (584, "e0"), (955, "e0"), (1085, "e1"), (1355, "e0")]


def test_every_split_realizes_a_witness():
    graphs = [rand_valid_closed(random.Random(seed), max_pieces=6) for seed in range(300)]
    graphs += [rand_valid_closed(random.Random(seed)) for seed, _ in PINNED_SPLITS]
    for g in graphs:
        verdicts = [decide_ctf(g, split_edge=e.ident) for e in g.edges]
        assert len({v.admits for v in verdicts}) == 1
        for v in verdicts:
            assert not v.admits or revalidate_witness(g, v.witness), v.split_edge
    for seed, edge in PINNED_SPLITS:
        g = rand_valid_closed(random.Random(seed))
        assert decide_ctf(g, split_edge=edge).admits


def test_solid_tree_witnesses_at_simplest_and_endpoints():
    for seed in range(200):
        g = rand_valid_solid_tree(random.Random(seed), max_pieces=6)
        detected = detect_tree(g).detected
        for target in (simplest_slope(detected), *detected.endpoints()):
            assert revalidate_witness(g, extract_witness(g, target)), (seed, target)


# ---------------------------------------------------------------------------
# classify_piece
# ---------------------------------------------------------------------------


def test_classify_vertical():
    p = piece("A", [(2, 1)], r=2)
    assert classify_piece(p, {0: VERTICAL, 1: Slope(1, 2)}) == "VerticalAnnulus"


def test_classify_fibration():
    # D^2(2,2) fibres over the circle with fibre boundary the longitude.
    p = piece("A", [(2, 1), (2, 1)])
    lam = rational_longitude(one_piece_tree([(2, 1), (2, 1)])).slope
    assert classify_piece(p, {0: lam}) == "Fibration"
    assert classify_piece(p, {0: slope_of_tau(F(-3, 2))}) == "HorizontalNonFibred"


def test_equivariance_under_reframing(rng):
    for _ in range(30):
        g = rand_valid_solid_tree(rng, 3)
        base = detect_tree(g)
        m = rand_matrix(rng)
        pid, via = g.root()
        adapter = SeifertPiece(base_orientable=True, cones=(),
                               b=rng.randint(-1, 1), boundary_count=2,
                               ident="adapter")
        g2 = PlumbingGraph(
            list(g.pieces.values()) + [adapter],
            list(g.edges) + [Edge(pid, via, "adapter", 0, m,
                                  f"e{len(g.edges)}")],
            "solid-torus")
        effective = product_transport(adapter).compose(m)
        got = detect_tree(g2)
        assert got.detected == act_arc(effective, base.detected)
        # Longitudes transform the same way.
        assert rational_longitude(g2).slope == act(effective,
                                                   rational_longitude(g).slope)


def test_exceptions_always_inside_detected(rng):
    for _ in range(40):
        g = rand_valid_solid_tree(rng)
        res = detect_tree(g)
        for exc in res.exceptions:
            assert res.detected.contains(exc.slope)


def test_interior_product_piece_is_transparent(rng):
    """Splicing a product piece into an edge with the compensating matrix
    changes nothing: the detected set, statuses and longitude all agree."""
    k_matrix = product_transport(
        SeifertPiece(base_orientable=True, cones=(), b=0, boundary_count=2))
    for _ in range(20):
        leaf = piece("leaf", [(2, 1), (3, 1)])
        root = piece("root", [(2, 1)], r=2)
        m = rand_matrix(rng)
        direct = PlumbingGraph([root, leaf],
                               [Edge("leaf", 0, "root", 1, m, "e0")],
                               "solid-torus")
        spliced = PlumbingGraph(
            [root, leaf, piece("mid", [], r=2)],
            [Edge("leaf", 0, "mid", 1, m, "e0"),
             Edge("mid", 0, "root", 1, k_matrix, "e1")],
            "solid-torus")
        a, b = detect_tree(direct), detect_tree(spliced)
        assert a.detected == b.detected
        assert a.exceptions == b.exceptions
        assert rational_longitude(direct).slope == rational_longitude(spliced).slope


def test_iter_piece_evaluations_orders_children_first():
    g = PlumbingGraph([Q_PIECE, HALFHALF],
                      [Edge("C", 0, "Q", 1, M_NOVERT, "e0")], "solid-torus")
    rows = iter_piece_evaluations(g)
    assert [p.ident for p, _ in rows] == ["C", "Q"]
    assert len(rows[0][1]) == 0 and len(rows[1][1]) == 1
