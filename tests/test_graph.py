"""Plumbing graphs: validation, homology, longitudes, gauge shifts, JSON."""

import json
import random
import re
from fractions import Fraction

import pytest

from tautfol import (
    Edge,
    GluingMatrix,
    ManifoldFormatError,
    PlumbingGraph,
    RoleError,
    SeifertPiece,
    Slope,
    VERTICAL,
    check_degenerate,
    decide_ctf,
    detect_tree,
    dump_manifold,
    parse_manifold,
    rational_longitude,
    validate,
)
from tautfol.graph import homology, split_at_edge, subtree_longitudes
from conftest import rand_matrix, rand_valid_closed, rand_valid_solid_tree


def n2_graph():
    return PlumbingGraph(
        [SeifertPiece(base_orientable=False, crosscaps=1, cones=(), b=0,
                      boundary_count=1, ident="k")], [], "solid-torus")


def one_piece(cones, b=0, ident="a"):
    return PlumbingGraph(
        [SeifertPiece(base_orientable=True, cones=tuple(cones), b=b,
                      boundary_count=1, ident=ident)], [], "solid-torus")


def two_piece_closed(matrix_rows, cones_a=((2, 1), (2, 1)), cones_b=((2, 1), (2, 1))):
    a = SeifertPiece(base_orientable=True, cones=cones_a, b=0, boundary_count=1, ident="A")
    b = SeifertPiece(base_orientable=True, cones=cones_b, b=0, boundary_count=1, ident="B")
    m = GluingMatrix(*[x for row in matrix_rows for x in row])
    return PlumbingGraph([a, b], [Edge("A", 0, "B", 0, m, "e0")], "closed")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_clean():
    assert validate(two_piece_closed([[1, -3], [0, -1]])) == []


def test_validate_cycle():
    a = SeifertPiece(base_orientable=True, cones=((2, 1),), b=0, boundary_count=2, ident="A")
    b = SeifertPiece(base_orientable=True, cones=((2, 1),), b=0, boundary_count=2, ident="B")
    m = GluingMatrix(1, 0, 0, -1)
    g = PlumbingGraph([a, b], [Edge("A", 0, "B", 0, m, "e0"),
                               Edge("A", 1, "B", 1, m, "e1")], "closed")
    assert any("not a tree" in d for d in validate(g))


def test_an_unknown_piece_is_a_role_error():
    """A tree whose edge leads to a piece that does not exist: every walk
    names the edge and the piece, in validate's words."""
    a = SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0, boundary_count=2,
                     ident="A")
    g = PlumbingGraph([a], [Edge("A", 1, "Z", 0, GluingMatrix(0, 1, 1, 0), "e0")],
                      "solid-torus")
    message = "edge e0 references unknown piece 'Z'"
    with pytest.raises(RoleError, match=f"^{message}; "):
        rational_longitude(g)
    with pytest.raises(RoleError, match=f"^{message}; "):
        detect_tree(g)


def test_an_unreachable_cycle_is_not_a_tree():
    """A root piece plus two pieces glued to each other twice: one dangling
    torus, but the walk from the root reaches one piece of three."""
    a = SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0, boundary_count=1,
                     ident="A")
    b, c = (SeifertPiece(base_orientable=True, cones=((2, 1),), b=0, boundary_count=2,
                         ident=i) for i in "BC")
    m = GluingMatrix(0, 1, 1, 0)
    g = PlumbingGraph([a, b, c], [Edge("B", 0, "C", 0, m, "e0"),
                                  Edge("B", 1, "C", 1, m, "e1")], "solid-torus")
    assert g.root() == ("A", 0)
    with pytest.raises(RoleError, match="^underlying graph is not a tree$"):
        rational_longitude(g)


def test_a_walk_back_to_the_root_piece_is_not_a_tree():
    """Two edges between the root piece and one other: the only dangling
    torus is the root's, so a missing edge met on the walk means the walk
    came back to the root piece."""
    a = SeifertPiece(base_orientable=True, cones=((2, 1),), b=0, boundary_count=3, ident="A")
    b = SeifertPiece(base_orientable=True, cones=((3, 1),), b=0, boundary_count=2, ident="B")
    m = GluingMatrix(0, 1, 1, 0)
    g = PlumbingGraph([a, b], [Edge("A", 1, "B", 0, m, "e0"), Edge("A", 2, "B", 1, m, "e1")],
                      "solid-torus")
    assert g.root() == ("A", 0)
    assert "error: underlying graph is not a tree" in validate(g)
    with pytest.raises(RoleError, match="^underlying graph is not a tree$"):
        rational_longitude(g)


@pytest.mark.parametrize("matrix,leaf,message", [
    (GluingMatrix(1, 0, 0, 1), {"base_orientable": True, "cones": ((2, 1), (3, 1))},
     "edge e0: orientation-incompatible gluing (det != -1)"),
    (GluingMatrix(0, 1, 1, 0), {"base_orientable": False, "crosscaps": 2, "cones": ()},
     "piece leaf: crosscap number >= 2 is unsupported"),
], ids=["det-plus-one", "crosscap-two"])
@pytest.mark.parametrize("walk", [rational_longitude, subtree_longitudes, check_degenerate])
def test_no_walk_answers_on_an_invalid_graph(matrix, leaf, message, walk):
    """A solid tree that validate refuses gets validate's error from every
    walk, not a longitude or a Betti number."""
    root = SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0, boundary_count=2,
                        ident="root")
    g = PlumbingGraph([root, SeifertPiece(b=0, boundary_count=1, ident="leaf", **leaf)],
                      [Edge("root", 1, "leaf", 0, matrix, "e0")], "solid-torus")
    with pytest.raises(RoleError, match=f"^{re.escape(message)}$"):
        walk(g)


def test_only_a_closed_graph_splits():
    """The sides of a split are kept as valid solid trees, which holds only
    for a valid closed graph: a solid tree, whose split would leave one side
    with two dangling tori, is refused."""
    root = SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0, boundary_count=2,
                        ident="root")
    leaf = SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0, boundary_count=1,
                        ident="leaf")
    edge = Edge("root", 1, "leaf", 0, GluingMatrix(0, 1, 1, 0), "e0")
    with pytest.raises(RoleError, match="^only closed graphs split into two solid tori$"):
        split_at_edge(PlumbingGraph([root, leaf], [edge], "solid-torus"), edge)


def test_validate_orientation():
    g = two_piece_closed([[1, 0], [0, 1]])
    assert any("orientation-incompatible" in d for d in validate(g))


def test_validate_role_mismatch():
    g = PlumbingGraph(
        [SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                      boundary_count=1, ident="A")], [], "closed")
    assert any("dangling" in d for d in validate(g))


def test_validate_names_an_unknown_role():
    g = PlumbingGraph(
        [SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                      boundary_count=1, ident="A")], [], "open")
    assert "error: unknown role 'open'" in validate(g)


def test_root_of_an_unvalidated_graph_counts_its_dangling_tori():
    g = PlumbingGraph(
        [SeifertPiece(base_orientable=True, cones=((2, 1),), b=0,
                      boundary_count=2, ident="A")], [], "solid-torus")
    with pytest.raises(RoleError, match="expected one dangling torus, found 2"):
        g.root()


def test_validate_warnings():
    g = PlumbingGraph(
        [SeifertPiece(base_orientable=True, cones=((2, 3),), b=0,
                      boundary_count=1, ident="A")], [], "solid-torus")
    diags = validate(g)
    assert any("not normalized" in d for d in diags)
    assert any("solid torus" in d for d in diags)
    assert not any(d.startswith("error:") for d in diags)


# ---------------------------------------------------------------------------
# Homology and longitudes
# ---------------------------------------------------------------------------


def test_n2_homology_and_longitude():
    g = n2_graph()
    summary = homology(g)
    assert summary.betti == 1
    assert summary.invariant_factors == (2,)
    lam = rational_longitude(g)
    assert lam.slope == VERTICAL
    assert lam.order == 2


def test_single_piece_longitude():
    # D^2(2, 3) with gammas (1/2, 1/3): kernel slope has tau = -5/6.
    g = one_piece([(2, 1), (3, 1)])
    lam = rational_longitude(g)
    assert lam.slope == Slope(5, 6)
    assert lam.slope.tau == Fraction(-5, 6)
    assert lam.order == 1
    # tau(longitude) = b - sum gamma for a one-piece graph.
    g2 = one_piece([(3, 2), (5, 4)], b=-2)
    lam2 = rational_longitude(g2)
    assert lam2.slope.tau == -2 - (Fraction(2, 3) + Fraction(4, 5))


def test_closed_instances_have_betti_zero():
    g = two_piece_closed([[1, -3], [0, -1]])
    assert homology(g).betti == 0
    assert homology(g).invariant_factors == (2, 2, 4)


def test_solid_role_has_betti_one(rng):
    for _ in range(20):
        g = rand_valid_solid_tree(rng)
        assert homology(g).betti == 1


def test_longitude_order_divides_torsion(rng):
    from math import prod
    for _ in range(30):
        g = rand_valid_solid_tree(rng)
        lam = rational_longitude(g)
        torsion = prod(homology(g).invariant_factors) or 1
        assert lam.order >= 1
        assert torsion % lam.order == 0


# ---------------------------------------------------------------------------
# Gauge shifts
# ---------------------------------------------------------------------------


def test_normalize_gauge_shift():
    # beta shifted by a with compensating b gives the same normalized graph.
    g1 = one_piece([(2, 1), (3, 1)], b=0)
    g2 = one_piece([(2, 3), (3, -2)], b=-1 + 1)  # 3//2 = 1, -2//3 = -1
    assert homology(g1).invariant_factors == homology(g2).invariant_factors
    assert rational_longitude(g1).slope == rational_longitude(g2).slope
    assert detect_tree(g1).detected == detect_tree(g2).detected


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


MANIFOLD = {
    "role": "solid-torus",
    "pieces": [
        {"id": "a", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [3, 1]], "b": 0, "boundary": 1},
    ],
    "edges": [],
}


def test_parse_round_trip():
    g = parse_manifold(MANIFOLD)
    assert dump_manifold(g) == MANIFOLD
    two = {
        "role": "closed",
        "pieces": [
            {"id": 0, "base": {"orientable": True, "crosscaps": 0},
             "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
            {"id": 1, "base": {"orientable": False, "crosscaps": 1},
             "cones": [], "b": 2, "boundary": 1},
        ],
        "edges": [
            {"from": [0, 0], "to": [1, 0], "matrix": [[1, -3], [0, -1]]},
        ],
    }
    g2 = parse_manifold(two)
    assert dump_manifold(g2) == two


def test_parse_rejects_unknown_keys():
    bad = json.loads(json.dumps(MANIFOLD))
    bad["extra"] = 1
    with pytest.raises(ManifoldFormatError):
        parse_manifold(bad)
    bad2 = json.loads(json.dumps(MANIFOLD))
    bad2["pieces"][0]["color"] = "blue"
    with pytest.raises(ManifoldFormatError):
        parse_manifold(bad2)


def test_parse_rejects_bad_shapes():
    for mutate in (
        lambda d: d.update(role="open"),
        lambda d: d["pieces"][0].update(boundary="one"),
        lambda d: d["pieces"][0].update(cones=[[2]]),
        lambda d: d.pop("edges"),
        lambda d: d["pieces"][0]["base"].update(orientable=1),
    ):
        data = json.loads(json.dumps(MANIFOLD))
        mutate(data)
        with pytest.raises(ManifoldFormatError):
            parse_manifold(data)


def test_parse_rejects_non_unimodular_edge():
    data = {
        "role": "closed",
        "pieces": [
            {"id": "a", "base": {"orientable": True, "crosscaps": 0},
             "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
            {"id": "b", "base": {"orientable": True, "crosscaps": 0},
             "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
        ],
        "edges": [{"from": ["a", 0], "to": ["b", 0], "matrix": [[2, 0], [0, 1]]}],
    }
    with pytest.raises(ManifoldFormatError):
        parse_manifold(data)


def test_duplicate_boundary_use_rejected():
    a = SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                     boundary_count=1, ident="A")
    b = SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                     boundary_count=1, ident="B")
    c = SeifertPiece(base_orientable=True, cones=((2, 1), (2, 1)), b=0,
                     boundary_count=1, ident="C")
    m = GluingMatrix(1, 0, 0, -1)
    with pytest.raises(ManifoldFormatError):
        PlumbingGraph([a, b, c], [Edge("A", 0, "B", 0, m, "e0"),
                                  Edge("A", 0, "C", 0, m, "e1")], "closed")


def test_edges_that_share_an_ident_are_refused():
    """A witness, --split-edge and the slopes a piece reads all key a torus
    by its edge's ident, so two edges may not share one, the default ""
    included; a closed graph that admits, rebuilt so, is refused too."""
    a, c = (SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0,
                         boundary_count=1, ident=i) for i in "AC")
    b = SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0, boundary_count=2,
                     ident="B")
    m = GluingMatrix(0, 1, 1, 0)
    for extra in ((), ("e0",)):  # the default ident "", then a named one
        with pytest.raises(ManifoldFormatError, match="^duplicate edge idents$"):
            PlumbingGraph([a, b, c], [Edge("A", 0, "B", 0, m, *extra),
                                      Edge("B", 1, "C", 0, m, *extra)], "closed")
    rng = random.Random(3)
    refused = 0
    while refused < 5:
        g = rand_valid_closed(rng, max_pieces=5, min_pieces=3)
        if not decide_ctf(g).admits:
            continue
        with pytest.raises(ManifoldFormatError, match="^duplicate edge idents$"):
            PlumbingGraph(g.pieces.values(), [e._replace(ident="") for e in g.edges],
                          "closed")
        refused += 1


def test_piece_ids_that_print_alike_are_refused():
    """Reports, witnesses and diagnostics name a piece by str(ident), so the
    integer 1 and the string "1", distinct keys, would name two pieces
    alike: the JSON report's piece_tags would hold one of them."""
    base = {"orientable": True, "crosscaps": 0}
    data = {"role": "closed",
            "pieces": [{"id": 1, "base": base, "cones": [[2, 1], [3, 1]], "b": -2,
                        "boundary": 1},
                       {"id": "1", "base": base, "cones": [[2, 1], [5, 2]], "b": -1,
                        "boundary": 1}],
            "edges": [{"from": [1, 0], "to": ["1", 0], "matrix": [[2, 1], [1, 0]]}]}
    with pytest.raises(ManifoldFormatError, match="^piece ids 1 and '1' print alike$"):
        parse_manifold(data)
    a, b = (SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0,
                         boundary_count=1, ident=i) for i in ("7", 7))
    with pytest.raises(ManifoldFormatError, match="^piece ids '7' and 7 print alike$"):
        PlumbingGraph([a, b], [Edge("7", 0, 7, 0, GluingMatrix(0, 1, 1, 0), "e0")], "closed")
    data["pieces"][1]["id"] = "2"
    data["edges"][0]["to"][0] = "2"
    assert dump_manifold(parse_manifold(data)) == data


def _reference_is_tree(ids, ends):
    """A tree: every edge end a known piece, |E| = |V| - 1, and a breadth-
    first search from one piece reaches every piece."""
    if any(end not in ids for pair in ends for end in pair) or len(ends) != len(ids) - 1:
        return False
    seen, queue = {ids[0]}, [ids[0]]
    for here in queue:
        for pair in ends:
            if here in pair:
                for there in pair:
                    if there not in seen:
                        seen.add(there)
                        queue.append(there)
    return len(seen) == len(ids)


def test_tree_verdict_matches_a_breadth_first_reference():
    """validate calls the underlying graph a tree exactly when every edge
    joins two known pieces, |E| = |V| - 1 and one search reaches every
    piece, on seeded multigraphs: repeated piece pairs, edges between two
    boundaries of one piece, and edge ends at an unknown piece."""
    rng = random.Random(20)
    m = GluingMatrix(0, 1, 1, 0)
    trees = 0
    for _ in range(2400):
        ids = [f"p{i}" for i in range(rng.randint(1, 6))]
        ends = []
        # Half the draws have |E| = |V| - 1, where a cycle and a second
        # component come together.
        for _ in range(len(ids) - 1 if rng.random() < 0.5 else rng.randint(0, 7)):
            pair = [rng.choice(ids) if rng.random() < 0.9 else "Z" for _ in range(2)]
            if rng.random() < 0.1:
                pair[1] = pair[0]  # two boundaries of one piece
            elif rng.random() < 0.2 and ends:
                pair = list(rng.choice(ends))  # the same pair of pieces again
            ends.append(tuple(pair))
        used = {}
        edges = []
        for k, (x, y) in enumerate(ends):
            jx = used[x] = used.get(x, -1) + 1
            jy = used[y] = used.get(y, -1) + 1
            edges.append(Edge(x, jx, y, jy, m, f"e{k}"))
        pieces = [SeifertPiece(base_orientable=True, cones=((2, 1), (3, 1)), b=0,
                               boundary_count=max(1, used.get(i, -1) + 1 + rng.randint(0, 1)),
                               ident=i)
                  for i in ids]
        g = PlumbingGraph(pieces, edges, rng.choice(("closed", "solid-torus")))
        expected = _reference_is_tree(ids, ends)
        trees += expected
        assert ("error: underlying graph is not a tree" not in g.diagnostics) == expected, ends
    assert 300 < trees < 2100


READER_BASE = {
    "role": "closed",
    "pieces": [
        {"id": "A", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [3, 1]], "b": 0, "boundary": 1},
        {"id": "M", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [3, 1]], "b": -1, "boundary": 2},
        {"id": "B", "base": {"orientable": True, "crosscaps": 0},
         "cones": [[2, 1], [2, 1]], "b": 0, "boundary": 1},
    ],
    "edges": [
        {"from": ["A", 0], "to": ["M", 0], "matrix": [[0, 1], [1, 0]]},
        {"from": ["M", 1], "to": ["B", 0], "matrix": [[1, -3], [0, -1]]},
    ],
}


def _set(path, value):
    """A mutation of READER_BASE that sets data[path[0]]...[path[-1]]."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return mutate


def _pop(path):
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return mutate


READER_ERRORS = [
    # manifold level
    (lambda d: ["not", "an", "object"], "manifold: expected an object"),
    (_set(("extra",), 1), "manifold: unknown keys ['extra']"),
    (_pop(("edges",)), "manifold: missing keys ['edges']"),
    (lambda d: (d.pop("role"), d.update(zz=1)), "manifold: unknown keys ['zz']"),
    (_set(("role",), "open"), "role must be 'closed' or 'solid-torus', got 'open'"),
    (_set(("pieces",), []), "pieces must be a non-empty list"),
    (_set(("pieces",), {}), "pieces must be a non-empty list"),
    (_set(("edges",), {}), "edges must be a list"),
    # piece level
    (_set(("pieces", 1), 5), "pieces[1]: expected an object"),
    (_set(("pieces", 1, "color"), "blue"), "pieces[1]: unknown keys ['color']"),
    (lambda d: (d["pieces"][1].pop("b"), d["pieces"][1].pop("cones")),
     "pieces[1]: missing keys ['b', 'cones']"),
    (_set(("pieces", 1, "id"), True), "pieces[1]: id must be a string or integer"),
    (_set(("pieces", 1, "id"), 1.5), "pieces[1]: id must be a string or integer"),
    (_set(("pieces", 1, "base"), []), "pieces[1].base: expected an object"),
    (_set(("pieces", 1, "base", "genus"), 0), "pieces[1].base: unknown keys ['genus']"),
    (_pop(("pieces", 1, "base", "crosscaps")), "pieces[1].base: missing keys ['crosscaps']"),
    (_set(("pieces", 1, "base", "orientable"), 1),
     "pieces[1].base.orientable must be a boolean"),
    (_set(("pieces", 1, "base", "crosscaps"), "0"),
     "pieces[1].base.crosscaps: expected an integer"),
    (_set(("pieces", 1, "base", "crosscaps"), False),
     "pieces[1].base.crosscaps: expected an integer"),
    (_set(("pieces", 1, "cones"), {}), "pieces[1].cones must be a list"),
    # a string or a dict would pass as a sequence of cones (tuple(map(tuple, ...)))
    (_set(("pieces", 1, "cones"), ""), "pieces[1].cones must be a list"),
    (_set(("pieces", 1, "cones", 1), [2]), "pieces[1].cones[1] must be [a, beta]"),
    (_set(("pieces", 1, "cones", 1), "2,1"), "pieces[1].cones[1] must be [a, beta]"),
    (_set(("pieces", 1, "cones", 1, 0), 3.0), "pieces[1].cones[1][0]: expected an integer"),
    (_set(("pieces", 1, "cones", 1, 1), None), "pieces[1].cones[1][1]: expected an integer"),
    (_set(("pieces", 1, "b"), "0"), "pieces[1].b: expected an integer"),
    (_set(("pieces", 1, "boundary"), 2.0), "pieces[1].boundary: expected an integer"),
    (lambda d: d["pieces"][1].update(b=None, boundary=None), "pieces[1].b: expected an integer"),
    (_set(("pieces", 1, "cones", 1), [1, 1]), "pieces[1]: cone order 1 < 2"),
    (_set(("pieces", 1, "cones", 1), [4, 2]), "pieces[1]: cone pair (4, 2) not coprime"),
    (_set(("pieces", 1, "base", "crosscaps"), 1),
     "pieces[1]: orientable base cannot carry crosscaps"),
    (lambda d: d["pieces"][1]["base"].update(orientable=False, crosscaps=0),
     "pieces[1]: non-orientable base needs crosscap number >= 1"),
    (lambda d: d["pieces"][1]["base"].update(orientable=False, crosscaps=-1),
     "pieces[1]: non-orientable base needs crosscap number >= 1"),
    (_set(("pieces", 1, "boundary"), 0), "pieces[1]: a piece needs at least one boundary torus"),
    # edge level
    (_set(("edges", 1), None), "edges[1]: expected an object"),
    (_set(("edges", 1, "label"), "x"), "edges[1]: unknown keys ['label']"),
    (_pop(("edges", 1, "matrix")), "edges[1]: missing keys ['matrix']"),
    (_set(("edges", 1, "from"), ["M"]), "edges[1].from must be [piece id, boundary index]"),
    (_set(("edges", 1, "to"), "B"), "edges[1].to must be [piece id, boundary index]"),
    (_set(("edges", 1, "from", 1), "1"), "edges[1].from[1]: expected an integer"),
    (_set(("edges", 1, "to", 1), True), "edges[1].to[1]: expected an integer"),
    # an edge end's piece id is a string or an integer, as pieces[k].id is:
    # true and 2.0 would alias the integer pieces 1 and 2
    (_set(("edges", 1, "from", 0), True), "edges[1].from[0]: expected a string or integer"),
    (_set(("edges", 1, "to", 0), 2.0), "edges[1].to[0]: expected a string or integer"),
    (_set(("edges", 1, "from", 0), None), "edges[1].from[0]: expected a string or integer"),
    (_set(("edges", 1, "matrix"), [[1, -3]]), "edges[1].matrix must be a 2x2 integer matrix"),
    (_set(("edges", 1, "matrix", 1), 7), "edges[1].matrix must be a 2x2 integer matrix"),
    (_set(("edges", 1, "matrix", 1, 0), 0.5), "edges[1].matrix[1][0]: expected an integer"),
    (_set(("edges", 1, "matrix"), [[2, 0], [0, 1]]),
     "edges[1]: gluing matrix must have determinant +-1"),
    # graph level
    (_set(("pieces", 2, "id"), "A"), "duplicate piece ids"),
    (_set(("edges", 1, "from"), ["A", 0]), "boundary ('A', 0) used by two edges"),
]


def test_reader_base_parses():
    assert dump_manifold(parse_manifold(READER_BASE)) == READER_BASE


def test_reader_accepts_int_subclasses():
    """An int subclass fails the one-expression shape test (``type(x) is
    int``) and is accepted by the field-by-field checks."""
    class Integer(int):
        pass

    data = json.loads(json.dumps(READER_BASE))
    data["pieces"][1]["b"] = Integer(-1)
    data["edges"][1]["matrix"][0][1] = Integer(-3)
    dumped = dump_manifold(parse_manifold(data))
    assert dumped == READER_BASE
    assert json.dumps(dumped) == json.dumps(READER_BASE)


def test_reader_accepts_a_piece_as_a_dict_subclass():
    """A dict subclass fails the one-expression shape test (``type(raw) is
    dict``) and loads, through the field-by-field checks, the same graph as
    a plain dict."""
    class Piece(dict):
        pass

    data = json.loads(json.dumps(READER_BASE))
    data["pieces"][1] = Piece(data["pieces"][1])
    graph, plain = parse_manifold(data), parse_manifold(READER_BASE)
    assert graph.pieces == plain.pieces and graph.edges == plain.edges
    assert dump_manifold(graph) == READER_BASE


@pytest.mark.parametrize("mutate,message", READER_ERRORS,
                         ids=[message for _, message in READER_ERRORS])
def test_reader_error_messages(mutate, message):
    """Every raise site of parse_manifold keeps its exact message."""
    data = json.loads(json.dumps(READER_BASE))
    replaced = mutate(data)
    if isinstance(replaced, list):
        data = replaced
    with pytest.raises(ManifoldFormatError) as excinfo:
        parse_manifold(data)
    assert str(excinfo.value) == message


def test_parse_rejects_an_unhashable_edge_end():
    """A list or object where an edge names its piece is a shape error, not
    a TypeError from the boundary index."""
    for end in (["M"], {"id": "M"}):
        data = json.loads(json.dumps(READER_BASE))
        data["edges"][1]["from"][0] = end
        with pytest.raises(ManifoldFormatError) as excinfo:
            parse_manifold(data)
        assert str(excinfo.value) == "edges[1].from must be [piece id, boundary index]"
