"""Plumbing graphs: trees of Seifert pieces glued along boundary tori.

The JSON manifold format is the external contract:

    {
      "role": "closed" | "solid-torus",
      "pieces": [
        {
          "id": <string or integer>,
          "base": {"orientable": <bool>, "crosscaps": <int>},
          "cones": [[a, beta], ...],
          "b": <int>,
          "boundary": <int>
        }, ...
      ],
      "edges": [
        {"from": [id, idx], "to": [id, idx], "matrix": [[a, b], [c, d]]}, ...
      ]
    }

Boundary indices are 0-based.  Unknown keys are rejected.  An edge matrix
sends slope pairs (p, q) on the from-side torus frame to the to-side frame.

Every boundary torus carries the frame (h, h#) with h the fibre class of its
piece and h# = -d_j for the section class d_j used in the homology relations
a_i*x_i + beta_i*h = 0 and sum(x_i) + sum(d_j) + b*h = 0; this is the sign
pinned by the requirement that rational longitudes land inside detected sets.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd, lcm
from types import MappingProxyType

from .snf import Presentation, smith_normal_form
from .seifert import PieceError, SeifertPiece
from .slopes import VERTICAL, GluingMatrix, act


# The key of the dangling torus's slope in a witness, beside the edge idents.
ROOT_KEY = "root"


class ManifoldFormatError(ValueError):
    """Malformed manifold JSON."""


class RoleError(ValueError):
    """Operation applied to a graph with the wrong role."""


class Edge(namedtuple("Edge", "from_piece from_bdry to_piece to_bdry matrix ident",
                      defaults=("",))):
    """A JSJ torus: boundary ``from_bdry`` of piece ``from_piece`` glued to
    boundary ``to_bdry`` of ``to_piece`` by the GluingMatrix ``matrix``."""

    __slots__ = ()

    def other_side(self, piece_id, bdry):
        if (self.from_piece, self.from_bdry) == (piece_id, bdry):
            return self.to_piece, self.to_bdry
        return self.from_piece, self.from_bdry


class PlumbingGraph:
    """A tree of Seifert pieces with GL(2,Z) edge gluings.

    Building a graph validates it once: ``diagnostics`` is the tuple that
    ``validate`` gives, whose errors require_valid raises.  A graph is
    read-only once built (``pieces`` is a read-only mapping), so that
    verdict cannot go stale, nor can ``evaluation``, the one attribute
    written later: the tree evaluation of ``decide``, None until one is
    made.  The questions asked after ``detect_tree`` read it instead of
    walking the tree again, and it lives as long as the graph does.  Piece
    ids are distinct and print distinctly (not 1 and "1"), edge idents are
    distinct, no edge is named ROOT_KEY, and no boundary torus carries two
    edges.  A copy or a pickle is rebuilt from the pieces, edges and role,
    so it validates and evaluates afresh.
    """

    __slots__ = ("pieces", "edges", "role", "_by_boundary", "evaluation", "diagnostics")

    def __init__(self, pieces, edges, role):
        by_ident = {p.ident: p for p in pieces}
        if len(by_ident) != len(pieces):
            raise ManifoldFormatError("duplicate piece ids")
        # Reports and diagnostics name a piece by str(ident): 1 and "1" clash.
        printed = {str(i): i for i in by_ident}
        if len(printed) != len(by_ident):
            first = next(i for i in by_ident if printed[str(i)] != i)
            raise ManifoldFormatError(
                f"piece ids {first!r} and {printed[str(first)]!r} print alike")
        edges = tuple(edges)
        idents = {e.ident for e in edges}
        if len(idents) != len(edges):
            raise ManifoldFormatError("duplicate edge idents")
        if ROOT_KEY in idents:
            raise ManifoldFormatError(f"edge ident {ROOT_KEY!r} names the dangling torus")
        by_boundary = {}
        for e in edges:
            for key in ((e.from_piece, e.from_bdry), (e.to_piece, e.to_bdry)):
                if key in by_boundary:
                    raise ManifoldFormatError(f"boundary {key} used by two edges")
                by_boundary[key] = e
        for name, value in (("pieces", MappingProxyType(by_ident)), ("edges", edges),
                            ("role", role), ("_by_boundary", by_boundary),
                            ("evaluation", None)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "diagnostics", tuple(validate(self)))

    def __setattr__(self, name, value):
        if name != "evaluation":
            raise AttributeError("PlumbingGraph is read-only")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return PlumbingGraph, (tuple(self.pieces.values()), self.edges, self.role)

    def edge_at(self, piece_id, bdry):
        return self._by_boundary.get((piece_id, bdry))

    def dangling_count(self):
        """How many boundary tori no edge uses: the declared boundary counts
        less the in-range edge ends, so a huge declared count costs nothing."""
        pieces = self.pieces
        used = sum(1 for pid, j in self._by_boundary
                   if pid in pieces and 0 <= j < pieces[pid].boundary_count)
        return sum(p.boundary_count for p in pieces.values()) - used

    def root(self):
        """The unique dangling torus of a solid-torus-role graph.  With one
        dangling torus the declared boundary counts add up to at most one
        more than twice the number of edges, which bounds the walk.  A valid
        graph is known to have one; only an invalid one is counted."""
        if self.role != "solid-torus":
            raise RoleError("only solid-torus graphs have a root torus")
        if any(d.startswith("error:") for d in self.diagnostics):
            count = self.dangling_count()
            if count != 1:
                raise RoleError(f"expected one dangling torus, found {count}")
        return next((p.ident, j) for p in self.pieces.values()
                    for j in range(p.boundary_count) if (p.ident, j) not in self._by_boundary)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(graph):
    """Diagnostics (strings prefixed 'error:' or 'warning:'); empty is clean."""
    out = []
    pieces = graph.pieces
    if graph.role not in ("closed", "solid-torus"):
        out.append(f"error: unknown role {graph.role!r}")
    for p in pieces.values():
        if not p.base_orientable and p.crosscaps > 1:
            out.append(f"error: piece {p.ident}: crosscap number >= 2 is unsupported")
        if p.is_solid_torus_piece:
            out.append(f"warning: piece {p.ident} is a fibred solid torus, not a JSJ piece")
        if p.is_product_piece:
            out.append(f"warning: piece {p.ident} is a product torus x interval, not a JSJ piece")
        for a, beta in p.cones:
            if not 0 < beta < a:
                out.append(
                    f"warning: piece {p.ident}: cone ({a}, {beta}) not normalized into (0, a)")
    # Tree check: connected and |edges| = |pieces| - 1, by union-find over
    # the edges with both ends known.
    parent = {i: i for i in pieces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Each union of two classes leaves one component fewer.  One component
    # takes |V| - 1 unions, each by an edge with both ends known and no
    # cycle, so with |E| = |V| - 1 it leaves no edge to close a cycle.
    components = len(parent)
    for e in graph.edges:
        for pid, idx in ((e.from_piece, e.from_bdry), (e.to_piece, e.to_bdry)):
            p = pieces.get(pid)
            if p is None:
                out.append(f"error: edge {e.ident} references unknown piece {pid!r}")
            elif not 0 <= idx < p.boundary_count:
                out.append(f"error: edge {e.ident} boundary index {idx} out of range")
        if e.matrix.det != -1:
            out.append(f"error: edge {e.ident}: orientation-incompatible gluing (det != -1)")
        if e.from_piece in parent and e.to_piece in parent:
            ra, rb = find(e.from_piece), find(e.to_piece)
            if ra != rb:
                parent[ra] = rb
                components -= 1
    if components > 1 or len(graph.edges) != len(parent) - 1:
        out.append("error: underlying graph is not a tree")
    dangling = graph.dangling_count()
    if graph.role == "closed" and dangling != 0:
        out.append(f"error: closed role but {dangling} dangling boundary tori")
    if graph.role == "solid-torus" and dangling != 1:
        out.append(f"error: solid-torus role but {dangling} dangling boundary tori")
    return out


def require_valid(graph):
    """Raise RoleError, naming every validation error, unless the graph is a
    valid tree of its role.  Every walk of the tree passes here first
    (post_order, split_at_edge), so this is the one gate on the standing
    hypothesis.  It reads the diagnostics the graph was built with."""
    errors = [d.removeprefix("error: ") for d in graph.diagnostics if d.startswith("error:")]
    if errors:
        raise RoleError("; ".join(errors))


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------


class HomologySummary(namedtuple("HomologySummary", "betti invariant_factors")):
    __slots__ = ()


def _hom_matrix(matrix):
    """Edge matrix rewritten to act on homology coordinates (P, Q) = (p, -q)."""
    return GluingMatrix(matrix.a, -matrix.b, -matrix.c, matrix.d)


def presentation(graph):
    """Integer presentation of H_1 of the underlying manifold."""
    gens = []
    for p in graph.pieces.values():
        gens.append(("h", p.ident))
        gens.extend(("x", p.ident, i) for i in range(p.n))
        gens.extend(("d", p.ident, j) for j in range(p.boundary_count))
        gens.extend(("z", p.ident, k) for k in range(p.crosscaps))
    pres = Presentation(gens)
    for p in graph.pieces.values():
        for i, (a, beta) in enumerate(p.cones):
            pres.add_relation({("x", p.ident, i): a, ("h", p.ident): beta})
        rel = {("h", p.ident): p.b}
        for i in range(p.n):
            rel[("x", p.ident, i)] = 1
        for j in range(p.boundary_count):
            rel[("d", p.ident, j)] = 1
        for k in range(p.crosscaps):
            rel[("z", p.ident, k)] = 2
        pres.add_relation(rel)
        if not p.base_orientable:
            pres.add_relation({("h", p.ident): 2})
    for e in graph.edges:
        m = _hom_matrix(e.matrix)
        hf = ("h", e.from_piece)
        df = ("d", e.from_piece, e.from_bdry)
        ht = ("h", e.to_piece)
        dt = ("d", e.to_piece, e.to_bdry)
        pres.add_relation({hf: 1, ht: -m.a, dt: -m.c})
        pres.add_relation({df: 1, ht: -m.b, dt: -m.d})
    return pres


def homology(graph):
    """The Betti number and torsion invariant factors of H_1, read from the
    dense Smith normal form of the whole presentation.  No command calls
    it: the longitude walk (subtree_longitudes) reads the Betti number
    off the pieces, and the tests check the walk against this."""
    pres = presentation(graph)
    diagonal = [abs(x) for x in smith_normal_form(pres.relations)[0] if x]
    return HomologySummary(
        betti=len(pres.generators) - len(diagonal),
        invariant_factors=tuple(x for x in diagonal if x > 1),
    )


class LongitudeResult(namedtuple("LongitudeResult", "slope order")):
    __slots__ = ()


# What subtree_longitudes carries up from each subtree: its first Betti
# number, its rational longitude (the boundary slope that dies in H_1 with
# rational coefficients, whatever the Betti number) and the longitude's
# order in H_1, None unless betti = 1.
SubtreeLongitude = namedtuple("SubtreeLongitude", "betti slope order")


def post_order(graph, root=None):
    """The list of the pieces of a rooted tree in post-order (depth-first,
    children in boundary-index order), the root last, as (piece id, boundary
    towards the parent, children).  Each child is (boundary index, edge,
    child piece id, transport), the transport taking the child's root frame
    to this piece's frame.  ``root``, the (piece id, boundary index) of the
    torus towards the parent, defaults to a solid tree's dangling torus; an
    end of a closed graph's edge roots that side of split_at_edge in place.
    The graph passes require_valid first, so every boundary but the one
    towards the parent carries an edge to a known piece, and the walk, which
    keeps its own stack (the depth of the tree is not limited by the
    interpreter's recursion limit), meets each piece once."""
    require_valid(graph)
    # Pre-order taking the children last-first; reversed, it is the post-order.
    order = []
    pieces, by_boundary = graph.pieces, graph._by_boundary
    stack = [graph.root() if root is None else root]
    while stack:
        pid, via = stack.pop()
        children = []
        for j in range(pieces[pid].boundary_count):
            if j == via:
                continue
            edge = by_boundary[pid, j]
            from_piece, from_bdry, to_piece, to_bdry, matrix, _ = edge
            if to_piece == pid and to_bdry == j:  # the child is the from-side
                cid, cbd, transport = from_piece, from_bdry, matrix
            else:
                cid, cbd, transport = to_piece, to_bdry, matrix.inverse()
            children.append((j, edge, cid, transport))
            stack.append((cid, cbd))
        order.append((pid, via, children))
    return order[::-1]


def piece_longitude(piece, children):
    """The SubtreeLongitude of the subtree rooted at ``piece``: its first
    Betti number b1, its rational longitude in the piece's frame on the
    boundary towards the parent, and the longitude's order when b1 = 1.
    ``children`` holds one (transport, SubtreeLongitude) per child subtree,
    the transport taking the child's root frame to this piece's frame.

    By Mayer-Vietoris each child subtree adds b1_c - 1, and the piece adds
    the dimension of H_1(piece; Q) modulo the child longitudes lambda_c: for
    a subtree with one boundary torus, the kernel of H_1(T; Q) -> H_1(M; Q)
    is one line, lambda, whatever b1(M) is.  Over a planar base h and the
    d_j span H_1(piece; Q) under one relation; a horizontal lambda_c sets
    d_c = -tau(lambda_c) h and a vertical one kills h, so with V vertical
    lambda_c the quotient has dimension max(1, V), and the class on the
    parent torus that dies in it is the fibre when V >= 1, and otherwise
    the slope completing a horizontal surface with the lambda_c
    (SeifertPiece.horizontal_completion).  Over a base with c crosscaps h is
    torsion, so a vertical lambda_c is dependent and the others kill their
    d_c: the dimension is c + V and the fibre dies.  So b1 = 1 exactly when
    every child has b1 = 1 and at most one lambda_c is vertical over a
    planar base, or none over a crosscap-1 base.  The order is derived in
    rational_longitude."""
    lams, vertical, excess = [], [], 0
    for transport, child in children:
        lam = act(transport, child.slope)
        lams.append(lam)
        if lam.is_vertical:
            vertical.append(child.order)
        excess += child.betti - 1
    if not piece.base_orientable:
        betti = piece.crosscaps + len(vertical) + excess
        return SubtreeLongitude(betti, VERTICAL, 2 if betti == 1 else None)
    if vertical:
        betti = len(vertical) + excess
        return SubtreeLongitude(betti, VERTICAL, vertical[0] if betti == 1 else None)
    slope = piece.horizontal_completion(lams)
    if excess:
        return SubtreeLongitude(1 + excess, slope, None)
    q, order = slope.q, 1
    for a, _ in piece.cones:
        order = lcm(order, a // gcd(a, q))
    for lam, (_, child) in zip(lams, children):
        m = child.order * lam.q
        order = lcm(order, m // gcd(m, q))
    return SubtreeLongitude(1, slope, order)


def subtree_longitudes(graph, walk=None):
    """The SubtreeLongitude of every subtree of a rooted tree, by the id of
    its root piece, the whole tree's last: carried up ``walk``, by default
    post_order(graph), by piece_longitude, with no H_1.  This fold is the
    only one that computes longitudes; decide's detection fold computes none."""
    longitudes = {}
    for pid, _, children in post_order(graph) if walk is None else walk:
        longitudes[pid] = piece_longitude(
            graph.pieces[pid],
            [(transport, longitudes[cid]) for _, _, cid, transport in children])
    return longitudes


def rational_longitude(graph):
    """The primitive boundary class that is torsion in H_1, and its order.

    One post-order walk over the tree carries each subtree's Betti number,
    longitude and order to its parent (subtree_longitudes), with no H_1.  By
    Mayer-Vietoris, the order in H_1(M_v) of a class on the root piece P_v
    of a subtree M_v is the least n that puts n times the class into the
    span of the relations of H_1(P_v) and the o_c lambda_c of every child
    c, since the kernel of H_1(T_c) -> H_1(M_c) is Z o_c lambda_c, with
    lambda_c the child's longitude and o_c its order.  These relations are
    linearly independent, with pivots x_i, d_via and d_c, so the order of
    lambda_v = p h - q d_via is the lcm of the denominators of its unique
    rational coefficients in them:

    * over a planar base with every lambda_c = (p_c, q_c) horizontal, the
      lcm of a_i / gcd(a_i, q) over the cones (a_i, beta_i) and of
      o_c q_c / gcd(o_c q_c, q) over the children;
    * with one vertical lambda_c, lambda_v = h and the order is o_c;
    * over a crosscap-1 base, lambda_v = h and 2h = 0 give the order 2.

    The walk's Betti number names the error when it is not 1."""
    *_, root = subtree_longitudes(graph).values()
    if root.betti != 1:
        raise longitude_error(root.betti)
    return LongitudeResult(root.slope, root.order)


def longitude_error(betti):
    """The error for a tree whose Betti number is not 1."""
    return RoleError(f"rational longitude needs betti = 1, got {betti}")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def split_at_edge(graph, edge):
    """Split a closed graph along a JSJ torus into two rooted solid tori.

    Returns (U, V): U rooted at the from-side frame, V at the to-side frame;
    each holds the pieces reachable from its side of the torus without
    crossing it.  The graph passes require_valid first, and each side is
    validated as it is built, like any graph.
    """
    require_valid(graph)
    if graph.role != "closed":
        raise RoleError("only closed graphs split into two solid tori")
    sides = []
    for root_piece, root_bdry in ((edge.from_piece, edge.from_bdry),
                                  (edge.to_piece, edge.to_bdry)):
        keep = {root_piece}
        frontier = [root_piece]
        edges = []
        while frontier:
            pid = frontier.pop()
            for j in range(graph.pieces[pid].boundary_count):
                e = graph.edge_at(pid, j)
                if e is None or (pid, j) == (root_piece, root_bdry):
                    continue
                oid, _ = e.other_side(pid, j)
                if oid not in keep:
                    keep.add(oid)
                    frontier.append(oid)
                    edges.append(e)
        pieces = [p for i, p in graph.pieces.items() if i in keep]
        sides.append(PlumbingGraph(pieces, edges, "solid-torus"))
    return tuple(sides)


# ---------------------------------------------------------------------------
# JSON manifold format
# ---------------------------------------------------------------------------


_MANIFOLD_KEYS = frozenset(("role", "pieces", "edges"))
_PIECE_KEYS = frozenset(("id", "base", "cones", "b", "boundary"))
_BASE_KEYS = frozenset(("orientable", "crosscaps"))
_EDGE_KEYS = frozenset(("from", "to", "matrix"))


def _expect_keys(obj, keys, where, *args):
    """Require a dict keyed by ``keys``; ``where.format(*args)`` only to raise."""
    if isinstance(obj, dict) and obj.keys() == keys:
        return
    where = where.format(*args)
    if not isinstance(obj, dict):
        raise ManifoldFormatError(f"{where}: expected an object")
    unknown = obj.keys() - keys
    if unknown:
        raise ManifoldFormatError(f"{where}: unknown keys {sorted(unknown)}")
    raise ManifoldFormatError(f"{where}: missing keys {sorted(keys - obj.keys())}")


def _int(value, where, *args):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ManifoldFormatError(f"{where.format(*args)}: expected an integer")


def _check_piece(raw, k):
    """The checks of one piece object field by field, in order: the first
    fault is named."""
    _expect_keys(raw, _PIECE_KEYS, "pieces[{}]", k)
    if not isinstance(raw["id"], (str, int)) or isinstance(raw["id"], bool):
        raise ManifoldFormatError(f"pieces[{k}]: id must be a string or integer")
    _expect_keys(raw["base"], _BASE_KEYS, "pieces[{}].base", k)
    if not isinstance(raw["base"]["orientable"], bool):
        raise ManifoldFormatError(f"pieces[{k}].base.orientable must be a boolean")
    _int(raw["base"]["crosscaps"], "pieces[{}].base.crosscaps", k)
    if not isinstance(raw["cones"], list):
        raise ManifoldFormatError(f"pieces[{k}].cones must be a list")
    for t, pair in enumerate(raw["cones"]):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ManifoldFormatError(f"pieces[{k}].cones[{t}] must be [a, beta]")
        _int(pair[0], "pieces[{}].cones[{}][0]", k, t)
        _int(pair[1], "pieces[{}].cones[{}][1]", k, t)
    _int(raw["b"], "pieces[{}].b", k)
    _int(raw["boundary"], "pieces[{}].boundary", k)


def _check_edge(raw, k):
    """The checks of one edge object field by field, in order: the first
    fault is named."""
    _expect_keys(raw, _EDGE_KEYS, "edges[{}]", k)
    for side in ("from", "to"):
        pair = raw[side]
        if not isinstance(pair, list) or len(pair) != 2 or isinstance(pair[0], (list, dict)):
            raise ManifoldFormatError(f"edges[{k}].{side} must be [piece id, boundary index]")
        # A piece id is what pieces[k].id may be: a bool or a float would
        # alias the integer pieces (True == 1, 2.0 == 2).
        if not isinstance(pair[0], (str, int)) or isinstance(pair[0], bool):
            raise ManifoldFormatError(f"edges[{k}].{side}[0]: expected a string or integer")
        _int(pair[1], "edges[{}].{}[1]", k, side)
    m = raw["matrix"]
    if (not isinstance(m, list) or len(m) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in m)):
        raise ManifoldFormatError(f"edges[{k}].matrix must be a 2x2 integer matrix")
    for i in range(2):
        for j in range(2):
            _int(m[i][j], "edges[{}].matrix[{}][{}]", k, i, j)


def parse_manifold(data):
    """Build a PlumbingGraph from a decoded JSON object (strict).

    Each piece and edge object is tested for its well-formed shape in one
    expression, a piece's field types and cone entries by SeifertPiece's
    own type test and an edge's matrix entries by GluingMatrix's; only an
    object failing a test goes through the field-by-field checks
    (_check_piece, _check_edge), which name the fault."""
    _expect_keys(data, _MANIFOLD_KEYS, "manifold")
    role = data["role"]
    if role not in ("closed", "solid-torus"):
        raise ManifoldFormatError(f"role must be 'closed' or 'solid-torus', got {role!r}")
    if not isinstance(data["pieces"], list) or not data["pieces"]:
        raise ManifoldFormatError("pieces must be a non-empty list")
    if not isinstance(data["edges"], list):
        raise ManifoldFormatError("edges must be a list")
    pieces = []
    for k, raw in enumerate(data["pieces"]):
        if not (type(raw) is dict and raw.keys() == _PIECE_KEYS
                and type(raw["id"]) in (str, int)
                and type(base := raw["base"]) is dict and base.keys() == _BASE_KEYS
                and type(cones := raw["cones"]) is list):
            _check_piece(raw, k)
            base, cones = raw["base"], raw["cones"]
        try:
            pieces.append(SeifertPiece(base["orientable"], tuple(map(tuple, cones)), raw["b"],
                                       raw["boundary"], base["crosscaps"], raw["id"]))
        except (PieceError, TypeError) as exc:
            # A field or cone entry of the wrong type fails the piece's type
            # test (or, not iterable, the tuple): named as a shape fault.
            _check_piece(raw, k)
            raise ManifoldFormatError(f"pieces[{k}]: {exc}") from exc
    edges = []
    for k, raw in enumerate(data["edges"]):
        if not (type(raw) is dict and raw.keys() == _EDGE_KEYS
                and type(src := raw["from"]) is list and len(src) == 2
                and type(src[0]) in (str, int) and type(src[1]) is int
                and type(dst := raw["to"]) is list and len(dst) == 2
                and type(dst[0]) in (str, int) and type(dst[1]) is int
                and type(m := raw["matrix"]) is list and len(m) == 2
                and type(top := m[0]) is list and type(bottom := m[1]) is list
                and len(top) == len(bottom) == 2):
            _check_edge(raw, k)
        (from_piece, from_bdry), (to_piece, to_bdry), (a, b), (c, d) = (
            raw["from"], raw["to"], *raw["matrix"])
        try:
            matrix = GluingMatrix(a, b, c, d)
        except ValueError as exc:
            _check_edge(raw, k)  # a matrix entry that is no integer is a shape fault
            raise ManifoldFormatError(f"edges[{k}]: {exc}") from exc
        edges.append(tuple.__new__(Edge, (from_piece, from_bdry, to_piece, to_bdry, matrix,
                                          f"e{k}")))
    return PlumbingGraph(pieces, edges, role)


def load_manifold(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: undecodable bytes or bad JSON; RecursionError: too deeply nested.
    except (OSError, ValueError, RecursionError) as exc:
        raise ManifoldFormatError(f"cannot read manifold file: {exc}") from exc
    return parse_manifold(data)


def dump_manifold(graph):
    """The strict-format JSON object describing a graph."""
    return {
        "role": graph.role,
        "pieces": [
            {
                "id": p.ident,
                "base": {"orientable": p.base_orientable, "crosscaps": p.crosscaps},
                "cones": [[a, beta] for a, beta in p.cones],
                "b": p.b,
                "boundary": p.boundary_count,
            }
            for p in graph.pieces.values()
        ],
        "edges": [
            {
                "from": [e.from_piece, e.from_bdry],
                "to": [e.to_piece, e.to_bdry],
                "matrix": e.matrix.rows(),
            }
            for e in graph.edges
        ],
    }
