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
from .slopes import VERTICAL, GluingMatrix, Slope, act

SCHEMA_VERSION = 1


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

    A graph is read-only once built (``pieces`` is a read-only mapping), so
    ``evaluations``, which maps n_max to the validated tree evaluation of
    ``decide``, cannot go stale: each graph is validated once, the questions
    asked after ``detect_tree`` read its evaluation instead of walking the
    tree again, and the records live as long as the graph does.
    """

    __slots__ = ("pieces", "edges", "role", "_by_boundary", "evaluations")

    def __init__(self, pieces, edges, role):
        by_ident = {p.ident: p for p in pieces}
        if len(by_ident) != len(pieces):
            raise ManifoldFormatError("duplicate piece ids")
        edges = tuple(edges)
        by_boundary = {}
        for e in edges:
            for key in ((e.from_piece, e.from_bdry), (e.to_piece, e.to_bdry)):
                if key in by_boundary:
                    raise ManifoldFormatError(f"boundary {key} used by two edges")
                by_boundary[key] = e
        for name, value in (("pieces", MappingProxyType(by_ident)), ("edges", edges),
                            ("role", role), ("_by_boundary", by_boundary),
                            ("evaluations", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PlumbingGraph is read-only")

    def piece(self, ident):
        return self.pieces[ident]

    def edge_at(self, piece_id, bdry):
        return self._by_boundary.get((piece_id, bdry))

    def edge_by_ident(self, ident):
        for e in self.edges:
            if e.ident == ident:
                return e
        raise KeyError(f"no edge {ident!r}")

    def dangling_count(self):
        """How many boundary tori no edge uses: the declared boundary counts
        less the in-range edge ends, so a huge declared count costs nothing."""
        used = sum(1 for pid, j in self._by_boundary
                   if pid in self.pieces and 0 <= j < self.pieces[pid].boundary_count)
        return sum(p.boundary_count for p in self.pieces.values()) - used

    def root(self):
        """The unique dangling torus of a solid-torus-role graph.  With one
        dangling torus the declared boundary counts add up to at most one
        more than twice the number of edges, which bounds the walk."""
        if self.role != "solid-torus":
            raise RoleError("only solid-torus graphs have a root torus")
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
    if graph.role not in ("closed", "solid-torus"):
        out.append(f"error: unknown role {graph.role!r}")
    for p in graph.pieces.values():
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
    for e in graph.edges:
        for pid, idx in ((e.from_piece, e.from_bdry), (e.to_piece, e.to_bdry)):
            if pid not in graph.pieces:
                out.append(f"error: edge {e.ident} references unknown piece {pid!r}")
            elif not 0 <= idx < graph.pieces[pid].boundary_count:
                out.append(f"error: edge {e.ident} boundary index {idx} out of range")
        if e.matrix.det != -1:
            out.append(f"error: edge {e.ident}: orientation-incompatible gluing (det != -1)")
    # Tree check: connected and |edges| = |pieces| - 1.
    ids = list(graph.pieces)
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycle = False
    for e in graph.edges:
        if e.from_piece in parent and e.to_piece in parent:
            ra, rb = find(e.from_piece), find(e.to_piece)
            if ra == rb:
                cycle = True
            parent[ra] = rb
    components = {find(i) for i in ids}
    if cycle or len(components) > 1 or len(graph.edges) != len(ids) - 1:
        out.append("error: underlying graph is not a tree")
    dangling = graph.dangling_count()
    if graph.role == "closed" and dangling != 0:
        out.append(f"error: closed role but {dangling} dangling boundary tori")
    if graph.role == "solid-torus" and dangling != 1:
        out.append(f"error: solid-torus role but {dangling} dangling boundary tori")
    return out


def errors_of(diagnostics):
    return [d for d in diagnostics if d.startswith("error:")]


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
    it: the tree walk reads the Betti number off the longitudes
    (piece_longitude), and the tests check the walk against this."""
    pres = presentation(graph)
    diagonal = [abs(x) for x in smith_normal_form(pres.relations)[0] if x]
    return HomologySummary(
        betti=len(pres.generators) - len(diagonal),
        invariant_factors=tuple(x for x in diagonal if x > 1),
    )


class LongitudeResult(namedtuple("LongitudeResult", "slope order")):
    __slots__ = ()


# What the tree walk carries up from a subtree: its first Betti number, its
# rational longitude (the boundary slope that dies in H_1 with rational
# coefficients, whatever the Betti number) and the longitude's order in H_1,
# None unless betti = 1.
SubtreeLongitude = namedtuple("SubtreeLongitude", "betti slope order")


def post_order(graph):
    """The pieces of a solid-torus tree in post-order (depth-first, children
    in boundary-index order), the root last, as (piece id, boundary towards
    the parent, children).  Each child is (boundary index, edge, child piece
    id, transport), the transport taking the child's root frame to this
    piece's frame.  The walk keeps its own stack, so the depth of the tree
    is not limited by the interpreter's recursion limit; it raises RoleError
    on a graph that is not a tree, which it may be handed unvalidated."""
    # Pre-order taking the children last-first; reversed, it is the post-order.
    order = []
    stack = [graph.root()]
    while stack:
        pid, via = stack.pop()
        children = []
        for j in range(graph.pieces[pid].boundary_count):
            if j == via:
                continue
            edge = graph.edge_at(pid, j)
            if edge is None:
                raise RoleError(
                    f"piece {pid} boundary {j} is dangling inside the tree")
            cid, cbd = edge.other_side(pid, j)
            transport = (edge.matrix if (edge.from_piece, edge.from_bdry) == (cid, cbd)
                         else edge.matrix.inverse())
            children.append((j, edge, cid, transport))
            stack.append((cid, cbd))
        order.append((pid, via, children))
        if len(order) > len(graph.pieces):
            raise RoleError("underlying graph is not a tree")
    if len(order) != len(graph.pieces):
        raise RoleError("underlying graph is not a tree")
    return reversed(order)


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
    parent torus that dies in it is the fibre when V >= 1 and the
    horizontal slope below otherwise.  Over a base with c crosscaps h is
    torsion, so a vertical lambda_c is dependent and the others kill their
    d_c: the dimension is c + V and the fibre dies.  So b1 = 1 exactly when
    every child has b1 = 1 and at most one lambda_c is vertical over a
    planar base, or none over a crosscap-1 base.  The order is derived in
    rational_longitude."""
    lams = [(act(transport, child.slope), child.order) for transport, child in children]
    excess = sum(child.betti for _, child in children) - len(children)
    vertical = [order for lam, order in lams if lam.is_vertical]
    if not piece.base_orientable:
        betti = piece.crosscaps + len(vertical) + excess
        return SubtreeLongitude(betti, VERTICAL, 2 if betti == 1 else None)
    if vertical:
        betti = len(vertical) + excess
        return SubtreeLongitude(betti, VERTICAL, vertical[0] if betti == 1 else None)
    num, den = piece.horizontal_sum.numerator, piece.horizontal_sum.denominator
    for lam, _ in lams:  # minus tau(lambda) = p/q, over a common denominator
        num, den = num * lam.q + lam.p * den, den * lam.q
    slope = Slope(-num, den)
    if excess:
        return SubtreeLongitude(1 + excess, slope, None)
    q = slope.q
    order = lcm(*(a // gcd(a, q) for a, _ in piece.cones))
    for lam, o in lams:
        m = o * lam.q
        order = lcm(order, m // gcd(m, q))
    return SubtreeLongitude(1, slope, order)


def subtree_longitude(graph):
    """The SubtreeLongitude of a solid-torus tree, carried up one post-order
    walk by piece_longitude, with no H_1."""
    longitudes = {}
    for pid, _, children in post_order(graph):
        longitudes[pid] = piece_longitude(
            graph.pieces[pid],
            [(transport, longitudes[cid]) for _, _, cid, transport in children])
    return longitudes[pid]  # the root comes last


def rational_longitude(graph):
    """The primitive boundary class that is torsion in H_1, and its order.

    One post-order walk over the tree carries each subtree's Betti number,
    longitude and order to its parent (subtree_longitude), with no H_1.  By
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
    root = subtree_longitude(graph)
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
    crossing it.
    """
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
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ManifoldFormatError(f"{where.format(*args)}: expected an integer")


def parse_manifold(data):
    """Build a PlumbingGraph from a decoded JSON object (strict)."""
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
        _expect_keys(raw, _PIECE_KEYS, "pieces[{}]", k)
        if not isinstance(raw["id"], (str, int)) or isinstance(raw["id"], bool):
            raise ManifoldFormatError(f"pieces[{k}]: id must be a string or integer")
        _expect_keys(raw["base"], _BASE_KEYS, "pieces[{}].base", k)
        if not isinstance(raw["base"]["orientable"], bool):
            raise ManifoldFormatError(f"pieces[{k}].base.orientable must be a boolean")
        crosscaps = _int(raw["base"]["crosscaps"], "pieces[{}].base.crosscaps", k)
        if not isinstance(raw["cones"], list):
            raise ManifoldFormatError(f"pieces[{k}].cones must be a list")
        cones = []
        for t, pair in enumerate(raw["cones"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ManifoldFormatError(f"pieces[{k}].cones[{t}] must be [a, beta]")
            cones.append((_int(pair[0], "pieces[{}].cones[{}][0]", k, t),
                          _int(pair[1], "pieces[{}].cones[{}][1]", k, t)))
        try:
            pieces.append(SeifertPiece(
                base_orientable=raw["base"]["orientable"],
                cones=tuple(cones),
                b=_int(raw["b"], "pieces[{}].b", k),
                boundary_count=_int(raw["boundary"], "pieces[{}].boundary", k),
                crosscaps=crosscaps,
                ident=raw["id"]))
        except PieceError as exc:
            raise ManifoldFormatError(f"pieces[{k}]: {exc}") from exc
    edges = []
    for k, raw in enumerate(data["edges"]):
        _expect_keys(raw, _EDGE_KEYS, "edges[{}]", k)
        ends = []
        for side in ("from", "to"):
            pair = raw[side]
            if not isinstance(pair, list) or len(pair) != 2 or isinstance(pair[0], (list, dict)):
                raise ManifoldFormatError(f"edges[{k}].{side} must be [piece id, boundary index]")
            ends.append((pair[0], _int(pair[1], "edges[{}].{}[1]", k, side)))
        m = raw["matrix"]
        if (not isinstance(m, list) or len(m) != 2
                or any(not isinstance(row, list) or len(row) != 2 for row in m)):
            raise ManifoldFormatError(f"edges[{k}].matrix must be a 2x2 integer matrix")
        entries = [_int(m[i][j], "edges[{}].matrix[{}][{}]", k, i, j)
                   for i in range(2) for j in range(2)]
        try:
            matrix = GluingMatrix(*entries)
        except ValueError as exc:
            raise ManifoldFormatError(f"edges[{k}]: {exc}") from exc
        edges.append(Edge(ends[0][0], ends[0][1], ends[1][0], ends[1][1],
                          matrix, f"e{k}"))
    try:
        return PlumbingGraph(pieces, edges, role)
    except ValueError as exc:
        raise ManifoldFormatError(str(exc)) from exc


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
