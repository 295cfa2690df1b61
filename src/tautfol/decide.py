"""Detection over a JSJ tree and the taut-foliation decision for closed
graph manifold rational homology spheres.

detect_tree computes, for a rooted rational homology solid torus, the
detected slope set on the dangling torus by one post-order evaluation of the
tree: each child subtree contributes its detected arc, transported through
the edge gluing into the parent piece's boundary frame, and the parent piece
maps the constraint arcs through the relative-detection kernel.  Strong
statuses are assembled at tree level: frontier slopes of a non-degenerate arc
are never strong, the fibre slope is not strong whenever some child detects
it, a degenerate detected set (necessarily the rational longitude) is strong
over an orientable base and not strong over a non-orientable one, and the
two cable-space / degenerate-fibration situations downgrade finitely many
slopes to an indeterminate status.

decide_ctf splits a closed manifold along any JSJ torus, intersects the two
detected sets, and certifies a co-oriented taut foliation by a gluing
coherent slope assignment when the intersection is non-empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .graph import (
    PlumbingGraph,
    RoleError,
    homology,
    presentation,
    rational_longitude,
    split_at_edge,
    subtree,
    validate,
    errors_of,
)
from .seifert import (
    ConstraintFamily,
    DetectionResult,
    ExceptionalSlope,
    Strength,
    detect_relative,
    merge_exceptions,
    product_transport,
)
from .slopes import (
    VERTICAL,
    Slope,
    SlopeArc,
    act,
    act_arc,
    arc_intersect,
    simplest_slope,
    slope_of_tau,
)


class DecisionError(ValueError):
    """Internal inconsistency between independent computations."""


def _require_valid(graph):
    errs = errors_of(validate(graph))
    if errs:
        raise RoleError("; ".join(errs))


# ---------------------------------------------------------------------------
# Tree evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    """One piece evaluated as seen from the boundary towards the root."""
    piece: object        # SeifertPiece
    children: tuple      # _Child per other boundary, in boundary-index order
    family: object       # ConstraintFamily fed to the kernel; None on a product
    result: DetectionResult


@dataclass(frozen=True)
class _Child:
    bdry: int            # boundary index on the parent piece
    edge: object
    transport: object    # GluingMatrix: child root frame -> parent frame
    node: _Node          # the child subtree's own evaluation
    arc: SlopeArc        # transported detected arc
    exceptions: tuple    # transported exceptional slopes


def _evaluate(graph, n_max):
    """The nodes of the rooted tree in post-order (depth-first, children in
    boundary-index order), the root last.  Each piece is evaluated once, from
    its children's nodes.  The walk keeps its own stack, so the depth of the
    tree is not limited by the interpreter's recursion limit."""
    # Pre-order taking the children last-first; reversed, it is the post-order.
    order = []
    stack = [graph.root()]
    while stack:
        pid, via = stack.pop()
        order.append((pid, via))
        if len(order) > len(graph.pieces):
            raise RoleError("underlying graph is not a tree")
        for j in range(graph.pieces[pid].boundary_count):
            if j == via:
                continue
            edge = graph.edge_at(pid, j)
            if edge is None:
                raise RoleError(
                    f"piece {pid} boundary {j} is dangling inside the tree")
            stack.append(edge.other_side(pid, j))
    nodes = {}
    for pid, via in reversed(order):
        piece = graph.pieces[pid]
        children = tuple(_child(graph, nodes, pid, j)
                         for j in range(piece.boundary_count) if j != via)
        nodes[pid] = _Node(piece, children, *_detect(piece, via, children, n_max))
    return list(nodes.values())


def _child(graph, nodes, pid, j):
    edge = graph.edge_at(pid, j)
    cid, cbd = edge.other_side(pid, j)
    node = nodes[cid]
    g = edge.matrix if (edge.from_piece, edge.from_bdry) == (cid, cbd) \
        else edge.matrix.inverse()
    moved = tuple(
        ExceptionalSlope(act(g, e.slope), e.status, e.reason)
        for e in node.result.exceptions)
    return _Child(j, edge, g, node, act_arc(g, node.result.detected), moved)


def _detect(piece, via, children, n_max):
    """(constraint family, DetectionResult) of one piece from its children;
    the family is None on a product piece, which only relays its child."""
    if piece.is_product_piece:
        k = product_transport(piece)
        child = children[0]
        return None, DetectionResult(
            act_arc(k, child.arc),
            tuple(ExceptionalSlope(act(k, e.slope), e.status, e.reason)
                  for e in child.exceptions),
            branch="product",
        )
    family = ConstraintFamily(tuple(c.arc for c in children))
    rel = detect_relative(piece, family, n_max=n_max)
    detected = rel.detected
    # A degenerate set {lambda} over an orientable base is strong; the n2 and
    # solid-torus branches carry no exceptions either.
    degenerate = rel.branch == "vertical-arc" and detected.is_point
    entries = [] if degenerate else list(rel.exceptions)
    entries.extend(_cable_exceptions(piece, children, detected))
    entries.extend(_degenerate_fibration_exceptions(piece, via, children, detected))
    return family, DetectionResult(
        detected, merge_exceptions(entries), branch=rel.branch,
        low_certificate=rel.low_certificate, high_certificate=rel.high_certificate)


def _cable_exceptions(piece, children, detected):
    """Slopes whose distance-one filling of a cable space is a solid torus
    with meridian not strongly detected in the child: status unknown."""
    if not piece.is_cable_space or not children:
        return []
    gamma = piece.gammas[0]
    shift = piece.b_eff
    out = []
    for exc in children[0].exceptions:
        if exc.slope.is_vertical:
            continue
        t = shift - gamma - exc.slope.tau
        if t.denominator != 1:
            continue
        alpha = slope_of_tau(t)
        if detected.contains(alpha) and not _listed(alpha, out):
            out.append(ExceptionalSlope(
                alpha, Strength.INDETERMINATE,
                "filling here makes the cable space a solid torus whose "
                "meridian is not strongly detected in the adjacent subtree"))
    return out


def _degenerate_fibration_exceptions(piece, via, children, detected):
    """When the unique child detects a single not-strong horizontal slope and
    the piece fibres over the circle meeting the child torus once, the slope
    completing the fibration has unknown strong status."""
    if piece.boundary_count != 2 or not piece.base_orientable or piece.n == 0:
        return []
    if len(children) != 1:
        return []
    child = children[0]
    if not child.arc.is_point or child.arc.start.is_vertical:
        return []
    c = child.arc.start
    status = Strength.STRONG
    for exc in child.exceptions:
        if exc.slope == c:
            status = exc.status
    if status == Strength.STRONG:
        return []
    fib = _fibration_slope(piece, via, child.bdry, c)
    if fib is None:
        return []
    alpha, child_div = fib
    if child_div != 1 or not detected.contains(alpha):
        return []
    return [ExceptionalSlope(
        alpha, Strength.INDETERMINATE,
        "the piece fibres over the circle with fibre meeting the child "
        "torus once and the child slope is not strongly detected")]


def _piece_free_images(piece):
    """Free-quotient images of fibre and section classes for one piece."""
    solved = presentation(PlumbingGraph([piece], [], "solid-torus")).solve()
    v_h = solved.free_image({("h", piece.ident): 1})
    v_d = [solved.free_image({("d", piece.ident, j): 1})
           for j in range(piece.boundary_count)]
    return v_h, v_d


def _fibration_slope(piece, target_bdry, child_bdry, child_slope):
    """Slope on the target torus completed by a horizontal fibration whose
    boundary on the child torus is ``child_slope``; also the number of times
    the fibre meets the child torus.  None when no such fibration exists."""
    v_h, v_d = _piece_free_images(piece)
    p, q = child_slope.p, child_slope.q
    v_c = tuple(p * v_h[i] - q * v_d[child_bdry][i] for i in range(len(v_h)))
    if all(x == 0 for x in v_c):
        return None
    if len(v_c) != 2:
        return None
    u = (-v_c[1], v_c[0])
    g = gcd(u[0], u[1])
    u = (u[0] // g, u[1] // g)
    phi_h = u[0] * v_h[0] + u[1] * v_h[1]
    if phi_h == 0:
        return None
    phi_dc = u[0] * v_d[child_bdry][0] + u[1] * v_d[child_bdry][1]
    phi_dt = u[0] * v_d[target_bdry][0] + u[1] * v_d[target_bdry][1]
    child_div = gcd(abs(phi_h), abs(phi_dc))
    # Kernel of phi on the target torus: p*phi_h - q*phi_dt = 0.
    alpha = Slope(phi_dt, phi_h)
    return alpha, child_div


def _listed(slope, entries):
    return any(e.slope == slope for e in entries)


def detect_tree(graph, n_max=None):
    """DetectionResult on the dangling torus of a solid-torus-role graph."""
    _require_valid(graph)
    return _evaluate(graph, n_max)[-1].result


def iter_piece_evaluations(graph, n_max=None):
    """(piece, constraint family) for every node of the rooted tree, children
    first; the families are the transported child detected sets actually fed
    to the relative-detection kernel."""
    return [(node.piece, node.family) for node in _evaluate(graph, n_max)
            if node.family is not None]


# ---------------------------------------------------------------------------
# Degenerate detected sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegenerateReport:
    is_degenerate: bool
    predicted: bool
    consistent: bool
    branch: str
    explanation: str
    result: DetectionResult
    longitude: Slope


def check_degenerate(graph, n_max=None):
    """Is the detected set a single point (necessarily the rational
    longitude)?  Cross-checks the branch conditions against the direct
    computation and reports any disagreement."""
    _require_valid(graph)
    root = _evaluate(graph, n_max)[-1]
    result = root.result
    direct = result.detected.is_point
    lam = rational_longitude(graph).slope
    piece, children = root.piece, root.children
    arcs = [c.arc for c in children]
    v = sum(1 for a in arcs if a.contains_vertical())

    if piece.is_n2:
        predicted, branch = True, "twisted I-bundle"
        explanation = "the twisted I-bundle detects only its fibre slope"
    elif not piece.base_orientable:
        predicted = (v == 0)
        branch = "fibre-point branch (non-orientable base)"
        explanation = (f"{v} child set(s) contain the fibre slope; the detected "
                       "set is the fibre point exactly when none do")
    elif piece.is_solid_torus_piece:
        predicted, branch = True, "solid torus"
        explanation = "a fibred solid torus detects only its meridian"
    elif piece.is_product_piece:
        predicted = arcs[0].is_point
        branch = "product piece"
        explanation = "a product piece relays the child set unchanged"
    elif lam.is_vertical:
        vertical_children_are_points = all(
            a == SlopeArc.point(VERTICAL) for a in arcs if a.contains_vertical())
        predicted = v == 1 and vertical_children_are_points
        branch = "vertical-longitude branch"
        explanation = ("exactly one child detects the fibre slope and does so "
                       "as a single point" if predicted else
                       f"condition fails: {v} vertical children; "
                       f"point condition {vertical_children_are_points}")
    else:
        branch = "horizontal-longitude branch"
        predicted = False
        explanation = "some child set is not degenerate"
        if v == 0 and all(a.is_point for a in arcs):
            points_are_longitudes = True
            for c in children:
                sub_graph = subtree(graph, *c.edge.other_side(piece.ident, c.bdry))
                sub_lam = rational_longitude(sub_graph).slope
                if act(c.transport, sub_lam) != c.arc.start:
                    points_are_longitudes = False
            if points_are_longitudes:
                # The root's kernel result is relative to exactly these arcs.
                predicted = result.detected == SlopeArc.point(lam)
                explanation = (
                    "all children are degenerate at their longitudes and the "
                    "piece detects a single slope relative to them"
                    if predicted else
                    "children are degenerate at their longitudes but the "
                    "relative detected set is not a point")
            else:
                explanation = "a child is degenerate away from its longitude"

    consistent = (direct == predicted)
    if direct and result.detected.start != lam:
        consistent = False
        explanation += ("; the degenerate point differs from the rational "
                        "longitude, which is an internal inconsistency")
    return DegenerateReport(
        is_degenerate=direct, predicted=predicted, consistent=consistent,
        branch=branch, explanation=explanation, result=result, longitude=lam)


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------


ROOT_KEY = "root"


def extract_witness(graph, target, n_max=None):
    """A gluing coherent rational slope assignment extending ``target``.

    Returns a dict: ROOT_KEY maps to ``target`` (dangling frame), and each
    edge ident maps to the assigned slope on that torus in the edge's
    from-side frame.  Raises DecisionError when the target is not detected.
    """
    _require_valid(graph)
    return _extract(_evaluate(graph, n_max)[-1], target, n_max)


def _extract(root, target, n_max):
    """Top-down over the evaluated tree, in pre-order on an explicit stack:
    each piece chooses constraint slopes in its children's arcs that detect
    its own slope, and each child continues from its chosen slope."""
    if not root.result.detected.contains(target):
        raise DecisionError(f"slope {target} is not detected")
    assignment = {}
    # (node, assignment key, slope recorded there, slope in the node's frame)
    stack = [(root, ROOT_KEY, target, target)]
    while stack:
        node, key, recorded, slope = stack.pop()
        assignment[key] = recorded
        if not node.children:
            continue
        piece = node.piece
        if piece.is_product_piece:
            picks = [act(product_transport(piece), slope)]
        else:
            picks = _choose_constraints(piece, node.children, slope, n_max)
            family = ConstraintFamily(tuple(SlopeArc.point(s) for s in picks))
            rel = detect_relative(piece, family, n_max=n_max)
            if not rel.detected.contains(slope):
                raise DecisionError(
                    f"witness search failed at piece {piece.ident}: chosen "
                    "constraint tuple does not detect the target")
        for c, s in reversed(list(zip(node.children, picks))):
            child_slope = act(c.transport.inverse(), s)
            # An edge's slope is recorded in its from-side frame.
            parent_is_from = (c.edge.from_piece, c.edge.from_bdry) == (piece.ident, c.bdry)
            stack.append((c.node, c.edge.ident, s if parent_is_from else child_slope,
                          child_slope))
    return assignment


def _choose_constraints(piece, children, target, n_max):
    """Rational points c_j in the transported child arcs whose relative
    detected set contains the target."""
    arcs = [c.arc for c in children]
    forced = {j for j, a in enumerate(arcs) if not _horizontal_pieces(a)}

    def mixed(vertical_indices):
        return [VERTICAL if k in vertical_indices else
                simplest_slope(arcs[k], allow_vertical=False)
                for k in range(len(arcs))]

    if not piece.base_orientable:
        if target.is_vertical:
            return mixed(forced)
        vert = next((j for j, a in enumerate(arcs) if a.contains_vertical()), None)
        if vert is None:
            raise DecisionError("full detected set without a vertical child")
        return mixed(forced | {vert})
    if target.is_vertical:
        vert = next((j for j, a in enumerate(arcs) if a.contains_vertical()), None)
        if vert is None:
            raise DecisionError("vertical target without a vertical child")
        return mixed(forced | {vert})
    if len(forced) >= 2:
        return mixed(forced)
    if len(forced) == 1:
        raise DecisionError(
            "horizontal target but the detected set is a vertical point")
    taus = _search_floor_tuple(piece, arcs, target.tau)
    if taus is None:
        taus = _frontier_tuple(arcs, target.tau, piece, n_max)
    if taus is None:
        raise DecisionError("no constraint tuple found for the target")
    return [slope_of_tau(t) for t in taus]


def _horizontal_pieces(arc):
    pieces, _ = arc.tau_pieces()
    return pieces


def _int_interval_choices(pieces, integral):
    """Integer intervals (lo, hi), None for unbounded, of admissible floor
    values.  ``integral`` selects floors of integral versus non-integral
    coordinates."""
    out = []
    for lo, hi in pieces:
        if integral:
            a = None if lo is None else ceil(lo)
            b = None if hi is None else floor(hi)
        else:
            # floors k with (k, k+1) meeting [lo, hi]
            a = None if lo is None else floor(lo - 1) + 1
            b = None if hi is None else (floor(hi) - 1 if Fraction(hi).denominator == 1
                                         else floor(hi))
        if a is not None and b is not None and a > b:
            continue
        out.append((a, b))
    return out


def _sum_intervals(list_a, list_b):
    if not list_a or not list_b:
        return []
    out = []
    for a1, b1 in list_a:
        for a2, b2 in list_b:
            lo = None if (a1 is None or a2 is None) else a1 + a2
            hi = None if (b1 is None or b2 is None) else b1 + b2
            out.append((lo, hi))
    return _merge_int_intervals(out)


def _merge_int_intervals(items):
    def key(iv):
        return (iv[0] is not None, iv[0] if iv[0] is not None else 0)
    items = sorted(items, key=key)
    merged = []
    for lo, hi in items:
        if merged:
            plo, phi = merged[-1]
            touch = phi is None or lo is None or lo <= phi + 1
            if touch:
                newhi = None if (phi is None or hi is None) else max(phi, hi)
                merged[-1] = (plo, newhi)
                continue
        merged.append((lo, hi))
    return merged


def _interval_contains(items, lo, hi):
    """Does some integer in [lo, hi] (None = unbounded) lie in the union?"""
    for a, b in items:
        clo = a if lo is None else (lo if a is None else max(a, lo))
        chi = b if hi is None else (hi if b is None else min(b, hi))
        if clo is None or chi is None or clo <= chi:
            return True
    return False


def _pick_from(items, lo, hi):
    """A deterministic integer from the union restricted to [lo, hi]."""
    best = None
    for a, b in items:
        clo = a if lo is None else (lo if a is None else max(a, lo))
        chi = b if hi is None else (hi if b is None else min(b, hi))
        if clo is not None and chi is not None and clo > chi:
            continue
        if clo is not None:
            cand = clo if clo >= 0 else (min(chi, 0) if chi is not None else 0)
        elif chi is not None:
            cand = min(chi, 0)
        else:
            cand = 0
        if clo is not None and cand < clo:
            cand = clo
        if chi is not None and cand > chi:
            cand = chi
        if best is None or abs(cand) < abs(best):
            best = cand
    return best


def _search_floor_tuple(piece, arcs, target_tau):
    """All-horizontal constraint tuple by per-child integer translation."""
    r = piece.boundary_count
    n = piece.n
    shift = piece.b_eff
    t = Fraction(target_tau) - shift  # normalized frame
    per_child = [_horizontal_pieces(a) for a in arcs]
    options = []
    for pieces in per_child:
        opts = {}
        ints = _int_interval_choices(pieces, integral=True)
        nonints = _int_interval_choices(pieces, integral=False)
        if nonints:
            opts[0] = nonints
        if ints:
            opts[1] = ints
        options.append(opts)
    patterns = itertools.product(*[sorted(o.keys()) for o in options])
    for sigma in patterns:
        s0 = sum(sigma)
        f_lo = ceil(-t) - (n + r - 1)
        f_hi = floor(s0 - 1 - t)
        if f_lo > f_hi:
            continue
        sets = [options[j][sigma[j]] for j in range(len(arcs))]
        suffix = [[(0, 0)]]
        for s in reversed(sets):
            suffix.insert(0, _sum_intervals(s, suffix[0]))
        if not _interval_contains(suffix[0], f_lo, f_hi):
            continue
        floors = []
        lo, hi = f_lo, f_hi
        feasible = True
        for j in range(len(arcs)):
            rest = suffix[j + 1]
            choice = None
            for a, b in sets[j]:
                for rest_lo, rest_hi in rest:
                    # f in [a, b] such that the window minus f still meets
                    # this rest interval: f in [lo - rest_hi, hi - rest_lo].
                    cand_lo = a
                    cand_hi = b
                    if rest_hi is not None:
                        cand_lo = (lo - rest_hi) if cand_lo is None \
                            else max(cand_lo, lo - rest_hi)
                    if rest_lo is not None:
                        cand_hi = (hi - rest_lo) if cand_hi is None \
                            else min(cand_hi, hi - rest_lo)
                    picked = _pick_from([(cand_lo, cand_hi)], None, None)
                    if picked is not None and (choice is None or abs(picked) < abs(choice)):
                        choice = picked
            if choice is None:
                feasible = False
                break
            floors.append(choice)
            lo = lo - choice
            hi = hi - choice
        if not feasible:
            continue
        taus = []
        ok = True
        for j, (f, sg) in enumerate(zip(floors, sigma)):
            tau = _tau_in_unit(per_child[j], f, sg)
            if tau is None:
                ok = False
                break
            taus.append(tau)
        if ok:
            return taus
    return None


def _tau_in_unit(pieces, floor_value, integral):
    """A rational tau in the arc with the given floor and integrality."""
    if integral:
        f = Fraction(floor_value)
        for lo, hi in pieces:
            if (lo is None or lo <= f) and (hi is None or f <= hi):
                return f
        return None
    k = Fraction(floor_value)
    for lo, hi in pieces:
        a = k if lo is None else max(lo, k)
        b = k + 1 if hi is None else min(hi, k + 1)
        if a > b:
            continue
        half = k + Fraction(1, 2)
        if a <= half <= b:
            return half
        if a == b:
            if a.denominator != 1:
                return a
            continue
        # a < b inside [k, k+1]: the midpoint is strictly inside (k, k+1),
        # hence non-integral.
        return (a + b) / 2
    return None


def _frontier_tuple(arcs, target_tau, piece, n_max):
    """Fallback for targets in the refined zones: children sit at their
    extreme finite endpoints (upper for the low side, lower for the high)."""
    for side in ("low", "high"):
        taus = []
        ok = True
        for a in arcs:
            pieces = _horizontal_pieces(a)
            finite = [hi for _, hi in pieces if hi is not None] if side == "low" \
                else [lo for lo, _ in pieces if lo is not None]
            if not finite:
                ok = False
                break
            taus.append(max(finite) if side == "low" else min(finite))
        if not ok:
            continue
        family = ConstraintFamily(tuple(SlopeArc.point(slope_of_tau(t)) for t in taus))
        rel = detect_relative(piece, family, n_max=n_max)
        if rel.detected.contains(slope_of_tau(target_tau)):
            return taus
    return None


# ---------------------------------------------------------------------------
# Piece classification and the closed decision
# ---------------------------------------------------------------------------


TAG_VERTICAL = "VerticalAnnulus"
TAG_FIBRATION = "Fibration"
TAG_HORIZONTAL = "HorizontalNonFibred"


def classify_piece(piece, boundary_slopes):
    """Tag a piece by how a foliation inducing the given boundary slopes can
    sit: a vertical coordinate forces a vertical annulus leaf; otherwise the
    tuple is either completed by a fibration over the circle or not."""
    slopes = [boundary_slopes[j] for j in range(piece.boundary_count)]
    if any(s.is_vertical for s in slopes):
        return TAG_VERTICAL
    if _is_fibred_tuple(piece, slopes):
        return TAG_FIBRATION
    return TAG_HORIZONTAL


def _is_fibred_tuple(piece, slopes):
    v_h, v_d = _piece_free_images(piece)
    betti = len(v_h)
    rows = []
    for j, s in enumerate(slopes):
        rows.append([s.p * v_h[i] - s.q * v_d[j][i] for i in range(betti)])
    basis = _rational_nullspace(rows, betti)
    for u in basis:
        if sum(u[i] * v_h[i] for i in range(betti)) != 0:
            return True
    return False


def _rational_nullspace(rows, width):
    """Basis of {u : row . u = 0 for all rows}, by exact elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fcol in free:
        u = [Fraction(0)] * width
        u[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            u[pcol] = -m[i][fcol]
        den = 1
        for x in u:
            den = den * x.denominator // gcd(den, x.denominator)
        vec = [int(x * den) for x in u]
        g = 0
        for x in vec:
            g = gcd(g, x)
        if g:
            vec = [x // g for x in vec]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class CtfVerdict:
    admits: bool
    witness: dict          # torus ident -> Slope (from-side frame), or {}
    piece_tags: dict       # piece ident -> tag
    note: str
    split_edge: str


NOTE_ADMITS = ("admits a co-oriented taut foliation; the manifold is not a "
               "Heegaard Floer L-space")
NOTE_REFUSES = ("no gluing coherent slope family exists; no co-oriented taut "
                "foliation is detected this way")


def decide_ctf(graph, split_edge=None, n_max=None):
    """Taut-foliation decision for a closed graph manifold rational homology
    sphere, with a gluing coherent witness when the answer is yes."""
    _require_valid(graph)
    if graph.role != "closed":
        raise RoleError("decide_ctf needs a closed manifold")
    if not graph.edges:
        raise RoleError(
            "Seifert manifolds without JSJ tori are out of scope; fill a "
            "one-piece solid torus and test membership with detect instead")
    summary = homology(graph)
    if summary.betti != 0:
        raise RoleError(
            f"not a rational homology sphere (betti = {summary.betti})")
    if split_edge is None:
        edge = graph.edges[0]
    elif isinstance(split_edge, str):
        try:
            edge = graph.edge_by_ident(split_edge)
        except KeyError:
            raise RoleError(
                f"no edge {split_edge!r}; the edges are: "
                f"{', '.join(e.ident for e in graph.edges)}") from None
    else:
        edge = split_edge
    # The sides of a valid closed tree are valid solid trees: each is
    # evaluated once, for detection and for extraction alike.
    u_side, v_side = split_at_edge(graph, edge)
    u_root = _evaluate(u_side, n_max)[-1]
    v_root = _evaluate(v_side, n_max)[-1]
    moved = act_arc(edge.matrix.inverse(), v_root.result.detected)
    meet = arc_intersect(u_root.result.detected, moved)
    if meet.is_empty:
        return CtfVerdict(False, {}, {}, NOTE_REFUSES, edge.ident)
    w = simplest_slope(meet)
    assign_u = _extract(u_root, w, n_max)
    assign_v = _extract(v_root, act(edge.matrix, w), n_max)
    witness = {edge.ident: w}
    for src in (assign_u, assign_v):
        for key, slope in src.items():
            if key == ROOT_KEY:
                continue
            witness[key] = slope
    tags = _tag_pieces(graph, witness)
    return CtfVerdict(True, witness, tags, NOTE_ADMITS, edge.ident)


def _tag_pieces(graph, witness):
    tags = {}
    for pid, piece in graph.pieces.items():
        slopes = {}
        for j in range(piece.boundary_count):
            e = graph.edge_at(pid, j)
            s = witness[e.ident]
            if (e.from_piece, e.from_bdry) == (pid, j):
                slopes[j] = s
            else:
                slopes[j] = act(e.matrix, s)
        tags[pid] = classify_piece(piece, slopes)
    return tags


def revalidate_witness(graph, witness, n_max=None):
    """Check gluing coherence: every piece's induced slope tuple lies in its
    relative detected set against the other coordinates.  On a solid-torus
    graph the slope on the dangling torus is ``witness[ROOT_KEY]``, as
    extract_witness returns it."""
    for pid, piece in graph.pieces.items():
        slopes = {}
        for j in range(piece.boundary_count):
            e = graph.edge_at(pid, j)
            if e is None:
                s = witness.get(ROOT_KEY)
            else:
                s = witness.get(e.ident)
                if s is not None and (e.from_piece, e.from_bdry) != (pid, j):
                    s = act(e.matrix, s)
            if s is None:
                return False
            slopes[j] = s
        for target_bdry in range(piece.boundary_count):
            arcs = tuple(SlopeArc.point(slopes[j])
                         for j in range(piece.boundary_count) if j != target_bdry)
            rel = detect_relative(piece, ConstraintFamily(arcs), n_max=n_max)
            if not rel.detected.contains(slopes[target_bdry]):
                return False
    return True
