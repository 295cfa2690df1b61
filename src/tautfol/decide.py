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

The same pass gives each subtree's Betti number, rational longitude and its
order in closed form (graph.piece_longitude, the rule rational_longitude walks
by), so no question here needs H_1 of the whole graph: decide_ctf splits a
closed manifold along any JSJ torus, reads the Betti number from the two
sides there, intersects the two detected sets, and certifies a co-oriented
taut foliation by a gluing coherent slope assignment when the intersection
is non-empty.  A graph is read-only, so its evaluation is kept on it and
every question about it shares one.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .graph import (
    RoleError,
    longitude_error,
    piece_longitude,
    post_order,
    split_at_edge,
    subtree_longitude,
    validate,
    errors_of,
)
from .seifert import (
    ConstraintFamily,
    DecisionError,
    DetectionResult,
    ExceptionalSlope,
    Strength,
    detect_relative,
    detects,
    merge_exceptions,
    product_transport,
    realize,
)
from .slopes import (
    VERTICAL,
    Slope,
    SlopeArc,
    act,
    act_arc,
    arc_intersect,
    simplest_slope,
)


def _require_valid(graph):
    errs = errors_of(validate(graph))
    if errs:
        raise RoleError("; ".join(e.removeprefix("error: ") for e in errs))


# ---------------------------------------------------------------------------
# Tree evaluation
# ---------------------------------------------------------------------------


class _Node(namedtuple("_Node", "piece children family result longitude")):
    """One piece evaluated as seen from the boundary towards the root: the
    SeifertPiece, a _Child per other boundary in boundary-index order, the
    ConstraintFamily fed to the kernel (None on a product), its
    DetectionResult, and the subtree's SubtreeLongitude (b1, longitude,
    order)."""

    __slots__ = ()


class _Child(namedtuple("_Child", "bdry edge transport node arc exceptions")):
    """One child subtree seen from its parent: the boundary index on the
    parent piece, the edge, the GluingMatrix taking the child root frame to
    the parent frame, the child's own _Node, and its detected arc and
    exceptional slopes transported by it."""

    __slots__ = ()


def _evaluate(graph, n_max):
    """The nodes of the rooted tree in graph.post_order, the root last.  Each
    piece is evaluated once, from its children's nodes."""
    nodes = {}
    for pid, via, links in post_order(graph):
        piece = graph.pieces[pid]
        children = tuple(_child(nodes[cid], j, edge, transport)
                         for j, edge, cid, transport in links)
        nodes[pid] = _Node(
            piece, children, *_detect(piece, via, children, n_max),
            piece_longitude(piece, [(c.transport, c.node.longitude) for c in children]))
    return tuple(nodes.values())


def _evaluated(graph, n_max):
    """The nodes of a valid graph, read from the graph when an evaluation at
    this bound is kept there, else evaluated and kept."""
    nodes = graph.evaluations.get(n_max)
    return _reevaluated(graph, n_max) if nodes is None else nodes


def _reevaluated(graph, n_max):
    """Evaluate the graph afresh and keep the nodes on it; the graph is
    validated on its first evaluation only, since it cannot change."""
    if not graph.evaluations:
        _require_valid(graph)
    nodes = graph.evaluations[n_max] = _evaluate(graph, n_max)
    return nodes


def _child(node, j, edge, transport):
    moved = tuple(
        ExceptionalSlope(act(transport, e.slope), e.status, e.reason)
        for e in node.result.exceptions)
    return _Child(j, edge, transport, node, act_arc(transport, node.result.detected), moved)


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
    # The kernel returns its exceptions merged and sorted already.
    exceptions = () if degenerate else rel.exceptions
    added = (_cable_exceptions(piece, children, detected)
             + _degenerate_fibration_exceptions(piece, via, children, detected))
    if added:
        exceptions = merge_exceptions(list(exceptions) + added)
    return family, DetectionResult(
        detected, exceptions, branch=rel.branch,
        low_certificate=rel.low_certificate, high_certificate=rel.high_certificate)


def _cable_exceptions(piece, children, detected):
    """Slopes whose distance-one filling of a cable space is a solid torus
    with meridian not strongly detected in the child: status unknown."""
    if not piece.is_cable_space or not children:
        return []
    out = []
    for exc in children[0].exceptions:
        if exc.slope.is_vertical:
            continue
        s, total = exc.slope, piece.horizontal_sum  # total - tau(s) = num/den
        num, den = total.numerator * s.q + s.p * total.denominator, total.denominator * s.q
        if num % den:
            continue
        alpha = Slope(-(num // den), 1)
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


def _fibration_slope(piece, target_bdry, child_bdry, child_slope):
    """Slope on the target torus completed by a horizontal fibration whose
    boundary on the child torus is ``child_slope``; also the number of times
    the fibre meets the child torus.  None when no such fibration exists.

    A fibration over the circle is a primitive class phi in H^1(piece; Z)
    with phi(h) != 0; its boundary on torus j is the slope p/q whose class
    p*h - q*d_j it kills, so phi(d_j) = -tau_j phi(h).  Over a
    non-orientable base h is torsion, so phi(h) = 0 and there is none.  Over
    a planar base the relations a_i x_i + beta_i h = 0 give phi(x_i) =
    -beta_i phi(h) / a_i, and the section relation then ties the d_j by
    sum phi(d_j) = -(b_eff - sum gamma_i) phi(h).  With two boundary tori
    one horizontal child slope fixes phi up to scale: tau_t is tau_c on the
    child torus itself and b_eff - sum gamma_i - tau_c on the other.  A
    vertical child slope forces phi(h) = 0, and with one or three or more
    boundary tori one slope does not fix phi.  phi is integral exactly when
    phi(h) is a multiple of every a_i and of the denominator of tau_c (the
    section relation then makes phi(d_t) integral), so the primitive phi has
    phi(h) = M, their lcm, and the fibre meets the child torus
    gcd(phi(h), phi(d_c)) = M / den(tau_c) times."""
    if (not piece.base_orientable or piece.boundary_count != 2
            or child_slope.is_vertical):
        return None
    p, q = child_slope.p, child_slope.q  # tau_c = -p/q in lowest terms
    slope = child_slope
    if target_bdry != child_bdry:  # tau_t = horizontal_sum + p/q
        num, den = piece.horizontal_sum.numerator, piece.horizontal_sum.denominator
        slope = Slope(-(num * q + p * den), den * q)
    return slope, lcm(piece.cone_order_lcm, q) // q


def _listed(slope, entries):
    return any(e.slope == slope for e in entries)


def detect_tree(graph, n_max=None):
    """DetectionResult on the dangling torus of a solid-torus-role graph.

    Each call evaluates the tree, so timing or tracing it always measures
    the kernel's work; the evaluation is kept on the graph, where
    extract_witness, iter_piece_evaluations and check_degenerate read it."""
    return _reevaluated(graph, n_max)[-1].result


def iter_piece_evaluations(graph, n_max=None):
    """(piece, constraint family) for every node of the rooted tree, children
    first; the families are the transported child detected sets actually fed
    to the relative-detection kernel."""
    return [(node.piece, node.family) for node in _evaluated(graph, n_max)
            if node.family is not None]


# ---------------------------------------------------------------------------
# Degenerate detected sets
# ---------------------------------------------------------------------------


class DegenerateReport(namedtuple("DegenerateReport", "is_degenerate predicted consistent "
                                   "branch explanation result longitude")):
    __slots__ = ()


def check_degenerate(graph, n_max=None):
    """Is the detected set a single point (necessarily the rational
    longitude)?  Cross-checks the branch conditions against the direct
    computation and reports any disagreement."""
    root = _evaluated(graph, n_max)[-1]
    result = root.result
    direct = result.detected.is_point
    if root.longitude.betti != 1:
        raise longitude_error(root.longitude.betti)
    lam = root.longitude.slope
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
            # b1 = 1 here, so every child subtree has b1 = 1 and a longitude.
            if all(act(c.transport, c.node.longitude.slope) == c.arc.start
                   for c in children):
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
    return _extract(_evaluated(graph, n_max)[-1], target, n_max)


def _extract(root, target, n_max):
    """Top-down over the evaluated tree, in pre-order on an explicit stack:
    each piece realizes its own slope by constraint slopes in its children's
    arcs, read off the branch its kernel call took, and each child continues
    from its slope.  Each realized tuple is checked with seifert.detects,
    which answers from the core interval when the slope lies in it and runs
    the kernel only for a slope past the core or off the horizontal branch."""
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
        picks = realize(piece, node.family, node.result, slope, n_max)
        if node.family is not None:
            family = ConstraintFamily(tuple(SlopeArc.point(s) for s in picks))
            if not detects(piece, family, slope, n_max=n_max):
                raise DecisionError(
                    f"witness search failed at piece {piece.ident} "
                    f"(branch {node.result.branch}): the constraint tuple "
                    f"({', '.join(map(str, picks))}) does not detect {slope}")
        for c, s in reversed(list(zip(node.children, picks))):
            child_slope = act(c.transport.inverse(), s)
            # An edge's slope is recorded in its from-side frame.
            parent_is_from = (c.edge.from_piece, c.edge.from_bdry) == (piece.ident, c.bdry)
            stack.append((c.node, c.edge.ident, s if parent_is_from else child_slope,
                          child_slope))
    return assignment


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
    """A fibration completes the horizontal tuple exactly when some class
    phi with phi(h) != 0 kills every boundary slope.  That needs h of
    infinite order, so a planar base, where phi(d_j) = -tau_j phi(h) must
    sum to -(b_eff - sum gamma_i) phi(h) (see _fibration_slope): the
    horizontal-surface condition sum tau_j = b_eff - sum gamma_i."""
    if not piece.base_orientable:
        return False
    # horizontal_sum minus sum tau_j = horizontal_sum + sum p_j/q_j, over a
    # common denominator, as in graph.piece_longitude.
    num, den = piece.horizontal_sum.numerator, piece.horizontal_sum.denominator
    for s in slopes:
        num, den = num * s.q + s.p * den, den * s.q
    return num == 0


class CtfVerdict(namedtuple("CtfVerdict", "admits witness piece_tags note split_edge")):
    """``witness`` maps torus ident -> Slope (from-side frame), or is {};
    ``piece_tags`` maps piece ident -> tag."""

    __slots__ = ()


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
    if split_edge is None:
        edge = graph.edges[0]
    elif isinstance(split_edge, str):
        try:
            edge = graph.edge_by_ident(split_edge)
        except KeyError:
            # The Betti error comes first, read off the longitudes alone.
            first = graph.edges[0]
            _require_rational_sphere(
                first, *map(subtree_longitude, split_at_edge(graph, first)))
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
    _require_rational_sphere(edge, u_root.longitude, v_root.longitude)
    moved = act_arc(edge.matrix.inverse(), v_root.result.detected)
    meet = arc_intersect(u_root.result.detected, moved)
    if not meet:
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


def _require_rational_sphere(edge, u, v):
    """Raise, naming the Betti number, unless b1 = 0.  ``u`` and ``v`` are
    the SubtreeLongitudes of the two sides of a split at ``edge``, U on its
    from-side.  By Mayer-Vietoris each side adds b1 - 1, and the split torus
    one more when the two longitudes are the same slope on it."""
    betti = u.betti + v.betti - 2 + (u.slope == act(edge.matrix.inverse(), v.slope))
    if betti != 0:
        raise RoleError(f"not a rational homology sphere (betti = {betti})")


def _boundary_slopes(graph, pid, witness):
    """The witness's slope on each boundary torus of piece ``pid``, in the
    piece's frame: an edge's slope is recorded in its from-side frame, and
    the dangling torus reads ``witness[ROOT_KEY]``.  None when a slope is
    missing."""
    slopes = []
    for j in range(graph.pieces[pid].boundary_count):
        e = graph.edge_at(pid, j)
        s = witness.get(ROOT_KEY if e is None else e.ident)
        if s is None:
            return None
        slopes.append(s if e is None or (e.from_piece, e.from_bdry) == (pid, j)
                      else act(e.matrix, s))
    return slopes


def _tag_pieces(graph, witness):
    return {pid: classify_piece(piece, _boundary_slopes(graph, pid, witness))
            for pid, piece in graph.pieces.items()}


def revalidate_witness(graph, witness, n_max=None):
    """Check gluing coherence: every piece's induced slope tuple lies in its
    relative detected set against the other coordinates.  On a solid-torus
    graph the slope on the dangling torus is ``witness[ROOT_KEY]``, as
    extract_witness returns it."""
    for pid, piece in graph.pieces.items():
        slopes = _boundary_slopes(graph, pid, witness)
        if slopes is None:
            return False
        for target_bdry, target in enumerate(slopes):
            arcs = tuple(SlopeArc.point(s) for j, s in enumerate(slopes) if j != target_bdry)
            if not detects(piece, ConstraintFamily(arcs), target, n_max=n_max):
                return False
    return True
