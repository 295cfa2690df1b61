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

The evaluation computes no longitudes.  Those come from their own fold,
graph.subtree_longitudes, in closed form, so no question here needs H_1 of
the whole graph: decide_ctf cuts a closed manifold along any JSJ torus in
place, one post-order walk rooted at each end, reads the Betti number from
the two sides' longitudes along them before it evaluates either side along
the same walk, intersects the two detected sets, and certifies a
co-oriented taut foliation by a gluing coherent slope assignment when the
intersection is non-empty.  A graph is read-only, so it keeps one
evaluation, which every question about it shares.

No certificate bound is set here, and none binds.  A child's arc reaches
the kernel with no strong index, so each constraint, like each cone, is a
slot of the certificate scan unless an integral extreme end ends the search
(the absence rule), and a piece past the solid-torus and product branches
has n + r >= 3: every scan has at least two slots.  Then N needs to reach
only the second-hardest threshold's denominator (cases 0 and 1) or the sum
of two thresholds' denominators (case 2), within the kernel's default bound.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .graph import (
    ROOT_KEY,
    RoleError,
    longitude_error,
    post_order,
    require_valid,
    subtree_longitudes,
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
    act_inverse,
    arc_intersect,
    simplest_slope,
)


# ---------------------------------------------------------------------------
# Tree evaluation
# ---------------------------------------------------------------------------


class _Node(namedtuple("_Node", "piece children family result")):
    """One piece evaluated as seen from the boundary towards the root: the
    SeifertPiece, a _Child per other boundary in boundary-index order, the
    ConstraintFamily fed to the kernel (None on a product) and its
    DetectionResult."""

    __slots__ = ()


class _Child(namedtuple("_Child", "bdry edge transport node arc")):
    """One child subtree seen from its parent: the boundary index on the
    parent piece, the edge, the GluingMatrix taking the child root frame to
    the parent frame, the child's own _Node, and its detected arc
    transported by it.  The child's exceptions stay in its own frame, in
    ``node.result``, for the few branches that read them."""

    __slots__ = ()


def _evaluate(graph, walk=None):
    """The nodes of the rooted tree along ``walk``, by default graph.post_order
    (which validates the graph first), the root last.  Each piece is
    evaluated once, from its children's nodes."""
    nodes, pieces = {}, graph.pieces
    for pid, via, links in post_order(graph) if walk is None else walk:
        children, arcs = [], []
        for j, edge, cid, transport in links:
            arcs.append(act_arc(transport, nodes[cid].result.detected))
            children.append(tuple.__new__(_Child, (j, edge, transport, nodes[cid], arcs[-1])))
        children, piece = tuple(children), pieces[pid]
        nodes[pid] = tuple.__new__(_Node, (piece, children, *_detect(piece, via, children, arcs)))
    return tuple(nodes.values())


def _evaluated(graph):
    """The nodes of the graph: its kept evaluation, made and kept first when
    it has none."""
    if graph.evaluation is None:
        graph.evaluation = _evaluate(graph)
    return graph.evaluation


def _moved(transport, exceptions):
    """The exceptional slopes carried through the GluingMatrix ``transport``."""
    return tuple(ExceptionalSlope(act(transport, e.slope), e.status, e.reason)
                 for e in exceptions)


def _detect(piece, via, children, arcs):
    """(constraint family, DetectionResult) of one piece from its children
    and their transported ``arcs``; the family is None on a product piece,
    which only relays its child."""
    if piece.is_product_piece:
        k = product_transport(piece)
        child = children[0]
        return None, DetectionResult(
            act_arc(k, child.arc),
            _moved(k.compose(child.transport), child.node.result.exceptions), "product")
    family = ConstraintFamily(arcs)
    rel = detect_relative(piece, family)
    detected = rel.detected
    # A degenerate set {lambda} over an orientable base is strong; the n2 and
    # solid-torus branches carry no exceptions either.
    degenerate = rel.branch == "vertical-arc" and detected.kind == "point"
    added = (_cable_exceptions(piece, children, detected)
             + _degenerate_fibration_exceptions(piece, via, children, detected))
    if not (added or degenerate):
        return family, rel
    # The kernel returns its exceptions merged and sorted already.
    exceptions = () if degenerate else rel.exceptions
    if added:
        exceptions = merge_exceptions(list(exceptions) + added)
    return family, rel._replace(exceptions=exceptions)


def _cable_exceptions(piece, children, detected):
    """Slopes whose distance-one filling of a cable space is a solid torus
    with meridian not strongly detected in the child: status unknown."""
    if not piece.is_cable_space:
        return []
    # Two boundary tori, one towards the parent: exactly one child.
    child = children[0]
    out = []
    for exc in child.node.result.exceptions:
        slope = act(child.transport, exc.slope)
        if not slope.q:  # vertical
            continue
        # The filling slope (horizontal_completion), of interest only when
        # integral (distance one from the fibre): when q divides p.
        p, q = piece._completion((slope,))
        if p % q:
            continue
        # act and the completion are injective: distinct child exceptions
        # give distinct alphas.
        alpha = Slope(p // q, 1)
        if detected.contains(alpha):
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
    # Two boundary tori, one towards the parent: exactly one child.
    child = children[0]
    if child.arc.kind != "point" or not child.arc.start.q:  # not a horizontal point
        return []
    # A point's status does not depend on the frame it is read in.
    own = child.node.result
    if own.strong_status(own.detected.start) == Strength.STRONG:
        return []
    alpha, child_div = _fibration_slope(piece, via, child.bdry, child.arc.start)
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
    child torus itself and b_eff - sum gamma_i - tau_c on the other (the
    piece's horizontal_completion).  A vertical child slope forces phi(h) =
    0, and with one or three or more boundary tori one slope does not fix
    phi.  phi is integral exactly when phi(h) is a multiple of every a_i and
    of the denominator of tau_c (the section relation then makes phi(d_t)
    integral), so the primitive phi has phi(h) = M, their lcm, and the fibre
    meets the child torus gcd(phi(h), phi(d_c)) = M / den(tau_c) times."""
    if (not piece.base_orientable or piece.boundary_count != 2
            or child_slope.is_vertical):
        return None
    slope = child_slope
    if target_bdry != child_bdry:
        slope = piece.horizontal_completion((child_slope,))
    q = child_slope.q
    return slope, lcm(piece.cone_order_lcm, q) // q


def detect_tree(graph):
    """DetectionResult on the dangling torus of a solid-torus-role graph.

    Each call evaluates the tree, so timing or tracing it always measures
    the kernel's work; the graph keeps this one in place of any other, and
    extract_witness, iter_piece_evaluations and check_degenerate read it."""
    graph.evaluation = _evaluate(graph)
    return graph.evaluation[-1].result


def iter_piece_evaluations(graph):
    """(piece, constraint family, DetectionResult) for every node of the
    rooted tree, children first; the families are the transported child
    detected sets actually fed to the relative-detection kernel."""
    return [(node.piece, node.family, node.result) for node in _evaluated(graph)
            if node.family is not None]


# ---------------------------------------------------------------------------
# Degenerate detected sets
# ---------------------------------------------------------------------------


class DegenerateReport(namedtuple("DegenerateReport", "is_degenerate predicted consistent "
                                   "branch explanation result longitude")):
    __slots__ = ()


def check_degenerate(graph):
    """Is the detected set a single point (necessarily the rational
    longitude)?  Cross-checks the branch conditions against the direct
    computation and reports any disagreement.  The Betti number is read
    from the longitude walk before the tree is evaluated."""
    longitudes = subtree_longitudes(graph)
    *_, (betti, lam, _) = longitudes.values()
    if betti != 1:
        raise longitude_error(betti)
    root = _evaluated(graph)[-1]
    result = root.result
    direct = result.detected.is_point
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
            if all(act(c.transport, longitudes[c.node.piece.ident].slope)
                   == c.arc.start for c in children):
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


def extract_witness(graph, target):
    """A gluing coherent rational slope assignment extending ``target``.

    Returns a dict: ROOT_KEY maps to ``target`` (dangling frame), and each
    edge ident maps to the assigned slope on that torus in the edge's
    from-side frame.  Raises DecisionError when the target is not detected.
    """
    return _extract(_evaluated(graph)[-1], target)


def _extract(root, target):
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
        (piece, children, family, result), key, recorded, slope = stack.pop()
        assignment[key] = recorded
        if not children:
            continue
        picks = realize(piece, family, result, slope)
        if family is not None and not detects(piece, picks, slope):
            raise DecisionError(
                f"witness search failed at piece {piece.ident} "
                f"(branch {result.branch}): the constraint tuple "
                f"({', '.join(map(str, picks))}) does not detect {slope}")
        for (bdry, edge, transport, child, _), s in zip(reversed(children), reversed(picks)):
            # The child's transport carries its slope here; an edge's slope
            # is recorded in its from-side frame.
            child_slope = act_inverse(transport, s)
            from_here = edge.from_piece == piece.ident and edge.from_bdry == bdry
            stack.append((child, edge.ident, s if from_here else child_slope, child_slope))
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
    horizontal-surface condition sum tau_j = b_eff - sum gamma_i, which holds
    exactly when the first slope completes the others."""
    return piece.base_orientable and slopes[0] == piece.horizontal_completion(slopes[1:])


class CtfVerdict(namedtuple("CtfVerdict", "admits witness piece_tags note split_edge")):
    """``witness`` maps torus ident -> Slope (from-side frame), or is {};
    ``piece_tags`` maps piece ident -> tag."""

    __slots__ = ()


NOTE_ADMITS = ("admits a co-oriented taut foliation; the manifold is not a "
               "Heegaard Floer L-space")
NOTE_REFUSES = ("no gluing coherent slope family exists; no co-oriented taut "
                "foliation is detected this way")


def decide_ctf(graph, split_edge=None):
    """Taut-foliation decision for a closed graph manifold rational homology
    sphere, with a gluing coherent witness when the answer is yes.  The cut
    at ``split_edge`` builds no side graph: each side is one post_order walk
    rooted at its end, read by the Betti check and by its evaluation."""
    require_valid(graph)
    if graph.role != "closed":
        raise RoleError("decide_ctf needs a closed manifold")
    # An edge ident, or an Edge equal to the graph's own edge.  An unknown
    # one is named after the Betti number, which is read at the first edge.
    edge = next((e for e in graph.edges if split_edge in (None, e.ident, e)), None)
    cut = edge or graph.edges[0]
    walks = (post_order(graph, (cut.from_piece, cut.from_bdry)),
             post_order(graph, (cut.to_piece, cut.to_bdry)))
    _require_rational_sphere(graph, cut, walks)
    if edge is None:
        raise RoleError(f"no edge {split_edge!r}; the edges are: "
                        f"{', '.join(e.ident for e in graph.edges)}")
    # Each side is evaluated once, for detection and for extraction alike.
    u_root, v_root = (_evaluate(graph, walk)[-1] for walk in walks)
    moved = act_arc(edge.matrix.inverse(), v_root.result.detected)
    meet = arc_intersect(u_root.result.detected, moved)
    if not meet:
        return CtfVerdict(False, {}, {}, NOTE_REFUSES, edge.ident)
    w = simplest_slope(meet)
    assign_u = _extract(u_root, w)
    assign_v = _extract(v_root, act(edge.matrix, w))
    witness = {edge.ident: w, **assign_u, **assign_v}
    del witness[ROOT_KEY]
    tags = _tag_pieces(graph, witness)
    return CtfVerdict(True, witness, tags, NOTE_ADMITS, edge.ident)


def _require_rational_sphere(graph, edge, walks):
    """Raise, naming the Betti number, unless b1 = 0, folding longitudes
    along ``walks``, the walks of the two sides of a cut at ``edge``, its
    from-side first.  By Mayer-Vietoris each side adds b1 - 1, and the cut
    torus one more when the two longitudes are the same slope on it."""
    u, v = (list(subtree_longitudes(graph, walk).values())[-1] for walk in walks)
    betti = u.betti + v.betti - 2 + (act(edge.matrix, u.slope) == v.slope)
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


def revalidate_witness(graph, witness):
    """Check gluing coherence: every piece's induced slope tuple lies in its
    relative detected set against the other coordinates.  On a solid-torus
    graph the slope on the dangling torus is ``witness[ROOT_KEY]``, as
    extract_witness returns it."""
    for pid, piece in graph.pieces.items():
        slopes = _boundary_slopes(graph, pid, witness)
        if slopes is None:
            return False
        for target_bdry, target in enumerate(slopes):
            others = tuple(s for j, s in enumerate(slopes) if j != target_bdry)
            if not detects(piece, others, target):
                return False
    return True
