"""Exact computation of foliation-detected slope sets on graph manifold
rational homology solid tori and the co-oriented taut foliation decision for
graph manifold rational homology spheres."""

from .slopes import (
    GluingMatrix,
    IDENTITY,
    Slope,
    SlopeArc,
    SlopeError,
    VERTICAL,
    act,
    act_arc,
    arc_intersect,
    simplest_slope,
    slope_from_string,
    slope_of_tau,
)
from .seifert import (
    ConstraintFamily,
    DecisionError,
    DetectionResult,
    ExceptionalSlope,
    FamilyError,
    JNCertificate,
    PieceError,
    SeifertPiece,
    Strength,
    core_interval,
    detect_relative,
    detects,
    jn_refine_high,
    jn_refine_low,
    realize,
    v_count,
)
from .graph import (
    Edge,
    LongitudeResult,
    ManifoldFormatError,
    PlumbingGraph,
    RoleError,
    dump_manifold,
    load_manifold,
    parse_manifold,
    rational_longitude,
    split_at_edge,
    validate,
)
from .decide import (
    CtfVerdict,
    DegenerateReport,
    check_degenerate,
    classify_piece,
    decide_ctf,
    detect_tree,
    extract_witness,
    revalidate_witness,
)
from .oracle import grid_union, jn_exhaustive_extremal

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
