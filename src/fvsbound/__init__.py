"""Feedback vertex sets with certified size bounds.

Two constructive solvers built as reduction systems:

* ``solve_cubic``: every 2-connected graph of maximum degree 3 gets a
  feedback vertex set with 3|S| <= n + 2.
* ``solve_planar_weighted`` / ``solve_planar_unweighted``: every plane graph
  whose cycles all weigh at least g gets a set with 3g|S| <= 4*weight(G)
  (unweighted: |S| <= 4m/3g), beating the trivial 2m/g greedy.

Both are cross-checked against the exact oracle in the test suite.
"""

from .certificate import BoundKind, FvsCertificate, ReductionStep
from .cubic import BASE_CASE_MAX_N, RuleId, apply_rule, base_case, find_rule, solve_cubic
from .errors import (
    FvsError,
    GenerationFailed,
    InternalInvariantBroken,
    InvalidMerger,
    InvalidRotation,
    MemberNotInGraph,
    NonPlanarRotation,
    ParseError,
    PreconditionViolated,
    TooLarge,
    UnknownInstanceName,
    WouldCreateParallelEdge,
)
from .fileio import GraphFile, read_graph, write_graph
from .girth import (
    SolverConfig,
    doubled_potential,
    solve_planar_unweighted,
    solve_planar_weighted,
    trivial_baseline,
)
from .graph import (
    INFINITE,
    CutStructure,
    Graph,
    connectivity_le3,
    cut_vertices,
    girth,
    is_forest,
    is_two_connected,
    min_side_two_edge_cut,
    validate_fvs,
    weighted_girth,
)
from .instances import (
    NamedInstance,
    chain,
    disjoint_cycles,
    make_named,
    named_instance_names,
    random_cubic_2connected,
    random_planar_girth,
    triangle_replace,
)
from .oracle import OracleResult, min_fvs_exact, min_fvs_naive
from .planar import (
    Face,
    MergerSpec,
    PlaneGraph,
    RotationSystem,
    apply_merger,
    embed,
    faces_of,
    find_guaranteed_merger,
    plane_subgraph,
    split_high_degree_vertex,
    suppress_degree2_vertex,
)

__all__ = [name for name in dir() if not name.startswith("_")]
