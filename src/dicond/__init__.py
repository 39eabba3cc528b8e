"""Directed-graph conductance: evaluation, exact small-instance oracles,
and an iterative minimizer built on a continuous reformulation."""

from .baselines import EmbeddingResult, spectral_embedding, sweep_cut
from .errors import (
    ConstantVectorError,
    DegenerateSubsetError,
    DicondError,
    EdgeListParseError,
    EmptyGraphError,
    GraphTooLargeError,
)
from .functionals import (
    MedianResult,
    SetFunctionHandle,
    i_diff,
    i_plus,
    j_terms,
    lovasz_extension,
    n_med,
    q_r,
    r_obj,
    single_directed_ratio,
)
from .generators import DsbmParams, canonical, dsbm
from .graph import (
    DegreeProfile,
    DirectedGraph,
    build_graph,
    conductance_set,
    cut_values,
    degrees,
    largest_weak_component,
    load_edge_list,
    weak_components,
    write_edge_list,
)
from .oracle import OracleResult, brute_binary_r_min, brute_conductance
from .solver import (
    SolveReport,
    SolverConfig,
    dsi_run,
    dsi_solve,
    subproblem_argmin,
    verify_local_opt,
)
from .subgrad import (
    BoundaryIndicator,
    SelectedSubgradient,
    StopCertificate,
    SubgradientBounds,
    VertexClasses,
    boundary_indicator,
    bounds,
    classify,
    select_subgradient,
)

__version__ = "0.1.0"
