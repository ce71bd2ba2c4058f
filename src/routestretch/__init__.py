"""Toolkit for the routing-table vs routing-path stretch tradeoff in
hierarchical routing: closed-form curves, graph and hierarchy builders,
a forwarding simulator, and slope estimation."""

from .analytic import (
    DEFAULT_ALPHA,
    AnalyticParams,
    CurveSeries,
    MinTableStretch,
    find_min_table_stretch,
    golden_section_min,
    height_from_path_stretch,
    optimal_table_length_fixed,
    optimal_table_length_variable,
    path_stretch_from_height,
    path_stretch_from_table_stretch_ipea,
    sweep_curve,
    table_stretch_from_path_stretch,
    table_stretch_kk,
)
from .fitting import (
    FitResult,
    fit_alpha_eq3,
    fit_alpha_ipea,
    fit_alpha_linear,
)
from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    all_pairs_shortest_lengths,
    generate,
    grid_graph,
    random_graph,
    ring_graph,
    torus_graph,
)
from .graphs import load as load_graph
from .graphs import save as save_graph
from .hierarchy import (
    Hierarchy,
    HierarchyBuildError,
    HierarchyFormatError,
    build_balanced,
    build_grid_blocks,
    flat_hierarchy,
    stats,
    validate,
)
from .hierarchy import load as load_hierarchy
from .hierarchy import save as save_hierarchy
from .routing import (
    RoutingError,
    RoutingLoopError,
    RoutingTable,
    StretchReport,
    build_tables,
    measure,
    route,
)

__version__ = "0.1.0"
