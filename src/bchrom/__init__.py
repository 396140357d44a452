"""Exact b-colouring statistics of small graphs.

A b-colouring is a proper vertex colouring in which every colour class
contains a vertex adjacent to all other classes.  This package computes, in
exact rational arithmetic, the colour-index p.m.f. of a colouring, the
extremal (minimum- and maximum-mean) b-colouring statistics of a graph, and
checks published closed forms for six graph families against brute force.
"""

from .graphs import (
    Graph,
    GraphError,
    SearchCapError,
    build_graph,
    cartesian_product,
    closed_ladder,
    complete,
    complete_bipartite,
    corona,
    corona_with_k1,
    cycle,
    m_degree,
    max_degree,
    path,
    random_connected_graph,
    sunlet,
    wheel,
)
from .io import (
    FormatError,
    format_colouring,
    format_graph,
    parse_colouring,
    parse_graph,
    read_graph,
    write_graph,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    enumerate_b_colourings,
    naive_b_chromatic_number,
    naive_extremal,
)
from .search import (
    DEFAULT_SEARCH_CAP,
    DisconnectedGraphError,
    SearchReport,
    b_chromatic_number,
    chromatic_number,
    full_report,
    max_mean_b_colouring,
    min_mean_b_colouring,
)
from .stats import (
    ChromaStats,
    ColourDistribution,
    Colouring,
    ColouringMismatchError,
    NoBColouringError,
    b_vertices,
    colouring_stats,
    distribution,
    is_b_colouring,
    is_proper,
    mean,
    stats_from_strengths,
    variance,
)

__version__ = "0.1.0"
