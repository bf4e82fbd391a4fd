"""Lifetimes of distillable multiparticle entanglement under local decoherence.

Analytic formulas, lower and upper bounds, and fast partial-transpose
spectra for GHZ, graph, and weighted-graph states subject to independent
single-qubit channels, cross-validated against a dense density-matrix
oracle.  The ``qdeco`` console script exposes the same machinery.
"""

from .channels import (
    ChannelFamily,
    ChannelMatrix,
    PauliChannel,
    QoChannel,
    eb_threshold,
    named_channel,
)
from .encode import breakeven, encoded_block_bound, encoded_lifetime, level_recursion
from .errors import CapacityError, EvaluationError, ValidationError
from .ghz import (
    blockwise_lower_M,
    blockwise_upper_M,
    blockwise_upper_M_from_kt,
    ghz_lifetime,
)
from .graphdiag import (
    GraphDiagonalState,
    lambda_from_pauli,
    pt_spectrum,
    scan_partitions,
)
from .graphs import Bipartition, Graph, graph_from_edges, load_graph, make_lattice
from .isingsep import (
    graph_separability_threshold,
    weighted_gate_threshold,
    weighted_gate_thresholds,
    weighted_graph_threshold,
)
from .pairdistill import (
    closed_form_threshold,
    lifetime_lower_bound,
    reduced_pair_state,
    universal_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CapacityError",
    "ChannelFamily",
    "ChannelMatrix",
    "EvaluationError",
    "Graph",
    "GraphDiagonalState",
    "PauliChannel",
    "QoChannel",
    "ValidationError",
    "blockwise_lower_M",
    "blockwise_upper_M",
    "blockwise_upper_M_from_kt",
    "breakeven",
    "closed_form_threshold",
    "eb_threshold",
    "encoded_block_bound",
    "encoded_lifetime",
    "ghz_lifetime",
    "graph_from_edges",
    "graph_separability_threshold",
    "lambda_from_pauli",
    "level_recursion",
    "lifetime_lower_bound",
    "load_graph",
    "make_lattice",
    "named_channel",
    "pt_spectrum",
    "reduced_pair_state",
    "scan_partitions",
    "universal_lower_bound",
    "weighted_gate_threshold",
    "weighted_gate_thresholds",
    "weighted_graph_threshold",
    "__version__",
]
