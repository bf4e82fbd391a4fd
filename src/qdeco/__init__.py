"""Lifetimes of distillable multiparticle entanglement under local decoherence.

Analytic formulas, lower and upper bounds, and fast partial-transpose
spectra for GHZ, graph, and weighted-graph states subject to independent
single-qubit channels, cross-validated against a dense density-matrix
oracle.  The ``qdeco`` console script exposes the same machinery.

The package imports its modules on first use: ``import qdeco`` loads
neither numpy nor any submodule, and ``qdeco.scan_partitions`` imports
``qdeco.graphdiag`` the first time it is read (PEP 562).  ``_EXPORTS``
maps each public name to the module that defines it, and ``__all__`` is
its keys.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ChannelFamily": "channels",
    "ChannelMatrix": "channels",
    "PauliChannel": "channels",
    "QoChannel": "channels",
    "eb_threshold": "channels",
    "named_channel": "channels",
    "breakeven": "encode",
    "encoded_block_bound": "encode",
    "encoded_lifetime": "encode",
    "level_recursion": "encode",
    "CapacityError": "errors",
    "EvaluationError": "errors",
    "ValidationError": "errors",
    "blockwise_lower_M": "ghz",
    "blockwise_upper_M": "ghz",
    "blockwise_upper_M_from_kt": "ghz",
    "ghz_lifetime": "ghz",
    "GraphDiagonalState": "graphdiag",
    "lambda_from_pauli": "graphdiag",
    "pt_spectrum": "graphdiag",
    "scan_partitions": "graphdiag",
    "Bipartition": "graphs",
    "Graph": "graphs",
    "graph_from_edges": "graphs",
    "load_graph": "graphs",
    "make_lattice": "graphs",
    "graph_separability_threshold": "isingsep",
    "weighted_gate_threshold": "isingsep",
    "weighted_graph_threshold": "isingsep",
    "closed_form_threshold": "pairdistill",
    "lifetime_lower_bound": "pairdistill",
    "reduced_pair_state": "pairdistill",
    "universal_lower_bound": "pairdistill",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # Also how `from qdeco import ghz` reaches the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
