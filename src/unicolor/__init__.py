"""Exact tools for uniquely k-colourable graphs.

A graph is uniquely k-colourable when its chromatic number is k and all
proper colourings with at most k colours induce the same vertex partition.
This package decides that property exactly, builds the expansion and
random constructions that manufacture such graphs, measures the critical
chromatic number, and runs isomorph-free censuses over small orders.
"""

import importlib

from .budget import Budget, BudgetExceededError
from .colouring import (
    Colouring,
    ColouringError,
    VerificationReport,
    chi_cr,
    chromatic_number,
    count_colour_partitions,
    find_colour_partition,
    is_proper,
    is_uniquely_k_colourable,
    kempe_change,
    sigma,
    two_class_connected,
    verify,
    xu_bound_holds,
)
from .graphs import (
    Graph,
    Graph6Error,
    OrderLimitError,
    canonical_form,
    clique_number,
    complete_graph,
    complete_join,
    cycle_graph,
    emit_graph6,
    girth,
    independence_number,
    is_connected,
    is_isomorphic,
    is_triangle_free,
    parse_graph6,
    path_graph,
    shortest_cycle,
    to_dot,
    vertex_connectivity_at_least,
)

__version__ = "0.1.0"

# census and constructions load the first time one of their names, or the
# module itself, is looked up here (PEP 562), so that ``import unicolor``
# and the commands that never use them do not pay for them.
_LAZY = {
    **dict.fromkeys(("CensusResult", "CensusTask", "Witness", "checkpoint_dumps",
                     "checkpoint_loads", "find_unique_k_witnesses", "generate", "resume"),
                    "census"),
    **dict.fromkeys(("ColouredGraph", "ConstructionError", "SamplerConfig",
                     "bollobas_sauer_sample", "builtin_catalog", "extend_uniquely",
                     "figure1_graphs", "independent_transversals", "iterate_nu",
                     "nesetril_step", "nu", "remove_short_cycles"), "constructions"),
}


def __getattr__(name: str):
    module = _LAZY.get(name, name)
    if module not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


__all__ = [
    "Budget",
    "BudgetExceededError",
    "CensusResult",
    "CensusTask",
    "ColouredGraph",
    "Colouring",
    "ColouringError",
    "ConstructionError",
    "Graph",
    "Graph6Error",
    "OrderLimitError",
    "SamplerConfig",
    "VerificationReport",
    "Witness",
    "bollobas_sauer_sample",
    "builtin_catalog",
    "canonical_form",
    "checkpoint_dumps",
    "checkpoint_loads",
    "chi_cr",
    "chromatic_number",
    "clique_number",
    "complete_graph",
    "complete_join",
    "count_colour_partitions",
    "cycle_graph",
    "emit_graph6",
    "extend_uniquely",
    "figure1_graphs",
    "find_colour_partition",
    "find_unique_k_witnesses",
    "generate",
    "girth",
    "independence_number",
    "independent_transversals",
    "is_connected",
    "is_isomorphic",
    "is_proper",
    "is_triangle_free",
    "is_uniquely_k_colourable",
    "iterate_nu",
    "kempe_change",
    "nesetril_step",
    "nu",
    "parse_graph6",
    "path_graph",
    "remove_short_cycles",
    "resume",
    "shortest_cycle",
    "sigma",
    "to_dot",
    "two_class_connected",
    "verify",
    "vertex_connectivity_at_least",
    "xu_bound_holds",
]
