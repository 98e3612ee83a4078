"""Bruhat and secondary Bruhat orders on classes of (0,1)-matrices with
fixed row and column sums: inversion counting, interchange moves,
exhaustive class posets, maximum-chain constructions, and search oracles.

The chain constructions, the matrices and the order predicates work on
Python-int rows and load without numpy.  The class engine, enumeration
and search load on first use of one of their names (PEP 562).
"""

from importlib import import_module

from .chains import (
    BruhatStep,
    Chain,
    ChainReport,
    base_chain_4,
    build_chain,
    build_extremes,
    chain_even,
    chain_from_json,
    chain_from_text,
    chain_odd,
    chain_p5_q5,
    chain_to_json,
    chain_to_text,
    chain_y_to_q5,
    delta,
    extremal_inversions,
    tabulated_chains_5,
    verify_chain,
    z_matrix,
)
from .errors import (
    BruhatError,
    ClassTooLarge,
    InfeasibleMargins,
    MalformedChain,
    MarginMismatch,
    NotInClass,
    PatternMismatch,
    SearchBudgetExceeded,
    StartAboveTarget,
    UnsupportedOrder,
)
from .matrices import (
    F3,
    F3R,
    I2,
    J2,
    L2,
    BinaryMatrix,
    Interchange,
    MarginPair,
    apply_interchange,
    canonical_key,
    cumulative_sums,
    direct_sum,
    find_interchanges,
    interchange_increment,
    inversion_count,
    reverse_columns,
)
from .order import (
    OrderVerdict,
    bruhat_leq,
    bruhat_less,
    bruhat_verdict,
    is_maximal_An2,
    is_minimal_An2,
    secondary_bruhat_leq,
)

# The names served on first use, each with the module that owns it; a
# module's own name serves the module.
_LAZY = {
    "engine": "engine",
    "enumeration": "enumeration",
    "search": "search",
    **dict.fromkeys(["ClassPoset", "build_interchange_dag", "build_poset",
                     "count_class", "enumerate_class"], "enumeration"),
    **dict.fromkeys(["MonotonicityReport", "SearchOutcome", "certificate",
                     "longest_chain", "maximal_chain_spectrum",
                     "monotonicity_check", "tight_chain_search"], "search"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "BinaryMatrix", "BruhatError", "BruhatStep", "Chain", "ChainReport",
    "ClassPoset", "ClassTooLarge", "F3", "F3R", "I2", "InfeasibleMargins",
    "Interchange", "J2", "L2", "MalformedChain", "MarginMismatch",
    "MarginPair", "MonotonicityReport", "NotInClass", "OrderVerdict",
    "PatternMismatch", "SearchBudgetExceeded", "SearchOutcome",
    "StartAboveTarget", "UnsupportedOrder", "apply_interchange",
    "base_chain_4", "bruhat_leq", "bruhat_less", "bruhat_verdict",
    "build_chain", "build_extremes", "build_interchange_dag", "build_poset",
    "canonical_key", "certificate", "chain_even", "chain_from_json",
    "chain_from_text", "chain_odd", "chain_p5_q5", "chain_to_json",
    "chain_to_text", "chain_y_to_q5", "chains", "count_class",
    "cumulative_sums", "delta", "direct_sum", "engine", "enumerate_class",
    "enumeration", "errors", "extremal_inversions", "find_interchanges",
    "interchange_increment", "inversion_count", "is_maximal_An2",
    "is_minimal_An2", "longest_chain", "matrices", "maximal_chain_spectrum",
    "monotonicity_check", "order", "reverse_columns", "search",
    "secondary_bruhat_leq", "tabulated_chains_5", "tight_chain_search",
    "verify_chain", "z_matrix",
]
__version__ = "0.1.0"
