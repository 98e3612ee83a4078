"""Bruhat and secondary Bruhat orders on classes of (0,1)-matrices with
fixed row and column sums: inversion counting, interchange moves,
exhaustive class posets, maximum-chain constructions, and search oracles.
"""

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
from .enumeration import (
    ClassPoset,
    build_interchange_dag,
    build_poset,
    count_class,
    enumerate_class,
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
from .search import (
    MonotonicityReport,
    SearchOutcome,
    certificate,
    longest_chain,
    maximal_chain_spectrum,
    monotonicity_check,
    tight_chain_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
