"""The package's public names, pinned so one is added or removed only on
purpose, and a scan of the modules for imports they never use."""

import ast
from pathlib import Path

import bruhatchains

PUBLIC = [
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

PACKAGE = Path(bruhatchains.__file__).parent


def test_public_names_are_pinned():
    assert sorted(bruhatchains.__all__) == PUBLIC


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in import order.  A read
    is a bare name anywhere, the head of an attribute chain, or a name in
    a string annotation."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.AnnAssign, ast.arg)) and isinstance(
                node.annotation, ast.Constant):
            annotation = ast.parse(node.annotation.value, mode="eval")
            used.update(n.id for n in ast.walk(annotation)
                        if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from math import comb, prod as product\n"
              "from typing import Sequence\n"
              "x: 'Sequence[int]' = [json.dumps(comb)]\n")
    assert unused_imports(source) == ["os", "product"]


def test_no_module_imports_a_name_it_never_uses():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            assert unused_imports(path.read_text()) == [], path.name
