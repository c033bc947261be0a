"""Exact workbench for finite-dimensional alternative algebras.

Structure constants over Q or GF(p), Peirce decomposition at an
idempotent, hypothesis checkers, derivation and Lie-type derivation
spaces, the derivation + central-map splitting, and brute-force table
search on small finite rings.

``import altrings`` loads `algebra`, `catalog`, `fields`, `linalg` and
`verdict`.  The names from `peirce` (Peirce contexts, conditions (1)-(4),
primality), `lietype` (derivation spaces, `decompose`) and `finite` (value
tables and their search) are in ``__all__`` too, but their module loads on
first use of one of its names, so a process pays only for what it runs.
No module loads `dataclasses` or `inspect`: result records are NamedTuples,
so they unpack and equal the tuple of their values (``SearchReport``, which
the search fills in, and ``ConditionsReport``, read by key, are plain classes).
"""

import importlib

from .algebra import (
    Algebra,
    AlgebraElement,
    AlgebraError,
    BudgetError,
    IdentityReport,
    LinearMap,
    associator,
    center,
    classify_identities,
    commutator,
    find_idempotents,
    find_unit,
    is_derivation,
    is_idempotent,
    jordan_product,
    nucleus,
    torsion_free,
)
from .catalog import CATALOG_NAMES, SafError, catalog, direct_sum, opposite, parse, serialize
from .fields import GF, QQ, FieldError, PrimeField, RationalField, parse_field
from .linalg import Matrix, Subspace, kernel, rank, rref, solve
from .verdict import ConditionVerdict, Verdict

__version__ = "0.1.0"

# name -> home module of the names loaded on first use
_LAZY = {
    **dict.fromkeys((
        "FiniteRing",
        "MapTable",
        "almost_additivity_defect",
        "construct_converse_example",
        "pruned_exhaustive_search",
        "verify_lie_n_identity",
    ), "finite"),
    **dict.fromkeys((
        "Decomposition",
        "DecompositionError",
        "NormalizationError",
        "OperatorSpace",
        "check_conditions_abc",
        "conditions_abc_subspace",
        "decompose",
        "derivation_space",
        "fosner_inclusion",
        "lie_leibniz_residual",
        "lie_n_derivation_space",
        "nested_commutator",
        "nested_commutator_span",
        "normalize_at_idempotent",
        "standard_inner_derivation",
    ), "lietype"),
    **dict.fromkeys((
        "PeirceContext",
        "PeirceError",
        "check_conditions_1_to_4",
        "check_offdiag_commutant",
        "is_prime",
        "peirce_context",
        "verify_peirce_relations",
    ), "peirce"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the home module on every access and never stored here, so
    # whoever patches the home module's attribute (and later restores it)
    # is seen through the package as well.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


# the names imported above, then the names of _LAZY
__all__ = [
    "Algebra",
    "AlgebraElement",
    "AlgebraError",
    "BudgetError",
    "CATALOG_NAMES",
    "ConditionVerdict",
    "FieldError",
    "GF",
    "IdentityReport",
    "LinearMap",
    "Matrix",
    "PrimeField",
    "QQ",
    "RationalField",
    "SafError",
    "Subspace",
    "Verdict",
    "associator",
    "catalog",
    "center",
    "classify_identities",
    "commutator",
    "direct_sum",
    "find_idempotents",
    "find_unit",
    "is_derivation",
    "is_idempotent",
    "jordan_product",
    "kernel",
    "nucleus",
    "opposite",
    "parse",
    "parse_field",
    "rank",
    "rref",
    "serialize",
    "solve",
    "torsion_free",
    *_LAZY,
]
