"""Exact classification of denominator sets and Ore localizations of
finite-dimensional associative unital algebras over prime fields GF(p)."""

from .algebra import (
    Algebra,
    Element,
    Ideal,
    Quotient,
    build_algebra,
    direct_product,
    full_matrix,
    ideal_combine,
    lower_triangular,
    matrix_subalgebra,
    opposite_algebra,
    quotient_algebra,
    regular_matrix,
    truncated_poly,
    upper_triangular,
)
from .linalg import (
    DEFAULT_GUARD,
    InputError,
    InternalCheckError,
    ModulusMismatch,
    ResourceGuardError,
    Subspace,
    kernel,
    rank,
)
from .localization import (
    DenSetDescriptor,
    DualityReport,
    LocalizationReport,
    TwoSidedReport,
    associated_idempotent,
    classify_element,
    duality_report,
    idempotent_denominator_check,
    localization_report,
    monoid_denominator_decision,
    powers_denominator_criterion,
    two_sided_report,
)
from .oracle import (
    FiniteSetOfElements,
    brute_denominator_check,
    brute_idempotents,
    brute_radical,
    monoid_closure,
)
from .structure import IdempotentFamily, block_decomposition, ideal_block_support, radical
from .suite import CheckResult, run_invariants

__version__ = "0.1.0"
