"""Completability analysis of low-rank matrix observation patterns.

The library decides, for a 0/1 observation mask and a target rank, what can be
said about the number of rank-r matrices agreeing with the observed positions:
exact partition-plus-linkage-support certificates for finite and unique
completability, a counting-based necessary test, exact GF(p) tangent rank
tests at random points, exact completion once a column space is known, and the
linear system of hyperplane sections in Plucker coordinates. The Plucker
coordinates of a subspace basis are exposed as well (``plucker_of_basis``).
"""

__version__ = "0.1.0"

from .certificates import (
    Certificate,
    NecessaryConditionVerdict,
    RelaxedSlmfVerdict,
    SearchOutcome,
    SlmfWitness,
    VerificationResult,
    certificate_from_json,
    certificate_to_json,
    check_necessary_condition,
    check_relaxed_slmf,
    find_finite_certificate,
    find_unique_certificate,
    verify_certificate,
)
from .numerics import (
    DegenerateProjectionError,
    ExportedSystem,
    InconsistentObservationError,
    ObservedMatrix,
    RankReport,
    SectionTestError,
    TangentSizeError,
    complete_matrix,
    export_plucker_system,
    grassmann_section_rank_test,
    jacobian_rank_test,
    observed_from_csv,
    observed_to_csv,
)
from .patterns import (
    MinimumSizeCheck,
    ObservationPattern,
    PatternFormatError,
    load_pattern,
    minimum_size_check,
    parse_pattern,
    pattern_from_json,
    pattern_to_grid,
    random_pattern,
)
from .plucker import (
    NotABasisError,
    PluckerVector,
    SubspaceBasis,
    plucker_of_basis,
)
from .slmf import (
    Slmf,
    SlmfVerdict,
    check_slmf_combinatorial,
    check_slmf_randomized,
    slmf_from_grid,
    slmf_to_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
