"""Exact computations with pairing matrices of partitions, their column
matroids, Chow rings, polytopes, and coefficient matrices."""

__version__ = "0.1.0"

from .combinatorics import (
    Partition,
    Permutation,
    classify_pair,
    rearrangements,
)
from .errors import DomainError, ResourceLimitError
from .specht import SpechtMatrix, specht_matrix, young_character
from .matroid import LinearMatroid, specht_matroid
from .chow import chow_graded_dimensions, chow_presentation, hilbert_series_text
from .polytope import Polytope, polytope_from_columns, root_polytope_structure_check
from .coefficients import (
    LabeledCoefficientMatrix,
    kronecker_coefficient,
    kronecker_matrix,
    lr_coefficient,
    lr_matrix,
    plethysm_coefficient,
    plethysm_matrix,
)
from .conjectures import (
    check_conjecture1,
    check_conjecture2,
    cyclic_orbit_structures,
    derangement_excedance_counts,
    funny_sum,
)

__all__ = [
    "Partition",
    "Permutation",
    "classify_pair",
    "rearrangements",
    "DomainError",
    "ResourceLimitError",
    "SpechtMatrix",
    "specht_matrix",
    "young_character",
    "LinearMatroid",
    "specht_matroid",
    "chow_graded_dimensions",
    "chow_presentation",
    "hilbert_series_text",
    "Polytope",
    "polytope_from_columns",
    "root_polytope_structure_check",
    "LabeledCoefficientMatrix",
    "kronecker_coefficient",
    "kronecker_matrix",
    "lr_coefficient",
    "lr_matrix",
    "plethysm_coefficient",
    "plethysm_matrix",
    "check_conjecture1",
    "check_conjecture2",
    "cyclic_orbit_structures",
    "derangement_excedance_counts",
    "funny_sum",
]
