"""Exact two-nilpotent decomposition of matrices over rational quaternion algebras."""

from .classify import Classification, Decision, Reason, Verdict, classify, is_sum_of_two_nilpotents
from .decompose import (
    TwoNilpotentDecomposition,
    completion_2x2,
    decompose_two_nilpotents,
    diag_zero_form,
    field_diag_zero,
    verify_certificate,
    verify_decomposition,
)
from .qcore import AlgebraParams, ConjClass, Quaternion, hamilton_algebra, rat
from .qlinalg import QMatrix, QVector, SimilarityWitness
from .spectral import DiagonalizationCertificate, unispectral_diagonalizable

__all__ = [
    "AlgebraParams",
    "Classification",
    "ConjClass",
    "Decision",
    "DiagonalizationCertificate",
    "QMatrix",
    "QVector",
    "Quaternion",
    "Reason",
    "SimilarityWitness",
    "TwoNilpotentDecomposition",
    "Verdict",
    "classify",
    "completion_2x2",
    "decompose_two_nilpotents",
    "diag_zero_form",
    "field_diag_zero",
    "hamilton_algebra",
    "is_sum_of_two_nilpotents",
    "rat",
    "unispectral_diagonalizable",
    "verify_certificate",
    "verify_decomposition",
]

__version__ = "0.1.0"
