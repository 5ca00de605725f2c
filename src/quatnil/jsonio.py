"""JSON serialization for matrices, decompositions and decision reports.

Rationals travel as strings ("p/q" or "p") so no consumer ever rounds; a
matrix is {"algebra": {"a", "b"}, "rows", "cols", "entries"} with each entry
a four-string coordinate list [w, x, y, z].
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Optional

from .classify import Classification, Decision, TypeIIData
from .decompose import TwoNilpotentDecomposition
from .errors import ParameterError, ParseError, PreconditionError
from .qcore import AlgebraParams, ConjClass, Quaternion, rat
from .qlinalg import QMatrix, SimilarityWitness
from .spectral import DiagonalizationCertificate


def fraction_to_str(f: Fraction) -> str:
    try:
        return str(f)
    except ValueError as exc:  # past Python's limit on the digits of an integer string, which stays
        limit = sys.get_int_max_str_digits()
        raise ParameterError(f"an output rational exceeds the {limit}-digit limit on integer strings") from exc


def fraction_from_str(s) -> Fraction:
    try:
        return rat(str(s))
    except ValueError as exc:  # a bad literal, or an integer past the digit limit of str
        raise ParseError(str(exc)) from exc


def algebra_to_json(algebra: AlgebraParams) -> dict:
    return {"a": fraction_to_str(algebra.a), "b": fraction_to_str(algebra.b)}


def algebra_from_json(data) -> AlgebraParams:
    if not isinstance(data, dict) or "a" not in data or "b" not in data:
        raise ParseError("algebra object must carry 'a' and 'b'")
    return AlgebraParams(fraction_from_str(data["a"]), fraction_from_str(data["b"]))


def quaternion_to_json(q: Quaternion) -> list[str]:
    return [fraction_to_str(c) for c in q.coords()]


def quaternion_from_json(data, algebra: AlgebraParams) -> Quaternion:
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise ParseError("quaternion must be a list of four rational strings")
    return algebra.quat(*(fraction_from_str(c) for c in data))


def matrix_to_json(m: QMatrix) -> dict:
    return {
        "algebra": algebra_to_json(m.algebra),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[quaternion_to_json(e) for e in row] for row in m.entries],
    }


def matrix_from_json(data, algebra: Optional[AlgebraParams] = None) -> QMatrix:
    if not isinstance(data, dict):
        raise ParseError("matrix must be a JSON object")
    if algebra is None:
        if "algebra" not in data:
            raise ParseError("matrix object lacks an algebra")
        algebra = algebra_from_json(data["algebra"])
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ParseError("matrix object lacks entries")
    if not all(isinstance(row, list) for row in entries):
        raise ParseError("each matrix row must be a list of quaternions")
    rows = [[quaternion_from_json(e, algebra) for e in row] for row in entries]
    m = QMatrix(rows)
    if "rows" in data and data["rows"] != m.rows:
        raise ParseError("declared row count does not match entries")
    if "cols" in data and data["cols"] != m.cols:
        raise ParseError("declared column count does not match entries")
    return m


def decomposition_to_json(dec: TwoNilpotentDecomposition) -> dict:
    out = {"N1": matrix_to_json(dec.n1), "N2": matrix_to_json(dec.n2)}
    if dec.witness is not None:
        out["P"] = matrix_to_json(dec.witness.P)
        out["Pinv"] = matrix_to_json(dec.witness.Pinv)
    if dec.diag_zero is not None:
        out["diagZero"] = matrix_to_json(dec.diag_zero)
    return out


def decomposition_from_json(data) -> TwoNilpotentDecomposition:
    """The decomposition a document carries, with its witness loaded as data.

    The witness pair must be square of one size (PreconditionError if not);
    P*Pinv = I is left to `verify_certificate`, which multiplies them once.
    """
    if not isinstance(data, dict) or "N1" not in data or "N2" not in data:
        raise ParseError("decomposition object must carry 'N1' and 'N2'")
    n1 = matrix_from_json(data["N1"])
    alg = n1.algebra

    def load(key):
        doc = data[key]
        m = matrix_from_json(doc, None if isinstance(doc, dict) and "algebra" in doc else alg)
        if m.algebra != alg:
            raise ParseError(f"{key} uses a different algebra than N1")
        return m

    n2 = load("N2")
    witness = None
    if "P" in data and "Pinv" in data:
        p, pinv = load("P"), load("Pinv")
        if not p.is_square() or (pinv.rows, pinv.cols) != (p.rows, p.cols):
            raise PreconditionError("witness pair must be square matrices of one size")
        witness = SimilarityWitness._trusted(p, pinv)
    diag_zero = load("diagZero") if "diagZero" in data else None
    return TwoNilpotentDecomposition(n1=n1, n2=n2, witness=witness, diag_zero=diag_zero)


def conjclass_to_json(c: ConjClass) -> dict:
    return {
        "trace": fraction_to_str(c.trace),
        "norm": fraction_to_str(c.norm),
        "central": c.central,
        "representative": quaternion_to_json(c.representative),
    }


def certificate_to_json(cert: DiagonalizationCertificate) -> dict:
    return {
        "eigenvalue": quaternion_to_json(cert.eigenvalue),
        "P": matrix_to_json(cert.witness.P),
        "Pinv": matrix_to_json(cert.witness.Pinv),
    }


def type_ii_to_json(data: TypeIIData) -> dict:
    return {
        "lambda": fraction_to_str(data.lam),
        "rankOne": matrix_to_json(data.rank_one),
        "imageEigenvalue": quaternion_to_json(data.image_eigenvalue),
        "supertrace": conjclass_to_json(data.supertrace),
    }


def classification_to_json(cls: Classification) -> dict:
    out: dict = {"verdict": cls.verdict.value}
    if cls.type_i_scalar is not None:
        out["lambda"] = fraction_to_str(cls.type_i_scalar)
    if cls.type_ii is not None:
        out["typeII"] = type_ii_to_json(cls.type_ii)
    if cls.type_iii is not None:
        out["typeIII"] = certificate_to_json(cls.type_iii)
    return out


def decision_to_json(dec: Decision) -> dict:
    out: dict = {
        "answer": dec.answer,
        "reason": dec.reason.value,
        "reducedTrace": fraction_to_str(dec.trace),
    }
    if dec.type_i_scalar is not None:
        out["lambda"] = fraction_to_str(dec.type_i_scalar)
    if dec.type_ii is not None:
        out["typeII"] = type_ii_to_json(dec.type_ii)
    if dec.type_iii is not None:
        out["typeIII"] = certificate_to_json(dec.type_iii)
    if dec.note:
        out["note"] = dec.note
    return out
