"""Property tests of the n = 2 rule, the decomposition JSON and the parsers, over four algebras.

Hypothesis draws 2x2 matrices of reduced trace zero from four shapes: any
small entries, which are mostly refused; the companion [[0, q], [1, 0]],
which is always accepted; a diagonal; and Diag(mu, mu) with mu pure, whose
square is central.  Each is conjugated, or not, by a product of two
unipotent shears, so that no inversion is needed to build it.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatnil import jsonio
from quatnil.classify import is_sum_of_two_nilpotents
from quatnil.decompose import decompose_two_nilpotents, verify_certificate
from quatnil.errors import ParameterError, ParseError, PreconditionError
from quatnil.qcore import AlgebraParams
from quatnil.qlinalg import QMatrix, reduced_trace

ALGEBRAS = [(-1, -1), (-1, -7), (2, -5), (-11, -13)]

# deterministic, no example database on disk, and no per-example deadline
BOUNDED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def trace_zero_2x2(draw, alg: AlgebraParams) -> QMatrix:
    small = st.integers(-2, 2)
    quat = st.builds(alg.quat, small, small, small, small)
    a, b, c, d = (draw(quat) for _ in range(4))
    shape = draw(st.sampled_from(["any", "companion", "diagonal", "pure scalar"]))
    zero, one = alg.zero(), alg.one()
    if shape == "companion":
        a, c, d = zero, one, zero
    elif shape != "any":
        b = c = zero
    if shape == "pure scalar":
        a = d = a - alg.scalar(a.w)
    d = d - alg.scalar(a.w + d.w)
    s, t = (draw(quat), draw(quat)) if draw(st.booleans()) else (zero, zero)
    shear = QMatrix([[one, s], [zero, one]]) * QMatrix([[one, zero], [t, one]])
    unshear = QMatrix([[one, zero], [-t, one]]) * QMatrix([[one, -s], [zero, one]])
    m = shear * QMatrix([[a, b], [c, d]]) * unshear
    assert reduced_trace(m) == 0
    return m


def _algebra(ab) -> AlgebraParams:
    return AlgebraParams(Fraction(ab[0]), Fraction(ab[1]))


@pytest.mark.parametrize("ab", ALGEBRAS, ids=str)
@BOUNDED
@given(data=st.data())
def test_yes_exactly_when_a_checked_certificate_is_built(ab, data):
    m = data.draw(trace_zero_2x2(_algebra(ab)))
    if is_sum_of_two_nilpotents(m).answer:
        dec = decompose_two_nilpotents(m)
        assert verify_certificate(m, dec.n1, dec.n2, dec.witness)
    else:
        with pytest.raises(PreconditionError, match="not a sum of two nilpotents"):
            decompose_two_nilpotents(m)


@pytest.mark.parametrize("ab", ALGEBRAS, ids=str)
@BOUNDED
@given(data=st.data())
def test_the_witness_starts_with_one_of_the_five_candidates(ab, data):
    alg = _algebra(ab)
    m = data.draw(trace_zero_2x2(alg))
    decision = is_sum_of_two_nilpotents(m)
    if not decision.answer or m.is_zero():
        return
    p1, p2 = decision.square_certificate.witness.Pinv.columns()
    _, i, j, _ = alg.basis()
    candidates = [p1, p2, p1 + p2, p1 + p2.scale_right(i), p1 + p2.scale_right(j)]
    x, mx = decompose_two_nilpotents(m).witness.Pinv.columns()
    assert x in candidates and mx == m.apply(x)


@pytest.mark.parametrize("ab", ALGEBRAS, ids=str)
@BOUNDED
@given(data=st.data())
def test_the_decomposition_json_round_trips(ab, data):
    m = data.draw(trace_zero_2x2(_algebra(ab)))
    if not is_sum_of_two_nilpotents(m).answer:
        return
    dec = decompose_two_nilpotents(m)
    doc = json.loads(json.dumps(jsonio.decomposition_to_json(dec)))
    again = jsonio.decomposition_from_json(doc)
    assert (again.n1, again.n2, again.diag_zero) == (dec.n1, dec.n2, dec.diag_zero)
    assert (again.witness.P, again.witness.Pinv) == (dec.witness.P, dec.witness.Pinv)
    assert jsonio.decomposition_to_json(again) == doc


# arbitrary JSON values, and well-formed documents with one slot, at any depth,
# replaced by such a value or deleted
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=8,
)
MATRIX_DOC = {
    "algebra": {"a": "-1", "b": "-7"},
    "rows": 2,
    "cols": 2,
    "entries": [[["0", "0", "0", "0"], ["0", "1", "0", "0"]], [["0", "1", "0", "0"], ["1/2", "0", "0", "0"]]],
}
DECOMPOSITION_DOC = {key: MATRIX_DOC for key in ("N1", "N2", "P", "Pinv", "diagZero")}


@st.composite
def mutated(draw, doc):
    """A copy of doc in which the slot reached by descending at random is replaced or deleted."""
    doc = copy.deepcopy(doc)
    node, key, value = None, None, doc
    while isinstance(value, (dict, list)) and value and draw(st.booleans()):
        node = value
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        value = node[key]
    if node is None:
        return draw(JSON_VALUES)
    if isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return doc


def _parses_or_refuses(parse, doc):
    """A document loads or raises a documented error, never anything else."""
    try:
        parse(doc)
    except (ParseError, ParameterError):
        pass
    except PreconditionError as exc:
        assert "witness pair" in str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(matrix=mutated(MATRIX_DOC), decomposition=mutated(DECOMPOSITION_DOC))
def test_the_parsers_raise_only_documented_errors(matrix, decomposition):
    _parses_or_refuses(jsonio.matrix_from_json, matrix)
    _parses_or_refuses(jsonio.decomposition_from_json, decomposition)
