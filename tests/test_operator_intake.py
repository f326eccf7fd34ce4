"""One operator intake: `fock.checked_operator` takes every operator the library computes with."""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qfringe
from qfringe import (
    FockSpace,
    amplitude_variation_check,
    anticommutator,
    commutator,
    fock_state,
    picture_equivalence_check,
    tensor_product,
)
from qfringe.oracle import heisenberg_conjugate


@st.composite
def operator_pairs(draw):
    """Two random complex square operators of one dimension, 1 to 6."""
    dim = draw(st.integers(1, 6))
    parts = draw(hnp.arrays(float, (2, 2, dim, dim), elements=st.floats(-1e3, 1e3)))
    return parts[:, 0] + 1j * parts[:, 1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(operator_pairs())
def test_brackets_are_the_bare_products_bit_for_bit(pair):
    a, b = pair
    for got, want in ((commutator(a, b), a @ b - b @ a), (anticommutator(a, b), a @ b + b @ a)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert tensor_product(a, b).tobytes() == np.kron(a, b).tobytes()


H = np.diag([0.5, -0.5]).astype(complex)
KET = np.array([1.0, 0.0], dtype=complex)
STATE = fock_state(FockSpace(2), 0)

# site -> (the call with the operand under test, the name its errors give); every other operand is 2x2
SITES = {
    "commutator_a": (lambda op: commutator(op, H), "a"),
    "commutator_b": (lambda op: commutator(H, op), "b"),
    "anticommutator_a": (lambda op: anticommutator(op, H), "a"),
    "anticommutator_b": (lambda op: anticommutator(H, op), "b"),
    "tensor_product": (lambda op: tensor_product(H, op), "factor 1"),
    "heisenberg_conjugate": (lambda op: heisenberg_conjugate(op, H, 0.3), "operator"),
    "picture_equivalence_check": (lambda op: picture_equivalence_check(op, STATE, H, 0.3), "operator"),
    "amplitude_variation_check": (lambda op: amplitude_variation_check(KET, KET, op, 0.0, 0.7, 1e-4), "Hamiltonian"),
}

MALFORMED = {
    "nan": (np.full((2, 2), np.nan), "{} entries must be finite"),
    "one_d": (np.ones(2), "{} must be a square matrix"),
    "non_square": (np.ones((2, 3)), "{} must be a square matrix"),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("site", SITES)
def test_a_malformed_operand_is_refused_by_name(site, case):
    call, name = SITES[site]
    op, message = MALFORMED[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(name))}$"):
        call(op)


# A 3x3 operand among 2x2 ones; Kronecker factors may differ in size, so tensor_product is not here.
MISMATCHED = {
    "commutator_a": "b must be 3x3, got shape (2, 2)",
    "commutator_b": "b must be 2x2, got shape (3, 3)",
    "anticommutator_a": "b must be 3x3, got shape (2, 2)",
    "anticommutator_b": "b must be 2x2, got shape (3, 3)",
    "heisenberg_conjugate": "operator must be 2x2, got shape (3, 3)",
    "picture_equivalence_check": "operator must be 2x2, got shape (3, 3)",
    "amplitude_variation_check": "Hamiltonian must be 2x2, got shape (3, 3)",
}


@pytest.mark.parametrize("site", MISMATCHED)
def test_a_size_mismatched_operand_is_refused_by_name(site):
    call, _ = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(MISMATCHED[site])}$"):
        call(np.eye(3))


def _raw_complex_intakes(source: str) -> Counter:
    """Enclosing qualified name -> count of `np.asarray(..., dtype=complex)` calls (or `complex` positional)."""
    found = Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "asarray"
            and any(
                isinstance(arg, ast.Name) and arg.id == "complex"
                for arg in [*node.args[1:], *(kw.value for kw in node.keywords if kw.arg == "dtype")]
            )
        ):
            found[".".join(scope)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_operator_enters_past_the_intake():
    # Only the operator intake and the state intake take raw complex arrays.
    assert _raw_complex_intakes("def f(op):\n    return np.asarray(op, complex)\n") == {"f": 1}
    found = Counter()
    for path in sorted(Path(qfringe.__file__).parent.glob("*.py")):
        for scope, count in _raw_complex_intakes(path.read_text()).items():
            found[f"{path.stem}.{scope}"] += count
    assert found == {
        "fock.checked_operator": 1,
        "fock.QuantumState.__post_init__": 1,
    }
