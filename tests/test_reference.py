"""The oracles in ``tests/_reference.py`` that the package no longer
carries are checked here, so that what the fused ops are compared against
stays verified: ``masked_softmax``, which the composed attention graph is
built from, and ``stack`` and ``unstack``, which the per-step graphs are
built from, against hand values and central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclecap.checks import check_gradients
from cyclecap.errors import DimensionError
from cyclecap.tensor import Parameter, Tape, Tensor, mul, sum_all

from _reference import masked_softmax, stack, unstack


def all_real(scores):
    """The (B, K) mask of (K, B) key-major scores with no masked key."""
    return np.ones(scores.shape[::-1], dtype=bool)


def test_softmax_symmetry():
    scores = Tensor([[0.0], [0.0]])
    np.testing.assert_allclose(masked_softmax(scores, all_real(scores)).data[0], [0.5, 0.5])


def test_softmax_direct_evaluation():
    scores = Tensor([[math.log(2.0)], [0.0], [0.0]])
    np.testing.assert_allclose(masked_softmax(scores, all_real(scores)).data[0],
                               [0.5, 0.25, 0.25], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
              elements=st.floats(-50, 50)))
def test_softmax_rows_are_distributions(x):
    scores = Tensor(x.T)
    out = masked_softmax(scores, all_real(scores)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def test_masked_key_gets_zero_weight_and_no_gradient():
    scores = Parameter([[1.0, 0.5], [2.0, -1.0], [50.0, 0.0]], "scores")   # (K, B)
    real = np.array([[True, True, False], [True, True, True]])
    with Tape() as tape:
        weights = masked_softmax(scores, real)
        tape.backward(sum_all(mul(weights, Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))))
    assert weights.data[0, 2] == 0.0
    np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(weights.data[0, :2], [1 / (1 + math.e), math.e / (1 + math.e)],
                               atol=1e-15)
    assert scores.grad[2, 0] == 0.0


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    scores = Parameter(rng.uniform(-0.8, 0.8, size=(3, 2)), "scores")   # key-major (K, B)
    probe = Parameter(rng.uniform(-0.8, 0.8, size=(2, 3)), "probe")
    real = np.array([[True, True, False], [True, True, True]])
    for mask in (all_real(scores), real):
        result = check_gradients(
            "masked_softmax", lambda mask=mask: sum_all(mul(masked_softmax(scores, mask), probe)),
            {"scores": scores, "probe": probe})
        assert result.max_error < 1e-3, (mask.tolist(), result.errors)


def test_unstack_values_and_bounds():
    a = np.arange(12.0).reshape(3, 2, 2)
    parts = unstack(Tensor(a))
    assert len(parts) == 3
    for i, part in enumerate(parts):
        np.testing.assert_array_equal(part.data, a[i])
    for bad in (Tensor(1.0), Tensor(np.zeros((0, 2)))):
        with pytest.raises(DimensionError):
            unstack(bad)


def test_stack_and_unstack_gradients_match_finite_differences():
    # stack along a middle axis, and unstack with one slice left unused, so
    # its zero gradient is checked too
    rng = np.random.default_rng(1)
    m = Parameter(rng.uniform(-0.8, 0.8, size=(3, 4)), "m")
    a = Parameter(rng.uniform(-0.8, 0.8, size=(3, 4)), "a")
    seq = Parameter(rng.uniform(-0.8, 0.8, size=(3, 2, 4)), "seq")

    def unstack_loss():
        first, _, last = unstack(seq)
        return sum_all(mul(first, last))

    for name, build, params in (
            ("stack", lambda: sum_all(mul(stack([m, a], axis=1), stack([a, m], axis=1))),
             {"m": m, "a": a}),
            ("unstack-unused-slice", unstack_loss, {"seq": seq})):
        result = check_gradients(name, build, params)
        assert result.max_error < 1e-3, (name, result.errors)
