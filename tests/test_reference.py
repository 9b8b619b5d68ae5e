"""The oracles in ``tests/_reference.py`` that the package no longer
carries are checked here, so that what the fused ops are compared against
stays verified: ``masked_softmax``, which the composed attention graph is
built from, ``stack`` and ``unstack``, which the per-step graphs are built
from, and the primitives that the composed key side, image projection,
encoder lookup, initial state and losses are built from, against hand
values and central finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclecap.checks import check_gradients
from cyclecap.errors import DimensionError
from cyclecap.tensor import Parameter, Tape, Tensor

from _reference import (add, batch_matmul, concat, dropout, embedding_lookup, frobenius,
                        log_softmax, masked_mean, masked_softmax, matmul, mul, pick, scale,
                        stack, sub, sum_all, tanh, transpose, unstack)


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


def test_moved_primitive_gradients_match_finite_differences():
    # each away from any non-smooth point; the masked ops see a padded row,
    # so their zero gradients are checked too
    rng = np.random.default_rng(2)

    def p(shape, name):
        return Parameter(rng.uniform(-0.8, 0.8, size=shape), name)

    v, w, t3, u3, x2, probe = p((4,), "v"), p((4,), "w"), p((2, 3, 4), "t3"), \
        p((2, 4, 3), "u3"), p((2, 4), "x2"), p((2, 3), "probe")
    m, probe_m = p((3, 4), "m"), p((3, 4), "probe_m")
    a, b, table = p((3, 4), "a"), p((4, 2), "b"), p((5, 3), "table")
    real = np.array([[True, True, False], [True, True, True]])   # (B, K)

    def seeded_dropout():
        return sum_all(mul(dropout(v, 0.5, np.random.default_rng(123)), w))

    cases = [
        # the ops read through check_gradients' own probes
        ("matmul", lambda: matmul(a, b), {"a": a, "b": b}),
        ("matmul-batched", lambda: matmul(t3, b), {"t3": t3, "b": b}),
        ("matmul-vector", lambda: matmul(t3, v), {"t3": t3, "v": v}),
        ("add", lambda: add(v, w), {"v": v, "w": w}),
        ("add-broadcast", lambda: add(m, v), {"m": m, "v": v}),
        ("scale", lambda: scale(v, 2.5), {"v": v}),
        ("concat", lambda: concat([v, w]), {"v": v, "w": w}),
        ("concat-last-axis", lambda: concat([m, a]), {"m": m, "a": a}),
        ("tanh", lambda: tanh(v), {"v": v}),
        ("embedding-lookup", lambda: embedding_lookup(table, [0, 2, 2, 4]),
         {"table": table}),
        ("embedding-lookup-matrix", lambda: embedding_lookup(table, [[0, 2], [2, 4]]),
         {"table": table}),
        ("mul", lambda: sum_all(mul(v, w)), {"v": v, "w": w}),
        ("sub", lambda: sum_all(mul(sub(v, w), sub(v, w))), {"v": v, "w": w}),
        ("batch_matmul", lambda: sum_all(mul(batch_matmul(t3, u3), batch_matmul(t3, u3))),
         {"t3": t3, "u3": u3}),
        ("batch_matmul-rows", lambda: sum_all(mul(batch_matmul(x2, u3), probe)),
         {"x2": x2, "u3": u3, "probe": probe}),
        ("transpose", lambda: sum_all(mul(transpose(t3, (1, 0, 2)), transpose(t3, (1, 0, 2)))),
         {"t3": t3}),
        ("dropout", seeded_dropout, {"v": v, "w": w}),
        ("masked_mean-padded-row", lambda: sum_all(mul(masked_mean(t3, real), x2)),
         {"t3": t3, "x2": x2}),
        ("frobenius-padded-row", lambda: sum_all(frobenius(t3, real)), {"t3": t3}),
        ("pick", lambda: pick(mul(v, w), 3), {"v": v, "w": w}),
        ("pick-masked", lambda: sum_all(mul(pick(t3, [[0, 3, 1], [2, 2, 3]], real), probe)),
         {"t3": t3, "probe": probe}),
        ("log_softmax", lambda: sum_all(mul(log_softmax(m), probe_m)),
         {"m": m, "probe_m": probe_m}),
    ]
    for name, build, params in cases:
        result = check_gradients(name, build, params)
        assert result.max_error < 1e-3, (name, result.errors)
    assert not t3.grad[0, 2].any()   # pick-masked: the padded row of record 0
