import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cyclecap.checks import check_gradients
from cyclecap.errors import DimensionError, NumericError, StateError
from cyclecap.tensor import (Parameter, Tape, Tensor, add, additive_attention, concat,
                             dropout, embedding_lookup, frobenius, log_softmax, lstm_cell,
                             masked_mean, masked_softmax, matmul, mul, pick, scale,
                             stack, sub, sum_all, unstack)

from _reference import step_additive_attention, step_lstm_cell


def test_softmax_symmetry():
    out = masked_softmax(Tensor([[0.0], [0.0]]), None)
    np.testing.assert_allclose(out.data[0], [0.5, 0.5])


def test_softmax_direct_evaluation():
    out = masked_softmax(Tensor([[math.log(2.0)], [0.0], [0.0]]), None)
    np.testing.assert_allclose(out.data[0], [0.5, 0.25, 0.25], atol=1e-15)


def test_matmul_identity():
    x = np.arange(12.0).reshape(3, 4)
    out = matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_shape_error_names_operation():
    with pytest.raises(DimensionError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_nonfinite_input_rejected():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    bad = Tensor([1.0, 2.0])
    bad.data = np.array([np.nan, 1.0])  # simulate corruption downstream
    with pytest.raises(NumericError, match="add"):
        add(bad, Tensor([1.0, 2.0]))


def test_backward_sum_of_squares():
    x = Parameter([1.0, 2.0], "x")
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_cross_entropy_at_uniform_logits():
    k = 5
    logits = Parameter(np.zeros(k), "logits")
    target = 2
    with Tape() as tape:
        loss = scale(pick(log_softmax(logits), target), -1.0)
        tape.backward(loss)
    expected = np.full(k, 1.0 / k)
    expected[target] -= 1.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_backward_twice_raises():
    x = Parameter([1.0], "x")
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        tape.backward(loss)
        with pytest.raises(StateError):
            tape.backward(loss)


def test_backward_requires_scalar_on_this_tape():
    x = Parameter([1.0, 2.0], "x")
    with Tape() as tape:
        y = mul(x, x)
        with pytest.raises(DimensionError):
            tape.backward(y)
    with Tape() as tape:
        sum_all(mul(x, x))
        foreign = Tensor(np.asarray(3.0))
        with pytest.raises(StateError):
            tape.backward(foreign)


def _lstm_operands(seed=0, batch=2, n_in=3, hidden=4):
    rng = np.random.default_rng(seed)
    return (Parameter(rng.standard_normal((batch, n_in)), "x"),
            Parameter(rng.standard_normal((batch, hidden)), "h"),
            Parameter(rng.standard_normal((batch, hidden)), "c"),
            Parameter(rng.standard_normal((n_in + hidden, 4 * hidden)), "w"),
            Parameter(rng.standard_normal(4 * hidden), "b"))


def _lstm_grads(read):
    """Gradients of the operands of one per-step LSTM record when the loss
    reads the outputs that ``read`` picks from (h, c)."""
    x, h, c, w, b = _lstm_operands()
    with Tape() as tape:
        outs = step_lstm_cell([x], h, c, w, b)
        assert len(tape) == 1
        loss = sum_all(read(outs))
        tape.backward(loss)
    return [p.grad.copy() for p in (x, h, c, w, b)], outs


def test_backward_from_either_output_of_a_multi_output_record():
    from_h, (h_out, _) = _lstm_grads(lambda outs: outs[0])
    from_c, (_, c_out) = _lstm_grads(lambda outs: outs[1])
    from_both, _ = _lstm_grads(lambda outs: add(outs[0], outs[1]))
    assert h_out.grad is not None and c_out.grad is not None
    for gh, gc, g in zip(from_h, from_c, from_both):
        assert np.abs(gh).sum() > 0 and np.abs(gc).sum() > 0
        np.testing.assert_allclose(gh + gc, g, rtol=1e-12, atol=1e-14)


def test_unused_outputs_receive_zeros():
    seen = []
    a = Parameter(np.arange(6.0).reshape(3, 2), "a")
    with Tape() as tape:
        first, _, last = unstack(a)
        outs, parents, rule = tape._records[-1]

        def spy(*grads):
            seen.extend(g.copy() for g in grads)
            return rule(*grads)

        tape._records[-1] = (outs, parents, spy)
        tape.backward(sum_all(mul(first, last)))
    np.testing.assert_array_equal(seen[1], np.zeros(2))
    np.testing.assert_array_equal(a.grad, [[4.0, 5.0], [0.0, 0.0], [0.0, 1.0]])


def test_record_without_a_gradient_is_skipped():
    x, h, c, w, b = _lstm_operands()
    with Tape() as tape:
        step_lstm_cell([x], h, c, w, b)
        tape.backward(sum_all(mul(x, x)))
    for p in (h, c, w, b):
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))


def test_multi_output_op_outside_a_tape_records_nothing():
    x, h, c, w, b = _lstm_operands()
    h_out, c_out = step_lstm_cell([x], h, c, w, b)
    parts = unstack(Tensor(np.ones((2, 3))))
    loss = sum_all(add(h_out, c_out))
    with Tape() as tape:
        with pytest.raises(StateError):
            tape.backward(loss)
    assert len(tape) == 0 and len(parts) == 2
    assert h_out.grad is None and c_out.grad is None
    for p in (x, h, c, w, b):
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.data))


def test_backward_twice_raises_on_multi_output_records():
    x, h, c, w, b = _lstm_operands()
    with Tape() as tape:
        h_out, c_out = step_lstm_cell([x], h, c, w, b)
        loss = sum_all(add(h_out, c_out))
        tape.backward(loss)
        with pytest.raises(StateError):
            tape.backward(loss)


def test_decode_step_ops_refuse_an_active_tape():
    # decoding never runs backward, so the per-step ops keep no rule; outside
    # a tape they compute what their per-step records compute
    x, h, c, w, b = _lstm_operands()
    rng = np.random.default_rng(1)
    projected, rows, w_query_t, combine = (
        Tensor(rng.standard_normal(shape)) for shape in ((3, 2, 5), (2, 3, 4), (4, 5), (5,)))
    mask = np.array([[True, True, False], [True, True, True]])
    attention = (projected, rows, mask, h, w_query_t, combine)
    for op, reference, args in ((lstm_cell, step_lstm_cell, ([x], h, c, w, b)),
                                (additive_attention, step_additive_attention, attention)):
        for got, want in zip(op(*args), reference(*args), strict=True):
            np.testing.assert_array_equal(got.data, want.data)
        with Tape() as tape:
            with pytest.raises(StateError, match="decode"):
                op(*args)
        assert len(tape) == 0


def test_unstack_values_and_bounds():
    a = np.arange(12.0).reshape(3, 2, 2)
    parts = unstack(Tensor(a))
    assert len(parts) == 3
    for i, part in enumerate(parts):
        np.testing.assert_array_equal(part.data, a[i])
    for bad in (Tensor(1.0), Tensor(np.zeros((0, 2)))):
        with pytest.raises(DimensionError):
            unstack(bad)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(StateError):
            with Tape():
                pass


def test_unreachable_parameter_has_zero_grad():
    x = Parameter([1.0, 2.0], "x")
    unused = Parameter([3.0], "unused")
    with Tape() as tape:
        tape.backward(sum_all(mul(x, x)))
    np.testing.assert_array_equal(unused.grad, [0.0])


def test_grad_accumulates_over_shared_use():
    x = Parameter([3.0], "x")
    with Tape() as tape:
        tape.backward(sum_all(add(mul(x, x), mul(x, x))))
    np.testing.assert_allclose(x.grad, [12.0])


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
              elements=st.floats(-50, 50)))
def test_softmax_rows_are_distributions(x):
    out = masked_softmax(Tensor(x.T), None).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_dropout_deterministic_under_seed(seed):
    x = Tensor(np.ones(64))
    a = dropout(x, 0.5, np.random.default_rng(seed)).data
    b = dropout(x, 0.5, np.random.default_rng(seed)).data
    np.testing.assert_array_equal(a, b)


def test_dropout_rate_validation_and_eval_identity():
    x = Tensor(np.ones(8))
    with pytest.raises(NumericError):
        dropout(x, 1.0, np.random.default_rng(0))
    assert dropout(x, 0.0, np.random.default_rng(0)) is x


def test_concat_and_stack_roundtrip_shapes():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0])
    assert concat([a, b]).shape == (3,)
    m = stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
    np.testing.assert_array_equal(m.data, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionError):
        stack([Tensor([1.0, 2.0]), Tensor([3.0])])


def test_embedding_lookup_bounds():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(embedding_lookup(table, 1).data, [2.0, 3.0])
    with pytest.raises(DimensionError):
        embedding_lookup(table, 3)


def test_frobenius_subgradient_at_zero():
    x = Parameter([[[0.0, 0.0]], [[3.0, 4.0]]], "x")
    with Tape() as tape:
        norms = frobenius(x, np.ones((2, 1), dtype=bool))
        tape.backward(sum_all(norms))
    np.testing.assert_allclose(norms.data, [0.0, 5.0])
    np.testing.assert_allclose(x.grad, [[[0.0, 0.0]], [[0.6, 0.8]]])


def test_same_seed_same_graph_bit_identical():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = Parameter(rng.standard_normal((4, 3)), "x")
        with Tape() as tape:
            y = dropout(tanh_like(x), 0.3, np.random.default_rng(seed + 1))
            loss = sum_all(mul(y, y))
            tape.backward(loss)
        return loss.data.copy(), x.grad.copy()

    def tanh_like(t):
        return add(t, scale(t, 0.5))

    la, ga = run(11)
    lb, gb = run(11)
    assert la.tobytes() == lb.tobytes()
    assert ga.tobytes() == gb.tobytes()


def test_composed_graph_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = Parameter(rng.standard_normal((3, 4)), "w")
    v = Parameter(rng.standard_normal((4, 1)), "v")
    b = Parameter(rng.standard_normal((3, 1)), "b")

    def build():
        hidden = masked_softmax(add(matmul(w, v), b), None)   # (1, 3)
        pooled = masked_mean(stack([hidden, mul(hidden, hidden)], axis=1),
                             np.ones((1, 2), dtype=bool))
        return sum_all(mul(pooled, pooled))

    result = check_gradients("composed", build, {"w": w, "v": v, "b": b})
    assert result.max_error < 1e-3


def test_broadcast_add():
    v = Tensor([1.0, 2.0])
    m = Tensor(np.ones((3, 2)))
    np.testing.assert_array_equal(add(m, v).data, [[2.0, 3.0]] * 3)
    with pytest.raises(DimensionError):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_sub_pick_masked_mean_values():
    a = Tensor([5.0, 1.0])
    np.testing.assert_array_equal(sub(a, Tensor([1.0, 1.0])).data, [4.0, 0.0])
    assert pick(a, 0).item() == 5.0
    np.testing.assert_array_equal(
        masked_mean(Tensor([[[1.0, 3.0], [3.0, 5.0]]]), np.ones((1, 2), dtype=bool)).data,
        [[2.0, 4.0]])
