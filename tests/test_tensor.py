import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.attention import AttentionLayer, attend
from cyclecap.cells import LSTMParams, lstm_step
from cyclecap.checks import check_gradients
from cyclecap.errors import DimensionError, NumericError, StateError
from cyclecap.tensor import HeadKeys, Parameter, Tape, Tensor, _sigmoid, parameters, prepare

from _reference import (add, composed_prepare, concat, dropout, embedding_lookup, frobenius,
                        log_softmax, masked_mean, masked_softmax, matmul, mul, pick, scale,
                        split_sigmoid, stack, step_additive_attention, step_lstm_cell, sub,
                        sum_all, unstack)


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


def test_seeded_backward_weighs_each_root_and_checks_it():
    # the gradient of sum(seed * output) over the roots, a seed of each
    # root's shape, finite, on an output of this tape, once per tape
    x = Parameter([1.0, 2.0], "x")
    with Tape() as tape:
        y, total = mul(x, x), sum_all(x)
        tape.backward([(y, [3.0, -1.0]), (total, 0.5)])
        with pytest.raises(StateError):
            tape.backward([(y, [3.0, -1.0])])
    np.testing.assert_array_equal(x.grad, [6.5, -3.5])
    for seed, error in ((np.ones(3), DimensionError), (np.ones((2, 1)), DimensionError),
                        ([1.0, np.nan], NumericError), ([np.inf, 1.0], NumericError)):
        with Tape() as tape:
            y = mul(x, x)
            with pytest.raises(error):
                tape.backward([(y, seed)])
    with Tape() as tape:
        mul(x, x)
        with pytest.raises(StateError):
            tape.backward([(Tensor([1.0, 2.0]), np.ones(2))])


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


def test_decode_step_ops_match_their_per_step_records():
    # decoding never runs backward, so the decode steps take and return
    # arrays; they compute what their per-step records compute, and a
    # non-finite output is a NumericError
    rng = np.random.default_rng(1)
    cell = LSTMParams(rng, 3, 4, "lstm")
    layer = AttentionLayer(rng, key_dim=4, query_dim=4, attn_dim=5, prefix="attn")
    x, h, c = (rng.standard_normal((2, n)) for n in (3, 4, 4))
    corrupt = np.where(np.eye(2, 4) > 0, np.nan, h)  # as if from downstream
    keys = layer.keys(Tensor(rng.standard_normal((2, 3, 4))),
                      np.array([[True, True, False], [True, True, True]]))
    head = prepare(keys)
    for op, reference, args, bad in (
            (lambda *a: lstm_step(cell, *a),
             lambda xs, h, c: step_lstm_cell([Tensor(v) for v in xs], Tensor(h), Tensor(c),
                                             cell.w, cell.b),
             ([x], h, c), ([x], corrupt, c)),
            (lambda q: attend(layer, head, q),
             lambda q: step_additive_attention(composed_prepare(keys), Tensor(q)), (h,),
             (corrupt,))):
        for got, want in zip(op(*args), reference(*args), strict=True):
            np.testing.assert_array_equal(got, want.data)
        with pytest.raises(NumericError):
            op(*bad)


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


def test_parameters_are_the_ones_an_owner_holds_in_attribute_order():
    """Every Parameter reachable through attributes, tuples and lists, once
    by name, in attribute order; ints, arrays and plain Tensors are not
    parameters."""
    class Owner:
        pass

    def p(name):
        return Parameter(np.zeros(2), name)

    shared = p("shared")
    owner = Owner()
    owner.size = 3
    owner.initial = ((p("w_h0"), p("b_h0")), (p("w_c0"), shared))
    owner.head = HeadKeys(Tensor(np.ones((1, 2, 2))), np.ones((1, 2), dtype=bool),
                          p("w_key"), p("b"), p("w_query"), p("combine"))
    owner.table = np.ones((3, 2))
    owner.inner = Owner()
    owner.inner.layers = [p("w_out"), shared, 7]
    found = parameters(owner)
    assert list(found) == ["w_h0", "b_h0", "w_c0", "shared", "w_key", "b", "w_query",
                           "combine", "w_out"]
    assert all(found[name].name == name for name in found)
    assert found["shared"] is shared
    assert list(parameters(owner.inner, owner.head, owner.initial).items()) == [
        (name, found[name]) for name in ["w_out", "shared", "w_key", "b", "w_query",
                                         "combine", "w_h0", "b_h0", "w_c0"]]
    assert parameters(3, np.ones(2), Tensor(np.ones(2)), owner.head.mask) == {}


def test_grad_accumulates_over_shared_use():
    x = Parameter([3.0], "x")
    with Tape() as tape:
        tape.backward(sum_all(add(mul(x, x), mul(x, x))))
    np.testing.assert_allclose(x.grad, [12.0])


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
        hidden = masked_softmax(add(matmul(w, v), b), np.ones((1, 3), dtype=bool))
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


def test_sigmoid_matches_the_split_form():
    # the tanh form against exp(-|x|) split by sign, at zero, the smallest
    # magnitudes, saturation and far beyond it
    edges = np.array([0.0, 1e-300, 30.0, 40.0, 1e3])
    x = np.concatenate([edges, -edges, np.linspace(-50.0, 50.0, 20001)])
    with np.errstate(all="raise"):
        got = _sigmoid(x)
    np.testing.assert_allclose(got, split_sigmoid(x), rtol=0, atol=1e-15)
    assert got.shape == x.shape and ((got >= 0.0) & (got <= 1.0)).all()
    assert _sigmoid(np.zeros((2, 3))).tolist() == [[0.5] * 3] * 2
