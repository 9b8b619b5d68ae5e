import numpy as np
import pytest

from cyclecap import init
from cyclecap.cells import GRUParams, LSTMParams, gru_step, lstm_step
from cyclecap.checks import check_gradients
from cyclecap.errors import DimensionError
from cyclecap.tensor import Parameter, Tensor, parameters

from _reference import add, ref_gru, ref_lstm, step_lstm_cell, sum_all


def zeroed(params):
    for p in parameters(params).values():
        p.data = np.zeros_like(p.data)
    return params


@pytest.mark.parametrize("cls, gates, shapes", [
    (LSTMParams, ("i", "f", "o", "g"), {"cell/w": (7, 16), "cell/b": (16,)}),
    (GRUParams, ("r", "z", "n"), {"cell/w": (3, 12), "cell/u": (4, 12),
                                  "cell/b": (12,)}),
])
def test_fused_gate_blocks_equal_per_gate_draws(cls, gates, shapes):
    # per gate, the (hidden, input) matrix and then the (hidden, hidden)
    # one, drawn in gate order: the rng order of one matrix per gate
    n_in, hidden = 3, 4
    p = cls(np.random.default_rng(9), n_in, hidden, "cell")
    assert {k: v.shape for k, v in parameters(p).items()} == shapes
    w_in = p.w.data[:n_in] if cls is LSTMParams else p.w.data
    w_hid = p.w.data[n_in:] if cls is LSTMParams else p.u.data
    rng = np.random.default_rng(9)
    for k, gate in enumerate(gates):
        cols = slice(k * hidden, (k + 1) * hidden)
        assert p.gate(gate) == cols
        w = rng.uniform(-init.WEIGHT_RANGE, init.WEIGHT_RANGE, size=(hidden, n_in))
        u = rng.uniform(-init.WEIGHT_RANGE, init.WEIGHT_RANGE, size=(hidden, hidden))
        np.testing.assert_array_equal(w_in[:, cols], w.T)
        np.testing.assert_array_equal(w_hid[:, cols], u.T)
    np.testing.assert_array_equal(p.b.data, np.zeros(len(gates) * hidden))


def test_lstm_all_zero_gives_zero_state():
    p = zeroed(LSTMParams(np.random.default_rng(0), 3, 4, "lstm"))
    h, c = lstm_step(p, [np.zeros(3)], np.zeros(4), np.zeros(4))
    np.testing.assert_array_equal(h, np.zeros(4))
    np.testing.assert_array_equal(c, np.zeros(4))


def test_lstm_saturated_gates_carry_cell_state():
    # forget gate saturated open, input gate saturated shut: c stays c_prev
    rng = np.random.default_rng(1)
    p = LSTMParams(rng, 3, 4, "lstm")
    p.b.data[p.gate("f")] = 25.0
    p.b.data[p.gate("i")] = -25.0
    c_prev = rng.standard_normal(4)
    _, c = lstm_step(p, [rng.standard_normal(3)], rng.standard_normal(4), c_prev)
    np.testing.assert_allclose(c, c_prev, atol=1e-8)


def test_lstm_matches_reference_and_shapes_checked():
    rng = np.random.default_rng(2)
    p = LSTMParams(rng, 3, 4, "lstm")
    x, h0, c0 = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    h, c = lstm_step(p, [x], h0, c0)
    rh, rc = ref_lstm(p, x, h0, c0)
    np.testing.assert_allclose(h, rh, atol=1e-14)
    np.testing.assert_allclose(c, rc, atol=1e-14)
    with pytest.raises(DimensionError):
        lstm_step(p, [np.zeros(5)], h0, c0)


def test_lstm_gradients_match_finite_differences():
    # the decode op has no backward rule; its per-step record is the oracle
    # that the teacher-forced unroll is checked against, so check that here
    rng = np.random.default_rng(3)
    p = LSTMParams(rng, 3, 4, "lstm")
    x = Parameter(rng.standard_normal(3), "x")
    h0 = Parameter(rng.standard_normal(4), "h0")
    c0 = Parameter(rng.standard_normal(4), "c0")

    def build():
        h, c = step_lstm_cell([x], h0, c0, p.w, p.b)
        return sum_all(add(h, c))

    result = check_gradients("lstm", build, dict(parameters(p), x=x, h0=h0, c0=c0))
    assert result.max_error < 1e-3


def as_lookup(x):
    """A (T, B, input) sequence as an embedding table with one row per
    position, and the (B, T) ids that look the sequence up in it."""
    steps, batch, width = x.shape
    return x.reshape(-1, width), np.arange(steps * batch).reshape(steps, batch).T


def test_gru_all_zero_gives_zero_state():
    p = zeroed(GRUParams(np.random.default_rng(0), 3, 4, "gru"))
    table, ids = as_lookup(np.zeros((5, 2, 3)))
    h = gru_step(Tensor(table), ids, p, p, np.ones((2, 5), dtype=bool))
    np.testing.assert_array_equal(h.data, np.zeros((2, 5, 8)))


def test_gru_saturated_update_gate_keeps_state():
    # saturated, the cell carries its zero start state through every input,
    # in either direction
    rng = np.random.default_rng(4)
    p = GRUParams(rng, 3, 4, "gru")
    p.b.data[p.gate("z")] = 25.0
    table, ids = as_lookup(rng.standard_normal((6, 2, 3)))
    h = gru_step(Tensor(table), ids, p, p, np.ones((2, 6), dtype=bool))
    np.testing.assert_allclose(h.data, np.zeros((2, 6, 8)), atol=1e-8)


def test_gru_matches_reference():
    rng = np.random.default_rng(5)
    p, q = GRUParams(rng, 3, 4, "fwd"), GRUParams(rng, 3, 4, "bwd")
    x = rng.standard_normal((4, 2, 3))
    mask = np.array([[True] * 4, [True, True, False, False]])
    table, ids = as_lookup(x)
    states = gru_step(Tensor(table), ids, p, q, mask).data
    forward, reverse = states[..., :4], states[..., 4:]
    for b in range(2):
        h = np.zeros(4)
        for t in range(4):   # padded states are exactly 0
            h = ref_gru(p, x[t, b], h)
            np.testing.assert_allclose(forward[b, t], h if mask[b, t] else np.zeros(4),
                                       atol=1e-14)
        h = np.zeros(4)
        for t in reversed(range(4)):
            h = ref_gru(q, x[t, b], h) if mask[b, t] else np.zeros(4)
            np.testing.assert_allclose(reverse[b, t], h, atol=1e-14)
    for bad_x, bad_mask in ((x[..., :2], mask), (x, mask.T), (x[:0], mask[:, :0])):
        with pytest.raises(DimensionError, match="encoder_unroll"):
            gru_step(Tensor(as_lookup(bad_x)[0]), as_lookup(bad_x)[1], p, q, bad_mask)


def test_gru_gradients_match_finite_differences():
    # both directions and the lookup, from the table, over a padded record
    rng = np.random.default_rng(6)
    p, q = GRUParams(rng, 3, 4, "fwd"), GRUParams(rng, 3, 4, "bwd")
    x = Parameter(rng.standard_normal((5, 3)), "x")
    ids = np.array([[0, 3, 3], [4, 1, 0]])
    mask = np.array([[True] * 3, [True, True, False]])
    result = check_gradients("gru", lambda: gru_step(x, ids, p, q, mask),
                             dict(parameters(p, q), x=x))
    assert result.max_error < 1e-3, result.errors
