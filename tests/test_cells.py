import numpy as np
import pytest

from cyclecap import init
from cyclecap.cells import GRUParams, LSTMParams, gru_inputs, gru_step, lstm_step
from cyclecap.checks import check_gradients
from cyclecap.errors import DimensionError
from cyclecap.tensor import Parameter, Tensor, add, sum_all

from _reference import ref_gru, ref_lstm, step_lstm_cell


def zeroed(params):
    for p in params.named().values():
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
    assert {k: v.shape for k, v in p.named().items()} == shapes
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
    h, c = lstm_step(p, [Tensor(np.zeros(3))], Tensor(np.zeros(4)), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(h.data, np.zeros(4))
    np.testing.assert_array_equal(c.data, np.zeros(4))


def test_lstm_saturated_gates_carry_cell_state():
    # forget gate saturated open, input gate saturated shut: c stays c_prev
    rng = np.random.default_rng(1)
    p = LSTMParams(rng, 3, 4, "lstm")
    p.b.data[p.gate("f")] = 25.0
    p.b.data[p.gate("i")] = -25.0
    c_prev = rng.standard_normal(4)
    _, c = lstm_step(p, [Tensor(rng.standard_normal(3))],
                     Tensor(rng.standard_normal(4)), Tensor(c_prev))
    np.testing.assert_allclose(c.data, c_prev, atol=1e-8)


def test_lstm_matches_reference_and_shapes_checked():
    rng = np.random.default_rng(2)
    p = LSTMParams(rng, 3, 4, "lstm")
    x, h0, c0 = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
    h, c = lstm_step(p, [Tensor(x)], Tensor(h0), Tensor(c0))
    rh, rc = ref_lstm(p, x, h0, c0)
    np.testing.assert_allclose(h.data, rh, atol=1e-14)
    np.testing.assert_allclose(c.data, rc, atol=1e-14)
    with pytest.raises(DimensionError):
        lstm_step(p, [Tensor(np.zeros(5))], Tensor(h0), Tensor(c0))


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

    result = check_gradients("lstm", build, dict(p.named(), x=x, h0=h0, c0=c0))
    assert result.max_error < 1e-3


def test_gru_all_zero_gives_zero_state():
    p = zeroed(GRUParams(np.random.default_rng(0), 3, 4, "gru"))
    h = gru_step(p, gru_inputs(p, Tensor(np.zeros(3))), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(h.data, np.zeros(4))


def test_gru_saturated_update_gate_keeps_state():
    rng = np.random.default_rng(4)
    p = GRUParams(rng, 3, 4, "gru")
    p.b.data[p.gate("z")] = 25.0
    h_prev = rng.standard_normal(4)
    h = gru_step(p, gru_inputs(p, Tensor(rng.standard_normal(3))), Tensor(h_prev))
    np.testing.assert_allclose(h.data, h_prev, atol=1e-8)


def test_gru_matches_reference():
    rng = np.random.default_rng(5)
    p = GRUParams(rng, 3, 4, "gru")
    x, h0 = rng.standard_normal(3), rng.standard_normal(4)
    h = gru_step(p, gru_inputs(p, Tensor(x)), Tensor(h0))
    np.testing.assert_allclose(h.data, ref_gru(p, x, h0), atol=1e-14)


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    p = GRUParams(rng, 3, 4, "gru")
    x = Parameter(rng.standard_normal(3), "x")
    h0 = Parameter(rng.standard_normal(4), "h0")
    result = check_gradients("gru", lambda: sum_all(gru_step(p, gru_inputs(p, x), h0)),
                             dict(p.named(), x=x, h0=h0))
    assert result.max_error < 1e-3
