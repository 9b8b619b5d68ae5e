"""Fused records against the composed graphs of primitive ops that they
replace: one GRU direction against its per-step graph, and the per-step LSTM
and attention records that ``tests/_reference.py`` keeps as the oracle of
the one-record decoder unroll. Forward values and the gradient of every
parameter agree to 1e-12, at B = 1 and at B = 3, with a masked key or step
and a padded (all-zero) row."""

import numpy as np
import pytest

from cyclecap.attention import AttentionLayer
from cyclecap.cells import GRUParams, LSTMParams, gru_step
from cyclecap.tensor import Parameter, Tape, add, mul, sum_all

from _reference import (composed_attend, composed_lstm_step, step_additive_attention,
                        step_lstm_cell, stepped_gru)

TOL = 1e-12


def operand(rng, shape, name, padded_row=False):
    """A random Parameter; with ``padded_row`` its last record is all zero."""
    data = rng.standard_normal(shape)
    if padded_row:
        data[-1] = 0.0
    return Parameter(data, name)


def probed_loss(outputs, rng):
    """A scalar reading every output through its own fixed random probe."""
    probes = [rng.standard_normal(o.shape) for o in outputs]
    terms = [sum_all(mul(o, Parameter(pr, "probe"))) for o, pr in zip(outputs, probes)]
    loss = terms[0]
    for term in terms[1:]:
        loss = add(loss, term)
    return loss


def run(build, params):
    """Forward values and every parameter's gradient of one taped pass."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        outputs = build()
        tape.backward(probed_loss(outputs, np.random.default_rng(99)))
    return [o.data.copy() for o in outputs], {k: p.grad.copy() for k, p in params.items()}


def assert_agree(fused, composed, params):
    fused_out, fused_grads = run(fused, params)
    composed_out, composed_grads = run(composed, params)
    for a, b in zip(fused_out, composed_out, strict=True):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)
    for name in params:
        assert np.abs(composed_grads[name]).sum() > 0, name
        np.testing.assert_allclose(fused_grads[name], composed_grads[name],
                                   rtol=TOL, atol=TOL, err_msg=name)


@pytest.mark.parametrize("batch", [1, 3])
def test_lstm_step_matches_composed(batch):
    rng = np.random.default_rng(batch)
    cell = LSTMParams(rng, 5, 4, "lstm")
    pad = batch > 1
    x1 = operand(rng, (batch, 3), "x1", pad)
    x2 = operand(rng, (batch, 2), "x2", pad)
    h = operand(rng, (batch, 4), "h", pad)
    c = operand(rng, (batch, 4), "c", pad)
    assert_agree(lambda: step_lstm_cell([x1, x2], h, c, cell.w, cell.b),
                 lambda: composed_lstm_step(cell, [x1, x2], h, c),
                 dict(cell.named(), x1=x1, x2=x2, h=h, c=c))


@pytest.mark.parametrize("batch", [1, 3])
def test_gru_step_matches_composed(batch):
    # each direction over a sequence, against its per-step graph
    rng = np.random.default_rng(10 + batch)
    cell = GRUParams(rng, 3, 4, "gru")
    x = operand(rng, (4, batch, 3), "x")
    mask = np.ones((batch, 4), dtype=bool)
    if batch > 1:                      # the last record ends after two steps
        x.data[2:, -1] = 0.0
        mask[-1, 2:] = False
    for reverse in (False, True):
        assert_agree(lambda: (gru_step(cell, x, mask, reverse=reverse),),
                     lambda: (stepped_gru(cell, x, mask, reverse),),
                     dict(cell.named(), x=x))


@pytest.mark.parametrize("batch", [1, 3])
def test_attend_matches_composed(batch):
    rng = np.random.default_rng(20 + batch)
    layer = AttentionLayer(rng, key_dim=5, query_dim=4, attn_dim=6, prefix="attn")
    rows = operand(rng, (batch, 4, 5), "rows")
    rows.data[0, -1] = 0.0             # record 0's last key is padding
    mask = np.ones((batch, 4), dtype=bool)
    mask[0, -1] = False
    query = operand(rng, (batch, 4), "query", batch > 1)

    def fused():
        return step_additive_attention(layer.prepare(rows, mask), query)

    def composed():
        return composed_attend(layer.prepare(rows, mask), query)

    assert_agree(fused, composed, dict(layer.named(), rows=rows, query=query))
    weights, _ = fused()
    assert weights.data[0, -1] == 0.0
