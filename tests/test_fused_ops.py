"""Fused records against the composed graphs of primitive ops that they
replace: the image projection against its matmul, add and tanh; the
caption encoder, lookup and both GRU directions, against its per-step
graph; the per-step LSTM and attention records that ``tests/_reference.py``
keeps as the oracle of the one-record decoder unroll; the decoder unroll
from its raw key rows, initial-state projections and embedding table
against its composed graph; and the two loss records, the likelihood under
dropout and the cycle loss, against theirs. Forward values and the gradient
of every parameter agree to 1e-12, at B = 1 and at B = 3, with a masked key
or step and a padded (all-zero) row; at B = 3 the records take three
distinct lengths.

The two unroll ops compute only the real steps of a batch: their outputs at
padded steps are exactly 0 and pass no gradient back, and a step mask that
is misshapen or not a prefix is a DimensionError."""

import numpy as np
import pytest

from cyclecap.attention import AttentionLayer
from cyclecap.cells import LSTMParams, gru_step
from cyclecap.errors import DimensionError
from cyclecap.cycle import cycle_loss_graph
from cyclecap.data import PAD_ID
from cyclecap.models import CaptionEncoder, ImageProjection, ModelDims
from cyclecap.tensor import HeadKeys, Parameter, Tape, decoder_unroll, parameters
from cyclecap.training import nll_loss

from _reference import (composed_attend, composed_cycle, composed_decoder_unroll,
                        composed_lstm_step, composed_nll, composed_prepare, composed_project,
                        step_additive_attention, step_lstm_cell, stepped_encode)

TOL = 1e-12


def operand(rng, shape, name, padded_row=False):
    """A random Parameter; with ``padded_row`` its last record is all zero."""
    data = rng.standard_normal(shape)
    if padded_row:
        data[-1] = 0.0
    return Parameter(data, name)


def run(build, params, probes=None):
    """Forward values and every parameter's gradient of one taped pass that
    reads each output through its probe, by default a fixed random one: the
    probes seed the backward."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        outputs = build()
        if probes is None:
            rng = np.random.default_rng(99)
            probes = [rng.standard_normal(o.shape) for o in outputs]
        tape.backward(list(zip(outputs, probes, strict=True)))
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
                 dict(parameters(cell), x1=x1, x2=x2, h=h, c=c))


def encoder(rng):
    """A caption encoder over a 7-word vocabulary, 3-wide embeddings and a
    4-wide GRU per direction."""
    return CaptionEncoder(rng, 7, ModelDims(1, 7, embed_dim=3, hidden_dim=4), "enc")


@pytest.mark.parametrize("batch", [1, 3])
def test_project_matches_composed(batch):
    # matmul, bias and tanh over every region in one record; the features
    # are data, with a padded (all-zero) region in the last record
    rng = np.random.default_rng(5 + batch)
    proj = ImageProjection(rng, 3, 4, "proj")
    features = rng.standard_normal((batch, 5, 3))
    features[-1, -1] = 0.0
    assert_agree(lambda: (proj.project(features),),
                 lambda: (composed_project(proj, features),), parameters(proj))


@pytest.mark.parametrize("batch", [1, 3])
def test_gru_step_matches_composed(batch):
    # the lookup and both directions over a caption batch, against the
    # per-step graph of each direction
    rng = np.random.default_rng(10 + batch)
    enc = encoder(rng)
    ids = rng.integers(4, 7, size=(batch, 4))
    mask = np.ones((batch, 4), dtype=bool)
    if batch > 1:                      # the last record ends after two steps
        ids[-1, 2:] = PAD_ID
        mask[-1, 2:] = False
    assert_agree(lambda: (gru_step(enc.embedding, ids, enc.fwd, enc.bwd, mask),),
                 lambda: (stepped_encode(enc, ids, mask),), parameters(enc))


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
        return step_additive_attention(composed_prepare(layer.keys(rows, mask)), query)

    def composed():
        return composed_attend(composed_prepare(layer.keys(rows, mask)), query)

    assert_agree(fused, composed, dict(parameters(layer), rows=rows, query=query))
    weights, _ = fused()
    assert weights.data[0, -1] == 0.0


# --- the decoder unroll and the losses, each one record ----------------------------

LENGTHS = [1, 3, 4]   # distinct, shortest first, as training batches come


def step_mask(batch, steps=4):
    """The (B, T) mask of real steps: all four at B = 1, else ``LENGTHS``."""
    return np.arange(steps) < np.array([steps] if batch == 1 else LENGTHS)[:, None]


def decoder_operands(rng, batch, steps=4):
    """(table, ids, initial, w, b, heads, params): a two-head decoder unroll's
    operands over ``batch`` records, head 0 over 5-wide rows and head 1 over
    2-wide ones, record 0's last key padding (its row all zero)."""
    keys = np.ones((batch, 3), dtype=bool)
    keys[0, -1] = False
    table = operand(rng, (7, 3), "table")
    ids = rng.integers(0, 7, size=(batch, steps))
    initial = [(operand(rng, (5, 4), f"w_{half}"), operand(rng, (4,), f"b_{half}"))
               for half in ("h0", "c0")]
    w, b = operand(rng, (5 + 2 + 3 + 4, 16), "w"), operand(rng, (16,), "b")
    heads = []
    for k, d in enumerate((5, 2)):
        rows = operand(rng, (batch, 3, d), f"rows{k}")
        rows.data[0, -1] = 0.0
        heads.append(HeadKeys(rows, keys, operand(rng, (d, 6), f"w_key{k}"),
                              operand(rng, (6,), f"b{k}"), operand(rng, (6, 4), f"w_query{k}"),
                              operand(rng, (6,), f"combine{k}")))
    params = {x.name: x for x in (table, w, b, *sum(initial, ()))}
    params.update((x.name, x) for head in heads for x in head if isinstance(x, Parameter))
    return table, ids, initial, w, b, heads, params


@pytest.mark.parametrize("states", [True, False], ids=["states", "weights-only"])
@pytest.mark.parametrize("batch", [1, 3])
def test_decoder_unroll_matches_composed(batch, states):
    # key projection, initial state, lookups, heads and LSTM in one record
    # against the composed key side, initial state and lookup and the
    # per-step records
    *operands, params = decoder_operands(np.random.default_rng(50 + batch), batch)
    mask = step_mask(batch)

    def fused():
        return decoder_unroll(*operands, mask, states=states)

    def composed():
        hidden, weights = composed_decoder_unroll(*operands, mask)
        return ([hidden] if states else []) + weights

    assert_agree(fused, composed, params)


@pytest.mark.parametrize("batch", [1, 3])
def test_nll_record_matches_composed(batch):
    # dropout, output layer, log-softmax, masked pick, sum and negation in one
    # record, the keep mask drawn alike
    rng = np.random.default_rng(60 + batch)
    states = operand(rng, (4, batch, 5), "states")
    w_out, b_out = operand(rng, (5, 9), "w_out"), operand(rng, (9,), "b_out")
    targets, mask = rng.integers(0, 9, size=(batch, 4)), step_mask(batch)
    assert_agree(
        lambda: (nll_loss(states, w_out, b_out, targets, mask, 0.5,
                          np.random.default_rng(7))[0],),
        lambda: (composed_nll(states, w_out, b_out, targets, mask, 0.5,
                              np.random.default_rng(7)),),
        dict(states=states, w_out=w_out, b_out=b_out))


@pytest.mark.parametrize("batch", [1, 3])
def test_cycle_record_matches_composed(batch):
    rng = np.random.default_rng(70 + batch)
    attention = [operand(rng, shape, name) for shape, name in (
        ((batch, 4, 3), "de_to_regions"), ((batch, 4, 5), "de_to_en"),
        ((batch, 5, 3), "en_to_regions"))]
    mask = step_mask(batch)
    assert_agree(lambda: (cycle_loss_graph(*attention, mask),),
                 lambda: (composed_cycle(*attention, mask),),
                 {x.name: x for x in attention})


# --- packed steps: padding is never computed ------------------------------------

def unroll_case(kind, mask):
    """(build, params, padded): one unroll op over three records and four
    steps under the step ``mask``; ``build()`` returns its outputs and
    ``padded`` gives, per output, the boolean index of its padded steps."""
    rng, batch, steps = np.random.default_rng(40), 3, 4
    if kind == "gru":                  # the caption encoder, both directions
        enc, ids = encoder(rng), rng.integers(0, 7, size=(batch, steps))
        return (lambda: [enc.encode(ids, mask)], parameters(enc), [~mask])
    *operands, params = decoder_operands(rng, batch, steps)
    states = kind == "decoder"
    return (lambda: list(decoder_unroll(*operands, mask, states=states)),
            params, ([~mask.T] if states else []) + [~mask, ~mask])


@pytest.mark.parametrize("kind", ["gru", "decoder", "decoder-weights-only"])
def test_padded_steps_are_zero_and_pass_no_gradient(kind):
    # outputs at padded steps are exactly 0, and a probe changed only there
    # leaves every gradient bit-identical
    mask = np.arange(4) < np.array(LENGTHS)[:, None]
    build, params, padded = unroll_case(kind, mask)
    rng = np.random.default_rng(41)
    probes = [rng.standard_normal(o.shape) for o in build()]
    outputs, grads = run(build, params, probes)
    for out, pad in zip(outputs, padded, strict=True):
        assert pad.any() and not out[pad].any()
    for pr, pad in zip(probes, padded):
        pr[pad] = rng.uniform(-50.0, 50.0, size=pr[pad].shape)
    _, changed = run(build, params, probes)
    for name, g in grads.items():
        assert np.abs(g).sum() > 0, name
        assert g.tobytes() == changed[name].tobytes(), name


@pytest.mark.parametrize("kind", ["gru", "decoder"])
def test_unroll_ops_reject_a_bad_step_mask(kind):
    # packing needs each row's real steps first, and one mask entry per step
    op = "encoder_unroll" if kind == "gru" else "decoder_unroll"
    gap = np.ones((3, 4), dtype=bool)
    gap[1, 1] = False                  # a real step after a padded one
    with pytest.raises(DimensionError, match=f"{op}: step mask is not a prefix"):
        unroll_case(kind, gap)[0]()
    for bad in (np.ones((3, 5), dtype=bool), np.ones((4, 3), dtype=bool),
                np.ones(4, dtype=bool)):
        with pytest.raises(DimensionError, match=f"{op}: step mask has shape"):
            unroll_case(kind, bad)[0]()
