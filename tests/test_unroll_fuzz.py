"""Differential fuzzing of the two unroll records against their composed
oracles.

Hypothesis draws the batch (B 1-6), the steps (T 1-8) and each record's
length, and for the decoder 1-3 heads of 1-6 keys each with each record's
count of real keys, and whether the unroll makes its states. The caption
encoder (``encoder_unroll``) is checked against ``stepped_encode``, the
decoder (``decoder_unroll``) against ``composed_decoder_unroll``, its states
read through the likelihood under a dropout keep mask (``nll_loss`` against
``composed_nll``, one keep mask drawn alike). Forward values and every
parameter's gradient agree to 1e-12. Explicit examples pin tied lengths,
length-1 rows, all-full batches and padded keys in one head only.

The same draws, unrolled again over up to three more steps that every
record pads, give the same bits: real outputs and every gradient."""

from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclecap.cells import gru_step
from cyclecap.models import CaptionEncoder, ModelDims
from cyclecap.tensor import HeadKeys, Parameter, Tape, decoder_unroll, parameters
from cyclecap.training import nll_loss

from _reference import composed_decoder_unroll, composed_nll, stepped_encode

TOL = 1e-12
FUZZ = settings(max_examples=80, derandomize=True, database=None, deadline=None)
WIDTHS = (5, 2, 3)     # each head's key width
VOCAB, EMBED, HIDDEN, ATTN = 7, 3, 4, 5


class EncoderCase(NamedTuple):
    seed: int
    steps: int
    lengths: tuple[int, ...]       # each record's real positions


class DecoderCase(NamedTuple):
    seed: int
    steps: int
    lengths: tuple[int, ...]               # each record's real steps
    keys: tuple[tuple[int, ...], ...]      # per head: K, then each record's real keys
    states: bool


@st.composite
def record_lengths(draw):
    """(seed, T, lengths): a batch of 1-6 records over 1-8 steps, each
    record real for 1 to T of them."""
    steps = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, steps), min_size=1, max_size=6))
    return draw(st.integers(0, 2 ** 16)), steps, tuple(lengths)


@st.composite
def encoder_cases(draw):
    return EncoderCase(*draw(record_lengths()))


@st.composite
def decoder_cases(draw):
    seed, steps, lengths = draw(record_lengths())
    keys = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 6))
        keys.append((size, *draw(st.lists(st.integers(1, size), min_size=len(lengths),
                                          max_size=len(lengths)))))
    return DecoderCase(seed, steps, lengths, tuple(keys), draw(st.booleans()))


def step_mask(steps, lengths):
    return np.arange(steps) < np.array(lengths)[:, None]


def run(build, params, probes=None):
    """Forward values and every parameter's gradient of one taped pass that
    reads each output through its probe, by default a fixed random one."""
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
        np.testing.assert_allclose(fused_grads[name], composed_grads[name],
                                   rtol=TOL, atol=TOL, err_msg=name)


@FUZZ
@given(case=encoder_cases())
@example(case=EncoderCase(0, 5, (5, 5, 2, 2, 1)))          # ties and a length-1 row
@example(case=EncoderCase(1, 4, (4, 4, 4)))                # all full
@example(case=EncoderCase(2, 1, (1,)))
def test_encoder_unroll_matches_stepped_encode(case):
    rng = np.random.default_rng(case.seed)
    enc = CaptionEncoder(rng, VOCAB, ModelDims(1, VOCAB, embed_dim=EMBED, hidden_dim=HIDDEN),
                         "enc")
    mask = step_mask(case.steps, case.lengths)
    ids = rng.integers(0, VOCAB, size=mask.shape)
    assert_agree(lambda: [gru_step(enc.embedding, ids, enc.fwd, enc.bwd, mask)],
                 lambda: [stepped_encode(enc, ids, mask)], parameters(enc))


def decoder_operands(case, rng):
    """(table, ids, initial, w, b, heads), then the output layer (w_out,
    b_out), every Parameter by name: a decoder unroll's operands for
    ``case``, the values drawn from ``rng``."""
    def operand(shape, name):
        return Parameter(rng.standard_normal(shape), name)

    batch, widths = len(case.lengths), WIDTHS[:len(case.keys)]
    table = operand((VOCAB, EMBED), "table")
    ids = rng.integers(0, VOCAB, size=(batch, case.steps))
    initial = [(operand((widths[0], HIDDEN), f"w_{half}"), operand((HIDDEN,), f"b_{half}"))
               for half in ("h0", "c0")]
    w = operand((sum(widths) + EMBED + HIDDEN, 4 * HIDDEN), "w")
    b = operand((4 * HIDDEN,), "b")
    heads = []
    for j, ((size, *real), d) in enumerate(zip(case.keys, widths)):
        keys = np.arange(size) < np.array(real)[:, None]
        rows = operand((batch, size, d), f"rows{j}")
        rows.data[~keys] = 0.0
        heads.append(HeadKeys(rows, keys, operand((d, ATTN), f"w_key{j}"),
                              operand((ATTN,), f"b{j}"), operand((ATTN, HIDDEN), f"w_query{j}"),
                              operand((ATTN,), f"combine{j}")))
    out_layer = operand((HIDDEN, VOCAB), "w_out"), operand((VOCAB,), "b_out")
    params = {x.name: x for x in (table, w, b, *sum(initial, ()), *out_layer)}
    params.update((x.name, x) for head in heads for x in head if isinstance(x, Parameter))
    return (table, ids, initial, w, b, heads), out_layer, params


@FUZZ
@given(case=decoder_cases())
# tied lengths and length-1 rows; head 0 alone has padded keys
@example(case=DecoderCase(0, 4, (4, 4, 1, 1), ((4, 4, 2, 4, 1), (3, 3, 3, 3, 3)), True))
@example(case=DecoderCase(1, 4, (4, 4, 1, 1), ((4, 4, 4, 4, 4), (3, 3, 1, 3, 2)), False))
# all full, three heads
@example(case=DecoderCase(2, 3, (3, 3), ((2, 2, 2), (1, 1, 1), (6, 6, 6)), True))
@example(case=DecoderCase(3, 1, (1,), ((1, 1),), True))
def test_decoder_unroll_matches_composed(case):
    rng = np.random.default_rng(case.seed)
    operands, (w_out, b_out), params = decoder_operands(case, rng)
    mask = step_mask(case.steps, case.lengths)
    targets = rng.integers(0, VOCAB, size=mask.shape)

    def fused():
        outs = decoder_unroll(*operands, mask, states=case.states)
        if not case.states:
            return list(outs)
        nll, _ = nll_loss(outs[0], w_out, b_out, targets, mask, 0.5,
                          np.random.default_rng(case.seed))
        return [*outs, nll]

    def composed():
        hidden, weights = composed_decoder_unroll(*operands, mask)
        if not case.states:
            return weights
        return [hidden, *weights, composed_nll(hidden, w_out, b_out, targets, mask, 0.5,
                                               np.random.default_rng(case.seed))]

    assert_agree(fused, composed, params)


def grown(arrays, axes, extra, rng):
    """Each array with ``extra`` random entries appended along its axis."""
    return [np.concatenate([a, rng.uniform(-50.0, 50.0, a.shape[:axis] + (extra,)
                                           + a.shape[axis + 1:])], axis=axis)
            for a, axis in zip(arrays, axes, strict=True)]


@FUZZ
@given(case=decoder_cases(), extra=st.integers(1, 3))
def test_appended_padded_steps_change_no_bit(case, extra):
    # both unrolls over the same records with all-padded steps appended: the
    # real outputs and every gradient keep their bits, whatever ids the new
    # steps hold and whatever the probes read there
    rng = np.random.default_rng(case.seed)
    (table, ids, *operands), _, params = decoder_operands(case, rng)
    enc = CaptionEncoder(rng, VOCAB, ModelDims(1, VOCAB, embed_dim=EMBED, hidden_dim=HIDDEN),
                         "enc")
    params.update(parameters(enc))

    def build(ids):
        mask = step_mask(ids.shape[1], case.lengths)
        return lambda: [*decoder_unroll(table, ids, *operands, mask, states=case.states),
                        gru_step(enc.embedding, ids, enc.fwd, enc.bwd, mask)]

    probes = [rng.standard_normal(o.shape) for o in build(ids)()]
    axes = [0] * case.states + [1] * (len(probes) - case.states)
    outputs, grads = run(build(ids), params, probes)
    longer = np.concatenate([ids, rng.integers(0, VOCAB, (len(ids), extra))], axis=1)
    padded_outputs, padded_grads = run(build(longer), params,
                                       grown(probes, axes, extra, rng))
    for out, padded, axis in zip(outputs, padded_outputs, axes, strict=True):
        assert padded.take(range(case.steps), axis=axis).tobytes() == out.tobytes()
        assert not padded.take(range(case.steps, case.steps + extra), axis=axis).any()
    for name, g in grads.items():
        assert g.tobytes() == padded_grads[name].tobytes(), name
