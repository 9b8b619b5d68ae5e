"""Independent straightforward re-implementations used as test oracles.

Most of this is plain numpy / plain Python written from the formulas,
deliberately sharing no code with the package's taped ops, so agreement is
meaningful. Functions read parameter values straight off the model objects,
the decoders' initial-state projections by their checkpoint names.

The exceptions are three layers of taped oracles for the package's fused ops:

* the primitives the package no longer carries, each one tape op with its
  own backward rule, as the package defined them before its fused ops took
  their work in: ``matmul``, ``add``, ``scale``, ``concat``, ``tanh``,
  ``embedding_lookup``, ``mul``, ``sub``, ``sum_all``, ``transpose``,
  ``batch_matmul``, ``masked_mean``, ``frobenius``, ``pick``, ``dropout``
  and ``log_softmax``; ``tests/test_reference.py`` checks their gradients.
* the composed graphs: the LSTM step, GRU step and attention head built
  from primitive tape ops, one small op per gate slice, as the package
  computed them before its fused ops, and so are the key projection
  (``composed_prepare``), the image projection (``composed_project``), the
  initial state (``composed_init_state``), the likelihood
  (``composed_nll``) and the cycle loss (``composed_cycle``).
  ``stepped_gru`` chains the GRU step into the per-step graph of one
  direction, and ``stepped_encode`` runs it in both directions after one
  lookup, the graph that ``tensor.encoder_unroll`` is checked against; the
  LSTM step and the head are the oracle of the
  per-step records below. The ops only they need, ``column_slice``,
  ``sigmoid``, ``masked_softmax``, ``stack`` and ``unstack``, are built here
  on ``tensor._record`` and ``tensor._record_many``.
* the per-step records: one LSTM step and one attention head as one record
  each, on the package's array-level step math, with the backward rules the
  package's decode ops carried before a teacher-forced unroll became one
  record. ``composed_decoder_unroll`` chains them, after the composed key
  projection, initial state and lookup, into the graph that
  ``tensor.decoder_unroll`` is checked against. ``composed_captioner_terms``
  and ``composed_stage2_terms`` chain the composed graphs into whole
  training losses.

Last, ``recomputing_stage2_forward`` is the stage-two forward as it was
before a frozen part 1 was computed once per fit: part 1 runs on the tape
at every step, from the package's own networks, and a frozen one is cut off
into constants there. The fit that uses it is the oracle of the cached one.
"""

import math
from itertools import accumulate

import numpy as np

from cyclecap import models
from cyclecap.errors import DimensionError, NumericError
from cyclecap.tensor import (Head, Tensor, _record, _record_many, _result, attention_arrays,
                             finite, lstm_arrays, parameters)


def np_softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def np_log_softmax(x):
    s = x - x.max()
    return s - np.log(np.exp(s).sum())


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def split_sigmoid(x):
    """The logistic sigmoid split by sign, the oracle of ``tensor._sigmoid``:
    exp(-|x|) never overflows; x >= 0 takes 1 / (1 + e), x < 0 takes
    e / (1 + e)."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def ref_attend(layer, keys, query):
    """Additive attention directly from the formulas."""
    hidden = np.tanh(keys @ layer.w_key.data + layer.w_query.data @ query
                     + layer.b.data)
    scores = hidden @ layer.combine.data
    weights = np_softmax(scores)
    return weights, weights @ keys


def gate_blocks(a, hidden, n):
    """The n gate blocks of a fused array: consecutive runs of ``hidden``
    columns of its last axis."""
    return [a[..., k * hidden:(k + 1) * hidden] for k in range(n)]


def ref_lstm(p, x, h, c):
    """Gates i, f, o, g; rows [:input] of the fused weight act on x and the
    rest on h."""
    n_in, hidden = p.input_size, p.hidden_size
    wi, wf, wo, wg = gate_blocks(p.w.data[:n_in], hidden, 4)
    ui, uf, uo, ug = gate_blocks(p.w.data[n_in:], hidden, 4)
    bi, bf, bo, bg = gate_blocks(p.b.data, hidden, 4)
    i = np_sigmoid(x @ wi + h @ ui + bi)
    f = np_sigmoid(x @ wf + h @ uf + bf)
    o = np_sigmoid(x @ wo + h @ uo + bo)
    g = np.tanh(x @ wg + h @ ug + bg)
    c = f * c + i * g
    return o * np.tanh(c), c


def ref_gru(p, x, h):
    """Gates r, z, n of the input-side w, hidden-side u and bias b."""
    wr, wz, wn = gate_blocks(p.w.data, p.hidden_size, 3)
    ur, uz, un = gate_blocks(p.u.data, p.hidden_size, 3)
    br, bz, bn = gate_blocks(p.b.data, p.hidden_size, 3)
    r = np_sigmoid(x @ wr + h @ ur + br)
    z = np_sigmoid(x @ wz + h @ uz + bz)
    n = np.tanh(x @ wn + r * (h @ un) + bn)
    return z * h + (1.0 - z) * n


# ---------------------------------------------------------------------------
# Primitives the package no longer carries
# ---------------------------------------------------------------------------

def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _broadcast_shapes(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def matmul(a, b):
    """``a @ b`` for a shared weight ``b``: a (..., k) against a (k, n) matrix
    or a (k,) vector, over every leading axis of ``a`` at once."""
    if a.data.ndim == 0 or b.data.ndim not in (1, 2):
        raise DimensionError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    out = _result("matmul", np.matmul(a.data, b.data))
    ad, bd = a.data, b.data
    k = bd.shape[0]

    def rule(g):
        if bd.ndim == 2:
            return g @ bd.T, ad.reshape(-1, k).T @ g.reshape(-1, bd.shape[1])
        return g[..., None] * bd, g.reshape(-1) @ ad.reshape(-1, k)

    return _record(out, (a, b), rule)


def add(a, b):
    _broadcast_shapes("add", a, b)
    out = _result("add", a.data + b.data)
    a_shape, b_shape = a.shape, b.shape

    def rule(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(out, (a, b), rule)


def scale(a, factor):
    if not np.isfinite(factor):
        raise NumericError(f"scale: non-finite factor {factor!r}")
    out = _result("scale", a.data * factor)
    return _record(out, (a,), lambda g: (g * factor,))


def concat(parts):
    """Concatenate along the last axis; the leading axes must agree."""
    if not parts:
        raise DimensionError("concat: empty operand list")
    arrays = [p.data for p in parts]
    lead = arrays[0].shape[:-1]
    for x in arrays:
        if x.ndim == 0 or x.shape[:-1] != lead:
            raise DimensionError(f"concat: cannot join shape {x.shape} to leading "
                                 f"axes {lead}")
    out = _result("concat", np.concatenate(arrays, axis=-1))
    offsets = [0, *accumulate(x.shape[-1] for x in arrays)]

    def rule(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _record(out, tuple(parts), rule)


def tanh(a):
    y = np.tanh(a.data)
    out = _result("tanh", y)
    return _record(out, (a,), lambda g: (g * (1.0 - y * y),))


def embedding_lookup(table, ids):
    """Rows of ``table`` along its first axis: ``table[ids]`` for an int or an
    int array of any shape."""
    if table.data.ndim < 2:
        raise DimensionError(f"embedding-lookup: table must be at least 2-d, "
                             f"got {table.shape}")
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise DimensionError("embedding-lookup: ids must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(
            f"embedding-lookup: id out of range for table with {table.shape[0]} rows")
    out = _result("embedding-lookup", table.data[idx])
    shape = table.shape

    def rule(g):
        gt = np.zeros(shape)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), rule)


def mul(a, b):
    _broadcast_shapes("mul", a, b)
    out = _result("mul", a.data * b.data)
    ad, bd = a.data, b.data

    def rule(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(out, (a, b), rule)


def sub(a, b):
    _broadcast_shapes("sub", a, b)
    out = _result("sub", a.data - b.data)
    a_shape, b_shape = a.shape, b.shape

    def rule(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _record(out, (a, b), rule)


def sum_all(a):
    out = _result("sum_all", np.asarray(a.data.sum()))
    shape = a.shape
    return _record(out, (a,), lambda g: (np.full(shape, float(g)),))


def transpose(a, axes=None):
    """Permute the axes of ``a`` (reverse them when ``axes`` is None)."""
    if axes is not None and sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"transpose: axes {axes} do not permute shape {a.shape}")
    out = _result("transpose", a.data.transpose(axes))

    def rule(g):
        return (g.transpose(None if axes is None else np.argsort(axes)),)

    return _record(out, (a,), rule)


def batch_matmul(a, b):
    """Matmul with a leading batch axis: ``out[i] = a[i] @ b[i]`` for a
    (B, k) or (B, m, k) against a (B, k, n)."""
    if a.data.ndim not in (2, 3) or b.data.ndim != 3 or a.shape[0] != b.shape[0] \
            or a.shape[-1] != b.shape[1]:
        raise DimensionError(f"batch_matmul: cannot multiply {a.shape} by {b.shape}")
    a3 = a.data[:, None, :] if a.data.ndim == 2 else a.data
    out = np.matmul(a3, b.data)
    out = _result("batch_matmul", out[:, 0, :] if a.data.ndim == 2 else out)
    bd, a_shape = b.data, a.shape

    def rule(g):
        g3 = g.reshape(a3.shape[:2] + g.shape[-1:])
        return (np.matmul(g3, bd.transpose(0, 2, 1)).reshape(a_shape),
                np.matmul(a3.transpose(0, 2, 1), g3))

    return _record(out, (a, b), rule)


def masked_mean(a, mask):
    """Mean over the real rows of each record: a (B, L, d) with the (B, L)
    boolean mask of real rows gives (B, d). Masked-out rows are read as 0 and
    get no gradient; each record needs at least one real row."""
    if a.data.ndim != 3 or mask.shape != a.shape[:2]:
        raise DimensionError(f"masked_mean: need a (B, L, d) tensor and a (B, L) "
                             f"mask, got {a.shape} and {mask.shape}")
    counts = mask.sum(axis=1)
    if not counts.all():
        raise DimensionError("masked_mean: a record has no real rows")
    out = _result("masked_mean", a.data.sum(axis=1, where=mask[..., None]) / counts[:, None])
    return _record(out, (a,), lambda g: (g[:, None, :] * (mask / counts[:, None])[..., None],))


def frobenius(a, row_mask):
    """Per-record Frobenius norm over the real rows: a (B, M, L) with the
    (B, M) boolean mask of real rows gives (B,). Masked-out rows get no
    gradient; the subgradient of a zero norm is taken as 0."""
    if a.data.ndim != 3 or row_mask.shape != a.shape[:2]:
        raise DimensionError(f"frobenius: need a (B, M, L) tensor and a (B, M) "
                             f"mask, got {a.shape} and {row_mask.shape}")
    real = np.where(row_mask[..., None], a.data, 0.0)
    norms = np.sqrt((real * real).sum(axis=(1, 2)))
    out = _result("frobenius", norms)

    def rule(g):
        per = np.where(norms > 0.0, g / np.where(norms > 0.0, norms, 1.0), 0.0)
        return (real * per[:, None, None],)

    return _record(out, (a,), rule)


def pick(a, index, mask=None):
    """Entry ``index[...]`` of the last axis of ``a``: a (..., V) with an int
    array ``index`` of shape a.shape[:-1] (an int for a vector). Positions
    where ``mask`` is False read 0 and get no gradient."""
    idx = np.asarray(index)
    if a.data.ndim == 0 or idx.shape != a.shape[:-1] \
            or not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError(f"pick: index of shape {idx.shape} does not select "
                             f"from shape {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-1]):
        raise DimensionError(f"pick: index {index} out of range for length "
                             f"{a.shape[-1]}")
    keep = np.ones(idx.shape, bool) if mask is None else np.asarray(mask, bool)
    values = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    out = _result("pick", np.where(keep, values, 0.0))
    shape = a.shape

    def rule(g):
        z = np.zeros(shape)
        np.put_along_axis(z, idx[..., None], np.where(keep, g, 0.0)[..., None], axis=-1)
        return (z,)

    return _record(out, (a,), rule)


def log_softmax(a):
    """Log-softmax over the last axis, as a tape op."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    out = _result("log_softmax", y)
    probs = np.exp(y)

    def rule(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _record(out, (a,), rule)


def dropout(a, rate, rng):
    """Inverted dropout, one keep mask drawn as ``rng.random(shape) >= rate``."""
    if not 0.0 <= rate < 1.0:
        raise NumericError(f"dropout: rate {rate!r} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = _result("dropout", a.data * keep)
    return _record(out, (a,), lambda g: (g * keep,))


# ---------------------------------------------------------------------------
# Composed tape graphs: the fused ops' gradient oracle
# ---------------------------------------------------------------------------

def column_slice(a, start, stop):
    """Columns ``[start, stop)`` of the last axis, as a tape op."""
    out = _result("column_slice", a.data[..., start:stop])
    shape = a.shape

    def rule(g):
        full = np.zeros(shape)
        full[..., start:stop] = g
        return (full,)

    return _record(out, (a,), rule)


def sigmoid(a):
    """Logistic sigmoid as a tape op, split by sign so neither exp overflows."""
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                 np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))
    out = _result("sigmoid", y)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),))


def masked_softmax(scores, mask):
    """Attention weights from key-major scores as a tape op: softmax over
    axis 0 of a (K, B) score matrix, returned batch-major as (B, K), with
    ``mask`` the (B, K) boolean mask of real keys. Masked-out keys get weight
    exactly 0 and no gradient; each row needs at least one real key."""
    s = np.where(mask, scores.data.T, -np.inf)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    out = _result("masked_softmax", w)

    def rule(g):
        return ((w * (g - (g * w).sum(axis=1, keepdims=True))).T,)

    return _record(out, (scores,), rule)


def stack(parts, axis=0):
    """Stack same-shape tensors along a new axis ``axis``, as a tape op."""
    if not parts or any(p.shape != parts[0].shape for p in parts):
        raise DimensionError(f"stack: need same-shape tensors, got "
                             f"{[p.shape for p in parts]}")
    out = _result("stack", np.stack([p.data for p in parts], axis=axis))

    def rule(g):
        g = np.moveaxis(g, axis, 0)
        return tuple(g[i] for i in range(len(parts)))

    return _record(out, tuple(parts), rule)


def unstack(a):
    """The slices ``a[0], ..., a[n-1]`` along the first axis, as one record:
    the backward stacks the slices' gradients once."""
    if a.data.ndim == 0 or a.shape[0] == 0:
        raise DimensionError(f"unstack: need a non-empty first axis, got {a.shape}")
    outs = tuple(Tensor(x) for x in a.data)
    return _record_many(outs, (a,), lambda *grads: (np.stack(grads),))


def composed_lstm_step(p, inputs, h_prev, c_prev):
    """``cells.lstm_step`` from primitive ops: concat, one matmul, gate slices."""
    size = p.hidden_size
    a = add(matmul(concat([*inputs, h_prev]), p.w), p.b)
    ifo = sigmoid(column_slice(a, 0, 3 * size))
    g = tanh(column_slice(a, 3 * size, 4 * size))
    c = add(mul(column_slice(ifo, size, 2 * size), c_prev),
            mul(column_slice(ifo, 0, size), g))
    h = mul(column_slice(ifo, 2 * size, 3 * size), tanh(c))
    return h, c


def composed_gru_step(p, xw, h_prev):
    """One step of ``cells.gru_step`` from primitive ops, on the input-side
    pre-activations ``xw = x @ w + b``."""
    size = p.hidden_size
    a = matmul(h_prev, p.u)
    rz = sigmoid(add(column_slice(xw, 0, 2 * size), column_slice(a, 0, 2 * size)))
    n = tanh(add(column_slice(xw, 2 * size, 3 * size),
                 mul(column_slice(rz, 0, size), column_slice(a, 2 * size, 3 * size))))
    return add(n, mul(column_slice(rz, size, 2 * size), sub(h_prev, n)))


def stepped_gru(p, embedded, mask, reverse=False):
    """``cells.gru_step`` as the per-step graph: the (T, B, input) inputs
    projected in one matmul and split into steps, then ``composed_gru_step``
    per step from a zero state, the state multiplied by the (B, T) mask at
    every padded position, so that padded states are 0 and the reverse
    direction starts from zero at each record's last token. Returns the
    (B, T, hidden) states."""
    steps = embedded.shape[0]
    inputs = unstack(add(matmul(embedded, p.w), p.b))
    h, states = Tensor(np.zeros((embedded.shape[1], p.hidden_size))), [None] * steps
    for t in reversed(range(steps)) if reverse else range(steps):
        h = composed_gru_step(p, inputs[t], h)
        if not mask[:, t].all():
            h = mul(h, Tensor(mask[:, t, None].astype(np.float64)))
        states[t] = h
    return stack(states, axis=1)


def stepped_encode(encoder, ids, mask):
    """``CaptionEncoder.encode`` as the per-step graph: one lookup, then
    ``stepped_gru`` per direction, then the concat. Returns the (B, N,
    2*hidden) states."""
    embeds = embedding_lookup(encoder.embedding, ids.T)
    return concat([stepped_gru(encoder.fwd, embeds, mask),
                   stepped_gru(encoder.bwd, embeds, mask, reverse=True)])


def composed_prepare(keys):
    """``tensor.prepare`` from primitive ops, of a ``tensor.HeadKeys``: a
    ``tensor.Head`` holding Tensors, the key side of the graph."""
    projected = transpose(add(matmul(keys.rows, keys.w_key), keys.b), (1, 0, 2))
    return Head(projected, keys.rows, keys.mask, transpose(keys.w_query), keys.combine)


def composed_project(proj, features):
    """``ImageProjection.project`` from primitive ops, the features entering
    as a constant: ``tanh(features @ w + b)``."""
    return tanh(add(matmul(Tensor(features), proj.w), proj.b))


def composed_init_state(rows, mask, initial):
    """A decoder's initial state from primitive ops: one tanh-squashed
    projection per (w, b) pair of ``initial``, all of one ``masked_mean``."""
    mean = masked_mean(rows, mask)
    return tuple(tanh(add(matmul(mean, w), b)) for w, b in initial)


def composed_nll(states, w, b, targets, mask, rate=0.0, rng=None):
    """``tensor.output_nll`` from primitive ops, its dropout drawn as
    ``training.nll_loss`` draws it: the summed NLL of the (B, T) targets."""
    log_probs = log_softmax(add(matmul(dropout(states, rate, rng), w), b))
    return scale(sum_all(pick(log_probs, targets.T, mask.T)), -1.0)


def composed_cycle(de_to_regions, de_to_en, en_to_regions, de_mask):
    """``tensor.cycle_distance`` from primitive ops."""
    return sum_all(frobenius(sub(de_to_regions, batch_matmul(de_to_en, en_to_regions)),
                             de_mask))


def composed_attend(keys, query):
    """``attention.attend`` from primitive ops; returns (weights, context)."""
    hidden = tanh(add(keys.projected, matmul(query, keys.w_query_t)))
    weights = masked_softmax(matmul(hidden, keys.combine), keys.mask)
    return weights, batch_matmul(weights, keys.rows)


# ---------------------------------------------------------------------------
# Per-step records: the oracle of the one-record decoder unroll
# ---------------------------------------------------------------------------

def step_lstm_cell(inputs, h, c, w, b):
    """One LSTM step as one record, as ``cells.lstm_step`` computes it, with
    its per-step backward rule; returns (h', c')."""
    hd, cd, wd = h.data, c.data, w.data
    parts = [x.data for x in inputs] + [hd]
    size, width = hd.shape[-1], wd.shape[0]
    x = np.concatenate(parts, axis=-1)
    a = np.matmul(x, wd) + b.data
    ifo, g, c_new, tc, h_new = lstm_arrays(a, cd)
    i, f, o = ifo[..., :size], ifo[..., size:2 * size], ifo[..., 2 * size:]
    outs = tuple(Tensor(x, _unchecked=True) for x in finite("lstm_cell", h_new, c_new))

    def rule(gh, gc):
        gc = gc + gh * o * (1.0 - tc * tc)
        ga = np.empty(a.shape)
        ga[..., :size] = gc * g
        ga[..., size:2 * size] = gc * cd
        ga[..., 2 * size:3 * size] = gh * tc
        ga[..., :3 * size] *= ifo
        ga[..., :3 * size] *= 1.0 - ifo
        ga[..., 3 * size:] = gc * i * (1.0 - g * g)
        flat = ga.reshape(-1, 4 * size)
        gx = np.split(ga @ wd.T, list(accumulate(p.shape[-1] for p in parts[:-1])),
                      axis=-1)
        return (*gx, gc * f, x.reshape(-1, width).T @ flat, flat.sum(axis=0))

    return _record_many(outs, (*inputs, h, c, w, b), rule)


def step_additive_attention(head, query):
    """One attention head's step as one record, as ``attention.attend``
    computes it, with its per-step backward rule; returns (weights,
    context)."""
    projected, rows, mask, w_query_t, combine = head
    pd, rd, qd, wd, cd = projected.data, rows.data, query.data, w_query_t.data, combine.data
    hidden, w, context = attention_arrays((pd, rd, mask, wd, cd), qd)
    outs = tuple(Tensor(x, _unchecked=True) for x in finite("additive_attention", w, context))

    def rule(gw, gctx):
        gw = gw + np.matmul(gctx[:, None, :], rd.transpose(0, 2, 1))[:, 0, :]
        gs = (w * (gw - (gw * w).sum(axis=1, keepdims=True))).T      # (K, B)
        gpre = gs[..., None] * cd * (1.0 - hidden * hidden)          # (K, B, A)
        gq = gpre.sum(axis=0)
        return (gpre, w[:, :, None] * gctx[:, None, :], gq @ wd.T, qd.T @ gq,
                gs.reshape(-1) @ hidden.reshape(-1, cd.shape[0]))

    return _record_many(outs, (projected, rows, query, w_query_t, combine), rule)


def composed_decoder_unroll(table, ids, initial, w, b, heads, mask):
    """``tensor.decoder_unroll`` as the per-step graph: each head's keys
    ``composed_prepare``d, the ``composed_init_state`` of head 0's rows, one
    lookup of the (B, T) ``ids`` split into steps, then per step one record
    per head and one for the LSTM, each output multiplied by the (B, T) mask
    of real steps where a step has padding, then the stacks. Returns the (T,
    B, hidden) states and each head's (B, T, K) weights, 0 at padded
    steps."""
    keys = [composed_prepare(k) for k in heads]
    h, c = composed_init_state(heads[0].rows, heads[0].mask, initial)
    hidden, weight_rows = [], []
    for t, x in enumerate(unstack(embedding_lookup(table, ids.T))):
        attended = [step_additive_attention(k, h) for k in keys]
        h, c = step_lstm_cell([ctx for _, ctx in attended] + [x], h, c, w, b)
        rows = [weights for weights, _ in attended]
        if not mask[:, t].all():
            real = mask[:, t, None].astype(np.float64)
            h, rows = mul(h, Tensor(real)), [mul(r, Tensor(real)) for r in rows]
        hidden.append(h)
        weight_rows.append(rows)
    return stack(hidden), [stack(rows, axis=1) for rows in zip(*weight_rows)]


def stepped_unroll(decoder, rows, masks, ids, mask):
    """``models.unroll`` as the per-step graph (``composed_decoder_unroll``)
    over the (B, T + 1) ``ids`` and the (B, T) mask of real steps."""
    return composed_decoder_unroll(decoder.embedding, ids[:, :-1], decoder.initial,
                                   decoder.lstm.w, decoder.lstm.b,
                                   decoder.keys(rows, masks), mask)


def composed_captioner_terms(captioner, batch, rate=0.0, rng=None):
    """``training._captioner_loss``'s (record, weight) terms from the composed
    graphs: ``composed_project``, ``stepped_unroll`` and ``composed_nll``,
    its dropout drawn as ``training.nll_loss`` draws it."""
    dec, mask = captioner.decoder, batch.en_mask[:, 1:]
    regions = composed_project(captioner.image_proj, batch.features)
    states, _ = stepped_unroll(dec, [regions], [batch.region_mask], batch.en_ids, mask)
    return [(composed_nll(states, dec.w_out, dec.b_out, batch.en_ids[:, 1:], mask, rate,
                          rng), 1.0)]


def composed_stage2_terms(bundle, batch, cycle_weight, rate=0.0, rng=None):
    """``training._stage2_loss``'s (record, weight) terms, part 1 unfrozen,
    from the composed graphs: ``composed_project``, ``stepped_encode``, the
    German and English ``stepped_unroll``, ``composed_nll`` and
    ``composed_cycle``."""
    captioner, dec = bundle.captioner, bundle.de_decoder
    cap_mask, de_mask = batch.en_mask[:, 1:], batch.de_mask[:, 1:]
    regions = composed_project(captioner.image_proj, batch.features)
    cap_states = stepped_encode(bundle.cap_encoder, batch.en_ids[:, 1:], cap_mask)
    de_states, (de_to_regions, de_to_en) = stepped_unroll(
        dec, [regions, cap_states], [batch.region_mask, cap_mask], batch.de_ids, de_mask)
    nll = composed_nll(de_states, dec.w_out, dec.b_out, batch.de_ids[:, 1:], de_mask, rate,
                       rng)
    _, (en_to_regions,) = stepped_unroll(captioner.decoder, [regions], [batch.region_mask],
                                         batch.en_ids, cap_mask)
    return [(nll, 1.0),
            (composed_cycle(de_to_regions, de_to_en, en_to_regions, de_mask), cycle_weight)]


def ref_project(captioner, grid_values):
    proj = captioner.image_proj
    return np.tanh(grid_values @ proj.w.data + proj.b.data)


def ref_captioner_sequence(captioner, grid_values, ids):
    """Teacher-forced log-likelihood and region-attention matrix of the
    soft-attention captioner, re-derived step by step."""
    dec = captioner.decoder
    p = {name: w.data for name, w in parameters(dec).items()}
    keys = ref_project(captioner, grid_values)
    mean = keys.mean(axis=0)
    h = np.tanh(mean @ p["captioner/decoder/w_h0"] + p["captioner/decoder/b_h0"])
    c = np.tanh(mean @ p["captioner/decoder/w_c0"] + p["captioner/decoder/b_c0"])
    total = 0.0
    rows = []
    for t in range(len(ids) - 1):
        weights, context = ref_attend(dec.heads[0], keys, h)
        rows.append(weights)
        x = np.concatenate([context, dec.embedding.data[ids[t]]])
        h, c = ref_lstm(dec.lstm, x, h, c)
        logp = np_log_softmax(h @ dec.w_out.data + dec.b_out.data)
        total += logp[ids[t + 1]]
    return total, np.stack(rows)


def ref_encode_caption(encoder, ids):
    embeds = [encoder.embedding.data[i] for i in ids]
    hidden = encoder.hidden_dim
    fwd = []
    h = np.zeros(hidden)
    for e in embeds:
        h = ref_gru(encoder.fwd, e, h)
        fwd.append(h)
    bwd = [None] * len(embeds)
    h = np.zeros(hidden)
    for j in range(len(embeds) - 1, -1, -1):
        h = ref_gru(encoder.bwd, embeds[j], h)
        bwd[j] = h
    return np.stack([np.concatenate([f, b]) for f, b in zip(fwd, bwd)])


def ref_german_sequence(bundle, grid_values, en_ids, de_ids):
    """Teacher-forced log-likelihood plus both attention matrices of the
    dual-attention decoder, re-derived step by step."""
    dec = bundle.de_decoder
    p = {name: w.data for name, w in parameters(dec).items()}
    keys = ref_project(bundle.captioner, grid_values)
    states = ref_encode_caption(bundle.cap_encoder, en_ids[1:])
    mean = keys.mean(axis=0)
    s = np.tanh(mean @ p["de_decoder/w_s0"] + p["de_decoder/b_s0"])
    mem = np.tanh(mean @ p["de_decoder/w_m0"] + p["de_decoder/b_m0"])
    total = 0.0
    region_rows, caption_rows = [], []
    for t in range(len(de_ids) - 1):
        rw, rctx = ref_attend(dec.heads[0], keys, s)
        cw, cctx = ref_attend(dec.heads[1], states, s)
        region_rows.append(rw)
        caption_rows.append(cw)
        x = np.concatenate([rctx, cctx, dec.embedding.data[de_ids[t]]])
        s, mem = ref_lstm(dec.lstm, x, s, mem)
        logp = np_log_softmax(s @ dec.w_out.data + dec.b_out.data)
        total += logp[de_ids[t + 1]]
    return total, np.stack(region_rows), np.stack(caption_rows)


# ---------------------------------------------------------------------------
# Decoding oracle
# ---------------------------------------------------------------------------

def exhaustive_best(step_fn, init_state, max_len, bos_id, eos_id):
    """Enumerate every token sequence up to max_len and return the best
    EOS-terminated one under (score desc, length asc, tokens asc), or None."""
    best = None

    def better(cand, incumbent):
        lp_a, seq_a = cand
        lp_b, seq_b = incumbent
        return (-lp_a, len(seq_a), seq_a) < (-lp_b, len(seq_b), seq_b)

    def walk(state, prev, tokens, logp):
        nonlocal best
        if len(tokens) == max_len:
            return
        logprobs, new_state, _ = step_fn(state, prev)
        for tok in range(len(logprobs)):
            seq = tokens + (tok,)
            lp = logp + float(logprobs[tok])
            if tok == eos_id:
                cand = (lp, seq)
                if best is None or better(cand, best):
                    best = cand
            else:
                walk(new_state, tok, seq, lp)

    walk(init_state, bos_id, (), 0.0)
    return best


def per_row(row_step):
    """A batched ``step_fn`` from a toy step over one hypothesis,
    ``row_step(state, prev) -> (log-probs, state, attention rows)``, called
    once per live row in row order. The batched state is an object array of
    one row state per live row; a bare state is the state of one row."""

    def step(states, prev):
        if not isinstance(states, np.ndarray):
            states = object_rows([states])
        outs = [row_step(s, int(p)) for s, p in zip(states, prev)]
        return (np.stack([o[0] for o in outs]), object_rows([o[1] for o in outs]),
                tuple(np.stack(head) for head in zip(*(o[2] for o in outs))))

    return step


def object_rows(items):
    """A 1-D object array holding ``items`` as they are, tuples included."""
    rows = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        rows[i] = item
    return rows


def take_rows(state, rows):
    """Rows ``rows`` of a batched state: arrays by their first axis, tuples
    item by item, anything else as it is."""
    if isinstance(state, tuple):
        return tuple(take_rows(s, rows) for s in state)
    if isinstance(state, np.ndarray):
        return state[rows]
    return state


def row_step_fn(decoder, keys):
    """The per-hypothesis decoder step: the decoder's step at B = 1."""

    def step(state, prev):
        logp, state, weights = decoder.step(keys, state, np.array([prev]))
        return logp[0], state, tuple(w[0] for w in weights)

    return step


def full_length_beam(step_fn, init_state, beam_size, max_len, bos_id, eos_id):
    """Beam search that always runs to max_len, never stopping early.

    Each step calls the batched ``step_fn`` once on the live hypotheses, in
    their ranked order, expands each by its beam_size best tokens (stable order on
    ties), ranks all candidates by (score desc, tokens asc), retires EOS
    candidates and keeps the first beam_size others live, taking their rows
    of the new state. Returns (tokens, logprob, attn, truncated) of the best
    finished hypothesis under (score desc, length asc, tokens asc), else of
    the best live one.
    """
    live = [((), 0.0, ())]
    state = init_state
    finished = []
    for _ in range(max_len):
        prev = np.array([tokens[-1] if tokens else bos_id for tokens, _, _ in live])
        logprobs, new_state, rows = step_fn(state, prev)
        candidates = []
        for i, (tokens, logp, attn) in enumerate(live):
            order = sorted(range(logprobs.shape[1]), key=lambda t: -logprobs[i, t])
            for tok in order[:beam_size]:
                candidates.append((tokens + (tok,), logp + float(logprobs[i, tok]),
                                   attn + (tuple(r[i] for r in rows),), i))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        kept = []
        for cand in candidates:
            if len(kept) == beam_size:
                break
            (finished if cand[0][-1] == eos_id else kept).append(cand)
        if not kept:
            break
        state = take_rows(new_state, np.array([c[3] for c in kept]))
        live = [c[:3] for c in kept]
    pool = finished or live
    tokens, logp, attn = min((c[:3] for c in pool), key=lambda c: (-c[1], len(c[0]), c[0]))
    return tokens, logp, attn, not finished


def per_hypothesis_beam(row_step, init_state, beam_size, max_len, bos_id, eos_id):
    """The beam search as it stood before steps were batched: one
    ``row_step(state, prev)`` call per live hypothesis, each hypothesis
    carrying its own tokens, state and attention tuples, and the same exact
    early stop. Returns (tokens, logprob, attn, truncated, search steps)."""
    live = [((), 0.0, init_state, ())]
    finished = []
    best_finished = -np.inf
    can_stop = True
    steps = 0
    for _ in range(max_len):
        steps += 1
        candidates = []
        for tokens, logp, state, attn in live:
            logprobs, new_state, rows = row_step(state, tokens[-1] if tokens else bos_id)
            can_stop = can_stop and logprobs.max() <= 0.0
            top = np.argsort(-logprobs, kind="stable")[:beam_size]
            for tok in top:
                candidates.append((tokens + (int(tok),), logp + float(logprobs[tok]),
                                   new_state, attn + (rows,)))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for cand in candidates:
            if len(live) == beam_size:
                break
            if cand[0][-1] == eos_id:
                finished.append(cand)
                best_finished = max(best_finished, cand[1])
            else:
                live.append(cand)
        if not live:
            break
        if can_stop and finished and best_finished >= live[0][1]:
            break
    pool = finished or live
    tokens, logp, _, attn = min(pool, key=lambda c: (-c[1], len(c[0]), c[0]))
    return tokens, logp, attn, not finished, steps


# ---------------------------------------------------------------------------
# Metric oracles: same conventions, different bookkeeping
# ---------------------------------------------------------------------------

def _grams(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def ref_bleu4(candidates, references):
    pieces = []
    for n in range(1, 5):
        matched, guessed = 0, 0
        for cand, refs in zip(candidates, references):
            cand_grams = _grams(cand, n)
            guessed += len(cand_grams)
            for g in set(cand_grams):
                best = max((_grams(r, n).count(g) for r in refs), default=0)
                matched += min(cand_grams.count(g), best)
        pieces.append((matched, guessed))
    cand_len = sum(len(c) for c in candidates)
    if cand_len == 0 or any(m == 0 or g == 0 for m, g in pieces):
        return 0.0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        ref_len += sorted((abs(len(r) - len(cand)), len(r)) for r in refs)[0][1]
    geo = math.exp(sum(math.log(m / g) for m, g in pieces) / 4.0)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * geo


def ref_cider(candidates, references, sigma=6.0):
    n_images = len(references)
    log_n = math.log(n_images)
    per_candidate = []
    for cand, refs in zip(candidates, references):
        by_n = []
        for n in range(1, 5):
            df = {}
            for rs in references:
                seen = set()
                for r in rs:
                    seen.update(_grams(r, n))
                for g in seen:
                    df[g] = df.get(g, 0) + 1

            def tfidf(seq):
                counts = {}
                for g in _grams(seq, n):
                    counts[g] = counts.get(g, 0) + 1
                return {g: c * (log_n - math.log(max(1.0, df.get(g, 0))))
                        for g, c in counts.items()}

            hyp = tfidf(cand)
            hyp_norm = math.sqrt(sum(v * v for v in hyp.values()))
            acc = 0.0
            for r in refs:
                ref = tfidf(r)
                ref_norm = math.sqrt(sum(v * v for v in ref.values()))
                dot = sum(min(v, ref.get(g, 0.0)) * ref.get(g, 0.0)
                          for g, v in hyp.items())
                sim = dot / (hyp_norm * ref_norm) if hyp_norm > 0 and ref_norm > 0 \
                    else 0.0
                acc += sim * math.exp(-((len(cand) - len(r)) ** 2) / (2 * sigma ** 2))
            by_n.append(acc / len(refs))
        per_candidate.append(sum(by_n) / 4.0)
    return 100.0 * sum(per_candidate) / len(per_candidate)


def recomputing_stage2_forward(bundle, batch, *, english=True, part1=None, states=True):
    """``models.stage2_forward`` that projects the regions and unrolls the
    English decoder on the tape at every call. A given ``part1`` marks part
    1 frozen, and its values are not read: the projected regions and
    en_to_regions are then cut off into constants, ``Tensor(x.data)``."""
    regions = bundle.captioner.project(batch.features)
    if part1 is not None:
        regions = Tensor(regions.data)
    cap_mask = batch.en_mask[:, 1:]
    cap_states = bundle.cap_encoder.encode(batch.en_ids[:, 1:], cap_mask)
    de_states, (de_to_regions, de_to_en) = models.unroll(
        bundle.de_decoder, [regions, cap_states], [batch.region_mask, cap_mask],
        batch.de_ids, states=states)
    if not english:
        return de_states, None
    _, (en_to_regions,) = models.unroll(bundle.captioner.decoder, [regions],
                                        [batch.region_mask], batch.en_ids, states=False)
    if part1 is not None:
        en_to_regions = Tensor(en_to_regions.data)
    return de_states, (de_to_regions, de_to_en, en_to_regions)
