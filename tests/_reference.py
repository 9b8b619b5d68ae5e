"""Independent straightforward re-implementations used as test oracles.

Most of this is plain numpy / plain Python written from the formulas,
deliberately sharing no code with the package's taped ops, so agreement is
meaningful. Functions read parameter values straight off the model objects,
the decoders' initial-state projections by their checkpoint names.

The exceptions are two layers of taped oracles for the package's fused ops:

* the composed graphs: the LSTM step, GRU step and attention head built
  from the package's primitive tape ops, one small op per gate slice, as
  the package computed them before its fused ops. They are the gradient
  oracle for ``gru_cell`` and for the per-step records below; the two ops
  only they need, ``column_slice`` and ``sigmoid``, are built here on
  ``tensor._record``.
* the per-step records: one LSTM step and one attention head as one record
  each, on the package's array-level step math, with the backward rules the
  package's decode ops carried before a teacher-forced unroll became one
  record. ``stepped_unroll`` chains them into the per-step graph that
  ``tensor.decoder_unroll`` is checked against.
"""

import math
from itertools import accumulate

import numpy as np

from cyclecap.tensor import (Tensor, _attention_arrays, _lstm_arrays, _record,
                             _record_many, _result, _results, add, batch_matmul,
                             concat, embedding_lookup, masked_softmax, matmul, mul,
                             stack, sub, tanh, unstack)


def np_softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def np_log_softmax(x):
    s = x - x.max()
    return s - np.log(np.exp(s).sum())


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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
    """``cells.gru_step`` from primitive ops."""
    size = p.hidden_size
    a = matmul(h_prev, p.u)
    rz = sigmoid(add(column_slice(xw, 0, 2 * size), column_slice(a, 0, 2 * size)))
    n = tanh(add(column_slice(xw, 2 * size, 3 * size),
                 mul(column_slice(rz, 0, size), column_slice(a, 2 * size, 3 * size))))
    return add(n, mul(column_slice(rz, size, 2 * size), sub(h_prev, n)))


def composed_attend(layer, keys, query):
    """``attention.attend`` from primitive ops; returns (weights, context)."""
    hidden = tanh(add(keys.projected, matmul(query, keys.w_query_t)))
    weights = masked_softmax(matmul(hidden, layer.combine), keys.mask)
    return weights, batch_matmul(weights, keys.rows)


# ---------------------------------------------------------------------------
# Per-step records: the oracle of the one-record decoder unroll
# ---------------------------------------------------------------------------

def step_lstm_cell(inputs, h, c, w, b):
    """One LSTM step as one record, as ``tensor.lstm_cell`` computes it, with
    its per-step backward rule; returns (h', c')."""
    hd, cd, wd = h.data, c.data, w.data
    parts = [x.data for x in inputs] + [hd]
    size, width = hd.shape[-1], wd.shape[0]
    x = np.concatenate(parts, axis=-1)
    a = np.matmul(x, wd) + b.data
    ifo, g, c_new, tc, h_new = _lstm_arrays(a, cd)
    i, f, o = ifo[..., :size], ifo[..., size:2 * size], ifo[..., 2 * size:]
    outs = _results("lstm_cell", h_new, c_new)

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


def step_additive_attention(projected, rows, mask, query, w_query_t, combine):
    """One attention head's step as one record, as
    ``tensor.additive_attention`` computes it, with its per-step backward
    rule; returns (weights, context)."""
    pd, rd, qd, wd, cd = projected.data, rows.data, query.data, w_query_t.data, combine.data
    hidden, w, context = _attention_arrays(pd, rd, mask, qd, wd, cd)
    outs = _results("additive_attention", w, context)

    def rule(gw, gctx):
        gw = gw + np.matmul(gctx[:, None, :], rd.transpose(0, 2, 1))[:, 0, :]
        gs = (w * (gw - (gw * w).sum(axis=1, keepdims=True))).T      # (K, B)
        gpre = gs[..., None] * cd * (1.0 - hidden * hidden)          # (K, B, A)
        gq = gpre.sum(axis=0)
        return (gpre, w[:, :, None] * gctx[:, None, :], gq @ wd.T, qd.T @ gq,
                gs.reshape(-1) @ hidden.reshape(-1, cd.shape[0]))

    return _record_many(outs, (projected, rows, query, w_query_t, combine), rule)


def stepped_unroll(decoder, start, ids):
    """``models.unroll`` as the per-step graph: one lookup split into steps,
    per step one record per head and one for the LSTM, then the stacks.
    Returns the (T, B, hidden) states and each head's (B, T, K) weights."""
    keys, (h, c) = start
    hidden, weight_rows = [], []
    for x in unstack(embedding_lookup(decoder.embedding, ids[:, :-1].T)):
        attended = [step_additive_attention(k.projected, k.rows, k.mask, h,
                                            k.w_query_t, head.combine)
                    for head, k in zip(decoder.heads, keys)]
        h, c = step_lstm_cell([ctx for _, ctx in attended] + [x], h, c,
                              decoder.lstm.w, decoder.lstm.b)
        hidden.append(h)
        weight_rows.append([w for w, _ in attended])
    return stack(hidden), [stack(rows, axis=1) for rows in zip(*weight_rows)]


def ref_project(captioner, grid_values):
    proj = captioner.image_proj
    return np.tanh(grid_values @ proj.w.data + proj.b.data)


def ref_captioner_sequence(captioner, grid_values, ids):
    """Teacher-forced log-likelihood and region-attention matrix of the
    soft-attention captioner, re-derived step by step."""
    dec = captioner.decoder
    p = {name: w.data for name, w in dec.named().items()}
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
    p = {name: w.data for name, w in dec.named().items()}
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
    """Rows ``rows`` of a batched state: Tensors and arrays by their first
    axis, tuples item by item, anything else as it is."""
    if isinstance(state, tuple):
        return tuple(take_rows(s, rows) for s in state)
    if isinstance(state, Tensor):
        return Tensor(state.data[rows])
    if isinstance(state, np.ndarray):
        return state[rows]
    return state


def row_step_fn(decoder, keys):
    """The per-hypothesis decoder step: the decoder's step at B = 1."""

    def step(state, prev):
        logp, state, weights = decoder.step(keys, state, np.array([prev]))
        return logp.data[0], state, tuple(w.data[0] for w in weights)

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
