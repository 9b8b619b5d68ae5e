"""Independent straightforward re-implementations used as test oracles.

Everything here is plain numpy / plain Python written from the formulas,
deliberately sharing no code with the package's taped ops, so agreement is
meaningful. Functions read parameter values straight off the model objects,
the decoders' initial-state projections by their checkpoint names.
"""

import math

import numpy as np


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


def full_length_beam(step_fn, init_state, beam_size, max_len, bos_id, eos_id):
    """Beam search that always runs to max_len, never stopping early.

    Each step expands every live hypothesis by its beam_size best tokens
    (stable order on ties), ranks all candidates by (score desc, tokens asc),
    retires EOS candidates and keeps the first beam_size others live. Returns
    (tokens, logprob, attn, truncated) of the best finished hypothesis under
    (score desc, length asc, tokens asc), else of the best live one.
    """
    live = [((), 0.0, init_state, ())]
    finished = []
    for _ in range(max_len):
        candidates = []
        for tokens, logp, state, attn in live:
            logprobs, new_state, rows = step_fn(state, tokens[-1] if tokens else bos_id)
            order = sorted(range(len(logprobs)), key=lambda t: -logprobs[t])
            for tok in order[:beam_size]:
                candidates.append((tokens + (tok,), logp + float(logprobs[tok]),
                                   new_state, attn + (rows,)))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for cand in candidates:
            if len(live) == beam_size:
                break
            (finished if cand[0][-1] == eos_id else live).append(cand)
        if not live:
            break
    pool = finished or live
    tokens, logp, _, attn = min(pool, key=lambda c: (-c[1], len(c[0]), c[0]))
    return tokens, logp, attn, not finished


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
