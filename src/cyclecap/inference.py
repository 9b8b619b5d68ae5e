"""Two-stage inference: image -> English caption -> German caption.

Both decoders use the same beam search: a decoder's ``step`` over the keys
its ``start`` prepared for one image, ``functools.partial(decoder.step,
keys)``, is the search's ``step_fn``, arrays in and out. Scores
are plain summed token log-probabilities (no length normalization);
hypotheses that emit EOS are retired, and a hypothesis that hits the length
cap without EOS is discarded unless nothing finished, in which case the
best capped one is returned with a truncation flag.

Each search step is one ``step_fn`` call over every live hypothesis: it
takes their (live,) previous ids and returns (live, vocab) log-probs, the
next state and one (live, K) attention row per head; every row reads the
image's one-record keys, which ``attention.attend`` broadcasts. After
ranking, ``beam_decode`` reorders the state to the surviving rows' parents
with one fancy index, skipped when every row keeps its place (always so at
beam 1). Hypotheses are explicit: each live row carries its summed
log-prob, its token tuple and its attention rows per step.

The candidates of a step are each live row's ``beam_size`` best tokens,
stable on ties, ranked by (score desc, tokens asc); EOS candidates retire
and the first ``beam_size`` others stay live. (A top k over the flattened
live x vocab scores is a different search: it keeps fewer live hypotheses
whenever an EOS retires.)

The search ends before the length cap once the best finished score is at
least the best live score. That stop is exact: log-probs are <= 0 and float
addition rounds monotonically, so no extension scores above its prefix, and
any hypothesis finishing later would tie at best while being longer, which
the (score, length, tokens) tie-break never prefers. The stop is disabled
for the rest of a search once ``step_fn`` returns a score above 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from .cycle import AttentionRecord
from .data import BOS_ID, EOS_ID, FeatureGrid
from .errors import ConfigError
from .models import ModelBundle

StepFn = Callable[[Any, np.ndarray], tuple[np.ndarray, Any, tuple[np.ndarray, ...]]]


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[int, ...]   # includes the final EOS unless truncated
    logprob: float
    attn: tuple[tuple[np.ndarray, ...], ...]   # per step, one row per head
    truncated: bool


def _take(state: Any, rows: np.ndarray) -> Any:
    """The state of rows ``rows``: each array indexed on its first axis, a
    tuple item by item; anything else is shared by every row."""
    if isinstance(state, tuple):
        return tuple(_take(s, rows) for s in state)
    if isinstance(state, np.ndarray):
        return state[rows]
    return state


def beam_decode(step_fn: StepFn, state: Any, *, beam_size: int = 3,
                max_len: int = 50, bos_id: int = BOS_ID,
                eos_id: int = EOS_ID) -> DecodeResult:
    """Length-capped beam search over ``step_fn(state, prev)`` from the
    decoder state ``state`` of one row.

    ``step_fn`` takes the state of the live hypotheses and their (live,)
    previous tokens and returns ((live, vocab) log-probs, next state, one
    (live, K) attention row per head). ``max_len`` caps generated tokens,
    EOS included. With beam_size 1 this is greedy decoding.

    The search stops early once the best finished score is >= the best live
    score, while every score ``step_fn`` has returned is <= 0. The result is
    the one a search run to ``max_len`` returns: an extension never scores
    above its prefix, and a later finish is longer than every finished
    hypothesis, so it loses any tie.
    """
    if beam_size < 1 or max_len < 1:
        raise ConfigError(f"beam_size and max_len must be >= 1, "
                          f"got {beam_size}, {max_len}")
    live = [(0.0, (), ())]  # (summed log-prob, tokens, attention rows per step)
    prev = np.array([bos_id])
    finished = []           # (-logprob, length, tokens, attention rows per step)
    best_finished = -np.inf
    can_stop = True
    for t in range(max_len):
        logprobs, state, rows = step_fn(state, prev)
        can_stop = can_stop and logprobs.max() <= 0.0  # NaN disables it too
        top = np.argsort(-logprobs, axis=1, kind="stable")[:, :beam_size].tolist()
        candidates = sorted(
            (-(score + float(lps[token])), tokens + (token,), row)
            for row, ((score, tokens, _), lps, best) in enumerate(zip(live, logprobs, top))
            for token in best)
        kept, parents = [], []
        for neg, tokens, row in candidates:
            if len(kept) == beam_size:
                break
            attn = live[row][2] + (tuple(a[row] for a in rows),)
            if tokens[-1] == eos_id:
                finished.append((neg, t + 1, tokens, attn))
                best_finished = max(best_finished, -neg)
            else:
                kept.append((-neg, tokens, attn))
                parents.append(row)
        if not kept:
            break
        if parents != list(range(len(live))):
            state = _take(state, np.array(parents))
        live = kept
        prev = np.array([tokens[-1] for _, tokens, _ in live])
        if can_stop and finished and best_finished >= live[0][0]:
            break
    if finished:
        neg, _, tokens, attn = min(finished, key=lambda f: f[:3])
        return DecodeResult(tokens, -neg, attn, False)
    score, tokens, attn = live[0]  # live is sorted, and all have one length
    return DecodeResult(tokens, score, attn, True)


@dataclass(frozen=True)
class CaptionResult:
    en_ids: tuple[int, ...]
    de_ids: tuple[int, ...]
    record: AttentionRecord
    en_truncated: bool
    de_truncated: bool


def caption_image(bundle: ModelBundle, grid: FeatureGrid, *, beam_size: int = 3,
                  max_len: int = 50) -> CaptionResult:
    """Generate the English pivot caption, encode it, then decode German.

    Deterministic for a given bundle and grid. The pivot caption is never
    empty: ``beam_decode`` returns at least one token.
    """
    regions = bundle.captioner.project(grid.values[None])
    en_decoder = bundle.captioner.decoder
    keys, state = en_decoder.start([regions])
    en_res = beam_decode(partial(en_decoder.step, keys), state,
                         beam_size=beam_size, max_len=max_len)
    cap_states = bundle.cap_encoder.encode(np.array([en_res.tokens]))
    de_decoder = bundle.de_decoder
    keys, state = de_decoder.start([regions, cap_states])
    de_res = beam_decode(partial(de_decoder.step, keys), state,
                         beam_size=beam_size, max_len=max_len)

    record = AttentionRecord(
        en_to_regions=np.stack([rows[0] for rows in en_res.attn]),
        de_to_regions=np.stack([rows[0] for rows in de_res.attn]),
        de_to_en=np.stack([rows[1] for rows in de_res.attn]),
    )
    return CaptionResult(en_ids=en_res.tokens, de_ids=de_res.tokens, record=record,
                         en_truncated=en_res.truncated, de_truncated=de_res.truncated)
