"""Two-stage inference: image -> English caption -> German caption.

Both decoders use the same beam search through the same adapter:
``decoder_step_fn(decoder, keys)`` turns a decoder's ``step`` over the keys
its ``start`` prepared into the search's ``step_fn``. Scores are plain
summed token log-probabilities (no length normalization); hypotheses that
emit EOS are retired, and a hypothesis that hits the length cap without EOS
is discarded unless nothing finished, in which case the best capped one is
returned with a truncation flag.

The search ends before the length cap once the best finished score is at
least the best live score. That stop is exact: log-probs are <= 0 and float
addition rounds monotonically, so no extension scores above its prefix, and
any hypothesis finishing later would tie at best while being longer, which
the (score, length, tokens) tie-break never prefers. The stop is disabled
for the rest of a search once ``step_fn`` returns a score above 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .cycle import AttentionRecord
from .data import BOS_ID, EOS_ID, FeatureGrid
from .errors import ConfigError
from .models import DualAttentionDecoder, Keys, ModelBundle, SoftAttentionDecoder

StepFn = Callable[[Any, int], tuple[np.ndarray, Any, tuple[np.ndarray, ...]]]


@dataclass(frozen=True)
class BeamHypothesis:
    """A partial decode: generated tokens (BOS excluded), their summed
    log-probability, the recurrent state, and one attention tuple per step."""

    tokens: tuple[int, ...]
    logprob: float
    state: Any
    attn: tuple[tuple[np.ndarray, ...], ...]


@dataclass(frozen=True)
class DecodeResult:
    tokens: tuple[int, ...]   # includes the final EOS unless truncated
    logprob: float
    attn: tuple[tuple[np.ndarray, ...], ...]
    truncated: bool


def _best(hyps: list[BeamHypothesis]) -> BeamHypothesis:
    # highest score, then earlier EOS (shorter), then lexicographic tokens
    return sorted(hyps, key=lambda h: (-h.logprob, len(h.tokens), h.tokens))[0]


def beam_decode(step_fn: StepFn, state: Any, *, beam_size: int = 3,
                max_len: int = 50, bos_id: int = BOS_ID,
                eos_id: int = EOS_ID) -> DecodeResult:
    """Length-capped beam search over ``step_fn(state, prev_token)`` from
    the decoder state ``state``.

    ``step_fn`` returns (log-prob vector over the vocabulary, next state,
    attention rows for this step). ``max_len`` caps generated tokens, EOS
    included. With beam_size 1 this is greedy decoding.

    The search stops early once the best finished score is >= the best live
    score, while every score ``step_fn`` has returned is <= 0. The result is
    the one a search run to ``max_len`` returns: an extension never scores
    above its prefix, and a later finish is longer than every finished
    hypothesis, so it loses any tie.
    """
    if beam_size < 1 or max_len < 1:
        raise ConfigError(f"beam_size and max_len must be >= 1, "
                          f"got {beam_size}, {max_len}")
    live = [BeamHypothesis(tokens=(), logprob=0.0, state=state, attn=())]
    finished: list[BeamHypothesis] = []
    best_finished = -np.inf
    can_stop = True
    for _ in range(max_len):
        candidates: list[BeamHypothesis] = []
        for hyp in live:
            prev = hyp.tokens[-1] if hyp.tokens else bos_id
            logprobs, state, rows = step_fn(hyp.state, prev)
            can_stop = can_stop and logprobs.max() <= 0.0  # NaN disables it too
            top = np.argsort(-logprobs, kind="stable")[:beam_size]
            for token in top:
                candidates.append(BeamHypothesis(
                    tokens=hyp.tokens + (int(token),),
                    logprob=hyp.logprob + float(logprobs[token]),
                    state=state,
                    attn=hyp.attn + (rows,),
                ))
        candidates.sort(key=lambda h: (-h.logprob, h.tokens))
        live = []
        for cand in candidates:
            if len(live) == beam_size:
                break
            if cand.tokens[-1] == eos_id:
                finished.append(cand)
                best_finished = max(best_finished, cand.logprob)
            else:
                live.append(cand)
        if not live:
            break
        if can_stop and finished and best_finished >= live[0].logprob:
            break
    if finished:
        best = _best(finished)
        return DecodeResult(best.tokens, best.logprob, best.attn, truncated=False)
    best = _best(live)
    return DecodeResult(best.tokens, best.logprob, best.attn, truncated=True)


def decoder_step_fn(decoder: SoftAttentionDecoder | DualAttentionDecoder,
                    keys: Keys) -> StepFn:
    """Beam-search step of either decoder over the ``keys`` its ``start``
    prepared for one image: the batched step at B = 1. Each step's attention
    rows are one weight row per head."""

    def step(state, prev):
        logp, state, weights = decoder.step(keys, state, np.array([prev]))
        return logp.data[0], state, tuple(w.data[0] for w in weights)

    return step


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
    keys, state = en_decoder.start(regions)
    en_res = beam_decode(decoder_step_fn(en_decoder, keys), state,
                         beam_size=beam_size, max_len=max_len)
    cap_states = bundle.cap_encoder.encode(np.array([en_res.tokens]))
    de_decoder = bundle.de_decoder
    keys, state = de_decoder.start(regions, cap_states)
    de_res = beam_decode(decoder_step_fn(de_decoder, keys), state,
                         beam_size=beam_size, max_len=max_len)

    record = AttentionRecord(
        en_to_regions=np.stack([rows[0] for rows in en_res.attn]),
        de_to_regions=np.stack([rows[0] for rows in de_res.attn]),
        de_to_en=np.stack([rows[1] for rows in de_res.attn]),
    )
    return CaptionResult(en_ids=en_res.tokens, de_ids=de_res.tokens, record=record,
                         en_truncated=en_res.truncated, de_truncated=de_res.truncated)
