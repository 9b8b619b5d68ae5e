"""The early stop in beam search returns exactly what a search run to the
length cap returns, with fewer decoder steps when EOS dominates."""

import numpy as np
import pytest

from cyclecap.data import BOS_ID, EOS_ID, FeatureGrid
from cyclecap.inference import beam_decode, decoder_step_fn

from _reference import full_length_beam
from conftest import tiny_bundle


def random_tables(rng, vocab, depth):
    """``depth`` x vocab x vocab next-token log-probs, one table per decode
    step. Each row is random, uniform (every token ties) or one-hot (one
    log-prob exactly 0.0, the rest -inf)."""
    probs = rng.random((depth, vocab, vocab)) + 0.05
    tables = np.log(probs / probs.sum(axis=2, keepdims=True))
    kind = rng.integers(0, 3, size=(depth, vocab))
    tables[kind == 1] = -np.log(vocab)
    one_hot = np.full(vocab, -np.inf)
    for d, prev in zip(*np.nonzero(kind == 2)):
        tables[d, prev] = one_hot
        tables[d, prev, rng.integers(vocab)] = 0.0
    return tables


def counting_step(tables, calls):
    """State is the step index; the attention row names (step, previous
    token), so equal attention means the same path was decoded."""

    def step(depth, prev):
        calls.append((depth, prev))
        return tables[depth][prev], depth + 1, (np.array([depth, prev], float),)

    return step


def decode_both(tables, beam, max_len, eos):
    fast_calls, ref_calls = [], []
    fast = beam_decode(counting_step(tables, fast_calls), 0, beam_size=beam,
                       max_len=max_len, bos_id=0, eos_id=eos)
    ref = full_length_beam(counting_step(tables, ref_calls), 0, beam, max_len, 0, eos)
    return fast, ref, len(fast_calls), len(ref_calls)


def assert_same(fast, ref):
    tokens, logprob, attn, truncated = ref
    assert fast.tokens == tokens
    assert fast.logprob == logprob  # bit-equal, not approximately equal
    assert fast.truncated == truncated
    assert len(fast.attn) == len(attn)
    for got, want in zip(fast.attn, attn):
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_early_stop_matches_full_length_search_on_random_tables():
    stopped_early = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(2, 6))
        beam = int(rng.integers(1, 5))
        max_len = int(rng.integers(1, 9))
        tables = random_tables(rng, vocab, max_len)
        fast, ref, fast_calls, ref_calls = decode_both(tables, beam, max_len,
                                                       eos=vocab - 1)
        assert_same(fast, ref)
        assert fast_calls <= ref_calls
        stopped_early += fast_calls < ref_calls
    assert stopped_early > 50  # the stop is exercised, not just harmless


@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_every_search_returns_at_least_one_token(max_len):
    # caption_image feeds the English tokens to the caption encoder, which
    # rejects an empty caption
    for seed in range(50):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(2, 6))
        tables = random_tables(rng, vocab, max_len)
        for beam in (1, 2, 3):
            fast, ref, _, _ = decode_both(tables, beam, max_len, eos=vocab - 1)
            assert_same(fast, ref)
            assert 1 <= len(fast.tokens) <= max_len


def test_ties_end_on_the_shortest_then_smallest_caption():
    # uniform rows: equal scores at equal length, so the one-token EOS wins
    vocab = 4
    tables = np.full((8, vocab, vocab), -np.log(vocab))
    fast, ref, fast_calls, ref_calls = decode_both(tables, 3, 8, eos=2)
    assert_same(fast, ref)
    assert fast.tokens == (2,)
    assert fast_calls == 1 < ref_calls


def test_zero_log_probs_still_stop_exactly():
    # a path of certain tokens (log-prob 0.0) then a certain EOS; live
    # hypotheses off the path are -inf
    vocab, eos = 4, 3
    tables = np.full((10, vocab, vocab), -np.inf)
    tables[:, :, 1] = 0.0
    tables[3:, 1, :] = -np.inf
    tables[3:, 1, eos] = 0.0
    fast, ref, fast_calls, ref_calls = decode_both(tables, 2, 10, eos)
    assert_same(fast, ref)
    assert fast.tokens == (1, 1, 1, eos) and fast.logprob == 0.0
    assert fast_calls < ref_calls


def test_dominant_eos_ends_the_search_after_one_step():
    vocab, eos, max_len = 5, 2, 30
    probs = np.full((vocab, vocab), 0.1 / (vocab - 1))
    probs[:, eos] = 0.9
    tables = np.broadcast_to(np.log(probs), (max_len, vocab, vocab))
    fast, ref, fast_calls, ref_calls = decode_both(tables, 3, max_len, eos)
    assert_same(fast, ref)
    assert fast.tokens == (eos,)
    assert fast_calls == 1 < ref_calls


def test_positive_scores_disable_the_stop():
    # EOS scores highest at every step, but a positive score means longer
    # captions score more, so stopping at the first EOS would be wrong
    vocab, eos, max_len = 4, 2, 6
    row = np.array([0.5, 0.4, 1.0, 0.3])
    tables = np.broadcast_to(row, (max_len, vocab, vocab))
    fast, ref, fast_calls, ref_calls = decode_both(tables, 2, max_len, eos)
    assert_same(fast, ref)
    assert len(fast.tokens) == max_len and fast.tokens[-1] == eos
    assert fast_calls == ref_calls


@pytest.mark.parametrize("beam", [1, 2, 3])
def test_captioner_decoder_matches_full_length_search(beam):
    rng = np.random.default_rng(30 + beam)
    bundle = tiny_bundle(seed=31)
    decoder = bundle.captioner.decoder
    for _ in range(3):
        keys, state = decoder.start(
            [bundle.captioner.project(FeatureGrid(rng.standard_normal((3, 3))).values[None])])
        step = decoder_step_fn(decoder, keys)
        fast = beam_decode(step, state, beam_size=beam, max_len=6)
        ref = full_length_beam(step, state, beam, 6, BOS_ID, EOS_ID)
        assert_same(fast, ref)
