from functools import partial

import numpy as np
import pytest

from cyclecap.data import BOS_ID, EOS_ID, FeatureGrid
from cyclecap.errors import ConfigError
from cyclecap.inference import beam_decode, caption_image
from cyclecap.models import CaptionEncoder, ImageProjection

from _reference import (exhaustive_best, per_hypothesis_beam, per_row,
                        row_step_fn)
from conftest import count_tensors, random_ids, tiny_bundle

EOS = 2


def table_step_fn(log_table):
    """Stateless toy model: next-token log-probs depend only on the previous
    token (rows indexed by previous token, BOS row included)."""

    def step(state, prev):
        return log_table[prev], state, (np.zeros(2),)

    return step


def random_log_table(rng, vocab):
    probs = rng.random((vocab, vocab)) + 0.05
    probs /= probs.sum(axis=1, keepdims=True)
    return np.log(probs)


def test_beam_one_equals_greedy():
    rng = np.random.default_rng(0)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        table = random_log_table(rng, 4)
        step = table_step_fn(table)
        result = beam_decode(per_row(step), None, beam_size=1, max_len=5, bos_id=0, eos_id=EOS)

        tokens, prev = [], 0
        for _ in range(5):
            nxt = int(np.argmax(table[prev]))
            tokens.append(nxt)
            prev = nxt
            if nxt == EOS:
                break
        greedy_finished = tokens[-1] == EOS
        assert result.truncated != greedy_finished
        assert list(result.tokens) == tokens


def test_hand_built_toy_beam_three_finds_argmax():
    # three "states" a=1, b=3, EOS=2 after BOS=0; greedy takes b first but the
    # best finished sequence starts with a
    table = np.log(np.array([
        [1e-9, 0.45, 1e-9, 0.55],   # BOS: b slightly preferred
        [1e-9, 0.05, 0.90, 0.05],   # after a: EOS very likely
        [0.25, 0.25, 0.25, 0.25],   # after EOS (unused)
        [1e-9, 0.40, 0.20, 0.40],   # after b: mass spread out
    ]) / np.array([[0.55 + 0.45 + 2e-9], [1.0], [1.0], [1.0 + 1e-9]]))
    step = table_step_fn(table)
    result = beam_decode(per_row(step), None, beam_size=3, max_len=4, bos_id=0, eos_id=EOS)
    lp, seq = exhaustive_best(step, None, 4, 0, EOS)
    assert result.tokens == seq
    assert result.logprob == pytest.approx(lp, rel=1e-12)
    assert seq[0] == 1  # the non-greedy opening


def test_never_emitting_eos_truncates_at_cap():
    vocab = 3
    table = np.full((vocab, vocab), -50.0)
    table[:, 1] = -0.01  # token 1 dominates, EOS effectively impossible
    result = beam_decode(per_row(table_step_fn(table)), None, beam_size=2, max_len=50,
                         bos_id=0, eos_id=EOS)
    assert result.truncated
    assert len(result.tokens) == 50
    assert all(t == 1 for t in result.tokens)


def test_exhaustive_oracle_agreement_with_covering_beam():
    # beam wide enough to cover the whole frontier makes the search exact
    for seed in range(40):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(2, 5))
        max_len = int(rng.integers(1, 6))
        table = random_log_table(rng, vocab)
        step = table_step_fn(table)
        result = beam_decode(per_row(step), None, beam_size=4 ** 5, max_len=max_len,
                             bos_id=0, eos_id=min(EOS, vocab - 1))
        oracle = exhaustive_best(step, None, max_len, 0, min(EOS, vocab - 1))
        if oracle is None:
            assert result.truncated
        else:
            lp, seq = oracle
            assert result.tokens == seq
            assert result.logprob == pytest.approx(lp, rel=1e-12)


def test_tie_break_prefers_earlier_eos_then_lexicographic():
    # uniform table: every sequence of equal length has equal score
    vocab = 3
    table = np.log(np.full((vocab, vocab), 1.0 / vocab))
    result = beam_decode(per_row(table_step_fn(table)), None, beam_size=27, max_len=3,
                         bos_id=0, eos_id=EOS)
    assert result.tokens == (EOS,)  # shortest, and lexicographically smallest


def test_config_validation():
    with pytest.raises(ConfigError):
        beam_decode(lambda s, p: None, None, beam_size=0, max_len=5)
    with pytest.raises(ConfigError):
        beam_decode(lambda s, p: None, None, beam_size=1, max_len=0)


def test_logprob_non_increasing_along_any_hypothesis():
    rng = np.random.default_rng(11)
    table = random_log_table(rng, 4)
    step = table_step_fn(table)
    res = beam_decode(per_row(step), None, beam_size=3, max_len=6, bos_id=0, eos_id=EOS)
    # recompute the running score of the winning hypothesis
    running, prev = [], 0
    total = 0.0
    for tok in res.tokens:
        total += table[prev][tok]
        running.append(total)
        prev = tok
    assert all(b <= a + 1e-12 for a, b in zip(running, running[1:]))


# --- two-stage captioning ----------------------------------------------------

def test_caption_image_record_shapes_and_determinism():
    rng = np.random.default_rng(12)
    bundle = tiny_bundle(seed=13)
    grid = FeatureGrid(rng.standard_normal((3, 3)))
    a = caption_image(bundle, grid, beam_size=3, max_len=6)
    b = caption_image(bundle, grid, beam_size=3, max_len=6)
    assert a.en_ids == b.en_ids and a.de_ids == b.de_ids
    n = len(a.en_ids)
    m = len(a.de_ids)
    assert a.record.en_to_regions.shape == (n, 3)
    assert a.record.de_to_regions.shape == (m, 3)
    assert a.record.de_to_en.shape == (m, n)


def test_caption_image_builds_tensors_only_in_project_and_encode(monkeypatch):
    # the two networks it runs forward are one record, so one Tensor, each;
    # decoding is arrays
    rng = np.random.default_rng(16)
    bundle = tiny_bundle(seed=17)
    grid = FeatureGrid(rng.standard_normal((3, 3)))
    made, inside = count_tensors(monkeypatch), []

    def counting(fn):
        def run(*args, **kwargs):
            before = len(made)
            out = fn(*args, **kwargs)
            inside.append(len(made) - before)
            return out
        return run

    for owner, name in ((ImageProjection, "project"), (CaptionEncoder, "encode")):
        monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
    out = caption_image(bundle, grid, beam_size=3, max_len=6)
    assert len(out.en_ids) + len(out.de_ids) > 2   # the decoders ran several steps
    assert inside == [1, 1] and len(made) == 2


def test_caption_image_beam_sizes_both_valid():
    rng = np.random.default_rng(14)
    bundle = tiny_bundle(seed=15)
    grid = FeatureGrid(rng.standard_normal((3, 3)))
    for beam in (1, 3):
        out = caption_image(bundle, grid, beam_size=beam, max_len=5)
        assert out.record.de_to_en.shape[0] == len(out.de_ids)



# --- the batched search against the per-hypothesis search --------------------

def counted(step_fn, calls):
    """``step_fn``, recording the live count of every call."""

    def step(state, prev):
        calls.append(len(prev))
        return step_fn(state, prev)

    return step


def assert_same_search(fast, oracle, exact):
    tokens, logprob, attn, truncated, _ = oracle
    assert fast.tokens == tokens and fast.truncated == truncated
    assert len(fast.attn) == len(attn)
    for got, want in zip(fast.attn, attn):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w) if exact else np.abs(g - w).max() <= 1e-12
    assert fast.logprob == logprob if exact else abs(fast.logprob - logprob) <= 1e-12


@pytest.mark.parametrize("beam", [1, 2, 3, 4])
def test_batched_search_matches_per_hypothesis_search(beam):
    """One batched decoder step per search step gives the per-hypothesis
    search's tokens, to 1e-12 in score and attention (BLAS sums a batch of
    rows in another order), and bit for bit at beam 1."""
    bundle = tiny_bundle(seed=40)
    outcomes = set()
    for max_len in range(1, 9):
        rng = np.random.default_rng(100 * beam + max_len)
        grid = FeatureGrid(rng.standard_normal((int(rng.integers(1, 5)), 3)))
        regions = bundle.captioner.project(grid.values[None])
        en_ids = np.array([random_ids(rng, 8, int(rng.integers(1, 4)))[1:]])
        for decoder, rows in (
                (bundle.captioner.decoder, [regions]),
                (bundle.de_decoder, [regions, bundle.cap_encoder.encode(en_ids)])):
            keys, state = decoder.start(rows)
            calls = []
            fast = beam_decode(counted(partial(decoder.step, keys), calls), state,
                               beam_size=beam, max_len=max_len)
            oracle = per_hypothesis_beam(row_step_fn(decoder, keys), state, beam,
                                         max_len, BOS_ID, EOS_ID)
            assert_same_search(fast, oracle, exact=beam == 1)
            assert len(calls) == oracle[4]  # one call per search step
            assert calls[0] == 1 and max(calls) <= beam
            outcomes.add(fast.truncated)
    assert outcomes == {False, True}  # finished and capped searches both ran


def depth_step(tables, calls):
    """Toy step over one hypothesis: the state is the step index, and the
    log-probs are ``tables[depth][prev]``. Records each (depth, prev)."""

    def step(depth, prev):
        calls.append((depth, prev))
        return tables[depth][prev], depth + 1, (np.array([depth, prev], float),)

    return step


def test_eos_among_a_rows_best_tokens_keeps_the_beam_full():
    # beam 2 over BOS=0, x=1, EOS=2, y=3, a=4, b=5. After x, EOS is one of
    # the two best tokens: it retires, and the beam fills from each live
    # row's own two best tokens with (x a) and (y a). Walking on to x's
    # third best token would keep (x b) instead of (y a); a top 2 over the
    # flattened live x vocab scores would keep (x a) alone.
    x, eos, y, a, b = 1, 2, 3, 4, 5
    tables = np.full((3, 6, 6), np.log(1e-3))
    tables[0, 0, [x, y]] = np.log([0.5, 0.05])
    tables[1, x, [eos, a, b]] = np.log([0.4, 0.45, 0.1])
    tables[1, y, [a, b]] = np.log([0.5, 0.4])
    tables[2, a, eos] = np.log(0.9)
    fast_calls, oracle_calls, batch_calls = [], [], []
    fast = beam_decode(counted(per_row(depth_step(tables, fast_calls)), batch_calls),
                       0, beam_size=2, max_len=3, bos_id=0, eos_id=eos)
    oracle = per_hypothesis_beam(depth_step(tables, oracle_calls), 0, 2, 3, 0, eos)
    assert_same_search(fast, oracle, exact=True)
    assert fast_calls == oracle_calls
    assert fast_calls == [(0, 0), (1, x), (1, y), (2, a), (2, a)]
    assert batch_calls == [1, 2, 2] and oracle[4] == 3
    assert fast.tokens == (x, a, eos) and not fast.truncated
