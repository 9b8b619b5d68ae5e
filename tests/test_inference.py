import numpy as np
import pytest

from cyclecap.data import FeatureGrid
from cyclecap.errors import ConfigError
from cyclecap.inference import BeamHypothesis, beam_decode, caption_image

from _reference import exhaustive_best
from conftest import tiny_bundle

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
        result = beam_decode(step, None, beam_size=1, max_len=5, bos_id=0, eos_id=EOS)

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
    result = beam_decode(step, None, beam_size=3, max_len=4, bos_id=0, eos_id=EOS)
    lp, seq = exhaustive_best(step, None, 4, 0, EOS)
    assert result.tokens == seq
    assert result.logprob == pytest.approx(lp, rel=1e-12)
    assert seq[0] == 1  # the non-greedy opening


def test_never_emitting_eos_truncates_at_cap():
    vocab = 3
    table = np.full((vocab, vocab), -50.0)
    table[:, 1] = -0.01  # token 1 dominates, EOS effectively impossible
    result = beam_decode(table_step_fn(table), None, beam_size=2, max_len=50,
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
        result = beam_decode(step, None, beam_size=4 ** 5, max_len=max_len,
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
    result = beam_decode(table_step_fn(table), None, beam_size=27, max_len=3,
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
    res = beam_decode(step, None, beam_size=3, max_len=6, bos_id=0, eos_id=EOS)
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


def test_caption_image_beam_sizes_both_valid():
    rng = np.random.default_rng(14)
    bundle = tiny_bundle(seed=15)
    grid = FeatureGrid(rng.standard_normal((3, 3)))
    for beam in (1, 3):
        out = caption_image(bundle, grid, beam_size=beam, max_len=5)
        assert out.record.de_to_en.shape[0] == len(out.de_ids)


def test_hypothesis_dataclass_is_immutable():
    hyp = BeamHypothesis(tokens=(1,), logprob=-0.5, state=None, attn=())
    with pytest.raises(AttributeError):
        hyp.logprob = 0.0
