import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.cycle import parse_record, toy_alignment_record
from cyclecap.errors import DataError, DimensionError
from cyclecap.evaluation import (MetricReport, alignment_score, bleu4, cider,
                                 export_attention_heatmaps, render_report)

from _reference import ref_bleu4, ref_cider

WORD = st.sampled_from(["a", "dog", "cat", "runs", "sits", "red", "blue", "the"])
SENT = st.lists(WORD, min_size=1, max_size=9)


def random_corpus(rng, n=10):
    """Candidates share n-grams with their references (candidate = a prefix of
    its first reference), so idf-shift invariance holds exactly."""
    vocab = ["a", "dog", "cat", "runs", "sits", "red", "blue", "the", "park",
             "ball", "near", "green"]
    candidates, references = [], []
    for _ in range(n):
        ref = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(5, 9))]
        ref2 = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(4, 8))]
        cut = int(rng.integers(3, len(ref) + 1))
        candidates.append(ref[:cut])
        references.append([ref, ref2])
    return candidates, references


# --- BLEU ---------------------------------------------------------------------

def test_bleu_perfect_match_scores_100():
    cands = [["a", "dog", "runs", "fast"], ["the", "cat", "sits", "down", "now"]]
    refs = [[c] for c in cands]
    assert bleu4(cands, refs) == pytest.approx(100.0, abs=1e-9)


def test_bleu_hand_example_brevity_penalty():
    score = bleu4([["a", "b", "c", "d"]], [[["a", "b", "c", "d", "e"]]])
    assert score == pytest.approx(100.0 * np.exp(1.0 - 5.0 / 4.0), abs=1e-9)
    assert score == pytest.approx(77.88, abs=0.01)


def test_bleu_no_overlap_scores_zero():
    assert bleu4([["x", "y", "z", "w"]], [[["a", "b", "c", "d"]]]) == 0.0


def test_bleu_validation():
    with pytest.raises(DataError):
        bleu4([], [])
    with pytest.raises(DataError):
        bleu4([["a"]], [[]])


def test_bleu_matches_independent_implementation():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cands, refs = random_corpus(rng)
        assert bleu4(cands, refs) == pytest.approx(ref_bleu4(cands, refs), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_bleu_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    cands, refs = random_corpus(rng, n=6)
    perm = rng.permutation(6)
    shuffled = bleu4([cands[i] for i in perm], [refs[i] for i in perm])
    assert shuffled == pytest.approx(bleu4(cands, refs), rel=1e-12)


# --- CIDEr ---------------------------------------------------------------------

def test_cider_identical_candidates_get_corpus_maximum():
    # five distinct captions, candidate == only reference
    sents = [["a", "dog", "runs", "in", "the", "park"],
             ["the", "cat", "sits", "on", "a", "mat"],
             ["a", "red", "ball", "rolls", "far", "away"],
             ["two", "birds", "fly", "over", "the", "lake"],
             ["an", "old", "boat", "drifts", "near", "shore"]]
    refs = [[s] for s in sents]
    score = cider(sents, refs)
    assert score == pytest.approx(ref_cider(sents, refs), abs=1e-9)
    assert score == pytest.approx(100.0, abs=1e-9)
    # perturbing any candidate can only lower it
    worse = [sents[0][:3]] + sents[1:]
    assert cider(worse, refs) < score


def test_cider_no_shared_ngrams_scores_zero():
    sents = [["a", "dog", "runs"], ["the", "cat", "sits"]]
    refs = [[s] for s in sents]
    cands = [["x", "y", "z"], ["p", "q", "r"]]
    assert cider(cands, refs) == pytest.approx(0.0, abs=1e-12)


def test_cider_matches_independent_implementation():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cands, refs = random_corpus(rng)
        assert cider(cands, refs) == pytest.approx(ref_cider(cands, refs), abs=1e-9)


def test_cider_duplicating_corpus_preserves_scores():
    # doubling every image doubles both the corpus size and each document
    # frequency, so the idf shift cancels when candidate n-grams all appear
    # in their references (random_corpus guarantees that)
    rng = np.random.default_rng(123)
    cands, refs = random_corpus(rng, n=8)
    doubled_cands = cands + cands
    doubled_refs = refs + refs
    full = cider(doubled_cands, doubled_refs)
    assert full == pytest.approx(cider(cands, refs), abs=1e-9)
    assert full == pytest.approx(ref_cider(doubled_cands, doubled_refs), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_cider_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    cands, refs = random_corpus(rng, n=6)
    perm = rng.permutation(6)
    shuffled = cider([cands[i] for i in perm], [refs[i] for i in perm])
    assert shuffled == pytest.approx(cider(cands, refs), rel=1e-12)


def test_report_rendering_names_the_variant():
    table = render_report([MetricReport("cycle-attn", 41.2, 5.6, 16)])
    assert "CIDEr-D" in table
    assert "cycle-attn" in table


# --- heatmaps -------------------------------------------------------------------

def read_pgm(path):
    blob = path.read_bytes()
    header, rest = blob.split(b"255\n", 1)
    magic, dims = header.split(b"\n", 1)
    cols, rows = map(int, dims.split())
    assert magic == b"P5"
    return np.frombuffer(rest, dtype=np.uint8).reshape(rows, cols)


def test_uniform_row_renders_constant_gray(tmp_path):
    record = toy_alignment_record()
    uniform = np.full((1, 4), 0.25)
    from cyclecap.cycle import AttentionRecord
    rec = AttentionRecord(en_to_regions=record.en_to_regions,
                          de_to_regions=uniform, de_to_en=record.de_to_en)
    files = export_attention_heatmaps(rec, ["hund"], 2, 2, tmp_path, "img0")
    image = read_pgm(files[0])
    assert (image == image.flat[0]).all()


def test_one_hot_row_renders_single_white_cell(tmp_path):
    from cyclecap.cycle import AttentionRecord
    record = toy_alignment_record()
    onehot = np.zeros((1, 4))
    onehot[0, 2] = 1.0
    rec = AttentionRecord(en_to_regions=record.en_to_regions,
                          de_to_regions=onehot, de_to_en=record.de_to_en)
    files = export_attention_heatmaps(rec, ["hund"], 2, 2, tmp_path, "img1")
    image = read_pgm(files[0])
    assert image[1, 0] == 255
    assert (image.sum() - 255) == 0


def test_toy_record_dump_roundtrips_byte_for_byte(tmp_path):
    record = toy_alignment_record()
    export_attention_heatmaps(record, ["hund"], 2, 2, tmp_path, "toy")
    text = (tmp_path / "toy.attn.txt").read_text(encoding="utf-8")
    parsed = parse_record(text)
    np.testing.assert_array_equal(parsed.en_to_regions, record.en_to_regions)
    np.testing.assert_array_equal(parsed.de_to_regions, record.de_to_regions)
    np.testing.assert_array_equal(parsed.de_to_en, record.de_to_en)
    from cyclecap.cycle import dump_record
    assert dump_record(parsed).encode() == text.encode()


def test_geometry_and_token_validation(tmp_path):
    record = toy_alignment_record()
    with pytest.raises(DataError):
        export_attention_heatmaps(record, ["hund"], 3, 2, tmp_path, "bad")
    with pytest.raises(DimensionError):
        export_attention_heatmaps(record, ["hund", "extra"], 2, 2, tmp_path, "bad")


# --- alignment probe --------------------------------------------------------------

def test_alignment_score_reads_planted_positions(small_corpus):
    from cyclecap.models import ImageCaptioner, ModelBundle
    from cyclecap.training import TrainConfig

    triples, en_vocab, de_vocab, alignments = small_corpus
    cfg = TrainConfig(proj_dim=8, embed_dim=8, hidden_dim=8, attn_dim=8, seed=0)
    bundle = ModelBundle(ImageCaptioner(cfg.dims(32, len(en_vocab)), 0), len(de_vocab), 0)
    score = alignment_score(bundle, triples[:4], alignments)
    assert 0.0 <= score <= 1.0
    with pytest.raises(DataError):
        alignment_score(bundle, triples[:2], {})
