from collections import Counter
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.data import (BOS_ID, EOS_ID, MAX_CAPTION_TOKENS, PAD_ID, UNK_ID,
                           FeatureGrid, ManifestEntry, PairRecord, TripleRecord,
                           Vocabulary, encode_pairs,
                           encode_triples, load_features, read_manifest,
                           save_features, tokenize, write_manifest)
from cyclecap.errors import DataError, FormatError, NumericError

WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


def brute_force_vocab(corpus, min_freq):
    """Counting oracle: plain dict loop, then the same ordering rule."""
    counts = {}
    for caption in corpus:
        for tok in caption:
            counts[tok] = counts.get(tok, 0) + 1
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    return kept


def test_vocab_frequency_cutoff():
    corpus = [["dog"]] * 5 + [["cat"]] * 4
    vocab = Vocabulary.build(corpus, min_freq=5)
    assert "dog" in vocab
    assert "cat" not in vocab
    assert vocab.encode(["cat"]) == [BOS_ID, UNK_ID, EOS_ID]


def test_min_freq_one_keeps_everything():
    corpus = [["a", "b"], ["c"]]
    vocab = Vocabulary.build(corpus, min_freq=1)
    assert all(t in vocab for t in "abc")


def test_punctuation_only_tokens_never_enter_vocab():
    corpus = [["."] * 100, ["dog"] * 10]
    vocab = Vocabulary.build(corpus, min_freq=5)
    assert "." not in vocab
    assert "dog" in vocab


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("A Dog, runs. !!") == ["a", "dog", "runs"]
    assert tokenize("...") == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(WORDS, min_size=1, max_size=6), min_size=1, max_size=12),
       st.integers(1, 4))
def test_vocab_matches_brute_force_counting(corpus, min_freq):
    vocab = Vocabulary.build(corpus, min_freq=min_freq)
    assert vocab.id_to_token[4:] == brute_force_vocab(corpus, min_freq)


@settings(max_examples=50, deadline=None)
@given(st.lists(WORDS, min_size=1, max_size=10))
def test_encode_decode_identity_for_in_vocab_tokens(tokens):
    vocab = Vocabulary.build([tokens], min_freq=1)
    assert vocab.decode(vocab.encode(tokens)) == tokens


def test_vocab_file_roundtrip(tmp_path):
    vocab = Vocabulary.build([["dog", "cat", "dog"]], min_freq=1)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id["dog"] == 4  # most frequent token gets the first id


@pytest.mark.parametrize("body, line, message", [
    (b"dog\n\ncat\n", 2, "blank line"),
    (b"dog\ncat\nhund\xff\n", 3, "not UTF-8"),
    (b"dog\ncat\ndog\n", 3, "repeats line 1"),
    (b"dog\n<eos>\n", 2, "reserved"),
])
def test_malformed_vocab_file_is_format_error_with_line(tmp_path, body, line, message):
    path = tmp_path / "vocab.txt"
    path.write_bytes(body)
    with pytest.raises(FormatError, match=message) as exc:
        Vocabulary.load(path)
    assert f"{path}:{line}:" in str(exc.value)


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        Vocabulary.build([], min_freq=1)


def test_feature_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    grid = FeatureGrid(rng.standard_normal((4, 2)))
    path = tmp_path / "img.feat"
    save_features(grid, path)
    loaded = load_features(path)
    assert loaded.values.tobytes() == grid.values.tobytes()


def test_feature_file_zero_grid(tmp_path):
    path = tmp_path / "zero.feat"
    save_features(FeatureGrid(np.zeros((3, 2))), path)
    np.testing.assert_array_equal(load_features(path).values, np.zeros((3, 2)))


def test_feature_file_truncation_reports_offset(tmp_path):
    grid = FeatureGrid(np.zeros((4, 2)))
    path = tmp_path / "trunc.feat"
    save_features(grid, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])  # drop one float: 7 payload values remain
    with pytest.raises(FormatError, match="offset"):
        load_features(path)


def test_feature_file_bad_magic_and_nonfinite(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_features(path)
    with pytest.raises(NumericError):
        FeatureGrid(np.array([[np.nan, 1.0]]))


def test_manifest_roundtrip(tmp_path):
    entries = [ManifestEntry("img0", "features/img0.feat", ("a", "dog"),
                             ("ein", "hund"))]
    path = tmp_path / "manifest.jsonl"
    write_manifest(entries, path)
    assert read_manifest(path) == entries


@pytest.mark.parametrize("row, message", [
    ('{"image_id": "b", "features": "f", "en": 5, "de": "x"}', "'en' must be a string"),
    ('{"image_id": "b", "features": "f", "en": "x", "de": null}', "'de' must be a string"),
    ('{"image_id": "b", "features": "f", "en": "x"}', "missing field 'de'"),
    ('{"features": "f", "en": "x", "de": "y"}', "missing field 'image_id'"),
    ('{"image_id": "b", "features": null, "en": "x", "de": "y"}',
     "'features' must be a string"),
    ('{"image_id": 7, "features": "f", "en": "x", "de": "y"}',
     "'image_id' must be a string"),
    ('["b", "f", "x", "y"]', "JSON object"),
    ('{"image_id": "b",', "not JSON"),
    *((json.dumps({"image_id": bad, "features": "f", "en": "x", "de": "y"}),
       "not a plain file name")
      for bad in ("", ".", "..", "../../escaped", "a/b", "/abs", "a\\b", "a\0b")),
])
def test_malformed_manifest_row_is_format_error_with_line(tmp_path, row, message):
    path = tmp_path / "manifest.jsonl"
    good = '{"image_id": "a", "features": "f", "en": "x", "de": "y"}'
    path.write_text(f"{good}\n\n{row}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=message) as exc:
        read_manifest(path)
    assert f"{path}:3" in str(exc.value)


@pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
def test_manifest_lines_end_at_newline_only(tmp_path, brk):
    """A caption may hold a character that ``str.splitlines`` breaks at; the
    row stays one line, the character splits tokens like any whitespace,
    and a later row's ``path:line`` counts newlines only."""
    path = tmp_path / "manifest.jsonl"
    rows = [json.dumps({"image_id": image_id, "features": "f", "en": f"a dog{brk}runs",
                        "de": "ein hund"}, ensure_ascii=False) for image_id in "ab"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert [e.en_tokens for e in read_manifest(path)] == [("a", "dog", "runs")] * 2
    path.write_text("\n".join(rows) + '\n{"image_id": "c",\n', encoding="utf-8")
    with pytest.raises(FormatError, match="not JSON") as exc:
        read_manifest(path)
    assert f"{path}:3:" in str(exc.value)


def test_encode_triples_skips_bad_records(tmp_path, caplog):
    grid = FeatureGrid(np.zeros((2, 2)))
    save_features(grid, tmp_path / "ok.feat")
    entries = [
        ManifestEntry("good", "ok.feat", ("a", "dog"), ("ein", "hund")),
        ManifestEntry("empty", "ok.feat", (), ("ein", "hund")),
        ManifestEntry("long", "ok.feat", ("a",) * 60, ("ein", "hund")),
    ]
    vocab = Vocabulary.build([("a", "dog", "ein", "hund")], min_freq=1)
    with caplog.at_level("WARNING"):
        records = encode_triples(entries, vocab, vocab, tmp_path)
    assert [r.image_id for r in records] == ["good"]
    assert "empty" in caplog.text and "long" in caplog.text


def test_encode_pairs_by_field(tmp_path):
    grid = FeatureGrid(np.zeros((2, 2)))
    save_features(grid, tmp_path / "ok.feat")
    entries = [ManifestEntry("img", "ok.feat", ("a", "dog"), ("ein", "hund"))]
    vocab = Vocabulary.build([("a", "dog", "ein", "hund")], min_freq=1)
    en = encode_pairs(entries, vocab, tmp_path, "en")
    de = encode_pairs(entries, vocab, tmp_path, "de")
    assert vocab.decode(en[0].ids) == ["a", "dog"]
    assert vocab.decode(de[0].ids) == ["ein", "hund"]
    with pytest.raises(DataError):
        encode_pairs(entries, vocab, tmp_path, "fr")


def test_triple_record_invariants():
    grid = FeatureGrid(np.zeros((2, 2)))
    with pytest.raises(DataError, match="empty"):
        TripleRecord("x", grid, (BOS_ID, EOS_ID), (BOS_ID, 4, EOS_ID))
    with pytest.raises(DataError, match="BOS"):
        TripleRecord("x", grid, (4, 5, EOS_ID), (BOS_ID, 4, EOS_ID))
    record = TripleRecord("x", grid, (BOS_ID, 4, EOS_ID), (BOS_ID, 4, 5, EOS_ID))
    assert record.en_steps == 2 and record.de_steps == 3


def test_both_record_types_check_caption_length_alike():
    # a pair used to take a caption of any length, which encode_pairs skips
    grid = FeatureGrid(np.zeros((2, 2)))
    longest = (BOS_ID, *[4] * MAX_CAPTION_TOKENS, EOS_ID)
    over = (BOS_ID, *[4] * (MAX_CAPTION_TOKENS + 1), EOS_ID)
    assert PairRecord("x", grid, longest).steps == MAX_CAPTION_TOKENS + 1
    TripleRecord("x", grid, longest, longest)
    message = f"caption of 'x' exceeds {MAX_CAPTION_TOKENS} tokens"
    with pytest.raises(DataError, match=f"^{message}$"):
        PairRecord("x", grid, over)
    for en, de, lang in ((over, longest, "en"), (longest, over, "de")):
        with pytest.raises(DataError, match=f"^{lang} {message}$"):
            TripleRecord("x", grid, en, de)
    with pytest.raises(DataError, match="^caption of 'x' must be BOS..EOS$"):
        PairRecord("x", grid, (4, 5, EOS_ID))


def test_counter_agreement_sanity():
    # the brute-force oracle and collections.Counter agree on a simple corpus
    corpus = [["a", "b", "a"], ["b", "c"]]
    counts = Counter(t for cap in corpus for t in cap)
    oracle = brute_force_vocab(corpus, 1)
    assert sorted(oracle) == sorted(counts)
