import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap import synth
from cyclecap.data import TripleRecord, Vocabulary, read_manifest
from cyclecap.errors import ConfigError, FormatError


def test_single_object_captions_mention_exactly_one_object_word():
    images = synth.generate(synth.SynthSpec(seed=0, n_images=10, objects_per_image=1))
    for img in images:
        en_hits = [t for t in img.en_tokens if t in synth.EN_OBJECT_WORDS]
        de_hits = [t for t in img.de_tokens if t in synth.DE_OBJECT_WORDS]
        assert len(en_hits) == 1 and len(de_hits) == 1
        obj = img.objects[0]
        assert en_hits[0] == obj.en_word and de_hits[0] == obj.de_word


def test_same_seed_gives_identical_corpora():
    spec = synth.SynthSpec(seed=42, n_images=6, objects_per_image=2)
    a = synth.generate(spec)
    b = synth.generate(spec)
    for x, y in zip(a, b):
        assert x.en_tokens == y.en_tokens and x.de_tokens == y.de_tokens
        assert x.grid.values.tobytes() == y.grid.values.tobytes()
        assert x.objects == y.objects


def test_alignment_pairs_words_to_the_same_region():
    images = synth.generate(synth.SynthSpec(seed=3, n_images=8, objects_per_image=2))
    for img in images:
        for obj in img.objects:
            assert img.en_tokens[obj.en_pos] == obj.en_word
            assert img.de_tokens[obj.de_pos] == obj.de_word
            # both words of one object share one region by construction
            assert 0 <= obj.region < img.grid.regions


def test_object_count_cannot_exceed_regions():
    with pytest.raises(ConfigError):
        synth.SynthSpec(seed=0, n_images=2, regions=2, objects_per_image=3,
                        n_object_types=4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 3))
def test_generated_records_satisfy_triple_invariants(seed, n_images, objects):
    spec = synth.SynthSpec(seed=seed, n_images=n_images, regions=8, feature_dim=5,
                           n_object_types=5, objects_per_image=min(objects, 5))
    images = synth.generate(spec)
    en_vocab = Vocabulary.build([im.en_tokens for im in images], min_freq=1)
    de_vocab = Vocabulary.build([im.de_tokens for im in images], min_freq=1)
    for im in images:
        record = TripleRecord(im.image_id, im.grid,
                              tuple(en_vocab.encode(im.en_tokens)),
                              tuple(de_vocab.encode(im.de_tokens)))
        assert record.en_steps >= 2
        assert np.isfinite(im.grid.values).all()


def test_write_corpus_roundtrip(tmp_path):
    images = synth.generate(synth.SynthSpec(seed=1, n_images=4))
    synth.write_corpus(images, tmp_path)
    entries = read_manifest(tmp_path / "manifest.jsonl")
    assert [e.image_id for e in entries] == [im.image_id for im in images]
    assert entries[0].en_tokens == images[0].en_tokens
    alignments = synth.read_alignments(tmp_path / "alignments.jsonl")
    assert alignments[images[2].image_id] == list(images[2].objects)
    assert (tmp_path / "features" / f"{images[0].image_id}.feat").is_file()


def test_a_bad_alignments_line_is_a_format_error_naming_it(tmp_path):
    images = synth.generate(synth.SynthSpec(seed=1, n_images=2))
    synth.write_corpus(images, tmp_path)
    path = tmp_path / "alignments.jsonl"
    path.write_text(path.read_text(encoding="utf-8") + "[1]\n", encoding="utf-8")
    with pytest.raises(FormatError, match="JSON object") as exc:
        synth.read_alignments(path)
    assert f"{path}:3:" in str(exc.value)
