import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from cyclecap import synth
from cyclecap.data import TripleRecord, Vocabulary, pairs_from_triples
from cyclecap.models import ImageCaptioner, ModelBundle
from cyclecap.tensor import Tensor
from cyclecap.training import TrainConfig


def make_corpus(seed=7, n_images=16, **kwargs):
    """Synthetic corpus encoded into triples, with per-language vocabularies."""
    spec = synth.SynthSpec(seed=seed, n_images=n_images, **kwargs)
    images = synth.generate(spec)
    en_vocab = Vocabulary.build([im.en_tokens for im in images], min_freq=1)
    de_vocab = Vocabulary.build([im.de_tokens for im in images], min_freq=1)
    triples = [TripleRecord(im.image_id, im.grid,
                            tuple(en_vocab.encode(im.en_tokens)),
                            tuple(de_vocab.encode(im.de_tokens)))
               for im in images]
    alignments = {im.image_id: list(im.objects) for im in images}
    return triples, en_vocab, de_vocab, alignments


def tiny_bundle(seed=0, regions=3, feature_dim=3, en_vocab=8, de_vocab=9):
    cfg = TrainConfig(proj_dim=4, embed_dim=4, hidden_dim=4, attn_dim=4, seed=seed)
    return ModelBundle(ImageCaptioner(cfg.dims(feature_dim, en_vocab), seed), de_vocab,
                       seed)


def tiny_captioner(seed=0, feature_dim=3, vocab=8):
    cfg = TrainConfig(proj_dim=4, embed_dim=4, hidden_dim=4, attn_dim=4, seed=seed)
    return ImageCaptioner(cfg.dims(feature_dim, vocab), seed)


def random_ids(rng, vocab_size, length):
    """A BOS..EOS id sequence over the non-reserved vocabulary."""
    body = [int(x) for x in rng.integers(4, vocab_size, size=length)]
    return tuple([1] + body + [2])


def count_tensors(monkeypatch):
    """A list that gets the type of every Tensor built from here on,
    Parameters included, until ``monkeypatch`` undoes it."""
    made, init = [], Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    return made


@pytest.fixture(scope="session")
def small_corpus():
    return make_corpus(seed=7, n_images=16)


# --- fuzzing ---------------------------------------------------------------------

# deterministic examples, so a fuzz test passes or fails the same way every run
FUZZ = settings(max_examples=30, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def flip_bit(blob: bytes, offset: int, bit: int) -> bytes:
    return blob[:offset] + bytes([blob[offset] ^ (1 << bit)]) + blob[offset + 1:]


def truncations(blob: bytes, offsets=None):
    """``blob`` cut short at one of ``offsets`` (default: anywhere)."""
    return st.sampled_from(offsets or range(len(blob))).map(lambda n: blob[:n])


def bit_flips(blob: bytes, offsets=None, bits=range(8)):
    """``blob`` with one bit flipped at one of ``offsets`` (default: anywhere).
    Flipping bit 7 of an ASCII byte always leaves bytes that are not UTF-8."""
    return st.builds(lambda at, bit: flip_bit(blob, at, bit),
                     st.sampled_from(offsets or range(len(blob))),
                     st.sampled_from(bits))
