"""The benchmark's span tracer (``bench/spans.py``) patches cyclecap names
where their callers look them up. These tests keep every site it names
resolvable, and its install / uninstall a round trip, as the package
changes; ``bench/`` holds the tracer's own tests, outside the default test
paths."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from cyclecap.data import BOS_ID, FeatureGrid, PairRecord, TripleRecord, make_batch
from cyclecap.tensor import Tape
from cyclecap.training import _captioner_loss, _stage2_loss

from conftest import random_ids, tiny_bundle

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    if "bench_spans" not in sys.modules:  # dataclasses look their module up
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        sys.modules["bench_spans"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["bench_spans"])
    return sys.modules["bench_spans"]


def patch_sites(spans):
    """(site name, owner, attribute) of every PATCH_SITES entry."""
    out = []
    for module_name, class_name, attr, _ in spans.PATCH_SITES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        out.append((spans.site_name(module_name, class_name, attr), owner, attr))
    return out


def test_every_patch_site_resolves_in_its_owner():
    for site, owner, attr in patch_sites(load_spans()):
        assert attr in owner.__dict__, site


def test_tracer_install_uninstall_round_trips():
    spans = load_spans()
    sites = patch_sites(spans)
    originals = [owner.__dict__[attr] for _, owner, attr in sites]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (site, owner, attr), original in zip(sites, originals):
            assert owner.__dict__[attr] is not original, site
        # each decoder's steps reach its own patched entry, and the encoder
        # its GRU
        bundle = tiny_bundle(seed=1)
        regions = bundle.captioner.project(np.ones((1, 3, 3)))
        captions = bundle.cap_encoder.encode(np.array([[4, 2]]))
        for decoder, rows in ((bundle.captioner.decoder, [regions]),
                              (bundle.de_decoder, [regions, captions])):
            keys, state = decoder.start(rows)
            decoder.step(keys, state, np.array([BOS_ID]))
        decode_calls = tracer.calls_by_site.copy()
        # the taped losses reach the loss sites, so the per-layer loss
        # metrics cannot silently read 0
        rng = np.random.default_rng(2)
        triple = TripleRecord("im", FeatureGrid(rng.standard_normal((3, 3))),
                              random_ids(rng, 8, 3), random_ids(rng, 9, 2))
        with Tape():
            _stage2_loss(bundle, make_batch([triple]), 1.0)
            _captioner_loss(bundle.captioner, make_batch(
                [PairRecord(triple.image_id, triple.features, triple.en_ids)]))
    finally:
        tracer.uninstall()
    for (site, owner, attr), original in zip(sites, originals):
        assert owner.__dict__[attr] is original, site
    assert decode_calls["cyclecap.models.SoftAttentionDecoder.step"] == 1
    assert decode_calls["cyclecap.models.DualAttentionDecoder.step"] == 1
    # one encode reaches the GRU once, both directions in one record
    assert decode_calls["cyclecap.models.CaptionEncoder.encode"] == 1
    assert decode_calls["cyclecap.models.gru_step"] == 1
    # the two steps reach every head (one soft, two dual), the LSTM and the
    # output layer through the names the tracer patches
    assert decode_calls["cyclecap.models.attend"] == 3
    assert decode_calls["cyclecap.models.lstm_step"] == 2
    assert decode_calls["cyclecap.models.log_softmax"] == 2
    assert tracer.calls_by_site["cyclecap.training.nll_loss"] == 2
    assert tracer.calls_by_site["cyclecap.training.cycle_loss_graph"] == 1
