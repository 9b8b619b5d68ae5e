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

from cyclecap.data import BOS_ID

from conftest import tiny_bundle

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
        # each decoder's steps reach its own patched entry
        bundle = tiny_bundle(seed=1)
        regions = bundle.captioner.project(np.ones((1, 3, 3)))
        captions = bundle.cap_encoder.encode(np.array([[4, 2]]))
        for decoder, rows in ((bundle.captioner.decoder, [regions]),
                              (bundle.de_decoder, [regions, captions])):
            keys, state = decoder.start(rows)
            decoder.step(keys, state, np.array([BOS_ID]))
    finally:
        tracer.uninstall()
    for (site, owner, attr), original in zip(sites, originals):
        assert owner.__dict__[attr] is original, site
    assert tracer.calls_by_site["cyclecap.models.SoftAttentionDecoder.step"] == 1
    assert tracer.calls_by_site["cyclecap.models.DualAttentionDecoder.step"] == 1
