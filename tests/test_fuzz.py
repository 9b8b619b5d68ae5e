"""Truncated, bit-flipped and retyped inputs: each reader either accepts the
bytes or raises a CycleCapError, never another exception. ``test_cli.py``
drives the same mutations through ``cyclecap`` itself."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecap.cycle import dump_record, parse_record, toy_alignment_record
from cyclecap.data import (FeatureGrid, ManifestEntry, Vocabulary, load_features,
                           read_manifest, save_features, write_manifest)
from cyclecap.errors import CycleCapError, NumericError
from cyclecap.models import load_bundle, save_bundle
from cyclecap.tensor import parameters

from conftest import FUZZ, bit_flips, tiny_bundle, truncations

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4)


def mutations(blob: bytes):
    return truncations(blob) | bit_flips(blob)


def accepted_or_typed_error(read, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        read(path)
    except CycleCapError:
        pass


@FUZZ
@given(data=st.data())
def test_fuzzed_feature_file(tmp_path, data):
    path = tmp_path / "img.feat"
    save_features(FeatureGrid(np.random.default_rng(0).standard_normal((3, 2))), path)
    accepted_or_typed_error(load_features, path, data.draw(mutations(path.read_bytes())))


@FUZZ
@given(data=st.data())
def test_fuzzed_checkpoint(tmp_path, data):
    path = tmp_path / "bundle.ckpt"
    save_bundle(tiny_bundle(seed=3), path)
    accepted_or_typed_error(load_bundle, path, data.draw(mutations(path.read_bytes())))


@FUZZ
@given(name=st.sampled_from(sorted(parameters(tiny_bundle()))),
       value=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_checkpoint_entry_is_numeric_error(tmp_path, name, value):
    bundle = tiny_bundle(seed=3)
    parameters(bundle)[name].data.flat[0] = value
    path = tmp_path / "bundle.ckpt"
    save_bundle(bundle, path)
    with pytest.raises(NumericError, match=name):
        load_bundle(path)


def manifest_bytes(tmp_path) -> bytes:
    path = tmp_path / "manifest.jsonl"
    write_manifest([ManifestEntry(f"img{i}", f"img{i}.feat", ("a", "dog"),
                                  ("ein", "hund")) for i in range(3)], path)
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest(tmp_path, data):
    accepted_or_typed_error(read_manifest, tmp_path / "manifest.jsonl",
                            data.draw(mutations(manifest_bytes(tmp_path))))


@FUZZ
@given(row=st.integers(0, 2),
       field=st.sampled_from(["image_id", "features", "en", "de"]),
       value=JSON_VALUES)
def test_retyped_manifest_field(tmp_path, row, field, value):
    rows = [json.loads(line) for line in manifest_bytes(tmp_path).splitlines()]
    rows[row][field] = value
    body = "".join(json.dumps(r) + "\n" for r in rows).encode()
    accepted_or_typed_error(read_manifest, tmp_path / "manifest.jsonl", body)


@FUZZ
@given(data=st.data())
def test_fuzzed_vocabulary_file(tmp_path, data):
    path = tmp_path / "vocab.txt"
    Vocabulary(["ein", "hund", "läuft"]).save(path)
    accepted_or_typed_error(Vocabulary.load, path, data.draw(mutations(path.read_bytes())))


DUMP = dump_record(toy_alignment_record())


@FUZZ
@given(data=st.data())
def test_fuzzed_attention_dump(data):
    kind = data.draw(st.sampled_from(["truncate", "flip", "retype"]))
    at = data.draw(st.integers(0, len(DUMP) - 1))
    if kind == "truncate":
        text = DUMP[:at]
    elif kind == "flip":  # bits 0-6 keep the text ASCII
        text = DUMP[:at] + chr(ord(DUMP[at]) ^ (1 << data.draw(st.integers(0, 6)))) \
            + DUMP[at + 1:]
    else:
        words = DUMP.split(" ")
        words[at % len(words)] = data.draw(st.sampled_from(["x", "nan", "-1", ""]))
        text = " ".join(words)
    try:
        parse_record(text)
    except CycleCapError:
        pass
