import hashlib
import struct

import numpy as np
import pytest

from cyclecap.checks import check_gradients
from cyclecap.data import FeatureGrid, TripleRecord
from cyclecap.errors import DataError, FormatError, NumericError
from cyclecap.models import (CHECKPOINT_MAGIC, ImageCaptioner, ModelBundle,
                             ModelDims, init_state,
                             load_bundle, load_captioner, load_checkpoint,
                             save_bundle, save_captioner, teacher_forced_records,
                             unroll)
from cyclecap.tensor import Parameter, Tape, Tensor, sum_all
from cyclecap.training import nll_loss

from _reference import (ref_captioner_sequence, ref_encode_caption,
                        ref_german_sequence)
from conftest import random_ids, tiny_bundle, tiny_captioner


def rand_grid(rng, regions=3, dim=3):
    return FeatureGrid(rng.standard_normal((regions, dim)))


# --- soft-attention decoder ------------------------------------------------

def test_english_step_log_probs_normalize():
    rng = np.random.default_rng(0)
    model = tiny_captioner(seed=1)
    keys, state = model.decoder.start([model.project(rand_grid(rng).values[None])])
    logp, _, (weights,) = model.decoder.step(keys, state, np.array([1]))
    assert abs(np.log(np.exp(logp.data).sum())) < 1e-12
    assert abs(weights.data.sum() - 1.0) < 1e-12


def test_identical_regions_give_uniform_attention():
    model = tiny_captioner(seed=2)
    grid = FeatureGrid(np.tile([0.3, -0.2, 0.9], (5, 1)))
    keys, state = model.decoder.start([model.project(grid.values[None])])
    _, _, (weights,) = model.decoder.step(keys, state, np.array([1]))
    np.testing.assert_allclose(weights.data[0], np.full(5, 0.2), atol=1e-12)


def test_teacher_forced_loglik_matches_reference():
    rng = np.random.default_rng(3)
    model = tiny_captioner(seed=4)
    grid = rand_grid(rng)
    ids = random_ids(rng, 8, 4)
    batch = np.array([ids])
    logps, (rows,) = unroll(model.decoder,
                            model.decoder.start([model.project(grid.values[None])]), batch)
    loss, ntok = nll_loss(logps, batch[:, 1:], np.ones((1, len(ids) - 1), dtype=bool))
    ref_total, ref_rows = ref_captioner_sequence(model, grid.values, ids)
    assert ntok == len(ids) - 1
    assert loss.item() == pytest.approx(-ref_total, rel=1e-12)
    np.testing.assert_allclose(rows.data[0], ref_rows, atol=1e-13)


# --- caption encoder --------------------------------------------------------

def test_single_token_encoding_has_one_row():
    bundle = tiny_bundle()
    states = bundle.cap_encoder.encode(np.array([[4]]))
    assert states.shape == (1, 1, 8)


def test_bidirectional_symmetry_with_shared_directions():
    bundle = tiny_bundle(seed=5)
    enc = bundle.cap_encoder
    for gate in ("r", "z", "n"):
        cols = enc.fwd.gate(gate)
        for name in ("w", "u", "b"):
            fwd, bwd = getattr(enc.fwd, name), getattr(enc.bwd, name)
            bwd.data[..., cols] = fwd.data[..., cols]
    ids = [4, 5, 6, 7]
    forward = enc.encode(np.array([ids])).data[0]
    reverse = enc.encode(np.array([ids[::-1]])).data[0]
    h = enc.hidden_dim
    swapped = np.concatenate([reverse[:, h:], reverse[:, :h]], axis=1)
    np.testing.assert_allclose(swapped, forward[::-1], atol=1e-12)


def test_zero_parameters_give_zero_states():
    bundle = tiny_bundle(seed=6)
    for p in bundle.cap_encoder.named().values():
        p.data = np.zeros_like(p.data)
    states = bundle.cap_encoder.encode(np.array([[4, 5, 6]]))
    np.testing.assert_array_equal(states.data, np.zeros((1, 3, 8)))


def test_encoder_matches_reference_and_rejects_empty():
    rng = np.random.default_rng(7)
    bundle = tiny_bundle(seed=8)
    ids = [int(x) for x in rng.integers(4, 8, size=5)]
    np.testing.assert_allclose(bundle.cap_encoder.encode(np.array([ids])).data[0],
                               ref_encode_caption(bundle.cap_encoder, ids),
                               atol=1e-13)
    with pytest.raises(DataError):
        bundle.cap_encoder.encode(np.zeros((1, 0), dtype=int))


# --- dual-attention decoder --------------------------------------------------

def test_german_step_outputs_normalize_and_single_state_beta():
    rng = np.random.default_rng(9)
    bundle = tiny_bundle(seed=10)
    regions = bundle.captioner.project(rand_grid(rng).values[None])
    states = bundle.cap_encoder.encode(np.array([[4]]))  # N = 1
    keys, state = bundle.de_decoder.start([regions, states])
    logp, _, (region_w, caption_w) = bundle.de_decoder.step(keys, state, np.array([1]))
    assert abs(np.log(np.exp(logp.data).sum())) < 1e-12
    np.testing.assert_allclose(caption_w.data, [[1.0]])
    assert abs(region_w.data.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("decoder", ["soft", "dual"])
def test_one_decode_step_builds_at_most_eight_tape_ops(decoder):
    # one record per attention head, the embedding lookup, the LSTM step and
    # the three of the output layer: 6 (soft) and 7 (dual); 25 and 31 when
    # cells and heads were composed from primitive ops
    bundle = tiny_bundle(seed=13)
    regions = bundle.captioner.project(rand_grid(np.random.default_rng(13)).values[None])
    dec, rows = bundle.captioner.decoder, [regions]
    if decoder == "dual":
        dec = bundle.de_decoder
        rows.append(bundle.cap_encoder.encode(np.array([[4, 5]])))
    keys, state = dec.start(rows)
    with Tape() as tape:
        dec.step(keys, state, np.array([1]))
    assert len(tape) <= 8


def test_german_sequence_matches_reference():
    rng = np.random.default_rng(11)
    bundle = tiny_bundle(seed=12)
    grid = rand_grid(rng)
    en_ids = random_ids(rng, 8, 4)
    de_ids = random_ids(rng, 9, 3)
    start = bundle.de_decoder.start([bundle.captioner.project(grid.values[None]),
                                     bundle.cap_encoder.encode(np.array([en_ids[1:]]))])
    batch = np.array([de_ids])
    logps, (region_rows, caption_rows) = unroll(bundle.de_decoder, start, batch)
    loss, _ = nll_loss(logps, batch[:, 1:], np.ones((1, len(de_ids) - 1), dtype=bool))
    ref_total, ref_regions, ref_captions = ref_german_sequence(
        bundle, grid.values, en_ids, de_ids)
    assert loss.item() == pytest.approx(-ref_total, rel=1e-12)
    np.testing.assert_allclose(region_rows.data[0], ref_regions, atol=1e-13)
    np.testing.assert_allclose(caption_rows.data[0], ref_captions, atol=1e-13)


def test_teacher_forced_record_shapes():
    rng = np.random.default_rng(13)
    bundle = tiny_bundle(seed=14)
    grid = rand_grid(rng)
    en_ids = random_ids(rng, 8, 5)   # N = 6 targets
    de_ids = random_ids(rng, 9, 3)   # M = 4 targets
    (record,) = teacher_forced_records(bundle, [TripleRecord("img", grid, en_ids, de_ids)])
    assert record.en_to_regions.shape == (6, 3)
    assert record.de_to_regions.shape == (4, 3)
    assert record.de_to_en.shape == (4, 6)


def test_batched_teacher_forced_records_equal_single_records():
    # one padded batch mixing region counts and caption lengths gives each
    # triple its own blocks, as a batch of one does
    rng = np.random.default_rng(15)
    bundle = tiny_bundle(seed=16)
    triples = [TripleRecord(f"img{i}", FeatureGrid(rng.standard_normal((regions, 3))),
                            random_ids(rng, 8, en_len), random_ids(rng, 9, de_len))
               for i, (regions, en_len, de_len)
               in enumerate([(3, 5, 2), (1, 1, 6), (5, 3, 1), (2, 7, 4)])]
    batched = teacher_forced_records(bundle, triples)
    assert len(batched) == len(triples)
    for triple, got in zip(triples, batched):
        (want,) = teacher_forced_records(bundle, [triple])
        for name in ("en_to_regions", "de_to_regions", "de_to_en"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    assert batched[1].en_to_regions.shape == (2, 1)
    assert batched[2].de_to_en.shape == (2, 4)
    assert teacher_forced_records(bundle, []) == []


# --- init state ---------------------------------------------------------------

def test_init_state_zero_rows_gives_tanh_bias():
    rng = np.random.default_rng(15)
    w = Parameter(rng.standard_normal((3, 4)), "w")
    b = Parameter(rng.standard_normal(4), "b")
    out = init_state(Tensor(np.zeros((1, 5, 3))), None, w, b)
    np.testing.assert_allclose(out.data[0], np.tanh(b.data), atol=1e-14)


def test_init_state_permutation_invariant():
    rng = np.random.default_rng(16)
    w = Parameter(rng.standard_normal((3, 4)), "w")
    b = Parameter(rng.standard_normal(4), "b")
    rows = rng.standard_normal((1, 5, 3))
    a = init_state(Tensor(rows), None, w, b).data
    c = init_state(Tensor(rows[:, ::-1].copy()), None, w, b).data
    np.testing.assert_allclose(a, c, atol=1e-14)


def test_init_state_gradients():
    rng = np.random.default_rng(17)
    w = Parameter(rng.standard_normal((3, 4)), "w")
    b = Parameter(rng.standard_normal(4), "b")
    rows = Tensor(rng.standard_normal((1, 5, 3)))
    result = check_gradients("init", lambda: sum_all(init_state(rows, None, w, b)),
                             {"w": w, "b": b})
    assert result.max_error < 1e-3


# --- checkpoints ----------------------------------------------------------------

def test_captioner_checkpoint_roundtrip(tmp_path):
    model = tiny_captioner(seed=18)
    path = tmp_path / "part1.ckpt"
    save_captioner(model, path)
    loaded = load_captioner(path)
    for name, p in model.named_parameters().items():
        np.testing.assert_array_equal(loaded.named_parameters()[name].data, p.data)


def test_bundle_checkpoint_roundtrip_and_kind_check(tmp_path):
    bundle = tiny_bundle(seed=19)
    path = tmp_path / "bundle.ckpt"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.dims == bundle.dims
    for name, p in bundle.named_parameters().items():
        np.testing.assert_array_equal(loaded.named_parameters()[name].data, p.data)
    with pytest.raises(FormatError, match="captioner"):
        load_captioner(path)


def test_checkpoint_rejects_architecture_mismatch(tmp_path):
    small = tiny_captioner(seed=20, vocab=8)
    big = tiny_captioner(seed=20, vocab=9)
    path = tmp_path / "part1.ckpt"
    save_captioner(small, path)
    _, _, arrays = load_checkpoint(path)
    from cyclecap.models import load_into
    with pytest.raises(FormatError, match="shape"):
        load_into(big.named_parameters(), arrays)
    arrays.pop(sorted(arrays)[0])
    with pytest.raises(FormatError, match="missing"):
        load_into(small.named_parameters(), arrays)


def test_checkpoint_truncation_detected(tmp_path):
    model = tiny_captioner(seed=21)
    path = tmp_path / "part1.ckpt"
    save_captioner(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_save_is_deterministic(tmp_path):
    model = tiny_captioner(seed=22)
    save_captioner(model, tmp_path / "a.ckpt")
    save_captioner(model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_fresh_checkpoints_keep_their_bytes(tmp_path):
    """Entry names, shapes and every constructor's rng draw order are part of
    the checkpoint format: freshly built models must save to these bytes."""
    dims = ModelDims(feature_dim=32, en_vocab=20, de_vocab=22)
    save_bundle(ModelBundle(dims, 3), tmp_path / "bundle.ckpt")
    save_captioner(ImageCaptioner(dims, 3), tmp_path / "captioner.ckpt")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("bundle.ckpt", "captioner.ckpt")}
    assert digests == {
        "bundle.ckpt": "54af9a179b58dde70880eac127d982d8af1503f45d510f5ee9601175f13ada13",
        "captioner.ckpt":
            "2f5a4bc557597b1d161b582a0f7a0fd03ec3887efcfcaadd17a426fd80bc27c3"}


def rewrite_header(path, header: bytes):
    """Replace a saved checkpoint's JSON header, keeping its parameters."""
    blob = path.read_bytes()
    version, old_len = struct.unpack("<HI", blob[4:10])
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<HI", version, len(header))
                     + header + blob[10 + old_len:])


@pytest.mark.parametrize("header, message", [
    (b"{not json", "not JSON"),
    (b"\xff\xfe", "not JSON"),
    (b"[1, 2]", "'kind'"),
    (b'{"kind": "captioner"}', "'dims'"),
    (b'{"kind": "captioner", "dims": {"feature_dim": 3, "en_vocab": 8, '
     b'"colour": 1}}', "dims"),
    (b'{"kind": "captioner", "dims": {"en_vocab": 8}}', "dims"),
    (b'{"kind": "captioner", "dims": {"feature_dim": "3", "en_vocab": 8}}',
     "integers"),
])
def test_malformed_checkpoint_header_is_format_error(tmp_path, header, message):
    path = tmp_path / "part1.ckpt"
    save_captioner(tiny_captioner(seed=23), path)
    rewrite_header(path, header)
    with pytest.raises(FormatError, match=message) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def corrupt_first_entry(blob: bytes, part: str) -> bytes:
    """A saved checkpoint with its first entry's name made non-UTF-8, or its
    first float made NaN."""
    (header_len,) = struct.unpack("<I", blob[6:10])
    name_at = 10 + header_len + 4 + 2
    (name_len,) = struct.unpack("<H", blob[name_at - 2:name_at])
    if part == "name":
        return blob[:name_at] + b"\xff" + blob[name_at + 1:]
    (ndim,) = struct.unpack("<B", blob[name_at + name_len:name_at + name_len + 1])
    value_at = name_at + name_len + 1 + 4 * ndim
    return blob[:value_at] + struct.pack("<d", np.nan) + blob[value_at + 8:]


@pytest.mark.parametrize("part, error, fragments", [
    ("name", FormatError, ["not UTF-8", "offset"]),
    ("value", NumericError, ["non-finite", "'cap_encoder/bwd/b'"]),
])
def test_corrupt_checkpoint_entry_is_typed_error(tmp_path, part, error, fragments):
    path = tmp_path / "bundle.ckpt"
    save_bundle(tiny_bundle(seed=24), path)
    path.write_bytes(corrupt_first_entry(path.read_bytes(), part))
    with pytest.raises(error) as exc:
        load_checkpoint(path)
    for fragment in [str(path), *fragments]:
        assert fragment in str(exc.value)
