import hashlib
import struct
from functools import reduce

import numpy as np
import pytest

from cyclecap.checks import check_gradients
from cyclecap.data import PAD_ID, FeatureGrid, PairRecord, TripleRecord, make_batch
from cyclecap.errors import DataError, FormatError, NumericError, StateError
from cyclecap.models import (CHECKPOINT_MAGIC, ImageCaptioner, ModelBundle,
                             ModelDims, init_state,
                             load_bundle, load_captioner, load_checkpoint,
                             save_bundle, save_captioner, teacher_forced_records,
                             unroll)
from cyclecap.tensor import Parameter, Tape, Tensor, add, mul, sum_all
from cyclecap.training import _captioner_loss, nll_loss

from _reference import (ref_captioner_sequence, ref_encode_caption,
                        ref_german_sequence, stepped_unroll)
from conftest import random_ids, tiny_bundle, tiny_captioner


TOL = 1e-12


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
    states, (rows,) = unroll(model.decoder,
                             model.decoder.start([model.project(grid.values[None])]), batch)
    loss, ntok = nll_loss(model.decoder.emit(states), batch[:, 1:],
                          np.ones((1, len(ids) - 1), dtype=bool))
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
def test_decode_step_refuses_an_active_tape(decoder):
    # decoding never runs backward; teacher forcing trains through unroll
    bundle = tiny_bundle(seed=13)
    regions = bundle.captioner.project(rand_grid(np.random.default_rng(13)).values[None])
    dec, rows = bundle.captioner.decoder, [regions]
    if decoder == "dual":
        dec = bundle.de_decoder
        rows.append(bundle.cap_encoder.encode(np.array([[4, 5]])))
    keys, state = dec.start(rows)
    with Tape():
        with pytest.raises(StateError, match="decode"):
            dec.step(keys, state, np.array([1]))


def test_german_sequence_matches_reference():
    rng = np.random.default_rng(11)
    bundle = tiny_bundle(seed=12)
    grid = rand_grid(rng)
    en_ids = random_ids(rng, 8, 4)
    de_ids = random_ids(rng, 9, 3)
    start = bundle.de_decoder.start([bundle.captioner.project(grid.values[None]),
                                     bundle.cap_encoder.encode(np.array([en_ids[1:]]))])
    batch = np.array([de_ids])
    states, (region_rows, caption_rows) = unroll(bundle.de_decoder, start, batch)
    loss, _ = nll_loss(bundle.de_decoder.emit(states), batch[:, 1:],
                       np.ones((1, len(de_ids) - 1), dtype=bool))
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


# --- teacher forcing: recur per step, emit once ------------------------------

def split_triples(batch_size):
    """``batch_size`` triples; at 3 the second has fewer regions and the
    third shorter captions, so the batch pads a region row and a caption."""
    rng = np.random.default_rng(23)
    shapes = [(4, 5, 4), (2, 5, 4), (4, 2, 1)][:batch_size]
    return [TripleRecord(f"im{i}", rand_grid(rng, regions),
                         random_ids(rng, 8, en_len), random_ids(rng, 9, de_len))
            for i, (regions, en_len, de_len) in enumerate(shapes)]


def decoder_setup(bundle, batch, which):
    """(decoder, start, caption ids) of one decoder over a padded batch."""
    regions = bundle.captioner.project(batch.features)
    if which == "soft":
        dec = bundle.captioner.decoder
        return dec, dec.start([regions], [batch.region_mask]), batch.en_ids
    cap_mask = batch.en_mask[:, 1:]
    states = bundle.cap_encoder.encode(batch.en_ids[:, 1:], cap_mask)
    dec = bundle.de_decoder
    return (dec, dec.start([regions, states], [batch.region_mask, cap_mask]),
            batch.de_ids)


@pytest.mark.parametrize("which", ["soft", "dual"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_unroll_then_emit_equals_stepping(which, batch_size):
    bundle = tiny_bundle(seed=24)
    batch = make_batch(split_triples(batch_size))
    if batch_size == 3:
        assert not batch.region_mask.all() and batch.en_ids[2, -1] == PAD_ID
    dec, start, ids = decoder_setup(bundle, batch, which)
    states, weights = unroll(dec, start, ids)
    log_probs = dec.emit(states)
    assert log_probs.shape == (ids.shape[1] - 1, batch_size, dec.vocab_size)
    keys, state = start
    for t in range(ids.shape[1] - 1):
        logp, state, step_weights = dec.step(keys, state, ids[:, t])
        np.testing.assert_allclose(log_probs.data[t], logp.data, rtol=0, atol=1e-12)
        for head, row in zip(weights, step_weights, strict=True):
            np.testing.assert_allclose(head.data[:, t], row.data, rtol=0, atol=1e-12)


def test_stage_one_dropout_is_one_mask_per_step():
    # the reference steps the decoder and draws one (B, hidden) mask per
    # step, in step order, from the same seed as the loss's one draw
    bundle = tiny_bundle(seed=25)
    cap = bundle.captioner
    batch = make_batch([PairRecord(t.image_id, t.features, t.en_ids)
                        for t in split_triples(3)])
    loss = _captioner_loss(cap, batch, 0.5, np.random.default_rng(5))[0].item()
    dec, rng = cap.decoder, np.random.default_rng(5)
    keys, state = dec.start([cap.project(batch.features)], [batch.region_mask])
    expected = 0.0
    for t in range(batch.en_ids.shape[1] - 1):
        _, state, _ = dec.step(keys, state, batch.en_ids[:, t])
        h = state[0].data
        logits = h * ((rng.random(h.shape) >= 0.5) / 0.5) @ dec.w_out.data + dec.b_out.data
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        for b in np.flatnonzero(batch.en_mask[:, t + 1]):
            expected -= logp[b, batch.en_ids[b, t + 1]]
    assert loss == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("which", ["soft", "dual"])
def test_unroll_records_do_not_depend_on_caption_length(which):
    # the lookup and the whole unroll, heads and LSTM over every step, are
    # one record each
    bundle = tiny_bundle(seed=26)
    batch = make_batch(split_triples(3))
    dec, start, _ = decoder_setup(bundle, batch, which)
    counts = set()
    for steps in (3, 7):
        ids = np.random.default_rng(steps).integers(4, 8, size=(3, steps + 1))
        with Tape() as tape:
            unroll(dec, start, ids)
        counts.add(len(tape))
    assert counts == {2}


def taped_unroll(bundle, batch, which, run):
    """Outputs, parameter gradients and start-tensor gradients of one taped
    ``run(decoder, start, ids) -> outputs``, read through fixed probes."""
    params = bundle.named_parameters()
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        dec, start, ids = decoder_setup(bundle, batch, which)
        outputs = run(dec, start, ids)
        probes = np.random.default_rng(99)
        terms = [sum_all(mul(o, Tensor(probes.standard_normal(o.shape)))) for o in outputs]
        tape.backward(reduce(add, terms))
    keys, state = start
    inputs = [*state, *(t for k in keys for t in (k.projected, k.rows, k.w_query_t))]
    return ([o.data for o in outputs], {k: p.grad.copy() for k, p in params.items()},
            [t.grad for t in inputs])


@pytest.mark.parametrize("states", [True, False], ids=["states", "weights-only"])
@pytest.mark.parametrize("which", ["soft", "dual"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_unroll_matches_the_per_step_graph(which, batch_size, states):
    # the one-record unroll against the per-step records it replaced: values
    # and the gradient of every parameter and of every input it reads
    bundle = tiny_bundle(seed=27)
    batch = make_batch(split_triples(batch_size))

    def one_record(dec, start, ids):
        hidden, weights = unroll(dec, start, ids, states=states)
        return ([hidden] if states else []) + weights

    def per_step(dec, start, ids):
        hidden, weights = stepped_unroll(dec, start, ids)
        return ([hidden] if states else []) + weights

    got, want = taped_unroll(bundle, batch, which, one_record), \
        taped_unroll(bundle, batch, which, per_step)
    for a, b in zip(got[0], want[0], strict=True):
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)
    for name in want[1]:
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=TOL, atol=TOL,
                                   err_msg=name)
    for a, b in zip(got[2], want[2], strict=True):
        assert np.abs(b).sum() > 0
        np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


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
    save_bundle(ModelBundle(ImageCaptioner(dims, 3), 22, 3), tmp_path / "bundle.ckpt")
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
