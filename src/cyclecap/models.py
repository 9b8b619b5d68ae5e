"""The four networks and their checkpoint format.

* ``ImageProjection`` maps raw region features into the model space (the
  stand-in for a CNN encoder, whose features arrive via feature files), as
  one ``tensor.projection`` record from the feature array.
* ``AttentionDecoder`` is the one LSTM decoder, run over a tuple of
  attention heads. ``SoftAttentionDecoder`` (one head, over image regions)
  and ``DualAttentionDecoder`` (a second head, over encoded caption states)
  only name their heads and initial-state projections, the checkpoint's
  entry names. Each rebinds ``step = AttentionDecoder.step`` because the
  benchmark tracer (``bench/spans.py``) patches each class's own ``step``.
* ``CaptionEncoder`` is a bidirectional GRU over caption tokens: its
  lookup, both directions and their concatenation are one ``gru_step``
  call, one ``tensor.encoder_unroll`` record over the whole caption; the
  benchmark tracer patches ``models.gru_step``.

A decoder reads one row tensor and one mask per head. ``keys(rows,
masks)`` checks them and pairs each with its head's scorer, one
``tensor.HeadKeys`` per head. Training teacher-forces: ``unroll`` hands
those keys, the embedding table and the initial-state projections to one
``tensor.decoder_unroll`` record over a whole caption, which prepares the
keys, pools the initial state and looks up the previous words inside it.
``stage2_forward`` is the one teacher-forced pass of the German stage; a
frozen part 1 enters it as the arrays ``frozen_part1`` computed once per
fit, so its projection and English unroll are not rerun at each step.
``teacher_forced_records`` runs it, attention only, over a batch of gold
triples. Decoding goes step by step and never runs backward, so it runs
on arrays and builds no Tensor: ``start(rows, masks)`` prepares the keys
once and pools the initial LSTM state, with the array functions the unroll
runs (``tensor.prepare``, ``tensor.pool``, ``tensor.initial_state``), and
``step(keys, state, y_prev)`` looks up the previous words, runs the heads
(``attend``) and the LSTM (``lstm_step``) and ``emit``s log-probs. The
training loss reads the output layer inside its own record
(``training.nll_loss``); both run ``tensor.log_softmax``.

Everything runs on a batch axis. Regions are (B, L, proj_dim), caption
states (B, N, 2*hidden), LSTM states (B, hidden), and a step takes the (B,)
previous ids of B records at once; a beam search over one image steps its
live hypotheses as the B rows. Records of a training batch differ in
region count and caption length, so a ``data.Batch`` pads them and carries
(B, L) region and (B, T) caption masks. The masks travel with the keys:
padded rows get attention weight exactly 0, the initial state averages
real regions only, and the encoder runs each direction over a record's
real tokens only. Every mask is a boolean array; ``keys`` and ``encode``
are the two places where an omitted mask becomes an all-true one, for
callers with unpadded rows. Teacher forcing computes no step past a
record's EOS: its states and attention weights there are exactly 0, and
the losses that read them mask them.

``ImageCaptioner`` bundles projection + soft-attention decoder (the
pretraining artifact); ``ModelBundle`` adds the caption encoder and the
dual-attention decoder for the full two-stage pipeline. A checkpoint holds
every Parameter its model holds (``tensor.parameters``), each named by the
prefixes the constructors pass down, such as ``captioner/decoder/lstm/w``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import init
from .attention import AttentionLayer, attend
from .cells import GRUParams, LSTMParams, gru_step, lstm_step
from .cycle import AttentionRecord
from .data import EOS_ID, Batch, TripleRecord, make_batch
from .errors import DataError, DimensionError, FormatError, NumericError
from .tensor import (Head, HeadKeys, Parameter, Tensor, decoder_unroll, finite,
                     initial_state, log_softmax, parameters, pool, prepare,
                     projection)


@dataclass(frozen=True)
class ModelDims:
    """Architecture sizes, with desk-scale defaults."""

    feature_dim: int
    en_vocab: int
    de_vocab: int = 0
    proj_dim: int = 64
    embed_dim: int = 64
    hidden_dim: int = 64
    attn_dim: int = 64


class ImageProjection:
    """Per-region affine map with tanh from feature space into model space."""

    def __init__(self, rng: np.random.Generator, feature_dim: int, proj_dim: int,
                 prefix: str):
        self.feature_dim = feature_dim
        self.w = init.weight(rng, (feature_dim, proj_dim), f"{prefix}/w")
        self.b = init.bias((proj_dim,), f"{prefix}/b")

    def project(self, features: np.ndarray) -> Tensor:
        """(B, L, feature_dim) region features -> (B, L, proj_dim)."""
        if features.ndim != 3 or features.shape[2] != self.feature_dim:
            raise DimensionError(
                f"image projection expects (B, L, {self.feature_dim}) features, "
                f"got {features.shape}")
        return projection(features, self.w, self.b)


Keys = tuple[Head, ...]         # one entry per attention head
State = tuple[np.ndarray, np.ndarray]   # LSTM (hidden, memory), each (B, hidden)


class AttentionDecoder:
    """LSTM decoder over a tuple of attention heads. Per step each head
    attends with the previous hidden state as query, the LSTM reads [one
    context per head; previous word embedding], and the new hidden state is
    projected to vocabulary log-probabilities. Head 0 attends over the
    (proj_dim) regions, any later head over the (2*hidden) caption states.
    """

    HEADS: tuple[str, ...]
    INIT: tuple[str, str]

    def __init__(self, rng: np.random.Generator, vocab_size: int, dims: ModelDims,
                 prefix: str):
        self.embedding = init.weight(rng, (vocab_size, dims.embed_dim),
                                     f"{prefix}/embedding")
        key_dims = [dims.proj_dim] + [2 * dims.hidden_dim] * (len(self.HEADS) - 1)
        self.heads = tuple(
            AttentionLayer(rng, key_dim=k, query_dim=dims.hidden_dim,
                           attn_dim=dims.attn_dim, prefix=f"{prefix}/{name}")
            for name, k in zip(self.HEADS, key_dims))
        self.lstm = LSTMParams(rng, sum(key_dims) + dims.embed_dim, dims.hidden_dim,
                               f"{prefix}/lstm")
        self.w_out = init.weight(rng, (dims.hidden_dim, vocab_size), f"{prefix}/w_out")
        self.b_out = init.bias((vocab_size,), f"{prefix}/b_out")
        self.initial = tuple(
            (init.weight(rng, (dims.proj_dim, dims.hidden_dim), f"{prefix}/w_{name}"),
             init.bias((dims.hidden_dim,), f"{prefix}/b_{name}"))
            for name in self.INIT)

    def keys(self, rows: Sequence[Tensor],
             masks: Sequence[np.ndarray] | None = None) -> tuple[HeadKeys, ...]:
        """One checked ``HeadKeys`` per head, of one (B, K, key_dim) row
        tensor per head with their (B, K) masks of real rows (omitted: all
        real)."""
        if masks is None:
            masks = [np.ones(r.shape[:2], dtype=bool) for r in rows]
        return tuple(head.keys(r, m) for head, r, m
                     in zip(self.heads, rows, masks, strict=True))

    def start(self, rows: Sequence[Tensor],
              masks: Sequence[np.ndarray] | None = None) -> tuple[Keys, State]:
        """(one prepared key set per head, the initial (h, c) arrays) for
        decoding over ``keys(rows, masks)``. The state comes from head 0's
        rows, the regions."""
        keys = self.keys(rows, masks)
        state = finite("start", *initial_state(pool(keys[0].rows.data, keys[0].mask),
                                               self.initial))
        return tuple(map(prepare, keys)), state

    def emit(self, h: np.ndarray) -> np.ndarray:
        """(..., vocab) log-probs of (..., hidden) states, for decoding; the
        training loss runs the output layer inside its own record."""
        return finite("emit", log_softmax(np.matmul(h, self.w_out.data)
                                          + self.b_out.data))[0]

    def step(self, keys: Keys, state: State, y_prev: np.ndarray):
        """One decode step for B rows from their (B,) previous ids, over keys
        of B records or of one that all rows read: each head attends with h
        as query, then the LSTM reads [one context per head; the previous
        word embedding]. Returns ((B, vocab) log_probs, (h, c), one (B, K)
        weight row per head), all arrays."""
        h, c = state
        weights, contexts = zip(*(attend(head, k, h) for head, k in zip(self.heads, keys)))
        state = lstm_step(self.lstm, [*contexts, self.embedding.data[y_prev]], h, c)
        return self.emit(state[0]), state, weights


class SoftAttentionDecoder(AttentionDecoder):
    """One head over image regions: the English captioner, or with a German
    vocabulary the single-stage baseline."""

    HEADS = ("attn",)
    INIT = ("h0", "c0")
    step = AttentionDecoder.step  # bench/spans.py patches each class's own step


class DualAttentionDecoder(AttentionDecoder):
    """The German decoder: heads over image regions and English caption states."""

    HEADS = ("attn_regions", "attn_caption")
    INIT = ("s0", "m0")
    step = AttentionDecoder.step  # bench/spans.py patches each class's own step


class CaptionEncoder:
    """Bidirectional GRU over caption tokens; state row j is [forward_j; backward_j]."""

    def __init__(self, rng: np.random.Generator, vocab_size: int, dims: ModelDims,
                 prefix: str):
        self.hidden_dim = dims.hidden_dim
        self.embedding = init.weight(rng, (vocab_size, dims.embed_dim),
                                     f"{prefix}/embedding")
        self.fwd = GRUParams(rng, dims.embed_dim, dims.hidden_dim, f"{prefix}/fwd")
        self.bwd = GRUParams(rng, dims.embed_dim, dims.hidden_dim, f"{prefix}/bwd")

    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Encode (B, N) token ids, with their (B, N) mask of real tokens
        (omitted: all real), into (B, N, 2*hidden) states, as one
        ``gru_step`` record: the lookup and both directions over all N
        positions. Real tokens come first in each row; each direction runs
        over a record's real tokens only, so the backward one starts at the
        record's own last token. States at padded positions are exactly 0."""
        ids = np.asarray(token_ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise DataError(f"caption encoder: need a non-empty (B, N) token "
                            f"matrix, got shape {ids.shape}")
        if mask is None:
            mask = np.ones(ids.shape, dtype=bool)
        return gru_step(self.embedding, ids, self.fwd, self.bwd, mask)


class ImageCaptioner:
    """Stage-one model: image projection plus soft-attention decoder."""

    kind = "captioner"  # checkpoint header kind

    def __init__(self, dims: ModelDims, seed: int):
        self.dims = dims
        rng = np.random.default_rng(seed)
        self.image_proj = ImageProjection(rng, dims.feature_dim, dims.proj_dim,
                                          "captioner/proj")
        self.decoder = SoftAttentionDecoder(rng, dims.en_vocab, dims,
                                            "captioner/decoder")

    def project(self, features: np.ndarray) -> Tensor:
        return self.image_proj.project(features)


class ModelBundle:
    """Full two-stage pipeline: captioner, caption encoder, dual decoder."""

    kind = "bundle"

    def __init__(self, captioner: ImageCaptioner, de_vocab: int, seed: int):
        if de_vocab < 5:
            raise DataError("bundle needs a German vocabulary (>= 4 reserved ids + 1)")
        self.captioner = captioner
        self.dims = dims = replace(captioner.dims, de_vocab=de_vocab)
        rng = np.random.default_rng(seed)
        self.cap_encoder = CaptionEncoder(rng, dims.en_vocab, dims, "cap_encoder")
        self.de_decoder = DualAttentionDecoder(rng, de_vocab, dims, "de_decoder")


# ---------------------------------------------------------------------------
# Teacher-forced unrolling
# ---------------------------------------------------------------------------

def unroll(decoder: AttentionDecoder, rows: Sequence[Tensor],
           masks: Sequence[np.ndarray] | None, ids: np.ndarray, *,
           states: bool = True) -> tuple[Tensor | None, list[Tensor]]:
    """Teacher-force a decoder over a batch of captions, attending over one
    (B, K, key_dim) row tensor per head with their (B, K) masks (None: all
    real), as one ``decoder_unroll`` record: keys, initial state and lookups
    included.

    ``ids`` is the (B, T + 1) matrix of BOS..EOS rows, PAD-padded; step t
    conditions on ids[:, t] and its state predicts ids[:, t + 1]. Returns
    the (T, B, hidden) states, for the loss's output layer, and per head its
    (B, T, K) weights. With ``states=False`` only the weights are made (for
    attention-only passes) and the states come back as None. A record's
    steps end at its first EOS target, not at PAD: no step past it is
    computed and its outputs there are exactly 0, so ids written over the
    padding change nothing.
    """
    real = ~np.logical_or.accumulate(ids[:, :-1] == EOS_ID, axis=1)   # EOS not yet read
    outs = decoder_unroll(decoder.embedding, ids[:, :-1], decoder.initial, decoder.lstm.w,
                          decoder.lstm.b, decoder.keys(rows, masks), real, states=states)
    return (outs[0], list(outs[1:])) if states else (None, list(outs))


def english_attention(captioner: ImageCaptioner, regions: Tensor, batch: Batch) -> Tensor:
    """The English decoder's (B, N, L) en_to_regions weights over a batch's
    projected ``regions``: its recurrence teacher-forced over ``en_ids``,
    for attention only."""
    _, (en_to_regions,) = unroll(captioner.decoder, [regions], [batch.region_mask],
                                 batch.en_ids, states=False)
    return en_to_regions


def frozen_part1(captioner: ImageCaptioner, batch: Batch, *, english: bool
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Part 1's outputs for a stage-two batch as arrays: the projected
    regions and, with ``english``, the en_to_regions weights, else None.
    Computed outside a tape, they are the constants a frozen stage-two step
    reads (``stage2_forward``'s ``part1``), the bits the per-step calls
    would give."""
    regions = captioner.project(batch.features)
    return regions.data, (english_attention(captioner, regions, batch).data
                          if english else None)


def stage2_forward(bundle: ModelBundle, batch: Batch, *, english: bool = True,
                   part1: tuple[np.ndarray, np.ndarray | None] | None = None,
                   states: bool = True
                   ) -> tuple[Tensor | None, tuple[Tensor, Tensor, Tensor] | None]:
    """Teacher-forced stage-two pass over a batch of triples.

    The caption encoder reads the English targets (content plus EOS, BOS
    dropped), so its state count matches the English attention rows. The
    German decoder is unrolled over ``de_ids``; with ``english`` the English
    decoder's recurrence is then unrolled over ``en_ids``, for attention only.
    Returns the German decoder's (T, B, hidden) states, for the loss's output
    layer (None with ``states=False``), and, with ``english``, the (B, M, L)
    de_to_regions, (B, M, N) de_to_en and (B, N, L) en_to_regions attention
    tensors, else None.

    ``part1`` is a frozen part 1's arrays for this batch (``frozen_part1``,
    at the same ``english``): the projected regions and en_to_regions then
    enter the graph as constants, so part 1 gets no gradient and is not
    computed again. None computes part 1 on the tape.
    """
    captioner = bundle.captioner
    regions = captioner.project(batch.features) if part1 is None else Tensor(part1[0])
    cap_mask = batch.en_mask[:, 1:]
    cap_states = bundle.cap_encoder.encode(batch.en_ids[:, 1:], cap_mask)
    de_states, (de_to_regions, de_to_en) = unroll(
        bundle.de_decoder, [regions, cap_states], [batch.region_mask, cap_mask],
        batch.de_ids, states=states)
    if not english:
        return de_states, None
    en_to_regions = english_attention(captioner, regions, batch) if part1 is None \
        else Tensor(part1[1])
    return de_states, (de_to_regions, de_to_en, en_to_regions)


def teacher_forced_records(bundle: ModelBundle, triples: Sequence[TripleRecord]
                           ) -> list[AttentionRecord]:
    """Attention records for triples' ground-truth captions, evaluation mode
    (no dropout, no tape): one attention-only ``stage2_forward`` over one
    padded batch of them, each record sliced to its own (M, L), (M, N) and
    (N, L) blocks."""
    if not triples:
        return []
    _, attention = stage2_forward(bundle, make_batch(triples), states=False)
    de_to_regions, de_to_en, en_to_regions = (m.data for m in attention)
    records = []
    for i, triple in enumerate(triples):
        m, n, regions = triple.de_steps, triple.en_steps, triple.features.regions
        records.append(AttentionRecord(en_to_regions=en_to_regions[i, :n, :regions],
                                       de_to_regions=de_to_regions[i, :m, :regions],
                                       de_to_en=de_to_en[i, :m, :n]))
    return records


# ---------------------------------------------------------------------------
# Checkpoints: versioned container of (name, shape, float64 payload) entries
# with a JSON header describing the architecture.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"CYCC"
CHECKPOINT_VERSION = 2  # 2: fused gate weights; 1 held per-gate matrices


def save_checkpoint(path: Path | str, kind: str, dims: ModelDims,
                    params: Mapping[str, Parameter]) -> None:
    header = json.dumps({"kind": kind, "dims": asdict(dims)}, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name].data, dtype="<f8")
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _parse_header(path: Path | str, blob: bytes) -> tuple[str, ModelDims]:
    """The checkpoint kind and dims; any other header is a FormatError."""
    try:
        header = json.loads(blob)
    except ValueError as exc:  # also covers bytes that are not UTF-8
        raise FormatError(f"{path}: checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("kind"), str) \
            or not isinstance(header.get("dims"), dict):
        raise FormatError(f"{path}: checkpoint header needs a string 'kind' "
                          f"and a 'dims' object")
    dims = header["dims"]
    if not all(type(v) is int and v >= 0 for v in dims.values()):
        raise FormatError(f"{path}: checkpoint dims must be non-negative "
                          f"integers, got {dims}")
    try:
        return header["kind"], ModelDims(**dims)
    except TypeError as exc:  # unknown or missing dims key
        raise FormatError(f"{path}: bad checkpoint dims: {exc}") from exc


def load_checkpoint(path: Path | str) -> tuple[str, ModelDims, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"{path}: truncated at offset {off}")
        chunk = raw[off:off + n]
        off += n
        return chunk

    if take(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    version, header_len = struct.unpack("<HI", take(6))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}; "
                          f"this build reads version {CHECKPOINT_VERSION}")
    kind, dims = _parse_header(path, take(header_len))
    (count,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = take(name_len).decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: entry name at offset {off - name_len} "
                              f"is not UTF-8") from exc
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        if not np.isfinite(values).all():
            raise NumericError(f"{path}: non-finite values in entry {name!r}")
        try:
            arrays[name] = values.reshape(shape).copy()
        except ValueError as exc:  # more axes or elements than numpy allows
            raise FormatError(f"{path}: entry {name!r} has shape {shape}") from exc
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes at offset {off}")
    return kind, dims, arrays


def load_into(params: Mapping[str, Parameter], arrays: Mapping[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into parameters; names and shapes must match exactly."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise FormatError(f"checkpoint does not match architecture; "
                          f"missing={missing[:3]} extra={extra[:3]}")
    for name, p in params.items():
        if arrays[name].shape != p.data.shape:
            raise FormatError(f"checkpoint entry {name!r} has shape "
                              f"{arrays[name].shape}, expected {p.data.shape}")
        p.data = arrays[name].astype(np.float64, copy=True)


def save_captioner(captioner: ImageCaptioner, path: Path | str) -> None:
    save_checkpoint(path, captioner.kind, captioner.dims, parameters(captioner))


def save_bundle(bundle: ModelBundle, path: Path | str) -> None:
    save_checkpoint(path, bundle.kind, bundle.dims, parameters(bundle))


def load_model(path: Path | str) -> ImageCaptioner | ModelBundle:
    """The model a checkpoint holds, from one read of the file: a captioner,
    wrapped into a bundle for kind ``bundle``."""
    kind, dims, arrays = load_checkpoint(path)
    if kind not in (ImageCaptioner.kind, ModelBundle.kind):
        raise FormatError(f"{path}: unknown checkpoint kind {kind!r}")
    model = ImageCaptioner(dims, seed=0)
    if kind == ModelBundle.kind:
        model = ModelBundle(model, dims.de_vocab, seed=0)
    load_into(parameters(model), arrays)
    return model


def _load_kind(path: Path | str, cls: type):
    model = load_model(path)
    if not isinstance(model, cls):
        raise FormatError(f"{path}: expected a {cls.kind} checkpoint, "
                          f"found {model.kind!r}")
    return model


def load_captioner(path: Path | str) -> ImageCaptioner:
    return _load_kind(path, ImageCaptioner)


def load_bundle(path: Path | str) -> ModelBundle:
    return _load_kind(path, ModelBundle)
