"""The four networks and their checkpoint format.

* ``ImageProjection`` maps raw region features into the model space (the
  stand-in for a CNN encoder, whose features arrive via feature files).
* ``AttentionDecoder`` is the one LSTM decoder, run over a tuple of
  attention heads. ``SoftAttentionDecoder`` (one head, over image regions)
  and ``DualAttentionDecoder`` (a second head, over encoded caption states)
  only name their heads and initial-state projections, the checkpoint's
  entry names. Each rebinds ``step = AttentionDecoder.step`` because the
  benchmark tracer (``bench/spans.py``) patches each class's own ``step``.
* ``CaptionEncoder`` is a bidirectional GRU over caption tokens.

``start(rows, masks)`` takes one row tensor and one mask per head and
returns ``(keys, state)``: the key rows each head attends over, projected
once per sequence, and the initial LSTM state, from head 0's rows (the
regions). ``emit(h)`` maps hidden states of any leading shape to log-probs.
Decoding goes step by step and never runs backward: ``recur(keys, state,
embedded)`` runs the heads (``attend``) and the LSTM (``lstm_step``) and
returns ``(state, weights)``, one attention-weight row per head, and the
decode step ``step(keys, state, y_prev)`` is an embedding lookup, ``recur``
and ``emit``; both raise StateError under a tape. Training teacher-forces:
``unroll`` runs either decoder's recurrence over a whole caption as one
``tensor.decoder_unroll`` record, ``stage2_forward`` is the one
teacher-forced pass of the German stage, and ``teacher_forced_records``
runs it, attention only, over a batch of gold triples.

Everything runs on a batch axis. Regions are (B, L, proj_dim), caption
states (B, N, 2*hidden), LSTM states (B, hidden), and a step takes the (B,)
previous ids of B records at once; a beam search over one image steps its
live hypotheses as the B rows. Records of a training batch differ in
region count and caption length, so a ``data.Batch`` pads them and carries
(B, L) region and (B, T) caption masks. The masks travel with the keys:
``AttentionLayer.prepare`` takes the rows' mask and gives padded rows
weight exactly 0; ``init_state`` averages real regions only; the encoder's
backward direction holds its zero state through a record's padding. Steps
past a record's EOS still run, and whatever they compute is masked by the
losses that read it.

``ImageCaptioner`` bundles projection + soft-attention decoder (the
pretraining artifact); ``ModelBundle`` adds the caption encoder and the
dual-attention decoder for the full two-stage pipeline.
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
from .attention import AttentionKeys, AttentionLayer, attend
from .cells import GRUParams, LSTMParams, gru_inputs, gru_step, lstm_step
from .cycle import AttentionRecord
from .data import Batch, TripleRecord, make_batch
from .errors import DataError, DimensionError, FormatError, NumericError
from .tensor import (Parameter, Tensor, add, concat, decoder_unroll, dropout,
                     embedding_lookup, log_softmax, masked_mean, matmul, mul, stack,
                     tanh, unstack)


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


def init_state(rows: Tensor, mask: np.ndarray | None, w: Parameter,
               b: Parameter) -> Tensor:
    """tanh-squashed projection of the mean of each record's real rows
    (``mask``, None: all real); permutation invariant."""
    return tanh(add(matmul(masked_mean(rows, mask), w), b))


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
        return tanh(add(matmul(Tensor(features), self.w), self.b))

    def named(self) -> dict[str, Parameter]:
        return {self.w.name: self.w, self.b.name: self.b}


Keys = tuple[AttentionKeys, ...]   # one entry per attention head
State = tuple[Tensor, Tensor]       # LSTM (hidden, memory), each (B, hidden)


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
        self.vocab_size = vocab_size
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

    def start(self, rows: Sequence[Tensor],
              masks: Sequence[np.ndarray | None] | None = None) -> tuple[Keys, State]:
        """(one key set per head, initial (h, c)) for decoding over one
        (B, K, key_dim) row tensor per head, with their (B, K) masks of real
        rows (None: all real). The state comes from head 0's rows, the
        regions."""
        masks = [None] * len(rows) if masks is None else masks
        state = tuple(init_state(rows[0], masks[0], w, b) for w, b in self.initial)
        return tuple(head.prepare(r, m) for head, r, m
                     in zip(self.heads, rows, masks, strict=True)), state

    def recur(self, keys: Keys, state: State, embedded: Tensor
              ) -> tuple[State, tuple[Tensor, ...]]:
        """One decode step's heads and LSTM from B records' (B, embed)
        previous-word embeddings: (new (h, c), one (B, K) weight row per
        head). Decoding only: it raises StateError under a tape."""
        h, c = state
        attended = [attend(head, k, h) for head, k in zip(self.heads, keys)]
        state = lstm_step(self.lstm, [a.context for a in attended] + [embedded], h, c)
        return state, tuple(a.weights for a in attended)

    def emit(self, h: Tensor, *, dropout_rate: float = 0.0,
             rng: np.random.Generator | None = None) -> Tensor:
        """(..., vocab) log-probs of (..., hidden) states, after dropout at
        ``dropout_rate`` drawn from ``rng``."""
        return log_softmax(add(matmul(dropout(h, dropout_rate, rng), self.w_out),
                               self.b_out))

    def step(self, keys: Keys, state: State, y_prev: np.ndarray):
        """One decode step for B records from their (B,) previous ids; returns
        ((B, vocab) log_probs, (h, c), one (B, K) weight row per head).
        Decoding only: it raises StateError under a tape."""
        state, weights = self.recur(keys, state, embedding_lookup(self.embedding, y_prev))
        return self.emit(state[0]), state, weights

    def named(self) -> dict[str, Parameter]:
        out = {self.embedding.name: self.embedding}
        for head in self.heads:
            out.update(head.named())
        out.update(self.lstm.named())
        for p in (self.w_out, self.b_out) + sum(self.initial, ()):
            out[p.name] = p
        return out


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
        self.vocab_size = vocab_size
        self.hidden_dim = dims.hidden_dim
        self.embedding = init.weight(rng, (vocab_size, dims.embed_dim),
                                     f"{prefix}/embedding")
        self.fwd = GRUParams(rng, dims.embed_dim, dims.hidden_dim, f"{prefix}/fwd")
        self.bwd = GRUParams(rng, dims.embed_dim, dims.hidden_dim, f"{prefix}/bwd")

    def encode(self, token_ids: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Encode (B, N) token ids, with their (B, N) mask of real tokens
        (None: all real), into (B, N, 2*hidden) states. Each direction
        projects all embeddings in one matmul and splits the result into
        its N positions with one ``unstack``.
        Real tokens come first in each row; the backward direction holds
        its zero state through a record's padding, so it starts at the
        record's own last token. States at padded positions are not zero but
        are masked wherever they are read."""
        ids = np.asarray(token_ids)
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise DataError(f"caption encoder: need a non-empty (B, N) token "
                            f"matrix, got shape {ids.shape}")
        embeds = embedding_lookup(self.embedding, ids.T)     # (N, B, embed)
        fwd_inputs = unstack(gru_inputs(self.fwd, embeds))
        bwd_inputs = unstack(gru_inputs(self.bwd, embeds))
        n = ids.shape[1]
        zeros = Tensor(np.zeros((ids.shape[0], self.hidden_dim)))
        forward = []
        h = zeros
        for t in range(n):
            h = gru_step(self.fwd, fwd_inputs[t], h)
            forward.append(h)
        backward: list[Tensor] = [zeros] * n
        h = zeros
        for t in range(n - 1, -1, -1):
            h = gru_step(self.bwd, bwd_inputs[t], h)
            if mask is not None and not mask[:, t].all():
                h = mul(h, Tensor(mask[:, t, None].astype(np.float64)))
            backward[t] = h
        return concat([stack(forward, axis=1), stack(backward, axis=1)])

    def named(self) -> dict[str, Parameter]:
        out = {self.embedding.name: self.embedding}
        out.update(self.fwd.named())
        out.update(self.bwd.named())
        return out


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

    def named_parameters(self) -> dict[str, Parameter]:
        out = self.image_proj.named()
        out.update(self.decoder.named())
        return out


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

    def named_parameters(self) -> dict[str, Parameter]:
        out = self.captioner.named_parameters()
        out.update(self.cap_encoder.named())
        out.update(self.de_decoder.named())
        return out

    def part1_parameters(self) -> dict[str, Parameter]:
        return self.captioner.named_parameters()

    def part2_parameters(self) -> dict[str, Parameter]:
        out = self.cap_encoder.named()
        out.update(self.de_decoder.named())
        return out


# ---------------------------------------------------------------------------
# Teacher-forced unrolling
# ---------------------------------------------------------------------------

def unroll(decoder: AttentionDecoder, start: tuple[Keys, State], ids: np.ndarray,
           *, states: bool = True) -> tuple[Tensor | None, list[Tensor]]:
    """Teacher-force a decoder's recurrence from ``start = decoder.start(...)``
    over a batch of captions, as one ``decoder_unroll`` record.

    ``ids`` is the (B, T + 1) matrix of BOS..EOS rows, PAD-padded; step t
    conditions on ids[:, t] (all looked up at once) and its state predicts
    ids[:, t + 1]. Returns the (T, B, hidden) states, for one ``emit``, and
    per head its (B, T, K) weights. With ``states=False`` only the weights
    are made (for attention-only passes) and the states come back as None.
    Steps past a record's EOS run on padding; their outputs are masked by
    whoever reads them.
    """
    keys, (h, c) = start
    heads = [(k.projected, k.rows, k.mask, k.w_query_t, head.combine)
             for head, k in zip(decoder.heads, keys, strict=True)]
    outs = decoder_unroll(embedding_lookup(decoder.embedding, ids[:, :-1].T), h, c,
                          decoder.lstm.w, decoder.lstm.b, heads, states=states)
    return (outs[0], list(outs[1:])) if states else (None, list(outs))


def stage2_forward(bundle: ModelBundle, batch: Batch, *, english: bool = True,
                   freeze_part1: bool = False, states: bool = True
                   ) -> tuple[Tensor | None, tuple[Tensor, Tensor, Tensor] | None]:
    """Teacher-forced stage-two pass over a batch of triples.

    The caption encoder reads the English targets (content plus EOS, BOS
    dropped), so its state count matches the English attention rows. The
    German decoder is unrolled over ``de_ids``; with ``english`` the English
    decoder's recurrence is then unrolled over ``en_ids``, for attention only.
    Returns the German decoder's (T, B, hidden) states, for one ``emit``
    (None with ``states=False``), and, with ``english``, the (B, M, L)
    de_to_regions, (B, M, N) de_to_en and (B, N, L) en_to_regions attention
    tensors, else None.

    With ``freeze_part1`` the projected regions and English attention rows
    enter the graph as constants, so part 1 gets no gradient.
    """
    regions = bundle.captioner.project(batch.features)
    if freeze_part1:
        regions = Tensor(regions.data)
    cap_mask = batch.en_mask[:, 1:]
    cap_states = bundle.cap_encoder.encode(batch.en_ids[:, 1:], cap_mask)
    de_decoder = bundle.de_decoder
    de_states, (de_to_regions, de_to_en) = unroll(
        de_decoder, de_decoder.start([regions, cap_states], [batch.region_mask, cap_mask]),
        batch.de_ids, states=states)
    if not english:
        return de_states, None
    en_decoder = bundle.captioner.decoder
    _, (en_to_regions,) = unroll(
        en_decoder, en_decoder.start([regions], [batch.region_mask]), batch.en_ids,
        states=False)
    if freeze_part1:
        en_to_regions = Tensor(en_to_regions.data)
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
    save_checkpoint(path, captioner.kind, captioner.dims, captioner.named_parameters())


def save_bundle(bundle: ModelBundle, path: Path | str) -> None:
    save_checkpoint(path, bundle.kind, bundle.dims, bundle.named_parameters())


def load_model(path: Path | str) -> ImageCaptioner | ModelBundle:
    """The model a checkpoint holds, from one read of the file: a captioner,
    wrapped into a bundle for kind ``bundle``."""
    kind, dims, arrays = load_checkpoint(path)
    if kind not in (ImageCaptioner.kind, ModelBundle.kind):
        raise FormatError(f"{path}: unknown checkpoint kind {kind!r}")
    model = ImageCaptioner(dims, seed=0)
    if kind == ModelBundle.kind:
        model = ModelBundle(model, dims.de_vocab, seed=0)
    load_into(model.named_parameters(), arrays)
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
