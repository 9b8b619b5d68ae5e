"""Two-stage training: pretrain the English captioner, then train the
German stage with the summed caption likelihood and cycle-consistency losses.
Both stages run the same epoch loop, ``_fit``.

Records are sorted by target length (then image id) so similar lengths
batch together, and each batch is padded once into one ``data.Batch``. Its
graph steps all B records through every cell together, on (B, ·) matrices,
and the mean per-record loss drives one optimizer step. Masks, not padding
values, decide what counts: the likelihood skips PAD targets, attention
gives padded keys weight 0, and the cycle loss skips padded German steps,
so a batch's loss and gradients are the sums of its records' at B = 1, up
to float summation order. Each network is one tape record per batch, and
so is each loss: ``nll_loss`` runs dropout, the output layer, the
log-softmax and the masked sum over a decoder's states in one
(``tensor.output_nll``), and the cycle loss is one more
(``cycle.cycle_loss_graph``). Stage two's English pass builds attention
only. The losses' weights, the cycle weight and the batch mean's 1/B, are
no records: they seed the backward (``Tape.backward``), so a stage-two step
with the cycle loss builds six records and a stage-one step three. With
``freeze_part1`` part 1 is computed once per fit: each batch's projected
regions (and its en_to_regions, with the cycle loss) are made before the
first epoch, outside any tape, and every step reads them as constants, so a
frozen stage-two step builds four records (three without the cycle loss).

Each step frees its tape's arrays, and glibc by default hands the freed top of
the heap back to the kernel, so the next step faults the same pages in again.
The first fit in a process therefore sets glibc's mmap and trim thresholds
(``_keep_heap``), and from then on the process keeps its peak heap.

Early stopping follows validation CIDEr computed with greedy (beam 1)
decoding: training stops once the score has failed to improve for more than
``patience`` consecutive validated epochs, and the best-scoring parameters
are restored at the end.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .cycle import cycle_loss_graph
from .data import (Batch, PairRecord, TripleRecord, Vocabulary, check_feature_dim,
                   make_batch)
from .errors import ConfigError, DataError, NumericError
from .evaluation import cider
from .inference import beam_decode, caption_image
from .models import (ImageCaptioner, ModelBundle, ModelDims, frozen_part1, load_into,
                     stage2_forward, unroll)
from .optim import Adam
from .tensor import Parameter, Tape, Tensor, output_nll, parameters


@dataclass
class TrainConfig:
    """Training knobs plus stage one's model sizes (stage two has its captioner's).

    ``cycle_weight`` scales the consistency penalty; 0 disables it entirely
    (the dual-attention baseline is exactly that configuration, sharing every
    other code path). ``freeze_part1`` excludes the pretrained stage from the
    optimizer during stage-two training. ``target_nll`` optionally stops a
    run once the per-token training loss drops below it, which is how the
    desk-scale overfitting experiments bound their runtime.
    """

    learning_rate: float = 4e-4
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 20
    dropout: float = 0.5
    cycle_weight: float = 1.0
    freeze_part1: bool = False
    seed: int = 0
    proj_dim: int = 64
    embed_dim: int = 64
    hidden_dim: int = 64
    attn_dim: int = 64
    validate_every: int = 1
    target_nll: float | None = None

    def check(self) -> None:
        if min(self.learning_rate, self.batch_size, self.max_epochs,
               self.validate_every) <= 0:
            raise ConfigError("learning_rate, batch_size, max_epochs and "
                              "validate_every must be positive")
        if min(self.proj_dim, self.embed_dim, self.hidden_dim, self.attn_dim) <= 0:
            raise ConfigError("model dims must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} outside [0, 1)")
        if self.patience < 0 or self.patience > self.max_epochs:
            raise ConfigError("need 0 <= patience <= max_epochs")
        for name in ("learning_rate", "cycle_weight", "target_nll"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.cycle_weight < 0.0:
            raise ConfigError("cycle_weight must be non-negative")

    def dims(self, feature_dim: int, en_vocab: int, de_vocab: int = 0) -> ModelDims:
        return ModelDims(feature_dim=feature_dim, en_vocab=en_vocab,
                         de_vocab=de_vocab, proj_dim=self.proj_dim,
                         embed_dim=self.embed_dim, hidden_dim=self.hidden_dim,
                         attn_dim=self.attn_dim)


@dataclass
class EpochStats:
    epoch: int
    nll_per_token: float
    cycle: float | None
    val_score: float | None
    is_best: bool

    def to_json(self) -> str:
        return json.dumps({
            "epoch": self.epoch, "nll_per_token": self.nll_per_token,
            "cycle": self.cycle, "val_score": self.val_score,
            "is_best": self.is_best,
        }, sort_keys=True)


@dataclass
class TrainReport:
    phase: str
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_score: float | None = None

    def write(self, path: Path | str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"phase": self.phase, "best_epoch": self.best_epoch,
                                 "best_score": self.best_score},
                                sort_keys=True) + "\n")
            for e in self.epochs:
                fh.write(e.to_json() + "\n")


def nll_loss(states: Tensor, w_out: Parameter, b_out: Parameter, targets: np.ndarray,
             mask: np.ndarray, dropout: float = 0.0,
             rng: np.random.Generator | None = None) -> tuple[Tensor, int]:
    """Summed negative log-likelihood of a batch of targets, and its token
    count, as one record (``tensor.output_nll``).

    ``states`` is the time-major (T, B, hidden) state tensor of an unroll,
    ``w_out`` and ``b_out`` the decoder's output layer, ``targets`` the
    (B, T) ids it predicts and ``mask`` the (B, T) boolean mask of real
    targets; padded positions are excluded from both the sum and the token
    count. At a positive ``dropout`` rate the states first pass inverted
    dropout, one (T, B, hidden) keep mask drawn from ``rng``.
    """
    count = int(mask.sum())
    if not count:
        raise DataError("no real targets in batch")
    keep = None
    if dropout:
        keep = (rng.random(states.shape) >= dropout) / (1.0 - dropout)
    return output_nll(states, w_out, b_out, targets, mask, keep), count


def _batches(records: Sequence, batch_size: int, length_of) -> list[Batch]:
    order = sorted(records, key=lambda r: (length_of(r), r.image_id))
    return [make_batch(order[i:i + batch_size]) for i in range(0, len(order), batch_size)]


class _EarlyStopper:
    """Tracks the best validation score and the stop condition: stop once the
    score has not improved for more than ``patience`` validated epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_score = -np.inf
        self.best_epoch = 0
        self.stale = 0

    def update(self, epoch: int, score: float) -> bool:
        """Returns True when this epoch is a new best."""
        if score > self.best_score:
            self.best_score = score
            self.best_epoch = epoch
            self.stale = 0
            return True
        self.stale += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.stale > self.patience


def _snapshot(params) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def _greedy_en(captioner: ImageCaptioner, record: PairRecord,
               max_len: int = 50) -> tuple[int, ...]:
    decoder = captioner.decoder
    keys, state = decoder.start([captioner.project(record.features.values[None])])
    return beam_decode(partial(decoder.step, keys), state,
                       beam_size=1, max_len=max_len).tokens


def _validate_captioner(captioner: ImageCaptioner, records: Sequence[PairRecord],
                        vocab: Vocabulary) -> float:
    candidates = [vocab.decode(_greedy_en(captioner, r)) for r in records]
    references = [[vocab.decode(r.ids)] for r in records]
    return cider(candidates, references)


def _validate_bundle(bundle: ModelBundle, records: Sequence[TripleRecord],
                     de_vocab: Vocabulary) -> float:
    candidates = []
    for r in records:
        out = caption_image(bundle, r.features, beam_size=1)
        candidates.append(de_vocab.decode(out.de_ids))
    references = [[de_vocab.decode(r.de_ids)] for r in records]
    return cider(candidates, references)


# glibc's mallopt parameters (malloc.h) and the values ``_keep_heap`` fixes.
# 32 MiB is the ceiling glibc's dynamic mmap threshold climbs to on 64-bit
# hosts, so no array it would serve from the heap is mapped instead; the trim
# threshold is twice that, the ratio its dynamic rule keeps.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _keep_heap() -> None:
    """Keep freed step memory in the process's heap, so that a training step
    reuses the pages the one before it touched instead of faulting them in.

    Fixes glibc's mmap threshold, the size from which an array is mapped on
    its own and unmapped when freed, and its trim threshold, the free space at
    the heap's top beyond which it is returned to the kernel. Both act on this
    process only. Where the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _fit(phase: str, batches: Sequence[Batch], batch_loss, trainable: dict,
         saved: dict, validate, cfg: TrainConfig) -> TrainReport:
    """The epoch loop both stages share, over the padded ``batches`` its
    caller built once for the fit (``_batches``).

    ``batch_loss(k)`` builds ``batches[k]``'s graph on the open tape
    and returns (loss terms, nll value, token count, cycle value or None),
    the terms (record, weight) pairs whose weighted sum is the summed loss;
    the mean per-record loss, each term seeded with its weight over B,
    drives one Adam step over ``trainable``.
    ``validate()`` scores the model, and the best-scoring snapshot of
    ``saved`` is restored at the end. A NumericError raised in an epoch's
    steps or its validation is re-raised with the epoch's number in front.
    """
    _keep_heap()
    adam = Adam(trainable, lr=cfg.learning_rate)
    stopper = _EarlyStopper(cfg.patience)
    best_params = _snapshot(saved)
    report = TrainReport(phase=phase)
    record_count = sum(map(len, batches))

    for epoch in range(1, cfg.max_epochs + 1):
        nll_total, token_total, cyc_total, has_cycle = 0.0, 0, 0.0, False
        score = None
        try:
            for k, batch in enumerate(batches):
                adam.zero_grad()
                with Tape() as tape:
                    terms, nll, ntok, cyc = batch_loss(k)
                    nll_total += nll
                    token_total += ntok
                    if cyc is not None:
                        cyc_total += cyc
                        has_cycle = True
                    mean = 1.0 / len(batch)
                    tape.backward([(out, mean * weight) for out, weight in terms])
                adam.step()
            if epoch % cfg.validate_every == 0 or epoch == cfg.max_epochs:
                score = validate()
        except NumericError as exc:
            raise NumericError(f"epoch {epoch}: {exc}") from exc
        nll_per_token = nll_total / token_total
        cyc_mean = cyc_total / record_count if has_cycle else None

        is_best = score is not None and stopper.update(epoch, score)
        if is_best:
            best_params = _snapshot(saved)
        report.epochs.append(EpochStats(epoch, nll_per_token, cyc_mean, score, is_best))
        if stopper.should_stop:
            break
        if cfg.target_nll is not None and nll_per_token < cfg.target_nll:
            break

    if stopper.best_epoch:
        load_into(saved, best_params)
        report.best_epoch = stopper.best_epoch
        report.best_score = stopper.best_score
    else:
        report.best_epoch = report.epochs[-1].epoch if report.epochs else 0
    return report


def _validation_set(records: Sequence, val: Sequence | None, feature_dim: int
                    ) -> Sequence:
    """``val``, or the training ``records`` when it is None. An empty
    validation set, or a grid of either set whose feature dim is not
    ``feature_dim``, is a DataError before any model is built."""
    if val is not None and not val:
        raise DataError("validation needs a non-empty record set")
    for r in (*records, *(val or ())):
        check_feature_dim(r.image_id, r.features, feature_dim)
    return records if val is None else val


def pretrain_part1(pairs: Sequence[PairRecord], vocab: Vocabulary,
                   feature_dim: int, cfg: TrainConfig,
                   val_pairs: Sequence[PairRecord] | None = None
                   ) -> tuple[ImageCaptioner, TrainReport]:
    """Train the image captioner (projection + soft-attention decoder) with
    teacher forcing. The pair set may be any image-caption collection, not
    just the one later used for the German stage."""
    cfg.check()
    if not pairs:
        raise DataError("pretraining needs a non-empty pair set")
    if len(vocab) < 5:
        raise DataError("captioner needs a vocabulary (>= 4 reserved ids + 1)")
    val = _validation_set(pairs, val_pairs, feature_dim)
    model = ImageCaptioner(cfg.dims(feature_dim, len(vocab)), cfg.seed)
    params = parameters(model)
    drop_rng = np.random.default_rng(cfg.seed)
    batches = _batches(pairs, cfg.batch_size, lambda r: r.steps)

    def batch_loss(k: int):
        return _captioner_loss(model, batches[k], cfg.dropout, drop_rng)

    report = _fit("part1", batches, batch_loss, params, params,
                  lambda: _validate_captioner(model, val, vocab), cfg)
    return model, report


def _captioner_loss(model: ImageCaptioner, batch: Batch, dropout: float = 0.0,
                    rng: np.random.Generator | None = None
                    ) -> tuple[list[tuple[Tensor, float]], float, int, None]:
    """A batch's summed stage-one loss: ([(likelihood record, 1)], nll
    value, token count, None)."""
    decoder = model.decoder
    states, _ = unroll(decoder, [model.project(batch.features)], [batch.region_mask],
                       batch.en_ids)
    loss, ntok = nll_loss(states, decoder.w_out, decoder.b_out, batch.en_ids[:, 1:],
                          batch.en_mask[:, 1:], dropout, rng)
    return [(loss, 1.0)], loss.item(), ntok, None


def train_part2(triples: Sequence[TripleRecord], captioner: ImageCaptioner,
                en_vocab: Vocabulary, de_vocab: Vocabulary, cfg: TrainConfig,
                val_triples: Sequence[TripleRecord] | None = None
                ) -> tuple[ModelBundle, TrainReport]:
    """Train the German stage on triples against a pretrained captioner.

    Each batch's loss is :func:`_stage2_loss`. Unless ``freeze_part1`` is
    set, the pretrained parameters stay in the optimizer and keep adapting
    (only the consistency loss reaches them). With it, part 1 is computed
    once per fit: each batch's ``frozen_part1`` arrays, made here before the
    first epoch, are the constants every epoch's step reads.
    """
    cfg.check()
    if not triples:
        raise DataError("stage-two training needs a non-empty triple set")
    if len(en_vocab) != captioner.dims.en_vocab:
        raise DataError("English vocabulary does not match the captioner")
    val = _validation_set(triples, val_triples, captioner.dims.feature_dim)
    # work on a private copy so the caller's captioner is never mutated and
    # repeated runs from the same checkpoint stay bit-identical
    part1 = ImageCaptioner(captioner.dims, cfg.seed)
    load_into(parameters(part1), {k: p.data for k, p in parameters(captioner).items()})
    bundle = ModelBundle(part1, len(de_vocab), cfg.seed)

    trainable = (parameters(bundle.cap_encoder, bundle.de_decoder) if cfg.freeze_part1
                 else parameters(bundle))
    drop_rng = np.random.default_rng(cfg.seed)
    batches = _batches(triples, cfg.batch_size, lambda r: r.de_steps)
    english = cfg.cycle_weight > 0.0
    part1_arrays = [frozen_part1(part1, b, english=english) if cfg.freeze_part1 else None
                    for b in batches]

    def batch_loss(k: int):
        return _stage2_loss(bundle, batches[k], cfg.cycle_weight, cfg.dropout, drop_rng,
                            part1_arrays[k])

    report = _fit("part2", batches, batch_loss, trainable, parameters(bundle),
                  lambda: _validate_bundle(bundle, val, de_vocab), cfg)
    return bundle, report


def _stage2_loss(bundle: ModelBundle, batch: Batch, cycle_weight: float,
                 dropout: float = 0.0, rng: np.random.Generator | None = None,
                 part1: tuple[np.ndarray, np.ndarray | None] | None = None
                 ) -> tuple[list[tuple[Tensor, float]], float, int, float | None]:
    """A batch's summed stage-two loss: (terms, nll value, token count,
    cycle value or None).

    The German likelihood loss plus ``cycle_weight`` times the consistency
    loss over the three attention tensors of :func:`stage2_forward`, both
    summed over the records: the terms are [(likelihood record, 1), (cycle
    record, cycle_weight)]. With cycle_weight 0 the English pass and the
    consistency graph are skipped entirely. ``dropout`` applies to the
    German output layer, drawn from ``rng``. ``part1``, a frozen part 1's
    arrays for this batch (``models.frozen_part1``), enters the graph as
    constants in place of part 1's records, so part 1 gets no gradient.
    """
    de_states, attention = stage2_forward(bundle, batch, english=cycle_weight > 0.0,
                                          part1=part1)
    de_decoder, de_mask = bundle.de_decoder, batch.de_mask[:, 1:]
    loss, ntok = nll_loss(de_states, de_decoder.w_out, de_decoder.b_out,
                          batch.de_ids[:, 1:], de_mask, dropout, rng)
    if attention is None:
        return [(loss, 1.0)], loss.item(), ntok, None
    cyc = cycle_loss_graph(*attention, de_mask)
    return [(loss, 1.0), (cyc, cycle_weight)], loss.item(), ntok, cyc.item()


def stage2_loss_graph(bundle: ModelBundle, batch: Batch,
                      cycle_weight: float) -> list[tuple[Tensor, float]]:
    """A batch's stage-two loss terms in evaluation mode (no dropout); the
    gradient-check suites differentiate through this graph, the one
    ``train_part2`` optimises."""
    return _stage2_loss(bundle, batch, cycle_weight)[0]
