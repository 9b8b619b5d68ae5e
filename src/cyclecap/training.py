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
to float summation order. A decoder maps a batch's states to log-probs in
one output-layer pass, where dropout acts; stage two's English pass builds
attention only.

Early stopping follows validation CIDEr computed with greedy (beam 1)
decoding: training stops once the score has failed to improve for more than
``patience`` consecutive validated epochs, and the best-scoring parameters
are restored at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .cycle import cycle_loss_graph
from .data import (Batch, PairRecord, TripleRecord, Vocabulary, check_feature_dim,
                   make_batch)
from .errors import ConfigError, DataError, DimensionError, NumericError
from .evaluation import cider
from .inference import beam_decode, caption_image, decoder_step_fn
from .models import (ImageCaptioner, ModelBundle, ModelDims, load_into,
                     stage2_forward, unroll)
from .optim import Adam
from .tensor import Tape, Tensor, add, pick, scale, sum_all


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


def nll_loss(log_probs: Tensor, targets: np.ndarray,
             mask: np.ndarray) -> tuple[Tensor, int]:
    """Summed negative log-likelihood of a batch of targets.

    ``log_probs`` is the time-major (T, B, vocab) log-prob tensor of an
    unroll, ``targets`` the (B, T) ids it predicts and ``mask`` the (B, T)
    boolean mask of real targets; padded positions are excluded from both
    the sum and the token count.
    """
    if log_probs.shape[:2] != targets.shape[::-1] or mask.shape != targets.shape:
        raise DimensionError(f"log-probs {log_probs.shape} vs targets "
                             f"{targets.shape} and mask {mask.shape}")
    count = int(mask.sum())
    if not count:
        raise DataError("no real targets in batch")
    picked = pick(log_probs, targets.T, mask.T)
    return scale(sum_all(picked), -1.0), count


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
    return beam_decode(decoder_step_fn(decoder, keys), state,
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


def _fit(phase: str, records: Sequence, length_of, batch_loss,
         trainable: dict, saved: dict, validate, cfg: TrainConfig) -> TrainReport:
    """The epoch loop both stages share.

    ``batch_loss(batch)`` builds one padded batch's graph on the open tape
    and returns (summed loss, nll value, token count, cycle value or None);
    the mean per-record loss drives one Adam step over ``trainable``.
    ``validate()`` scores the model, and the best-scoring snapshot of
    ``saved`` is restored at the end.
    """
    adam = Adam(trainable, lr=cfg.learning_rate)
    stopper = _EarlyStopper(cfg.patience)
    best_params = _snapshot(saved)
    report = TrainReport(phase=phase)
    batches = _batches(records, cfg.batch_size, length_of)

    for epoch in range(1, cfg.max_epochs + 1):
        nll_total, token_total, cyc_total, has_cycle = 0.0, 0, 0.0, False
        for batch in batches:
            adam.zero_grad()
            try:
                with Tape() as tape:
                    loss, nll, ntok, cyc = batch_loss(batch)
                    nll_total += nll
                    token_total += ntok
                    if cyc is not None:
                        cyc_total += cyc
                        has_cycle = True
                    tape.backward(scale(loss, 1.0 / len(batch)))
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}: {exc}") from exc
            adam.step()
        nll_per_token = nll_total / token_total
        cyc_mean = cyc_total / len(records) if has_cycle else None

        score, is_best = None, False
        if epoch % cfg.validate_every == 0 or epoch == cfg.max_epochs:
            score = validate()
            is_best = stopper.update(epoch, score)
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
    val = val_pairs if val_pairs is not None else pairs
    for r in pairs:
        check_feature_dim(r.image_id, r.features, feature_dim)
    model = ImageCaptioner(cfg.dims(feature_dim, len(vocab)), cfg.seed)
    params = model.named_parameters()
    drop_rng = np.random.default_rng(cfg.seed)

    def batch_loss(batch: Batch):
        return _captioner_loss(model, batch, cfg.dropout, drop_rng)

    report = _fit("part1", pairs, lambda r: r.steps, batch_loss, params, params,
                  lambda: _validate_captioner(model, val, vocab), cfg)
    return model, report


def _captioner_loss(model: ImageCaptioner, batch: Batch, dropout: float = 0.0,
                    rng: np.random.Generator | None = None
                    ) -> tuple[Tensor, float, int, None]:
    """A batch's summed stage-one loss: (loss, nll value, token count, None)."""
    decoder = model.decoder
    start = decoder.start([model.project(batch.features)], [batch.region_mask])
    states, _ = unroll(decoder, start, batch.en_ids)
    loss, ntok = nll_loss(decoder.emit(states, dropout_rate=dropout, rng=rng),
                          batch.en_ids[:, 1:], batch.en_mask[:, 1:])
    return loss, loss.item(), ntok, None


def train_part2(triples: Sequence[TripleRecord], captioner: ImageCaptioner,
                en_vocab: Vocabulary, de_vocab: Vocabulary, cfg: TrainConfig,
                val_triples: Sequence[TripleRecord] | None = None
                ) -> tuple[ModelBundle, TrainReport]:
    """Train the German stage on triples against a pretrained captioner.

    Each batch's loss is :func:`_stage2_loss`. Unless ``freeze_part1`` is
    set, the pretrained parameters stay in the optimizer and keep adapting
    (only the consistency loss reaches them).
    """
    cfg.check()
    if not triples:
        raise DataError("stage-two training needs a non-empty triple set")
    if len(en_vocab) != captioner.dims.en_vocab:
        raise DataError("English vocabulary does not match the captioner")
    val = val_triples if val_triples is not None else triples
    feature_dim = captioner.dims.feature_dim
    for r in triples:
        check_feature_dim(r.image_id, r.features, feature_dim)
    # work on a private copy so the caller's captioner is never mutated and
    # repeated runs from the same checkpoint stay bit-identical
    part1 = ImageCaptioner(captioner.dims, cfg.seed)
    load_into(part1.named_parameters(),
              {k: p.data for k, p in captioner.named_parameters().items()})
    bundle = ModelBundle(part1, len(de_vocab), cfg.seed)

    trainable = dict(bundle.part2_parameters())
    if not cfg.freeze_part1:
        trainable.update(bundle.part1_parameters())
    drop_rng = np.random.default_rng(cfg.seed)

    def batch_loss(batch: Batch):
        return _stage2_loss(bundle, batch, cfg.cycle_weight, cfg.dropout,
                            cfg.freeze_part1, drop_rng)

    report = _fit("part2", triples, lambda r: r.de_steps, batch_loss, trainable,
                  bundle.named_parameters(),
                  lambda: _validate_bundle(bundle, val, de_vocab), cfg)
    return bundle, report


def _stage2_loss(bundle: ModelBundle, batch: Batch, cycle_weight: float,
                 dropout: float = 0.0, freeze_part1: bool = False,
                 rng: np.random.Generator | None = None
                 ) -> tuple[Tensor, float, int, float | None]:
    """A batch's summed stage-two loss: (loss, nll value, token count, cycle
    value or None).

    The German likelihood loss plus ``cycle_weight`` times the consistency
    loss over the three attention tensors of :func:`stage2_forward`, both
    summed over the records. With cycle_weight 0 the English pass and the
    consistency graph are skipped entirely. ``dropout`` applies to the
    German output layer, drawn from ``rng``; ``freeze_part1`` keeps part 1
    out of the graph's gradients.
    """
    de_states, attention = stage2_forward(bundle, batch, english=cycle_weight > 0.0,
                                          freeze_part1=freeze_part1)
    de_logps = bundle.de_decoder.emit(de_states, dropout_rate=dropout, rng=rng)
    de_mask = batch.de_mask[:, 1:]
    loss, ntok = nll_loss(de_logps, batch.de_ids[:, 1:], de_mask)
    if attention is None:
        return loss, loss.item(), ntok, None
    cyc = cycle_loss_graph(*attention, de_mask)
    return add(loss, scale(cyc, cycle_weight)), loss.item(), ntok, cyc.item()


def stage2_loss_graph(bundle: ModelBundle, batch: Batch,
                      cycle_weight: float) -> Tensor:
    """A batch's summed stage-two loss in evaluation mode (no dropout); the
    gradient-check suites differentiate through this graph, the one
    ``train_part2`` optimises."""
    return _stage2_loss(bundle, batch, cycle_weight)[0]
