import ctypes
import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cyclecap import models, tensor, training
from cyclecap.data import (PAD_ID, FeatureGrid, TripleRecord, Vocabulary, make_batch,
                           pairs_from_triples)
from cyclecap.errors import ConfigError, DataError, DimensionError, NumericError
from cyclecap.models import (ImageCaptioner, ModelBundle, SoftAttentionDecoder, load_bundle,
                             save_bundle)
from cyclecap.tensor import Parameter, Tape, Tensor, parameters
from cyclecap.training import (TrainConfig, _batches, _stage2_loss, nll_loss, pretrain_part1,
                               train_part2)

from _reference import add, recomputing_stage2_forward, scale
from conftest import make_corpus, random_ids, tiny_bundle


def quick_cfg(**kwargs):
    defaults = dict(max_epochs=4, patience=4, dropout=0.0, batch_size=8,
                    learning_rate=2e-3, seed=3, validate_every=10,
                    hidden_dim=16, embed_dim=16, attn_dim=16, proj_dim=16)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


# --- padding costs no work -------------------------------------------------------

def test_a_taped_stage_two_loss_computes_only_real_steps(monkeypatch):
    # count the rows that the step math receives, looked up through the
    # tensor module's globals, over one taped stage-two loss and backward of
    # a mixed-length batch: exactly what the records' lengths predict
    rng = np.random.default_rng(0)
    triples = [TripleRecord(f"im{i}", FeatureGrid(rng.standard_normal((regions, 3))),
                            random_ids(rng, 8, en_len), random_ids(rng, 9, de_len))
               for i, (regions, en_len, de_len) in enumerate([(2, 4, 1), (3, 1, 3),
                                                              (1, 6, 5)])]
    rows = dict.fromkeys(("attention_arrays", "lstm_arrays", "_sigmoid"), 0)
    for name, rows_of in (("attention_arrays", lambda head, query: query),
                          ("lstm_arrays", lambda a, c: a), ("_sigmoid", lambda x: x)):
        def counted(*args, name=name, rows_of=rows_of, real=getattr(tensor, name)):
            rows[name] += len(rows_of(*args))
            return real(*args)

        monkeypatch.setattr(tensor, name, counted)
    with Tape() as tape:
        tape.backward(_stage2_loss(tiny_bundle(seed=4), make_batch(triples), 1.0)[0])
    # targets per record: content and EOS; the English decoder runs for
    # attention only, so its LSTM skips each record's last step
    en = sum(len(t.en_ids) - 1 for t in triples)
    de = sum(len(t.de_ids) - 1 for t in triples)
    lstm = de + en - len(triples)
    assert rows == {"attention_arrays": 2 * de + en, "lstm_arrays": lstm,
                    "_sigmoid": lstm + 2 * en}


def mixed_length_fit(monkeypatch, **settings):
    """(records per taped step, in order, and the count of English decoder
    unrolls in stage two) of a stage-one fit and then a stage-two fit over
    four mixed-length records in batches of ``batch_size`` (default 4), with
    dropout; ``settings`` override the config."""
    rng = np.random.default_rng(5)
    triples = [TripleRecord(f"im{i}", FeatureGrid(rng.standard_normal((regions, 3))),
                            random_ids(rng, 8, en_len), random_ids(rng, 9, de_len))
               for i, (regions, en_len, de_len) in enumerate([(4, 9, 7), (4, 3, 2),
                                                              (4, 6, 10), (4, 1, 4)])]
    taped = []
    backward = tensor.Tape.backward
    monkeypatch.setattr(tensor.Tape, "backward",
                        lambda tape, roots: taped.append(len(tape)) or backward(tape, roots))
    cfg = quick_cfg(**{**dict(max_epochs=1, patience=1, batch_size=4, dropout=0.5,
                              cycle_weight=1.0, hidden_dim=4, embed_dim=4, attn_dim=4,
                              proj_dim=4), **settings})
    en_vocab, de_vocab = Vocabulary([f"e{i}" for i in range(4)]), \
        Vocabulary([f"d{i}" for i in range(5)])
    captioner, _ = pretrain_part1(pairs_from_triples(triples), en_vocab, 3,
                                  replace(cfg, max_epochs=1, patience=1))
    english, unroll = [], models.unroll
    monkeypatch.setattr(models, "unroll", lambda decoder, *args, **kwargs: english.append(
        isinstance(decoder, SoftAttentionDecoder)) or unroll(decoder, *args, **kwargs))
    train_part2(triples, captioner, en_vocab, de_vocab, cfg)
    return taped, sum(english)


def test_a_training_step_builds_one_record_per_network_and_per_loss(monkeypatch):
    # each network is one record, the projection, the encoder (lookup and
    # both GRU directions) and each unroll (key projection, initial state and
    # lookups included), and so is each loss; lambda and the mean's 1/B seed
    # the backward. Counted at _fit's backward over a mixed-length batch at
    # lambda 1 with dropout, part 1 unfrozen: stage two records the
    # projection, the encoder, the two unrolls and the two losses; stage one
    # the projection, its unroll and its loss.
    taped, english = mixed_length_fit(monkeypatch)
    assert taped == [3, 6] and english == 1, taped


@pytest.mark.parametrize("cycle_weight, records", [(1.0, 4), (0.0, 3)])
def test_a_frozen_stage_two_step_reads_part_one_computed_once(monkeypatch, cycle_weight,
                                                              records):
    # a frozen part 1 is projected and, with the cycle loss, unrolled once
    # per batch before the first epoch and off the tape: every step, the
    # first epoch's too, records only the encoder, the German unroll and the
    # losses, and a fit of 3 epochs over 2 batches unrolls the English
    # decoder twice at lambda 1 (never at lambda 0), not 6 times
    taped, english = mixed_length_fit(monkeypatch, max_epochs=3, patience=3, batch_size=2,
                                      cycle_weight=cycle_weight, freeze_part1=True)
    assert taped == [3, 3] + [records] * 6, taped
    assert english == (2 if cycle_weight else 0)


@pytest.mark.parametrize("cycle_weight, dropout", [(0.0, 0.0), (1.0, 0.3)])
def test_frozen_part1_computed_once_trains_as_recomputing_it_each_step(
        small_corpus, tmp_path, monkeypatch, cycle_weight, dropout):
    # a frozen fit reads each batch's part-1 arrays, made before the first
    # epoch, where the stage-two forward used to recompute part 1 on the
    # tape at every step: over 3 epochs and 3 batches, with validation every
    # epoch, both fits end with the same bits in every parameter and write
    # the same report
    triples, en_vocab, de_vocab, _ = small_corpus
    captioner, _ = pretrain_part1(pairs_from_triples(triples), en_vocab, 32,
                                  quick_cfg(max_epochs=1, patience=1))
    cfg = quick_cfg(max_epochs=3, patience=3, batch_size=6, dropout=dropout,
                    cycle_weight=cycle_weight, freeze_part1=True, validate_every=1)
    assert len(triples) == 16  # three batches

    def fit(name):
        bundle, report = train_part2(triples, captioner, en_vocab, de_vocab, cfg)
        report.write(tmp_path / name)
        return ({k: p.data.tobytes() for k, p in parameters(bundle).items()},
                (tmp_path / name).read_bytes())

    cached = fit("cached.jsonl")
    calls = []
    monkeypatch.setattr(training, "stage2_forward", lambda *args, **kwargs: calls.append(
        1) or recomputing_stage2_forward(*args, **kwargs))
    assert fit("recomputed.jsonl") == cached
    assert len(calls) == 3 * 3


@pytest.mark.parametrize("cycle_weight", [0.5, 1.0])
def test_fit_seeds_the_backward_with_the_loss_weights(cycle_weight):
    # _fit seeds the likelihood with 1/B and the cycle loss with lambda/B:
    # the gradients of one step over a mixed-length batch with dropout are
    # the bits of a backward of scale(add(nll, scale(cyc, lambda)), 1/B),
    # the mean loss built from the primitive oracles
    rng = np.random.default_rng(9)
    triples = [TripleRecord(f"im{i}", FeatureGrid(rng.standard_normal((regions, 3))),
                            random_ids(rng, 8, en_len), random_ids(rng, 9, de_len))
               for i, (regions, en_len, de_len) in enumerate([(4, 5, 3), (2, 2, 6),
                                                              (3, 7, 1)])]
    cfg = quick_cfg(max_epochs=1, patience=1, batch_size=3, dropout=0.5,
                    cycle_weight=cycle_weight, hidden_dim=4, embed_dim=4, attn_dim=4,
                    proj_dim=4)
    en_vocab, de_vocab = Vocabulary([f"e{i}" for i in range(4)]), \
        Vocabulary([f"d{i}" for i in range(5)])
    dims = cfg.dims(3, len(en_vocab))
    trained, _ = train_part2(triples, ImageCaptioner(dims, cfg.seed), en_vocab, de_vocab, cfg)
    oracle = ModelBundle(ImageCaptioner(dims, cfg.seed), len(de_vocab), cfg.seed)
    (batch,) = _batches(triples, cfg.batch_size, lambda r: r.de_steps)
    with Tape() as tape:
        (nll, _), (cyc, _) = _stage2_loss(oracle, batch, cycle_weight, cfg.dropout,
                                          rng=np.random.default_rng(cfg.seed))[0]
        tape.backward(scale(add(nll, scale(cyc, cycle_weight)), 1.0 / len(batch)))
    want = parameters(oracle)
    for name in ("captioner/proj/w", "cap_encoder/embedding", "de_decoder/w_out"):
        assert want[name].grad.any(), name
    for name, p in parameters(trained).items():
        assert p.grad.tobytes() == want[name].grad.tobytes(), name


# --- loss -----------------------------------------------------------------------

def batch_nll(rows, targets):
    """nll_loss of one record whose states are its (vocab,) logit rows,
    stacked into a (T, 1, vocab) tensor, through an identity output layer;
    PAD targets masked."""
    targets = np.array([targets])
    vocab = len(rows[0])
    return nll_loss(Tensor(np.stack(rows)[:, None]), Parameter(np.eye(vocab), "w_out"),
                    Parameter(np.zeros(vocab), "b_out"), targets, targets != PAD_ID)


def test_nll_zero_when_model_is_certain():
    # a logit row that puts probability ~1 on the target
    rows = []
    for _ in range(3):
        logits = np.full(6, -1e3)
        logits[4] = 0.0
        rows.append(logits)
    loss, count = batch_nll(rows, [4, 4, 4])
    assert count == 3
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_nll_uniform_model_gives_t_log_k():
    k, t = 7, 5
    rows = [np.zeros(k) for _ in range(t)]
    loss, _ = batch_nll(rows, [3] * t)
    assert loss.item() == pytest.approx(t * math.log(k), rel=1e-12)


def test_nll_matches_independent_summation():
    rng = np.random.default_rng(0)
    rows, targets, expected = [], [], 0.0
    for _ in range(6):
        logits = rng.standard_normal(9)
        target = int(rng.integers(0, 9))
        shifted = logits - logits.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        expected -= logp[target]
        rows.append(logits)
        targets.append(target)
    loss, _ = batch_nll(rows, targets)
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_nll_excludes_pad_positions():
    rows = [np.zeros(4) for _ in range(4)]
    full, n_full = batch_nll(rows, [1, 2, 1, 2])
    masked, n_masked = batch_nll(rows, [1, 2, PAD_ID, PAD_ID])
    assert (n_full, n_masked) == (4, 2)
    assert masked.item() == pytest.approx(full.item() / 2, rel=1e-12)
    with pytest.raises(DimensionError):
        batch_nll(rows, [1, 2])
    with pytest.raises(DataError):
        batch_nll(rows, [PAD_ID] * 4)


# --- config ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(patience=100, max_epochs=50).check()
    with pytest.raises(ConfigError):
        TrainConfig(dropout=1.0).check()
    with pytest.raises(ConfigError):
        TrainConfig(cycle_weight=-1.0).check()
    TrainConfig().check()


@pytest.mark.parametrize("name", ["learning_rate", "cycle_weight", "target_nll"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_settings_are_config_errors(name, value):
    # NaN compares false with everything: a NaN lambda would silently train
    # the lambda-0 baseline, a NaN learning rate fail mid-epoch
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value}).check()


# --- pretraining -------------------------------------------------------------------

def test_pretrain_rejects_empty_data():
    vocab = Vocabulary(["dog"])
    with pytest.raises(DataError):
        pretrain_part1([], vocab, 4, quick_cfg())


def test_pretrain_loss_decreases_and_is_deterministic(small_corpus):
    triples, en_vocab, _, _ = small_corpus
    pairs = pairs_from_triples(triples)

    def run():
        model, report = pretrain_part1(pairs, en_vocab, 32, quick_cfg())
        return model, [e.nll_per_token for e in report.epochs]

    model_a, curve_a = run()
    model_b, curve_b = run()
    assert curve_a == curve_b
    assert curve_a[-1] < curve_a[0]
    params_a = {k: p.data for k, p in parameters(model_a).items()}
    for k, p in parameters(model_b).items():
        assert p.data.tobytes() == params_a[k].tobytes()


def test_pretrain_accepts_superset_pair_collections(small_corpus):
    # pairs may outnumber the triples used later (extra monolingual captions)
    triples, en_vocab, _, _ = small_corpus
    base = pairs_from_triples(triples)
    extra = [p for p in pairs_from_triples(triples[:4])]
    model, report = pretrain_part1(base + extra, en_vocab, 32,
                                   quick_cfg(max_epochs=2, patience=2))
    assert len(report.epochs) == 2
    assert model.dims.en_vocab == len(en_vocab)


@pytest.mark.parametrize("stage", ["part1", "part2"])
@pytest.mark.parametrize("case", ["empty", "feature-dim"])
def test_a_bad_validation_set_is_refused_before_any_model_is_built(small_corpus,
                                                                  monkeypatch, stage, case):
    # either would otherwise fail only at the first validation, after
    # training: an empty set in the metric, an odd grid in the projection
    triples, en_vocab, de_vocab, _ = small_corpus
    cfg = quick_cfg()
    captioner = ImageCaptioner(cfg.dims(32, len(en_vocab)), 0)
    odd = replace(triples[0], image_id="odd", features=FeatureGrid(np.zeros((4, 5))))
    val = [] if case == "empty" else [triples[1], odd]

    def built(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(training, "ImageCaptioner", built)
    message = "non-empty" if case == "empty" else "'odd' has feature dim 5, expected 32"
    with pytest.raises(DataError, match=message):
        if stage == "part1":
            pretrain_part1(pairs_from_triples(triples), en_vocab, 32, cfg,
                           val_pairs=pairs_from_triples(val))
        else:
            train_part2(triples, captioner, en_vocab, de_vocab, cfg, val_triples=val)


# --- stage two ----------------------------------------------------------------------

def test_lambda_zero_matches_dual_attention_baseline(small_corpus):
    triples, en_vocab, de_vocab, _ = small_corpus
    pairs = pairs_from_triples(triples)
    cfg = quick_cfg(max_epochs=2, patience=2)
    captioner, _ = pretrain_part1(pairs, en_vocab, 32, cfg)

    def part2(cycle_weight):
        cfg2 = quick_cfg(max_epochs=3, patience=3, cycle_weight=cycle_weight)
        bundle, _ = train_part2(triples, captioner, en_vocab, de_vocab, cfg2)
        return {k: p.data.copy() for k, p in parameters(bundle).items()}

    dual_attn = part2(0.0)
    again = part2(0.0)
    with_cycle = part2(1.0)
    assert all(dual_attn[k].tobytes() == again[k].tobytes() for k in dual_attn)
    assert any(dual_attn[k].tobytes() != with_cycle[k].tobytes() for k in dual_attn)


@pytest.mark.parametrize("cycle_weight", [pytest.param(0.0, id="lambda0"),
                                          pytest.param(1.0, id="lambda1")])
def test_freeze_part1_keeps_stage_one_parameters_bit_identical(small_corpus, cycle_weight):
    # at lambda 1 the cycle loss, the one path that could reach part 1, is on
    triples, en_vocab, de_vocab, _ = small_corpus
    pairs = pairs_from_triples(triples)
    cfg = quick_cfg(max_epochs=2, patience=2)
    captioner, _ = pretrain_part1(pairs, en_vocab, 32, cfg)
    before = {k: p.data.copy() for k, p in parameters(captioner).items()}
    cfg2 = quick_cfg(max_epochs=3, patience=3, cycle_weight=cycle_weight, dropout=0.3,
                     freeze_part1=True)
    bundle, _ = train_part2(triples, captioner, en_vocab, de_vocab, cfg2)
    for k, p in parameters(bundle.captioner).items():
        assert p.data.tobytes() == before[k].tobytes()


def test_frozen_part1_gets_no_gradient(small_corpus):
    # Adam zeroes only the parameters it trains, so any gradient reaching a
    # frozen part-1 parameter would pile up over the batches
    triples, en_vocab, de_vocab, _ = small_corpus
    captioner, _ = pretrain_part1(pairs_from_triples(triples), en_vocab, 32,
                                  quick_cfg(max_epochs=1, patience=1))
    cfg = quick_cfg(max_epochs=1, patience=1, batch_size=6, dropout=0.3,
                    cycle_weight=1.0, freeze_part1=True)
    assert len(triples) == 16  # three batches
    bundle, _ = train_part2(triples, captioner, en_vocab, de_vocab, cfg)
    for name, p in parameters(bundle.captioner).items():
        assert not p.grad.any(), name
    assert any(p.grad.any() for p in parameters(bundle.cap_encoder, bundle.de_decoder).values())


def test_unfrozen_part1_adapts_under_cycle_loss(small_corpus):
    triples, en_vocab, de_vocab, _ = small_corpus
    pairs = pairs_from_triples(triples)
    captioner, _ = pretrain_part1(pairs, en_vocab, 32,
                                  quick_cfg(max_epochs=2, patience=2))
    before = {k: p.data.copy() for k, p in parameters(captioner).items()}
    cfg2 = quick_cfg(max_epochs=3, patience=3, cycle_weight=1.0)
    bundle, _ = train_part2(triples, captioner, en_vocab, de_vocab, cfg2)
    changed = [k for k, p in parameters(bundle.captioner).items()
               if p.data.tobytes() != before[k].tobytes()]
    assert changed


def test_stage_two_takes_its_sizes_from_the_captioner(tmp_path, small_corpus):
    # the config's sizes are stage one's; a bundle built at others would not load
    triples, en_vocab, de_vocab, _ = small_corpus
    captioner, _ = pretrain_part1(pairs_from_triples(triples), en_vocab, 32,
                                  quick_cfg(max_epochs=1, patience=1))
    cfg2 = quick_cfg(max_epochs=1, patience=1, embed_dim=8, attn_dim=12)
    bundle, _ = train_part2(triples, captioner, en_vocab, de_vocab, cfg2)
    assert bundle.dims == replace(captioner.dims, de_vocab=len(de_vocab))
    save_bundle(bundle, tmp_path / "bundle.ckpt")
    loaded = parameters(load_bundle(tmp_path / "bundle.ckpt"))
    for name, p in parameters(bundle).items():
        assert loaded[name].data.tobytes() == p.data.tobytes(), name


def test_patience_zero_stops_after_first_non_improving_epoch(small_corpus):
    triples, en_vocab, de_vocab, _ = small_corpus
    pairs = pairs_from_triples(triples)
    captioner, _ = pretrain_part1(pairs, en_vocab, 32,
                                  quick_cfg(max_epochs=1, patience=1))
    # validation runs every epoch; an untrained-ish model's CIDEr quickly
    # plateaus at 0, so the first non-improving epoch ends the run
    cfg2 = quick_cfg(max_epochs=30, patience=0, validate_every=1,
                     learning_rate=1e-5)
    _, report = train_part2(triples, captioner, en_vocab, de_vocab, cfg2)
    scores = [e.val_score for e in report.epochs]
    improving = [b > max(scores[:i + 1]) for i, b in enumerate(scores[1:])]
    assert len(report.epochs) < 30
    assert not improving[-1]  # stopped right after a non-improving epoch


def test_report_epochs_are_contiguous_and_written(tmp_path, small_corpus):
    triples, en_vocab, de_vocab, _ = small_corpus
    pairs = pairs_from_triples(triples)
    captioner, rep1 = pretrain_part1(pairs, en_vocab, 32,
                                     quick_cfg(max_epochs=3, patience=3))
    assert [e.epoch for e in rep1.epochs] == [1, 2, 3]
    rep1.write(tmp_path / "report.jsonl")
    lines = (tmp_path / "report.jsonl").read_text().splitlines()
    assert len(lines) == 4  # header + 3 epochs


def test_target_nll_stops_early(small_corpus):
    triples, en_vocab, _, _ = small_corpus
    pairs = pairs_from_triples(triples)
    _, report = pretrain_part1(pairs, en_vocab, 32,
                               quick_cfg(max_epochs=50, patience=50,
                                         target_nll=10.0))
    assert len(report.epochs) == 1  # random-caption loss is far below 10


# --- numeric faults name their epoch ----------------------------------------

def test_a_non_finite_gradient_names_its_epoch(monkeypatch, small_corpus):
    triples, en_vocab, _, _ = small_corpus
    real, calls = training._captioner_loss, []

    def poisoned(model, *args):
        # backward adds the batch's gradient to it, so Adam reads a NaN
        if not calls:
            model.decoder.b_out.grad[0] = np.nan
        calls.append(1)
        return real(model, *args)

    monkeypatch.setattr(training, "_captioner_loss", poisoned)
    with pytest.raises(NumericError, match=r"^epoch 1: adam: non-finite gradient for "
                                           r"parameter 'captioner/decoder/b_out'$"):
        pretrain_part1(pairs_from_triples(triples), en_vocab, 32, quick_cfg())


def test_a_non_finite_validation_names_its_epoch(monkeypatch, small_corpus):
    triples, en_vocab, _, _ = small_corpus
    real = training._validate_captioner

    def poisoned(model, *args):
        model.image_proj.w.data[0, 0] = np.nan
        return real(model, *args)

    monkeypatch.setattr(training, "_validate_captioner", poisoned)
    with pytest.raises(NumericError, match=r"^epoch 2: "):
        pretrain_part1(pairs_from_triples(triples), en_vocab, 32,
                       quick_cfg(validate_every=2))


# --- a fit keeps its heap ---------------------------------------------------

def test_a_fit_sets_glibc_mmap_and_trim_thresholds(monkeypatch, small_corpus):
    triples, en_vocab, _, _ = small_corpus
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    pretrain_part1(pairs_from_triples(triples), en_vocab, 32,
                   quick_cfg(max_epochs=1, patience=1))
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_a_fit_without_mallopt_trains_the_same_parameters(monkeypatch, tmp_path,
                                                          small_corpus):
    triples, en_vocab, _, _ = small_corpus

    def fit(name):
        model, _ = pretrain_part1(pairs_from_triples(triples), en_vocab, 32,
                                  quick_cfg(max_epochs=2, patience=2))
        models.save_captioner(model, tmp_path / name)
        return (tmp_path / name).read_bytes()

    kept = fit("kept.ckpt")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert fit("no-mallopt.ckpt") == kept


# One batch of 32 long-caption records at the default dims, part 1 unfrozen,
# lambda 1, dropout 0.5, for 20 epochs; prints the median minor page faults
# per step after the first epoch, a step's faults running from its start to
# the next step's.
FAULT_PROBE = """
import resource
import numpy as np
from cyclecap import training
from cyclecap.models import ImageCaptioner
from conftest import make_corpus

triples, en_vocab, de_vocab, _ = make_corpus(seed=1, n_images=32, objects_per_image=4,
                                             extra_fillers=(0, 10))
cfg = training.TrainConfig(batch_size=32, max_epochs=20, patience=20, validate_every=20,
                           dropout=0.5, cycle_weight=1.0, learning_rate=1e-2, seed=1)
captioner = ImageCaptioner(cfg.dims(triples[0].features.dim, len(en_vocab)), 1)
starts, real = [], training._stage2_loss

def counted(*args):
    starts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return real(*args)

training._stage2_loss = counted
training.train_part2(triples, captioner, en_vocab, de_vocab, cfg, val_triples=triples[:1])
faults = np.diff(starts[1:])
assert len(faults) == 18
print(np.median(faults))
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the fault count is glibc's malloc on Linux")
def test_a_full_batch_stage_two_step_takes_no_page_faults():
    # Each step frees the arrays of its tape. A process that hands them back
    # to the kernel faults them in again on the next step: about 1,000-1,600
    # minor faults per step at this shape. The probe runs in a fresh
    # interpreter, since the heap this one has grown in earlier tests would
    # decide what the count measures.
    path = os.pathsep.join([str(Path(training.__file__).parents[1]),
                            str(Path(__file__).parent)])
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True,
                           text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert probe.returncode == 0, probe.stderr
    assert float(probe.stdout) <= 50
