"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Absolute corpus scores from the original experiments need the real datasets
and a CNN feature extractor, so the gate is property-based instead: exact
goldens, oracle agreement, gradient checks, determinism, and a directional
alignment effect, each with an explicit runtime budget where one is stated.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cyclecap import checks, synth
from cyclecap.cli import main as cli_main
from cyclecap.cycle import indirect_attention, toy_alignment_record
from cyclecap.data import TripleRecord, Vocabulary, pairs_from_triples
from cyclecap.evaluation import alignment_score, bleu4, cider
from cyclecap.inference import beam_decode
from cyclecap.models import teacher_forced_records
from cyclecap.training import TrainConfig, pretrain_part1, train_part2

from _reference import exhaustive_best, per_row, ref_bleu4, ref_cider
from conftest import make_corpus


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number}: FAIL - {description}", flush=True)
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}", flush=True)


def test_criterion_01_toy_composed_attention_golden():
    with criterion(1, "toy composed attention equals 0.75 exactly"):
        start = time.monotonic()
        record = toy_alignment_record()
        value = indirect_attention(record)[0, 1]
        assert abs(value - 0.75) < 1e-12
        assert record.de_to_regions[0, 1] == 0.9
        assert time.monotonic() - start < 1.0


def test_criterion_02_chain_identity_oracle():
    with criterion(2, "chain identity on 100 factorized joints; perturbation "
                      "flagged"):
        start = time.monotonic()
        summary = checks.oracle_suite(seed=0, trials=100)
        assert summary.identity_max_discrepancy < 1e-12
        assert summary.perturbed_flagged
        assert summary.factorized_cycle_loss < 1e-12
        assert time.monotonic() - start < 5.0


def test_criterion_03_gradient_suite():
    with criterion(3, "finite-difference suite over the fused ops, decoder "
                      "unrolls, losses, composed graph"):
        start = time.monotonic()
        results = checks.gradient_suite(seed=0)
        names = {r.name for r in results}
        assert {"cycle/frobenius", "training/stage2-composed",
                "fused/decoder_unroll-soft", "fused/decoder_unroll-dual",
                "fused/project", "fused/encode", "fused/nll-dropout"} <= names
        # the softmax, stack and unstack are oracles of the tests, and so are
        # the primitives whose work the fused ops took in; the GRU step runs
        # only inside the encoder, the initial state inside the decoder's
        assert not names & {"primitive/masked_mean", "primitive/masked_softmax",
                            "primitive/masked_softmax-masked-key", "primitive/stack",
                            "fused/unstack-unused-slice", "fused/gru_cell", "cell/gru",
                            "primitive/masked_mean-padded-row", "primitive/dropout",
                            "primitive/pick", "primitive/transpose", "models/init_state",
                            "primitive/log_softmax", "primitive/matmul", "primitive/add",
                            "primitive/scale", "primitive/concat", "primitive/tanh",
                            "primitive/embedding-lookup", "fused/gru_unroll",
                            "fused/gru_unroll-reverse"}
        assert len(results) == 10
        for result in results:
            assert result.ok(1e-3), (result.name, result.max_error)
        assert time.monotonic() - start < 120.0


def test_criterion_04_stochasticity_of_attention_matrices():
    with criterion(4, "1000 forward passes yield row-stochastic attention "
                      "matrices, closed under composition"):
        passes = 0
        for bundle_seed in range(10):
            rng = np.random.default_rng(bundle_seed)
            regions = int(rng.integers(2, 7))
            from conftest import tiny_bundle
            bundle = tiny_bundle(seed=bundle_seed, regions=regions,
                                 feature_dim=3)
            for _ in range(100):
                from cyclecap.data import FeatureGrid
                grid = FeatureGrid(rng.standard_normal((regions, 3)))
                en = tuple([1] + [int(x) for x in rng.integers(4, 8, size=3)] + [2])
                de = tuple([1] + [int(x) for x in rng.integers(4, 9, size=2)] + [2])
                (record,) = teacher_forced_records(
                    bundle, [TripleRecord("img", grid, en, de)])
                for m in (record.en_to_regions, record.de_to_regions,
                          record.de_to_en):
                    assert (m >= 0).all()
                    assert np.abs(m.sum(axis=1) - 1.0).max() < 1e-6
                composed = indirect_attention(record)
                assert (composed >= -1e-15).all()
                assert np.abs(composed.sum(axis=1) - 1.0).max() < 1e-6
                passes += 1
        assert passes == 1000


def test_criterion_05_overfit_reproduction():
    with criterion(5, "16-triple overfit: per-token nll < 0.1, cycle loss "
                      "halved, under 5 minutes"):
        start = time.monotonic()
        triples, en_vocab, de_vocab, _ = make_corpus(seed=7, n_images=16,
                                                     regions=16, feature_dim=32)
        base = dict(learning_rate=2e-3, batch_size=16, dropout=0.0, seed=11,
                    validate_every=1000, max_epochs=500, patience=500,
                    hidden_dim=64, embed_dim=64, attn_dim=64, proj_dim=64)
        captioner, rep1 = pretrain_part1(pairs_from_triples(triples), en_vocab,
                                         32, TrainConfig(target_nll=0.05, **base))
        bundle, rep2 = train_part2(triples, captioner, en_vocab, de_vocab,
                                   TrainConfig(target_nll=0.08, cycle_weight=1.0,
                                               **base))
        elapsed = time.monotonic() - start
        assert len(rep1.epochs) <= 500 and len(rep2.epochs) <= 500
        assert rep1.epochs[-1].nll_per_token < 0.1
        assert rep2.epochs[-1].nll_per_token < 0.1
        cycles = [e.cycle for e in rep2.epochs]
        assert cycles[-1] < 0.5 * cycles[0], (cycles[0], cycles[-1])
        assert elapsed < 300.0, elapsed


TINY_CLI = ["--min-freq", "1", "--max-epochs", "2", "--patience", "2",
            "--dropout", "0.0", "--batch-size", "8", "--learning-rate", "2e-3",
            "--validate-every", "5"]
# stage one's sizes; train builds stage two at the sizes of its --part1
TINY_SIZES = ["--proj-dim", "16", "--embed-dim", "16", "--hidden-dim", "16",
              "--attn-dim", "16"]


def test_criterion_06_baseline_is_exact_special_case(tmp_path):
    with criterion(6, "cycle weight 0 reproduces the dual-attention baseline "
                      "checkpoint bit-for-bit"):
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--out-dir", str(data), "--seed", "5",
                         "--n-images", "8"]) == 0
        part1 = tmp_path / "part1"
        assert cli_main(["pretrain", "--manifest", str(data / "manifest.jsonl"),
                         "--out-dir", str(part1), "--seed", "5", *TINY_CLI,
                         *TINY_SIZES]) == 0

        def train(tag, lam):
            out = tmp_path / tag
            assert cli_main(["train", "--manifest", str(data / "manifest.jsonl"),
                             "--part1", str(part1 / "part1.ckpt"),
                             "--out-dir", str(out), "--seed", "5",
                             "--lambda", lam, *TINY_CLI]) == 0
            return (out / "bundle.ckpt").read_bytes()

        dual_attn = train("dual-attn", "0")
        ablated = train("cycle-attn-l0", "0")
        full = train("cycle-attn", "1")
        assert ablated == dual_attn
        assert full != dual_attn


def test_criterion_07_alignment_gain_over_five_seeds():
    with criterion(7, "cycle penalty raises mean object-word region alignment "
                      "across 5 seeds"):
        start = time.monotonic()
        baseline_scores, cycle_scores = [], []
        for seed in (1, 2, 3, 4, 5):
            images = synth.generate(synth.SynthSpec(seed=seed, n_images=16,
                                                    objects_per_image=2))
            en_vocab = Vocabulary.build([im.en_tokens for im in images], 1)
            de_vocab = Vocabulary.build([im.de_tokens for im in images], 1)
            triples = [TripleRecord(im.image_id, im.grid,
                                    tuple(en_vocab.encode(im.en_tokens)),
                                    tuple(de_vocab.encode(im.de_tokens)))
                       for im in images]
            alignments = {im.image_id: list(im.objects) for im in images}
            base = dict(learning_rate=2e-3, batch_size=16, dropout=0.0,
                        seed=seed, validate_every=1000)
            captioner, _ = pretrain_part1(
                pairs_from_triples(triples), en_vocab, 32,
                TrainConfig(max_epochs=250, patience=250, target_nll=0.15,
                            **base))
            for cycle_weight, bucket in ((0.0, baseline_scores),
                                         (1.0, cycle_scores)):
                cfg = TrainConfig(max_epochs=40, patience=40,
                                  cycle_weight=cycle_weight, freeze_part1=True,
                                  **base)
                bundle, _ = train_part2(triples, captioner, en_vocab, de_vocab,
                                        cfg)
                bucket.append(alignment_score(bundle, triples, alignments))
        mean_baseline = float(np.mean(baseline_scores))
        mean_cycle = float(np.mean(cycle_scores))
        elapsed = time.monotonic() - start
        assert mean_cycle > mean_baseline, (baseline_scores, cycle_scores)
        assert elapsed < 1800.0, elapsed


def test_criterion_08_metric_goldens_and_oracles():
    with criterion(8, "BLEU hand value 77.88; BLEU and CIDEr match brute-force "
                      "oracles on 20 corpora to 1e-9"):
        hand = bleu4([["a", "b", "c", "d"]], [[["a", "b", "c", "d", "e"]]])
        assert hand == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0), abs=1e-9)
        assert hand == pytest.approx(77.88, abs=0.01)
        vocab = ["a", "dog", "cat", "runs", "sits", "red", "blue", "the",
                 "park", "ball", "near", "green"]
        for trial in range(20):
            rng = np.random.default_rng(trial)
            candidates, references = [], []
            for _ in range(10):
                ref = [vocab[i] for i in rng.integers(0, len(vocab),
                                                      size=rng.integers(4, 9))]
                cand = ref[:int(rng.integers(2, len(ref) + 1))] \
                    if rng.random() < 0.7 else \
                    [vocab[i] for i in rng.integers(0, len(vocab),
                                                    size=rng.integers(3, 8))]
                candidates.append(cand)
                references.append([ref])
            assert bleu4(candidates, references) == pytest.approx(
                ref_bleu4(candidates, references), abs=1e-9)
            assert cider(candidates, references) == pytest.approx(
                ref_cider(candidates, references), abs=1e-9)


def test_criterion_09_beam_search_oracle():
    with criterion(9, "beam search equals exhaustive enumeration on toy "
                      "models; beam 1 equals greedy"):
        checked = 0
        for vocab in (2, 3, 4):
            for max_len in (1, 2, 3, 4, 5):
                for trial in range(4):
                    rng = np.random.default_rng(1000 * vocab + 10 * max_len
                                                + trial)
                    probs = rng.random((vocab, vocab)) + 0.05
                    probs /= probs.sum(axis=1, keepdims=True)
                    table = np.log(probs)
                    eos = vocab - 1

                    def step(state, prev):
                        return table[prev], state, ()

                    wide = beam_decode(per_row(step), None, beam_size=4 ** 5,
                                       max_len=max_len, bos_id=0, eos_id=eos)
                    oracle = exhaustive_best(step, None, max_len, 0, eos)
                    if oracle is None:
                        assert wide.truncated
                    else:
                        lp, seq = oracle
                        assert wide.tokens == seq
                        assert wide.logprob == pytest.approx(lp, rel=1e-12)

                    narrow = beam_decode(per_row(step), None, beam_size=1,
                                         max_len=max_len, bos_id=0, eos_id=eos)
                    tokens, prev = [], 0
                    for _ in range(max_len):
                        nxt = int(np.argmax(table[prev]))
                        tokens.append(nxt)
                        prev = nxt
                        if nxt == eos:
                            break
                    assert list(narrow.tokens) == tokens
                    checked += 1
        assert checked == 60


def _tree_bytes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_criterion_10_manifest_reruns_are_byte_identical(tmp_path):
    with criterion(10, "every subcommand rerun from its manifest reproduces "
                       "outputs byte-for-byte"):
        data = tmp_path / "data"
        assert cli_main(["synth-data", "--out-dir", str(data), "--seed", "9",
                         "--n-images", "6"]) == 0
        part1 = tmp_path / "part1"
        assert cli_main(["pretrain", "--manifest", str(data / "manifest.jsonl"),
                         "--out-dir", str(part1), "--seed", "2", *TINY_CLI,
                         *TINY_SIZES]) == 0
        part2 = tmp_path / "part2"
        assert cli_main(["train", "--manifest", str(data / "manifest.jsonl"),
                         "--part1", str(part1 / "part1.ckpt"),
                         "--out-dir", str(part2), "--seed", "2",
                         "--lambda", "1.0", *TINY_CLI]) == 0
        decoded = tmp_path / "decoded"
        assert cli_main(["infer", "--checkpoint", str(part2 / "bundle.ckpt"),
                         "--manifest", str(data / "manifest.jsonl"),
                         "--out-dir", str(decoded), "--beam-size", "2",
                         "--max-len", "8"]) == 0
        scored = tmp_path / "scored"
        assert cli_main(["eval", "--candidates", str(decoded / "captions.jsonl"),
                         "--manifest", str(data / "manifest.jsonl"),
                         "--out-dir", str(scored)]) == 0
        attn = tmp_path / "attn"
        assert cli_main(["attn-export", "--checkpoint",
                         str(part2 / "bundle.ckpt"),
                         "--manifest", str(data / "manifest.jsonl"),
                         "--out-dir", str(attn), "--limit", "2",
                         "--use-gold-captions"]) == 0
        oracle = tmp_path / "oracle"
        assert cli_main(["oracle-check", "--out-dir", str(oracle),
                         "--trials", "30"]) == 0

        for original in (data, part1, part2, decoded, scored, attn, oracle):
            rerun = tmp_path / f"{original.name}-rerun"
            assert cli_main([json.loads(
                (original / "manifest.json").read_text())["subcommand"],
                "--from-manifest", str(original / "manifest.json"),
                "--out-dir", str(rerun)]) == 0
            assert _tree_bytes(rerun) == _tree_bytes(original), original.name
