"""Both training stages end on the parameters of their best validated epoch.

Each setup below was picked so that validation CIDEr peaks before the last
epoch. A rerun capped at that epoch ends on the same parameters without any
restore, so the two runs must agree bit for bit.
"""

from dataclasses import replace

import pytest

from cyclecap.data import pairs_from_triples
from cyclecap.tensor import parameters
from cyclecap.training import TrainConfig, pretrain_part1, train_part2


def cfg(**kwargs):
    defaults = dict(max_epochs=8, patience=8, dropout=0.3, batch_size=8,
                    learning_rate=2e-2, seed=3, validate_every=1,
                    hidden_dim=16, embed_dim=16, attn_dim=16, proj_dim=16)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def capped(config: TrainConfig, best_epoch: int) -> TrainConfig:
    return replace(config, max_epochs=best_epoch,
                   patience=min(config.patience, best_epoch))


def assert_same_parameters(a, b):
    assert a.keys() == b.keys()
    for k, p in a.items():
        assert p.data.tobytes() == b[k].data.tobytes(), k


@pytest.fixture(scope="module")
def stage_one(small_corpus):
    triples, en_vocab, _, _ = small_corpus
    pairs = pairs_from_triples(triples)
    config = cfg(max_epochs=10, patience=10)
    model, report = pretrain_part1(pairs, en_vocab, 32, config)
    return pairs, config, model, report


def test_pretrain_restores_best_epoch(small_corpus, stage_one):
    _, en_vocab, _, _ = small_corpus
    pairs, config, model, report = stage_one
    assert 1 < report.best_epoch < len(report.epochs)
    assert report.best_score > 0.0
    rerun, rerun_report = pretrain_part1(pairs, en_vocab, 32,
                                         capped(config, report.best_epoch))
    assert rerun_report.best_epoch == report.best_epoch
    assert_same_parameters(parameters(model), parameters(rerun))


def test_train_part2_restores_best_epoch(small_corpus, stage_one):
    triples, en_vocab, de_vocab, _ = small_corpus
    _, _, captioner, _ = stage_one
    # unfrozen stage one, cycle loss on: the restore covers both stages
    config = cfg(learning_rate=3e-2, cycle_weight=1.0)
    bundle, report = train_part2(triples, captioner, en_vocab, de_vocab, config)
    assert 1 < report.best_epoch < len(report.epochs)
    assert report.best_score > 0.0
    rerun, rerun_report = train_part2(triples, captioner, en_vocab, de_vocab,
                                      capped(config, report.best_epoch))
    assert rerun_report.best_epoch == report.best_epoch
    assert_same_parameters(parameters(bundle), parameters(rerun))
