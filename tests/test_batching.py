"""A padded batch is the sum of its records, and padding never leaks.

Both stages build one graph per batch over (B, ·) matrices. At dropout 0 the
batch's loss must equal the sum of its records' losses at B = 1, with the
same parameter gradients, and no value in a padded position (a token id past
EOS, the features of a padded region) may reach the loss or a gradient, nor
may the padding's width: PAD columns appended to the captions a batch's
decoder reads leave the loss and every gradient bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.data import PAD_ID, Batch, FeatureGrid, PairRecord, TripleRecord, make_batch
from cyclecap.models import ImageCaptioner, ModelBundle, frozen_part1
from cyclecap.tensor import Tape, parameters
from cyclecap.training import TrainConfig, _captioner_loss, _stage2_loss

from conftest import random_ids

DIMS = dict(proj_dim=6, embed_dim=5, hidden_dim=7, attn_dim=4)


def triples(seed=0):
    """Four records mixing 16- and 9-region grids and unequal caption
    lengths, so every padding mask is exercised."""
    rng = np.random.default_rng(seed)
    shapes = [(16, 6, 3), (9, 2, 5), (16, 4, 1), (9, 3, 4)]
    return [TripleRecord(f"im{i}", FeatureGrid(rng.standard_normal((regions, 8))),
                         random_ids(rng, 10, en_len), random_ids(rng, 11, de_len))
            for i, (regions, en_len, de_len) in enumerate(shapes)]


def bundle(seed=3):
    cfg = TrainConfig(seed=seed, **DIMS)
    return ModelBundle(ImageCaptioner(cfg.dims(8, 10), seed), 11, seed)


def loss_and_grads(build, params):
    """The loss of the (record, weight) terms ``build()`` returns first, and
    every parameter's gradient of it: the terms seed the backward."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        terms = build()[0]
        tape.backward(terms)
    return (sum(weight * out.item() for out, weight in terms),
            {k: p.grad.copy() for k, p in params.items()})


def stage_losses(model, cycle_weight, freeze_part1):
    """(batch -> loss tuple, parameters it trains) for one stage's setup."""
    if cycle_weight is None:
        captioner = model.captioner
        return (lambda b: _captioner_loss(captioner, b),
                parameters(captioner))
    params = parameters(model.cap_encoder, model.de_decoder)
    if not freeze_part1:
        params.update(parameters(model.captioner))
        return lambda b: _stage2_loss(model, b, cycle_weight), params
    english = cycle_weight > 0.0
    return (lambda b: _stage2_loss(model, b, cycle_weight, part1=frozen_part1(
        model.captioner, b, english=english)), params)


SETUPS = [
    pytest.param(None, False, id="stage1"),
    pytest.param(0.0, False, id="stage2-lambda0"),
    pytest.param(1.0, False, id="stage2-lambda1"),
    pytest.param(0.0, True, id="stage2-lambda0-frozen"),
    pytest.param(1.0, True, id="stage2-lambda1-frozen"),
]


def records_for(cycle_weight):
    recs = triples()
    if cycle_weight is None:
        return [PairRecord(r.image_id, r.features, r.en_ids) for r in recs]
    return recs


@pytest.mark.parametrize("cycle_weight, freeze_part1", SETUPS)
def test_batch_loss_and_gradients_equal_the_sum_of_its_records(cycle_weight,
                                                                freeze_part1):
    model = bundle()
    loss_fn, params = stage_losses(model, cycle_weight, freeze_part1)
    recs = records_for(cycle_weight)
    batch = make_batch(recs)
    assert batch.features.shape[1] == 16 and not batch.region_mask.all()
    assert not batch.en_mask.all()

    total, grads = loss_and_grads(lambda: loss_fn(batch), params)
    singles = [loss_and_grads(lambda r=r: loss_fn(make_batch([r])), params)
               for r in recs]
    assert total == pytest.approx(sum(s[0] for s in singles), rel=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, sum(s[1][name] for s in singles),
                                   rtol=1e-9, atol=1e-12, err_msg=name)
    # the parts of the loss tuple sum over records too
    parts = loss_fn(batch)
    single_parts = [loss_fn(make_batch([r])) for r in recs]
    assert parts[2] == sum(s[2] for s in single_parts)
    assert parts[1] == pytest.approx(sum(s[1] for s in single_parts), rel=1e-12)
    if cycle_weight:
        assert parts[3] == pytest.approx(sum(s[3] for s in single_parts), rel=1e-12)
    if freeze_part1:
        for name, p in parameters(model.captioner).items():
            assert not p.grad.any(), name


def with_padding_changed(batch, rng):
    """The same batch with every padded token id and padded region replaced."""
    features = batch.features.copy()
    features[~batch.region_mask] = rng.uniform(-50, 50, size=features[~batch.region_mask].shape)
    changed = {"features": features}
    for field in ("en", "de"):
        ids = getattr(batch, f"{field}_ids")
        if ids is None:
            continue
        ids = ids.copy()
        mask = getattr(batch, f"{field}_mask")
        ids[~mask] = rng.integers(3, 10, size=int((~mask).sum()))
        changed[f"{field}_ids"] = ids
    return type(batch)(**{**batch.__dict__, **changed})


@pytest.mark.parametrize("cycle_weight, freeze_part1", SETUPS)
def test_padded_values_leave_loss_and_gradients_bit_identical(cycle_weight,
                                                              freeze_part1):
    model = bundle(seed=5)
    loss_fn, params = stage_losses(model, cycle_weight, freeze_part1)
    batch = make_batch(records_for(cycle_weight))
    other = with_padding_changed(batch, np.random.default_rng(1))
    assert (other.features != batch.features).any()
    assert (other.en_ids != batch.en_ids).any()
    loss_a, grads_a = loss_and_grads(lambda: loss_fn(batch), params)
    loss_b, grads_b = loss_and_grads(lambda: loss_fn(other), params)
    assert loss_a == loss_b
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name


def test_dropout_draws_are_one_mask_per_step_and_rerun_identically():
    model = bundle(seed=7)
    batch = make_batch(triples(seed=2))
    params = parameters(model)

    def run():
        rng = np.random.default_rng(11)
        return loss_and_grads(lambda: _stage2_loss(model, batch, 1.0, 0.5, rng=rng),
                              params)

    loss_a, grads_a = run()
    loss_b, grads_b = run()
    assert loss_a == loss_b
    assert all(grads_a[k].tobytes() == grads_b[k].tobytes() for k in grads_a)


def with_pad_columns(batch: Batch, extra: int) -> Batch:
    """``batch`` with ``extra`` all-PAD columns appended to the captions its
    decoder reads: the German ones of triples, else the English ones."""
    field = "en" if batch.de_ids is None else "de"
    ids, mask = getattr(batch, f"{field}_ids"), getattr(batch, f"{field}_mask")
    return type(batch)(**{**batch.__dict__,
                          f"{field}_ids": np.pad(ids, ((0, 0), (0, extra)),
                                                 constant_values=PAD_ID),
                          f"{field}_mask": np.pad(mask, ((0, 0), (0, extra)))})


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(setup=st.sampled_from([(None, False), (1.0, False), (0.0, False), (1.0, True)]),
       extra=st.integers(1, 3))
def test_pad_columns_leave_loss_and_gradients_bit_identical(setup, extra):
    # a batch whose decoded captions end in PAD columns is the same batch
    loss_fn, params = stage_losses(bundle(seed=4), *setup)
    batch = make_batch(records_for(setup[0]))
    loss_a, grads_a = loss_and_grads(lambda: loss_fn(batch), params)
    loss_b, grads_b = loss_and_grads(lambda: loss_fn(with_pad_columns(batch, extra)), params)
    assert loss_a == loss_b
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
