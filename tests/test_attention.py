import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.attention import AttentionLayer, attend
from cyclecap.checks import check_gradients
from cyclecap.errors import DataError, DimensionError
from cyclecap.tensor import Parameter, Tensor, parameters, prepare

from _reference import (add, composed_prepare, mul, pick, ref_attend,
                        step_additive_attention, sum_all)


def make_layer(seed=0, key_dim=5, query_dim=4, attn_dim=6):
    return AttentionLayer(np.random.default_rng(seed), key_dim=key_dim,
                          query_dim=query_dim, attn_dim=attn_dim, prefix="attn")


def prepared(layer, rows, mask):
    """The layer's checked keys over ``rows``, prepared for decoding."""
    return prepare(layer.keys(rows, mask))


def all_real(rows):
    """The (B, K) mask of (B, K, d) key rows none of which is padding."""
    return np.ones(rows.shape[:2], dtype=bool)


def test_identical_keys_give_uniform_weights():
    layer = make_layer()
    keys = Tensor(np.tile(np.linspace(-1, 1, 5), (1, 7, 1)))
    weights, _ = attend(layer, prepared(layer, keys, all_real(keys)), np.ones((1, 4)))
    np.testing.assert_allclose(weights[0], np.full(7, 1.0 / 7), atol=1e-12)


def test_dominant_score_selects_its_key():
    # force a near-one-hot distribution by separating one key's score
    layer = make_layer(seed=1)
    layer.w_key.data = np.zeros_like(layer.w_key.data)
    layer.w_query.data = np.zeros_like(layer.w_query.data)
    layer.combine.data = np.full_like(layer.combine.data, 30.0)
    layer.b.data = np.zeros_like(layer.b.data)
    keys = np.zeros((4, 5))
    keys[2] = 0.2  # only key 2 produces a positive score
    layer.w_key.data[:, :] = np.eye(5, layer.w_key.shape[1])
    rows = Tensor(keys[None])
    weights, context = attend(layer, prepared(layer, rows, all_real(rows)),
                              np.zeros((1, 4)))
    assert weights[0, 2] > 0.999
    np.testing.assert_allclose(context[0], keys[2], atol=1e-3)


def test_matches_independent_formula_evaluation():
    rng = np.random.default_rng(2)
    layer = make_layer(seed=3)
    keys = rng.standard_normal((6, 5))
    query = rng.standard_normal(4)
    rows = Tensor(keys[None])
    weights, context = attend(layer, prepared(layer, rows, all_real(rows)), query[None])
    ref_w, ref_ctx = ref_attend(layer, keys, query)
    np.testing.assert_allclose(weights[0], ref_w, atol=1e-14)
    np.testing.assert_allclose(context[0], ref_ctx, atol=1e-14)


def test_input_validation():
    layer = make_layer()
    with pytest.raises(DataError):
        prepared(layer, Tensor(np.zeros((1, 0, 5))), np.ones((1, 0), dtype=bool))
    with pytest.raises(DimensionError):
        prepared(layer, Tensor(np.zeros((1, 3, 4))), np.ones((1, 3), dtype=bool))
    with pytest.raises(DimensionError):
        prepared(layer, Tensor(np.zeros(5)), np.ones(5, dtype=bool))
    with pytest.raises(DimensionError):
        attend(layer, prepared(layer, Tensor(np.zeros((1, 3, 5))), np.ones((1, 3), dtype=bool)),
               np.zeros((1, 5)))


def test_one_record_of_keys_broadcasts_over_query_rows():
    # a beam's live hypotheses read one image's keys as they are
    rng = np.random.default_rng(6)
    layer = make_layer(seed=6)
    keys = prepared(layer, Tensor(rng.standard_normal((1, 4, 5))),
                         np.array([[True, False, True, True]]))
    queries = rng.standard_normal((3, 4))
    weights, context = attend(layer, keys, queries)
    for row, query in enumerate(queries):
        one_w, one_ctx = attend(layer, keys, query[None])
        np.testing.assert_array_equal(weights[row], one_w[0])
        np.testing.assert_array_equal(context[row], one_ctx[0])
    assert (weights[:, 1] == 0.0).all()
    two = prepared(layer, Tensor(rng.standard_normal((2, 4, 5))), np.ones((2, 4), dtype=bool))
    with pytest.raises(DimensionError, match="attend"):
        attend(layer, two, queries)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_weights_are_distribution_and_context_in_hull(seed, n_keys):
    rng = np.random.default_rng(seed)
    layer = make_layer(seed=seed)
    keys = rng.uniform(-5, 5, size=(n_keys, 5))
    rows = Tensor(keys[None])
    weights, context = attend(layer, prepared(layer, rows, all_real(rows)),
                              rng.uniform(-5, 5, size=(1, 4)))
    w = weights[0]
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-6
    ctx = context[0]
    assert (ctx >= keys.min(axis=0) - 1e-9).all()
    assert (ctx <= keys.max(axis=0) + 1e-9).all()


def test_gradients_of_weights_and_context():
    # the decode op has no backward rule; its per-step record is the oracle
    # that the teacher-forced unroll is checked against, so check that here
    rng = np.random.default_rng(4)
    layer = make_layer(seed=5)
    keys = Parameter(rng.standard_normal((1, 6, 5)), "keys")
    query = Parameter(rng.standard_normal((1, 4)), "query")
    probe = Parameter(rng.standard_normal(5), "probe")

    def build():
        weights, context = step_additive_attention(
            composed_prepare(layer.keys(keys, all_real(keys))), query)
        return add(sum_all(pick(weights, [2])), sum_all(mul(context, probe)))

    result = check_gradients("attend", build,
                             dict(parameters(layer), keys=keys, query=query, probe=probe))
    assert result.max_error < 1e-3
