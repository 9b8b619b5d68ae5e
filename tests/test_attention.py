import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.attention import AttentionLayer, attend
from cyclecap.checks import check_gradients
from cyclecap.errors import DataError, DimensionError
from cyclecap.tensor import Parameter, Tensor, add, mul, pick, sum_all

from _reference import ref_attend, step_additive_attention


def make_layer(seed=0, key_dim=5, query_dim=4, attn_dim=6):
    return AttentionLayer(np.random.default_rng(seed), key_dim=key_dim,
                          query_dim=query_dim, attn_dim=attn_dim, prefix="attn")


def test_identical_keys_give_uniform_weights():
    layer = make_layer()
    keys = Tensor(np.tile(np.linspace(-1, 1, 5), (1, 7, 1)))
    out = attend(layer, layer.prepare(keys), Tensor(np.ones((1, 4))))
    np.testing.assert_allclose(out.weights.data[0], np.full(7, 1.0 / 7), atol=1e-12)


def test_dominant_score_selects_its_key():
    # force a near-one-hot distribution by separating one key's score
    layer = make_layer(seed=1)
    layer.w_key.data = np.zeros_like(layer.w_key.data)
    layer.w_query.data = np.zeros_like(layer.w_query.data)
    layer.combine.data = np.full_like(layer.combine.data, 30.0)
    layer.b.data = np.zeros_like(layer.b.data)
    keys = np.zeros((4, 5))
    keys[2] = 0.2  # only key 2 produces a positive score
    layer.w_key.data[:, :] = np.eye(5, layer.attn_dim)
    out = attend(layer, layer.prepare(Tensor(keys[None])), Tensor(np.zeros((1, 4))))
    assert out.weights.data[0, 2] > 0.999
    np.testing.assert_allclose(out.context.data[0], keys[2], atol=1e-3)


def test_matches_independent_formula_evaluation():
    rng = np.random.default_rng(2)
    layer = make_layer(seed=3)
    keys = rng.standard_normal((6, 5))
    query = rng.standard_normal(4)
    out = attend(layer, layer.prepare(Tensor(keys[None])), Tensor(query[None]))
    ref_w, ref_ctx = ref_attend(layer, keys, query)
    np.testing.assert_allclose(out.weights.data[0], ref_w, atol=1e-14)
    np.testing.assert_allclose(out.context.data[0], ref_ctx, atol=1e-14)


def test_input_validation():
    layer = make_layer()
    with pytest.raises(DataError):
        layer.prepare(Tensor(np.zeros((1, 0, 5))))
    with pytest.raises(DimensionError):
        layer.prepare(Tensor(np.zeros((1, 3, 4))))
    with pytest.raises(DimensionError):
        layer.prepare(Tensor(np.zeros(5)))
    with pytest.raises(DimensionError):
        attend(layer, layer.prepare(Tensor(np.zeros((1, 3, 5)))), Tensor(np.zeros((1, 5))))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_weights_are_distribution_and_context_in_hull(seed, n_keys):
    rng = np.random.default_rng(seed)
    layer = make_layer(seed=seed)
    keys = rng.uniform(-5, 5, size=(n_keys, 5))
    out = attend(layer, layer.prepare(Tensor(keys[None])),
                 Tensor(rng.uniform(-5, 5, size=(1, 4))))
    w = out.weights.data[0]
    assert (w >= 0).all()
    assert abs(w.sum() - 1.0) < 1e-6
    ctx = out.context.data[0]
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
        k = layer.prepare(keys)
        weights, context = step_additive_attention(k.projected, k.rows, k.mask, query,
                                                   k.w_query_t, layer.combine)
        return add(sum_all(pick(weights, [2])), sum_all(mul(context, probe)))

    result = check_gradients("attend", build,
                             dict(layer.named(), keys=keys, query=query, probe=probe))
    assert result.max_error < 1e-3
