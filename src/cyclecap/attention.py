"""Additive soft attention: MLP scorer, softmax weights, weighted-sum context.

The same layer is instantiated three times in the full model (English
decoder over image regions, German decoder over image regions, German
decoder over English caption states), each with its own parameters.

A decoder attends over the same key rows at every step, so the key side of
the score, ``keys @ w_key + b``, is computed once per sequence by
``AttentionLayer.prepare`` (additive attention as in Bahdanau et al., 2015);
each step adds only its query projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import init
from .errors import DataError, DimensionError
from .tensor import Parameter, Tensor, add, matmul, softmax, tanh


class AttentionLayer:
    """Scorer parameters for additive attention over a fixed key dimension.

    Scores are ``combine . tanh(key @ w_key + b + w_query @ query)`` computed
    for every key row at once; ``w_key`` is stored (key_dim, attn_dim) so no
    transpose is needed on the hot path.
    """

    def __init__(self, rng: np.random.Generator, key_dim: int, query_dim: int,
                 attn_dim: int, prefix: str):
        self.key_dim = key_dim
        self.query_dim = query_dim
        self.attn_dim = attn_dim
        self.w_key = init.weight(rng, (key_dim, attn_dim), f"{prefix}/w_key")
        self.w_query = init.weight(rng, (attn_dim, query_dim), f"{prefix}/w_query")
        self.b = init.bias((attn_dim,), f"{prefix}/b")
        self.combine = init.weight(rng, (attn_dim,), f"{prefix}/combine")

    def named(self) -> dict[str, Parameter]:
        return {p.name: p for p in (self.w_key, self.w_query, self.b, self.combine)}

    def prepare(self, keys: Tensor) -> AttentionKeys:
        """Check a (K, key_dim) key matrix, K >= 1, and project it once for
        every step that attends over it."""
        if keys.data.ndim != 2:
            raise DimensionError(f"attend: keys must be a matrix, got {keys.shape}")
        if keys.shape[0] == 0:
            raise DataError("attend: need at least one key row")
        if keys.shape[1] != self.key_dim:
            raise DimensionError(f"attend: keys {keys.shape} do not match layer "
                                 f"(key_dim={self.key_dim})")
        return AttentionKeys(rows=keys, projected=add(matmul(keys, self.w_key), self.b))


@dataclass
class AttentionKeys:
    """Key rows prepared by one layer, with their projection for its scores."""

    rows: Tensor        # (K, key_dim)
    projected: Tensor   # (K, attn_dim): rows @ w_key + b


@dataclass
class AttentionOutput:
    """Softmax weights over the keys and their weighted-sum context vector."""

    weights: Tensor   # (K,), non-negative, sums to 1
    context: Tensor   # (key_dim,)


def attend(layer: AttentionLayer, keys: AttentionKeys, query: Tensor) -> AttentionOutput:
    """Score every key row against the query and mix the rows by softmax weight.

    ``keys`` comes from ``layer.prepare``; query is (query_dim,). The context
    is a convex combination of the key rows, so it stays inside their hull.
    """
    if query.shape != (layer.query_dim,):
        raise DimensionError(f"attend: query {query.shape} does not match layer "
                             f"(query_dim={layer.query_dim})")
    hidden = tanh(add(keys.projected, matmul(layer.w_query, query)))
    scores = matmul(hidden, layer.combine)
    weights = softmax(scores)
    context = matmul(weights, keys.rows)
    return AttentionOutput(weights=weights, context=context)
