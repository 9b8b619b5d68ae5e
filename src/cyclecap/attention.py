"""Additive soft attention: MLP scorer, softmax weights, weighted-sum context.

The same layer is instantiated three times in the full model (English
decoder over image regions, German decoder over image regions, German
decoder over English caption states), each with its own parameters.

A decoder attends over the same key rows at every step, so the key side of
the score, ``keys @ w_key + b``, is computed once per sequence by
``AttentionLayer.prepare`` (additive attention as in Bahdanau et al., 2015);
each step adds only its query projection.

Keys come batched, (B, K, key_dim), with a (B, K) mask of real rows: records
with fewer regions or shorter captions are padded, and their padded keys get
attention weight exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import init
from .errors import DataError, DimensionError
from .tensor import (Parameter, Tensor, add, batch_matmul, masked_softmax, matmul,
                     tanh, transpose)


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

    def prepare(self, rows: Tensor, mask: np.ndarray | None = None) -> AttentionKeys:
        """Check (B, K, key_dim) key rows and their (B, K) boolean mask of
        real rows (None: all real; each record needs at least one), and do
        the per-sequence work of every step that attends over them: project
        the keys, key-major, and transpose ``w_query``."""
        if rows.data.ndim != 3:
            raise DimensionError(f"attend: keys must be (B, K, key_dim), got {rows.shape}")
        if rows.shape[2] != self.key_dim:
            raise DimensionError(f"attend: keys {rows.shape} do not match layer "
                                 f"(key_dim={self.key_dim})")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != rows.shape[:2]:
                raise DimensionError(f"attend: mask {mask.shape} does not match "
                                     f"keys {rows.shape}")
        if rows.shape[1] == 0 or (mask is not None and not mask.any(axis=1).all()):
            raise DataError("attend: need at least one key row")
        projected = transpose(add(matmul(rows, self.w_key), self.b), (1, 0, 2))
        return AttentionKeys(rows=rows, mask=None if mask is None or mask.all() else mask,
                             projected=projected, w_query_t=transpose(self.w_query))


@dataclass
class AttentionKeys:
    """Key rows prepared by one layer, with their projection for its scores."""

    rows: Tensor              # (B, K, key_dim)
    mask: np.ndarray | None   # (B, K) real rows; None when all are real
    projected: Tensor         # (K, B, attn_dim): rows @ w_key + b, key-major
    w_query_t: Tensor         # (query_dim, attn_dim): w_query transposed

    def repeat(self, n: int) -> AttentionKeys:
        """These keys with each record's rows, mask and projection repeated
        n times in place, record-major: one image's keys for n hypotheses."""
        return AttentionKeys(
            rows=Tensor(np.repeat(self.rows.data, n, axis=0), _unchecked=True),
            mask=None if self.mask is None else np.repeat(self.mask, n, axis=0),
            projected=Tensor(np.repeat(self.projected.data, n, axis=1), _unchecked=True),
            w_query_t=self.w_query_t)


@dataclass
class AttentionOutput:
    """Softmax weights over the keys and their weighted-sum context vectors."""

    weights: Tensor   # (B, K), non-negative, each row sums to 1, 0 on masked keys
    context: Tensor   # (B, key_dim)


def attend(layer: AttentionLayer, keys: AttentionKeys, query: Tensor) -> AttentionOutput:
    """Score every key row against the query and mix the rows by softmax weight.

    ``keys`` comes from ``layer.prepare``; query is (B, query_dim), one row
    per record. The projected keys are key-major, (K, B, attn_dim), so the
    (B, attn_dim) query projection broadcasts onto them as it is. Each
    context is a convex combination of its record's real key rows, so it
    stays inside their hull.
    """
    if query.data.shape != (keys.rows.data.shape[0], layer.query_dim):
        raise DimensionError(f"attend: query {query.shape} does not match layer "
                             f"(query_dim={layer.query_dim}) and keys {keys.rows.shape}")
    hidden = tanh(add(keys.projected, matmul(query, keys.w_query_t)))
    weights = masked_softmax(matmul(hidden, layer.combine), keys.mask)
    context = batch_matmul(weights, keys.rows)
    return AttentionOutput(weights=weights, context=context)
