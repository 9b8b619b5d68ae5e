"""Additive soft attention: MLP scorer, softmax weights, weighted-sum context.

The same layer is instantiated three times in the full model (English
decoder over image regions, German decoder over image regions, German
decoder over English caption states), each with its own parameters.

A decoder attends over the same key rows at every step, so the key side of
the score, ``keys @ w_key + b``, is computed once per sequence by
``tensor.prepare`` (additive attention as in Bahdanau et al., 2015); each
step adds only its query projection. ``AttentionLayer.keys`` checks the
rows and hands them on with the layer's parameters as one
``tensor.HeadKeys``. Training passes that to ``tensor.decoder_unroll``, one
record for every head over a whole teacher-forced caption, which prepares
it inside. Decoding prepares it once (``tensor.prepare``) into a
``tensor.Head`` of arrays, and a decode step, score, masked softmax and
context, is ``attend``, on arrays in and out. Both run the same step math,
``tensor.attention_arrays``.

Keys come batched, (B, K, key_dim), with a (B, K) boolean mask of real rows,
all-true when none is padding: records with fewer regions or shorter
captions are padded, and their padded keys get attention weight exactly 0.
"""

from __future__ import annotations

import numpy as np

from . import init
from .errors import DataError, DimensionError
from .tensor import Head, HeadKeys, Tensor, attention_arrays, finite


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
        self.w_key = init.weight(rng, (key_dim, attn_dim), f"{prefix}/w_key")
        self.w_query = init.weight(rng, (attn_dim, query_dim), f"{prefix}/w_query")
        self.b = init.bias((attn_dim,), f"{prefix}/b")
        self.combine = init.weight(rng, (attn_dim,), f"{prefix}/combine")

    def keys(self, rows: Tensor, mask: np.ndarray) -> HeadKeys:
        """Check (B, K, key_dim) key rows and their (B, K) boolean mask of
        real rows (each record needs at least one), and pair them with this
        layer's parameters."""
        if rows.data.ndim != 3:
            raise DimensionError(f"attend: keys must be (B, K, key_dim), got {rows.shape}")
        if rows.shape[2] != self.key_dim:
            raise DimensionError(f"attend: keys {rows.shape} do not match layer "
                                 f"(key_dim={self.key_dim})")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != rows.shape[:2]:
            raise DimensionError(f"attend: mask {mask.shape} does not match "
                                 f"keys {rows.shape}")
        if rows.shape[1] == 0 or not mask.any(axis=1).all():
            raise DataError("attend: need at least one key row")
        return HeadKeys(rows, mask, self.w_key, self.b, self.w_query, self.combine)


def attend(layer: AttentionLayer, keys: Head,
           query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score every key row against the (L, query_dim) query array and mix
    the rows by softmax weight, for one decode step of L query rows; returns
    the (L, K) weights, 0 on masked keys and each row summing to 1, and the
    (L, key_dim) contexts, each inside the hull of its record's real key
    rows.

    ``keys`` is ``tensor.prepare`` of ``layer.keys`` over L records, one per
    query row, or over one record that every row reads (one image's keys for
    a beam's live hypotheses), which numpy broadcasts over the rows.
    """
    if query.ndim != 2 or query.shape[1] != layer.query_dim \
            or keys.rows.shape[0] not in (1, query.shape[0]):
        raise DimensionError(f"attend: query {query.shape} does not match layer "
                             f"(query_dim={layer.query_dim}) and keys {keys.rows.shape}")
    _, weights, context = attention_arrays(keys, query)
    return finite("attend", weights, context)
