"""Parameter initialization helpers: small uniform weights, zero biases."""

from __future__ import annotations

import numpy as np

from .tensor import Parameter

WEIGHT_RANGE = 0.08


def uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(-WEIGHT_RANGE, WEIGHT_RANGE, size=shape)


def weight(rng: np.random.Generator, shape: tuple[int, ...], name: str) -> Parameter:
    return Parameter(uniform(rng, shape), name)


def bias(shape: tuple[int, ...], name: str) -> Parameter:
    return Parameter(np.zeros(shape), name)
