"""Central finite-difference gradient verification.

The checker only ever evaluates forward passes, so it stays independent of
the tape machinery it is used to validate. ``build_loss`` must rebuild the
graph from scratch on every call and be deterministic (seed any dropout rng
inside the closure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .tensor import Parameter, Tape, Tensor


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst elementwise |a-b| / max(|a|, |b|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


@dataclass
class GradCheckResult:
    """Per-parameter worst relative errors for one checked graph."""

    name: str
    errors: dict[str, float] = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    def ok(self, tol: float = 1e-3) -> bool:
        return self.max_error < tol


def check_gradients(name: str,
                    build_loss: Callable[[], Tensor],
                    params: Mapping[str, Parameter],
                    h: float = 1e-5) -> GradCheckResult:
    """Compare taped gradients against central differences, element by
    element of every parameter."""
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    taped = {k: p.grad.copy() for k, p in params.items()}

    result = GradCheckResult(name)
    for key, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        result.errors[key] = max_rel_error(taped[key].reshape(-1), fd)
    return result
