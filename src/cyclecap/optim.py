"""Adam optimizer with bias correction over named parameters."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import NumericError
from .tensor import Parameter

BETA1 = 0.9    # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # keeps the step finite where the second moment is 0


class Adam:
    """Adam state and update rule.

    Keeps first/second moment arrays per parameter plus the shared step
    counter; ``step`` applies

        m   <- BETA1*m + (1-BETA1)*g
        v   <- BETA2*v + (1-BETA2)*g^2
        p   <- p - lr * (m / (1-BETA1^t)) / (sqrt(v / (1-BETA2^t)) + EPS)

    so a zero gradient leaves the parameter untouched.
    """

    def __init__(self, params: Mapping[str, Parameter], lr: float = 4e-4):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NumericError(f"adam: non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
