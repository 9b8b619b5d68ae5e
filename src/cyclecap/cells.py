"""LSTM and GRU cells composed from the primitive ops.

Both cells use per-gate weight matrices rather than fused blocks; at this
scale the extra matmuls are irrelevant and the bookkeeping is simpler.
"""

from __future__ import annotations

import numpy as np

from . import init
from .errors import DimensionError
from .tensor import Tensor, add, matmul, mul, sigmoid, sub, tanh


class GatedParams:
    """Per-gate input, recurrent and bias weights for one recurrent cell;
    subclasses name the gates in ``GATES``, which also fixes the rng draw
    order."""

    GATES: tuple[str, ...] = ()

    def __init__(self, rng: np.random.Generator, input_size: int, hidden_size: int,
                 prefix: str):
        self.input_size = input_size
        self.hidden_size = hidden_size
        for gate in self.GATES:
            setattr(self, f"w_{gate}", init.weight(rng, (hidden_size, input_size),
                                                   f"{prefix}/w_{gate}"))
            setattr(self, f"u_{gate}", init.weight(rng, (hidden_size, hidden_size),
                                                   f"{prefix}/u_{gate}"))
            setattr(self, f"b_{gate}", init.bias((hidden_size,), f"{prefix}/b_{gate}"))

    def named(self) -> dict[str, Tensor]:
        out = {}
        for gate in self.GATES:
            for kind in ("w", "u", "b"):
                p = getattr(self, f"{kind}_{gate}")
                out[p.name] = p
        return out


class LSTMParams(GatedParams):
    """Weights for one LSTM cell: input/forget/output gates and candidate."""

    GATES = ("i", "f", "o", "g")


def _gate(w, u, b, x, h):
    return add(add(matmul(w, x), matmul(u, h)), b)


def lstm_step(p: LSTMParams, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: sigmoid gates, tanh candidate, returns (h, c)."""
    if x.shape != (p.input_size,) or h_prev.shape != (p.hidden_size,) \
            or c_prev.shape != (p.hidden_size,):
        raise DimensionError(
            f"lstm_step: got x{x.shape}, h{h_prev.shape}, c{c_prev.shape} for "
            f"cell ({p.input_size} -> {p.hidden_size})")
    i = sigmoid(_gate(p.w_i, p.u_i, p.b_i, x, h_prev))
    f = sigmoid(_gate(p.w_f, p.u_f, p.b_f, x, h_prev))
    o = sigmoid(_gate(p.w_o, p.u_o, p.b_o, x, h_prev))
    g = tanh(_gate(p.w_g, p.u_g, p.b_g, x, h_prev))
    c = add(mul(f, c_prev), mul(i, g))
    h = mul(o, tanh(c))
    return h, c


class GRUParams(GatedParams):
    """Weights for one GRU cell: reset gate, update gate, candidate."""

    GATES = ("r", "z", "n")


def gru_step(p: GRUParams, x: Tensor, h_prev: Tensor) -> Tensor:
    """One GRU step. The update gate z interpolates toward keeping h_prev:

        h = z * h_prev + (1 - z) * candidate

    so a large positive update-gate bias saturates the cell into carrying
    its state through unchanged.
    """
    if x.shape != (p.input_size,) or h_prev.shape != (p.hidden_size,):
        raise DimensionError(
            f"gru_step: got x{x.shape}, h{h_prev.shape} for "
            f"cell ({p.input_size} -> {p.hidden_size})")
    r = sigmoid(_gate(p.w_r, p.u_r, p.b_r, x, h_prev))
    z = sigmoid(_gate(p.w_z, p.u_z, p.b_z, x, h_prev))
    n = tanh(add(add(matmul(p.w_n, x), mul(r, matmul(p.u_n, h_prev))), p.b_n))
    ones = Tensor(np.ones(p.hidden_size))
    return add(mul(z, h_prev), mul(sub(ones, z), n))
