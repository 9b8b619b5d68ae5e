"""LSTM and GRU cells composed from the primitive ops, on fused gate weights.

Each cell keeps its gates side by side in one weight, so a step does one
matmul for all gates and cuts the result into gate blocks with
``column_slice``: the fusion of Appleyard et al., 2016. At these sizes a step
costs per op rather than per flop, so fewer, wider ops are what make it
cheaper. Column block k of a fused weight or bias belongs to gate
``GATES[k]``.

* LSTM: one ``(input + hidden, 4 * hidden)`` weight applied to ``[x; h]``
  and one ``4 * hidden`` bias; gates i, f, o, g.
* GRU: an input-side ``(input, 3 * hidden)`` weight, a hidden-side
  ``(hidden, 3 * hidden)`` weight and a ``3 * hidden`` bias; gates r, z, n.
  The hidden side stays apart because the candidate uses ``r * (U_n h)``,
  and ``gru_inputs`` projects the inputs of a whole sequence in one matmul.

A step works on any leading shape: (B, input) inputs and (B, hidden) states
step a whole batch of records through the cell at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init
from .errors import DimensionError
from .tensor import (Parameter, Tensor, add, column_slice, concat, matmul, mul,
                     sigmoid, sub, tanh)


class GatedParams:
    """Fused weights and bias of one gated recurrent cell; subclasses name
    the gates in ``GATES``, which fixes both the column-block order and the
    rng draw order.

    Each gate draws its (hidden, input) input matrix and then its (hidden,
    hidden) recurrent matrix, gate by gate, and stores them transposed as its
    column block of the input-side and hidden-side weights.
    """

    GATES: tuple[str, ...] = ()

    def __init__(self, rng: np.random.Generator, input_size: int, hidden_size: int,
                 prefix: str):
        self.input_size = input_size
        self.hidden_size = hidden_size
        width = len(self.GATES) * hidden_size
        w_in, w_hid = np.empty((input_size, width)), np.empty((hidden_size, width))
        for gate in self.GATES:
            w_in[:, self.gate(gate)] = init.uniform(rng, (hidden_size, input_size)).T
            w_hid[:, self.gate(gate)] = init.uniform(rng, (hidden_size, hidden_size)).T
        self._fuse(w_in, w_hid, prefix)
        self.b = init.bias((width,), f"{prefix}/b")

    def _fuse(self, w_in: np.ndarray, w_hid: np.ndarray, prefix: str) -> None:
        raise NotImplementedError

    def gate(self, name: str) -> slice:
        """The columns of gate ``name`` in the fused weights and bias."""
        k = self.GATES.index(name)
        return slice(k * self.hidden_size, (k + 1) * self.hidden_size)

    def named(self) -> dict[str, Parameter]:
        return {p.name: p for p in vars(self).values() if isinstance(p, Parameter)}


class LSTMParams(GatedParams):
    """Weights for one LSTM cell: input/forget/output gates and candidate,
    as one weight ``w`` over ``[x; h]`` and one bias ``b``."""

    GATES = ("i", "f", "o", "g")

    def _fuse(self, w_in, w_hid, prefix):
        self.w = Parameter(np.vstack([w_in, w_hid]), f"{prefix}/w")


def lstm_step(p: LSTMParams, inputs: Sequence[Tensor], h_prev: Tensor,
              c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step on the input x, the concatenation of ``inputs`` (a
    decoder's contexts and word embedding are joined with h_prev in one
    op); returns (h, c):

        a = [x; h_prev] @ w + b
        i, f, o = sigmoid(a[:3H]) in three blocks,  g = tanh(a[3H:])
        c = f * c_prev + i * g,  h = o * tanh(c)
    """
    size = p.hidden_size
    width = sum(x.data.shape[-1] for x in inputs)
    state = h_prev.data.shape
    if width != p.input_size or state[-1:] != (size,) or c_prev.data.shape != state:
        raise DimensionError(
            f"lstm_step: got inputs {[x.shape for x in inputs]}, h{h_prev.shape}, "
            f"c{c_prev.shape} for cell ({p.input_size} -> {size})")
    a = add(matmul(concat([*inputs, h_prev]), p.w), p.b)
    ifo = sigmoid(column_slice(a, 0, 3 * size))
    g = tanh(column_slice(a, 3 * size, 4 * size))
    c = add(mul(column_slice(ifo, size, 2 * size), c_prev),
            mul(column_slice(ifo, 0, size), g))
    h = mul(column_slice(ifo, 2 * size, 3 * size), tanh(c))
    return h, c


class GRUParams(GatedParams):
    """Weights for one GRU cell: reset gate, update gate, candidate, as an
    input-side weight ``w``, a hidden-side weight ``u`` and one bias ``b``."""

    GATES = ("r", "z", "n")

    def _fuse(self, w_in, w_hid, prefix):
        self.w = Parameter(w_in, f"{prefix}/w")
        self.u = Parameter(w_hid, f"{prefix}/u")


def gru_inputs(p: GRUParams, x: Tensor) -> Tensor:
    """Input-side pre-activations ``x @ w + b`` of all three gates, for
    inputs of any leading shape, such as a whole (T, B, input) sequence."""
    if x.shape[-1:] != (p.input_size,):
        raise DimensionError(f"gru_inputs: got x{x.shape} for cell "
                             f"({p.input_size} -> {p.hidden_size})")
    return add(matmul(x, p.w), p.b)


def gru_step(p: GRUParams, xw: Tensor, h_prev: Tensor) -> Tensor:
    """One GRU step from ``xw``, one step's row of ``gru_inputs``:

        a = h_prev @ u
        r, z = sigmoid(xw[:2H] + a[:2H]) in two blocks
        n = tanh(xw[2H:] + r * a[2H:])
        h = z * h_prev + (1 - z) * n,  taken as n + z * (h_prev - n)

    The update gate z interpolates toward keeping h_prev, so a large positive
    update-gate bias saturates the cell into carrying its state through
    unchanged.
    """
    size = p.hidden_size
    if xw.shape[-1:] != (3 * size,) or h_prev.shape != xw.shape[:-1] + (size,):
        raise DimensionError(
            f"gru_step: got input pre-activations {xw.shape}, h{h_prev.shape} "
            f"for cell ({p.input_size} -> {size})")
    a = matmul(h_prev, p.u)
    rz = sigmoid(add(column_slice(xw, 0, 2 * size), column_slice(a, 0, 2 * size)))
    n = tanh(add(column_slice(xw, 2 * size, 3 * size),
                 mul(column_slice(rz, 0, size), column_slice(a, 2 * size, 3 * size))))
    return add(n, mul(column_slice(rz, size, 2 * size), sub(h_prev, n)))
