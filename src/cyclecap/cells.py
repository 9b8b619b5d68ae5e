"""LSTM and GRU cells on fused gate weights.

Each cell keeps its gates side by side in one weight, so a step does one
matmul for all gates, and on a tape the whole step, gates and state update,
is one record: the fusion of Appleyard et al., 2016, carried from the
weights to the tape. At these sizes an op costs per record rather than per
flop, so fewer records are what make training cheap. Column block k of a fused weight or
bias belongs to gate ``GATES[k]``.

* The caption encoder's GRU (``gru_step``, ``tensor.encoder_unroll``) goes
  one step further across time, as Appleyard et al. do: the lookup and both
  directions over a whole (B, T) caption batch are one tape record, packed
  as they pack padded sequences, each direction's real positions are
  projected through ``w`` in one product, and each weight gradient is one
  product over those real positions alone. The caption encoder calls it
  once.
* An LSTM step (``lstm_step``) serves decoding only, on arrays in and out.
  Training runs the decoder's LSTM inside ``tensor.decoder_unroll``, one
  record per unroll in the same way, on the same ``tensor.lstm_arrays``.

* LSTM: one ``(input + hidden, 4 * hidden)`` weight applied to ``[x; h]``
  and one ``4 * hidden`` bias; gates i, f, o, g.
* GRU: an input-side ``(input, 3 * hidden)`` weight, a hidden-side
  ``(hidden, 3 * hidden)`` weight and a ``3 * hidden`` bias; gates r, z, n.
  The hidden side stays apart because the candidate uses ``r * (U_n h)``.

An LSTM step works on any leading shape: (B, input) inputs and (B, hidden)
states step a whole batch of records through the cell at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init
from .errors import DimensionError
from .tensor import Parameter, Tensor, encoder_unroll, finite, lstm_arrays


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


class LSTMParams(GatedParams):
    """Weights for one LSTM cell: input/forget/output gates and candidate,
    as one weight ``w`` over ``[x; h]`` and one bias ``b``."""

    GATES = ("i", "f", "o", "g")

    def _fuse(self, w_in, w_hid, prefix):
        self.w = Parameter(np.vstack([w_in, w_hid]), f"{prefix}/w")


def lstm_step(p: LSTMParams, inputs: Sequence[np.ndarray], h_prev: np.ndarray,
              c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM decode step on the input x, the concatenation of the arrays
    ``inputs`` (a decoder's contexts and word embedding) on the leading axes
    of the states; returns the arrays (h, c).

        a = [x; h_prev] @ w + b
        i, f, o = sigmoid(a[:3H]) in three blocks,  g = tanh(a[3H:])
        c = f * c_prev + i * g,  h = o * tanh(c)
    """
    parts = [*inputs, h_prev]
    if c_prev.shape != h_prev.shape or h_prev.shape[-1:] != (p.hidden_size,) \
            or any(x.ndim != h_prev.ndim or x.shape[:-1] != h_prev.shape[:-1] for x in parts) \
            or sum(x.shape[-1] for x in parts) != p.w.shape[0]:
        raise DimensionError(f"lstm_step: inputs {[x.shape for x in inputs]}, h "
                             f"{h_prev.shape} and c {c_prev.shape} misfit {p.w.shape}")
    _, _, c, _, h = lstm_arrays(np.matmul(np.concatenate(parts, axis=-1), p.w.data)
                                + p.b.data, c_prev)
    return finite("lstm_step", h, c)


class GRUParams(GatedParams):
    """Weights for one GRU cell: reset gate, update gate, candidate, as an
    input-side weight ``w``, a hidden-side weight ``u`` and one bias ``b``."""

    GATES = ("r", "z", "n")

    def _fuse(self, w_in, w_hid, prefix):
        self.w = Parameter(w_in, f"{prefix}/w")
        self.u = Parameter(w_hid, f"{prefix}/u")


def gru_step(embedding: Parameter, ids: np.ndarray, fwd: GRUParams, bwd: GRUParams,
             mask: np.ndarray) -> Tensor:
    """A bidirectional GRU over the (B, T) ids, looked up in ``embedding``,
    from zero states, as one record (``tensor.encoder_unroll``); returns
    the (B, T, 2 * hidden) states, [forward; backward] at each position.
    ``mask`` is the (B, T) boolean mask of real positions, real ones first
    in each row. Each step of a direction, ``fwd`` or ``bwd``, is

        r, z = sigmoid(x @ w + h @ u + b)[:2H] in two blocks
        n = tanh((x @ w + b)[2H:] + r * (h @ u)[2H:])
        h' = z * h + (1 - z) * n,  taken as n + z * (h - n)

    stepping forward in time with ``fwd`` and backward with ``bwd``, over
    each record's real positions only, so the backward pass starts from zero
    at the record's last token; padded states are exactly 0. The update gate
    z interpolates toward keeping h, so a large positive update-gate bias
    saturates the cell into carrying its state through unchanged.
    """
    return encoder_unroll(embedding, ids, [(p.w, p.u, p.b) for p in (fwd, bwd)], mask)
