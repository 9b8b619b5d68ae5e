"""Dense float64 tensors with taped reverse-mode differentiation.

The engine is deliberately small: eager numpy forward evaluation plus an
operation tape for gradients. Ops executed inside a ``with Tape():`` block
record one backward rule each; ``tape.backward(loss)`` walks those records
once in reverse creation order (creation order is already topological) and
accumulates gradients into ``Tensor.grad``. Outside a tape block the same
functions are plain forward math, which keeps inference cheap.

A record may own a tuple of outputs, such as an LSTM step's (h, c). Its one
rule then receives one gradient per output, with zeros for an output no
gradient reached, and the record is skipped when none did.

Training runs on batches, so tensors carry a leading batch axis: states are
(B, H), key rows (B, K, d), attention weights (B, K). The ops that need it
take a boolean mask of real entries (``masked_softmax``, ``masked_mean``,
``frobenius``, ``pick``, ``additive_attention``); masked-out entries never
reach the result and get exactly zero gradient, so padding cannot leak into
a loss. ``matmul`` applies a shared weight over every leading axis,
``batch_matmul`` multiplies matrix i of one batch by matrix i of another.

Besides the primitives there are fused ops, one record each for what would
otherwise be many small ones: ``gru_cell`` (one recurrent step on fused gate
weights), ``unstack`` (every slice of a sequence at once) and
``decoder_unroll`` (a whole teacher-forced decoder unroll: every attention
head and the LSTM over all T steps, its backward BPTT written out once). At
these sizes an op costs per record rather than per flop, so fewer, wider
records are what make training cheap. The decode-step ops ``lstm_cell`` and
``additive_attention`` (one LSTM step; score, masked softmax and context of
one head) share their step math with ``decoder_unroll`` but keep no backward
rule, because decoding never runs backward: under an active tape they raise
StateError. Every op validates its output for finiteness, so a NaN or
overflow surfaces at the op that produced it rather than ten layers
downstream.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError, StateError

Array = np.ndarray


class Tensor:
    """A dense float64 array plus an optional same-shape gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data, *, _unchecked: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not _unchecked and not np.isfinite(arr).all():
            raise NumericError("tensor: non-finite values in constructor")
        self.data = arr
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item: tensor has shape {self.shape}, not scalar")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """A trainable leaf tensor with a stable name and a zero-initialized grad.

    The grad buffer always exists, so a parameter never reached by backward
    reports an all-zero gradient rather than None.
    """

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


BackwardRule = Callable[..., tuple[Array | None, ...]]
Outputs = Tensor | tuple[Tensor, ...]


class Tape:
    """Ordered record of ops for one forward pass, consumed by one backward.

    Records are appended at op creation time, so the list is topologically
    ordered by construction and the backward walk visits each node exactly
    once. A record's outputs are one Tensor, whose gradient its rule takes,
    or a tuple of them, whose gradients its rule takes in order. A tape is
    single-use: calling backward twice raises StateError. Tapes do not nest;
    one thread drives one tape at a time.
    """

    _active: "Tape | None" = None

    def __init__(self) -> None:
        self._records: list[tuple[Outputs, tuple[Tensor, ...], BackwardRule]] = []
        self._outputs: set[int] = set()
        self._spent = False

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise StateError("a tape is already active; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, *exc) -> None:
        Tape._active = None

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(node) into .grad for every recorded node."""
        if self._spent:
            raise StateError("backward already ran on this tape; build a new tape")
        if loss.data.size != 1:
            raise DimensionError(f"backward: loss has shape {loss.shape}, not scalar")
        if id(loss) not in self._outputs:
            raise StateError("backward: loss was not produced on this tape")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for out, parents, rule in reversed(self._records):
            if type(out) is tuple:
                grads = [o.grad for o in out]
                if all(g is None for g in grads):
                    continue
                parent_grads = rule(*(np.zeros_like(o.data) if g is None else g
                                      for o, g in zip(out, grads)))
            else:
                if out.grad is None:
                    continue
                parent_grads = rule(out.grad)
            for parent, pg in zip(parents, parent_grads):
                if pg is None:
                    continue
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg


def _record(out: Tensor, parents: tuple[Tensor, ...], rule: BackwardRule) -> Tensor:
    tape = Tape._active
    if tape is not None:
        tape._records.append((out, parents, rule))
        tape._outputs.add(id(out))
    return out


def _record_many(outs: tuple[Tensor, ...], parents: tuple[Tensor, ...],
                 rule: BackwardRule) -> tuple[Tensor, ...]:
    """Record one op with several outputs; ``rule`` takes one gradient per
    output."""
    tape = Tape._active
    if tape is not None:
        tape._records.append((outs, parents, rule))
        tape._outputs.update(map(id, outs))
    return outs


def _result(name: str, arr: Array) -> Tensor:
    if not np.isfinite(arr).all():
        raise NumericError(f"{name}: produced non-finite values")
    return Tensor(arr, _unchecked=True)


def _results(name: str, *arrays: Array) -> tuple[Tensor, ...]:
    """The outputs of a fused op, with one finiteness check over all of them."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericError(f"{name}: produced non-finite values")
    return tuple(Tensor(x, _unchecked=True) for x in arrays)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _broadcast_shapes(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a shared weight ``b``: a (..., k) against a (k, n) matrix
    or a (k,) vector, over every leading axis of ``a`` at once."""
    if a.data.ndim == 0 or b.data.ndim not in (1, 2):
        raise DimensionError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    out = _result("matmul", np.matmul(a.data, b.data))
    ad, bd = a.data, b.data
    k = bd.shape[0]

    def rule(g: Array) -> tuple[Array, Array]:
        if bd.ndim == 2:
            return g @ bd.T, ad.reshape(-1, k).T @ g.reshape(-1, bd.shape[1])
        return g[..., None] * bd, g.reshape(-1) @ ad.reshape(-1, k)

    return _record(out, (a, b), rule)


def batch_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matmul with a leading batch axis: ``out[i] = a[i] @ b[i]`` for a
    (B, k) or (B, m, k) against a (B, k, n)."""
    if a.data.ndim not in (2, 3) or b.data.ndim != 3 or a.shape[0] != b.shape[0] \
            or a.shape[-1] != b.shape[1]:
        raise DimensionError(f"batch_matmul: cannot multiply {a.shape} by {b.shape}")
    a3 = a.data[:, None, :] if a.data.ndim == 2 else a.data
    out = np.matmul(a3, b.data)
    out = _result("batch_matmul", out[:, 0, :] if a.data.ndim == 2 else out)
    bd, a_shape = b.data, a.shape

    def rule(g: Array) -> tuple[Array, Array]:
        g3 = g.reshape(a3.shape[:2] + g.shape[-1:])
        return (np.matmul(g3, bd.transpose(0, 2, 1)).reshape(a_shape),
                np.matmul(a3.transpose(0, 2, 1), g3))

    return _record(out, (a, b), rule)


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes of ``a`` (reverse them when ``axes`` is None)."""
    if axes is not None and sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"transpose: axes {axes} do not permute shape {a.shape}")
    out = _result("transpose", a.data.transpose(axes))

    def rule(g: Array) -> tuple[Array]:
        return (g.transpose(None if axes is None else np.argsort(axes)),)

    return _record(out, (a,), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("add", a, b)
    out = _result("add", a.data + b.data)
    a_shape, b_shape = a.shape, b.shape

    def rule(g: Array) -> tuple[Array, Array]:
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(out, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("sub", a, b)
    out = _result("sub", a.data - b.data)
    a_shape, b_shape = a.shape, b.shape

    def rule(g: Array) -> tuple[Array, Array]:
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return _record(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_shapes("mul", a, b)
    out = _result("mul", a.data * b.data)
    ad, bd = a.data, b.data

    def rule(g: Array) -> tuple[Array, Array]:
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(out, (a, b), rule)


def scale(a: Tensor, factor: float) -> Tensor:
    if not np.isfinite(factor):
        raise NumericError(f"scale: non-finite factor {factor!r}")
    out = _result("scale", a.data * factor)
    return _record(out, (a,), lambda g: (g * factor,))


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis; the leading axes must agree."""
    if not parts:
        raise DimensionError("concat: empty operand list")
    arrays = [p.data for p in parts]
    lead = arrays[0].shape[:-1]
    for x in arrays:
        if x.ndim == 0 or x.shape[:-1] != lead:
            raise DimensionError(f"concat: cannot join shape {x.shape} to leading "
                                 f"axes {lead}")
    out = _result("concat", np.concatenate(arrays, axis=-1))
    offsets = [0, *accumulate(x.shape[-1] for x in arrays)]

    def rule(g: Array) -> tuple[Array, ...]:
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _record(out, tuple(parts), rule)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis ``axis``."""
    if not parts:
        raise DimensionError("stack: empty operand list")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise DimensionError(f"stack: expected {shape} tensors, got {p.shape}")
    if not 0 <= axis <= len(shape):
        raise DimensionError(f"stack: axis {axis} out of range for shape {shape}")
    out = _result("stack", np.stack([p.data for p in parts], axis=axis))
    n = len(parts)

    def rule(g: Array) -> tuple[Array, ...]:
        g = np.moveaxis(g, axis, 0)
        return tuple(g[i] for i in range(n))

    return _record(out, tuple(parts), rule)


def masked_softmax(scores: Tensor, mask: Array | None) -> Tensor:
    """Attention weights from key-major scores: softmax over axis 0 of a
    (K, B) score matrix, returned batch-major as (B, K).

    ``mask`` is the (B, K) boolean mask of real keys, or None when every key
    is real. Masked-out keys get weight exactly 0 and no gradient, so their
    scores never reach the result; each row needs at least one real key.
    """
    if scores.data.ndim != 2 or (mask is not None and mask.shape != scores.shape[::-1]):
        raise DimensionError(f"masked_softmax: scores {scores.shape} need a (K, B) "
                             f"matrix and a (B, K) mask")
    s = scores.data.T
    if mask is not None:
        s = np.where(mask, s, -np.inf)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    out = _result("masked_softmax", w)

    def rule(g: Array) -> tuple[Array]:
        return ((w * (g - (g * w).sum(axis=1, keepdims=True))).T,)

    return _record(out, (scores,), rule)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = _result("log_softmax", y)
    probs = np.exp(y)

    def rule(g: Array) -> tuple[Array]:
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _record(out, (a,), rule)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = _result("tanh", y)
    return _record(out, (a,), lambda g: (g * (1.0 - y * y),))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` along its first axis: ``table[ids]`` for an int or an
    int array of any shape."""
    if table.data.ndim < 2:
        raise DimensionError(f"embedding-lookup: table must be at least 2-d, "
                             f"got {table.shape}")
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise DimensionError("embedding-lookup: ids must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise DimensionError(
            f"embedding-lookup: id out of range for table with {table.shape[0]} rows")
    out = _result("embedding-lookup", table.data[idx])
    shape = table.shape

    def rule(g: Array) -> tuple[Array]:
        gt = np.zeros(shape)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), rule)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. Callers apply it in training mode only."""
    if not 0.0 <= rate < 1.0:
        raise NumericError(f"dropout: rate {rate!r} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = _result("dropout", a.data * keep)
    return _record(out, (a,), lambda g: (g * keep,))


def sum_all(a: Tensor) -> Tensor:
    out = _result("sum_all", np.asarray(a.data.sum()))
    shape = a.shape
    return _record(out, (a,), lambda g: (np.full(shape, float(g)),))


def masked_mean(a: Tensor, mask: Array | None) -> Tensor:
    """Mean over the real rows of each record: a (B, L, d) with the (B, L)
    boolean mask of real rows (None: all real) gives (B, d). Masked-out rows
    are read as 0 and get no gradient; each record needs at least one real
    row."""
    if a.data.ndim != 3 or (mask is not None and mask.shape != a.shape[:2]):
        raise DimensionError(f"masked_mean: need a (B, L, d) tensor and a (B, L) "
                             f"mask, got {a.shape} and {np.shape(mask)}")
    if mask is None:
        n, shape = a.shape[1], a.shape
        out = _result("masked_mean", a.data.mean(axis=1))
        return _record(out, (a,), lambda g: (np.broadcast_to(g[:, None, :] / n, shape),))
    counts = mask.sum(axis=1)
    if not counts.all():
        raise DimensionError("masked_mean: a record has no real rows")
    weight = (mask / counts[:, None])[..., None]   # (B, L, 1)
    out = _result("masked_mean", np.where(mask[..., None], a.data, 0.0).sum(axis=1)
                  / counts[:, None])
    return _record(out, (a,), lambda g: (g[:, None, :] * weight,))


def frobenius(a: Tensor, row_mask: Array) -> Tensor:
    """Per-record Frobenius norm over the real rows: a (B, M, L) with the
    (B, M) boolean mask of real rows gives (B,). Masked-out rows get no
    gradient; the subgradient of a zero norm is taken as 0."""
    if a.data.ndim != 3 or row_mask.shape != a.shape[:2]:
        raise DimensionError(f"frobenius: need a (B, M, L) tensor and a (B, M) "
                             f"mask, got {a.shape} and {row_mask.shape}")
    real = np.where(row_mask[..., None], a.data, 0.0)
    norms = np.sqrt((real * real).sum(axis=(1, 2)))
    out = _result("frobenius", norms)

    def rule(g: Array) -> tuple[Array]:
        per = np.where(norms > 0.0, g / np.where(norms > 0.0, norms, 1.0), 0.0)
        return (real * per[:, None, None],)

    return _record(out, (a,), rule)


def pick(a: Tensor, index, mask: Array | None = None) -> Tensor:
    """Entry ``index[...]`` of the last axis of ``a``: a (..., V) with an int
    array ``index`` of shape a.shape[:-1] (an int for a vector). Positions
    where ``mask`` is False read 0 and get no gradient."""
    idx = np.asarray(index)
    if a.data.ndim == 0 or idx.shape != a.shape[:-1] \
            or not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError(f"pick: index of shape {idx.shape} does not select "
                             f"from shape {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[-1]):
        raise DimensionError(f"pick: index {index} out of range for length "
                             f"{a.shape[-1]}")
    keep = np.ones(idx.shape, bool) if mask is None else np.asarray(mask, bool)
    if keep.shape != idx.shape:
        raise DimensionError(f"pick: mask {keep.shape} does not match index {idx.shape}")
    values = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]
    out = _result("pick", np.where(keep, values, 0.0))
    shape = a.shape

    def rule(g: Array) -> tuple[Array]:
        z = np.zeros(shape)
        np.put_along_axis(z, idx[..., None], np.where(keep, g, 0.0)[..., None], axis=-1)
        return (z,)

    return _record(out, (a,), rule)


# ---------------------------------------------------------------------------
# Fused ops: one record, one backward rule and one finiteness check each; the
# decode-step ops share their step math and record nothing
# ---------------------------------------------------------------------------

def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; x >= 0 takes 1 / (1 + e), x < 0 takes e / (1 + e).
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _bad_shapes(op: str, **shapes) -> DimensionError:
    listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
    return DimensionError(f"{op}: shapes do not fit together: {listed}")


def _lstm_arrays(a: Array, c: Array) -> tuple[Array, ...]:
    """One LSTM step's gates and state update on arrays, from its (..., 4H)
    pre-activations ``a`` (gate blocks i, f, o, g) and memory ``c``:
    (sigmoid of the i, f, o blocks, tanh of the g block, c', tanh(c'), h')."""
    size = c.shape[-1]
    ifo = _sigmoid(a[..., :3 * size])
    g = np.tanh(a[..., 3 * size:])
    c_new = ifo[..., size:2 * size] * c + ifo[..., :size] * g
    tc = np.tanh(c_new)
    return ifo, g, c_new, tc, ifo[..., 2 * size:] * tc


def _attention_arrays(projected: Array, rows: Array, mask: Array | None, query: Array,
                      w_query_t: Array, combine: Array) -> tuple[Array, Array, Array]:
    """One additive-attention head on arrays: (hidden, weights, context) as
    ``additive_attention`` defines them."""
    hidden = np.tanh(projected + np.matmul(query, w_query_t))
    s = np.matmul(hidden, combine).T
    if mask is not None:
        s = np.where(mask, s, -np.inf)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    return hidden, w, np.matmul(w[:, None, :], rows)[:, 0, :]


def _decode_only(op: str) -> None:
    if Tape._active is not None:
        raise StateError(f"{op}: a decode-step op has no backward rule; "
                         f"teacher forcing runs decoder_unroll")


def lstm_cell(inputs: Sequence[Tensor], h: Tensor, c: Tensor, w: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM decode step on fused gate weights; returns (h', c').

        a = [inputs...; h] @ w + b,  gate blocks i, f, o, g of width H
        i, f, o = sigmoid(a[:3H]) in three blocks,  g = tanh(a[3H:])
        c' = f * c + i * g,  h' = o * tanh(c')

    Every input part and the (..., H) states share their leading axes;
    ``w`` is (input + H, 4H) and ``b`` is (4H,). Decoding only: under an
    active tape it raises StateError.
    """
    hd, cd, wd = h.data, c.data, w.data
    parts = [x.data for x in inputs] + [hd]
    size = hd.shape[-1] if hd.ndim else 0
    width = sum(x.shape[-1] for x in parts if x.ndim)
    if not size or cd.shape != hd.shape or wd.shape != (width, 4 * size) \
            or b.shape != (4 * size,) \
            or any(x.ndim != hd.ndim or x.shape[:-1] != hd.shape[:-1] for x in parts):
        raise _bad_shapes("lstm_cell", inputs=[x.shape for x in inputs], h=h.shape,
                          c=c.shape, w=w.shape, b=b.shape)
    _decode_only("lstm_cell")
    a = np.matmul(np.concatenate(parts, axis=-1), wd) + b.data
    _, _, c_new, _, h_new = _lstm_arrays(a, cd)
    return _results("lstm_cell", h_new, c_new)


def gru_cell(xw: Tensor, h: Tensor, u: Tensor) -> Tensor:
    """One GRU step from the input-side pre-activations ``xw`` (x @ w + b,
    gate blocks r, z, n of width H) and the hidden-side weight ``u``:

        a = h @ u
        r, z = sigmoid(xw[:2H] + a[:2H]) in two blocks
        n = tanh(xw[2H:] + r * a[2H:])
        h' = n + z * (h - n)

    ``h`` is (..., H), ``xw`` has its leading axes and 3H columns, ``u`` is
    (H, 3H).
    """
    xd, hd, ud = xw.data, h.data, u.data
    size = hd.shape[-1] if hd.ndim else 0
    if not size or xd.shape != hd.shape[:-1] + (3 * size,) or ud.shape != (size, 3 * size):
        raise _bad_shapes("gru_cell", xw=xw.shape, h=h.shape, u=u.shape)
    a = np.matmul(hd, ud)
    rz = _sigmoid(xd[..., :2 * size] + a[..., :2 * size])
    r, z = rz[..., :size], rz[..., size:]
    an = a[..., 2 * size:]
    n = np.tanh(xd[..., 2 * size:] + r * an)
    out = _result("gru_cell", n + z * (hd - n))

    def rule(g: Array) -> tuple[Array, Array, Array]:
        gn = (g - g * z) * (1.0 - n * n)
        gxw = np.empty(xd.shape)
        gxw[..., :size] = gn * an
        gxw[..., size:2 * size] = g * (hd - n)
        gxw[..., :2 * size] *= rz
        gxw[..., :2 * size] *= 1.0 - rz
        gxw[..., 2 * size:] = gn
        ga = gxw.copy()
        ga[..., 2 * size:] *= r
        return (gxw, g * z + ga @ ud.T,
                hd.reshape(-1, size).T @ ga.reshape(-1, 3 * size))

    return _record(out, (xw, h, u), rule)


def _attention_shapes_fit(projected: Array, rows: Array, mask: Array | None,
                          w_query_t: Array, combine: Array, query_dim: int,
                          batch: int) -> bool:
    return (projected.ndim == 3 and rows.ndim == 3
            and rows.shape[:2] == (batch, projected.shape[0])
            and projected.shape[1] == batch
            and w_query_t.shape == (query_dim, projected.shape[2])
            and combine.shape == projected.shape[2:]
            and (mask is None or mask.shape == rows.shape[:2]))


def additive_attention(projected: Tensor, rows: Tensor, mask: Array | None,
                       query: Tensor, w_query_t: Tensor,
                       combine: Tensor) -> tuple[Tensor, Tensor]:
    """One additive-attention head's decode step; returns (weights, context).

        hidden = tanh(projected + query @ w_query_t)      (K, B, A)
        weights = masked softmax over keys of hidden @ combine   (B, K)
        context[b] = weights[b] @ rows[b]                  (B, d)

    ``projected`` is the key-major (K, B, A) key projection, ``rows`` the
    (B, K, d) key rows, ``mask`` their (B, K) boolean mask of real rows (None:
    all real), ``query`` (B, Q), ``w_query_t`` (Q, A) and ``combine`` (A,).
    Masked keys get weight exactly 0. Decoding only: under an active tape it
    raises StateError.
    """
    qd = query.data
    if qd.ndim != 2 or not _attention_shapes_fit(projected.data, rows.data, mask,
                                                 w_query_t.data, combine.data,
                                                 *qd.shape[::-1]):
        raise _bad_shapes("additive_attention", projected=projected.shape,
                          rows=rows.shape, mask=np.shape(mask), query=query.shape,
                          w_query_t=w_query_t.shape, combine=combine.shape)
    _decode_only("additive_attention")
    _, w, context = _attention_arrays(projected.data, rows.data, mask, qd,
                                      w_query_t.data, combine.data)
    return _results("additive_attention", w, context)


Head = tuple[Tensor, Tensor, Array | None, Tensor, Tensor]


def decoder_unroll(embedded: Tensor, h: Tensor, c: Tensor, w: Tensor, b: Tensor,
                   heads: Sequence[Head], *, states: bool = True) -> tuple[Tensor, ...]:
    """A teacher-forced attention-LSTM decoder unroll over T steps, as one
    record. Step t runs every head (``additive_attention``) with the state
    h_t as query, then the LSTM (``lstm_cell``) on [each head's context;
    embedded[t]] and (h_t, c_t), giving (h_t+1, c_t+1).

    ``embedded`` is the (T, B, E) previous-word embeddings and ``h``, ``c``
    the (B, H) initial state. ``w`` is the (sum of d + E + H, 4H) LSTM
    weight, its rows in the order contexts, embedding, h; ``b`` is (4H,).
    Each head is (projected (K, B, A), rows (B, K, d), mask (B, K) or None,
    w_query_t (H, A), combine (A,)), as ``additive_attention`` takes them.

    Returns the (T, B, H) states h_1 .. h_T, then each head's (B, T, K)
    weights. With ``states=False`` it returns the weights alone and skips
    the last step's LSTM update, which only the states read.

    The forward projects every step's embedding through its rows of ``w``
    in one product, then loops over the steps, keeping each step's
    activations: the (B, ·) ones in (T, ...) buffers, each head's (K, B, A)
    tanh layer as one array per step. The backward is BPTT: its reverse loop
    computes what recurs (gate, context and query gradients, and the (h, c)
    gradient carried to the step before), adding each head's projected-key
    and ``combine`` gradients while that step's tanh layer is at hand. The
    gradients of ``w``, ``b``, ``embedded``, the key rows and ``w_query_t``
    are each one product over all T * B rows after the loop.
    """
    ed, hd, cd, wd = embedded.data, h.data, c.data, w.data
    # key-major in memory too, so that every step's tanh layer is, and the
    # backward reads it as (K * B, A) rows without a copy
    arrays = [(np.ascontiguousarray(p.data), r.data, m, wq.data, cb.data)
              for p, r, m, wq, cb in heads]
    fits = ed.ndim == 3 and hd.ndim == 2 and bool(arrays) and all(
        x.ndim == 3 for _, x, _, _, _ in arrays)
    if fits:
        (steps, batch, emb_w), size = ed.shape, hd.shape[1]
        widths = [r.shape[-1] for _, r, _, _, _ in arrays]
        ctx_w = sum(widths)
        fits = steps > 0 and hd.shape[0] == batch and cd.shape == hd.shape \
            and wd.shape == (ctx_w + emb_w + size, 4 * size) and b.shape == (4 * size,) \
            and all(_attention_shapes_fit(*head, size, batch) for head in arrays)
    if not fits:
        raise _bad_shapes("decoder_unroll", embedded=embedded.shape, h=h.shape,
                          c=c.shape, w=w.shape, b=b.shape,
                          heads=[tuple(np.shape(x) for x in head) for head in arrays])
    cells = steps if states else steps - 1
    offsets = list(accumulate(widths, initial=0))
    w_emb = wd[ctx_w:ctx_w + emb_w]
    w_rec = np.concatenate([wd[:ctx_w], wd[ctx_w + emb_w:]])   # rows for [contexts; h]
    pre = np.matmul(ed[:cells], w_emb) + b.data                 # (cells, B, 4H)
    xs = np.empty((steps, batch, ctx_w + size))                 # [contexts; h_t]
    gates = np.empty((cells, batch, 4 * size))                  # sigmoid(ifo), tanh(g)
    mem = np.empty((cells + 1, batch, size))
    tanh_mem = np.empty((cells, batch, size))
    out = np.empty((cells, batch, size))
    hiddens: list[list[Array]] = [[] for _ in arrays]          # per step (K, B, A)
    weights = [np.empty((batch, steps, p.shape[0])) for p, _, _, _, _ in arrays]
    mem[0], query = cd, hd
    for t in range(steps):
        x = xs[t]
        x[:, ctx_w:] = query
        for k, head in enumerate(arrays):
            hidden, weights[k][:, t], x[:, offsets[k]:offsets[k + 1]] = _attention_arrays(
                *head[:3], query, *head[3:])
            hiddens[k].append(hidden)
        if t < cells:
            (gates[t, :, :3 * size], gates[t, :, 3 * size:], mem[t + 1], tanh_mem[t],
             out[t]) = _lstm_arrays(pre[t] + np.matmul(x, w_rec), mem[t])
            query = out[t]
    outs = _results("decoder_unroll", *([out] if states else []), *weights)

    def rule(*grads: Array) -> tuple[Array, ...]:
        g_out = grads[0] if states else None
        g_weights = grads[1:] if states else grads
        g_gates = np.empty((cells, batch, 4 * size))
        g_ctx = np.zeros((batch, steps, ctx_w))
        g_query = [np.empty((steps, batch, p.shape[-1])) for p, _, _, _, _ in arrays]
        g_pre = [np.zeros(p.shape) for p, _, _, _, _ in arrays]   # summed over steps
        g_combine = [np.zeros(p.shape[-1]) for p, _, _, _, _ in arrays]
        gh, gc = np.zeros((batch, size)), np.zeros((batch, size))
        for t in reversed(range(steps)):
            if t < cells:
                if g_out is not None:
                    gh = gh + g_out[t]
                act, tc = gates[t], tanh_mem[t]
                ifo, g = act[:, :3 * size], act[:, 3 * size:]
                gc = gc + gh * ifo[:, 2 * size:] * (1.0 - tc * tc)
                ga = g_gates[t]
                ga[:, :size] = gc * g
                ga[:, size:2 * size] = gc * mem[t]
                ga[:, 2 * size:3 * size] = gh * tc
                ga[:, :3 * size] *= ifo
                ga[:, :3 * size] *= 1.0 - ifo
                ga[:, 3 * size:] = gc * ifo[:, :size] * (1.0 - g * g)
                gx = np.matmul(ga, w_rec.T)
                g_ctx[:, t] = gx[:, :ctx_w]
                gh, gc = gx[:, ctx_w:], gc * ifo[:, size:2 * size]
            for k, (_, rows, _, w_query_t, combine) in enumerate(arrays):
                wt = weights[k][:, t]
                gw = g_weights[k][:, t] + np.matmul(
                    rows, g_ctx[:, t, offsets[k]:offsets[k + 1], None])[:, :, 0]
                gs = (wt * (gw - (gw * wt).sum(axis=1, keepdims=True))).T
                hid = hiddens[k][t]
                g_combine[k] += gs.reshape(-1) @ hid.reshape(-1, hid.shape[-1])
                # the (K, B, A) pre-tanh gradient, short of its factor combine
                gpre = np.multiply(hid, hid)
                np.subtract(1.0, gpre, out=gpre)
                gpre *= gs[..., None]
                g_pre[k] += gpre
                gq = gpre.sum(axis=0) * combine
                g_query[k][t] = gq
                gh = gh + np.matmul(gq, w_query_t.T)
        flat = g_gates.reshape(-1, 4 * size)
        g_rec = xs[:cells].reshape(-1, ctx_w + size).T @ flat
        g_w = np.concatenate([g_rec[:ctx_w], ed[:cells].reshape(-1, emb_w).T @ flat,
                              g_rec[ctx_w:]])
        g_embedded = np.zeros(ed.shape)
        g_embedded[:cells] = np.matmul(g_gates, w_emb.T)
        queries = xs[:, :, ctx_w:].reshape(-1, size)
        g_heads = []
        for k, (_, _, _, _, combine) in enumerate(arrays):
            g_heads += [g_pre[k] * combine,
                        np.matmul(weights[k].transpose(0, 2, 1),
                                  g_ctx[:, :, offsets[k]:offsets[k + 1]]),
                        queries.T @ g_query[k].reshape(-1, combine.shape[0]),
                        g_combine[k]]
        return (g_embedded, gh, gc, g_w, flat.sum(axis=0), *g_heads)

    parents = (embedded, h, c, w, b,
               *(x for p, r, _, wq, cb in heads for x in (p, r, wq, cb)))
    return _record_many(outs, parents, rule)


def unstack(a: Tensor) -> tuple[Tensor, ...]:
    """The slices ``a[0], ..., a[n-1]`` along the first axis, as one record:
    the backward stacks the slices' gradients once."""
    if a.data.ndim == 0 or a.shape[0] == 0:
        raise DimensionError(f"unstack: need a non-empty first axis, got {a.shape}")
    if not np.isfinite(a.data).all():
        raise NumericError("unstack: produced non-finite values")
    outs = tuple(Tensor(x, _unchecked=True) for x in a.data)
    return _record_many(outs, (a,), lambda *grads: (np.stack(grads),))
