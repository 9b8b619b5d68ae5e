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
take a boolean mask of real entries (``masked_mean``, ``frobenius``,
``pick``, and ``decoder_unroll`` through each ``Head``); masked-out entries
never reach the result and get exactly zero gradient, so padding cannot leak
into a loss. A pooling or attention mask is always a (B, ·) array, all-true
when every entry is real. ``matmul`` applies a shared weight over every
leading axis, ``batch_matmul`` multiplies matrix i of one batch by matrix i
of another.

Besides the primitives there are two fused ops, each a whole sequence as
one record, its backward BPTT written out once: ``gru_unroll`` (one GRU
direction over all T steps) and ``decoder_unroll`` (a teacher-forced decoder
unroll: every attention head and the LSTM over all T steps). At these sizes
an op costs per record rather than per flop, so fewer, wider records are
what make training cheap. Both pack their (B, T) mask of real steps, as
cuDNN and PyTorch pack padded sequences: step t runs forward and backward on
the rows still real at t, and outputs at padded steps are exactly 0.
``decoder_unroll`` takes each head as one ``Head`` record, the prepared keys
and the scorer's weights. The decode step
(``attention.attend``, ``cells.lstm_step``) runs its step math,
``attention_arrays`` and ``lstm_arrays``, outside the engine and refuses a
tape (``refuse_tape``): decoding never runs backward. Every op validates its
output for finiteness (``finite`` for several), so a NaN or overflow
surfaces at the op that produced it rather than ten layers downstream.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

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


def finite(name: str, *arrays: Array) -> tuple[Tensor, ...]:
    """The outputs of a fused op or a decode step, with one finiteness check
    over all of them."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericError(f"{name}: produced non-finite values")
    return tuple(Tensor(x, _unchecked=True) for x in arrays)


def refuse_tape(op: str) -> None:
    """Raise StateError under an active tape: decode steps record nothing."""
    if Tape._active is not None:
        raise StateError(f"{op}: a decode step keeps no backward rule; "
                         f"teacher forcing runs decoder_unroll")


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


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    out = _result("log_softmax", y)
    probs = np.exp(y)

    def rule(g: Array) -> tuple[Array]:
        return (g - probs * g.sum(axis=-1, keepdims=True),)

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


def masked_mean(a: Tensor, mask: Array) -> Tensor:
    """Mean over the real rows of each record: a (B, L, d) with the (B, L)
    boolean mask of real rows gives (B, d). Masked-out rows are read as 0 and
    get no gradient; each record needs at least one real row."""
    if a.data.ndim != 3 or mask.shape != a.shape[:2]:
        raise DimensionError(f"masked_mean: need a (B, L, d) tensor and a (B, L) "
                             f"mask, got {a.shape} and {mask.shape}")
    counts = mask.sum(axis=1)
    if not counts.all():
        raise DimensionError("masked_mean: a record has no real rows")
    out = _result("masked_mean", a.data.sum(axis=1, where=mask[..., None]) / counts[:, None])
    return _record(out, (a,), lambda g: (g[:, None, :] * (mask / counts[:, None])[..., None],))


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
# Fused ops: one record, one backward rule and one finiteness check each
# ---------------------------------------------------------------------------

def _sigmoid(x: Array) -> Array:
    # 0.5 * tanh(x / 2) + 0.5: four passes over one new array, and tanh never
    # overflows
    y = np.multiply(x, 0.5)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def _bad_shapes(op: str, **shapes) -> DimensionError:
    listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
    return DimensionError(f"{op}: shapes do not fit together: {listed}")


def _packing(op: str, mask: Array, steps: int, batch: int
             ) -> tuple[Array, Array, list[int]]:
    """A (B, T) boolean mask of real steps, real ones first, packed: the rows
    in stable descending order of length, the inverse order, and the count
    of real rows per step: step t runs on the prefix ``[:live[t]]``."""
    if np.shape(mask) != (batch, steps):
        raise DimensionError(f"{op}: step mask has shape {np.shape(mask)}, "
                             f"not {(batch, steps)}")
    if (mask[:, 1:] > mask[:, :-1]).any():
        raise DimensionError(f"{op}: step mask is not a prefix: a real step "
                             f"follows a padded one")
    order = np.argsort(-mask.sum(axis=1), kind="stable")
    return order, np.argsort(order), mask.sum(axis=0).tolist()


def lstm_arrays(a: Array, c: Array) -> tuple[Array, ...]:
    """One LSTM step's gates and state update on arrays (as ``cells.lstm_step``
    defines them), from its (..., 4H) pre-activations ``a`` (gate blocks i,
    f, o, g) and memory ``c``: (sigmoid of the i, f, o blocks, tanh of the g
    block, c', tanh(c'), h')."""
    size = c.shape[-1]
    ifo = _sigmoid(a[..., :3 * size])
    g = np.tanh(a[..., 3 * size:])
    c_new = ifo[..., size:2 * size] * c + ifo[..., :size] * g
    tc = np.tanh(c_new)
    return ifo, g, c_new, tc, ifo[..., 2 * size:] * tc


class Head(NamedTuple):
    """One attention head over a sequence's keys, as ``decoder_unroll`` and
    ``attention.attend`` take it: the key side prepared once per sequence
    (``attention.AttentionLayer.prepare``) and the scorer's ``combine``."""

    projected: Tensor   # (K, B, A): key rows @ w_key + b, key-major
    rows: Tensor        # (B, K, d) key rows
    mask: Array         # (B, K) boolean, True on real rows
    w_query_t: Tensor   # (Q, A): the query weight, transposed
    combine: Tensor     # (A,): the score's output weight


def attention_arrays(head: Sequence[Array], query: Array) -> tuple[Array, Array, Array]:
    """One additive-attention head's step on arrays, ``head`` holding a
    ``Head``'s fields as arrays; returns (hidden, weights, context):

        hidden = tanh(projected + query @ w_query_t)      (K, B, A)
        weights = masked softmax over keys of hidden @ combine   (B, K)
        context[b] = weights[b] @ rows[b]                  (B, d)

    ``query`` is (B, Q). Masked keys get weight exactly 0. A head of one
    record broadcasts over B query rows, as if repeated once per row.
    """
    projected, rows, mask, w_query_t, combine = head
    hidden = np.tanh(projected + np.matmul(query, w_query_t))
    # masked while key-major, as the scores come, and read batch-major as a
    # view: every head's softmax sums run over that one layout
    s = np.where(mask.T, np.matmul(hidden, combine), -np.inf).T
    e = np.exp(s - s.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    return hidden, w, np.matmul(w[:, None, :], rows)[:, 0, :]


def gru_unroll(embedded: Tensor, w: Tensor, u: Tensor, b: Tensor, mask: Array, *,
               reverse: bool = False) -> Tensor:
    """One GRU direction over a (T, B, E) sequence from a zero state, as one
    record; returns the (B, T, H) states. Step t reads embedded[t], with
    gate blocks r, z, n of width H:

        xw = embedded[t] @ w + b,  a = h @ u
        r, z = sigmoid(xw[:2H] + a[:2H]) in two blocks
        n = tanh(xw[2H:] + r * a[2H:])
        h' = n + z * (h - n)

    ``w`` is (E, 3H), ``u`` (H, 3H), ``b`` (3H,) and ``mask`` the (B, T)
    boolean mask of real positions, real ones first in each row. The forward
    direction steps t = 0 .. T-1; with ``reverse`` it steps t = T-1 .. 0,
    each record's pass starting from zero at its own last token. States at
    padded positions are exactly 0 and pass no gradient back.

    The batch is packed (``_packing``), so each step runs on the prefix of
    rows still real there. The forward projects every input in one product,
    then loops over the steps, keeping each step's gates under a tape. The
    backward is BPTT: its reverse loop carries the state gradient, and the
    gradients of ``embedded``, ``w``, ``u`` and ``b`` are each one product
    over all T * B rows after it, padded rows adding zeros.
    """
    ed, wd, ud = embedded.data, w.data, u.data
    size = ud.shape[0] if ud.ndim == 2 else 0
    if ed.ndim != 3 or not ed.shape[0] or not size or ud.shape != (size, 3 * size) \
            or wd.shape != (ed.shape[2], 3 * size) or b.shape != (3 * size,):
        raise _bad_shapes("gru_unroll", embedded=embedded.shape, w=w.shape, u=u.shape,
                          b=b.shape, mask=np.shape(mask))
    steps, batch, emb_w = ed.shape
    order, restore, live = _packing("gru_unroll", mask, steps, batch)
    xw = np.matmul(ed[:, order], wd) + b.data         # (T, B, 3H), rows packed
    # step t reads slot t + read and writes slot t + write; the slot no step
    # writes is the zero initial state, and a row that joins the prefix late
    # reads the zeros of its padded positions
    read, write = (1, 0) if reverse else (0, 1)
    slots = np.zeros((steps + 1, batch, size))
    order_t = range(steps - 1, -1, -1) if reverse else range(steps)
    taped, kept = Tape._active is not None, [None] * steps   # each step's gates
    for t in order_t:
        k = live[t]
        h = slots[t + read, :k]
        a = np.matmul(h, ud)
        rz = _sigmoid(xw[t, :k, :2 * size] + a[:, :2 * size])
        an = a[:, 2 * size:]                          # (h @ u)[2H:]
        n = np.tanh(xw[t, :k, 2 * size:] + rz[:, :size] * an)
        slots[t + write, :k] = n + rz[:, size:] * (h - n)
        if taped:
            kept[t] = rz, an.copy(), n                # a copy keeps not all of a
    prev = slots[read:read + steps]                   # the state step t reads
    out = _result("gru_unroll", slots[write:write + steps].transpose(1, 0, 2)[restore])

    def rule(g: Array) -> tuple[Array, Array, Array, Array]:
        g = g[order]
        g_xw = np.zeros((steps, batch, 3 * size))
        g_a = np.zeros((steps, batch, 3 * size))      # of h @ u
        g_h = np.zeros((batch, size))                 # carried to the step before
        u_t = np.ascontiguousarray(ud.T)              # BLAS is faster on it than on ud.T
        for t in reversed(order_t):
            k = live[t]
            rz, an, n = kept[t]
            gh = g_h[:k] + g[:k, t]
            z = rz[:, size:]
            gn = (gh - gh * z) * (1.0 - n * n)
            gx = g_xw[t, :k]
            gx[:, :size] = gn * an
            gx[:, size:2 * size] = gh * (prev[t, :k] - n)
            gx[:, :2 * size] *= rz
            gx[:, :2 * size] *= 1.0 - rz
            gx[:, 2 * size:] = gn
            ga = g_a[t, :k]
            ga[:] = gx
            ga[:, 2 * size:] *= rz[:, :size]
            g_h[:k] = gh * z + np.matmul(ga, u_t)
        flat = g_xw.reshape(-1, 3 * size)
        return (np.matmul(g_xw, wd.T)[:, restore],
                ed[:, order].reshape(-1, emb_w).T @ flat,
                prev.reshape(-1, size).T @ g_a.reshape(-1, 3 * size), flat.sum(axis=0))

    return _record(out, (embedded, w, u, b), rule)


def decoder_unroll(embedded: Tensor, h: Tensor, c: Tensor, w: Tensor, b: Tensor,
                   heads: Sequence[Head], mask: Array, *,
                   states: bool = True) -> tuple[Tensor, ...]:
    """A teacher-forced attention-LSTM decoder unroll over T steps, as one
    record. Step t runs every head (``attention_arrays``) with the state
    h_t as query, then the LSTM (``lstm_arrays``) on [each head's context;
    embedded[t]] and (h_t, c_t), giving (h_t+1, c_t+1).

    ``embedded`` is the (T, B, E) previous-word embeddings and ``h``, ``c``
    the (B, H) initial state. ``w`` is the (sum of d + E + H, 4H) LSTM
    weight, its rows in the order contexts, embedding, h; ``b`` is (4H,).
    Each ``Head`` holds the keys of all B records, its ``w_query_t`` (H, A).
    ``mask`` is the (B, T) boolean mask of real steps, real ones first in
    each row.

    Returns the (T, B, H) states h_1 .. h_T, then each head's (B, T, K)
    weights, exactly 0 at padded steps, which pass no gradient back. With
    ``states=False`` it returns the weights alone, and the LSTM of step t
    runs only on the rows that attend at step t + 1.

    The batch is packed (``_packing``), so each step runs on the prefix of
    rows still real there. The forward projects every step's embedding
    through its rows of ``w`` in one product, then loops over the steps,
    keeping each step's activations. The backward is BPTT: its reverse loop
    computes what recurs (gate, context and query gradients, and the (h, c)
    gradient carried to the step before), adding each head's projected-key
    and ``combine`` gradients while that step's tanh layer is at hand. The
    gradients of ``w``, ``b``, ``embedded``, the key rows and ``w_query_t``
    are each one product over all T * B rows after the loop, padded rows
    adding zeros.
    """
    ed, hd, cd, wd = embedded.data, h.data, c.data, w.data
    arrays = [(p.data, r.data, m, wq.data, cb.data) for p, r, m, wq, cb in heads]
    fits = ed.ndim == 3 and hd.ndim == 2 and bool(arrays) and all(
        x.ndim == 3 for _, x, _, _, _ in arrays)
    if fits:
        (steps, batch, emb_w), size = ed.shape, hd.shape[1]
        widths = [r.shape[-1] for _, r, _, _, _ in arrays]
        ctx_w = sum(widths)
        fits = steps > 0 and hd.shape[0] == batch and cd.shape == hd.shape \
            and wd.shape == (ctx_w + emb_w + size, 4 * size) and b.shape == (4 * size,) \
            and all(p.ndim == 3 and p.shape[1] == batch and r.shape[:2] == (batch, len(p))
                    and m.shape == r.shape[:2] and wq.shape == (size, p.shape[2])
                    and cb.shape == p.shape[2:] for p, r, m, wq, cb in arrays)
    if not fits:
        raise _bad_shapes("decoder_unroll", embedded=embedded.shape, h=h.shape,
                          c=c.shape, w=w.shape, b=b.shape,
                          heads=[tuple(np.shape(x) for x in head) for head in arrays])
    order, restore, live = _packing("decoder_unroll", mask, steps, batch)
    hd, cd = hd[order], cd[order]
    # the projected keys key-major in memory too, so that every step's tanh
    # layer is, and the backward reads it as (K * k, A) rows without a copy
    arrays = [(np.ascontiguousarray(p[:, order]), r[order], m[order], wq, cb)
              for p, r, m, wq, cb in arrays]
    # the rows whose LSTM step t runs: those whose h_t+1 is read
    cell_rows = live if states else live[1:] + [0]
    offsets = list(accumulate(widths, initial=0))
    w_emb = wd[ctx_w:ctx_w + emb_w]
    w_rec = np.concatenate([wd[:ctx_w], wd[ctx_w + emb_w:]])   # rows for [contexts; h]
    pre = np.matmul(ed[:, order], w_emb) + b.data               # (T, B, 4H)
    xs = np.zeros((steps, batch, ctx_w + size))                 # [contexts; h_t]
    out = np.zeros((steps, batch, size))                        # h_t+1
    cells: list[tuple[Array, ...]] = []                 # per step: ifo, g, tanh c', c
    hiddens: list[list[Array]] = [[] for _ in arrays]          # per step (K, k, A)
    weights = [np.zeros((batch, steps, p.shape[0])) for p, _, _, _, _ in arrays]
    query, mem = hd, cd
    for t in range(steps):
        k, m = live[t], cell_rows[t]
        x, query = xs[t, :k], query[:k]
        x[:, ctx_w:] = query
        for j, (p, r, msk, wq, cb) in enumerate(arrays):
            hidden, weights[j][:k, t], x[:, offsets[j]:offsets[j + 1]] = attention_arrays(
                (p[:, :k], r[:k], msk[:k], wq, cb), query)
            hiddens[j].append(hidden)
        if m:
            mem = mem[:m]
            ifo, g, c_new, tc, query = lstm_arrays(pre[t, :m] + np.matmul(x[:m], w_rec), mem)
            cells.append((ifo, g, tc, mem))
            out[t, :m], mem = query, c_new
    outs = finite("decoder_unroll", *([out[:, restore]] if states else []),
                  *(x[restore] for x in weights))

    def rule(*grads: Array) -> tuple[Array, ...]:
        g_out = grads[0][:, order] if states else None
        g_weights = [g[order] for g in (grads[1:] if states else grads)]
        g_gates = np.zeros((steps, batch, 4 * size))
        g_ctx = np.zeros((batch, steps, ctx_w))
        g_query = [np.zeros((steps, batch, p.shape[-1])) for p, _, _, _, _ in arrays]
        g_pre = [np.zeros(p.shape) for p, _, _, _, _ in arrays]   # summed over steps
        g_combine = [np.zeros(p.shape[-1]) for p, _, _, _, _ in arrays]
        g_h, g_c = np.zeros((batch, size)), np.zeros((batch, size))
        # transposed weights copied once: BLAS is faster on them than on views
        w_rec_t = np.ascontiguousarray(w_rec.T)
        w_query = [np.ascontiguousarray(wq.T) for _, _, _, wq, _ in arrays]
        for t in reversed(range(steps)):
            k, m = live[t], cell_rows[t]
            if m:
                ifo, g, tc, c_prev = cells[t]
                gh = g_h[:m] if g_out is None else g_h[:m] + g_out[t, :m]
                gc = g_c[:m] + gh * ifo[:, 2 * size:] * (1.0 - tc * tc)
                ga = g_gates[t, :m]
                ga[:, :size] = gc * g
                ga[:, size:2 * size] = gc * c_prev
                ga[:, 2 * size:3 * size] = gh * tc
                ga[:, :3 * size] *= ifo
                ga[:, :3 * size] *= 1.0 - ifo
                ga[:, 3 * size:] = gc * ifo[:, :size] * (1.0 - g * g)
                gx = np.matmul(ga, w_rec_t)
                g_ctx[:m, t] = gx[:, :ctx_w]
                g_h[:m], g_c[:m] = gx[:, ctx_w:], gc * ifo[:, size:2 * size]
            for j, (_, rows, _, _, combine) in enumerate(arrays):
                wt = weights[j][:k, t]
                gw = g_weights[j][:k, t] + np.matmul(
                    rows[:k], g_ctx[:k, t, offsets[j]:offsets[j + 1], None])[:, :, 0]
                gs = (wt * (gw - (gw * wt).sum(axis=1, keepdims=True))).T
                hid = hiddens[j][t]
                g_combine[j] += gs.reshape(-1) @ hid.reshape(-1, hid.shape[-1])
                # the (K, k, A) pre-tanh gradient, short of its factor combine
                gpre = np.multiply(hid, hid)
                np.subtract(1.0, gpre, out=gpre)
                gpre *= gs[..., None]
                g_pre[j][:, :k] += gpre
                gq = gpre.sum(axis=0) * combine
                g_query[j][t, :k] = gq
                g_h[:k] += np.matmul(gq, w_query[j])
        flat = g_gates.reshape(-1, 4 * size)
        g_rec = xs.reshape(-1, ctx_w + size).T @ flat
        g_w = np.concatenate([g_rec[:ctx_w], ed[:, order].reshape(-1, emb_w).T @ flat,
                              g_rec[ctx_w:]])
        queries = xs[:, :, ctx_w:].reshape(-1, size)
        g_heads = []
        for j, (_, _, _, _, combine) in enumerate(arrays):
            g_heads += [(g_pre[j] * combine)[:, restore],
                        np.matmul(weights[j].transpose(0, 2, 1),
                                  g_ctx[:, :, offsets[j]:offsets[j + 1]])[restore],
                        queries.T @ g_query[j].reshape(-1, combine.shape[0]),
                        g_combine[j]]
        return (np.matmul(g_gates, w_emb.T)[:, restore], g_h[restore], g_c[restore], g_w,
                flat.sum(axis=0), *g_heads)

    parents = (embedded, h, c, w, b,
               *(x for p, r, _, wq, cb in heads for x in (p, r, wq, cb)))
    return _record_many(outs, parents, rule)
