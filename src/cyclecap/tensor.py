"""Dense float64 tensors with taped reverse-mode differentiation.

The engine is deliberately small: eager numpy forward evaluation plus an
operation tape for gradients. Ops executed inside a ``with Tape():`` block
record one backward rule each; ``tape.backward(loss)`` walks those records
once in reverse creation order (creation order is already topological) and
accumulates gradients into ``Tensor.grad``. Outside a tape block the same
functions are plain forward math, which keeps inference cheap.

Scalars are 0-d arrays, vectors 1-d, matrices 2-d; nothing here needs more.
Every op validates its output for finiteness, so a NaN or overflow surfaces
at the op that produced it rather than ten layers downstream.
"""

from __future__ import annotations

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

    # Operator sugar; all arithmetic goes through the module-level ops so
    # that recording stays in one place.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


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


BackwardRule = Callable[[Array], tuple[Array | None, ...]]


class Tape:
    """Ordered record of ops for one forward pass, consumed by one backward.

    Records are appended at op creation time, so the list is topologically
    ordered by construction and the backward walk visits each node exactly
    once. A tape is single-use: calling backward twice raises StateError.
    Tapes do not nest; one thread drives one tape at a time.
    """

    _active: "Tape | None" = None

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, tuple[Tensor, ...], BackwardRule]] = []
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
            g = out.grad
            if g is None:
                continue
            for parent, pg in zip(parents, rule(g)):
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


def _result(name: str, arr: Array) -> Tensor:
    if not np.isfinite(arr).all():
        raise NumericError(f"{name}: produced non-finite values")
    return Tensor(arr, _unchecked=True)


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
    if a.data.ndim == 0 or b.data.ndim == 0 or a.data.ndim > 2 or b.data.ndim > 2:
        raise DimensionError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    out = _result("matmul", np.matmul(a.data, b.data))
    ad, bd = a.data, b.data

    def rule(g: Array) -> tuple[Array, Array]:
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), g @ ad
        return g * bd, g * ad  # 1-d dot product

    return _record(out, (a, b), rule)


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


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors in one node."""
    if not tensors:
        raise DimensionError("add_n: empty operand list")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise DimensionError(f"add_n: mixed shapes {shape} and {t.shape}")
    out = _result("add_n", sum(t.data for t in tensors))
    n = len(tensors)
    return _record(out, tuple(tensors), lambda g: (g,) * n)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-d tensors."""
    if not parts:
        raise DimensionError("concat: empty operand list")
    for p in parts:
        if p.data.ndim != 1:
            raise DimensionError(f"concat: expected vectors, got shape {p.shape}")
    out = _result("concat", np.concatenate([p.data for p in parts]))
    sizes = [p.data.size for p in parts]
    offsets = np.cumsum([0] + sizes)

    def rule(g: Array) -> tuple[Array, ...]:
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _record(out, tuple(parts), rule)


def column_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``[start, stop)`` of the last axis of a vector or matrix."""
    if a.data.ndim not in (1, 2) or not 0 <= start < stop <= a.shape[-1]:
        raise DimensionError(f"column_slice: [{start}:{stop}) out of range for "
                             f"shape {a.shape}")
    out = _result("column_slice", a.data[..., start:stop])
    shape = a.shape

    def rule(g: Array) -> tuple[Array]:
        full = np.zeros(shape)
        full[..., start:stop] = g
        return (full,)

    return _record(out, (a,), rule)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one row per input."""
    if not rows:
        raise DimensionError("stack_rows: empty operand list")
    width = rows[0].data.size
    for r in rows:
        if r.data.ndim != 1 or r.data.size != width:
            raise DimensionError(f"stack_rows: expected ({width},) vectors, got {r.shape}")
    out = _result("stack_rows", np.stack([r.data for r in rows]))
    n = len(rows)

    def rule(g: Array) -> tuple[Array, ...]:
        return tuple(g[i] for i in range(n))

    return _record(out, tuple(rows), rule)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis (max-subtracted)."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = _result("softmax", s)

    def rule(g: Array) -> tuple[Array]:
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _record(out, (a,), rule)


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


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign so neither exp overflows.
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                 np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))
    out = _result("sigmoid", y)
    return _record(out, (a,), lambda g: (g * y * (1.0 - y),))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Select rows of ``table``: a single id gives a vector, a sequence a matrix."""
    if table.data.ndim != 2:
        raise DimensionError(f"embedding-lookup: table must be 2-d, got {table.shape}")
    idx = np.asarray(ids)
    if idx.ndim > 1 or not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError("embedding-lookup: ids must be an int or a flat int sequence")
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


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the rows of a matrix, yielding one vector."""
    if a.data.ndim != 2:
        raise DimensionError(f"mean_rows: expected a matrix, got {a.shape}")
    out = _result("mean_rows", a.data.mean(axis=0))
    n = a.shape[0]
    return _record(out, (a,), lambda g: (np.tile(g / n, (n, 1)),))


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; the subgradient at 0 is taken as 0."""
    if (a.data < 0).any():
        raise NumericError("sqrt: negative input")
    y = np.sqrt(a.data)
    out = _result("sqrt", y)

    def rule(g: Array) -> tuple[Array]:
        return (np.where(y > 0.0, 0.5 / np.where(y > 0.0, y, 1.0), 0.0) * g,)

    return _record(out, (a,), rule)


def pick(a: Tensor, index: int) -> Tensor:
    """Select one element of a vector as a 0-d tensor."""
    if a.data.ndim != 1:
        raise DimensionError(f"pick: expected a vector, got {a.shape}")
    if not 0 <= index < a.data.size:
        raise DimensionError(f"pick: index {index} out of range for length {a.data.size}")
    out = _result("pick", np.asarray(a.data[index]))
    size = a.data.size

    def rule(g: Array) -> tuple[Array]:
        z = np.zeros(size)
        z[index] = float(g)
        return (z,)

    return _record(out, (a,), rule)
