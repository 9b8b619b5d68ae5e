"""Dense float64 tensors with taped reverse-mode differentiation.

The engine is deliberately small: eager numpy forward evaluation plus an
operation tape for gradients. Ops executed inside a ``with Tape():`` block
record one backward rule each; ``tape.backward(roots)`` walks those records
once in reverse creation order (creation order is already topological) and
accumulates gradients into ``Tensor.grad``. The roots are a scalar loss, or
(output, seed) pairs whose seeds weigh each output, so that a loss's
weights and a gradient check's probes need no op of their own. Outside a
tape block the same functions are plain forward math.

A record may own a tuple of outputs, such as a decoder unroll's states and
attention weights. Its one rule then receives one gradient per output, with
zeros for an output no gradient reached, and the record is skipped when
none did.

Training runs on batches, so tensors carry a leading batch axis: states are
(B, H), key rows (B, K, d), attention weights (B, K). The ops that need it
take a boolean mask of real entries, always a (B, ·) array; masked-out
entries never reach the result and get exactly zero gradient, so padding
cannot leak into a loss.

There are five ops, each one record with its backward written out once:
at these sizes an op costs per record rather than per flop, so fewer,
wider records are what make training cheap. ``projection`` is the image
projection; ``encoder_unroll`` the caption encoder, its lookup and both GRU
directions over all T steps; ``decoder_unroll`` a teacher-forced decoder
from its raw key rows, initial state projections and embedding table to
its last state; ``output_nll`` the likelihood from a decoder's states;
``cycle_distance`` the cycle loss.

The two unrolls pack their (B, T) mask of real steps, as cuDNN and PyTorch
pack padded sequences (``_packing``): step t runs forward and backward on
the rows still real at t, the products outside the step loops (input
projections, weight gradients, the embedding table's gradient) run on the
real (step, row) pairs alone, packed step by step into one buffer, and
outputs at padded steps are exactly 0. Decoding never runs
backward, so it never enters the engine: ``attention.attend`` and
``cells.lstm_step`` run the step math, ``attention_arrays`` and
``lstm_arrays``, and the decoder's output layer runs ``log_softmax``, all on
arrays, over keys that the same ``prepare`` and ``initial_state`` made.
``output_nll`` runs the same ``log_softmax``. Every op and decode step
validates its output for finiteness (``finite``), so a NaN or overflow
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


def parameters(*owners) -> dict[str, Parameter]:
    """Every Parameter reachable from ``owners`` through instance attributes
    (``vars``), tuples and lists, keyed by name, in attribute order: a
    network's parameters are the ones it holds, under the names its
    constructor gave them. Anything else it holds (sizes, masks, arrays) is
    not a parameter and is skipped."""
    found: dict[str, Parameter] = {}
    for owner in owners:
        if isinstance(owner, Parameter):
            found[owner.name] = owner
        elif isinstance(owner, (tuple, list)):
            found.update(parameters(*owner))
        elif hasattr(owner, "__dict__"):
            found.update(parameters(*vars(owner).values()))
    return found


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

    def backward(self, roots: Tensor | Sequence[tuple[Tensor, float | Array]]) -> None:
        """Accumulate the gradient of sum(seed * output) over ``roots`` into
        .grad for every recorded node. ``roots`` is (output, seed) pairs,
        each seed an array of its output's shape (a float for a scalar), or
        a scalar loss alone, seeded with 1."""
        if self._spent:
            raise StateError("backward already ran on this tape; build a new tape")
        if isinstance(roots, Tensor):
            if roots.data.size != 1:
                raise DimensionError(f"backward: loss has shape {roots.shape}, not scalar")
            roots = [(roots, np.ones_like(roots.data))]
        seeded = []
        for out, seed in roots:
            seed = np.array(seed, dtype=np.float64)
            if seed.shape != out.shape:
                raise DimensionError(f"backward: seed of shape {seed.shape} for an "
                                     f"output of shape {out.shape}")
            if not np.isfinite(seed).all():
                raise NumericError("backward: non-finite seed")
            if id(out) not in self._outputs:
                raise StateError("backward: root was not produced on this tape")
            seeded.append((out, seed))
        self._spent = True
        for out, seed in seeded:
            out.grad = seed if out.grad is None else out.grad + seed
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


def finite(name: str, *arrays: Array) -> tuple[Array, ...]:
    """``arrays``, the outputs of op or decode step ``name``, after one
    finiteness check over all of them."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise NumericError(f"{name}: produced non-finite values")
    return arrays


def _result(name: str, arr: Array) -> Tensor:
    return Tensor(finite(name, arr)[0], _unchecked=True)


# ---------------------------------------------------------------------------
# Fused ops: one record, one backward rule and one finiteness check each
# ---------------------------------------------------------------------------

def log_softmax(a: Array) -> Array:
    """Log-softmax over the last axis of an array: the output layer of
    decoding and of ``output_nll``."""
    shifted = a - a.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


class Packing(NamedTuple):
    """A batch's (B, T) mask of real steps, packed as cuDNN and PyTorch pack
    padded sequences: the rows ordered by length, longest first, so that
    step t runs on the prefix ``[:live[t]]`` of them, and the real (step,
    row) pairs laid out step by step, step t's as rows ``offsets[t]:offsets[t
    + 1]`` of a packed (sum of live, ·) buffer."""

    order: Array            # (B,) the rows in stable descending order of length
    restore: Array          # (B,) the inverse order
    live: list[int]         # per step, its count of real rows
    offsets: list[int]      # per step, its first row in a packed buffer; then the total
    real: Array             # (T, B) boolean, the ordered rows' mask, time-major


def _packing(op: str, mask: Array, steps: int, batch: int) -> Packing:
    """``mask``, a (B, T) boolean mask of real steps, real ones first in each
    row, packed. A batch without padding, as decoding's is, keeps its
    order."""
    if np.shape(mask) != (batch, steps):
        raise DimensionError(f"{op}: step mask has shape {np.shape(mask)}, "
                             f"not {(batch, steps)}")
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        order, live = np.arange(batch), [batch] * steps
        return Packing(order, order, live, list(range(0, batch * steps + 1, batch)), mask.T)
    if (mask[:, 1:] > mask[:, :-1]).any():
        raise DimensionError(f"{op}: step mask is not a prefix: a real step "
                             f"follows a padded one")
    order = np.argsort(-mask.sum(axis=1), kind="stable")
    real = mask[order].T
    live = real.sum(axis=1).tolist()
    return Packing(order, np.argsort(order), live, list(accumulate(live, initial=0)), real)


def _table_gradient(shape: tuple[int, ...], ids: Array, rows: Array) -> Array:
    """The gradient of a (vocab, E) table from the (N, E) gradients of its
    N lookups ``table[ids]``: each id's rows summed in their order, by one
    stable sort of the ids and one segmented sum, so the cost grows as N log
    N, never with the vocabulary."""
    g = np.zeros(shape)
    if ids.size:
        by_id = np.argsort(ids, kind="stable")
        sorted_ids = ids[by_id]
        first = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
        g[sorted_ids[first]] = np.add.reduceat(rows[by_id], first, axis=0)
    return g


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


class HeadKeys(NamedTuple):
    """One attention head's key side as ``decoder_unroll`` takes it: the key
    rows, their mask and the scorer's parameters
    (``attention.AttentionLayer.keys``)."""

    rows: Tensor        # (B, K, d) key rows
    mask: Array         # (B, K) boolean, True on real rows
    w_key: Tensor       # (d, A)
    b: Tensor           # (A,)
    w_query: Tensor     # (A, Q)
    combine: Tensor     # (A,): the score's output weight


class Head(NamedTuple):
    """One attention head's keys prepared once per sequence (``prepare``),
    as ``attention_arrays`` reads them: arrays, never taped."""

    projected: Array    # (K, B, A): key rows @ w_key + b, key-major
    rows: Array         # (B, K, d) key rows
    mask: Array         # (B, K) boolean, True on real rows
    w_query_t: Array    # (Q, A): the query weight, transposed
    combine: Array      # (A,)


def prepare(keys: HeadKeys) -> Head:
    """The per-sequence work of every step that attends over ``keys``
    (additive attention as in Bahdanau et al., 2015): project the rows,
    key-major, and transpose ``w_query``. Decoding and ``decoder_unroll``
    both start from it."""
    rows = keys.rows.data
    return Head((np.matmul(rows, keys.w_key.data) + keys.b.data).transpose(1, 0, 2), rows,
                keys.mask, keys.w_query.data.T, keys.combine.data)


def pool(rows: Array, mask: Array) -> Array:
    """The mean of each record's real rows: a (B, K, d) with its (B, K)
    boolean mask gives (B, d). Each record needs at least one real row."""
    return rows.sum(axis=1, where=mask[..., None]) / mask.sum(axis=1)[:, None]


def initial_state(mean: Array, initial: Sequence[tuple[Tensor, Tensor]]) -> list[Array]:
    """A decoder's initial state: one ``tanh(mean @ w + b)`` per (w, b) pair
    of ``initial``, all of one ``pool``ed mean, so permutation invariant."""
    return [np.tanh(np.matmul(mean, w.data) + b.data) for w, b in initial]


def attention_arrays(head: Head, query: Array) -> tuple[Array, Array, Array]:
    """One additive-attention head's step; returns (hidden, weights,
    context):

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


def projection(features: Array, w: Tensor, b: Tensor) -> Tensor:
    """``tanh(features @ w + b)`` over every leading axis of a (..., k)
    feature array, as one record: the image projection, with ``w`` (k, n)
    and ``b`` (n,). The features are data, not a parent: they get no
    gradient. The backward forms ``w``'s gradient as one product over all
    rows, and ``b``'s by summing the leading axes one at a time, the order
    in which a broadcast add reduces it; one sum over all of them may round
    differently."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 0 or w.data.ndim != 2 or features.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise _bad_shapes("projection", features=features.shape, w=w.shape, b=b.shape)
    y = np.tanh(finite("projection", np.matmul(features, w.data) + b.data)[0])
    k, n = w.shape

    def rule(g: Array) -> tuple[Array, Array]:
        g = g * (1.0 - y * y)
        g_b = g
        while g_b.ndim > 1:
            g_b = g_b.sum(axis=0)
        return features.reshape(-1, k).T @ g.reshape(-1, n), g_b

    return _record(Tensor(y, _unchecked=True), (w, b), rule)


def _gru_pass(xw: Array, u: Array, packing: Packing, reverse: bool, taped: bool
              ) -> tuple[Array, Callable[[Array], tuple[Array, Array]]]:
    """One GRU direction of ``encoder_unroll`` from a zero state, over the
    packed (sum of live, 3H) input pre-activations ``xw = x @ w + b``, step t
    on its rows of the ``packing``, the prefix ``[:live[t]]`` of the ordered
    rows; returns the (T, B, H) states of the ordered rows, 0 at padded
    steps, and, when ``taped``, its BPTT: a function from their gradient to
    the packed gradient of ``xw`` and the gradient of ``u``."""
    live, offsets, real = packing.live, packing.offsets, packing.real
    (steps, batch), size = real.shape, u.shape[0]
    # step t reads slot t + read and writes slot t + write; the slot no step
    # writes is the zero initial state, and a row that joins the prefix late
    # reads the zeros of its padded positions
    read, write = (1, 0) if reverse else (0, 1)
    slots = np.zeros((steps + 1, batch, size))
    order_t = range(steps - 1, -1, -1) if reverse else range(steps)
    kept = [None] * steps                             # each step's gates
    for t in order_t:
        k, x = live[t], xw[offsets[t]:offsets[t + 1]]
        h = slots[t + read, :k]
        a = np.matmul(h, u)
        rz = _sigmoid(x[:, :2 * size] + a[:, :2 * size])
        an = a[:, 2 * size:]                          # (h @ u)[2H:]
        n = np.tanh(x[:, 2 * size:] + rz[:, :size] * an)
        slots[t + write, :k] = n + rz[:, size:] * (h - n)
        if taped:
            kept[t] = rz, an.copy(), n                # a copy keeps not all of a
    prev = slots[read:read + steps]                   # the state step t reads

    def backward(g: Array) -> tuple[Array, Array]:
        g_xw = np.empty(xw.shape)                     # every row written at its step
        g_a = np.empty(xw.shape)                      # of h @ u
        g_h = np.zeros((batch, size))                 # carried to the step before
        u_t = np.ascontiguousarray(u.T)               # BLAS is faster on it than on u.T
        for t in reversed(order_t):
            k, rows = live[t], slice(offsets[t], offsets[t + 1])
            rz, an, n = kept[t]
            gh = g_h[:k] + g[:k, t]
            z = rz[:, size:]
            gn = (gh - gh * z) * (1.0 - n * n)
            gx = g_xw[rows]
            gx[:, :size] = gn * an
            gx[:, size:2 * size] = gh * (prev[t, :k] - n)
            gx[:, :2 * size] *= rz
            gx[:, :2 * size] *= 1.0 - rz
            gx[:, 2 * size:] = gn
            ga = g_a[rows]
            ga[:] = gx
            ga[:, 2 * size:] *= rz[:, :size]
            g_h[:k] = gh * z + np.matmul(ga, u_t)
        return g_xw, prev[real].T @ g_a

    return slots[write:write + steps], backward


def encoder_unroll(table: Tensor, ids: Array,
                   directions: Sequence[tuple[Tensor, Tensor, Tensor]], mask: Array) -> Tensor:
    """A bidirectional GRU encoder over (B, T) ids, as one record from its
    embedding table: the lookup, a forward and a backward direction, each
    from a zero state, and their concatenation. Returns the (B, T, 2H)
    states, row t being [forward_t; backward_t]. Step t of a direction reads
    x = table[ids[:, t]], with gate blocks r, z, n of width H:

        xw = x @ w + b,  a = h @ u
        r, z = sigmoid(xw[:2H] + a[:2H]) in two blocks
        n = tanh(xw[2H:] + r * a[2H:])
        h' = n + z * (h - n)

    ``directions`` holds the forward, then the backward direction's (w, u,
    b): ``w`` is (E, 3H), ``u`` (H, 3H) and ``b`` (3H,). ``mask`` is the
    (B, T) boolean mask of real positions, real ones first in each row. The
    forward direction steps t = 0 .. T-1 and the backward one t = T-1 .. 0,
    each record's pass starting from zero at its own last token. States at
    padded positions are exactly 0 and pass no gradient back.

    The batch is packed once (``_packing``) for both directions: the real
    positions' ids are gathered once, step by step, and every product
    outside the step loops runs on those rows alone. The forward looks them
    up and projects them in one product per direction, then loops over the
    steps, each on the prefix of rows still real there (``_gru_pass``). The
    backward is BPTT per direction; the gradients of ``w``, ``u`` and ``b``
    are each one product over the real positions after it, and the table's
    is one segmented sum of their rows, over both directions
    (``_table_gradient``).
    """
    td, ids = table.data, np.asarray(ids)
    size = directions[0][1].shape[0] if len(directions) == 2 \
        and directions[0][1].data.ndim == 2 else 0
    if td.ndim != 2 or ids.ndim != 2 or ids.dtype.kind not in "iu" or not ids.shape[1] \
            or not size or not all(w.shape == (td.shape[1], 3 * size)
                                   and u.shape == (size, 3 * size) and b.shape == (3 * size,)
                                   for w, u, b in directions):
        raise _bad_shapes("encoder_unroll", table=table.shape, ids=ids.shape,
                          directions=[tuple(x.shape for x in d) for d in directions],
                          mask=np.shape(mask))
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise DimensionError(f"encoder_unroll: id out of range for table with "
                             f"{td.shape[0]} rows")
    batch, steps = ids.shape
    packing = _packing("encoder_unroll", mask, steps, batch)
    order, restore = packing.order, packing.restore
    real_ids = ids[order].T[packing.real]             # (sum of live,), step by step
    embedded = td[real_ids]
    taped = Tape._active is not None
    passes = [_gru_pass(np.matmul(embedded, w.data) + b.data, u.data, packing, reverse, taped)
              for (w, u, b), reverse in zip(directions, (False, True))]
    out = _result("encoder_unroll", np.concatenate(
        [states for states, _ in passes], axis=-1).transpose(1, 0, 2)[restore])

    def rule(g: Array) -> tuple[Array, ...]:
        g = g[order]
        g_x, g_params = 0.0, []
        for j, ((w, _, _), (_, backward)) in enumerate(zip(directions, passes)):
            g_xw, g_u = backward(g[:, :, j * size:(j + 1) * size])
            g_x = g_x + np.matmul(g_xw, w.data.T)
            g_params += [embedded.T @ g_xw, g_u, g_xw.sum(axis=0)]
        return (_table_gradient(td.shape, real_ids, g_x), *g_params)

    return _record(out, (table, *(x for d in directions for x in d)), rule)


def decoder_unroll(table: Tensor, ids: Array, initial: Sequence[tuple[Tensor, Tensor]],
                   w: Tensor, b: Tensor, heads: Sequence[HeadKeys], mask: Array, *,
                   states: bool = True) -> tuple[Tensor, ...]:
    """A teacher-forced attention-LSTM decoder unroll over T steps, as one
    record, from the raw key rows to the last state. It ``prepare``s each
    head's keys, pools head 0's real rows once into the initial state (h_0,
    c_0) (``initial_state``) and looks up the previous words in ``table``.
    Step t then runs every head (``attention_arrays``) with h_t as query,
    then the LSTM (``lstm_arrays``) on [each head's context; table[ids[:,
    t]]] and (h_t, c_t), giving (h_t+1, c_t+1).

    ``table`` is the (vocab, E) embedding and ``ids`` the (B, T) previous
    ids; ``initial`` is the (h, c) pair of (d_0, H) weights and (H,) biases.
    ``w`` is the (sum of d + E + H, 4H) LSTM weight, its rows in the order
    contexts, embedding, h; ``b`` is (4H,). Each ``HeadKeys`` holds the key
    rows of all B records and that head's scorer, its ``w_query`` (A, H).
    ``mask`` is the (B, T) boolean mask of real steps, real ones first in
    each row.

    Returns the (T, B, H) states h_1 .. h_T, then each head's (B, T, K)
    weights, exactly 0 at padded steps, which pass no gradient back. With
    ``states=False`` it returns the weights alone, and the LSTM of step t
    runs only on the rows that attend at step t + 1.

    The batch is packed (``_packing``), so each step runs on the prefix of
    rows still real there, and every activation that a product outside the
    step loops reads is one packed buffer of real (step, row) pairs, written
    step by step at its offset: the LSTM's inputs and gate gradients on the
    rows whose LSTM step ran, the queries and their gradients on the rows
    that attended. The forward looks up and projects the real steps'
    embeddings through their rows of ``w`` in one product, then loops over
    the steps, keeping each step's activations. The backward is BPTT: its
    reverse loop computes what recurs (gate, context and query gradients,
    and the (h, c) gradient carried to the step before), adding each head's
    projected-key and ``combine`` gradients while that step's tanh layer is
    at hand. After the loop, the gradients of ``w``, ``b`` and each
    ``w_query`` are each one product over the packed rows, the embedding's
    one segmented sum of the real steps' rows (``_table_gradient``), so no
    padded step enters a weight's gradient or the table's. Each head's key
    side is one product over its K * B keys, the rows' share from the
    contexts one batched product per record over its T steps, where padded
    steps are zero rows: a ragged per-record product has no cheaper numpy
    form. The initial state's gradients go back through its two projections
    and the mean.
    """
    td, wd, ids = table.data, w.data, np.asarray(ids)
    size = b.shape[0] // 4 if b.data.ndim == 1 else 0
    widths = [k.rows.shape[-1] for k in heads]
    ctx_w = sum(widths)
    fits = td.ndim == 2 and ids.ndim == 2 and ids.dtype.kind in "iu" and ids.shape[1] > 0 \
        and size > 0 and b.shape == (4 * size,) and bool(heads) and len(initial) == 2
    if fits:
        (batch, steps), emb_w = ids.shape, td.shape[1]
        fits = wd.shape == (ctx_w + emb_w + size, 4 * size) and all(
            iw.shape == (widths[0], size) and ib.shape == (size,) for iw, ib in initial) \
            and all(k.rows.data.ndim == 3 and k.rows.shape[0] == batch
                    and np.shape(k.mask) == k.rows.shape[:2]
                    and k.w_key.data.ndim == 2 and k.w_key.shape[0] == k.rows.shape[2]
                    and k.b.shape == k.w_key.shape[1:] == k.combine.shape
                    and k.w_query.shape == (k.w_key.shape[1], size) for k in heads)
    if not fits:
        raise _bad_shapes("decoder_unroll", table=table.shape, ids=ids.shape,
                          initial=[(iw.shape, ib.shape) for iw, ib in initial], w=w.shape,
                          b=b.shape, heads=[tuple(np.shape(getattr(x, "data", x)) for x in k)
                                 for k in heads])
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise DimensionError(f"decoder_unroll: id out of range for table with "
                             f"{td.shape[0]} rows")
    order, restore, live, offsets, real = _packing("decoder_unroll", mask, steps, batch)
    rows0, mask0 = heads[0].rows.data, heads[0].mask
    mean = pool(rows0, mask0)
    init = initial_state(mean, initial)
    query, mem = init[0][order], init[1][order]
    # the projected keys key-major in memory too, so that every step's tanh
    # layer is, and the backward reads it as (K * k, A) rows without a copy
    arrays = [Head(np.ascontiguousarray(p[:, order]), r[order], m[order], wq, cb)
              for p, r, m, wq, cb in map(prepare, heads)]
    # the rows whose LSTM step t runs: those whose h_t+1 is read, packed on
    # their own, since without the states fewer rows run it than attend
    cell_rows = live if states else live[1:] + [0]
    cell_offsets = offsets if states else list(accumulate(cell_rows, initial=0))
    cell_real = real if states else np.concatenate([real[1:], np.zeros((1, batch), bool)])
    cols = list(accumulate(widths, initial=0))                  # each head's context
    w_emb = wd[ctx_w:ctx_w + emb_w]
    w_rec = np.concatenate([wd[:ctx_w], wd[ctx_w + emb_w:]])   # rows for [contexts; h]
    cell_ids = ids[order].T[cell_real]                          # (sum of cell_rows,)
    embedded = td[cell_ids]
    pre = np.matmul(embedded, w_emb) + b.data                   # (sum of cell_rows, 4H)
    xs = np.empty((offsets[-1], ctx_w + size))                  # [contexts; h_t], packed
    out = np.zeros((steps, batch, size))                        # h_t+1
    cells: list[tuple[Array, ...]] = []                 # per step: ifo, g, tanh c', c
    hiddens: list[list[Array]] = [[] for _ in arrays]          # per step (K, k, A)
    weights = [np.zeros((batch, steps, head.projected.shape[0])) for head in arrays]
    for t in range(steps):
        k, m = live[t], cell_rows[t]
        x, query = xs[offsets[t]:offsets[t + 1]], query[:k]
        x[:, ctx_w:] = query
        for j, (p, r, msk, wq, cb) in enumerate(arrays):
            hidden, weights[j][:k, t], x[:, cols[j]:cols[j + 1]] = attention_arrays(
                Head(p[:, :k], r[:k], msk[:k], wq, cb), query)
            hiddens[j].append(hidden)
        if m:
            mem = mem[:m]
            ifo, g, c_new, tc, query = lstm_arrays(
                pre[cell_offsets[t]:cell_offsets[t + 1]] + np.matmul(x[:m], w_rec), mem)
            cells.append((ifo, g, tc, mem))
            out[t, :m], mem = query, c_new
    outs = tuple(Tensor(x, _unchecked=True) for x in finite(
        "decoder_unroll", *([out[:, restore]] if states else []), *(x[restore] for x in weights)))

    def rule(*grads: Array) -> tuple[Array, ...]:
        g_out = grads[0][:, order] if states else None
        g_weights = [g[order] for g in (grads[1:] if states else grads)]
        # packed as their activations are, every row written at its step
        g_gates = np.empty(pre.shape)
        g_ctx = np.zeros((batch, steps, ctx_w))
        g_query = [np.empty((offsets[-1], head.combine.shape[0])) for head in arrays]
        g_pre = [np.zeros(head.projected.shape) for head in arrays]   # summed over steps
        g_combine = [np.zeros(head.combine.shape) for head in arrays]
        g_h, g_c = np.zeros((batch, size)), np.zeros((batch, size))
        # transposed weights copied once: BLAS is faster on them than on views
        w_rec_t = np.ascontiguousarray(w_rec.T)
        w_query = [k.w_query.data for k in heads]
        for t in reversed(range(steps)):
            k, m = live[t], cell_rows[t]
            if m:
                ifo, g, tc, c_prev = cells[t]
                gh = g_h[:m] if g_out is None else g_h[:m] + g_out[t, :m]
                gc = g_c[:m] + gh * ifo[:, 2 * size:] * (1.0 - tc * tc)
                ga = g_gates[cell_offsets[t]:cell_offsets[t + 1]]
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
                    rows[:k], g_ctx[:k, t, cols[j]:cols[j + 1], None])[:, :, 0]
                gs = (wt * (gw - (gw * wt).sum(axis=1, keepdims=True))).T
                hid = hiddens[j][t]
                g_combine[j] += gs.reshape(-1) @ hid.reshape(-1, hid.shape[-1])
                # the (K, k, A) pre-tanh gradient, short of its factor combine
                gpre = np.multiply(hid, hid)
                np.subtract(1.0, gpre, out=gpre)
                gpre *= gs[..., None]
                g_pre[j][:, :k] += gpre
                gq = gpre.sum(axis=0) * combine
                g_query[j][offsets[t]:offsets[t + 1]] = gq
                g_h[:k] += np.matmul(gq, w_query[j])
        g_rec = (xs if states else xs[cell_real[real]]).T @ g_gates
        g_w = np.concatenate([g_rec[:ctx_w], embedded.T @ g_gates, g_rec[ctx_w:]])
        g_table = _table_gradient(td.shape, cell_ids, np.matmul(g_gates, w_emb.T))
        # the initial state: each half back through its tanh projection, both
        # into the one mean, and the mean into head 0's real rows
        g_init, g_mean = [], 0.0
        for (iw, _), y, g in zip(initial, init, (g_h[restore], g_c[restore])):
            g_a = g * (1.0 - y * y)
            g_init += [mean.T @ g_a, g_a.sum(axis=0)]
            g_mean = g_mean + g_a @ iw.data.T
        queries = xs[:, ctx_w:]
        g_heads = []
        for j, (key, head) in enumerate(zip(heads, arrays)):
            g_keys = (g_pre[j] * head.combine).transpose(1, 0, 2)   # (k, K, A) packed
            g_rows = (np.matmul(g_keys, key.w_key.data.T) + np.matmul(
                weights[j].transpose(0, 2, 1), g_ctx[:, :, cols[j]:cols[j + 1]]))[restore]
            if j == 0:
                g_rows += g_mean[:, None, :] * (mask0 / mask0.sum(axis=1)[:, None])[..., None]
            attn_w = head.combine.shape[0]
            g_heads += [g_rows, head.rows.reshape(-1, key.rows.shape[2]).T
                        @ g_keys.reshape(-1, attn_w),
                        g_keys.sum(axis=(0, 1)), g_query[j].T @ queries,
                        g_combine[j]]
        return (g_table, *g_init, g_w, g_gates.sum(axis=0), *g_heads)

    parents = (table, *(x for pair in initial for x in pair), w, b,
               *(x for k in heads for x in (k.rows, k.w_key, k.b, k.w_query, k.combine)))
    return _record_many(outs, parents, rule)


def output_nll(states: Tensor, w: Tensor, b: Tensor, targets: Array, mask: Array,
               keep: Array | None = None) -> Tensor:
    """A decoder's summed negative log-likelihood of its targets, as one
    record from its (T, B, H) states: with ``x = states * keep`` (inverted
    dropout; ``keep`` None for none),

        log_probs = log_softmax(x @ w + b)        over the vocabulary
        loss = -sum of log_probs[t, b, targets[b, t]] over the real (b, t)

    ``w`` is (H, vocab), ``b`` (vocab,), and ``targets`` and ``mask`` are
    (B, T), the ids and the boolean mask of real targets. Padded positions
    are never computed and pass no gradient back."""
    if states.data.ndim != 3 or w.data.ndim != 2 or w.shape[0] != states.shape[2] \
            or b.shape != w.shape[1:] or np.shape(targets) != states.shape[1::-1] \
            or np.shape(mask) != np.shape(targets) \
            or (keep is not None and keep.shape != states.shape):
        raise _bad_shapes("output_nll", states=states.shape, w=w.shape, b=b.shape,
                          targets=np.shape(targets), mask=np.shape(mask))
    real = mask.T
    picked = targets.T[real]
    x = states.data[real]                                     # (N, H)
    if keep is not None:
        keep = keep[real]
        x = x * keep
    if picked.size and (picked.min() < 0 or picked.max() >= w.shape[1]):
        raise DimensionError(f"output_nll: target out of range for {w.shape[1]} classes")
    log_probs = log_softmax(np.matmul(x, w.data) + b.data)
    rows = np.arange(len(picked))
    out = _result("output_nll", np.asarray(-log_probs[rows, picked].sum()))

    def rule(g: Array) -> tuple[Array, Array, Array]:
        g_logits = np.exp(log_probs)
        g_logits[rows, picked] -= 1.0
        g_logits *= g
        g_states = np.zeros(states.shape)
        g_x = np.matmul(g_logits, w.data.T)
        g_states[real] = g_x if keep is None else g_x * keep
        return g_states, x.T @ g_logits, g_logits.sum(axis=0)

    return _record(out, (states, w, b), rule)


def cycle_distance(direct: Tensor, pivot: Tensor, via: Tensor, row_mask: Array) -> Tensor:
    """The summed Frobenius distance between direct and composed attention,
    as one record: over records i,

        loss = sum_i ||(direct[i] - pivot[i] @ via[i])[row_mask[i]]||_F

    for a (B, M, L) ``direct``, (B, M, N) ``pivot``, (B, N, L) ``via`` and the
    (B, M) boolean mask of real rows. Masked rows get no gradient, and the
    subgradient of a zero norm is taken as 0."""
    if direct.data.ndim != 3 or pivot.data.ndim != 3 or via.data.ndim != 3 \
            or pivot.shape[2] != via.shape[1] \
            or direct.shape != pivot.shape[:2] + via.shape[2:] \
            or via.shape[0] != direct.shape[0] or np.shape(row_mask) != direct.shape[:2]:
        raise _bad_shapes("cycle_distance", direct=direct.shape, pivot=pivot.shape,
                          via=via.shape, mask=np.shape(row_mask))
    pd, vd = pivot.data, via.data
    diff = np.where(row_mask[..., None], direct.data - np.matmul(pd, vd), 0.0)
    norms = np.sqrt((diff * diff).sum(axis=(1, 2)))
    out = _result("cycle_distance", np.asarray(norms.sum()))

    def rule(g: Array) -> tuple[Array, Array, Array]:
        per = np.where(norms > 0.0, g / np.where(norms > 0.0, norms, 1.0), 0.0)
        g_direct = diff * per[:, None, None]
        g_composed = -g_direct
        return (g_direct, np.matmul(g_composed, vd.transpose(0, 2, 1)),
                np.matmul(pd.transpose(0, 2, 1), g_composed))

    return _record(out, (direct, pivot, via), rule)
