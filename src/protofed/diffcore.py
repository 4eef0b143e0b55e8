"""Dense float64 tensors with a per-pass reverse-mode gradient tape.

Deliberately small: the op set is the closure needed by the bundled
backbones and loss kernels, nothing more. Arrays are wrapped read-only,
every op output is checked for NaN/Inf so numeric poisoning surfaces at
the op boundary, and gradients are recorded only while a ``Tape`` is
active on the current thread. A tape lives for one forward pass and is
confined to the worker that opened it; tensors themselves carry no tape
state and may be shared read-only across workers.
"""
from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "NonFiniteError",
    "TapeError",
    "as_tensor",
    "backward",
    "matmul",
    "affine",
    "add",
    "sub",
    "mul",
    "neg",
    "relu",
    "log",
    "exp",
    "square",
    "tsum",
    "tmean",
    "mean_rows",
    "reshape",
    "conv2d",
    "softmax_t",
    "log_softmax_t",
    "gather_labels",
    "take_rows",
    "concat_rows",
    "sq_dists",
    "detach",
]


class ShapeError(ValueError):
    """Operand shapes do not fit the op's contract."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class TapeError(RuntimeError):
    """Gradient bookkeeping misuse (no tape, loss off-tape, non-scalar loss)."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    # NaN and +-Inf survive a sum, so a finite sum clears the array in one
    # reduction. A non-finite sum can also come from finite values whose sum
    # overflows (numpy then warns), so only the elementwise scan may raise.
    if not math.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise NonFiniteError(f"{op} produced a non-finite value")


class Tensor:
    """Immutable dense float64 array.

    Construction copies and freezes the buffer; results of ops share
    their (already frozen) output buffers. Identity is object identity,
    which keeps tensors usable as dict keys for gradient maps.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        arr = np.array(data, dtype=np.float64)
        _check_finite(arr, "Tensor")
        arr.flags.writeable = False
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _wrap(arr: np.ndarray, op: str) -> Tensor:
    # Internal constructor for buffers we own: no copy, just freeze.
    arr = np.asarray(arr, dtype=np.float64)
    _check_finite(arr, op)
    arr.flags.writeable = False
    t = Tensor.__new__(Tensor)
    t.data = arr
    return t


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

_TLS = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


def _active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of ops for one forward pass on one thread.

    Leaves must be registered with :meth:`watch` before they are used;
    ops touching a watched (or derived) tensor are recorded in execution
    order, which is already topological for the reverse sweep.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._tracked: set[int] = set()
        self._leaves: list[Tensor] = []

    def watch(self, *tensors: Tensor) -> None:
        for t in tensors:
            if not isinstance(t, Tensor):
                raise TypeError("watch() takes Tensors")
            if id(t) not in self._tracked:
                self._tracked.add(id(t))
                self._leaves.append(t)

    @property
    def num_records(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape exited out of order")
        stack.pop()


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> None:
    tape = _active_tape()
    if tape is None:
        return
    if any(id(i) in tape._tracked for i in inputs):
        tape._records.append((out, inputs, bwd))
        tape._tracked.add(id(out))


def _tracked(t: Tensor) -> bool:
    """True when the active tape tracks t; else ``backward`` drops t's gradient."""
    tape = _active_tape()
    return tape is not None and id(t) in tape._tracked


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss; returns grads for every watched leaf.

    Leaves the loss never touched map to zero arrays. Each recorded node
    is visited exactly once.
    """
    if loss.shape != ():
        raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
    if id(loss) not in tape._tracked:
        raise TapeError("loss was not computed under this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for out, inputs, bwd in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for inp, gi in zip(inputs, bwd(g)):
            if gi is None or id(inp) not in tape._tracked:
                continue
            # Out of place: a stored gradient may be another node's g, a
            # broadcast view, or the same array handed to both inputs.
            acc = grads.get(id(inp))
            grads[id(inp)] = gi if acc is None else acc + gi
    return {
        leaf: grads[id(leaf)] if id(leaf) in grads else np.zeros(leaf.shape)
        for leaf in tape._leaves
    }


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    out = _wrap(a.data @ b.data, "matmul")
    need_a, need_b = _tracked(a), _tracked(b)  # a is often the unwatched batch

    def bwd(g):
        return (g @ b.data.T if need_a else None), (a.data.T @ g if need_b else None)

    _record(out, (a, b), bwd)
    return out


def affine(x, w, b) -> Tensor:
    """A dense layer, x @ w + b: (n, d) batch, (d, m) weights, (m,) bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine {x.shape} @ {w.shape} + {b.shape}")
    acc = x.data @ w.data
    acc += b.data
    out = _wrap(acc, "affine")
    need_x, need_w, need_b = _tracked(x), _tracked(w), _tracked(b)  # x is often the batch

    def bwd(g):
        return (
            g @ w.data.T if need_x else None,
            x.data.T @ g if need_w else None,
            g.sum(axis=0) if need_b else None,
        )

    _record(out, (x, w, b), bwd)
    return out


def _same_or_scalar(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and b.shape != ():
        raise ShapeError(f"{op} needs same shapes or a scalar, got {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and a.shape == ():  # scalar on the left, by symmetry
        a, b = b, a
    _same_or_scalar(a, b, "add")
    out = _wrap(a.data + b.data, "add")
    need_a, need_b = _tracked(a), _tracked(b)
    scalar_b = a.shape != b.shape

    def bwd(g):
        gb = (np.sum(g) if scalar_b else g) if need_b else None
        return (g if need_a else None), gb

    _record(out, (a, b), bwd)
    return out


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_or_scalar(a, b, "sub")
    out = _wrap(a.data - b.data, "sub")
    need_a, need_b = _tracked(a), _tracked(b)
    scalar_b = a.shape != b.shape

    def bwd(g):
        gb = -(np.sum(g) if scalar_b else g) if need_b else None
        return (g if need_a else None), gb

    _record(out, (a, b), bwd)
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and a.shape == ():
        a, b = b, a
    _same_or_scalar(a, b, "mul")
    out = _wrap(a.data * b.data, "mul")
    scalar_b = b.shape == ()
    need_a, need_b = _tracked(a), _tracked(b)

    def bwd(g):
        ga = g * b.data if need_a else None
        gb = (np.sum(g * a.data) if scalar_b else g * a.data) if need_b else None
        return ga, gb

    _record(out, (a, b), bwd)
    return out


def neg(x) -> Tensor:
    x = as_tensor(x)
    out = _wrap(-x.data, "neg")
    _record(out, (x,), lambda g: (-g,))
    return out


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = _wrap(np.maximum(x.data, 0.0), "relu")
    mask = x.data > 0.0

    def bwd(g):
        return (g * mask,)

    _record(out, (x,), bwd)
    return out


def log(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _wrap(np.log(x.data), "log")

    def bwd(g):
        return (g / x.data,)

    _record(out, (x,), bwd)
    return out


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        out = _wrap(np.exp(x.data), "exp")

    def bwd(g):
        return (g * out.data,)

    _record(out, (x,), bwd)
    return out


def square(x) -> Tensor:
    x = as_tensor(x)
    out = _wrap(x.data * x.data, "square")

    def bwd(g):
        return (2.0 * g * x.data,)

    _record(out, (x,), bwd)
    return out


def tsum(x) -> Tensor:
    """Full reduction to a scalar."""
    x = as_tensor(x)
    out = _wrap(np.sum(x.data), "sum")

    def bwd(g):
        return (np.broadcast_to(g, x.shape),)

    _record(out, (x,), bwd)
    return out


def tmean(x) -> Tensor:
    """Full mean to a scalar."""
    x = as_tensor(x)
    if x.size == 0:
        raise ShapeError("mean of an empty tensor")
    out = _wrap(np.mean(x.data), "mean")
    n = x.size

    def bwd(g):
        return (np.broadcast_to(g / n, x.shape),)

    _record(out, (x,), bwd)
    return out


def mean_rows(x) -> Tensor:
    """Column means of a matrix: (n, q) -> (q,)."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"mean_rows needs a nonempty matrix, got {x.shape}")
    out = _wrap(np.mean(x.data, axis=0), "mean_rows")
    n = x.shape[0]

    def bwd(g):
        return (np.broadcast_to(g / n, x.shape),)

    _record(out, (x,), bwd)
    return out


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = _wrap(x.data.reshape(shape), "reshape")

    def bwd(g):
        return (g.reshape(x.shape),)

    _record(out, (x,), bwd)
    return out


# Cap on the im2col buffer of one sample block, in float64 entries (2 MiB):
# evaluation forwards whole client shards, so a whole-batch buffer would
# set the process's peak memory. 4 MiB blocks measured a 5% higher peak RSS
# on the 28x28 CNN and ran no faster.
_CONV_BLOCK_ENTRIES = 1 << 18


def _im2col(xb: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Per-sample columns (b, ci*kh*kw, ho*wo) of an NCHW block, one copy."""
    win = np.lib.stride_tricks.sliding_window_view(xb, (kh, kw), axis=(2, 3))
    b, ci, ho, wo = win.shape[:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, ci * kh * kw, ho * wo)


def conv2d(x, k, b) -> Tensor:
    """Valid-padding stride-1 convolution plus a channel bias: NCHW input,
    OIHW kernel, (O,) bias.

    One GEMM per block of samples over im2col columns; backward recomputes
    each block's columns rather than keeping them, and skips the gradient
    of an operand the tape does not track.
    """
    x, k, b = as_tensor(x), as_tensor(k), as_tensor(b)
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeError(f"conv2d needs 4-D operands, got {x.shape}, {k.shape}")
    n, ci, h, w = x.shape
    co, ci_k, kh, kw = k.shape
    if ci != ci_k or kh > h or kw > w:
        raise ShapeError(f"conv2d kernel {k.shape} does not fit input {x.shape}")
    if b.shape != (co,):
        raise ShapeError(f"conv2d bias {b.shape} does not fit kernel {k.shape}")
    ho, wo = h - kh + 1, w - kw + 1
    step = max(1, _CONV_BLOCK_ENTRIES // (ci * kh * kw * ho * wo))
    blocks = [slice(s, s + step) for s in range(0, n, step)]
    k2 = k.data.reshape(co, ci * kh * kw)
    acc = np.empty((n, co, ho, wo))
    for sl in blocks:
        cols = _im2col(x.data[sl], kh, kw)
        np.matmul(k2, cols, out=acc[sl].reshape(cols.shape[0], co, ho * wo))
    acc += b.data[:, None, None]
    out = _wrap(acc, "conv2d")
    need_dx, need_dk, need_db = _tracked(x), _tracked(k), _tracked(b)  # x is often the batch

    def bwd(g):
        dk = np.zeros((co, ci * kh * kw)) if need_dk else None
        dx = np.zeros(x.shape) if need_dx else None
        for sl in blocks:
            g3 = g[sl].reshape(-1, co, ho * wo)
            if need_dk:  # the block's columns are freed before dcols exists
                dk += np.matmul(g3, _im2col(x.data[sl], kh, kw).transpose(0, 2, 1)).sum(axis=0)
            if need_dx:  # col2im: one slice-add per kernel tap
                dcols = np.matmul(k2.T, g3).reshape(-1, ci, kh, kw, ho, wo)
                for i in range(kh):
                    for j in range(kw):
                        dx[sl, :, i : i + ho, j : j + wo] += dcols[:, :, i, j]
        dk = dk.reshape(k.shape) if need_dk else None
        return dx, dk, (g.sum(axis=(0, 2, 3)) if need_db else None)

    _record(out, (x, k, b), bwd)
    return out


def _temp_scaled(logits: Tensor, tau: float) -> np.ndarray:
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.shape}")
    z = logits.data / tau
    return z - z.max(axis=1, keepdims=True)


def softmax_t(logits, tau: float = 1.0) -> Tensor:
    """Temperature-scaled row softmax with max subtraction."""
    logits = as_tensor(logits)
    z = _temp_scaled(logits, tau)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = _wrap(p, "softmax_t")

    def bwd(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return ((p * (g - inner)) / tau,)

    _record(out, (logits,), bwd)
    return out


def log_softmax_t(logits, tau: float = 1.0) -> Tensor:
    """Log of the temperature-scaled softmax; stable for any finite logits."""
    logits = as_tensor(logits)
    z = _temp_scaled(logits, tau)
    ls = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = _wrap(ls, "log_softmax_t")
    p = np.exp(ls)

    def bwd(g):
        return ((g - p * g.sum(axis=1, keepdims=True)) / tau,)

    _record(out, (logits,), bwd)
    return out


def _as_index(labels, n: int, bound: int, what: str) -> np.ndarray:
    idx = np.asarray(labels, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != n:
        raise ShapeError(f"{what} must be a length-{n} index vector")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"{what} out of range [0, {bound})")
    return idx


def gather_labels(x, labels) -> Tensor:
    """Pick one column per row: out[i] = x[i, labels[i]]."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"gather_labels needs a matrix, got {x.shape}")
    idx = _as_index(labels, x.shape[0], x.shape[1], "labels")
    rows = np.arange(x.shape[0])
    out = _wrap(x.data[rows, idx], "gather_labels")

    def bwd(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, (rows, idx), g)
        return (gx,)

    _record(out, (x,), bwd)
    return out


def take_rows(x, indices) -> Tensor:
    """Select rows of a matrix by index; duplicate indices accumulate grads."""
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"take_rows needs a matrix, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("indices must be a 1-D vector")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(f"row index out of range [0, {x.shape[0]})")
    out = _wrap(x.data[idx], "take_rows")

    def bwd(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    _record(out, (x,), bwd)
    return out


def concat_rows(parts: Sequence) -> Tensor:
    """Stack vectors (one row each) and matrices into one matrix.

    Parts must share a width; each part receives its own slice of the
    gradient.
    """
    parts = tuple(as_tensor(p) for p in parts)
    if not parts or any(p.ndim not in (1, 2) for p in parts):
        raise ShapeError("concat_rows needs one or more vectors or matrices")
    blocks = [p.data.reshape(1, -1) if p.ndim == 1 else p.data for p in parts]
    if len({b.shape[1] for b in blocks}) != 1:
        raise ShapeError(f"concat_rows parts differ in width: {[p.shape for p in parts]}")
    out = _wrap(np.concatenate(blocks, axis=0), "concat_rows")
    stops = np.cumsum([b.shape[0] for b in blocks])[:-1]

    def bwd(g):
        return tuple(gp.reshape(p.shape) for gp, p in zip(np.split(g, stops), parts))

    _record(out, parts, bwd)
    return out


def sq_dists(x, p) -> Tensor:
    """Row-mean squared distances: out[i, c] = mean_k (x[i, k] - p[c, k])**2.

    x is (n, q), p is (C, q), the result (n, C). Built from the explicit
    differences, not from |x|^2 - 2 x.p + |p|^2, which cancels when a row
    sits near a prototype.
    """
    x, p = as_tensor(x), as_tensor(p)
    if x.ndim != 2 or p.ndim != 2 or x.shape[1] != p.shape[1] or x.shape[1] == 0:
        raise ShapeError(f"sq_dists needs (n, q) and (C, q) matrices, got {x.shape}, {p.shape}")
    q = x.shape[1]
    diff = x.data[:, None, :] - p.data[None, :, :]
    out = _wrap(np.add.reduce(diff * diff, axis=2) / q, "sq_dists")
    need_x, need_p = _tracked(x), _tracked(p)

    def bwd(g):
        gd = (2.0 / q) * g[:, :, None] * diff
        return (gd.sum(axis=1) if need_x else None), (-gd.sum(axis=0) if need_p else None)

    _record(out, (x, p), bwd)
    return out


def detach(x) -> Tensor:
    """A constant copy: same values, no gradient history."""
    x = as_tensor(x)
    return _wrap(x.data, "detach")
