"""Dense float64 arrays: the plain-array layer and loss helpers training
runs on, and the reverse-mode tape kept as their reference.

Training calls only the underscored helpers: each layer's value and
backward (``_affine``, ``_conv2d``, ``_relu_grad``), the softmax pieces,
``_sq_dists``, ``_as_index`` and ``_check_finite``. The rest is the engine
the tests check that step against: ``Tensor``, ``Tape``, ``backward`` and
the ops built on ``_op``, which freezes each output, checks it for NaN/Inf
and records its gradient while a ``Tape`` is open. Each op's backward
computes every operand's gradient, watched or not, and ``backward`` keeps
those of the tensors the tape tracks. Open tapes sit on one module-level
stack, so only one thread may use them.
"""
from __future__ import annotations

import math
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
    # np.add.reduce is arr.sum() without its Python wrapper.
    if not math.isfinite(np.add.reduce(arr, None)) and not np.isfinite(arr).all():
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
    arr.setflags(write=False)
    t = Tensor.__new__(Tensor)
    t.data = arr
    return t


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

_TAPES: list["Tape"] = []  # the open tapes, innermost last


def _active_tape() -> Optional["Tape"]:
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Ordered record of ops for one forward pass.

    Leaves must be registered with :meth:`watch` before they are used;
    ops touching a watched (or derived) tensor are recorded in execution
    order, which is already topological for the reverse sweep.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._on_tape: set[int] = set()  # ids of watched tensors and their descendants
        self._leaves: list[Tensor] = []

    def watch(self, *tensors: Tensor) -> None:
        for t in tensors:
            if not isinstance(t, Tensor):
                raise TypeError("watch() takes Tensors")
            if id(t) not in self._on_tape:
                self._on_tape.add(id(t))
                self._leaves.append(t)

    @property
    def num_records(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _TAPES or _TAPES[-1] is not self:
            raise TapeError("tape exited out of order")
        _TAPES.pop()


def _op(value: np.ndarray, name: str, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    """The one way an op output is made: wrap and check ``value``, and record
    ``bwd`` when the active tape tracks any input. ``bwd(g)`` returns one
    gradient per input, or None for one it sends none; ``backward`` drops
    those of untracked inputs."""
    out = _wrap(value, name)
    tape = _active_tape()
    if tape is not None and any(id(i) in tape._on_tape for i in inputs):
        tape._records.append((out, inputs, bwd))
        tape._on_tape.add(id(out))
    return out


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a scalar loss; returns grads for every watched leaf.

    Leaves the loss never touched map to zero arrays. Each recorded node
    is visited exactly once.
    """
    if loss.shape != ():
        raise TapeError(f"loss must be a scalar, got shape {loss.shape}")
    if id(loss) not in tape._on_tape:
        raise TapeError("loss was not computed under this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for out, inputs, bwd in reversed(tape._records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for inp, gi in zip(inputs, bwd(g)):
            if gi is None or id(inp) not in tape._on_tape:
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
    return _op(a.data @ b.data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """affine's value on plain arrays, also over a leading client axis:
    (G, n, d) @ (G, d, m) + (G, m), each client's slice bitwise its own."""
    acc = x @ w
    acc += b[..., None, :]
    return acc


def _affine_grads(g, x, w, need_x: bool, out=None) -> tuple:
    """affine's backward on plain arrays, also over a leading client axis:
    gradients to x (None unless need_x), w (into ``out``, if given) and b."""
    gx = g @ w.swapaxes(-1, -2) if need_x else None
    return gx, np.matmul(x.swapaxes(-1, -2), g, out=out), np.add.reduce(g, -2)  # g.sum(-2)


def affine(x, w, b) -> Tensor:
    """A dense layer, x @ w + b: (n, d) batch, (d, m) weights, (m,) bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"affine {x.shape} @ {w.shape} + {b.shape}")
    return _op(_affine(x.data, w.data, b.data), "affine", (x, w, b),
               lambda g: _affine_grads(g, x.data, w.data, True))


def _same_or_scalar(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape and b.shape != ():
        raise ShapeError(f"{op} needs same shapes or a scalar, got {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and a.shape == ():  # scalar on the left, by symmetry
        a, b = b, a
    _same_or_scalar(a, b, "add")
    scalar_b = a.shape != b.shape
    return _op(a.data + b.data, "add", (a, b), lambda g: (g, np.sum(g) if scalar_b else g))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_or_scalar(a, b, "sub")
    scalar_b = a.shape != b.shape
    return _op(a.data - b.data, "sub", (a, b), lambda g: (g, -(np.sum(g) if scalar_b else g)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape and a.shape == ():
        a, b = b, a
    _same_or_scalar(a, b, "mul")
    scalar_b = b.shape == ()

    def bwd(g):
        return g * b.data, (np.sum(g * a.data) if scalar_b else g * a.data)

    return _op(a.data * b.data, "mul", (a, b), bwd)


def neg(x) -> Tensor:
    x = as_tensor(x)
    return _op(-x.data, "neg", (x,), lambda g: (-g,))


def _relu_grad(g, x):
    """relu's backward on plain arrays: g where x > 0, else 0."""
    return g * (x > 0.0)


def relu(x) -> Tensor:
    x = as_tensor(x)
    return _op(np.maximum(x.data, 0.0), "relu", (x,), lambda g: (_relu_grad(g, x.data),))


def log(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _op(np.log(x.data), "log", (x,), lambda g: (g / x.data,))


def exp(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):
        e = np.exp(x.data)
        return _op(e, "exp", (x,), lambda g: (g * e,))


def square(x) -> Tensor:
    x = as_tensor(x)
    return _op(x.data * x.data, "square", (x,), lambda g: (2.0 * g * x.data,))


def tsum(x) -> Tensor:
    """Full reduction to a scalar."""
    x = as_tensor(x)
    return _op(np.sum(x.data), "sum", (x,), lambda g: (np.broadcast_to(g, x.shape),))


def tmean(x) -> Tensor:
    """Full mean to a scalar."""
    x = as_tensor(x)
    if x.size == 0:
        raise ShapeError("mean of an empty tensor")
    n = x.size
    return _op(np.mean(x.data), "mean", (x,), lambda g: (np.broadcast_to(g / n, x.shape),))


def mean_rows(x) -> Tensor:
    """Column means of a matrix: (n, q) -> (q,)."""
    x = as_tensor(x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"mean_rows needs a nonempty matrix, got {x.shape}")
    n = x.shape[0]

    def bwd(g):
        return (np.broadcast_to(g / n, x.shape),)

    return _op(np.mean(x.data, axis=0), "mean_rows", (x,), bwd)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    return _op(x.data.reshape(shape), "reshape", (x,), lambda g: (g.reshape(x.shape),))


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


def _conv_blocks(x: np.ndarray, k: np.ndarray) -> list[slice]:
    """Sample blocks whose im2col columns hold at most _CONV_BLOCK_ENTRIES."""
    n, ci, h, w = x.shape[-4:]
    kh, kw = k.shape[-2:]
    step = max(1, _CONV_BLOCK_ENTRIES // (ci * kh * kw * (h - kh + 1) * (w - kw + 1)))
    return [slice(s, s + step) for s in range(0, n, step)]


def _conv2d(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conv2d's value on plain arrays, one GEMM per sample block; also over a
    leading client axis, (G, n, ci, h, w) samples, (G, co, ci, kh, kw) kernels
    and (G, co) biases, each client's blocks written into the one output."""
    co, ci, kh, kw = k.shape[-4:]
    ho, wo = x.shape[-2] - kh + 1, x.shape[-1] - kw + 1
    xs = x.reshape((-1,) + x.shape[-4:])
    acc = np.empty(xs.shape[:2] + (co, ho, wo))
    for xc, k2, ac in zip(xs, k.reshape(-1, co, ci * kh * kw), acc):
        for sl in _conv_blocks(x, k):
            cols = _im2col(xc[sl], kh, kw)
            np.matmul(k2, cols, out=ac[sl].reshape(cols.shape[0], co, ho * wo))
    acc = acc.reshape(x.shape[:-3] + acc.shape[2:])
    acc += b[..., None, :, None, None]
    return acc


def _conv2d_grads(g, x, k, need_dx: bool, out=None) -> tuple:
    """conv2d's backward on plain arrays, block by block as the forward, also
    over a leading client axis: gradients to x (None unless need_dx), k (copied
    into ``out``, if given) and b. Each block's columns are recomputed."""
    co, ci, kh, kw = k.shape[-4:]
    ho, wo = x.shape[-2] - kh + 1, x.shape[-1] - kw + 1
    xs, k2 = x.reshape((-1,) + x.shape[-4:]), k.reshape(-1, co, ci * kh * kw)
    dk = np.zeros(k2.shape)
    dx = np.zeros(xs.shape) if need_dx else None
    for c, (xc, gc) in enumerate(zip(xs, g.reshape(xs.shape[:2] + (co, ho * wo)))):
        for sl in _conv_blocks(x, k):
            # the block's columns are freed before dcols exists
            dk[c] += np.matmul(gc[sl], _im2col(xc[sl], kh, kw).transpose(0, 2, 1)).sum(axis=0)
            if need_dx:  # col2im: one slice-add per kernel tap
                dcols = np.matmul(k2[c].T, gc[sl]).reshape(-1, ci, kh, kw, ho, wo)
                for i in range(kh):
                    for j in range(kw):
                        dx[c, sl, :, i : i + ho, j : j + wo] += dcols[:, :, i, j]
    dx, dk = None if dx is None else dx.reshape(x.shape), dk.reshape(k.shape)
    if out is not None:
        out[...] = dk
    return dx, dk if out is None else out, g.sum(axis=(-4, -2, -1))


def conv2d(x, k, b) -> Tensor:
    """Valid-padding stride-1 convolution plus a channel bias: NCHW input,
    OIHW kernel, (O,) bias.

    One GEMM per block of samples over im2col columns, forward and backward.
    """
    x, k, b = as_tensor(x), as_tensor(k), as_tensor(b)
    if x.ndim != 4 or k.ndim != 4:
        raise ShapeError(f"conv2d needs 4-D operands, got {x.shape}, {k.shape}")
    ci, h, w = x.shape[1:]
    co, ci_k, kh, kw = k.shape
    if ci != ci_k or kh > h or kw > w:
        raise ShapeError(f"conv2d kernel {k.shape} does not fit input {x.shape}")
    if b.shape != (co,):
        raise ShapeError(f"conv2d bias {b.shape} does not fit kernel {k.shape}")
    return _op(_conv2d(x.data, k.data, b.data), "conv2d", (x, k, b),
               lambda g: _conv2d_grads(g, x.data, k.data, True))


def _temp_scaled(logits: np.ndarray, tau: float) -> np.ndarray:
    """Logits over tau, shifted so each row (the last axis) has maximum 0."""
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if logits.ndim not in (2, 3):
        raise ShapeError(f"logits must be 2-D or a stack of them, got {logits.shape}")
    z = logits / tau
    return z - np.maximum.reduce(z, axis=-1, keepdims=True)  # z.max, unwrapped


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row log-softmax of temperature-scaled, shifted logits (rows on the
    last axis)."""
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def _log_softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient to the shifted logits from g at the log-softmax, whose exp is
    p; a caller at temperature tau divides it by tau."""
    return g - p * np.add.reduce(g, axis=-1, keepdims=True)


def softmax_t(logits, tau: float = 1.0) -> Tensor:
    """Temperature-scaled row softmax with max subtraction."""
    logits = as_tensor(logits)
    e = np.exp(_temp_scaled(logits.data, tau))
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return ((p * (g - inner)) / tau,)

    return _op(p, "softmax_t", (logits,), bwd)


def log_softmax_t(logits, tau: float = 1.0) -> Tensor:
    """Log of the temperature-scaled softmax; stable for any finite logits."""
    logits = as_tensor(logits)
    ls = _log_softmax(_temp_scaled(logits.data, tau))
    p = np.exp(ls)
    return _op(ls, "log_softmax_t", (logits,), lambda g: (_log_softmax_grad(g, p) / tau,))


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

    def bwd(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, (rows, idx), g)
        return (gx,)

    return _op(x.data[rows, idx], "gather_labels", (x,), bwd)


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

    def bwd(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _op(x.data[idx], "take_rows", (x,), bwd)


def _sq_dists(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sq_dists' value on plain arrays, with the (n, C, q) differences its
    backward reuses."""
    diff = x[:, None, :] - p[None, :, :]
    return np.add.reduce(diff * diff, axis=2) / x.shape[1], diff


def _sq_dists_grad(g: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """sq_dists' backward on plain arrays, before its reduction: summed over
    axis 1 it is the gradient to x, negated and summed over axis 0 to p."""
    return (2.0 / diff.shape[2]) * g[:, :, None] * diff


def sq_dists(x, p) -> Tensor:
    """Row-mean squared distances: out[i, c] = mean_k (x[i, k] - p[c, k])**2.

    x is (n, q), p is (C, q), the result (n, C). Built from the explicit
    differences, not from |x|^2 - 2 x.p + |p|^2, which cancels when a row
    sits near a prototype.
    """
    x, p = as_tensor(x), as_tensor(p)
    if x.ndim != 2 or p.ndim != 2 or x.shape[1] != p.shape[1] or x.shape[1] == 0:
        raise ShapeError(f"sq_dists needs (n, q) and (C, q) matrices, got {x.shape}, {p.shape}")
    dists, diff = _sq_dists(x.data, p.data)

    def bwd(g):
        gd = _sq_dists_grad(g, diff)
        return gd.sum(axis=1), -gd.sum(axis=0)

    return _op(dists, "sq_dists", (x, p), bwd)


def detach(x) -> Tensor:
    """A constant copy: same values, no gradient history."""
    x = as_tensor(x)
    return _wrap(x.data, "detach")
