"""Backbones with an embedding head and a linear classifier.

A backbone is two parameter groups: representation layers that map a flat
feature batch to embeddings, and a classifier that maps embeddings to
logits. One ``Backbone`` class serves every kind: ``_layers`` lists each
kind's layers with their weight shapes once, and the parameter layout, init,
forward and backward all read that table. Forward passes are pure and run
on plain arrays: ``forward`` keeps each layer's input for ``backward``,
which walks the table in reverse and returns the gradient of every
parameter as one flat vector; ``infer`` computes the same values and keeps
nothing. Training mutates parameters only through ``sgd_step``, one step on
that vector. The parameters are read-only views into one frozen vector, and
that vector is what travels: ``adopt`` takes one in place of the parameters
and ``Backbone(arch, flat)`` builds a backbone over one, each without a copy.
A ``BackboneStack`` runs the same code over one or more clients' vectors at
once, stacked on a leading axis. A snapshot, written as a checkpoint, shares
the vector and serializes to a little-endian buffer with a JSON shape
manifest up front; only this module knows the layout.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cache
from typing import Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, _check_finite

__all__ = [
    "Arch",
    "Backbone",
    "BackboneStack",
    "forward_entries",
    "ModelSnapshot",
    "init_backbone",
    "build_backbone",
    "snapshot",
    "flatten_params",
    "sgd_step",
]

_KINDS = ("mlp", "linear", "cnn")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)  # bool is an int


def _positive_ints(t, n: int) -> bool:
    return isinstance(t, tuple) and len(t) == n and all(_is_int(v) and v >= 1 for v in t)


@dataclass(frozen=True)
class Arch:
    """Structural description of a backbone; everything a rebuild needs."""

    kind: str  # one of _KINDS
    input_dim: int
    embedding_dim: int
    num_classes: int
    hidden: int = 0
    image_shape: Optional[tuple[int, int, int]] = None  # (channels, h, w) for cnn
    channels: tuple[int, int] = (4, 8)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown backbone kind {self.kind!r}")
        if not all(map(_is_int, (self.input_dim, self.embedding_dim, self.num_classes, self.hidden))):
            raise ValueError("input_dim, embedding_dim, num_classes and hidden must be ints")
        if not _positive_ints(self.channels, 2):
            raise ValueError(f"channels must be 2 positive ints, got {self.channels!r}")
        if self.image_shape is not None and not _positive_ints(self.image_shape, 3):
            raise ValueError(f"image_shape must be None or 3 positive ints, got {self.image_shape!r}")
        if self.input_dim < 1 or self.embedding_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim, embedding_dim >= 1 and num_classes >= 2 required")
        if self.kind == "mlp" and self.hidden < 1:
            raise ValueError("mlp needs hidden >= 1")
        if self.kind == "cnn":
            if self.image_shape is None:
                raise ValueError("cnn needs image_shape=(channels, h, w)")
            c, h, w = self.image_shape
            if c * h * w != self.input_dim:
                raise ValueError("image_shape does not match input_dim")
            if self.hidden < 1:
                raise ValueError("cnn needs hidden >= 1")
            if h < 5 or w < 5:
                raise ValueError("cnn needs at least 5x5 images for two 3x3 convs")


@cache
def _layers(arch: Arch) -> tuple[tuple, ...]:
    """The representation layers in order. ("affine", (d_in, d_out)) and
    ("conv2d", (co, ci, kh, kw)) take a weight of that shape and its bias;
    ("relu",) is elementwise; ("image",) and ("flat",) reshape the batch to
    images and back."""
    hid, emb = arch.hidden, arch.embedding_dim
    if arch.kind == "linear":  # one affine layer; embeddings can reproduce inputs
        return (("affine", (arch.input_dim, emb)),)
    if arch.kind == "mlp":
        return (("affine", (arch.input_dim, hid)), ("relu",), ("affine", (hid, emb)), ("relu",))
    (cin, h, w), (c1, c2) = arch.image_shape, arch.channels  # two valid 3x3 convs
    return (("image",), ("conv2d", (c1, cin, 3, 3)), ("relu",), ("conv2d", (c2, c1, 3, 3)),
            ("relu",), ("flat",), ("affine", (c2 * (h - 4) * (w - 4), hid)), ("relu",),
            ("affine", (hid, emb)), ("relu",))


def _param_shapes(arch: Arch) -> list[tuple[tuple[int, ...], int]]:
    """(shape, fan-in) of every parameter, representation first, classifier
    last: each layer's weight, then its bias. Affine (d_in, d_out) has bias
    (d_out,) and fan d_in; conv2d (co, ci, kh, kw) has bias (co,), fan ci*kh*kw."""
    weighted, out = [layer for layer in _layers(arch) if len(layer) == 2], []
    for op, w in weighted + [("affine", (arch.embedding_dim, arch.num_classes))]:
        bias, fan = ((w[1],), w[0]) if op == "affine" else ((w[0],), w[1] * w[2] * w[3])
        out += [(w, fan), (bias, fan)]
    return out


@cache
def _flat_layout(arch: Arch) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each parameter in a backbone's flat vector."""
    shapes = [shape for shape, _ in _param_shapes(arch)]
    ends = np.cumsum([int(np.prod(s)) for s in shapes]).tolist()
    return tuple((end - int(np.prod(s)), end, s) for s, end in zip(shapes, ends))


# The layers that take two parameters (weights, bias): value, backward.
_PARAM_LAYERS = {"affine": (dc._affine, dc._affine_grads), "conv2d": (dc._conv2d, dc._conv2d_grads)}


def _views(layout: tuple, flat: np.ndarray) -> list[np.ndarray]:
    """Each parameter of a ``_flat_layout`` as a view into ``flat`` (and a stack's client axis)."""
    return [flat[..., start:stop].reshape(flat.shape[:-1] + shape) for start, stop, shape in layout]


class Backbone:
    """Parameter container plus a pure forward pass over the representation
    layers its ``Arch`` lists (see ``_layers``), then a linear classifier."""

    _stacked = False  # a BackboneStack's vector and batches lead with a client axis

    def __init__(self, arch: Arch, flat: np.ndarray):
        """A backbone over ``flat`` (see ``adopt``): no parameter is copied."""
        self.arch, self._layers, self._layout = arch, _layers(arch), _flat_layout(arch)
        self.adopt(flat)

    @property
    def params(self) -> list[np.ndarray]:
        return self.rep_params + self.cls_params

    @property
    def embedding_dim(self) -> int:
        return self.arch.embedding_dim

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def adopt(self, flat: np.ndarray) -> None:
        """Take a finite float64 vector as ``flat``, with no copy: it is frozen
        and each parameter becomes a read-only view into it."""
        size = self._layout[-1][1]
        if flat.dtype != np.float64 or flat.ndim != 1 + self._stacked or flat.shape[-1] != size:
            raise ShapeError(f"expected {'clients x ' * self._stacked}{size} float64 values, "
                             f"got {flat.dtype} {flat.shape}")
        flat.setflags(write=False)
        views = _views(self._layout, flat)
        self.rep_params, self.cls_params, self.flat = views[:-2], views[-2:], flat

    def _embed(self, x: np.ndarray, inputs: Optional[list]) -> np.ndarray:
        """The representation layers on plain arrays. Given a list ``inputs``,
        each layer's input is appended to it for the backward, and each affine
        or conv2d output is checked under its op name."""
        lead, d = self.flat.shape[:-1], self.arch.input_dim
        if x.ndim != 2 + len(lead) or x.shape[: len(lead)] != lead or x.shape[-1] != d:
            raise ShapeError(f"expected ({'clients, ' * len(lead)}n, {d}) input, got {x.shape}")
        rep, j, a = self.rep_params, 0, x
        for op, *_ in self._layers:
            if inputs is not None:
                inputs.append(a)
            fns = _PARAM_LAYERS.get(op)
            if fns is not None:
                a = fns[0](a, rep[j], rep[j + 1])
                j += 2
                if inputs is not None:
                    _check_finite(a, op)
            elif op == "relu":
                a = np.maximum(a, 0.0)
            else:
                a = a.reshape(x.shape[:-1] + (self.arch.image_shape if op == "image" else (-1,)))
        return a

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """Batch of flat features -> (embeddings, logits, cache): the layers,
        each output checked under its op name (``embed`` for the embeddings),
        then the classifier's affine. ``cache`` is for ``backward``."""
        cache: list[np.ndarray] = []
        emb = self._embed(x, cache)
        _check_finite(emb, "embed")
        logits = dc._affine(emb, *self.cls_params)
        _check_finite(logits, "affine")
        cache.append(emb)
        return emb, logits, cache

    def backward(self, cache: list, g_emb, g_logits: np.ndarray) -> np.ndarray:
        """Every parameter's gradient in ``_flat_layout`` order, from ``forward``'s
        cache and the upstream gradients at the embeddings (or None; on a stack,
        a list of each client's or None) and the logits; the classifier's share
        at the embeddings is added last."""
        *inputs, emb = cache
        grad = np.empty(self.flat.shape)
        parts = _views(self._layout, grad)
        rep, w = self.rep_params, self.cls_params[0]
        g, parts[-2][...], parts[-1][...] = dc._affine_grads(g_logits, emb, w, True)
        for g_client, term in zip(g, g_emb) if isinstance(g_emb, list) else [(g, g_emb)]:
            if term is not None:  # a + b is b + a, bit for bit
                g_client += term
        j = len(rep)
        for (op, *_), a in zip(reversed(self._layers), reversed(inputs)):
            fns = _PARAM_LAYERS.get(op)
            if fns is not None:
                j -= 2
                g, parts[j][...], parts[j + 1][...] = fns[1](g, a, rep[j], j > 0)
            elif g is None:  # below the first layer: only the input's reshape
                break
            elif op == "relu":
                g = dc._relu_grad(g, a)
            else:
                g = g.reshape(a.shape)
        return grad

    def infer(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``forward``'s values, with no cache and no per-layer checks: for a
        model whose outputs are constants (shard outputs, evaluation)."""
        emb = self._embed(np.asarray(x, dtype=np.float64), None)
        logits = dc._affine(emb, *self.cls_params)
        _check_finite(emb, "infer embeddings")
        _check_finite(logits, "infer logits")
        return emb, logits


class BackboneStack(Backbone):
    """Backbones of one ``Arch`` stacked on a leading client axis: a (clients,
    P) vector, (clients, n, input_dim) batches. ``forward``, ``backward`` and
    ``sgd_step`` step every client at once, each client's slice bit for bit
    what its own ``Backbone`` computes, also in a stack of one."""

    _stacked = True


@cache
def forward_entries(arch: Arch) -> int:
    """The float64 entries a one-row ``forward`` holds: its cache (a reshaped
    layer input counted again) and the logits."""
    model = Backbone(arch, np.zeros(_flat_layout(arch)[-1][1]))
    _, logits, cache = model.forward(np.zeros((1, arch.input_dim)))
    return sum(a.size for a in cache) + logits.size


def build_backbone(arch: Arch, params: Sequence[np.ndarray]) -> Backbone:
    """A backbone over a new vector of all parameters, representation first,
    classifier last."""
    want = [shape for _, _, shape in _flat_layout(arch)]
    if [np.shape(p) for p in params] != want:
        raise ShapeError(f"params {[np.shape(p) for p in params]} != expected {want}")
    return Backbone(arch, flatten_params(params))


def init_backbone(arch: Arch, rng: np.random.Generator) -> Backbone:
    """Uniform init in +-1/sqrt(fan_in), drawn in fixed parameter order and
    laid end to end as the backbone's vector."""
    draws = []
    for shape, fan in _param_shapes(arch):
        bound = 1.0 / np.sqrt(fan)
        draws.append(rng.uniform(-bound, bound, size=shape).ravel())
    return Backbone(arch, np.concatenate(draws))


def flatten_params(params: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate parameters into one new float64 vector (row-major)."""
    if not params:
        raise ValueError("no parameters to flatten")
    return np.concatenate([np.ravel(p) for p in params], dtype=np.float64)


def _manifest_shapes(arch: Arch) -> list[list[int]]:
    return [list(shape) for *_, shape in _flat_layout(arch)]


@dataclass(frozen=True)
class ModelSnapshot:
    """A backbone's frozen parameter vector at a given round."""

    arch: Arch
    flat: np.ndarray
    round_idx: int

    def to_bytes(self) -> bytes:
        header = {
            **asdict(self.arch),
            "shapes": _manifest_shapes(self.arch),
            "round": self.round_idx,
            "count": int(self.flat.size),
        }
        return json.dumps(header, sort_keys=True).encode() + b"\n" + self.flat.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ModelSnapshot":
        nl = blob.find(b"\n")
        if nl < 0:
            raise ValueError("snapshot blob has no manifest line")
        head = json.loads(blob[:nl].decode())
        try:  # a missing key or a value of the wrong type is a bad file too
            arch = Arch(**{  # JSON lists back to the tuples Arch holds
                f.name: tuple(head[f.name]) if isinstance(head[f.name], list) else head[f.name]
                for f in fields(Arch)
            })
            shapes, count, round_idx = head["shapes"], head["count"], head["round"]
            want = _manifest_shapes(arch)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed snapshot manifest: {exc!r}") from exc
        if type(round_idx) is not int or round_idx < 0:
            raise ValueError(f"snapshot round {round_idx!r} is not a round index")
        if type(count) is not int:
            raise ValueError(f"snapshot count {count!r} is not an int")
        flat = np.frombuffer(blob[nl + 1 :], dtype="<f8").astype(np.float64)
        if flat.size != count:
            raise ValueError(f"snapshot payload has {flat.size} values, manifest says {count!r}")
        _check_finite(flat, "snapshot payload")
        if shapes != want:
            raise ValueError(f"snapshot manifest shapes {shapes} do not match its {arch}")
        return cls(arch=arch, flat=flat, round_idx=round_idx)


def snapshot(backbone: Backbone, round_idx: int) -> ModelSnapshot:
    """The backbone's parameters at ``round_idx``; shares its frozen vector."""
    return ModelSnapshot(arch=backbone.arch, flat=backbone.flat, round_idx=round_idx)


def sgd_step(backbone: Backbone, grad: np.ndarray, lr: float,
             prox: Optional[tuple[float, np.ndarray]] = None) -> Backbone:
    """In-place gradient step on the flat gradient ``backward`` returns:
    flat <- flat - lr * grad, computed in ``grad``'s buffer, which becomes the
    backbone's vector. With ``prox = (rho, anchor)``, grad first gains the
    proximal gradient rho * (flat - anchor)."""
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if grad.dtype != np.float64 or grad.shape != backbone.flat.shape:
        raise ShapeError(f"gradient {grad.dtype} {grad.shape} != parameters {backbone.flat.shape}")
    if prox is not None:
        grad += prox[0] * (backbone.flat - prox[1])
    np.subtract(backbone.flat, np.multiply(grad, lr, out=grad), out=grad)
    _check_finite(grad, "sgd_step")
    backbone.adopt(grad)
    return backbone
