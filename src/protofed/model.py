"""Backbones with an embedding head and a linear classifier.

A backbone is two parameter groups: representation layers that map a flat
feature batch to embeddings, and a classifier that maps embeddings to
logits. One ``Backbone`` class serves every kind: ``_layers`` lists each
kind's layers with their weight shapes once, and the parameter layout, init
and forward all read that table. Forward passes are pure and run the layers
on plain arrays: ``forward`` records them as one taped op, then the
classifier's ``affine``; ``infer`` computes the same values off the tape.
Training mutates parameters only through ``sgd_step``, one step on a frozen
vector of all parameters. That vector is what travels: ``adopt`` takes one
in place of the parameters and ``backbone_from_flat`` builds a backbone over
one, each without a copy. A snapshot, written as a checkpoint, shares it and
serializes to a little-endian buffer with a JSON shape manifest up front;
only this module knows the layout.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cache
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tape, Tensor, _check_finite, as_tensor

__all__ = [
    "Arch",
    "Backbone",
    "ModelSnapshot",
    "init_backbone",
    "build_backbone",
    "snapshot",
    "backbone_from_flat",
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


class Backbone:
    """Parameter container plus a pure forward pass over the representation
    layers its ``Arch`` lists (see ``_layers``), then a linear classifier."""

    def __init__(self, arch: Arch, params: Sequence[Tensor]):
        """All parameters, representation first, classifier last. The tensors
        are kept, so a tape can watch them."""
        want = [shape for _, _, shape in _flat_layout(arch)]
        if [p.shape for p in params] != want:
            raise ShapeError(f"params {[p.shape for p in params]} != expected {want}")
        self.arch = arch
        self.rep_params, self.cls_params, self._flat = list(params[:-2]), list(params[-2:]), None

    @property
    def params(self) -> list[Tensor]:
        return self.rep_params + self.cls_params

    @property
    def embedding_dim(self) -> int:
        return self.arch.embedding_dim

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    def watch(self, tape: Tape) -> None:
        tape.watch(*self.params)

    @property
    def flat(self) -> np.ndarray:
        """All parameters end to end in one frozen vector, built on first use."""
        if self._flat is None:
            self._flat = flatten_params(self.params)
            self._flat.setflags(write=False)
        return self._flat

    def adopt(self, flat: np.ndarray) -> None:
        """Take a finite float64 vector as ``flat``, with no copy: it is frozen
        and each parameter becomes a read-only view into it."""
        layout = _flat_layout(self.arch)
        size = layout[-1][1]
        if flat.dtype != np.float64 or flat.shape != (size,):
            raise ShapeError(f"expected {size} float64 values, got {flat.dtype} {flat.shape}")
        flat.setflags(write=False)
        views = [dc._tensor(flat[start:stop].reshape(shape)) for start, stop, shape in layout]
        self.rep_params, self.cls_params, self._flat = views[:-2], views[-2:], flat

    def _embed(self, x: np.ndarray, inputs: Optional[list]) -> np.ndarray:
        """The representation layers on plain arrays. Given a list ``inputs``,
        each layer's input is appended to it for the backward, and each affine
        or conv2d output is checked under its op name."""
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ShapeError(f"expected (n, {self.arch.input_dim}) input, got {x.shape}")
        rep, j, a = self.rep_params, 0, x
        for op, *_ in _layers(self.arch):
            if inputs is not None:
                inputs.append(a)
            fns = _PARAM_LAYERS.get(op)
            if fns is not None:
                a = fns[0](a, rep[j].data, rep[j + 1].data)
                j += 2
                if inputs is not None:
                    _check_finite(a, op)
            elif op == "relu":
                a = np.maximum(a, 0.0)
            else:
                a = a.reshape((x.shape[0],) + (self.arch.image_shape if op == "image" else (-1,)))
        return a

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Batch of flat features -> (embeddings, logits): the representation
        layers as one taped op, then the classifier's affine."""
        x = as_tensor(x)
        inputs: list[np.ndarray] = []
        emb = self._embed(x.data, inputs)
        rep = self.rep_params
        need = [dc._tracked(t) for t in (x, *rep)]  # x is often the untracked batch

        def bwd(g):
            grads, j = [None] * len(rep), len(rep)
            for (op, *_), a in zip(reversed(_layers(self.arch)), reversed(inputs)):
                if g is None:  # nothing below this layer is tracked
                    break
                fns = _PARAM_LAYERS.get(op)
                if fns is not None:
                    j -= 2
                    g, grads[j], grads[j + 1] = fns[1](
                        g, a, rep[j].data, any(need[: j + 1]), need[j + 1], need[j + 2]
                    )
                elif op == "relu":
                    g = dc._relu_grad(g, a)
                else:
                    g = g.reshape(a.shape)
            return (g if need[0] else None, *grads)

        emb_t = dc._op(emb, "embed", (x, *rep), bwd)
        w, b = self.cls_params
        return emb_t, dc.affine(emb_t, w, b)

    def infer(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``forward``'s values on plain arrays, off the tape: for a model
        whose outputs are constants (shard outputs, evaluation)."""
        emb = self._embed(np.asarray(x, dtype=np.float64), None)
        w, b = self.cls_params
        logits = dc._affine(emb, w.data, b.data)
        _check_finite(emb, "infer embeddings")
        _check_finite(logits, "infer logits")
        return emb, logits


def build_backbone(arch: Arch, params: Sequence[Tensor]) -> Backbone:
    return Backbone(arch, params)


def backbone_from_flat(arch: Arch, flat: np.ndarray) -> Backbone:
    """A backbone over ``flat`` (see ``Backbone.adopt``): no parameter is copied."""
    model = object.__new__(Backbone)
    model.arch = arch
    model.adopt(flat)
    return model


def init_backbone(arch: Arch, rng: np.random.Generator) -> Backbone:
    """Uniform init in +-1/sqrt(fan_in), drawn in fixed parameter order and
    laid end to end as the backbone's vector."""
    draws = []
    for shape, fan in _param_shapes(arch):
        bound = 1.0 / np.sqrt(fan)
        draws.append(rng.uniform(-bound, bound, size=shape).ravel())
    return backbone_from_flat(arch, np.concatenate(draws))


def flatten_params(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate parameters into one float64 vector (row-major)."""
    if not params:
        raise ValueError("no parameters to flatten")
    return np.concatenate([p.data.reshape(-1) for p in params])


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


def sgd_step(backbone: Backbone, grads: Mapping[Tensor, np.ndarray], lr: float,
             prox: Optional[tuple[float, np.ndarray]] = None) -> Backbone:
    """In-place gradient step: p <- p - lr * g for every parameter, as one
    expression over the parameters and their gradients laid end to end. With
    ``prox = (rho, anchor)``, g gains the proximal gradient rho * (flat - anchor)."""
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    gs = []
    for p in backbone.params:
        g = grads.get(p)
        if g is None:
            raise ShapeError("gradient map is missing a parameter")
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        gs.append(g.ravel())
    step = np.concatenate(gs, dtype=np.float64)  # the one temporary: the new vector
    if prox is not None:
        step += prox[0] * (backbone.flat - prox[1])
    np.subtract(backbone.flat, np.multiply(step, lr, out=step), out=step)
    _check_finite(step, "sgd_step")
    backbone.adopt(step)
    return backbone
