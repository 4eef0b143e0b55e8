"""Backbones with an embedding head and a linear classifier.

A backbone is two parameter groups: representation layers that map a flat
feature batch to embeddings, and a classifier that maps embeddings to
logits. Forward passes are pure and run one layer list on plain arrays:
``forward`` records it as one taped op, then the classifier's ``affine``;
``infer`` computes the same values off the tape. Training mutates parameters
only through ``sgd_step``, one step on a frozen vector of all parameters.
Snapshots share that vector and can be rebuilt into an identical backbone
(used for aggregation, teachers, and checkpoints); they serialize to a
little-endian buffer with a JSON shape manifest up front.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tape, Tensor, _check_finite, as_tensor

__all__ = [
    "Arch",
    "Backbone",
    "MLPBackbone",
    "LinearBackbone",
    "ConvBackbone",
    "ModelSnapshot",
    "init_backbone",
    "build_backbone",
    "snapshot",
    "flatten_params",
    "unflatten_params",
    "sgd_step",
]


@dataclass(frozen=True)
class Arch:
    """Structural description of a backbone; everything a rebuild needs."""

    kind: str  # "mlp" | "linear" | "cnn"
    input_dim: int
    embedding_dim: int
    num_classes: int
    hidden: int = 0
    image_shape: Optional[tuple[int, int, int]] = None  # (channels, h, w) for cnn
    channels: tuple[int, int] = (4, 8)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown backbone kind {self.kind!r}")
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


def _param_shapes(arch: Arch) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[int]]:
    """Shapes of (representation, classifier) params plus per-param fan-in."""
    if arch.kind == "mlp":
        rep = [
            (arch.input_dim, arch.hidden),
            (arch.hidden,),
            (arch.hidden, arch.embedding_dim),
            (arch.embedding_dim,),
        ]
        fans = [arch.input_dim, arch.input_dim, arch.hidden, arch.hidden]
    elif arch.kind == "linear":
        rep = [(arch.input_dim, arch.embedding_dim), (arch.embedding_dim,)]
        fans = [arch.input_dim, arch.input_dim]
    else:  # cnn
        cin, h, w = arch.image_shape
        c1, c2 = arch.channels
        flat = c2 * (h - 4) * (w - 4)  # two valid 3x3 convs
        rep = [
            (c1, cin, 3, 3),
            (c1,),
            (c2, c1, 3, 3),
            (c2,),
            (flat, arch.hidden),
            (arch.hidden,),
            (arch.hidden, arch.embedding_dim),
            (arch.embedding_dim,),
        ]
        fans = [cin * 9, cin * 9, c1 * 9, c1 * 9, flat, flat, arch.hidden, arch.hidden]
    cls = [(arch.embedding_dim, arch.num_classes), (arch.num_classes,)]
    fans += [arch.embedding_dim, arch.embedding_dim]
    return rep, cls, fans


@cache
def _flat_layout(arch: Arch) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each parameter in a backbone's flat vector."""
    rep, cls, _ = _param_shapes(arch)
    ends = np.cumsum([int(np.prod(s)) for s in rep + cls]).tolist()
    return tuple((end - int(np.prod(s)), end, s) for s, end in zip(rep + cls, ends))


# The layers that take two parameters (weights, bias): value, backward.
_PARAM_LAYERS = {"affine": (dc._affine, dc._affine_grads), "conv2d": (dc._conv2d, dc._conv2d_grads)}


class Backbone:
    """Parameter container plus a pure forward pass. ``layers`` lists the
    representation layers: "affine" and "conv2d" take the next two parameters;
    "image" and "flat" reshape the batch to images and back."""

    def __init__(self, arch: Arch, params: Sequence[Tensor]):
        self.arch = arch
        self.load(params)

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

    def load(self, params: Sequence[Tensor]) -> None:
        """Replace all parameters (representation first, classifier last).
        The tensors are kept, so a tape can watch them."""
        want_rep, want_cls, _ = _param_shapes(self.arch)
        rep, cls = list(params[: len(want_rep)]), list(params[len(want_rep) :])
        for group, got, want in (("representation", rep, want_rep), ("classifier", cls, want_cls)):
            if [p.shape for p in got] != want:
                raise ShapeError(f"{group} params {[p.shape for p in got]} != expected {want}")
        self.rep_params, self.cls_params, self._flat = rep, cls, None

    @property
    def flat(self) -> np.ndarray:
        """All parameters end to end in one frozen vector, built on first use."""
        if self._flat is None:
            self._flat = flatten_params(self.params)
            self._flat.setflags(write=False)
        return self._flat

    def _adopt(self, flat: np.ndarray) -> None:
        """Take a checked vector as ``flat``; each parameter becomes a view into it."""
        flat.setflags(write=False)
        layout = _flat_layout(self.arch)
        views = [dc._tensor(flat[start:stop].reshape(shape)) for start, stop, shape in layout]
        n_rep = len(self.rep_params)
        self.rep_params, self.cls_params, self._flat = views[:n_rep], views[n_rep:], flat

    def _embed(self, x: np.ndarray, inputs: Optional[list]) -> np.ndarray:
        """The representation layers on plain arrays. Given a list ``inputs``,
        each layer's input is appended to it for the backward, and each affine
        or conv2d output is checked under its op name."""
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ShapeError(f"expected (n, {self.arch.input_dim}) input, got {x.shape}")
        rep, j, a = self.rep_params, 0, x
        for op in self.layers:
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
            for op, a in zip(reversed(self.layers), reversed(inputs)):
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
        whose outputs are constants (teachers, prototypes, evaluation)."""
        emb = self._embed(np.asarray(x, dtype=np.float64), None)
        w, b = self.cls_params
        logits = dc._affine(emb, w.data, b.data)
        _check_finite(emb, "infer embeddings")
        _check_finite(logits, "infer logits")
        return emb, logits


class MLPBackbone(Backbone):
    """input -> hidden (relu) -> embedding (relu) -> classifier."""

    layers = ("affine", "relu", "affine", "relu")


class LinearBackbone(Backbone):
    """Single affine representation layer; embeddings can reproduce inputs."""

    layers = ("affine",)


class ConvBackbone(Backbone):
    """Two valid 3x3 convs then two fully connected layers, relu throughout."""

    layers = ("image", "conv2d", "relu", "conv2d", "relu", "flat",
              "affine", "relu", "affine", "relu")


_KINDS = {"mlp": MLPBackbone, "linear": LinearBackbone, "cnn": ConvBackbone}


def build_backbone(arch: Arch, params: Sequence[Tensor]) -> Backbone:
    return _KINDS[arch.kind](arch, params)


def init_backbone(arch: Arch, rng: np.random.Generator) -> Backbone:
    """Uniform init in +-1/sqrt(fan_in), drawn in fixed parameter order."""
    rep_shapes, cls_shapes, fans = _param_shapes(arch)
    params = []
    for shape, fan in zip(rep_shapes + cls_shapes, fans):
        bound = 1.0 / np.sqrt(fan)
        params.append(Tensor(rng.uniform(-bound, bound, size=shape)))
    return build_backbone(arch, params)


def flatten_params(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate parameters into one float64 vector (row-major)."""
    if not params:
        raise ValueError("no parameters to flatten")
    return np.concatenate([p.data.reshape(-1) for p in params])


def unflatten_params(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[Tensor]:
    flat = np.asarray(flat, dtype=np.float64)
    sizes = [int(np.prod(s, dtype=np.int64)) for s in shapes]
    if flat.ndim != 1 or flat.size != sum(sizes):
        raise ShapeError(f"flat vector of {flat.size} does not match shapes {list(shapes)}")
    out, at = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(Tensor(flat[at : at + size].reshape(shape)))
        at += size
    return out


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen copy of a backbone's parameters at a given round."""

    arch: Arch
    shapes: tuple[tuple[int, ...], ...]
    flat: np.ndarray
    round_idx: int

    def build(self) -> Backbone:
        return build_backbone(self.arch, unflatten_params(self.flat, self.shapes))

    def to_bytes(self) -> bytes:
        header = {
            "kind": self.arch.kind,
            "input_dim": self.arch.input_dim,
            "embedding_dim": self.arch.embedding_dim,
            "num_classes": self.arch.num_classes,
            "hidden": self.arch.hidden,
            "image_shape": list(self.arch.image_shape) if self.arch.image_shape else None,
            "channels": list(self.arch.channels),
            "shapes": [list(s) for s in self.shapes],
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
        flat = np.frombuffer(blob[nl + 1 :], dtype="<f8").astype(np.float64)
        if flat.size != head["count"]:
            raise ValueError(f"snapshot payload has {flat.size} values, manifest says {head['count']}")
        arch = Arch(
            kind=head["kind"],
            input_dim=head["input_dim"],
            embedding_dim=head["embedding_dim"],
            num_classes=head["num_classes"],
            hidden=head["hidden"],
            image_shape=tuple(head["image_shape"]) if head["image_shape"] else None,
            channels=tuple(head["channels"]),
        )
        shapes = tuple(tuple(s) for s in head["shapes"])
        return cls(arch=arch, shapes=shapes, flat=flat, round_idx=head["round"])


def snapshot(backbone: Backbone, round_idx: int) -> ModelSnapshot:
    """The backbone's parameters at ``round_idx``; shares its frozen vector."""
    shapes = tuple(p.shape for p in backbone.params)
    return ModelSnapshot(arch=backbone.arch, shapes=shapes, flat=backbone.flat, round_idx=round_idx)


def sgd_step(backbone: Backbone, grads: Mapping[Tensor, np.ndarray], lr: float) -> Backbone:
    """In-place gradient step: p <- p - lr * g for every parameter, as one
    expression over the parameters and their gradients laid end to end."""
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
    np.subtract(backbone.flat, np.multiply(step, lr, out=step), out=step)
    _check_finite(step, "sgd_step")
    backbone._adopt(step)
    return backbone
