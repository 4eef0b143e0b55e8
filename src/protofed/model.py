"""Backbones with an embedding head and a linear classifier.

A backbone is two parameter groups: representation layers that map a flat
feature batch to embeddings, and a classifier that maps embeddings to
logits. Forward passes are pure: ``forward`` runs the layers as taped ops
for training, ``infer`` runs the same layer list on plain arrays for a model
whose outputs are constants. Training mutates parameters only through
``sgd_step``. Snapshots freeze parameters into a flat vector that can be
rebuilt into an identical backbone (used for aggregation, teachers, and
checkpoints) and serialize to a little-endian buffer with a JSON shape
manifest up front.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tape, Tensor, _check_finite, _wrap

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


# The layer ops ``embed`` takes on plain arrays: each computes the value of
# the taped op of the same name, with no wrapping, checking or recording.
_ARRAY_OPS = SimpleNamespace(
    affine=lambda x, w, b: dc._affine(x, w.data, b.data),
    conv2d=lambda x, k, b: dc._conv2d(x, k.data, b.data),
    relu=lambda x: np.maximum(x, 0.0),
    reshape=np.reshape,
)


class Backbone:
    """Parameter container plus a pure forward pass."""

    def __init__(self, arch: Arch, rep_params: list[Tensor], cls_params: list[Tensor]):
        self.arch = arch
        want_rep, want_cls, _ = _param_shapes(arch)
        self._check(rep_params, want_rep, "representation")
        self._check(cls_params, want_cls, "classifier")
        self.rep_params = list(rep_params)
        self.cls_params = list(cls_params)

    @staticmethod
    def _check(params, want, group):
        got = [p.shape for p in params]
        if got != want:
            raise ShapeError(f"{group} params {got} != expected {want}")

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
        """Replace all parameters (representation first, classifier last)."""
        n_rep = len(self.rep_params)
        rep, cls = list(params[:n_rep]), list(params[n_rep:])
        want_rep, want_cls, _ = _param_shapes(self.arch)
        self._check(rep, want_rep, "representation")
        self._check(cls, want_cls, "classifier")
        self.rep_params, self.cls_params = rep, cls

    def embed(self, x, ops):
        """The representation layers, built from ``ops``: ``diffcore`` for
        tensors on the tape, ``_ARRAY_OPS`` for plain arrays."""
        raise NotImplementedError

    def _layers(self, x, ops) -> tuple:
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ShapeError(f"expected (n, {self.arch.input_dim}) input, got {x.shape}")
        emb = self.embed(x, ops)
        w, b = self.cls_params
        return emb, ops.affine(emb, w, b)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Batch of flat features -> (embeddings, logits), as taped ops."""
        return self._layers(x, dc)

    def infer(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``forward``'s values on plain arrays, off the tape: for a model
        whose outputs are constants (teachers, prototypes, evaluation)."""
        emb, logits = self._layers(np.asarray(x, dtype=np.float64), _ARRAY_OPS)
        _check_finite(emb, "infer embeddings")
        _check_finite(logits, "infer logits")
        return emb, logits


class MLPBackbone(Backbone):
    """input -> hidden (relu) -> embedding (relu) -> classifier."""

    def embed(self, x, ops):
        w1, b1, w2, b2 = self.rep_params
        h = ops.relu(ops.affine(x, w1, b1))
        return ops.relu(ops.affine(h, w2, b2))


class LinearBackbone(Backbone):
    """Single affine representation layer; embeddings can reproduce inputs."""

    def embed(self, x, ops):
        w, b = self.rep_params
        return ops.affine(x, w, b)


class ConvBackbone(Backbone):
    """Two valid 3x3 convs then two fully connected layers, relu throughout."""

    def embed(self, x, ops):
        k1, cb1, k2, cb2, w1, b1, w2, b2 = self.rep_params
        n = x.shape[0]
        img = ops.reshape(x, (n,) + self.arch.image_shape)
        a = ops.relu(ops.conv2d(img, k1, cb1))
        a = ops.relu(ops.conv2d(a, k2, cb2))
        flat = ops.reshape(a, (n, a.size // n))
        h = ops.relu(ops.affine(flat, w1, b1))
        return ops.relu(ops.affine(h, w2, b2))


_KINDS = {"mlp": MLPBackbone, "linear": LinearBackbone, "cnn": ConvBackbone}


def build_backbone(arch: Arch, params: Sequence[Tensor]) -> Backbone:
    rep_n = len(_param_shapes(arch)[0])
    return _KINDS[arch.kind](arch, list(params[:rep_n]), list(params[rep_n:]))


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
    shapes = tuple(p.shape for p in backbone.params)
    return ModelSnapshot(
        arch=backbone.arch,
        shapes=shapes,
        flat=flatten_params(backbone.params),
        round_idx=round_idx,
    )


def sgd_step(backbone: Backbone, grads: Mapping[Tensor, np.ndarray], lr: float) -> Backbone:
    """In-place gradient step: p <- p - lr * g for every parameter."""
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    new = []
    for p in backbone.params:
        if p not in grads:
            raise ShapeError("gradient map is missing a parameter")
        g = np.asarray(grads[p], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        new.append(_wrap(p.data - lr * g, "sgd_step"))  # fresh buffer: no second copy
    backbone.load(new)
    return backbone
