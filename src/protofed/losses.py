"""Loss kernels for prototype-guided federated training.

Four ingredients combine into the per-batch training loss: plain cross
entropy, a self-distillation term against the client's own previous
model, an alignment term that measures how far the received global
prototypes sit from remembered embeddings, and an attract/repel term
that pulls current embeddings toward their class prototype while pushing
the batch away from every prototype at once. The fedproto baseline adds
its own regularizer, class means against prototypes.

The global prototypes are one read-only (C, q) matrix, ``GlobalPrototypes``,
built once per round. A batch's ``ClassGroups`` indexes it once for the
batch's classes that have a prototype. Align, attract and repel reduce the
squared distances their caller made with ``diffcore._sq_dists``: align and
attract those of a batch to its groups' rows, repel those to the rows it
repels. They take no embeddings and no table. Fedproto takes an embedding
matrix with its groups.

Each kernel takes plain arrays and returns ``(value, bwd)``: the value as a
float, checked finite under the kernel's name, and ``bwd(g)``, the gradient
of the kernel's input (for a distance kernel, the embeddings the distances
were taken from) from the upstream scalar ``g``. Gradient routing is part of
that contract: distillation teachers, attraction prototypes and alignment
embeddings get none, so align's ``bwd`` gives the prototype rows' gradient,
and repel's gives the prototype rows' only on request. A prototype term that
finds no prototype, or align handed no differences, returns ``bwd`` None.
Each backward repeats, step for step, the arithmetic of the chain of small
diffcore ops the kernel replaced, so every gradient is bitwise that chain's.
Cross entropy and distillation also take a ``BackboneStack``'s leading
client axis, each client's slice bitwise its own call, and the mixes one
client-axis vector per term; the distance kernels take one client at a time.
"""
from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError

__all__ = [
    "LossWeights",
    "GlobalPrototypes",
    "PrototypeCoverageWarning",
    "ClassGroups",
    "cross_entropy",
    "distill_loss",
    "align_loss",
    "attract_loss",
    "repel_loss",
    "attract_repel_loss",
    "fedproto_loss",
    "local_loss",
]


class PrototypeCoverageWarning(UserWarning):
    """No class in the batch had a matching global prototype."""


def _check_finite_floats(config) -> None:
    """Reject a NaN or infinite float field of a config dataclass by name.
    NaN fails every comparison, so a check such as ``x < 0`` lets it pass."""
    for f in fields(config):
        if f.type == "float" and not np.isfinite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(config, f.name)!r}")


@dataclass(frozen=True)
class LossWeights:
    """Mixing knobs for the combined local loss.

    ce_weight splits mass between cross entropy and distillation;
    align_weight and proto_weight scale the two prototype terms; balance
    splits the attract/repel pair; scale sits inside their squared
    distances; temperature softens the distillation softmax.
    """

    ce_weight: float = 0.9
    align_weight: float = 1.0
    proto_weight: float = 0.1
    balance: float = 0.5
    scale: float = 0.5
    temperature: float = 0.1

    def __post_init__(self):
        _check_finite_floats(self)
        if not 0.0 <= self.ce_weight <= 1.0:
            raise ValueError("ce_weight must sit in [0, 1]")
        if self.align_weight < 0 or self.proto_weight < 0:
            raise ValueError("align_weight and proto_weight must be nonnegative")
        if not 0.0 < self.balance <= 1.0:
            raise ValueError("balance must sit in (0, 1]")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


class GlobalPrototypes:
    """The global prototype table: one read-only (C, q) matrix whose row k is
    the prototype of class ``labels[k]``, labels ascending."""

    def __init__(self, labels: Sequence[int], matrix) -> None:
        self.labels = [int(c) for c in labels]
        self.matrix = np.array(matrix, dtype=np.float64)
        dc._check_finite(self.matrix, "GlobalPrototypes")
        self.matrix.flags.writeable = False
        if self.matrix.ndim != 2 or self.matrix.shape[0] != len(self.labels):
            raise ShapeError(f"need one prototype row per label, got {self.matrix.shape}")
        if self.matrix.shape[1] < 1:
            raise ValueError("embedding_dim must be >= 1")
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError(f"labels must ascend without repeats, got {self.labels}")
        self.embedding_dim = self.matrix.shape[1]
        self._row = {c: k for k, c in enumerate(self.labels)}

    @classmethod
    def of(cls, embedding_dim: int, vectors: Mapping[int, np.ndarray]) -> "GlobalPrototypes":
        """The table of ``{class: vector}``, stacked once."""
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        labels = sorted(int(c) for c in vectors)
        for c in labels:
            if np.shape(vectors[c]) != (embedding_dim,):
                raise ShapeError(
                    f"prototype for class {c} has shape {np.shape(vectors[c])}, "
                    f"expected ({embedding_dim},)"
                )
        return cls(labels, np.array([vectors[c] for c in labels]).reshape(-1, embedding_dim))

    def has(self, label: int) -> bool:
        return int(label) in self._row

    def rows(self, classes: Sequence[int]) -> np.ndarray:
        """The listed classes' prototypes, one read-only row each."""
        out = self.matrix[np.array([self._row[c] for c in classes], dtype=np.intp)]
        out.flags.writeable = False
        return out


def _value(v, name: str):
    """A kernel's value as a float (one per client over a client axis),
    checked finite under the kernel's name."""
    dc._check_finite(v, name)
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def cross_entropy(logits: np.ndarray, labels) -> tuple[float, Callable]:
    """Mean negative log-likelihood of the labels under row softmax; ``bwd``
    gives the logits' gradient. Over a leading client axis, (G, n, C) logits
    and (G, n) labels, the value is each client's and ``bwd`` takes each
    client's upstream scalar; every client's slice is bitwise its own call."""
    if logits.ndim not in (2, 3) or logits.shape[-2] < 1:
        raise ShapeError(f"logits must be a nonempty (n, C) matrix or a stack of them, "
                         f"got {logits.shape}")
    n, classes = logits.shape[-2:]
    idx = np.asarray(labels, dtype=np.int64)
    if idx.shape != logits.shape[:-1]:
        raise ShapeError(f"labels must be {logits.shape[:-1]} class indices, got {idx.shape}")
    dc._as_index(idx.reshape(-1), idx.size, classes, "labels")  # the range check
    rows = np.arange(n)
    at = (rows, idx) if idx.ndim == 1 else (np.arange(idx.shape[0])[:, None], rows, idx)
    ls = dc._log_softmax(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))

    def bwd(g):
        gx = np.zeros(ls.shape)
        gx[at] = 0.0 - (g / n if idx.ndim == 1 else np.reshape(g / n, (-1, 1)))  # one label a row
        return dc._log_softmax_grad(gx, np.exp(ls))

    # np.add.reduce(...) / n is np.mean without its Python wrapper
    return _value(np.add.reduce(-ls[at], -1) / n, "cross_entropy"), bwd


def distill_loss(
    teacher_logits: np.ndarray, student_logits: np.ndarray, temperature: float
) -> tuple[float, Callable]:
    """Temperature-softened KL divergence from teacher to student,
    averaged over the batch and rescaled by temperature squared.

    The teacher is a constant: ``bwd`` gives the student logits' gradient.
    Over a leading client axis the value is each client's.
    """
    shape = student_logits.shape
    if teacher_logits.shape != shape:
        raise ShapeError(f"teacher {teacher_logits.shape} and student {shape} differ")
    if len(shape) not in (2, 3) or shape[-2] < 1:
        raise ShapeError("logits must be a nonempty (n, C) matrix or a stack of them")
    z = dc._temp_scaled(teacher_logits, temperature)
    e = np.exp(z)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    log_q = dc._log_softmax(dc._temp_scaled(student_logits, temperature))
    c = temperature * temperature / shape[-2]

    def bwd(g):
        gc = g * c if len(shape) == 2 else np.reshape(g * c, (-1, 1, 1))
        return dc._log_softmax_grad(-(gc * p), np.exp(log_q)) / temperature

    # each client's KL is one reduction over its trailing (n, C) axes
    kl_sum = np.add.reduce(p * (dc._log_softmax(z) - log_q), axis=(-2, -1))
    return _value(kl_sum * c, "distill_loss"), bwd


class ClassGroups:
    """One batch's labels against the global table: the batch classes that
    have a prototype (ascending), the constant (n, len(classes)) weights that
    turn per-row values into class means (row i holds 1 / (rows labelled
    ``classes[k]``) in column k when it carries that label, zeros elsewhere),
    those classes' prototype rows, read-only, and their table rows ``cols``.

    Align and attract reduce one block of squared distances to ``rows`` (the
    columns ``cols`` of distances to the whole table) with the weights, so
    grouping a batch splits nothing, and one grouping serves the teacher's
    and the student's embeddings of the same rows.
    """

    def __init__(self, labels, protos: GlobalPrototypes) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ShapeError(f"labels must be a vector, got {self.labels.shape}")
        table = np.asarray(protos.labels, dtype=np.int64)
        counts = np.add.reduce(self.labels[:, None] == table, 0)
        self.cols = np.flatnonzero(counts)  # table rows
        # compared afresh, not gathered, so the weights are C-ordered: sums read them in order
        self.weights = (self.labels[:, None] == table[self.cols]) / counts[self.cols]
        self.classes = table[self.cols].tolist()
        self.rows = protos.matrix[self.cols]
        self.rows.flags.writeable = False

    def _covered(self, dists: np.ndarray, caller: str) -> bool:
        """Whether a batch class has a prototype, once ``dists`` is shaped
        (batch rows, batch classes); False with a ``PrototypeCoverageWarning``."""
        if np.shape(dists) != self.weights.shape:
            raise ShapeError(f"need {self.weights.shape} distances, got {np.shape(dists)}")
        if not self.classes:
            warnings.warn(
                f"{caller}: no batch class has a global prototype; returning 0",
                PrototypeCoverageWarning,
                stacklevel=3,
            )
        return bool(self.classes)


def align_loss(dists: np.ndarray, groups: ClassGroups,
               diff: Optional[np.ndarray] = None) -> tuple[float, Optional[Callable]]:
    """How far the received prototypes drifted from remembered embeddings.

    Per class: squared distance (mean over dimensions) between each
    remembered embedding and the class prototype, averaged over the
    class; classes are then averaged uniformly. ``dists`` and ``diff`` are
    ``dc._sq_dists`` of the embeddings to ``groups.rows``. The embeddings are
    constants: ``bwd`` gives the gradient of the prototype rows, and is None
    without ``diff``. Training hands align its distances alone and only logs it.
    """
    if not groups._covered(dists, "align_loss"):
        return 0.0, None
    weights = groups.weights / dists.shape[1]
    value = _value(np.add.reduce(dists * weights, None), "align_loss")  # np.sum, unwrapped
    if diff is None:
        return value, None
    return value, lambda g: -dc._sq_dists_grad(g * weights, diff).sum(0)


def attract_loss(dists: np.ndarray, diff: np.ndarray, groups: ClassGroups,
                 scale: float) -> tuple[float, Optional[Callable]]:
    """Pull within-class embeddings toward their global prototype.

    Sum over classes of the class-mean squared distance, scaled, from
    ``dc._sq_dists`` (``dists``, ``diff``) of the embeddings to
    ``groups.rows``; the prototypes are constants, so ``bwd`` gives the
    embeddings' gradient.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    if not groups._covered(dists, "attract_loss"):
        return 0.0, None
    weights = groups.weights * float(scale)
    value = _value(np.add.reduce(dists * weights, None), "attract_loss")
    return value, lambda g: np.add.reduce(dc._sq_dists_grad(g * weights, diff), 1)


def repel_loss(dists: np.ndarray, diff: np.ndarray,
               scale: float) -> tuple[float, Optional[Callable]]:
    """Push the whole batch away from every prototype it is measured to.

    ``dists`` and ``diff`` are ``dc._sq_dists`` of the batch to the
    prototype rows it repels, one column a class. Log-sum-exp over the
    columns of the negated, scaled batch-mean squared distance; computed
    with a constant max shift so the exponentials never overflow. A class
    the caller leaves out has no column, so it is never exponentiated.
    Moving embeddings away from a prototype lowers the loss. ``bwd(g)``
    gives the embeddings' gradient, and ``bwd(g, rows=True)`` that and the
    gradient of the repelled rows.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    if np.ndim(dists) != 2 or len(dists) < 1:
        raise ShapeError(f"need (rows, classes) distances with rows, got {np.shape(dists)}")
    n, classes = dists.shape
    if not classes:
        warnings.warn(
            "repel_loss: no class to repel has a global prototype; returning 0",
            PrototypeCoverageWarning,
            stacklevel=2,
        )
        return 0.0, None
    scores = np.add.reduce(dists, 0) / n * -float(scale)  # np.mean, unwrapped
    shift = float(scores.max())  # constant: gradient-neutral shift
    with np.errstate(over="ignore"):
        e = np.exp(scores - shift)
    total = np.add.reduce(e, None)

    def bwd(g, rows: bool = False):
        g_dists = ((((g / total) * e) * -float(scale)) / n)[None]  # one row for every row
        gd = dc._sq_dists_grad(g_dists, diff)
        return (np.add.reduce(gd, 1), -gd.sum(axis=0)) if rows else np.add.reduce(gd, 1)

    with np.errstate(divide="ignore", invalid="ignore"):
        return _value(np.log(total) + shift, "repel_loss"), bwd


def _mix(terms: Sequence[float], weights: Sequence[float], name: str) -> tuple[float, Callable]:
    """sum_i weights[i] * terms[i], added left to right, over scalar terms or
    client-axis vectors of one length, and its backward: each term's scalar."""
    shapes = [np.shape(t) for t in terms]
    if len(shapes[0]) > 1 or any(s != shapes[0] for s in shapes):
        raise ShapeError(f"{name} needs scalar terms or vectors of one length, got {shapes}")
    acc = terms[0] * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        acc = acc + t * w
    return _value(acc, name), lambda g: tuple(g * w for w in weights)


def attract_repel_loss(attract: float, repel: float, balance: float) -> tuple[float, Callable]:
    """Convex mix of the attract and repel terms; ``bwd`` gives their scalars."""
    if not 0.0 < balance <= 1.0:
        raise ValueError("balance must sit in (0, 1]")
    return _mix((attract, repel), (balance, 1.0 - balance), "attract_repel_loss")


def fedproto_loss(embeddings: np.ndarray, groups: ClassGroups) -> Optional[tuple[float, Callable]]:
    """FedProto's regularizer: the mean squared gap, over the batch classes
    with a prototype and the dimensions, between each class's batch-mean
    embedding and its global prototype; ``bwd`` gives the embeddings'
    gradient. None when no batch class has a prototype."""
    if embeddings.shape != (len(groups.labels), groups.rows.shape[1]):
        raise ShapeError(f"need {len(groups.labels)} embedding rows as wide as the prototypes "
                         f"{groups.rows.shape}, got {embeddings.shape}")
    if not groups.classes:
        return None
    weights = groups.weights
    gap = weights.T @ embeddings - groups.rows
    value = _value(np.mean(gap * gap), "fedproto_loss")
    return value, lambda g: weights @ ((2.0 * (g / gap.size)) * gap)


def local_loss(
    ce: float,
    distill: Optional[float],
    align: Optional[float],
    attract_repel: Optional[float],
    weights: LossWeights,
    round_idx: int,
) -> tuple[float, Callable]:
    """Combined per-batch training loss; ``bwd`` gives the scalar of each of
    the four terms, each a scalar or one entry per client of a stack.

    Round 1 is plain cross entropy (its value as-is, bit for bit); later
    rounds mix all four components by the configured weights.
    """
    if np.ndim(ce) > 1:
        raise ShapeError("ce must be a scalar loss or a client-axis vector")
    if round_idx < 1:
        raise ValueError(f"round index must be >= 1, got {round_idx}")
    if round_idx == 1:
        return _value(ce, "local_loss"), lambda g: (g, None, None, None)
    parts = {"distill": distill, "align": align, "attract_repel": attract_repel}
    for name, part in parts.items():
        if part is None:
            raise ValueError(f"{name} loss is required after round 1")
    return _mix(
        (ce, distill, align, attract_repel),
        (weights.ce_weight, 1.0 - weights.ce_weight, weights.align_weight, weights.proto_weight),
        "local_loss",
    )
