"""Loss kernels for prototype-guided federated training.

Four ingredients combine into the per-batch training loss: plain cross
entropy, a self-distillation term against the client's own previous
model, an alignment term that measures how far the received global
prototypes sit from remembered embeddings, and an attract/repel term
that pulls current embeddings toward their class prototype while pushing
the batch away from every prototype at once. The fedproto baseline adds
its own regularizer, class means against prototypes.

The global prototypes are one (C, q) matrix, ``GlobalPrototypes``, built
once per round. A batch's ``ClassGroups`` indexes it once for the batch's
classes that have a prototype; the alignment, attract and fedproto
kernels take an embedding matrix with those groups, and the repel kernel
indexes the table itself.

Gradient routing is part of each kernel's contract: distillation
teachers, alignment embeddings, and attraction prototypes are constants
(detached inside the kernel), so gradients only ever reach the intended
side no matter what the caller watched, the table's matrix included.

Each kernel computes its value in numpy and records one taped op (the
prototype terms two: ``sq_dists``, then their reduction). A hand-written
backward repeats, step for step, the arithmetic of the chain of small ops
it replaces, so every gradient is bitwise that chain's.
"""
from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from . import diffcore as dc
from .diffcore import ShapeError, Tensor, as_tensor

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
    """The global prototype table: one (C, q) matrix whose row k is the
    prototype of class ``labels[k]``, labels ascending.

    The matrix is a constant (the federation case) or a Tensor a test may
    watch, so the alignment and repel kernels can be differentiated
    against the prototypes.
    """

    def __init__(self, labels: Sequence[int], matrix) -> None:
        self.labels = [int(c) for c in labels]
        self.matrix = as_tensor(matrix)
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

    def rows(self, classes: Sequence[int]) -> Tensor:
        """The listed classes' prototypes, one row each, as one ``take_rows``."""
        return dc.take_rows(self.matrix, [self._row[c] for c in classes])


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the labels under row softmax."""
    logits = as_tensor(logits)
    if logits.ndim != 2 or logits.shape[0] < 1:
        raise ShapeError(f"logits must be a nonempty (n, C) matrix, got {logits.shape}")
    n = logits.shape[0]
    ls = dc._log_softmax(logits.data - logits.data.max(axis=1, keepdims=True))
    idx = dc._as_index(labels, n, logits.shape[1], "labels")
    rows = np.arange(n)
    p = np.exp(ls)

    def bwd(g):
        gx = np.zeros(ls.shape)
        np.add.at(gx, (rows, idx), -(g / n))
        return (dc._log_softmax_grad(gx, p),)

    # np.add.reduce(...) / n is np.mean without its Python wrapper
    return dc._op(np.add.reduce(-ls[rows, idx]) / n, "cross_entropy", (logits,), bwd)


def distill_loss(teacher_logits: Tensor, student_logits: Tensor, temperature: float) -> Tensor:
    """Temperature-softened KL divergence from teacher to student,
    averaged over the batch and rescaled by temperature squared.

    The teacher side is detached: gradients flow through the student
    logits only.
    """
    teacher = as_tensor(teacher_logits).data
    student_logits = as_tensor(student_logits)
    if teacher.shape != student_logits.shape:
        raise ShapeError(f"teacher {teacher.shape} and student {student_logits.shape} differ")
    if student_logits.ndim != 2 or student_logits.shape[0] < 1:
        raise ShapeError("logits must be a nonempty (n, C) matrix")
    z = dc._temp_scaled(teacher, temperature)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    log_q = dc._log_softmax(dc._temp_scaled(student_logits.data, temperature))
    q = np.exp(log_q)
    c = temperature * temperature / student_logits.shape[0]

    def bwd(g):
        return (dc._log_softmax_grad(-((g * c) * p), q) / temperature,)

    kl_sum = np.sum(p * (dc._log_softmax(z) - log_q))
    return dc._op(kl_sum * c, "distill_loss", (student_logits,), bwd)


class ClassGroups:
    """One batch's labels against the global table: the batch classes that
    have a prototype (ascending), the constant (n, len(classes)) weights that
    turn per-row values into class means (row i holds 1 / (rows labelled
    ``classes[k]``) in column k when it carries that label, zeros elsewhere)
    and those classes' prototype rows.

    The prototype kernels take a whole embedding matrix with its groups, so
    grouping a batch splits nothing, and one grouping serves the teacher's
    and the student's embeddings of the same rows.
    """

    def __init__(self, labels, protos: GlobalPrototypes) -> None:
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ShapeError(f"labels must be a vector, got {self.labels.shape}")
        self.classes = [int(c) for c in np.unique(self.labels) if protos.has(c)]
        onehot = self.labels[:, None] == np.asarray(self.classes, dtype=np.int64)[None, :]
        self.weights = onehot / onehot.sum(axis=0)
        self.rows = protos.rows(self.classes)

    def _check(self, embeddings) -> Tensor:
        emb = as_tensor(embeddings)
        if emb.ndim != 2 or emb.shape[0] != len(self.labels):
            raise ShapeError(f"need {len(self.labels)} embedding rows, got {emb.shape}")
        if emb.shape[1] != self.rows.shape[1]:
            raise ShapeError(
                f"embeddings are {emb.shape[1]}-wide, prototypes are {self.rows.shape[1]}-wide"
            )
        return emb


def _weighted_total(dists: Tensor, weights: np.ndarray, name: str) -> Tensor:
    """sum(dists * weights) for a constant weight matrix, as one op."""
    return dc._op(np.sum(dists.data * weights), name, (dists,), lambda g: (g * weights,))


def _class_mean_distances(
    embeddings: Tensor, groups: ClassGroups, caller: str, grad_to_embeddings: bool
) -> Optional[Tensor]:
    """Squared distances of the embeddings to the prototypes of
    ``groups.classes``, the batch classes that have one.

    With ``groups.weights``, ``sum(dists * weights)`` adds up each such
    class's mean squared distance to its own prototype; rows of other
    classes weigh nothing. Gradients reach the embeddings or the prototypes,
    never both. Returns None, with a ``PrototypeCoverageWarning``, when no
    batch class has a prototype.
    """
    emb, rows = groups._check(embeddings), groups.rows
    if not groups.classes:
        warnings.warn(
            f"{caller}: no batch class has a global prototype; returning 0",
            PrototypeCoverageWarning,
            stacklevel=3,
        )
        return None
    if grad_to_embeddings:
        rows = dc.detach(rows)
    else:
        emb = dc.detach(emb)
    return dc.sq_dists(emb, rows)


def align_loss(embeddings: Tensor, groups: ClassGroups) -> Tensor:
    """How far the received prototypes drifted from remembered embeddings.

    Per class: squared distance (mean over dimensions) between each
    remembered embedding and the class prototype, averaged over the
    class; classes are then averaged uniformly. Embeddings are detached;
    gradients reach only the prototype side.
    """
    dists = _class_mean_distances(embeddings, groups, "align_loss", False)
    if dists is None:
        return as_tensor(0.0)
    return _weighted_total(dists, groups.weights / dists.shape[1], "align_loss")


def attract_loss(embeddings: Tensor, groups: ClassGroups, scale: float) -> Tensor:
    """Pull within-class embeddings toward their global prototype.

    Sum over classes of the class-mean squared distance, scaled; the
    prototypes are detached so gradients reach only the embeddings.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    dists = _class_mean_distances(embeddings, groups, "attract_loss", True)
    if dists is None:
        return as_tensor(0.0)
    return _weighted_total(dists, groups.weights * float(scale), "attract_loss")


def repel_loss(
    embeddings: Tensor,
    protos: GlobalPrototypes,
    scale: float,
    classes: Optional[Iterable[int]] = None,
) -> Tensor:
    """Push the whole batch away from every class prototype at once.

    Log-sum-exp over classes of the negated, scaled batch-mean squared
    distance to each prototype; computed with a detached max shift so the
    exponentials never overflow. Moving embeddings away from a prototype
    lowers the loss.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    embeddings = as_tensor(embeddings)
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise ShapeError(f"embeddings must be a nonempty matrix, got {embeddings.shape}")
    if embeddings.shape[1] != protos.embedding_dim:
        raise ShapeError(
            f"embeddings are {embeddings.shape[1]}-wide, prototypes are "
            f"{protos.embedding_dim}-wide"
        )
    wanted = protos.labels if classes is None else sorted(set(int(c) for c in classes))
    wanted = [c for c in wanted if protos.has(c)]
    if not wanted:
        warnings.warn(
            "repel_loss: no requested class has a global prototype; returning 0",
            PrototypeCoverageWarning,
            stacklevel=2,
        )
        return as_tensor(0.0)
    # Only the requested columns exist, so no excluded class is exponentiated.
    dists = dc.sq_dists(embeddings, protos.rows(wanted))
    n = dists.shape[0]
    scores = np.mean(dists.data, axis=0) * -float(scale)
    shift = float(scores.max())  # constant: gradient-neutral shift
    with np.errstate(over="ignore"):
        e = np.exp(scores - shift)
    total = np.sum(e)

    def bwd(g):
        return (np.broadcast_to((((g / total) * e) * -float(scale)) / n, dists.shape),)

    with np.errstate(divide="ignore", invalid="ignore"):
        return dc._op(np.log(total) + shift, "repel_loss", (dists,), bwd)


def attract_repel_loss(attract: Tensor, repel: Tensor, balance: float) -> Tensor:
    """Convex mix of the attract and repel terms."""
    if not 0.0 < balance <= 1.0:
        raise ValueError("balance must sit in (0, 1]")
    return dc.weighted_sum((attract, repel), (float(balance), 1.0 - float(balance)))


def fedproto_loss(embeddings: Tensor, groups: ClassGroups) -> Optional[Tensor]:
    """FedProto's regularizer: the mean squared gap, over the batch classes
    with a prototype and the dimensions, between each class's batch-mean embedding and its global
    prototype. None when no batch class has a prototype."""
    emb = groups._check(embeddings)
    if not groups.classes:
        return None
    weights = groups.weights
    gap = weights.T @ emb.data - groups.rows.data
    return dc._op(np.mean(gap * gap), "fedproto_loss", (emb,),
                  lambda g: (weights @ ((2.0 * (g / gap.size)) * gap),))


def local_loss(
    ce: Tensor,
    distill: Optional[Tensor],
    align: Optional[Tensor],
    attract_repel: Optional[Tensor],
    weights: LossWeights,
    round_idx: int,
) -> Tensor:
    """Combined per-batch training loss.

    Round 1 is plain cross entropy (returned as-is, bit for bit); later
    rounds mix all four components by the configured weights.
    """
    ce = as_tensor(ce)
    if ce.shape != ():
        raise ShapeError("ce must be a scalar loss")
    if round_idx < 1:
        raise ValueError(f"round index must be >= 1, got {round_idx}")
    if round_idx == 1:
        return ce
    parts = {"distill": distill, "align": align, "attract_repel": attract_repel}
    for name, part in parts.items():
        if part is None:
            raise ValueError(f"{name} loss is required after round 1")
    return dc.weighted_sum(
        (ce, distill, align, attract_repel),
        (weights.ce_weight, 1.0 - weights.ce_weight, weights.align_weight, weights.proto_weight),
    )
