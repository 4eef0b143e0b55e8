"""Loss kernels for prototype-guided federated training.

Four ingredients combine into the per-batch training loss: plain cross
entropy, a self-distillation term against the client's own previous
model, an alignment term that measures how far the received global
prototypes sit from remembered embeddings, and an attract/repel term
that pulls current embeddings toward their class prototype while pushing
the batch away from every prototype at once.

Gradient routing is part of each kernel's contract: distillation
teachers, alignment embeddings, and attraction prototypes are constants
(detached inside the kernel), so gradients only ever reach the intended
side no matter what the caller watched.

Each kernel computes its value in numpy and records one taped op (the
prototype terms two: ``sq_dists``, then their reduction). A hand-written
backward repeats, step for step, the arithmetic of the chain of small ops
it replaces, so every gradient is bitwise that chain's.
"""
from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

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
    "local_loss",
]


class PrototypeCoverageWarning(UserWarning):
    """No class in the batch had a matching global prototype."""


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


ProtoVector = Union[Tensor, np.ndarray]


class GlobalPrototypes:
    """Per-class prototype vectors of one embedding width.

    Values may be plain arrays (the federation case) or live tensors
    (so the alignment kernel can be differentiated against them).
    """

    def __init__(self, embedding_dim: int):
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        self.embedding_dim = embedding_dim
        self._table: dict[int, ProtoVector] = {}

    def set(self, label: int, vector: ProtoVector) -> None:
        if tuple(vector.shape) != (self.embedding_dim,):
            raise ShapeError(
                f"prototype for class {label} has shape {tuple(vector.shape)}, "
                f"expected ({self.embedding_dim},)"
            )
        self._table[int(label)] = vector

    def get(self, label: int) -> Optional[ProtoVector]:
        return self._table.get(int(label))

    def has(self, label: int) -> bool:
        return int(label) in self._table

    def classes(self) -> list[int]:
        return sorted(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def copy(self) -> "GlobalPrototypes":
        fresh = GlobalPrototypes(self.embedding_dim)
        fresh._table = dict(self._table)
        return fresh

    def as_arrays(self) -> dict[int, np.ndarray]:
        return {
            c: (v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64))
            for c, v in self._table.items()
        }


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the labels under row softmax."""
    logits = as_tensor(logits)
    if logits.ndim != 2 or logits.shape[0] < 1:
        raise ShapeError(f"logits must be a nonempty (n, C) matrix, got {logits.shape}")
    n = logits.shape[0]
    ls = dc._log_softmax(dc._temp_scaled(logits.data, 1.0))
    idx = dc._as_index(labels, n, logits.shape[1], "labels")
    rows = np.arange(n)
    p = np.exp(ls)

    def bwd(g):
        gx = np.zeros(ls.shape)
        np.add.at(gx, (rows, idx), -(g / n))
        return (dc._log_softmax_grad(gx, p, 1.0),)

    return dc._op(np.mean(-ls[rows, idx]), "cross_entropy", (logits,), bwd)


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
        return (dc._log_softmax_grad(-((g * c) * p), q, temperature),)

    kl_sum = np.sum(p * (dc._log_softmax(z) - log_q))
    return dc._op(kl_sum * c, "distill_loss", (student_logits,), bwd)


class ClassGroups(Mapping[int, Tensor]):
    """One batch's embeddings grouped by label, without splitting them.

    Reads as ``{label: rows with that label}``. The prototype kernels take
    the whole matrix and the label vector instead, so grouping a batch
    costs no tape ops.
    """

    def __init__(self, embeddings: Tensor, labels) -> None:
        self.embeddings = as_tensor(embeddings)
        if self.embeddings.ndim != 2:
            raise ShapeError(f"embeddings must be a matrix, got {self.embeddings.shape}")
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (self.embeddings.shape[0],):
            raise ShapeError(f"need one label per embedding row, got {self.labels.shape}")
        self._classes = [int(c) for c in np.unique(self.labels)]
        self._covered: list = []  # the prototypes covered() saw, then its result

    def with_embeddings(self, embeddings) -> "ClassGroups":
        """The same grouping of other embeddings of these rows, sharing ``covered``."""
        twin = ClassGroups.__new__(ClassGroups)
        twin.__dict__.update(vars(self), embeddings=as_tensor(embeddings))
        if twin.embeddings.ndim != 2 or twin.embeddings.shape[0] != len(self.labels):
            raise ShapeError(f"need {len(self.labels)} embedding rows, got {twin.embeddings.shape}")
        return twin

    def __getitem__(self, label: int) -> Tensor:
        rows = np.flatnonzero(self.labels == int(label))
        if rows.size == 0:
            raise KeyError(label)
        return dc.take_rows(self.embeddings, rows)

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def mean_weights(self, classes: Sequence[int]) -> np.ndarray:
        """Constant (n, len(classes)) matrix for class means: row i holds
        1 / (rows labelled ``classes[k]``) in column k when row i carries that
        label, zeros elsewhere. Every listed class must be present."""
        onehot = self.labels[:, None] == np.asarray(classes)[None, :]
        return onehot / onehot.sum(axis=0)

    def covered(self, protos: GlobalPrototypes) -> tuple[list[int], np.ndarray, Tensor]:
        """The classes here with a prototype, their ``mean_weights`` and their
        prototypes as constant rows; recomputed only when those prototypes change."""
        vectors = [protos.get(c) for c in self._classes]
        if not self._covered or any(a is not b for a, b in zip(vectors, self._covered[0])):
            classes = [c for c, v in zip(self._classes, vectors) if v is not None]
            rows = _proto_matrix(protos, classes, live=False)
            self._covered[:] = [vectors, classes, self.mean_weights(classes), rows]
        return tuple(self._covered[1:])


def _join_blocks(embeddings_by_class: Mapping[int, Tensor], width: int) -> ClassGroups:
    """Nonempty per-class blocks of a plain mapping as one ClassGroups."""
    blocks, labels = [], []
    for label in sorted(embeddings_by_class):
        block = as_tensor(embeddings_by_class[label])
        if block.ndim == 2 and block.shape[0] > 0:
            blocks.append(block)
            labels += [int(label)] * block.shape[0]
    if not blocks:
        return ClassGroups(np.zeros((0, width)), labels)
    return ClassGroups(blocks[0] if len(blocks) == 1 else dc.concat_rows(blocks), labels)


def _weighted_total(dists: Tensor, weights: np.ndarray, name: str) -> Tensor:
    """sum(dists * weights) for a constant weight matrix, as one op."""
    return dc._op(np.sum(dists.data * weights), name, (dists,), lambda g: (g * weights,))


def _proto_matrix(protos: GlobalPrototypes, classes: list[int], live: bool) -> Tensor:
    """The listed classes' prototypes as rows. With ``live``, prototypes held
    as tensors keep their gradient; otherwise the matrix is a constant."""
    vectors = [protos.get(c) for c in classes]
    if live and any(isinstance(v, Tensor) for v in vectors):
        return dc.concat_rows(vectors)
    return Tensor([v.data if isinstance(v, Tensor) else v for v in vectors])


def _class_mean_distances(
    embeddings_by_class: Mapping[int, Tensor],
    protos: GlobalPrototypes,
    caller: str,
    grad_to_embeddings: bool,
) -> Optional[tuple[Tensor, np.ndarray]]:
    """Squared distances of the embeddings to the covered classes' prototypes,
    and the constant weights that turn them into per-class means.

    A class is covered when it has embeddings and a prototype. With
    ``ClassGroups.mean_weights`` as weights, ``sum(dists * weights)`` adds up
    each covered class's mean squared distance to its own prototype; rows of
    uncovered classes weigh nothing. Gradients reach the embeddings or the
    prototypes, never both. Returns None, with a
    ``PrototypeCoverageWarning``, when no class is covered.
    """
    groups = embeddings_by_class
    if not isinstance(groups, ClassGroups):
        groups = _join_blocks(groups, protos.embedding_dim)
    emb = groups.embeddings
    if emb.shape[1] != protos.embedding_dim:
        raise ShapeError(
            f"embeddings are {emb.shape[1]}-wide, prototypes are {protos.embedding_dim}-wide"
        )
    classes, weights, rows = groups.covered(protos)
    if not classes:
        warnings.warn(
            f"{caller}: no batch class has a global prototype; returning 0",
            PrototypeCoverageWarning,
            stacklevel=3,
        )
        return None
    if not grad_to_embeddings:
        emb = dc.detach(emb)
        if any(isinstance(protos.get(c), Tensor) for c in classes):
            rows = _proto_matrix(protos, classes, live=True)
    return dc.sq_dists(emb, rows), weights


def align_loss(embeddings_by_class: Mapping[int, Tensor], protos: GlobalPrototypes) -> Tensor:
    """How far the received prototypes drifted from remembered embeddings.

    Per class: squared distance (mean over dimensions) between each
    remembered embedding and the class prototype, averaged over the
    class; classes are then averaged uniformly. Embeddings are detached;
    gradients reach only the prototype side.
    """
    found = _class_mean_distances(embeddings_by_class, protos, "align_loss", False)
    if found is None:
        return as_tensor(0.0)
    dists, weights = found
    return _weighted_total(dists, weights / dists.shape[1], "align_loss")


def attract_loss(
    embeddings_by_class: Mapping[int, Tensor], protos: GlobalPrototypes, scale: float
) -> Tensor:
    """Pull within-class embeddings toward their global prototype.

    Sum over classes of the class-mean squared distance, scaled; the
    prototypes are detached so gradients reach only the embeddings.
    """
    if not scale > 0:
        raise ValueError("scale must be positive")
    found = _class_mean_distances(embeddings_by_class, protos, "attract_loss", True)
    if found is None:
        return as_tensor(0.0)
    dists, weights = found
    return _weighted_total(dists, weights * float(scale), "attract_loss")


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
    wanted = protos.classes() if classes is None else sorted(set(int(c) for c in classes))
    wanted = [c for c in wanted if protos.has(c)]
    if not wanted:
        warnings.warn(
            "repel_loss: no requested class has a global prototype; returning 0",
            PrototypeCoverageWarning,
            stacklevel=2,
        )
        return as_tensor(0.0)
    # Only the requested columns exist, so no excluded class is exponentiated.
    dists = dc.sq_dists(embeddings, _proto_matrix(protos, wanted, live=True))
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
