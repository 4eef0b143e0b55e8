"""Datasets and non-IID client partitioning.

Two dataset sources: the big-endian IDX image/label files used by the
classic digit corpora, and synthetic Gaussian blobs for desk-scale runs.
An idx corpus stays uint8, and ``Dataset.rows`` makes float64 inputs of
the rows a batch needs. A second source domain is concatenated after the
first into one dataset, whose ``sample_domains`` indexes each row's domain
(0 or 1). Partitioning draws per-class client proportions from a symmetric
Dirichlet and assigns samples multinomially; smaller concentration means
more skew. A two-domain dataset is split "distinct-domain": the clients
fall in two halves, and each half gets samples from only one domain.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "ClientShard",
    "PartitionPlan",
    "IdxFormatError",
    "PartitionError",
    "load_idx",
    "synth_blobs",
    "partition_dirichlet",
]

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

# Disjoint seed streams so different consumers of one run seed never collide.
_BLOB_STREAM = 101
_PARTITION_STREAM = 102


class IdxFormatError(ValueError):
    """Malformed or mismatched IDX files."""


class PartitionError(RuntimeError):
    """Partitioning could not satisfy its constraints."""


@dataclass(frozen=True)
class Dataset:
    """Read-only features, as stored, plus integer labels; ``rows`` gives
    float64 model inputs: an idx file's uint8 pixels scaled to [0, 1] per
    gather, or the float64 features, checked finite once.

    ``sample_domains`` is set only on a two-domain dataset (see ``concat``):
    one index per row, 0 for the first domain and 1 for the second.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str
    sample_domains: Optional[np.ndarray] = None
    image_shape: Optional[tuple[int, int, int]] = None

    def __post_init__(self):
        dtype = np.uint8 if np.asarray(self.features).dtype == np.uint8 else np.float64
        features = np.asarray(self.features, dtype=dtype).view()  # keeps the caller's flags
        features.setflags(write=False)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError(f"features must be (n, d), got {features.shape}")
        # A finite sum clears the array in one reduction; only the scan may raise.
        if (features.dtype == np.float64 and not np.isfinite(np.add.reduce(features, None))
                and not np.isfinite(features).all()):
            raise ValueError("features hold a non-finite value")
        if labels.shape != (self.features.shape[0],):
            raise ValueError("labels length does not match feature rows")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError(f"labels outside [0, {self.num_classes})")
        if self.sample_domains is not None:
            domains = np.asarray(self.sample_domains)
            if domains.shape != labels.shape or not ((domains == 0) | (domains == 1)).all():
                raise ValueError("sample_domains must hold a 0 or 1 for each row")
            object.__setattr__(self, "sample_domains", domains.astype(np.int64))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The float64 model inputs of the rows ``idx`` (an index array)."""
        x = self.features[idx]
        return x / 255.0 if x.dtype == np.uint8 else x

    @staticmethod
    def concat(a: "Dataset", b: "Dataset") -> "Dataset":
        """Stack two domains into one index space: a's rows (domain 0), then b's."""
        if a.input_dim != b.input_dim:
            raise ValueError("domains have different feature widths")
        if a.num_classes != b.num_classes:
            raise ValueError("domains have different label spaces")
        if a.features.dtype != b.features.dtype:
            raise ValueError(f"domains store features differently: {a.name} "
                             f"{a.features.dtype}, {b.name} {b.features.dtype}")
        return Dataset(
            features=np.vstack([a.features, b.features]),
            labels=np.concatenate([a.labels, b.labels]),
            num_classes=a.num_classes,
            name=f"{a.name}+{b.name}",
            sample_domains=np.repeat([0, 1], [len(a), len(b)]),
            image_shape=a.image_shape if a.image_shape == b.image_shape else None,
        )


def _read_idx_header(blob: bytes, path: str, expect_magic: int, ndim: int) -> tuple[int, ...]:
    if len(blob) < 4:
        raise IdxFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic = struct.unpack(">i", blob[:4])[0]
    if magic != expect_magic:
        raise IdxFormatError(f"{path}: bad magic {magic:#010x}, expected {expect_magic:#010x}")
    need = 4 * (1 + ndim)
    if len(blob) < need:
        raise IdxFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    return struct.unpack(f">{ndim}i", blob[4:need])


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair; the dataset keeps the uint8 pixels as read."""
    with open(images_path, "rb") as f:
        img_blob = f.read()
    with open(labels_path, "rb") as f:
        lab_blob = f.read()
    n, rows, cols = _read_idx_header(img_blob, str(images_path), _IDX_IMAGES_MAGIC, 3)
    (n_labels,) = _read_idx_header(lab_blob, str(labels_path), _IDX_LABELS_MAGIC, 1)
    if n != n_labels:
        raise IdxFormatError(f"count mismatch: {n} images vs {n_labels} labels")
    if len(img_blob) != 16 + n * rows * cols:
        raise IdxFormatError(f"{images_path}: payload is {len(img_blob) - 16} bytes, "
                             f"expected {n * rows * cols}")
    if len(lab_blob) != 8 + n:
        raise IdxFormatError(f"{labels_path}: payload is {len(lab_blob) - 8} bytes, expected {n}")
    pixels = np.frombuffer(img_blob, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    labels = np.frombuffer(lab_blob, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(
        features=pixels,
        labels=labels,
        num_classes=10,
        name=f"idx:{n}x{rows}x{cols}",
        image_shape=(1, rows, cols),
    )


def synth_blobs(
    classes: int,
    per_class: int,
    dim: int,
    spread: float,
    seed: int,
) -> Dataset:
    """Gaussian blobs with class centers on the unit sphere.

    Deterministic in the seed; spread 0 collapses each class onto its
    center.
    """
    if classes < 2 or per_class < 1 or dim < 1:
        raise ValueError("need classes >= 2, per_class >= 1, dim >= 1")
    if not 0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and nonnegative, got {spread!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _BLOB_STREAM]))
    centers = rng.standard_normal((classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    feats = np.empty((classes * per_class, dim))
    labels = np.empty(classes * per_class, dtype=np.int64)
    for c in range(classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = centers[c] + spread * rng.standard_normal((per_class, dim))
        labels[block] = c
    return Dataset(
        features=feats,
        labels=labels,
        num_classes=classes,
        name=f"blobs:{classes}x{per_class}d{dim}",
    )


@dataclass(frozen=True)
class ClientShard:
    """One client's slice of the pool: train/test index arrays plus the
    per-class train histogram that drives clustering and aggregation."""

    client_id: int
    train: np.ndarray
    test: np.ndarray
    histogram: np.ndarray  # length num_classes, counts over train only

    def __post_init__(self):
        object.__setattr__(self, "train", np.asarray(self.train, dtype=np.int64))
        object.__setattr__(self, "test", np.asarray(self.test, dtype=np.int64))
        object.__setattr__(self, "histogram", np.asarray(self.histogram, dtype=np.int64))
        if int(self.histogram.sum()) != self.train.size:
            raise ValueError("histogram must sum to the train size")


@dataclass(frozen=True)
class PartitionPlan:
    shards: tuple[ClientShard, ...]
    alpha: float
    kind: str  # "same-domain" | "distinct-domain"
    seed: int

    def to_json(self) -> str:
        payload = {
            "alpha": self.alpha,
            "kind": self.kind,
            "seed": self.seed,
            "clients": [
                {
                    "client": s.client_id,
                    "train": s.train.tolist(),
                    "test": s.test.tolist(),
                    "histogram": s.histogram.tolist(),
                }
                for s in self.shards
            ],
        }
        return json.dumps(payload, sort_keys=True)


_MAX_RESAMPLES = 100


def _split_group(
    labels: np.ndarray,
    pool: np.ndarray,
    client_ids: Sequence[int],
    num_classes: int,
    alpha: float,
    test_fraction: float,
    rng: np.random.Generator,
) -> list[ClientShard]:
    """Dirichlet-assign one pool of indices across one group of clients.

    Redraws the whole assignment when some client ends up with zero train
    samples; 100 failures in a row is an error.
    """
    m = len(client_ids)
    for _ in range(_MAX_RESAMPLES):
        per_client: list[list[np.ndarray]] = [[] for _ in range(m)]
        for c in range(num_classes):
            members = pool[labels[pool] == c]
            if members.size == 0:
                continue
            members = rng.permutation(members)
            props = rng.dirichlet(np.full(m, alpha))
            counts = rng.multinomial(members.size, props)
            at = 0
            for k, cnt in enumerate(counts):
                per_client[k].append(members[at : at + cnt])
                at += cnt
        shards = []
        ok = True
        for k, chunks in enumerate(per_client):
            mine = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
            test_parts, train_parts = [], []
            for c in range(num_classes):
                of_class = mine[labels[mine] == c]
                n_test = int(np.floor(test_fraction * of_class.size))
                test_parts.append(of_class[:n_test])
                train_parts.append(of_class[n_test:])
            train = np.concatenate(train_parts) if train_parts else mine
            test = np.concatenate(test_parts) if test_parts else mine[:0]
            if train.size == 0:
                ok = False
                break
            hist = np.bincount(labels[train], minlength=num_classes)
            shards.append(ClientShard(client_ids[k], np.sort(train), np.sort(test), hist))
        if ok:
            return shards
    raise PartitionError(
        f"could not give every client a nonempty train shard after {_MAX_RESAMPLES} draws"
    )


def partition_dirichlet(
    dataset: Dataset,
    clients: int,
    alpha: float,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> PartitionPlan:
    """Split a dataset into per-client shards that index its rows.

    Every sample lands in exactly one client's train or test set;
    per-client test splits are stratified by class at the given fraction.
    A two-domain dataset splits the clients into two random halves (the
    first one larger when the count is odd), each over one domain's rows.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    if not 0 <= test_fraction < 1:
        raise ValueError("test_fraction must be in [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _PARTITION_STREAM]))
    rows = np.arange(len(dataset), dtype=np.int64)
    groups, kind = [(range(clients), rows)], "same-domain"  # groups: (client ids, row pool)
    if dataset.sample_domains is not None:
        if clients < 2:
            raise ValueError("distinct-domain partitioning needs at least two clients")
        order = rng.permutation(clients)
        halves = (order[: (clients + 1) // 2], order[(clients + 1) // 2 :])
        groups = [(sorted(halves[d]), rows[dataset.sample_domains == d]) for d in (0, 1)]
        kind = "distinct-domain"
    shards: list[ClientShard] = []
    for ids, pool in groups:
        shards += _split_group(
            dataset.labels, pool, [int(i) for i in ids],
            dataset.num_classes, alpha, test_fraction, rng,
        )
    shards.sort(key=lambda s: s.client_id)
    return PartitionPlan(tuple(shards), alpha, kind, seed)
