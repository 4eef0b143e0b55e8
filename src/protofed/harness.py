"""Experiment orchestration: config files, output artifacts, audits.

An experiment is described by an INI file with six sections (dataset,
partition, model, loss, federation, run), every key optional. Outputs land
in the run directory: partition.json, rounds.csv, summary.json and, on
request, per-round model checkpoints. rounds.csv is byte-reproducible for
a fixed config, so runs can be diffed directly.
"""
from __future__ import annotations

import configparser
import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .data import Dataset, load_idx, partition_dirichlet, synth_blobs
from .federation import FedConfig, init_federation, run_round
from .losses import LossWeights
from .metrics import RoundRecord, average_accuracy
from .model import _KINDS, Arch, snapshot

__all__ = [
    "ExperimentConfig",
    "build_dataset",
    "run_experiment",
    "compare_clusterers",
    "partition_audit",
    "rounds_csv",
]

CSV_HEADER = "round,selected,ce,distill,align,proto,acc,rmse,mae,macro_f1"


def _bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _ini(section: str, default, key: Optional[str] = None):
    """A field read from ``[section] key``; the key defaults to the field name."""
    meta = {"section": section} if key is None else {"section": section, "key": key}
    return dataclasses.field(default=default, metadata=meta)


_BLOB_KEYS = ("classes", "per_class", "dim", "spread", "data_seed")  # fields idx data ignores
# Keyed by annotation text: with postponed annotations, Field.type is a string.
_CASTERS = {"int": int, "float": float, "str": str, "bool": _bool}


def _refuse_blob_keys(names) -> None:
    """idx data takes no blob setting: refuse the first one in ``names``."""
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in _BLOB_KEYS and f.name in names:
            key = f.metadata.get("key", f.name)
            raise ValueError(f"[dataset] {key} is a blob setting; idx data takes none")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat view of one experiment. Each field names its INI section (and
    its key, where that differs from the field name); the loss and
    federation defaults are those of LossWeights and FedConfig."""

    data_kind: str = _ini("dataset", "blobs", key="kind")  # "blobs" | "idx"
    classes: int = _ini("dataset", 3)
    per_class: int = _ini("dataset", 100)
    dim: int = _ini("dataset", 2)
    spread: float = _ini("dataset", 0.15)
    data_seed: int = _ini("dataset", 0, key="seed")
    domains: int = _ini("dataset", 1)
    images: str = _ini("dataset", "")
    labels: str = _ini("dataset", "")
    images2: str = _ini("dataset", "")
    labels2: str = _ini("dataset", "")
    clients: int = _ini("partition", 10)
    alpha: float = _ini("partition", 0.3)
    test_fraction: float = _ini("partition", 0.2)
    partition_seed: int = _ini("partition", 0, key="seed")
    model_kind: str = _ini("model", "mlp", key="kind")
    hidden: int = _ini("model", 64)
    embedding_dim: int = _ini("model", 32)
    ce_weight: float = _ini("loss", LossWeights.ce_weight)
    align_weight: float = _ini("loss", LossWeights.align_weight)
    proto_weight: float = _ini("loss", LossWeights.proto_weight)
    balance: float = _ini("loss", LossWeights.balance)
    scale: float = _ini("loss", LossWeights.scale)
    temperature: float = _ini("loss", LossWeights.temperature)
    method: str = _ini("federation", FedConfig.method)
    rounds: int = _ini("federation", FedConfig.rounds)
    epochs: int = _ini("federation", FedConfig.epochs)
    batch_size: int = _ini("federation", FedConfig.batch_size)
    learning_rate: float = _ini("federation", FedConfig.learning_rate)
    fraction: float = _ini("federation", FedConfig.fraction)
    clusters_per_class: int = _ini("federation", FedConfig.clusters_per_class)
    aggregation: str = _ini("federation", FedConfig.aggregation)
    prox_rho: float = _ini("federation", FedConfig.prox_rho)
    fedproto_weight: float = _ini("federation", FedConfig.fedproto_weight)
    workers: int = _ini("federation", FedConfig.workers)
    per_batch_protos: bool = _ini("federation", FedConfig.per_batch_protos)
    hubs: int = _ini("federation", 1)  # bookkeeping only: books traffic per relay hub
    seed: int = _ini("run", 0)
    out: str = _ini("run", "runs/exp")
    checkpoints: bool = _ini("run", False)

    def __post_init__(self):
        if self.data_kind not in ("blobs", "idx"):
            raise ValueError(f"unknown dataset kind {self.data_kind!r}")
        if self.domains not in (1, 2):
            raise ValueError("domains must be 1 or 2")
        for key in ("images", "labels", "images2", "labels2"):
            if self.data_kind == "blobs" and getattr(self, key):
                raise ValueError(f"[dataset] {key} is an idx file path; it needs kind = idx")
        if self.data_kind == "idx":
            _refuse_blob_keys([f.name for f in dataclasses.fields(self)
                               if getattr(self, f.name) != f.default])
        if self.data_kind == "idx" and (not self.images or not self.labels):
            raise ValueError("idx datasets need images and labels paths")
        if self.data_kind == "idx" and bool(self.images2) != bool(self.labels2):
            raise ValueError("a second domain needs both images2 and labels2")
        if self.data_kind == "idx" and self.domains == 2:
            raise ValueError("idx data takes a second domain from images2 and labels2, not domains")
        if self.model_kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}, expected {list(_KINDS)}")
        if self.model_kind == "cnn" and self.data_kind != "idx":
            raise ValueError("a cnn model needs image data: [dataset] kind = idx")
        if self.hubs < 1:
            raise ValueError("hubs must be >= 1")
        seeds = {"dataset": self.data_seed, "partition": self.partition_seed, "run": self.seed}
        for section, seed in seeds.items():
            if seed < 0:
                raise ValueError(f"[{section}] seed must be >= 0, got {seed}")
        self.fed_config()  # checks the [federation] and [loss] values

    def _values_for(self, target) -> dict:
        names = [f.name for f in dataclasses.fields(target) if f.name != "weights"]
        return {name: getattr(self, name) for name in names}

    def loss_weights(self) -> LossWeights:
        return LossWeights(**self._values_for(LossWeights))

    def fed_config(self) -> FedConfig:
        return FedConfig(**self._values_for(FedConfig), weights=self.loss_weights())

    @classmethod
    def from_ini_text(cls, text: str) -> "ExperimentConfig":
        # A section header is one line, so no file can name "\n": [DEFAULT]
        # is then an ordinary (unknown) section, not defaults for all others.
        parser = configparser.ConfigParser(
            delimiters=("=",), inline_comment_prefixes=("#", ";"), default_section="\n"
        )
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ValueError(f"bad config syntax: {exc}") from exc
        schema: dict[str, dict] = {}
        for f in dataclasses.fields(cls):
            key = f.metadata.get("key", f.name)
            schema.setdefault(f.metadata["section"], {})[key] = (f.name, _CASTERS[f.type])
        values = {}
        for section in parser.sections():
            if section not in schema:
                raise ValueError(f"unknown config section [{section}]")
            table = schema[section]
            for key, raw in parser[section].items():
                if key not in table:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
                attr, caster = table[key]
                try:
                    values[attr] = caster(raw)
                except ValueError as exc:
                    raise ValueError(f"bad value for [{section}] {key}: {exc}") from exc
        if values.get("data_kind") == "idx":  # a stated default is no less stated
            _refuse_blob_keys(values)
        return cls(**values)

    @classmethod
    def from_ini(cls, path: Union[str, Path]) -> "ExperimentConfig":
        return cls.from_ini_text(Path(path).read_text())

    def override(self, **fields) -> "ExperimentConfig":
        """Replace the given fields, dropping entries set to None."""
        actual = {k: v for k, v in fields.items() if v is not None}
        return dataclasses.replace(self, **actual) if actual else self


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """The dataset named by the config. A second domain (blob domains = 2,
    an independent draw at the next data seed, or the idx pair images2 and
    labels2) is concatenated after the first and indexed per sample."""
    if cfg.data_kind == "blobs":
        domains = [
            synth_blobs(cfg.classes, cfg.per_class, cfg.dim, cfg.spread, cfg.data_seed + d)
            for d in range(cfg.domains)
        ]
    else:
        pairs = [(cfg.images, cfg.labels), (cfg.images2, cfg.labels2)]
        domains = [load_idx(images, labels) for images, labels in pairs if images]
    return domains[0] if len(domains) == 1 else Dataset.concat(*domains)


def _build_arch(cfg: ExperimentConfig, dataset: Dataset) -> Arch:
    return Arch(
        kind=cfg.model_kind,
        input_dim=dataset.input_dim,
        embedding_dim=cfg.embedding_dim,
        num_classes=dataset.num_classes,
        hidden=cfg.hidden,
        image_shape=dataset.image_shape if cfg.model_kind == "cnn" else None,
    )


def rounds_csv(records: Sequence[RoundRecord]) -> str:
    """Deterministic CSV of the round log. Participant ids are space
    separated inside their field; floats use repr so the text round-trips
    bit for bit. Wall time is deliberately not included."""
    columns = CSV_HEADER.split(",")[2:]  # after round,selected
    lines = [CSV_HEADER]
    for r in records:
        sel = " ".join(str(c) for c in r.selected)
        values = [repr(getattr(r, name)) for name in columns]
        lines.append(",".join([str(r.round_idx), sel, *values]))
    return "\n".join(lines) + "\n"


def _write_checkpoint(out: Path, server, round_idx: int) -> None:
    ck = out / "checkpoints"
    ck.mkdir(exist_ok=True)
    blob = snapshot(server.model, round_idx).to_bytes()
    (ck / f"round_{round_idx:03d}.model").write_bytes(blob)
    table = {
        str(c): [float(v) for v in vec]
        for c, vec in zip(server.protos.labels, server.protos.matrix)
    }
    (ck / f"round_{round_idx:03d}.protos.json").write_text(
        json.dumps(table, sort_keys=True)
    )


def _partition(cfg: ExperimentConfig):
    """Build and split the dataset; returns the dataset and the plan."""
    dataset = build_dataset(cfg)
    plan = partition_dirichlet(dataset, cfg.clients, cfg.alpha, cfg.test_fraction, cfg.partition_seed)
    return dataset, plan


def _write_partition(cfg: ExperimentConfig, plan) -> Path:
    """Make the run directory and write partition.json; callers first build
    all that a bad value can fail in, so such a value leaves no output."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "partition.json").write_text(plan.to_json())
    return out


def _machine() -> dict:
    """numpy, BLAS and the BLAS thread count the environment sets (None: unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or None
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(threads) if threads and threads.strip().isdigit() else threads}


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, list[RoundRecord]]:
    """Full pipeline: data, partition, training rounds, artifacts on disk."""
    t_start = time.perf_counter()
    dataset, plan = _partition(cfg)
    if not any(s.test.size for s in plan.shards):
        raise ValueError(
            f"[partition] test_fraction = {cfg.test_fraction} leaves no test rows to score"
        )
    arch = _build_arch(cfg, dataset)
    out = _write_partition(cfg, plan)
    fedcfg = cfg.fed_config()
    server, clients = init_federation(arch, plan, cfg.seed)
    # Clients hang off relay hubs round robin; traffic is booked per hub.
    hub_of = {cid: pos % cfg.hubs for pos, cid in enumerate(sorted(clients))}
    down, up = [0] * cfg.hubs, [0] * cfg.hubs

    records: list[RoundRecord] = []
    for _ in range(fedcfg.rounds):
        server, rec = run_round(server, clients, dataset, fedcfg)
        records.append(rec)
        for cid, nbytes in zip(rec.selected, rec.bytes_up):
            down[hub_of[cid]] += rec.bytes_down
            up[hub_of[cid]] += nbytes
        if cfg.checkpoints:
            _write_checkpoint(out, server, rec.round_idx)

    (out / "rounds.csv").write_text(rounds_csv(records))

    accs = [r.acc for r in records]
    summary = {
        "dataset": dataset.name,
        "method": cfg.method,
        "clients": cfg.clients,
        "rounds": len(records),
        "average_accuracy": average_accuracy(accs),
        "final_accuracy": records[-1].acc,
        "best_accuracy": max(accs),
        "final_macro_f1": records[-1].macro_f1,
        "wall_time_seconds": time.perf_counter() - t_start,
        "round_wall_times": [r.wall_time for r in records],
        "traffic": {
            "down_bytes_per_hub": down,
            "up_bytes_per_hub": up,
            "total_down_bytes": sum(down),
            "total_up_bytes": sum(up),
        },
        "config": {**dataclasses.asdict(cfg), "classes": dataset.num_classes},
        "machine": _machine(),
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    return summary, records


def compare_clusterers(cfg: ExperimentConfig) -> dict:
    """Run the hierarchical and kmeans prototype variants side by side.

    Both runs share every seed; only the within-class clusterer differs.
    Writes clusterer_compare.csv with one accuracy series per variant. The
    first run makes ``out`` as its directory's parent, after building all
    that a bad value can fail in.
    """
    out = Path(cfg.out)
    series = {}
    summaries = {}
    for variant in ("mp-fedkd", "mp-fedkd-kmeans"):
        sub = cfg.override(method=variant, out=str(out / variant))
        summary, records = run_experiment(sub)
        series[variant] = [r.acc for r in records]
        summaries[variant] = summary
    lines = ["round,acc_mp_fedkd,acc_mp_fedkd_kmeans"]
    for i, (a, b) in enumerate(zip(series["mp-fedkd"], series["mp-fedkd-kmeans"]), start=1):
        lines.append(f"{i},{repr(a)},{repr(b)}")
    (out / "clusterer_compare.csv").write_text("\n".join(lines) + "\n")
    return {
        "mp-fedkd": summaries["mp-fedkd"]["average_accuracy"],
        "mp-fedkd-kmeans": summaries["mp-fedkd-kmeans"]["average_accuracy"],
        "out": str(out / "clusterer_compare.csv"),
    }


def partition_audit(cfg: ExperimentConfig) -> dict:
    """Materialize the partition alone and report class balance numbers."""
    dataset, plan = _partition(cfg)
    out = _write_partition(cfg, plan)
    C = dataset.num_classes
    header = "client,train,test," + ",".join(f"class_{c}" for c in range(C))
    lines = [header]
    for s in plan.shards:
        counts = ",".join(str(int(v)) for v in s.histogram)
        lines.append(f"{s.client_id},{s.train.size},{s.test.size},{counts}")
    (out / "partition_audit.csv").write_text("\n".join(lines) + "\n")

    hist = np.stack([s.histogram for s in plan.shards])  # clients x classes
    class_totals = hist.sum(axis=0)
    shares = hist / np.maximum(class_totals, 1)
    return {
        "clients": cfg.clients,
        "alpha": cfg.alpha,
        "kind": plan.kind,
        "max_class_share": float(shares.max()),
        "out": str(out / "partition_audit.csv"),
    }
