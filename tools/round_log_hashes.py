"""Print one ``name sha1`` line per ``rounds.csv`` over a fixed list of runs.

Two checkouts that print the same lines train bit for bit alike on every run
listed, so a change meant to keep training as it is can be checked with

    python3 tools/round_log_hashes.py > after.txt   # and before.txt at the parent
    diff before.txt after.txt

The list: the four benchmark workloads (``bench/workloads.py``) at seeds 0
and 1; and the criterion-7 blob config at its 5 seeds for each of the five
methods, both mp methods with ``per_batch_protos`` off and on. BLAS runs on
one thread, since ``rounds.csv`` is byte-identical only at a fixed thread
count. The runs are written under a temporary directory, removed at the end.
"""
from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import hashlib
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from protofed.harness import ExperimentConfig, run_experiment  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

METHODS = ("fedavg", "fedprox", "fedproto", "mp-fedkd", "mp-fedkd-kmeans")
CRITERION_7 = dict(
    data_kind="blobs", classes=3, per_class=200, dim=2, spread=0.3,
    clients=4, alpha=0.3, test_fraction=0.2,
    model_kind="mlp", hidden=16, embedding_dim=8,
    rounds=10, epochs=5, batch_size=16, learning_rate=0.1,
)


def runs(tmp: Path):
    """(name, config) of every listed run, each writing under ``tmp``."""
    for name, workload in WORKLOADS.items():
        for seed in (0, 1):
            work = tmp / f"{name}-{seed}"
            work.mkdir()
            cfg = ExperimentConfig.from_ini(prepare(workload, seed, work))
            yield f"{name}/seed{seed}", cfg.override(out=str(work / "out"))
    for seed in range(5):
        for method in METHODS:
            for per_batch in (False, True) if method.startswith("mp-") else (False,):
                name = f"criterion7/{method}{'/per-batch' if per_batch else ''}/seed{seed}"
                yield name, ExperimentConfig(
                    **CRITERION_7, method=method, per_batch_protos=per_batch,
                    data_seed=100 + seed, partition_seed=200 + seed, seed=300 + seed,
                    out=str(tmp / name.replace("/", "-")),
                )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in runs(Path(tmp)):
            run_experiment(cfg)
            digest = hashlib.sha1((Path(cfg.out) / "rounds.csv").read_bytes()).hexdigest()
            print(name, digest, flush=True)


if __name__ == "__main__":
    main()
