"""Benchmark workloads and the inputs generated for them from a seed.

Each workload is an INI experiment config for ``ExperimentConfig.from_ini``.
The benchmark writes that file, and for the digit workloads a pair of idx
files, into a scratch directory; the program only ever sees those files.

What the seed varies, and what it keeps fixed:

* The partition seed is fixed per workload. Class sizes are fixed too, so
  every client holds the same number of samples of each class at every
  seed. That keeps the work per run (batches, clustered n per class) the
  same across seeds, so seeds measure the same cost.
* The run seed (weight init, batch shuffles) is the workload seed.
* The digit images are drawn from the workload seed: class templates,
  shifts, intensities and pixel noise.
* The blob data seed stays at the criterion-7 value (100). Three centres
  on the unit circle in 2-D set how separable the classes are: over eight
  fresh draws final accuracy ranged from 0.59 to 1.0, and one draw made a
  run four times slower through exact-tie scans in ``chac``. Seeds would
  then measure different workloads.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sections: dict = field(repr=False)  # INI section -> key -> value
    acc_floor: float  # final accuracy every run must reach; above chance
    digits_per_class: int = 0  # > 0: generate idx digits with this many per class


def _blobs(per_class: int, clients: int) -> dict:
    return {
        "dataset": {"kind": "blobs", "classes": 3, "per_class": per_class, "dim": 2,
                    "spread": 0.3, "seed": 100},
        "partition": {"clients": clients, "alpha": 0.3, "test_fraction": 0.2, "seed": 200},
        "model": {"kind": "mlp", "hidden": 16, "embedding_dim": 8},
    }


def _digits(alpha: float, seed: int, kind: str, hidden: int, emb: int) -> dict:
    return {
        "dataset": {"kind": "idx"},
        "partition": {"clients": 10, "alpha": alpha, "test_fraction": 0.2, "seed": seed},
        "model": {"kind": kind, "hidden": hidden, "embedding_dim": emb},
    }


def _fed(method: str, rounds: int, epochs: int, batch: int, lr: float) -> dict:
    return {"federation": {"method": method, "rounds": rounds, "epochs": epochs,
                           "batch_size": batch, "learning_rate": lr, "workers": 1}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blobs-mp",
            "criterion-7 blobs with mp-fedkd: tiny arrays, so time goes to per-op "
            "overhead in diffcore and the per-class loops in losses",
            {**_blobs(200, 4), **_fed("mp-fedkd", 12, 5, 16, 0.1)},
            acc_floor=0.45,
        ),
        Workload(
            "blobs-wide-avg",
            "same blobs, more samples over 32 clients with fedavg: the client loop and "
            "model averaging, with no clustering and no auxiliary loss terms",
            {**_blobs(2000, 32), **_fed("fedavg", 6, 5, 16, 0.1)},
            acc_floor=0.45,
        ),
        Workload(
            "digits-mp",
            "784-wide synthetic digits read from idx files, MLP 128/64 with mp-fedkd: "
            "large matmuls, and Ward clustering of hundreds of embeddings per class",
            {**_digits(0.5, 5, "mlp", 128, 64), **_fed("mp-fedkd", 3, 1, 32, 0.3)},
            acc_floor=0.5,
            digits_per_class=800,
        ),
        Workload(
            "digits-cnn-proto",
            "synthetic digits with the cnn backbone and fedproto: the only path through "
            "conv2d, the fedproto regularizer and per-client evaluation",
            {**_digits(0.9, 0, "cnn", 32, 16), **_fed("fedproto", 3, 1, 32, 0.3)},
            acc_floor=0.15,
            digits_per_class=100,
        ),
    )
}


def make_digits(seed: int, per_class: int, classes: int = 10, side: int = 28):
    """MNIST-shaped images: each class is a template of five Gaussian spots;
    a sample is its template shifted by up to two pixels, dimmed, with pixel
    noise, quantized to uint8. Labels come in class blocks of equal size."""
    rng = np.random.default_rng([seed, 1])
    yy, xx = np.mgrid[0:side, 0:side]
    temps = np.zeros((classes, side, side))
    for c in range(classes):
        for _ in range(5):
            cy, cx = rng.uniform(4, 24, 2)
            width = rng.uniform(1.0, 2.0)
            temps[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width))
        temps[c] /= temps[c].max()
    shifted = np.stack(
        [np.roll(temps, (dy, dx), axis=(1, 2)) for dy in range(-2, 3) for dx in range(-2, 3)],
        axis=1,
    )  # (classes, 25, side, side)
    labels = np.repeat(np.arange(classes, dtype=np.uint8), per_class)
    pixels = np.empty((labels.size, side, side), dtype=np.uint8)
    for at in range(0, labels.size, 1000):  # chunks keep the generator's peak memory small
        lab = labels[at : at + 1000]
        img = shifted[lab, rng.integers(0, 25, lab.size)]
        img *= rng.uniform(0.6, 1.0, (lab.size, 1, 1))
        img += rng.normal(0.0, 0.1, img.shape)
        pixels[at : at + 1000] = np.clip(np.rint(img * 255.0), 0, 255)
    return pixels, labels


def write_idx(pixels: np.ndarray, labels: np.ndarray, images: Path, label_file: Path) -> None:
    n, rows, cols = pixels.shape
    images.write_bytes(struct.pack(">iiii", _IMAGES_MAGIC, n, rows, cols) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">ii", _LABELS_MAGIC, n) + labels.tobytes())


def prepare(workload: Workload, seed: int, workdir: Path) -> Path:
    """Write the workload's inputs for this seed into workdir; return the INI path."""
    sections = {k: dict(v) for k, v in workload.sections.items()}
    if workload.digits_per_class:
        pixels, labels = make_digits(seed, workload.digits_per_class)
        images, label_file = workdir / "images-idx3-ubyte", workdir / "labels-idx1-ubyte"
        write_idx(pixels, labels, images, label_file)
        sections["dataset"].update(images=images, labels=label_file)
    sections["run"] = {"seed": seed, "out": "out"}
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    ini = workdir / "experiment.ini"
    ini.write_text("\n".join(lines) + "\n")
    return ini
