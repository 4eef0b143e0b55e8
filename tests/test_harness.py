import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from protofed.federation import FedConfig
from protofed.harness import (
    CSV_HEADER,
    ExperimentConfig,
    build_dataset,
    compare_clusterers,
    partition_audit,
    rounds_csv,
    run_experiment,
)
from protofed.losses import LossWeights
from protofed.metrics import average_accuracy
from protofed.model import ModelSnapshot
from test_data import write_idx_pair


SMALL_INI = """
[dataset]
kind = blobs
classes = 3
per_class = 30
dim = 2
spread = 0.15
seed = 11

[partition]
clients = 3
alpha = 1000000
test_fraction = 0.2
seed = 5

[model]
kind = mlp
hidden = 8
embedding_dim = 4

[federation]
method = mp-fedkd
rounds = 2
epochs = 2
batch_size = 16
learning_rate = 0.05

[run]
seed = 7
"""


def small_cfg(tmp_path, **over):
    cfg = ExperimentConfig.from_ini_text(SMALL_INI)
    return cfg.override(out=str(tmp_path / "run"), **over)


# ------------------------------------------------------------- config


def test_ini_round_trip_and_defaults():
    cfg = ExperimentConfig.from_ini_text(SMALL_INI)
    assert cfg.per_class == 30
    assert cfg.method == "mp-fedkd"
    assert cfg.alpha == pytest.approx(1e6)
    # untouched sections keep their defaults
    assert cfg.temperature == pytest.approx(0.1)
    assert cfg.aggregation == "normalized"


def test_ini_rejects_unknown_section_and_key():
    with pytest.raises(ValueError, match="unknown config section"):
        ExperimentConfig.from_ini_text("[training]\nrounds = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        ExperimentConfig.from_ini_text("[federation]\nlr = 0.1\n")
    with pytest.raises(ValueError, match="bad value"):
        ExperimentConfig.from_ini_text("[federation]\nrounds = soon\n")
    with pytest.raises(ValueError, match="bad config syntax"):
        ExperimentConfig.from_ini_text("rounds = 3\n")


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\nseed = 3\n",  # alone: was silently ignored
        "[DEFAULT]\nseed = 3\n[dataset]\nkind = blobs\n",  # set only data_seed
        "[DEFAULT]\nhidden = 3\n[dataset]\nkind = blobs\n",  # blamed [dataset]
    ],
)
def test_ini_default_section_is_unknown(text):
    with pytest.raises(ValueError, match=r"unknown config section \[DEFAULT\]"):
        ExperimentConfig.from_ini_text(text)


def test_ini_inline_comments_and_booleans():
    cfg = ExperimentConfig.from_ini_text(
        "[federation]\nper_batch_protos = yes  # printed fidelity\nworkers = 4\n"
    )
    assert cfg.per_batch_protos is True
    assert cfg.workers == 4
    with pytest.raises(ValueError):
        ExperimentConfig.from_ini_text("[run]\ncheckpoints = maybe\n")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(data_kind="csv")
    with pytest.raises(ValueError):
        ExperimentConfig(data_kind="idx")  # missing paths
    with pytest.raises(ValueError):
        ExperimentConfig(domains=3)
    with pytest.raises(ValueError, match="hubs must be >= 1"):
        ExperimentConfig(hubs=0)
    # federation-level checks run when the config is built
    with pytest.raises(ValueError):
        ExperimentConfig(method="fedsgd").fed_config()
    for section, field in (("dataset", "data_seed"), ("partition", "partition_seed"), ("run", "seed")):
        with pytest.raises(ValueError, match=rf"^\[{section}\] seed must be >= 0"):
            ExperimentConfig(**{field: -1})


# Every float of LossWeights and FedConfig, by INI section and key. NaN
# fails every comparison, so no range check alone catches it.
TRAINING_FLOATS = [
    (section, f.name)
    for section, target in (("loss", LossWeights), ("federation", FedConfig))
    for f in dataclasses.fields(target)
    if f.type == "float"
]


@pytest.mark.parametrize("section, key", TRAINING_FLOATS)
def test_non_finite_training_float_fails_when_read(section, key):
    assert len(TRAINING_FLOATS) == 10
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}"):
            ExperimentConfig.from_ini_text(f"[{section}]\n{key} = {value}\n")


# The INI surface: (section, key) -> (field, a non-default value). Values of
# one type are distinct, so a key wired to the wrong field cannot pass.
INI_SURFACE = {
    ("dataset", "kind"): ("data_kind", "idx"),
    ("dataset", "classes"): ("classes", 5),
    ("dataset", "per_class"): ("per_class", 7),
    ("dataset", "dim"): ("dim", 3),
    ("dataset", "spread"): ("spread", 0.25),
    ("dataset", "seed"): ("data_seed", 9),
    ("dataset", "domains"): ("domains", 2),
    ("dataset", "images"): ("images", "a.idx"),
    ("dataset", "labels"): ("labels", "b.idx"),
    ("dataset", "images2"): ("images2", "c.idx"),
    ("dataset", "labels2"): ("labels2", "d.idx"),
    ("partition", "clients"): ("clients", 6),
    ("partition", "alpha"): ("alpha", 0.7),
    ("partition", "test_fraction"): ("test_fraction", 0.3),
    ("partition", "seed"): ("partition_seed", 11),
    ("model", "kind"): ("model_kind", "cnn"),
    ("model", "hidden"): ("hidden", 12),
    ("model", "embedding_dim"): ("embedding_dim", 13),
    ("loss", "ce_weight"): ("ce_weight", 0.6),
    ("loss", "align_weight"): ("align_weight", 0.5),
    ("loss", "proto_weight"): ("proto_weight", 0.2),
    ("loss", "balance"): ("balance", 0.75),
    ("loss", "scale"): ("scale", 0.35),
    ("loss", "temperature"): ("temperature", 0.45),
    ("federation", "method"): ("method", "fedprox"),
    ("federation", "rounds"): ("rounds", 14),
    ("federation", "epochs"): ("epochs", 15),
    ("federation", "batch_size"): ("batch_size", 8),
    ("federation", "learning_rate"): ("learning_rate", 0.05),
    ("federation", "fraction"): ("fraction", 0.55),
    ("federation", "clusters_per_class"): ("clusters_per_class", 4),
    ("federation", "aggregation"): ("aggregation", "literal"),
    ("federation", "prox_rho"): ("prox_rho", 0.02),
    ("federation", "fedproto_weight"): ("fedproto_weight", 0.65),
    ("federation", "workers"): ("workers", 16),
    ("federation", "per_batch_protos"): ("per_batch_protos", True),
    ("federation", "hubs"): ("hubs", 18),
    ("run", "seed"): ("seed", 19),
    ("run", "out"): ("out", "elsewhere"),
    ("run", "checkpoints"): ("checkpoints", True),
}


def test_ini_surface_is_pinned():
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert len(INI_SURFACE) == 40
    assert sorted(field for field, _ in INI_SURFACE.values()) == sorted(names)

    sections: dict[str, list[str]] = {}
    for section, key in INI_SURFACE:
        sections.setdefault(section, []).append(key)
    # idx data takes its second domain from images2/labels2 and has no blob
    # settings, so domains = 2 and the blob keys are read on their own, with
    # blob data
    alone = {("dataset", k) for k in ("domains", "classes", "per_class", "dim", "spread", "seed")}
    text = ""
    for section, keys in sections.items():
        text += f"[{section}]\n"
        text += "".join(
            f"{k} = {INI_SURFACE[section, k][1]}\n" for k in keys if (section, k) not in alone
        )
    cfg = ExperimentConfig.from_ini_text(text)
    blobs = ExperimentConfig.from_ini_text(
        "[dataset]\n" + "".join(f"{k} = {INI_SURFACE[s, k][1]}\n" for s, k in sorted(alone))
    )
    default = ExperimentConfig()
    for (section, key), (field, value) in INI_SURFACE.items():
        read = blobs if (section, key) in alone else cfg
        assert getattr(read, field) == value, (section, key)
        assert getattr(default, field) != value, (section, key)
    # the two booleans share a value above, so check they do not alias
    assert ExperimentConfig.from_ini_text("[run]\ncheckpoints = on\n").per_batch_protos is False
    assert ExperimentConfig.from_ini_text(
        "[federation]\nper_batch_protos = on\n"
    ).checkpoints is False

    # no key is accepted outside its own section
    for section in sections:
        for key in {k for _, k in INI_SURFACE} - set(sections[section]):
            with pytest.raises(ValueError, match="unknown key"):
                ExperimentConfig.from_ini_text(f"[{section}]\n{key} = 1\n")


def test_default_hand_off():
    cfg = ExperimentConfig()
    assert cfg.fed_config() == FedConfig()
    assert cfg.loss_weights() == LossWeights()
    changed = cfg.override(temperature=0.3, epochs=2)
    assert changed.fed_config().weights.temperature == 0.3
    assert changed.fed_config().epochs == 2


@pytest.mark.parametrize(
    "bad", ["[federation]\nlearning_rate = 0\n", "[loss]\ntemperature = 0\n"]
)
def test_bad_training_value_fails_when_read(tmp_path, bad):
    out = tmp_path / "run"
    text = bad + f"[run]\nout = {out}\n"
    with pytest.raises(ValueError, match="must be positive"):
        ExperimentConfig.from_ini_text(text)
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    from protofed.cli import main

    assert main(["run", "--config", str(ini)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, match",
    [
        ("[model]\nkind = mpl\n", "unknown model kind 'mpl'"),
        ("[model]\nkind = cnn\n", "kind = idx"),
        ("[dataset]\nkind = idx\nimages = a\nlabels = b\ndomains = 2\n", "images2 and labels2"),
    ],
)
def test_bad_setup_fails_when_read(tmp_path, bad, match):
    out = tmp_path / "run"
    text = bad + f"[run]\nout = {out}\n"
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_ini_text(text)
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    from protofed.cli import main

    assert main(["run", "--config", str(ini)]) == 2
    assert not out.exists()


ALL_COMMANDS = ["run", "partition-audit", "compare-clusterers"]


@pytest.mark.parametrize(
    "bad, commands",
    [
        ("[dataset]\nclasses = 1\n", ALL_COMMANDS),
        ("[partition]\nalpha = 0\n", ALL_COMMANDS),
        ("[model]\nhidden = 0\n", ["run", "compare-clusterers"]),
        ("[dataset]\nspread = nan\n", ALL_COMMANDS),
        ("[dataset]\nspread = inf\n", ALL_COMMANDS),
        ("[partition]\nalpha = inf\n", ALL_COMMANDS),
        ("[run]\nseed = -1\n", ALL_COMMANDS),
        ("[dataset]\nseed = -1\n", ALL_COMMANDS),
        ("[partition]\nseed = -1\n", ALL_COMMANDS),
        # no test rows would leave every metric NaN; the audit still shows it
        ("[partition]\ntest_fraction = 0\n", ["run", "compare-clusterers"]),
        # an idx file path with blob data was silently ignored
        ("[dataset]\nimages = missing.idx\n", ALL_COMMANDS),
        ("[dataset]\nlabels2 = also-missing.idx\n", ALL_COMMANDS),
        # and so was a blob setting with idx data
        ("[dataset]\nper_class = 30\nkind = idx\nimages = a\nlabels = b\n", ALL_COMMANDS),
        # even one stated at its default value
        ("[dataset]\nclasses = 3\nkind = idx\nimages = a\nlabels = b\n", ALL_COMMANDS),
        ("[dataset]\nseed = 0\nkind = idx\nimages = a\nlabels = b\n", ALL_COMMANDS),
    ],
)
def test_bad_data_or_model_value_writes_nothing(tmp_path, capsys, bad, commands):
    # These values are checked where the config is read or where the data,
    # the partition and the model are built; the run directory is made only
    # after all of that. The error names the key.
    out = tmp_path / "run"
    ini = tmp_path / "bad.ini"
    ini.write_text(bad)
    key = bad.split("\n")[1].split(" = ")[0]
    from protofed.cli import main

    for command in commands:
        assert main([command, "--config", str(ini), "--out", str(out)]) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag, names", [(["--seed", "-1"], "[run] seed"), (["--alpha", "inf"], "alpha")])
def test_bad_flag_writes_nothing(tmp_path, capsys, flag, names):
    # A flag overrides the config and is checked as the file's values are.
    from protofed.cli import main

    out = tmp_path / "run"
    assert main(["run", *flag, "--rounds", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert names in capsys.readouterr().err


def test_override_skips_none():
    cfg = ExperimentConfig()
    same = cfg.override(seed=None, method=None)
    assert same == cfg
    changed = cfg.override(seed=3, rounds=1)
    assert changed.seed == 3 and changed.rounds == 1


def test_two_domain_blobs():
    cfg = ExperimentConfig(domains=2, classes=3, per_class=10)
    ds = build_dataset(cfg)
    assert len(ds) == 2 * 30
    np.testing.assert_array_equal(ds.sample_domains, [0] * 30 + [1] * 30)
    assert not np.array_equal(ds.features[:30], ds.features[30:])
    assert build_dataset(cfg.override(domains=1)).sample_domains is None


# ------------------------------------------------------------ artifacts


@pytest.mark.parametrize("env, threads", [
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({}, None),
])
def test_summary_names_the_machine(tmp_path, monkeypatch, env, threads):
    # rounds.csv is byte-identical only at one BLAS thread count, so the
    # summary records the count the environment set (None: unset, the BLAS
    # default), with numpy's version and its BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    run_experiment(small_cfg(tmp_path, rounds=1))
    machine = json.loads((tmp_path / "run" / "summary.json").read_text())["machine"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert machine == {"numpy": np.__version__, "blas": blas["name"],
                       "blas_version": blas["version"], "blas_threads": threads}


def test_run_experiment_artifacts(tmp_path):
    cfg = small_cfg(tmp_path, checkpoints=True)
    summary, records = run_experiment(cfg)
    out = tmp_path / "run"

    csv_text = (out / "rounds.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + cfg.rounds
    assert csv_text == rounds_csv(records)
    assert "wall" not in csv_text

    stored = json.loads((out / "summary.json").read_text())
    accs = [float(line.split(",")[6]) for line in lines[1:]]
    # the summary's average must be recomputable from the CSV alone
    assert stored["average_accuracy"] == pytest.approx(average_accuracy(accs), abs=1e-12)
    assert stored["final_accuracy"] == accs[-1]
    assert stored["rounds"] == cfg.rounds
    assert stored["config"]["method"] == "mp-fedkd"
    assert stored["traffic"]["total_up_bytes"] > 0

    plan = json.loads((out / "partition.json").read_text())
    assert len(plan["clients"]) == 3

    blob = (out / "checkpoints" / "round_002.model").read_bytes()
    snap = ModelSnapshot.from_bytes(blob)
    assert snap.round_idx == 2
    protos = json.loads((out / "checkpoints" / "round_002.protos.json").read_text())
    assert sorted(protos) == ["0", "1", "2"]
    assert len(protos["0"]) == cfg.embedding_dim


def idx_files(directory: Path, seed: int, side: int = 4) -> tuple[str, str]:
    """A tiny idx image/label pair: 20 rows per digit in shuffled order, each
    a side x side image that lights the pixel of its digit over pixel noise."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(10, dtype=np.uint8), 20))
    images = rng.integers(0, 96, size=(labels.size, side * side), dtype=np.uint8)
    images[np.arange(labels.size), labels] = 255
    directory.mkdir(parents=True)
    paths = write_idx_pair(directory, images.reshape(-1, side, side), labels)
    return str(paths[0]), str(paths[1])


def idx_cfg(tmp_path, images: str, labels: str, **over) -> ExperimentConfig:
    """small_cfg on idx data, with the blob-only [dataset] keys at their defaults."""
    blob_defaults = {
        f.name: f.default for f in dataclasses.fields(ExperimentConfig)
        if f.name in ("classes", "per_class", "dim", "spread", "data_seed")
    }
    return small_cfg(
        tmp_path, data_kind="idx", images=images, labels=labels, **blob_defaults, **over
    )


TRAINING_PINS = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["cnn_per_batch", "linear"])
def test_mp_fedkd_backbone_run_matches_pin(tmp_path, name):
    # mp-fedkd over 3 rounds on the backbones the mlp round logs leave out:
    # the cnn on 6x6 idx digits with per-batch prototypes, and the linear
    # backbone on the small blobs. Every gradient path of the training step
    # reaches these logs, so a step that moves one bit fails here.
    if name == "linear":
        cfg = small_cfg(tmp_path, model_kind="linear", rounds=3)
    else:
        images, labels = idx_files(tmp_path / "idx", 1, side=6)
        cfg = idx_cfg(tmp_path, images, labels, model_kind="cnn", rounds=3, per_batch_protos=True)
    run_experiment(cfg)
    pinned = TRAINING_PINS / f"mp-fedkd_{name}_rounds.csv"
    assert (Path(cfg.out) / "rounds.csv").read_bytes() == pinned.read_bytes()


TWO_DOMAIN_PINS = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["blobs", "idx"])
def test_two_domain_run_matches_pins(tmp_path, name):
    # The pinned files were written before a second domain became a
    # per-sample index of one dataset: 2 rounds over 5 clients, split 3/2
    # between the domains, with blob domains = 2 or a second idx pair.
    if name == "blobs":
        cfg = small_cfg(tmp_path, domains=2, clients=5)
    else:
        (images, labels), (images2, labels2) = (
            idx_files(tmp_path / f"idx-{seed}", seed) for seed in (1, 2)
        )
        cfg = idx_cfg(tmp_path, images, labels, images2=images2, labels2=labels2, clients=5)
    summary, _ = run_experiment(cfg)
    # summary.json names the classes of the data built, not a blob default
    assert summary["config"]["classes"] == (3 if name == "blobs" else 10)
    for artifact in ("partition.json", "rounds.csv"):
        pinned = TWO_DOMAIN_PINS / f"two_domain_{name}_{artifact}"
        assert (Path(cfg.out) / artifact).read_bytes() == pinned.read_bytes(), artifact


def ini_keys(*sections: str) -> set[tuple[str, str]]:
    """The (section, key) pairs ExperimentConfig reads: all, or those of ``sections``."""
    return {
        (f.metadata["section"], f.metadata.get("key", f.name))
        for f in dataclasses.fields(ExperimentConfig)
        if not sections or f.metadata["section"] in sections
    }


def test_every_data_key_changes_the_run(tmp_path):
    # Each [dataset] and [partition] key, flipped on its own in a 2-round
    # run, changes partition.json or rounds.csv. Blob keys flip from a blob
    # base, path keys from an idx base, and kind swaps one base for the other.
    (a_img, a_lab), (b_img, b_lab), (c_img, c_lab) = (
        idx_files(tmp_path / f"idx-{seed}", seed) for seed in (1, 2, 3)
    )
    blobs = small_cfg(tmp_path, method="fedavg", epochs=1)
    idx = idx_cfg(tmp_path, a_img, a_lab, method="fedavg", epochs=1)
    two_idx = idx.override(images2=c_img, labels2=c_lab)  # the pair flips together
    flips = {
        ("dataset", "kind"): (blobs, idx),
        ("dataset", "classes"): (blobs, blobs.override(classes=4)),
        ("dataset", "per_class"): (blobs, blobs.override(per_class=24)),
        ("dataset", "dim"): (blobs, blobs.override(dim=3)),
        ("dataset", "spread"): (blobs, blobs.override(spread=0.3)),
        ("dataset", "seed"): (blobs, blobs.override(data_seed=12)),
        ("dataset", "domains"): (blobs, blobs.override(domains=2)),
        ("dataset", "images"): (idx, idx.override(images=b_img)),
        ("dataset", "labels"): (idx, idx.override(labels=b_lab)),
        ("dataset", "images2"): (idx, two_idx),
        ("dataset", "labels2"): (idx, two_idx),
        ("partition", "clients"): (blobs, blobs.override(clients=4)),
        ("partition", "alpha"): (blobs, blobs.override(alpha=0.5)),
        ("partition", "test_fraction"): (blobs, blobs.override(test_fraction=0.3)),
        ("partition", "seed"): (blobs, blobs.override(partition_seed=6)),
    }
    data_keys = ini_keys("dataset", "partition")
    assert set(flips) == data_keys and len(data_keys) == 11 + 4

    outputs = {}

    def run(cfg):
        if cfg not in outputs:
            out = tmp_path / f"run-{len(outputs)}"
            run_experiment(cfg.override(out=str(out)))
            outputs[cfg] = [(out / f).read_bytes() for f in ("partition.json", "rounds.csv")]
        return outputs[cfg]

    for key, (base, flipped) in flips.items():
        assert run(flipped) != run(base), key


def test_every_other_key_changes_the_run_or_is_named(tmp_path):
    # Each [model], [loss], [federation] and [run] key, flipped on its own in
    # a 2-round run, changes rounds.csv, unless it is named below as one that
    # must not. The base is mp-fedkd with checkpoints, except for the keys
    # only fedprox and fedproto read.
    mp = small_cfg(tmp_path, checkpoints=True)
    prox, proto = small_cfg(tmp_path, method="fedprox"), small_cfg(tmp_path, method="fedproto")
    changes = {
        ("model", "kind"): (mp, mp.override(model_kind="linear")),
        ("model", "hidden"): (mp, mp.override(hidden=6)),
        ("model", "embedding_dim"): (mp, mp.override(embedding_dim=3)),
        ("loss", "ce_weight"): (mp, mp.override(ce_weight=0.5)),
        ("loss", "proto_weight"): (mp, mp.override(proto_weight=0.5)),
        ("loss", "balance"): (mp, mp.override(balance=0.8)),
        ("loss", "scale"): (mp, mp.override(scale=1.0)),
        ("loss", "temperature"): (mp, mp.override(temperature=0.5)),
        ("federation", "method"): (mp, mp.override(method="fedavg")),
        ("federation", "rounds"): (mp, mp.override(rounds=3)),
        ("federation", "epochs"): (mp, mp.override(epochs=1)),
        ("federation", "batch_size"): (mp, mp.override(batch_size=8)),
        ("federation", "learning_rate"): (mp, mp.override(learning_rate=0.1)),
        ("federation", "fraction"): (mp, mp.override(fraction=0.67)),
        ("federation", "clusters_per_class"): (mp, mp.override(clusters_per_class=1)),
        ("federation", "aggregation"): (mp, mp.override(aggregation="literal")),
        ("federation", "prox_rho"): (prox, prox.override(prox_rho=0.5)),
        ("federation", "fedproto_weight"): (proto, proto.override(fedproto_weight=3.0)),
        ("federation", "per_batch_protos"): (mp, mp.override(per_batch_protos=True)),
        ("run", "seed"): (mp, mp.override(seed=8)),
    }
    # Keys that must leave rounds.csv byte-identical, and with it the
    # checkpoints where both runs write them.
    unchanged = {
        # the client thread pool: the determinism contract across workers
        ("federation", "workers"): mp.override(workers=2),
        # bookkeeping only: traffic is booked per relay hub
        ("federation", "hubs"): mp.override(hubs=3),
        # the align term is a logged diagnostic; its weight reaches no gradient
        ("loss", "align_weight"): mp.override(align_weight=2.0),
        # outputs only: whether checkpoints are written, and where the run goes
        ("run", "checkpoints"): mp.override(checkpoints=False),
        ("run", "out"): mp.override(out=str(tmp_path / "elsewhere")),
    }
    # test_every_data_key_changes_the_run accounts for [dataset] and [partition]
    assert set(changes) | set(unchanged) == ini_keys() - ini_keys("dataset", "partition")
    assert len(changes) + len(unchanged) == 25 and len(ini_keys()) == 40

    outputs = {}

    def run(cfg):
        if cfg not in outputs:
            out = tmp_path / f"run-{len(outputs)}"
            run_experiment(cfg.override(out=str(out)))
            models = sorted((out / "checkpoints").glob("*.model"))
            outputs[cfg] = (out / "rounds.csv").read_bytes(), [m.read_bytes() for m in models]
        return outputs[cfg]

    for key, (base, flipped) in changes.items():
        assert run(flipped)[0] != run(base)[0], key
    log, models = run(mp)
    assert len(models) == 2  # one checkpoint per round
    for key, flipped in unchanged.items():
        assert run(flipped) == (log, models if flipped.checkpoints else []), key


TRAFFIC_GOLDEN = Path(__file__).parent / "data" / "traffic_golden.json"
TRAFFIC_METHODS = ("mp-fedkd", "mp-fedkd-kmeans", "fedavg", "fedprox", "fedproto")


def traffic_runs(tmp_path):
    """Run the traffic grid: 5 methods x fraction 1.0, 0.67 x hubs 1, 2, 3
    on 3-round, 5-client blobs with checkpoints. Maps "method fraction=f
    hubs=h" to (the summary.json traffic block, the run directory)."""
    base = small_cfg(tmp_path, clients=5, alpha=0.5, rounds=3, epochs=1, checkpoints=True)
    runs = {}
    for method in TRAFFIC_METHODS:
        for fraction in (1.0, 0.67):
            for hubs in (1, 2, 3):
                key = f"{method} fraction={fraction} hubs={hubs}"
                out = tmp_path / key.replace(" ", "_")
                run_experiment(base.override(method=method, fraction=fraction, hubs=hubs, out=str(out)))
                runs[key] = (json.loads((out / "summary.json").read_text())["traffic"], out)
    return runs


def test_traffic_matches_golden_and_hubs_only_keep_books(tmp_path):
    # The golden file holds the traffic blocks the per-hub tally wrote
    # before traffic moved into the round record.
    runs = traffic_runs(tmp_path)
    assert {key: traffic for key, (traffic, _) in runs.items()} == json.loads(
        TRAFFIC_GOLDEN.read_text()
    )
    # hubs only sorts the bytes into books: the training is the same
    def outputs(out):
        files = [out / "rounds.csv", *sorted((out / "checkpoints").iterdir())]
        return [(f.name, f.read_bytes()) for f in files]

    for method in TRAFFIC_METHODS:
        for fraction in (1.0, 0.67):
            first = outputs(runs[f"{method} fraction={fraction} hubs=1"][1])
            assert len(first) == 1 + 2 * 3
            for hubs in (2, 3):
                assert outputs(runs[f"{method} fraction={fraction} hubs={hubs}"][1]) == first


def test_rounds_csv_is_reproducible(tmp_path):
    cfg_a = small_cfg(tmp_path / "a")
    cfg_b = small_cfg(tmp_path / "b")
    run_experiment(cfg_a.override(out=str(tmp_path / "a")))
    run_experiment(cfg_b.override(out=str(tmp_path / "b")))
    assert (tmp_path / "a" / "rounds.csv").read_bytes() == (
        tmp_path / "b" / "rounds.csv"
    ).read_bytes()


def test_per_batch_protos_changes_round_log(tmp_path):
    logs = []
    for flag in (False, True):
        run_experiment(small_cfg(tmp_path / str(flag), per_batch_protos=flag))
        logs.append((tmp_path / str(flag) / "run" / "rounds.csv").read_text().splitlines())
    # round 1 trains on cross entropy alone; the prototypes steer round 2
    assert logs[0][:2] == logs[1][:2]
    assert logs[0][2] != logs[1][2]


def test_compare_clusterers_outputs(tmp_path):
    cfg = small_cfg(tmp_path, rounds=1)
    result = compare_clusterers(cfg.override(out=str(tmp_path / "cmp")))
    text = (tmp_path / "cmp" / "clusterer_compare.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "round,acc_mp_fedkd,acc_mp_fedkd_kmeans"
    assert len(lines) == 2
    assert (tmp_path / "cmp" / "mp-fedkd" / "rounds.csv").exists()
    assert (tmp_path / "cmp" / "mp-fedkd-kmeans" / "rounds.csv").exists()
    assert 0.0 <= result["mp-fedkd"] <= 1.0


def test_partition_audit_outputs(tmp_path):
    cfg = small_cfg(tmp_path).override(out=str(tmp_path / "audit"), alpha=0.3, clients=4)
    result = partition_audit(cfg)
    text = (tmp_path / "audit" / "partition_audit.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "client,train,test,class_0,class_1,class_2"
    assert len(lines) == 5
    total_train = sum(int(line.split(",")[1]) for line in lines[1:])
    total_test = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total_train + total_test == 90
    assert 0.0 < result["max_class_share"] <= 1.0
    assert (tmp_path / "audit" / "partition.json").exists()


# ------------------------------------------------------------------ cli


def test_cli_run_and_exit_codes(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(SMALL_INI)
    from protofed.cli import main

    out = tmp_path / "cli-run"
    assert main(["run", "--config", str(ini), "--rounds", "1", "--out", str(out)]) == 0
    assert (out / "rounds.csv").exists()

    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[federation]\nmethod = gossip\n")
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_partition_audit(tmp_path, capsys):
    from protofed.cli import main

    code = main(
        ["partition-audit", "--clients", "4", "--alpha", "0.5", "--out", str(tmp_path / "pa")]
    )
    assert code == 0
    assert "max class share" in capsys.readouterr().out
    # a split with no test rows cannot be trained on, but it can be audited
    ini = tmp_path / "no-test.ini"
    ini.write_text("[partition]\ntest_fraction = 0\n")
    out = tmp_path / "no-test"
    assert main(["partition-audit", "--config", str(ini), "--out", str(out)]) == 0
    lines = (out / "partition_audit.csv").read_text().strip().split("\n")[1:]
    assert sum(int(line.split(",")[2]) for line in lines) == 0


def test_cli_entry_point_subprocess(tmp_path):
    # the installed console script must behave like main()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "protofed.cli",
            "run",
            "--rounds",
            "1",
            "--clients",
            "2",
            "--out",
            str(tmp_path / "sp"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "final acc" in proc.stdout
