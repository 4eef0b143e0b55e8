import dataclasses
import json
import subprocess
import sys

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
    # federation-level checks run when the config is built
    with pytest.raises(ValueError):
        ExperimentConfig(method="fedsgd").fed_config()


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
    # idx data takes its second domain from images2/labels2, so domains = 2
    # is read on its own, with blob data
    alone = ("dataset", "domains")
    text = ""
    for section, keys in sections.items():
        text += f"[{section}]\n"
        text += "".join(
            f"{k} = {INI_SURFACE[section, k][1]}\n" for k in keys if (section, k) != alone
        )
    cfg = ExperimentConfig.from_ini_text(text)
    two_domain = ExperimentConfig.from_ini_text("[dataset]\ndomains = 2\n")
    default = ExperimentConfig()
    for (section, key), (field, value) in INI_SURFACE.items():
        read = two_domain if (section, key) == alone else cfg
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


@pytest.mark.parametrize(
    "bad, commands",
    [
        ("[dataset]\nclasses = 1\n", ["run", "partition-audit", "compare-clusterers"]),
        ("[partition]\nalpha = 0\n", ["run", "partition-audit", "compare-clusterers"]),
        ("[model]\nhidden = 0\n", ["run", "compare-clusterers"]),
    ],
)
def test_bad_data_or_model_value_writes_nothing(tmp_path, bad, commands):
    # These values are checked where the data, the partition and the model
    # are built; the run directory is made only after all three are.
    out = tmp_path / "run"
    ini = tmp_path / "bad.ini"
    ini.write_text(bad + f"[run]\nout = {out}\n")
    from protofed.cli import main

    for command in commands:
        assert main([command, "--config", str(ini)]) == 2
        assert not out.exists()


def test_override_skips_none():
    cfg = ExperimentConfig()
    same = cfg.override(seed=None, method=None)
    assert same == cfg
    changed = cfg.override(seed=3, rounds=1)
    assert changed.seed == 3 and changed.rounds == 1


def test_two_domain_blobs():
    cfg = ExperimentConfig(domains=2, classes=3, per_class=10)
    pair = build_dataset(cfg)
    assert isinstance(pair, tuple) and len(pair) == 2
    a, b = pair
    assert a.domain_tag == "a" and b.domain_tag == "b"
    assert not np.array_equal(a.features.data, b.features.data)


# ------------------------------------------------------------ artifacts


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
