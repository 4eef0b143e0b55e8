"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7  # not the default seed, so no stored reference applies


def tiny(name: str):
    """The named workload shrunk to a couple of seconds, same code paths."""
    w = WORKLOADS[name]
    sections = {k: dict(v) for k, v in w.sections.items()}
    sections["federation"].update(rounds=2, epochs=1)
    if sections["dataset"]["kind"] == "blobs":
        sections["dataset"]["per_class"] = 40
        sections["partition"]["clients"] = 4
    return dataclasses.replace(w, sections=sections, acc_floor=0.0,
                               digits_per_class=min(w.digits_per_class, 20))


def traced_set(name, workdir, reference=None):
    workdir.mkdir(parents=True, exist_ok=True)
    mods = run.import_program()
    return run.run_set(mods, tiny(name), SEED, 0.0, True, workdir, reference)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_unit(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setitem(run.WORKLOADS, "blobs-mp", tiny("blobs-mp"))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "blobs-mp", "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert f"{m['name']} = {got['value']!r} {m['unit']}" in lines


def test_spec_lists_the_workloads():
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_counts_repeat_across_traced_runs(tmp_path):
    counted = [k for k in (m["name"] for m in SPEC["per_layer"])
               if k.startswith("diffcore.op.") and k.endswith(".calls")]
    counted += ["chac.chac.calls", "diffcore.records_per_batch"]
    first = traced_set("blobs-mp", tmp_path / "a")["runs"][True]
    second = traced_set("blobs-mp", tmp_path / "b")["runs"][True]
    runs = first + second
    assert len(runs) >= 4
    assert runs[0]["layers"]["chac.chac.calls"] > 0
    for key in counted:
        assert len({r["layers"][key] for r in runs}) == 1, key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_add_up_to_run_s(tmp_path, name):
    res = traced_set(name, tmp_path)
    traced, untraced = res["runs"][True], res["runs"][False]
    for r in traced:
        total = sum(r["layers"][f"{m}.self_s"] for m in run.MODULES)
        assert total == pytest.approx(r["run_s"], rel=1e-9)
    layers = run.per_layer(traced, untraced, res["peak_alloc"])
    traced_s = sum(layers[f"{m}.self_s"]["value"] for m in run.MODULES)
    untraced_s = statistics.median(r["run_s"] for r in untraced)
    assert traced_s / untraced_s == pytest.approx(layers["trace.overhead"]["value"], rel=1e-9)


def test_bypassed_layers_stay_at_zero(tmp_path):
    layers = traced_set("blobs-wide-avg", tmp_path)["runs"][True][0]["layers"]
    assert layers["chac.chac.calls"] == 0
    for stem in ("distill", "align", "attract", "repel"):
        assert layers[f"losses.{stem}.calls"] == 0
    assert layers["losses.cross_entropy.calls"] > 0


def test_failed_check_counts_and_drops_the_run(tmp_path):
    res = traced_set("blobs-mp", tmp_path, reference="round,selected\n")
    assert res["failed"] == res["attempted"] >= 4
    assert res["runs"] == {False: [], True: []}
    assert all("differs" in p for p in res["problems"])


def test_check_csv_tolerances():
    ref = "round,selected,ce,distill,align,proto,acc\n1,0 1,0.5,0.0,0.0,0.0,0.75\n"
    assert run.check_csv(ref, ref) == []
    near = ref.replace("0.5,", repr(0.5 * (1 + 1e-12)) + ",", 1)
    assert run.check_csv(near, ref) == []
    far = ref.replace("0.5,", repr(0.5 * (1 + 1e-6)) + ",", 1)
    assert run.check_csv(far, ref)
    assert run.check_csv(ref.replace("0.75", "0.7500000000000001"), ref)
    assert run.check_csv(ref.replace("0 1", "0 2"), ref)


def test_seed_decides_generated_inputs(tmp_path):
    w = tiny("digits-mp")
    files = []
    for sub, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / sub).mkdir()
        prepare(w, seed, tmp_path / sub)
        files.append((tmp_path / sub / "images-idx3-ubyte").read_bytes())
    assert files[0] == files[1] != files[2]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "blobs-mp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
