"""protofed benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload blobs-mp --seed 0 --seconds 30 --trace 0

Runs the workload's experiment through ``harness.run_experiment`` again and
again in this one process until ``--seconds`` are spent (at least three
runs), checks every run's output, and prints the metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` times only the coarse boundaries (the experiment, its set-up
stages and each round) and reports the end-to-end metrics. ``--trace 1``
alternates such runs with traced runs, in which the public functions named
in ``_layer_targets`` are wrapped in spans too, and reports per-layer
metrics and the tracing overhead. Spans of the last traced run are written to
``.bench_out/<workload>.spans.npz``; every result, with the machine it ran
on, to ``.bench_out/<workload>-seed<seed>-trace<t>.json``.

See bench/README.md for what each metric means and which workload should
move it.
"""
from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
if __name__ == "__main__":
    # Before numpy loads: one BLAS thread keeps float results bitwise stable
    # and timings steadier on a shared machine.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Workload, prepare

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".bench_out"
MIN_RUNS = 3  # untraced runs per set; traced sets need two of each kind
LOSS_RTOL = 1e-9
LOSS_COLUMNS = ("ce", "distill", "align", "proto")

DIFFCORE_OPS = (
    "matmul", "add", "sub", "mul", "neg", "relu", "log", "exp", "square", "tsum",
    "tmean", "mean_rows", "reshape", "conv2d", "softmax_t", "log_softmax_t",
    "gather_labels", "take_rows", "detach",
)
LOSS_KERNELS = {  # public function -> metric stem
    "cross_entropy": "cross_entropy", "distill_loss": "distill", "align_loss": "align",
    "attract_loss": "attract", "repel_loss": "repel",
    "attract_repel_loss": "attract_repel", "local_loss": "local_loss",
}
MODULES = ("harness", "data", "federation", "model", "losses", "chac", "diffcore")

END_TO_END = {  # name -> unit
    "setup_s": "s", "run_s": "s", "train_samples_per_s": "1/s", "round_s.p50": "s",
    "round_s.p90": "s", "peak_rss_mb": "MB", "final_acc": "ratio", "traffic_mb": "MB",
}


def import_program():
    """Load protofed from this checkout's src/; exit if it is not there."""
    src = ROOT / "src"
    if not (src / "protofed" / "__init__.py").is_file():
        sys.exit(f"benchmark: no protofed package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import protofed.harness  # noqa: F401  (loads every protofed module)

    return sys.modules


def _coarse_targets(mods) -> list:
    """Boundaries timed in every run: the experiment, its set-up stages, rounds."""
    harness, data, federation = mods["protofed.harness"], mods["protofed.data"], mods["protofed.federation"]
    return [
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "build_dataset", "harness.build_dataset"),
        (data, "partition_dirichlet", "data.partition"),
        (federation, "init_federation", "federation.init"),
        (federation, "run_round", "federation.run_round"),
    ]


class LayerProbes:
    """Counts taken at span boundaries in a traced run."""

    def __init__(self) -> None:
        self.records = 0
        self.chac_n: list[int] = []
        self.n_max = 0
        self.requested = 0
        self.achieved = 0
        self.largest = None  # (points, requested) of the biggest clustering call

    def backward(self, args, out) -> None:
        self.records += args[0].num_records

    def chac(self, args, out) -> None:
        n = len(args[0])
        if n > self.n_max:
            self.n_max = n
            self.largest = (np.array(args[0]), out.requested)
        self.chac_n.append(n)
        self.requested += out.requested
        self.achieved += out.achieved


def _layer_targets(mods, probes: LayerProbes) -> list:
    dc, losses, model, chac = (mods[f"protofed.{m}"] for m in ("diffcore", "losses", "model", "chac"))
    federation, data = mods["protofed.federation"], mods["protofed.data"]
    targets = [(dc, op, f"diffcore.op.{op}") for op in DIFFCORE_OPS]
    targets.append((dc, "backward", "diffcore.backward", probes.backward))
    targets += [(losses, fn, f"losses.{stem}") for fn, stem in LOSS_KERNELS.items()]
    targets += [
        (chac, "chac", "chac.chac", probes.chac),
        (model.Backbone, "forward", "model.forward"),
        (model, "sgd_step", "model.sgd_step"),
        (model, "snapshot", "model.snapshot"),
        (model, "build_backbone", "model.build"),
        (federation, "client_update", "federation.client_update"),
        (federation, "aggregate_models", "federation.aggregate_models"),
        (federation, "aggregate_prototypes", "federation.aggregate_prototypes"),
        (data, "synth_blobs", "data.build"),
        (data, "load_idx", "data.load_idx"),
    ]
    return targets


def _train_samples(out: Path, records, epochs: int) -> int:
    plan = json.loads((out / "partition.json").read_text())
    sizes = {c["client"]: len(c["train"]) for c in plan["clients"]}
    return epochs * sum(sizes[cid] for r in records for cid in r.selected)


def one_run(mods, cfg, traced: bool) -> dict:
    """One experiment; timings from its spans, results from its artifacts."""
    tracer = Tracer()
    probes = LayerProbes()
    for owner, attr, name, *probe in _coarse_targets(mods) + (
        _layer_targets(mods, probes) if traced else []
    ):
        tracer.install(owner, attr, name, *probe)
    try:
        summary, records = mods["protofed.harness"].run_experiment(cfg)
    finally:
        tracer.uninstall()
    out = Path(cfg.out)
    (t0,), (t1,) = tracer.intervals("harness.run_experiment")
    starts, ends = tracer.intervals("federation.run_round")
    run = {
        "csv": (out / "rounds.csv").read_text(),
        "setup_s": starts[0] - t0,
        "run_s": t1 - t0,
        "round_s": (ends - starts).tolist(),
        "train_samples": _train_samples(out, records, cfg.epochs),
        "final_acc": summary["final_accuracy"],
        "traffic_mb": (summary["traffic"]["total_up_bytes"] + summary["traffic"]["total_down_bytes"]) / 1e6,
    }
    if traced:
        run["layers"] = _layer_metrics(tracer, probes, run, summary)
        run["tracer"] = tracer
        run["largest"] = probes.largest
    shutil.rmtree(out)
    return run


def _layer_metrics(tracer: Tracer, probes: LayerProbes, run: dict, summary: dict) -> dict:
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    m = {}
    for op in DIFFCORE_OPS:
        m[f"diffcore.op.{op}.calls"] = calls(f"diffcore.op.{op}")
        m[f"diffcore.op.{op}.self_s"] = self_s(f"diffcore.op.{op}")
    m["diffcore.backward_s"] = self_s("diffcore.backward")
    m["diffcore.records_per_batch"] = probes.records / max(calls("diffcore.backward"), 1)
    for stem in LOSS_KERNELS.values():
        m[f"losses.{stem}_s"] = self_s(f"losses.{stem}")
        m[f"losses.{stem}.calls"] = calls(f"losses.{stem}")
    m["chac.chac_s"] = self_s("chac.chac")
    m["chac.chac.calls"] = calls("chac.chac")
    m["chac.n_p50"] = float(np.median(probes.chac_n)) if probes.chac_n else 0.0
    m["chac.n_max"] = probes.n_max
    m["chac.achieved_ratio"] = probes.achieved / probes.requested if probes.requested else 0.0
    for name in ("forward", "sgd_step", "snapshot", "build"):
        m[f"model.{name}_s"] = self_s(f"model.{name}")
    m["model.forward.calls"] = calls("model.forward")
    m["federation.client_update.self_s"] = self_s("federation.client_update")
    m["federation.client_update.calls"] = calls("federation.client_update")
    m["federation.aggregate_models_s"] = self_s("federation.aggregate_models")
    m["federation.aggregate_prototypes_s"] = self_s("federation.aggregate_prototypes")
    m["federation.run_round.self_s"] = self_s("federation.run_round")
    m["federation.init_s"] = self_s("federation.init")
    m["federation.traffic_up_bytes"] = summary["traffic"]["total_up_bytes"]
    m["federation.traffic_down_bytes"] = summary["traffic"]["total_down_bytes"]
    m["data.build_s"] = self_s("data.build")
    m["data.load_idx_s"] = self_s("data.load_idx")
    m["data.partition_s"] = self_s("data.partition")
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(s for n, (_, s) in totals.items() if n.split(".")[0] == mod)
    m["trace.run_s"] = run["run_s"]
    return m


def _chac_peak_mb(mods, largest) -> float:
    """tracemalloc peak of clustering the largest class seen, rerun alone so
    allocation tracing never slows the timed runs."""
    if largest is None:
        return 0.0
    points, requested = largest
    tracemalloc.start()
    try:
        mods["protofed.chac"].chac(points, requested)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def check_csv(text: str, reference: str) -> list[str]:
    """Differences from the reference round log: identical rounds, selections
    and prediction metrics; loss columns within LOSS_RTOL relative."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"header or round count differs ({len(got)} lines vs {len(want)})"]
    header = want[0].split(",")
    problems = []
    for line_no, (a, b) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, x, y in zip(header, a.split(","), b.split(",")):
            if col in LOSS_COLUMNS:
                fx, fy = float(x), float(y)
                if abs(fx - fy) > LOSS_RTOL * max(abs(fx), abs(fy)):
                    problems.append(f"round {line_no} {col}: {x} vs {y}")
            elif x != y:
                problems.append(f"round {line_no} {col}: {x} vs {y}")
    return problems


def run_set(mods, workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, reference: str | None) -> dict:
    """Repeat the workload until ``seconds`` are spent, checking every run.

    ``reference`` is the expected round log, or None to skip that check.
    Untraced and traced runs alternate when ``trace`` is set.
    """
    ini = prepare(workload, seed, workdir)
    base = mods["protofed.harness"].ExperimentConfig.from_ini(ini)
    runs = {False: [], True: []}  # traced? -> runs that passed the checks
    durations = {False: [], True: []}
    problems: list[str] = []
    attempted = failed = 0
    first_csv = None
    last = {"tracer": None, "peak_alloc": None}
    t_begin = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        cfg = base.override(out=str(workdir / f"run{attempted}"))
        attempted += 1
        t_run = time.perf_counter()
        try:
            run = one_run(mods, cfg, traced)
        except Exception:  # a failing run is counted, reported and dropped
            traceback.print_exc()
            run = None
            bad = ["raised"]
        durations[traced].append(time.perf_counter() - t_run)
        if run is not None:
            bad = [] if reference is None else check_csv(run["csv"], reference)
            if first_csv is None:
                first_csv = run["csv"]
            elif run["csv"] != first_csv:
                bad.append("rounds.csv differs from the set's first run")
            if run["final_acc"] < workload.acc_floor:
                bad.append(f"final accuracy {run['final_acc']!r} below floor {workload.acc_floor}")
        if bad:
            failed += 1
            problems += [f"run {attempted}: {b}" for b in bad]
        else:
            if traced:
                last["tracer"] = run.pop("tracer")
                if last["peak_alloc"] is None:
                    last["peak_alloc"] = _chac_peak_mb(mods, run["largest"])
            runs[traced].append(run)
        need = (2, 2) if trace else (MIN_RUNS, 0)
        enough = len(durations[False]) >= need[0] and len(durations[True]) >= need[1]
        upcoming = durations[trace and attempted % 2 == 1] or durations[False]
        if enough and time.perf_counter() - t_begin + statistics.median(upcoming) > seconds:
            break
    return {"runs": runs, "attempted": attempted, "failed": failed, "problems": problems,
            "tracer": last["tracer"], "peak_alloc": last["peak_alloc"]}


def end_to_end(runs: list[dict]) -> dict:
    rounds = [t for r in runs for t in r["round_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "train_samples_per_s": statistics.median(
            r["train_samples"] / sum(r["round_s"]) for r in runs
        ),
        "round_s.p50": statistics.median(rounds),
        "round_s.p90": float(np.quantile(rounds, 0.9)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_acc": statistics.median(r["final_acc"] for r in runs),
        "traffic_mb": statistics.median(r["traffic_mb"] for r in runs),
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(traced: list[dict], untraced: list[dict], peak_alloc: float) -> dict:
    names = traced[0]["layers"]
    values = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    values["chac.peak_alloc_mb"] = peak_alloc
    values["trace.overhead"] = values["trace.run_s"] / statistics.median(r["run_s"] for r in untraced)
    return {k: {"value": float(v), "unit": layer_unit(k)} for k, v in sorted(values.items())}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".calls") or name.startswith("chac.n_"):
        return "count"
    if name == "diffcore.records_per_batch":
        return "records/batch"
    return "ratio"  # chac.achieved_ratio, trace.overhead


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run once at the default seed and store its round log as the reference")
    args = parser.parse_args(argv)
    mods = import_program()
    workload = WORKLOADS[args.workload]
    ref_file = REFERENCE_DIR / f"{workload.name}.csv"

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        if args.write_reference:
            cfg = mods["protofed.harness"].ExperimentConfig.from_ini(
                prepare(workload, DEFAULT_SEED, workdir)
            ).override(out=str(workdir / "ref"))
            mods["protofed.harness"].run_experiment(cfg)
            ref_file.write_text((workdir / "ref" / "rounds.csv").read_text())
            print(f"wrote {ref_file}")
            return 0
        reference = None
        if args.seed == DEFAULT_SEED:
            reference = ref_file.read_text() if ref_file.is_file() else ""
        res = run_set(mods, workload, args.seed, args.seconds, bool(args.trace), workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = res["runs"]
    if not runs[False] or (args.trace and not runs[True]):
        for p in res["problems"]:
            print(f"check: {p}", file=sys.stderr)
        print("benchmark: no run passed its checks; no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(runs[True], runs[False], res["peak_alloc"])
    else:
        metrics = end_to_end(runs[False])
    info = machine()
    rounds = sum(len(r["round_s"]) for r in runs[False])
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {len(runs[False])} untraced and "
          f"{len(runs[True])} traced runs passed, {res['failed']} of {res['attempted']} failed "
          f"(fail_ratio {res['failed'] / res['attempted']!r} ratio); round_s pooled over {rounds} rounds")
    for p in res["problems"]:
        print(f"check: {p}")
    print(f"output check: {'pass' if res['failed'] == 0 else 'FAIL'}"
          + ("" if reference is None else " (round log compared with the reference)"))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    if res["tracer"] is not None:
        res["tracer"].save(OUT_DIR / f"{workload.name}.spans.npz")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = {**result, "machine": info, "workload": workload.name, "seed": args.seed,
              "trace": args.trace, "problems": res["problems"], "round_samples": rounds,
              "runs": [{k: v for k, v in r.items() if k not in ("csv", "largest")}
                       for kind in (False, True) for r in runs[kind]]}
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=float)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
