"""Acceptance suite: ten end-to-end guarantees, one test each.

Every test pins a contract the package must keep: clustering equivalence
against an independent oracle, exhaustive guard behavior, gradient
correctness by finite differences, frozen hand-computed values, protocol
phase behavior, byte-level reproducibility, benchmark trends, data
partition statistics, and ablation parity. Budgeted tests assert their
own wall-clock bound.
"""
import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    LiveTable,
    align_loss,
    attract_loss,
    attract_repel_loss,
    check_grads,
    cross_entropy,
    distill_loss,
    forward,
    local_loss,
    repel_loss,
    ward_reference,
)
import protofed.federation as fed
import protofed.losses as losses_mod
from protofed.chac import Cluster, chac, delta_ssq, kmeans
from protofed.data import load_idx, partition_dirichlet, synth_blobs
from protofed.diffcore import Tensor
from protofed.federation import FedConfig, init_federation, run_round
from protofed.harness import ExperimentConfig, run_experiment
from protofed.losses import ClassGroups, GlobalPrototypes, LossWeights
from protofed.model import Arch

E = math.e


def _protos(arrays: dict, dim: int) -> GlobalPrototypes:
    return GlobalPrototypes.of(dim, arrays)


# -------------------------------------------------------------------------
# 1. The fast agglomerative clusterer is exactly equivalent to a naive
#    recompute-everything oracle on random data: same partitions, same
#    merge order, merge costs within rtol 1e-9. 100 seeds, n up to 64,
#    dimension up to 8, target count anywhere in 1..n, within 10 seconds.
# -------------------------------------------------------------------------


def test_criterion_01_clustering_matches_naive_oracle():
    t0 = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9001]))
        n = int(rng.integers(2, 65))
        q = int(rng.integers(1, 9))
        requested = int(rng.integers(1, n + 1))
        pts = rng.standard_normal((n, q))
        fast = chac(pts, requested)
        ref = ward_reference(pts, requested)
        assert fast.partition() == ref.partition(), f"partition mismatch at seed {seed}"
        assert len(fast.merges) == len(ref.merges)
        for (a1, b1, c1), (a2, b2, c2) in zip(fast.merges, ref.merges):
            assert (a1, b1) == (a2, b2), f"merge order mismatch at seed {seed}"
            assert abs(c1 - c2) <= 1e-9 * max(1.0, abs(c2)), f"cost mismatch at seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 2. Conditional guard, exhaustively: for every point count and requested
#    cluster count up to 10, too few points means untouched singletons and
#    otherwise exactly the requested number of clusters comes back.
# -------------------------------------------------------------------------


def test_criterion_02_cluster_count_guard_exhaustive():
    rng = np.random.default_rng(42)
    for n in range(1, 11):
        pts = rng.standard_normal((n, 3))
        singles = frozenset(frozenset((i,)) for i in range(n))
        for requested in range(1, 11):
            res = chac(pts, requested)
            assert res.achieved == min(n, requested)
            if n <= requested:
                assert res.merges == ()
                assert res.partition() == singles
            else:
                assert len(res.merges) == n - requested
            km = kmeans(pts, requested, seed=n * 100 + requested)
            if n <= requested:
                assert km.achieved == n
                assert km.partition() == singles
            else:
                assert 1 <= km.achieved <= requested


# -------------------------------------------------------------------------
# 3. Every loss kernel differentiates correctly: 20 random instances per
#    kernel against central finite differences at rtol 1e-4, including the
#    full composite loss through a model, all within 30 seconds.
# -------------------------------------------------------------------------


def test_criterion_03_loss_gradients_match_finite_differences():
    from protofed.model import init_backbone

    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)

    for _ in range(20):
        n, C = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        labels = rng.integers(0, C, size=n)
        check_grads(
            lambda ls, labels=labels: cross_entropy(ls[0], labels),
            [rng.uniform(-2, 2, (n, C))],
        )

    for _ in range(20):
        n, C = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        teacher = rng.uniform(-3, 3, (n, C))
        tau = float(rng.uniform(0.3, 3.0))
        check_grads(
            lambda ls, teacher=teacher, tau=tau: distill_loss(Tensor(teacher), ls[0], tau),
            [rng.uniform(-3, 3, (n, C))],
        )

    for _ in range(20):
        q = int(rng.integers(1, 5))
        blocks = [rng.uniform(-2, 2, (int(rng.integers(1, 5)), q)) for _ in range(2)]
        emb = Tensor(np.concatenate(blocks))
        labels = np.repeat([0, 1], [len(b) for b in blocks])

        def build_align(ls, emb=emb, labels=labels):
            table = LiveTable([0, 1], ls[0])
            return align_loss(emb, ClassGroups(labels, table), table)

        check_grads(build_align, [np.stack([rng.uniform(-2, 2, q), rng.uniform(-2, 2, q)])])

    for _ in range(20):
        q = int(rng.integers(1, 5))
        table = _protos({0: rng.uniform(-2, 2, q), 1: rng.uniform(-2, 2, q)}, q)
        scale = float(rng.uniform(0.2, 2.0))
        e0 = rng.uniform(-2, 2, (int(rng.integers(1, 5)), q))
        e1 = rng.uniform(-2, 2, (int(rng.integers(1, 5)), q))
        groups = ClassGroups(np.repeat([0, 1], [len(e0), len(e1)]), table)
        check_grads(
            lambda ls, groups=groups, scale=scale: attract_loss(ls[0], groups, scale),
            [np.concatenate([e0, e1])],
        )

    for _ in range(20):
        q = int(rng.integers(1, 5))
        scale = float(rng.uniform(0.2, 2.0))
        emb = rng.uniform(-2, 2, (int(rng.integers(2, 6)), q))

        def build_repel(ls, scale=scale):
            return repel_loss(ls[0], LiveTable([0, 1], ls[1]), scale)

        check_grads(build_repel, [emb, np.stack([rng.uniform(-2, 2, q), rng.uniform(-2, 2, q)])])

    # composite: the entire post-first-round client objective through an MLP
    for i in range(20):
        arch = Arch(
            kind="mlp",
            input_dim=int(rng.integers(2, 5)),
            embedding_dim=int(rng.integers(2, 5)),
            num_classes=int(rng.integers(2, 4)),
            hidden=int(rng.integers(2, 6)),
        )
        base = init_backbone(arch, rng)
        n = int(rng.integers(3, 7))
        x = Tensor(rng.uniform(-1, 1, (n, arch.input_dim)))
        labels = rng.integers(0, arch.num_classes, size=n)
        teacher_logits = Tensor(rng.uniform(-1, 1, (n, arch.num_classes)))
        prev_emb = rng.uniform(-1, 1, (n, arch.embedding_dim))
        table = _protos(
            {c: rng.uniform(-1, 1, arch.embedding_dim) for c in range(arch.num_classes)},
            arch.embedding_dim,
        )
        w = LossWeights(temperature=float(rng.uniform(0.5, 2.0)))

        def build_full(ls, arch=arch, x=x, labels=labels, teacher_logits=teacher_logits,
                       prev_emb=prev_emb, table=table, w=w):
            emb, logits = forward(arch, ls, x)
            ce = cross_entropy(logits, labels)
            dist = distill_loss(teacher_logits, logits, w.temperature)
            groups = ClassGroups(labels, table)
            pair = attract_repel_loss(
                attract_loss(emb, groups, w.scale),
                repel_loss(emb, table, w.scale),
                w.balance,
            )
            return local_loss(ce, dist, align_loss(prev_emb, groups), pair, w, round_idx=2)

        check_grads(build_full, base.params)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 4. Frozen hand-computed values, asserted at tight tolerance.
# -------------------------------------------------------------------------


def test_criterion_04_frozen_hand_values():
    # merge-cost kernel: singletons at distance 2 cost (1/2)*4 = 2;
    # a pair at mean 1 against a point at 4 costs (2/3)*9 = 6
    a = Cluster((0,), np.array([0.0]))
    b = Cluster((1,), np.array([2.0]))
    assert delta_ssq(a, b) == pytest.approx(2.0, abs=1e-12)
    ab = Cluster((0, 1), np.array([1.0]))
    c = Cluster((2,), np.array([4.0]))
    assert delta_ssq(ab, c) == pytest.approx(6.0, abs=1e-12)

    # cross entropy: uniform two-way logits give ln 2; margin case ln(1+e)-1
    assert cross_entropy(Tensor([[0.0, 0.0]]), [0]).item() == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert cross_entropy(Tensor([[1.0, 0.0]]), [0]).item() == pytest.approx(
        math.log(1 + E) - 1.0, abs=1e-12
    )

    # distillation between opposite two-way logits at temperature 1
    assert distill_loss(
        Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), temperature=1.0
    ).item() == pytest.approx((E - 1) / (E + 1), abs=1e-12)

    # alignment: unit offset in every coordinate scores 1; classes average
    assert align_loss(
        Tensor([[1.0, 1.0]]), ClassGroups([0], _protos({0: np.zeros(2)}, 2))
    ).item() == pytest.approx(1.0, abs=1e-12)
    two = ClassGroups([0, 1], _protos({0: np.zeros(2), 1: np.zeros(2)}, 2))
    emb = Tensor([[1.0, 1.0], [np.sqrt(3.0), np.sqrt(3.0)]])
    assert align_loss(emb, two).item() == pytest.approx(2.0, abs=1e-12)

    # attract at scale 1/2 on a squared distance of 4
    assert attract_loss(
        Tensor([[2.0]]), ClassGroups([0], _protos({0: np.zeros(1)}, 1)), scale=0.5
    ).item() == pytest.approx(2.0, abs=1e-12)

    # repel: on top of the single prototype the logsumexp collapses to 0;
    # at squared distance 4 and scale 1/2 it is exactly -2
    assert repel_loss(
        Tensor([[0.0, 0.0]]), _protos({0: np.zeros(2)}, 2), scale=0.5
    ).item() == pytest.approx(0.0, abs=1e-12)
    assert repel_loss(
        Tensor([[2.0]]), _protos({0: np.zeros(1)}, 1), scale=0.5
    ).item() == pytest.approx(-2.0, abs=1e-12)

    # balanced mix of +2 and -2 cancels
    assert attract_repel_loss(Tensor(2.0), Tensor(-2.0), balance=0.5).item() == 0.0

    # combined loss with every component equal to one: 0.9 + 0.1 + 1 + 0.1
    one = Tensor(1.0)
    w = LossWeights(ce_weight=0.9, align_weight=1.0, proto_weight=0.1)
    assert local_loss(one, one, one, one, w, round_idx=2).item() == pytest.approx(
        2.1, abs=1e-12
    )

    # model averaging at sizes 1:3 over parameters 0 and 4 lands on 3
    out = fed.aggregate_models({0: np.array([0.0]), 1: np.array([4.0])}, {0: 1, 1: 3})
    assert out[0] == pytest.approx(3.0, abs=1e-12)

    # prototype merging: equal halves of a class with unit prototypes give
    # 1 under sample-share weighting, 1/2 under the literal prefactor
    sets = {
        0: fed.PrototypeSet({0: [np.array([1.0])]}, {0: 5}),
        1: fed.PrototypeSet({0: [np.array([1.0])]}, {0: 5}),
    }
    assert fed.aggregate_prototypes(sets, 1, "normalized").matrix[0, 0] == pytest.approx(1.0)
    assert fed.aggregate_prototypes(sets, 1, "literal").matrix[0, 0] == pytest.approx(0.5)


# -------------------------------------------------------------------------
# 5. In round 1 clients train on plain cross entropy at the stock
#    hyperparameters: none of the four auxiliary kernels is ever invoked,
#    confirmed by counting wrappers. From round 2 on, all of them fire.
# -------------------------------------------------------------------------


def _tiny_world(method="mp-fedkd", **over):
    # stock FedConfig hyperparameters on a small dataset
    ds = synth_blobs(classes=3, per_class=30, dim=2, spread=0.15, seed=11)
    plan = partition_dirichlet(ds, clients=3, alpha=1e6, test_fraction=0.2, seed=5)
    arch = Arch(kind="mlp", input_dim=2, embedding_dim=4, num_classes=3, hidden=8)
    cfg = FedConfig(method=method, **over)
    server, clients = init_federation(arch, plan, seed=7)
    return ds, cfg, server, clients


def test_criterion_05_first_round_uses_plain_ce_only(monkeypatch):
    calls = {"distill_loss": 0, "align_loss": 0, "attract_loss": 0, "repel_loss": 0}
    for name in list(calls):
        real = getattr(losses_mod, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(losses_mod, name, spy)

    ds, cfg, server, clients = _tiny_world()
    server, rec1 = run_round(server, clients, ds, cfg)
    assert calls == {k: 0 for k in calls}, f"auxiliary kernels ran in round 1: {calls}"
    assert rec1.ce > 0.0
    assert rec1.distill == 0.0 and rec1.align == 0.0 and rec1.proto == 0.0

    server, rec2 = run_round(server, clients, ds, cfg)
    assert all(v > 0 for v in calls.values()), f"spies not engaged in round 2: {calls}"
    assert rec2.distill > 0.0


# -------------------------------------------------------------------------
# 6. The round log of a five-round, four-client run is byte-identical
#    across repeated runs and across worker parallelism, with partial
#    selection exercised.
# -------------------------------------------------------------------------


def test_criterion_06_round_log_byte_identical(tmp_path):
    """Reruns and worker counts log the same bytes at one BLAS thread count:
    the runs here share the process's, and two counts may differ in an ulp."""

    def cfg_for(sub: str, workers: int) -> ExperimentConfig:
        return ExperimentConfig(
            data_kind="blobs", classes=3, per_class=30, dim=2, spread=0.15, data_seed=11,
            clients=4, alpha=1e6, test_fraction=0.2, partition_seed=5,
            model_kind="mlp", hidden=8, embedding_dim=4,
            method="mp-fedkd", rounds=5, epochs=2, batch_size=16, learning_rate=0.05,
            fraction=0.67, workers=workers, seed=7, out=str(tmp_path / sub),
        )

    run_experiment(cfg_for("a", workers=1))
    run_experiment(cfg_for("b", workers=1))
    run_experiment(cfg_for("c", workers=4))
    a = (tmp_path / "a" / "rounds.csv").read_bytes()
    b = (tmp_path / "b" / "rounds.csv").read_bytes()
    c = (tmp_path / "c" / "rounds.csv").read_bytes()
    assert a == b, "identical reruns disagree"
    assert a == c, "worker parallelism changed the round log"


# -------------------------------------------------------------------------
# 7. On non-IID synthetic blobs over five seeds, the prototype method's
#    median final accuracy at least matches plain weight averaging,
#    within a two-minute budget.
# -------------------------------------------------------------------------


def test_criterion_07_trend_against_weight_averaging(tmp_path):
    t0 = time.perf_counter()
    base = dict(
        data_kind="blobs", classes=3, per_class=200, dim=2, spread=0.3,
        clients=4, alpha=0.3, test_fraction=0.2,
        model_kind="mlp", hidden=16, embedding_dim=8,
        rounds=10, epochs=5, batch_size=16, learning_rate=0.1,
    )
    finals = {"mp-fedkd": [], "fedavg": []}
    for seed in range(5):
        for method in finals:
            cfg = ExperimentConfig(
                **base, method=method,
                data_seed=100 + seed, partition_seed=200 + seed, seed=300 + seed,
                out=str(tmp_path / f"{method}-{seed}"),
            )
            summary, _ = run_experiment(cfg)
            finals[method].append(summary["final_accuracy"])
    elapsed = time.perf_counter() - t0
    med_mp = float(np.median(finals["mp-fedkd"]))
    med_avg = float(np.median(finals["fedavg"]))
    assert med_mp >= med_avg, (
        f"median final accuracy {med_mp:.4f} fell below weight averaging {med_avg:.4f} "
        f"(per seed: {finals})"
    )
    assert elapsed < 120.0, f"trend benchmark took {elapsed:.1f}s"


# -------------------------------------------------------------------------
# 8. Optional long smoke test on the full digit corpus: ten clients on a
#    mildly skewed split, fifty rounds at stock hyperparameters with an
#    MLP backbone, final global accuracy at least 0.93 within thirty
#    minutes. Gated by PROTOFED_MNIST_DIR pointing at the idx files and
#    marked slow.
# -------------------------------------------------------------------------

_MNIST_DIR = os.environ.get("PROTOFED_MNIST_DIR", "")


def _mnist_pair():
    base = Path(_MNIST_DIR)
    for images, labels in (
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
    ):
        if (base / images).is_file() and (base / labels).is_file():
            return str(base / images), str(base / labels)
    return None


@pytest.mark.slow
@pytest.mark.skipif(not _MNIST_DIR, reason="PROTOFED_MNIST_DIR not set")
def test_criterion_08_mnist_smoke():
    pair = _mnist_pair()
    if pair is None:
        pytest.skip(f"no idx files under {_MNIST_DIR}")
    t0 = time.perf_counter()
    ds = load_idx(*pair)
    plan = partition_dirichlet(ds, clients=10, alpha=0.9, test_fraction=0.2, seed=0)
    arch = Arch(kind="mlp", input_dim=784, embedding_dim=64, num_classes=10, hidden=128)
    cfg = FedConfig(method="mp-fedkd", workers=4)
    server, clients = init_federation(arch, plan, seed=0)
    rec = None
    for _ in range(cfg.rounds):
        server, rec = run_round(server, clients, ds, cfg)
    elapsed = time.perf_counter() - t0
    assert rec.acc >= 0.93, f"digit accuracy after {cfg.rounds} rounds: {rec.acc:.4f}"
    assert elapsed <= 1800.0, f"smoke run took {elapsed:.0f}s"


# -------------------------------------------------------------------------
# 9. Partition statistics over 20 seeds each: a huge concentration
#    parameter with four clients keeps every client's class histogram
#    within 10% of flat (class counts in the thousands, so sampling noise
#    sits far below the bound); at 0.3 with ten clients, some client's top
#    class holds the majority of its data in most seeds.
# -------------------------------------------------------------------------


def test_criterion_09_partition_statistics():
    ds = synth_blobs(classes=4, per_class=20000, dim=2, spread=0.3, seed=1)

    worst = 0.0
    for seed in range(20):
        plan = partition_dirichlet(ds, clients=4, alpha=1e6, test_fraction=0.2, seed=seed)
        for shard in plan.shards:
            hist = np.asarray(shard.histogram, dtype=np.float64)
            uniform = hist.sum() / hist.size
            worst = max(worst, float(np.abs(hist - uniform).max() / uniform))
    assert worst < 0.10, f"near-uniform partition deviated {worst:.3f} from flat"

    hits = 0
    for seed in range(20):
        plan = partition_dirichlet(ds, clients=10, alpha=0.3, test_fraction=0.2, seed=seed)
        if any(
            max(s.histogram) / sum(s.histogram) > 0.5
            for s in plan.shards
            if sum(s.histogram) > 0
        ):
            hits += 1
    assert hits > 10, f"majority-class concentration seen in only {hits} of 20 seeds"


# -------------------------------------------------------------------------
# 10. Ablations run to completion and the full objective holds up: over
#     five seeds the full method ties or beats each single-term ablation
#     in at least three, with the comparison table written out.
# -------------------------------------------------------------------------


def test_criterion_10_ablations_complete_and_hold_up(tmp_path):
    base = dict(
        data_kind="blobs", classes=3, per_class=200, dim=2, spread=0.3,
        clients=4, alpha=0.3, test_fraction=0.2,
        model_kind="mlp", hidden=16, embedding_dim=8, method="mp-fedkd",
        rounds=10, epochs=5, batch_size=16, learning_rate=0.1,
    )
    variants = {
        "full": {},
        "no_align": {"align_weight": 0.0},
        "no_proto": {"proto_weight": 0.0},
    }
    finals = {name: [] for name in variants}
    seeds = list(range(5))
    for seed in seeds:
        for name, over in variants.items():
            cfg = ExperimentConfig(
                **base, **over,
                data_seed=100 + seed, partition_seed=200 + seed, seed=300 + seed,
                out=str(tmp_path / f"{name}-{seed}"),
            )
            summary, _ = run_experiment(cfg)
            finals[name].append(summary["final_accuracy"])

    wins_align = sum(f >= v for f, v in zip(finals["full"], finals["no_align"]))
    wins_proto = sum(f >= v for f, v in zip(finals["full"], finals["no_proto"]))
    table = {
        "seeds": seeds,
        "final_accuracy": finals,
        "wins": {"full_vs_no_align": wins_align, "full_vs_no_proto": wins_proto},
        "threshold": 3,
    }
    out = tmp_path / "ablation_summary.json"
    out.write_text(json.dumps(table, sort_keys=True, indent=2))

    assert wins_align >= 3, f"full lost to the alignment ablation: {table}"
    assert wins_proto >= 3, f"full lost to the prototype-term ablation: {table}"
    stored = json.loads(out.read_text())
    assert set(stored) == {"seeds", "final_accuracy", "wins", "threshold"}
