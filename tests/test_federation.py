import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import protofed.chac as clustering
import protofed.diffcore as dc
import protofed.federation as fed
from helpers import (
    align_reference,
    attract_reference,
    attract_repel_reference,
    cross_entropy,
    cross_entropy_reference,
    distill_reference,
    embed_reference,
    fedproto_reference,
    forward,
    local_loss_reference,
    prox_reference,
    repel_reference,
)
from protofed.data import ClientShard, Dataset, partition_dirichlet, synth_blobs
from protofed.harness import ExperimentConfig, rounds_csv, run_experiment
from protofed.losses import ClassGroups, GlobalPrototypes, LossWeights, PrototypeCoverageWarning
from protofed.model import (
    Arch,
    Backbone,
    build_backbone,
    flatten_params,
    forward_entries,
    init_backbone,
    sgd_step,
)


ARCH = Arch(kind="mlp", input_dim=2, embedding_dim=4, num_classes=3, hidden=8)


def small_world(method="mp-fedkd", clients=3, seed=7, **over):
    ds = synth_blobs(classes=3, per_class=30, dim=2, spread=0.15, seed=11)
    plan = partition_dirichlet(ds, clients=clients, alpha=1e6, test_fraction=0.2, seed=5)
    over.setdefault("rounds", 3)
    over.setdefault("epochs", 2)
    over.setdefault("batch_size", 16)
    over.setdefault("learning_rate", 0.05)
    cfg = fed.FedConfig(method=method, **over)
    server, clients_map = fed.init_federation(ARCH, plan, seed=seed)
    return ds, cfg, server, clients_map


def whole_gather_forward(model, x, batch):
    """Embeddings and logits of the gathered float64 rows ``x``, ``batch``
    rows per pass: the forward before each chunk gathered its own rows."""
    outs = [model.infer(x[i : i + batch]) for i in range(0, len(x), batch)]
    return tuple(np.concatenate(part) for part in zip(*outs))


def drive(ds, cfg, server, clients, rounds):
    records = []
    for _ in range(rounds):
        server, rec = fed.run_round(server, clients, ds, cfg)
        records.append(rec)
    return server, records


# ---------------------------------------------------------------- config


def test_fedconfig_validation():
    with pytest.raises(ValueError):
        fed.FedConfig(method="fedsgd")
    with pytest.raises(ValueError):
        fed.FedConfig(fraction=0.0)
    with pytest.raises(ValueError):
        fed.FedConfig(fraction=1.5)
    with pytest.raises(ValueError):
        fed.FedConfig(epochs=-1)
    with pytest.raises(ValueError):
        fed.FedConfig(aggregation="mean")
    with pytest.raises(ValueError):
        fed.FedConfig(workers=0)
    with pytest.raises(ValueError):
        fed.FedConfig(prox_rho=-0.1)
    fed.FedConfig(epochs=0)  # legal: distribution and clustering only


# ------------------------------------------------------------- selection


def test_select_clients_deterministic_and_sized():
    ids = list(range(10))
    a = fed.select_clients(ids, 0.3, seed=4, round_idx=1)
    b = fed.select_clients(ids, 0.3, seed=4, round_idx=1)
    assert a == b
    assert len(a) == 3
    assert list(a) == sorted(a)
    assert set(a) <= set(ids)


def test_select_clients_full_fraction_and_floor():
    assert fed.select_clients([3, 1, 2], 1.0, 0, 1) == (1, 2, 3)
    # tiny fraction still yields one participant
    assert len(fed.select_clients(list(range(7)), 0.01, 9, 2)) == 1


def test_select_clients_varies_with_round():
    ids = list(range(30))
    picks = {fed.select_clients(ids, 0.2, seed=0, round_idx=t) for t in range(1, 6)}
    assert len(picks) > 1


def test_select_clients_validation():
    with pytest.raises(ValueError):
        fed.select_clients([], 1.0, 0, 1)
    with pytest.raises(ValueError):
        fed.select_clients([1], 0.0, 0, 1)
    with pytest.raises(ValueError):
        fed.select_clients([1], 1.0, 0, 0)


# ----------------------------------------------------------- aggregation


def _one_param_client(value):
    return np.array([value])


def test_aggregate_models_weighted_hand_value():
    flats = {0: _one_param_client(0.0), 1: _one_param_client(4.0)}
    out = fed.aggregate_models(flats, {0: 1, 1: 3})
    assert out[0] == pytest.approx(3.0)


def test_aggregate_models_order_invariant_bitwise():
    flats = {0: _one_param_client(0.1), 1: _one_param_client(0.7), 2: _one_param_client(0.3)}
    sizes = {0: 2, 1: 5, 2: 3}
    a = fed.aggregate_models(flats, sizes)
    flipped = dict(reversed(list(flats.items())))
    b = fed.aggregate_models(flipped, sizes)
    assert np.array_equal(a, b)


def test_aggregate_models_validation():
    with pytest.raises(ValueError):
        fed.aggregate_models({}, {})
    with pytest.raises(ValueError):
        fed.aggregate_models({0: _one_param_client(1.0)}, {1: 3})
    with pytest.raises(ValueError, match="client 1 sent"):
        fed.aggregate_models({0: np.zeros(3), 1: np.zeros(2)}, {0: 1, 1: 1})


def test_aggregate_models_rejects_a_non_finite_vector():
    flats = {0: np.array([1.0, 2.0]), 1: np.array([np.nan, 0.0])}
    with pytest.raises(dc.NonFiniteError, match="^aggregate_models produced"):
        fed.aggregate_models(flats, {0: 1, 1: 1})


def _proto_set(vecs_by_class, counts):
    return fed.PrototypeSet(
        protos={c: [np.asarray(v, dtype=float) for v in vs] for c, vs in vecs_by_class.items()},
        counts=dict(counts),
    )


def test_aggregate_prototypes_normalized_vs_literal_hand_values():
    sets = {
        0: _proto_set({0: [[1.0]]}, {0: 5}),
        1: _proto_set({0: [[1.0]]}, {0: 5}),
    }
    normalized = fed.aggregate_prototypes(sets, 1, "normalized")
    literal = fed.aggregate_prototypes(sets, 1, "literal")
    assert normalized.rows([0])[0, 0] == pytest.approx(1.0)
    assert literal.rows([0])[0, 0] == pytest.approx(0.5)


def test_aggregate_prototypes_count_weighting():
    sets = {
        0: _proto_set({0: [[0.0]]}, {0: 1}),
        1: _proto_set({0: [[4.0]]}, {0: 3}),
    }
    table = fed.aggregate_prototypes(sets, 1, "normalized")
    assert table.rows([0])[0, 0] == pytest.approx(3.0)


def test_aggregate_prototypes_multiple_vectors_average():
    sets = {0: _proto_set({2: [[0.0], [2.0]]}, {2: 6})}
    table = fed.aggregate_prototypes(sets, 1, "normalized")
    assert table.rows([2])[0, 0] == pytest.approx(1.0)
    # single member: literal prefactor 1/(1*2) gives the same mean
    literal = fed.aggregate_prototypes(sets, 1, "literal")
    assert literal.rows([2])[0, 0] == pytest.approx(1.0)


def test_prototype_set_validation():
    with pytest.raises(ValueError):
        fed.PrototypeSet(protos={0: [np.zeros(2)]}, counts={})
    with pytest.raises(ValueError):
        fed.PrototypeSet(protos={0: []}, counts={0: 1})
    with pytest.raises(ValueError):
        fed.PrototypeSet(protos={0: [np.zeros(2)], 1: [np.zeros(3)]}, counts={0: 1, 1: 1})


# ------------------------------------------------------------ round flow


def test_models_travel_as_the_server_vector():
    ds, cfg, server, clients = small_world(method="fedprox")
    flat = server.model.flat
    for st in clients.values():
        assert st.model.flat is flat  # views into the server's vector, no copy
        assert all(np.shares_memory(p, flat) for p in st.model.params)
    st = clients[0]
    res = fed.client_update(st, ds, flat, server.protos, cfg, round_idx=1, run_seed=0)
    assert res.flat is st.model.flat and res.protos is None
    assert res.flat.shape == flat.shape and not np.array_equal(res.flat, flat)


def test_fedproto_uploads_no_model():
    ds, cfg, server, clients = small_world(method="fedproto")
    res = fed.client_update(clients[0], ds, None, server.protos, cfg, round_idx=1, run_seed=0)
    assert res.flat is None
    assert all(block.shape == (1, ARCH.embedding_dim) for block in res.protos.protos.values())


def test_first_round_trains_on_ce_only():
    ds, cfg, server, clients = small_world()
    server, (rec,) = drive(ds, cfg, server, clients, 1)
    assert rec.round_idx == 1
    assert rec.ce > 0.0
    assert rec.distill == 0.0
    assert rec.align == 0.0
    assert rec.proto == 0.0
    # every class produced prototypes in round 1
    assert server.protos.labels == [0, 1, 2]
    for st in clients.values():
        emb, logits = st.teacher
        assert emb.shape == (st.shard.train.size, ARCH.embedding_dim)
        assert logits.shape == (st.shard.train.size, ARCH.num_classes)


@pytest.mark.parametrize("method", ["mp-fedkd", "mp-fedkd-kmeans"])
def test_teacher_is_the_trained_models_shard_outputs(method):
    ds, cfg, server, clients = small_world(method=method)
    st = clients[0]
    fed.client_update(st, ds, server.model.flat, server.protos, cfg, round_idx=1, run_seed=0)
    want = whole_gather_forward(st.model, ds.rows(st.shard.train), 512)
    assert [a.tobytes() for a in st.teacher] == [a.tobytes() for a in want]
    n = st.shard.train.size
    assert [a.shape for a in st.teacher] == [(n, ARCH.embedding_dim), (n, ARCH.num_classes)]


def test_digit_passes_gather_one_chunk_at_a_time(monkeypatch):
    # uint8 pixels: only a chunk of rows at a time becomes float64 in the
    # teacher/prototype pass (512) and in evaluation (1024), with the outputs
    # of one whole-split gather
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(10), 300)
    ds = Dataset(rng.integers(0, 256, (labels.size, 784), dtype=np.uint8), labels, 10,
                 "digits", image_shape=(1, 28, 28))
    plan = partition_dirichlet(ds, clients=3, alpha=1e6, test_fraction=0.4, seed=1)
    arch = Arch(kind="mlp", input_dim=784, embedding_dim=8, num_classes=10, hidden=16)
    server, clients = fed.init_federation(arch, plan, seed=2)
    cfg = fed.FedConfig(epochs=1, batch_size=32, learning_rate=0.05)
    phase, seen = ["train"], []
    rows, finish, train = Dataset.rows, fed._finish, fed.train_clients

    def spy_rows(dataset, idx):
        seen.append((phase[0], len(idx)))
        return rows(dataset, idx)

    def in_phase(name, fn, after):
        def wrapped(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = after
        return wrapped

    monkeypatch.setattr(Dataset, "rows", spy_rows)
    monkeypatch.setattr(fed, "_finish", in_phase("teacher", finish, "train"))
    monkeypatch.setattr(fed, "train_clients", in_phase("train", train, "eval"))
    server, (rec,) = drive(ds, cfg, server, clients, 1)
    monkeypatch.undo()

    sizes = {p: [n for q, n in seen if q == p] for p in ("teacher", "eval")}
    train_sizes = [st.shard.train.size for st in clients.values()]
    test = np.concatenate([clients[cid].shard.test for cid in sorted(clients)])
    assert max(train_sizes) > 512 and test.size > 1024  # a whole gather would be bigger
    assert max(sizes["teacher"]) == 512 and sum(sizes["teacher"]) == sum(train_sizes)
    assert max(sizes["eval"]) == 1024 and sum(sizes["eval"]) == test.size
    for st in clients.values():
        want = whole_gather_forward(st.model, ds.rows(st.shard.train), 512)
        assert [a.tobytes() for a in st.teacher] == [a.tobytes() for a in want]
    got = fed._forward_chunks(server.model, ds, test, 1024)
    want = whole_gather_forward(server.model, ds.rows(test), 1024)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert rec.acc == np.mean(np.argmax(want[1], axis=1) == ds.labels[test])


def test_teacher_round_runs_the_model_over_the_shard_once(monkeypatch):
    # the teacher's rows are looked up per batch, so the epochs add no pass
    rows_per_call = {}
    for epochs in (1, 3):
        ds, cfg, server, clients = small_world(epochs=epochs)
        server, _ = drive(ds, cfg, server, clients, 1)
        calls, infer = [], fed.Backbone.infer

        def counting(model, x):
            calls.append(len(x))
            return infer(model, x)

        with monkeypatch.context() as m:
            m.setattr(fed.Backbone, "infer", counting)
            res = fed.client_update(clients[0], ds, server.model.flat, server.protos, cfg, 2, 0)
        assert res.distill > 0.0
        rows_per_call[epochs] = calls
    assert rows_per_call[1] == rows_per_call[3] == [clients[0].shard.train.size]


def test_second_round_engages_auxiliary_terms():
    ds, cfg, server, clients = small_world()
    server, records = drive(ds, cfg, server, clients, 2)
    rec = records[1]
    assert rec.distill > 0.0
    assert rec.align > 0.0
    assert rec.proto != 0.0


def test_first_participation_after_round_one_is_ce_only():
    ds, cfg, server, clients = small_world()
    st = clients[0]
    res = fed.client_update(
        st, ds, server.model.flat, server.protos, cfg, round_idx=2, run_seed=0
    )
    # never participated before: no teacher, so no auxiliary terms
    assert res.distill == 0.0 and res.align == 0.0 and res.proto == 0.0
    assert res.ce > 0.0


def test_round_two_with_empty_prototype_table_warns():
    ds, cfg, server, clients = small_world()
    st = clients[1]
    res1 = fed.client_update(
        st, ds, server.model.flat, server.protos, cfg, round_idx=1, run_seed=0
    )
    assert st.teacher is not None
    with pytest.warns(PrototypeCoverageWarning):
        fed.client_update(
            st, ds, server.model.flat, GlobalPrototypes.of(ARCH.embedding_dim, {}),
            cfg, round_idx=2, run_seed=0,
        )


def test_epochs_zero_roundtrip():
    ds, cfg, server, clients = small_world(epochs=0)
    before = flatten_params(server.model.params).copy()
    server, (rec,) = drive(ds, cfg, server, clients, 1)
    assert rec.ce == 0.0 and rec.distill == 0.0
    # aggregate of identical untouched models stays put
    np.testing.assert_allclose(flatten_params(server.model.params), before, rtol=0, atol=1e-15)
    assert server.protos.labels == [0, 1, 2]


def test_fedavg_keeps_prototype_table_empty():
    ds, cfg, server, clients = small_world(method="fedavg")
    server, records = drive(ds, cfg, server, clients, 2)
    assert server.protos.labels == []
    assert all(r.distill == 0.0 and r.proto == 0.0 for r in records)


def test_fedprox_zero_rho_matches_fedavg_bitwise():
    ds, cfg_avg, server_a, clients_a = small_world(method="fedavg", seed=3)
    _, cfg_prox, server_p, clients_p = small_world(method="fedprox", seed=3, prox_rho=0.0)
    server_a, rec_a = drive(ds, cfg_avg, server_a, clients_a, 3)
    server_p, rec_p = drive(ds, cfg_prox, server_p, clients_p, 3)
    assert np.array_equal(
        flatten_params(server_a.model.params), flatten_params(server_p.model.params)
    )
    assert [r.acc for r in rec_a] == [r.acc for r in rec_p]
    assert [r.ce for r in rec_a] == [r.ce for r in rec_p]


def test_fedprox_positive_rho_changes_trajectory():
    ds, cfg_avg, server_a, clients_a = small_world(method="fedavg", seed=3)
    _, cfg_prox, server_p, clients_p = small_world(method="fedprox", seed=3, prox_rho=5.0)
    server_a, _ = drive(ds, cfg_avg, server_a, clients_a, 2)
    server_p, _ = drive(ds, cfg_prox, server_p, clients_p, 2)
    assert not np.array_equal(
        flatten_params(server_a.model.params), flatten_params(server_p.model.params)
    )


@pytest.mark.parametrize("method", ["mp-fedkd", "fedproto"])
def test_client_step_matches_the_op_chain_bitwise(method, monkeypatch):
    # client_update chains the kernels' backwards by hand. Replaying a
    # round-2 update batch by batch, with every layer and loss term as a
    # taped op chain over the parameters each step started from, gives each
    # flat gradient sgd_step received bit for bit.
    steps = []

    def recording_step(model, grad, lr, prox):
        steps.append((model.flat[0], grad[0].copy()))  # the client's row of its stack
        return sgd_step(model, grad, lr, prox)

    weights = LossWeights(ce_weight=0.7, proto_weight=0.4, balance=0.3, temperature=0.5)
    ds, cfg, server, clients = small_world(
        method=method, seed=3, weights=weights, fedproto_weight=2.5
    )
    server, _ = drive(ds, cfg, server, clients, 1)
    st, w = clients[1], cfg.weights
    teacher, protos = st.teacher, server.protos
    monkeypatch.setattr(fed, "sgd_step", recording_step)
    fed.client_update(st, ds, server.model.flat, protos, cfg, round_idx=2, run_seed=server.seed)
    own = [int(c) for c in np.flatnonzero(st.shard.histogram > 0)]
    rng = np.random.default_rng(np.random.SeedSequence([server.seed, fed._SHUFFLE_STREAM, 2, 1]))
    want = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(st.shard.train.size)
        for start in range(0, perm.size, cfg.batch_size):
            pos = perm[start : start + cfg.batch_size]
            idx = st.shard.train[pos]
            y, groups = ds.labels[idx], ClassGroups(ds.labels[idx], protos)
            leaves = [dc.Tensor(p) for p in Backbone(ARCH, steps[len(want)][0]).params]
            with dc.Tape() as tape:
                tape.watch(*leaves)
                emb, logits = embed_reference(ARCH, leaves, ds.rows(idx))
                ce = cross_entropy_reference(logits, y)
                if method == "fedproto":
                    loss = dc.add(ce, dc.mul(fedproto_reference(emb, groups), cfg.fedproto_weight))
                else:
                    pair = attract_repel_reference(
                        attract_reference(emb, groups, w.scale),
                        repel_reference(emb, protos, w.scale, own),
                        w.balance,
                    )
                    dist = distill_reference(teacher[1][pos], logits, w.temperature)
                    loss = local_loss_reference(
                        ce, dist, align_reference(teacher[0][pos], groups), pair, w
                    )
            grads = dc.backward(tape, loss)
            want.append(np.concatenate([grads[leaf].ravel() for leaf in leaves]).tobytes())
    assert [grad.tobytes() for _, grad in steps] == want


@pytest.mark.parametrize("rho", [0.01, 5.0])
def test_fedprox_gradient_matches_the_proximal_op_chain_bitwise(rho, monkeypatch):
    # client_update adds the proximal gradient in sgd_step, with no tape op.
    # Replaying its batches with the penalty as a taped op chain gives every
    # step's parameters bit for bit: after the first batch, where the
    # parameters are the anchor itself, and after every later one.
    seen = []

    def recording_step(model, grad, lr, prox):
        sgd_step(model, grad, lr, prox)
        seen.append(model.flat.tobytes())
        return model

    monkeypatch.setattr(fed, "sgd_step", recording_step)
    for seed in range(25):
        ds, cfg, server, clients = small_world(method="fedprox", seed=seed, prox_rho=rho)
        st, run_seed = clients[seed % 3], 40 + seed
        seen.clear()
        res = fed.client_update(st, ds, server.model.flat, server.protos, cfg, 1, run_seed)
        model = Backbone(ARCH, server.model.flat)
        anchor, train, want = model.params, st.shard.train, []
        rng = np.random.default_rng(
            np.random.SeedSequence([run_seed, fed._SHUFFLE_STREAM, 1, st.client_id])
        )
        for _ in range(cfg.epochs):
            order = train[rng.permutation(train.size)]
            for start in range(0, train.size, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                leaves = [dc.Tensor(p) for p in model.params]
                with dc.Tape() as tape:
                    tape.watch(*leaves)
                    _, logits = forward(ARCH, leaves, ds.rows(idx))
                    ce = cross_entropy(logits, ds.labels[idx])
                    grads = dc.backward(tape, dc.add(ce, prox_reference(leaves, anchor, rho)))
                grad = np.concatenate([grads[leaf].ravel() for leaf in leaves])
                sgd_step(model, grad, cfg.learning_rate)
                want.append(model.flat.tobytes())
        assert len(seen) > 1 and seen == want, seed
        assert res.flat.tobytes() == model.flat.tobytes()


# Committed 3-round logs of both baselines and both multi-prototype methods
# (tests/data): a change to a regularizer, a loss kernel or the prototype
# table that moves one bit of a trajectory fails here.
@pytest.mark.parametrize(
    "method, over",
    [
        ("fedprox", {"prox_rho": 5.0}),
        ("fedproto", {"fedproto_weight": 3.0}),
        ("mp-fedkd", {}),
        ("mp-fedkd-kmeans", {}),
    ],
)
def test_baseline_round_log_matches_golden(method, over):
    ds, cfg, server, clients = small_world(method=method, **over)
    _, records = drive(ds, cfg, server, clients, 3)
    golden = Path(__file__).parent / "data" / f"{method}_rounds.csv"
    assert rounds_csv(records) == golden.read_text()


def test_fedproto_keeps_personal_models_and_server_fixed():
    ds, cfg, server, clients = small_world(method="fedproto")
    before = flatten_params(server.model.params).copy()
    server, records = drive(ds, cfg, server, clients, 2)
    assert np.array_equal(flatten_params(server.model.params), before)
    assert server.protos.labels == [0, 1, 2]
    flats = {cid: flatten_params(st.model.params) for cid, st in clients.items()}
    assert not np.array_equal(flats[0], flats[1])
    assert all(np.isfinite(r.acc) for r in records)
    assert records[1].proto > 0.0  # regularizer active once prototypes exist


def test_worker_parallelism_reproduces_sequential_run():
    ds, cfg1, server1, clients1 = small_world(seed=9, workers=1)
    _, cfg4, server4, clients4 = small_world(seed=9, workers=4)
    server1, recs1 = drive(ds, cfg1, server1, clients1, 2)
    server4, recs4 = drive(ds, cfg4, server4, clients4, 2)
    assert np.array_equal(
        flatten_params(server1.model.params), flatten_params(server4.model.params)
    )
    for a, b in zip(recs1, recs4):
        assert dataclasses.replace(a, wall_time=0.0) == dataclasses.replace(b, wall_time=0.0)
    assert server1.protos.labels == server4.protos.labels
    assert np.array_equal(server1.protos.matrix, server4.protos.matrix)


def test_stale_class_prototypes_survive_absence():
    ds, cfg, server, clients = small_world()
    server, _ = drive(ds, cfg, server, clients, 1)
    kept = server.protos.rows([2])
    # only clients without any fresh evidence for some class would retain it;
    # simulate by making class 2's holders sit the round out
    hist2 = np.array([st.shard.histogram[2] for st in clients.values()])
    assert hist2.sum() > 0
    lean = {cid: st for cid, st in clients.items() if st.shard.histogram[2] == 0}
    if not lean:  # near-IID split: drop to a hand-built shard holding classes 0/1 only
        labels = ds.labels
        pick0 = np.flatnonzero(labels == 0)[:8]
        pick1 = np.flatnonzero(labels == 1)[:8]
        train = np.concatenate([pick0[:6], pick1[:6]])
        test = np.concatenate([pick0[6:], pick1[6:]])
        shard = ClientShard(client_id=0, train=train, test=test, histogram=[6, 6, 0])
        lean = {0: fed.ClientState(0, shard, build_backbone(ARCH, list(server.model.params)))}
    server, _ = fed.run_round(server, lean, ds, cfg)
    assert np.array_equal(server.protos.rows([2]), kept)
    assert server.protos.labels == [0, 1, 2]


def test_per_batch_prototype_mode_completes():
    ds, cfg, server, clients = small_world(per_batch_protos=True)
    server, records = drive(ds, cfg, server, clients, 2)
    assert server.protos.labels == [0, 1, 2]
    assert records[1].distill > 0.0


def test_per_batch_prototypes_cluster_the_last_batch(monkeypatch):
    ds, cfg, server, clients = small_world(per_batch_protos=True)
    st = clients[0]
    embs, labels = [], []
    model_forward, ce_kernel = fed.BackboneStack.forward, fed.losses.cross_entropy

    def recording_forward(model, x):
        emb, logits, cache = model_forward(model, x)
        embs.append(emb[0].copy())  # the client's row of its one-client stack
        return emb, logits, cache

    def recording_ce(logits, y):
        labels.append(np.array(y[0]))
        return ce_kernel(logits, y)

    monkeypatch.setattr(fed.BackboneStack, "forward", recording_forward)
    monkeypatch.setattr(fed.losses, "cross_entropy", recording_ce)
    res = fed.client_update(
        st, ds, server.model.flat, server.protos, cfg, round_idx=1, run_seed=0
    )
    # the pass over the trained shard (infer, no cache) makes the teacher; the
    # last batch's pre-step embeddings are the prototype input
    batches = cfg.epochs * len(range(0, st.shard.train.size, cfg.batch_size))
    assert len(embs) == len(labels) == batches
    emb, y = embs[-1], labels[-1]
    assert sum(res.protos.counts.values()) == y.size < st.shard.train.size
    assert sorted(res.protos.protos) == sorted(int(c) for c in np.unique(y))
    for c in res.protos.protos:
        assert res.protos.counts[c] == int(np.sum(y == c))
        want = clustering.centroids(clustering.chac(emb[y == c], cfg.clusters_per_class))
        assert np.array_equal(np.stack(res.protos.protos[c]), want)
    t_emb, t_logits = st.teacher  # covers the whole shard, not the last batch
    assert t_emb.shape[0] == t_logits.shape[0] == st.shard.train.size


@pytest.mark.parametrize("per_batch", [False, True])
def test_client_update_clusters_once_per_class(monkeypatch, per_batch):
    ds, cfg, server, clients = small_world(per_batch_protos=per_batch)
    calls = []
    chac = fed.clustering.chac

    def counting(points, requested):
        calls.append(len(points))
        return chac(points, requested)

    monkeypatch.setattr(fed.clustering, "chac", counting)
    st = clients[0]
    fed.client_update(
        st, ds, server.model.flat, server.protos, cfg, round_idx=1, run_seed=0
    )
    assert 0 < len(calls) <= int(np.count_nonzero(st.shard.histogram))


def test_kmeans_variant_runs_and_differs_from_chac():
    ds, cfg_h, server_h, clients_h = small_world(method="mp-fedkd", seed=21)
    _, cfg_k, server_k, clients_k = small_world(method="mp-fedkd-kmeans", seed=21)
    server_h, _ = drive(ds, cfg_h, server_h, clients_h, 1)
    server_k, _ = drive(ds, cfg_k, server_k, clients_k, 1)
    assert server_k.protos.labels == [0, 1, 2]
    # same training up to prototype extraction, so models agree and tables
    # generally do not
    assert np.array_equal(
        flatten_params(server_h.model.params), flatten_params(server_k.model.params)
    )


def test_partial_participation_round():
    ds, cfg, server, clients = small_world(clients=5, fraction=0.4)
    server, (rec,) = drive(ds, cfg, server, clients, 1)
    assert len(rec.selected) == 2
    assert set(rec.selected) <= set(clients)


@pytest.mark.parametrize("method", fed.METHODS)
def test_training_never_touches_the_tape(monkeypatch, method):
    # The training step runs on plain arrays: the reference tape in diffcore
    # is for the tests, so opening one or recording an op fails the run.
    def refuse(*args, **kwargs):
        raise AssertionError("training reached the reference tape")

    monkeypatch.setattr(dc.Tape, "__enter__", refuse)
    monkeypatch.setattr(dc, "_op", refuse)
    ds, cfg, server, clients = small_world(method=method)
    _, records = drive(ds, cfg, server, clients, 2)
    assert all(r.ce > 0.0 for r in records)
    assert (records[1].proto > 0.0) == (method in fed._USES_PROTOS)


def test_client_failure_is_attributed():
    ds, cfg, server, clients = small_world()
    bad = ClientShard(client_id=1, train=[10**6], test=[], histogram=[1, 0, 0])
    clients[1] = fed.ClientState(1, bad, clients[1].model)
    with pytest.raises(fed.FederationError, match="client 1 failed in round 1"):
        fed.run_round(server, clients, ds, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_client_names_round_client_batch_and_op():
    ds, cfg, server, clients = small_world(learning_rate=1e300)
    with pytest.raises(fed.FederationError) as info:
        drive(ds, cfg, server, clients, 1)
    assert str(info.value) == (
        "client 0 failed in round 1: epoch 0 batch 1: affine produced a non-finite value"
    )
    assert isinstance(info.value.__cause__.__cause__, dc.NonFiniteError)


def nan_teacher_world():
    # After round 1, clients 0 and 2 get a NaN teacher logit: in round 2
    # client 2 fails at batch 0 and client 0 at a later batch.
    ds, cfg, server, clients = small_world()
    server, _ = drive(ds, cfg, server, clients, 1)
    bad_batch = {}
    for cid, pick in ((0, -1), (2, 0)):
        st = clients[cid]
        seeds = np.random.SeedSequence([server.seed, fed._SHUFFLE_STREAM, 2, cid])
        rng = np.random.default_rng(seeds)
        perm = rng.permutation(st.shard.train.size)
        logits = st.teacher[1].copy()
        logits[perm[pick]] = np.nan
        st.teacher = (st.teacher[0], logits)
        bad_batch[cid] = (perm.size + pick) % perm.size // cfg.batch_size
    assert bad_batch[2] == 0 < bad_batch[0]
    return ds, cfg, server, clients, bad_batch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lockstep_failure_names_the_lowest_failing_client():
    # Clients 0 and 2 stack together, so the failed stack steps again client
    # by client: the error names client 0 with its own batch, and client 1
    # finishes its round.
    ds, cfg, server, clients, bad_batch = nan_teacher_world()
    teacher1 = clients[1].teacher
    with pytest.raises(fed.FederationError) as info:
        fed.run_round(server, clients, ds, cfg)
    assert str(info.value) == (
        f"client 0 failed in round 2: epoch 0 batch {bad_batch[0]}: "
        "distill_loss produced a non-finite value"
    )
    assert isinstance(info.value.__cause__.__cause__, dc.NonFiniteError)
    assert clients[1].teacher is not teacher1  # trained to the end


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_retried_client_ends_where_it_would_alone(monkeypatch):
    # The three clients stack; each failed stack's clients step again alone.
    # Clients 0 and 2 stop at their own batches, and client 1, retried with
    # them, ends bit for bit where it ends when it trains alone.
    ds, cfg, server, clients, bad_batch = nan_teacher_world()
    _, _, fresh_server, alone = small_world()
    drive(ds, cfg, fresh_server, alone, 1)
    groups, step = [], fed._step

    def spy(model, runs, *args):
        groups.append([r.state.client_id for r in runs])
        return step(model, runs, *args)

    monkeypatch.setattr(fed, "_step", spy)
    got = fed.train_clients([clients[c] for c in (0, 1, 2)], ds, server.model.flat,
                            server.protos, cfg, 2, server.seed)
    assert [0, 1, 2] in groups and [1] in groups
    for cid in (0, 2):
        assert isinstance(got[cid], fed.FederationError)
        assert str(got[cid]) == (
            f"epoch 0 batch {bad_batch[cid]}: distill_loss produced a non-finite value"
        )
    want = fed.client_update(alone[1], ds, server.model.flat, server.protos, cfg, 2, server.seed)
    assert _result_bytes(got[1]) == _result_bytes(want)
    assert clients[1].model.flat.tobytes() == alone[1].model.flat.tobytes()


def ragged_world(method, workers=1):
    # Unequal shards at batch 8: the clients' remainder batches differ in size
    # and fall at different schedule indices, so stacks split and regroup.
    ds = synth_blobs(classes=3, per_class=40, dim=2, spread=0.3, seed=13)
    plan = partition_dirichlet(ds, clients=5, alpha=0.5, test_fraction=0.2, seed=3)
    cfg = fed.FedConfig(method=method, rounds=2, epochs=2, batch_size=8, learning_rate=0.05,
                        workers=workers)
    server, clients = fed.init_federation(ARCH, plan, seed=2)
    sizes = [st.shard.train.size for st in clients.values()]
    assert len(set(sizes)) == len(sizes) and len({n % 8 for n in sizes}) > 2
    return ds, cfg, server, clients


def _result_bytes(res):
    protos = None if res.protos is None else sorted(
        (c, block.tobytes(), res.protos.counts[c]) for c, block in res.protos.protos.items()
    )
    flat = None if res.flat is None else res.flat.tobytes()
    return res.client_id, flat, protos, res.train_size, res.ce, res.distill, res.align, res.proto


@pytest.mark.parametrize("method", fed.METHODS)
def test_lockstep_gives_each_client_its_lone_result(method):
    # Two rounds of the whole round's lockstep against client_update on each
    # client alone: the same parameters, prototypes and losses, bit for bit.
    ds, cfg, server, together = ragged_world(method)
    _, _, _, alone = ragged_world(method)
    ids, stacked, step = sorted(together), [], fed._step

    def counting(model, runs, *args):
        stacked.append(len(runs))
        return step(model, runs, *args)

    for round_idx in (1, 2):
        flat = server.model.flat if method in fed._SHARES_MODEL else None
        stacked.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(fed, "_step", counting)
            got = fed.train_clients([together[c] for c in ids], ds, flat, server.protos, cfg,
                                    round_idx, server.seed)
        # every client step ran once, most of them in stacks
        assert sum(stacked) == sum(cfg.epochs * -(-together[c].shard.train.size // 8) for c in ids)
        assert sum(g for g in stacked if g > 1) > sum(stacked) // 2
        want = [fed.client_update(alone[c], ds, flat, server.protos, cfg, round_idx, server.seed)
                for c in ids]
        assert [_result_bytes(r) for r in got] == [_result_bytes(r) for r in want]
        assert [together[c].model.flat.tobytes() for c in ids] == [
            alone[c].model.flat.tobytes() for c in ids
        ]
        if method in fed._SHARES_MODEL:
            server.model.adopt(fed.aggregate_models(
                {r.client_id: r.flat for r in got}, {r.client_id: r.train_size for r in got}
            ))
        if method in fed._USES_PROTOS:
            server.protos = fed.aggregate_prototypes(
                {r.client_id: r.protos for r in got}, ARCH.embedding_dim, cfg.aggregation
            )


def ten_class_world():
    # Four mp-fedkd clients in round 2 on 10-class blobs, the table missing
    # class 3. Client 0 owns classes 0 and 3: one column of the table, and a
    # batch class without a prototype. Client 1 owns all ten classes (nine
    # columns, past numpy's 8-element summation block), client 2 three, and
    # client 3 has no teacher yet. At batch 8 their remainder batches differ.
    ds = synth_blobs(classes=10, per_class=30, dim=3, spread=0.4, seed=6)
    arch = Arch(kind="mlp", input_dim=3, embedding_dim=5, num_classes=10, hidden=8)
    rng = np.random.default_rng(6)
    owned, sizes = [[0, 3], list(range(10)), [2, 4, 5], [1, 6]], [21, 46, 29, 19]
    states = []
    for cid, (classes, size) in enumerate(zip(owned, sizes)):
        train = rng.choice(np.flatnonzero(np.isin(ds.labels, classes)), size, replace=False)
        hist = np.bincount(ds.labels[train], minlength=10)
        states.append(fed.ClientState(cid, ClientShard(cid, train, np.zeros(0, int), hist), None))
        if cid < 3:
            states[-1].teacher = (rng.normal(size=(size, 5)), 3.0 * rng.normal(size=(size, 10)))
    protos = GlobalPrototypes.of(5, {c: rng.normal(size=5) for c in range(10) if c != 3})
    flat = fed.init_backbone(arch, rng).flat
    for st in states:
        st.model = Backbone(arch, flat)
    cfg = fed.FedConfig(rounds=2, epochs=2, batch_size=8, learning_rate=0.05)
    return ds, cfg, states, flat, protos


def test_mp_terms_on_the_stack_give_each_client_its_lone_result(monkeypatch):
    # Distillation and the loss mixes run over the stack's client axis, align
    # from the round's table of teacher distances and attract from repel's
    # distances: every client's result and parameters are bitwise its lone
    # client_update's, the client without a teacher's included.
    ds, cfg, together, flat, protos = ten_class_world()
    *_, alone, _, _ = ten_class_world()
    stacked, step = [], fed._step

    def spy(model, runs, *args):
        stacked.append([(r.state.client_id, r.own and len(r.own.labels)) for r in runs])
        return step(model, runs, *args)

    monkeypatch.setattr(fed, "_step", spy)
    got = fed.train_clients(together, ds, flat, protos, cfg, 2, 0)
    # three clients with their own tables' widths, and one without a teacher
    assert [(0, 1), (1, 9), (2, 3), (3, None)] in stacked
    assert [len(g) for g in stacked].count(1) >= 2  # the remainder batches split the stack
    for st in alone:
        want = fed.client_update(st, ds, flat, protos, cfg, 2, 0)
        assert _result_bytes(got[st.client_id]) == _result_bytes(want)
        assert together[st.client_id].model.flat.tobytes() == st.model.flat.tobytes()
    assert all(r.align > 0.0 and r.proto != 0.0 for r in got[:3])
    assert got[3].distill == got[3].align == got[3].proto == 0.0


@pytest.mark.parametrize("method", fed.METHODS)
def test_worker_chunks_do_not_change_a_ragged_run(method):
    # workers splits the sorted clients into contiguous lockstep chunks.
    runs = []
    for workers in (1, 2, 5):
        ds, cfg, server, clients = ragged_world(method, workers)
        server, records = drive(ds, cfg, server, clients, 2)
        runs.append((
            server.model.flat.tobytes(),
            [clients[c].model.flat.tobytes() for c in sorted(clients)],
            server.protos.labels,
            server.protos.matrix.tobytes(),
            [dataclasses.replace(r, wall_time=0.0) for r in records],
        ))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("kind", ["cnn", "mlp"])
def test_stacked_steps_stay_within_the_entry_cap(monkeypatch, kind):
    # Every training forward of a 10-client round, each one a stack, holds at
    # most _STACK_ENTRIES with its gradient: the 28x28 cnn (at batch 8, where
    # one client fits and two do not) steps one client at a time, the small
    # 784-wide mlp several at once.
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(10), 40)
    ds = Dataset(rng.uniform(size=(labels.size, 784)), labels, 10, "noise", image_shape=(1, 28, 28))
    plan = partition_dirichlet(ds, clients=10, alpha=1.0, test_fraction=0.2, seed=0)
    arch = Arch(kind=kind, input_dim=784, embedding_dim=8, num_classes=10, hidden=16,
                image_shape=(1, 28, 28) if kind == "cnn" else None)
    batch = 8 if kind == "cnn" else 16
    cfg = fed.FedConfig(method="fedavg", rounds=1, epochs=1, batch_size=batch, learning_rate=0.01)
    server, clients = fed.init_federation(arch, plan, seed=0)
    per_row = forward_entries(arch)  # its one-row probe forward runs before the spy
    calls, forward = [], fed.Backbone.forward

    def spy(model, x):
        calls.append((x.shape[0], x.shape[1], model.flat.shape[1]))
        return forward(model, x)

    monkeypatch.setattr(fed.Backbone, "forward", spy)
    fed.run_round(server, clients, ds, cfg)
    assert sum(g for g, _, _ in calls) == sum(
        -(-st.shard.train.size // batch) for st in clients.values()
    )
    entries = [g * (rows * per_row + size) for g, rows, size in calls]
    assert max(entries) <= fed._STACK_ENTRIES
    stacked = max(g for g, _, _ in calls)
    assert stacked == 1 if kind == "cnn" else stacked > 1


def test_personal_vectors_live_only_in_their_stacks():
    # Twelve fedproto clients with personal 784-128-64 mlps, each of which
    # steps alone at batch 32. While they train, a client's parameters live
    # only in its stack: a state that kept its vector beside the stack's copy
    # would add one vector per client to the peak.
    rng = np.random.default_rng(0)
    clients, rows = 12, 32
    labels = np.repeat(np.arange(10), 40)
    ds = Dataset(rng.uniform(size=(labels.size, 784)), labels, 10, "noise")
    arch = Arch(kind="mlp", input_dim=784, embedding_dim=64, num_classes=10, hidden=128)
    protos = GlobalPrototypes.of(64, {c: rng.normal(size=64) for c in range(10)})
    cfg = fed.FedConfig(method="fedproto", epochs=2, batch_size=rows, learning_rate=0.01)
    order = rng.permutation(labels.size)
    tracemalloc.start()  # before the personal vectors, whose release is then traced too
    try:
        states = []
        for cid in range(clients):
            train = order[cid * rows : (cid + 1) * rows]
            hist = np.bincount(labels[train], minlength=10)
            shard = ClientShard(cid, train, np.zeros(0, int), hist)
            states.append(fed.ClientState(cid, shard, init_backbone(arch, rng)))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = fed.train_clients(states, ds, None, protos, cfg, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_params = states[0].model.flat.size
    assert fed._STACK_ENTRIES // (rows * forward_entries(arch) + n_params) == 1  # alone
    assert all(isinstance(r, fed.ClientRoundResult) for r in got)
    assert peak - start < 0.5 * clients * 8 * n_params


def test_align_weight_is_a_diagnostic():
    # The alignment term has no gradient path (the teacher's embeddings and the
    # prototypes are constants), so its weight cannot move the parameters.
    finals, aligns = [], []
    for weight in (0.0, 1.0):
        ds, cfg, server, clients = small_world(
            seed=4, rounds=2, weights=LossWeights(align_weight=weight)
        )
        server, records = drive(ds, cfg, server, clients, 2)
        finals.append(flatten_params(server.model.params))
        aligns.append(records[1].align)
    assert np.array_equal(finals[0], finals[1])
    assert aligns[0] == aligns[1] > 0.0


# ------------------------------------------------------------ evaluation


@pytest.mark.parametrize("method", ["fedproto", "fedavg"])
def test_round_metrics_by_hand(method):
    ds, cfg, server, clients = small_world(method=method, epochs=1, learning_rate=0.01)
    # client 1 keeps three test rows and client 2 none, so the mean of the
    # per-client accuracies differs from the pooled accuracy
    for cid, keep in ((1, 3), (2, 0)):
        sh = clients[cid].shard
        shard = ClientShard(cid, sh.train, sh.test[:keep], sh.histogram)
        clients[cid] = fed.ClientState(cid, shard, clients[cid].model)
    server, (rec,) = drive(ds, cfg, server, clients, 1)

    preds, ys = [], []
    for cid in (0, 1):  # fedproto: the personal models; fedavg: the server model
        model = clients[cid].model if method == "fedproto" else server.model
        te = clients[cid].shard.test
        _, logits, _ = model.forward(ds.rows(te))
        preds.append(np.argmax(logits, axis=1))
        ys.append(ds.labels[te])
    per_client = np.mean([np.mean(p == y) for p, y in zip(preds, ys)])
    p, y = np.concatenate(preds), np.concatenate(ys)
    pooled = np.mean(p == y)
    assert per_client != pooled
    err = (p - y).astype(float)
    f1 = []
    for c in range(ds.num_classes):
        tp = np.sum((p == c) & (y == c))
        wrong = np.sum((p == c) != (y == c))  # false positives plus false negatives
        f1.append(2 * tp / (2 * tp + wrong) if tp + wrong else 0.0)
    want = (
        per_client if method == "fedproto" else pooled,
        np.sqrt(np.mean(err**2)),
        np.mean(np.abs(err)),
        np.mean(f1),
    )
    assert (rec.acc, rec.rmse, rec.mae, rec.macro_f1) == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- traffic


def test_topology_round_robin_assignment(tmp_path):
    # run_experiment hangs the sorted client ids off the hubs round robin:
    # of 5 clients, 0, 2 and 4 on hub 0, 1 and 3 on hub 1. fedavg's payload
    # is the parameter vector both ways.
    _, _, server, _ = small_world(method="fedavg")
    param_bytes = 8 * sum(p.size for p in server.model.params)
    cfg = ExperimentConfig(
        clients=5, alpha=1e6, hidden=8, embedding_dim=4, method="fedavg", rounds=3,
        epochs=1, fraction=0.6, hubs=2, out=str(tmp_path / "run"),
    )
    summary, records = run_experiment(cfg)
    picks = [cid for rec in records for cid in rec.selected]
    want = [param_bytes * sum(1 for cid in picks if cid % 2 == hub) for hub in (0, 1)]
    assert all(want) and sum(want) == 3 * 3 * param_bytes
    assert summary["traffic"] == {
        "down_bytes_per_hub": want,
        "up_bytes_per_hub": want,
        "total_down_bytes": sum(want),
        "total_up_bytes": sum(want),
    }


def test_topology_accounting_fedavg_round():
    ds, cfg, server, clients = small_world(method="fedavg")
    param_bytes = 8 * sum(p.size for p in server.model.params)
    _, rec = fed.run_round(server, clients, ds, cfg)
    assert rec.selected == (0, 1, 2)
    assert rec.bytes_down == param_bytes
    assert rec.bytes_up == (param_bytes,) * 3


def test_topology_accounting_prototype_traffic():
    ds, cfg, server, clients = small_world()
    param_bytes = 8 * sum(p.size for p in server.model.params)
    server, rec = fed.run_round(server, clients, ds, cfg)
    # round 1 downlink has no prototypes yet
    assert rec.bytes_down == param_bytes
    assert len(rec.bytes_up) == 3
    assert all(up > param_bytes for up in rec.bytes_up)  # prototype blocks ride along
    _, rec = fed.run_round(server, clients, ds, cfg)
    # round 2 downlink now carries the table: 3 classes x embedding_dim
    assert rec.bytes_down == param_bytes + 8 * 3 * ARCH.embedding_dim


def test_fedproto_traffic_is_prototype_only():
    ds, cfg, server, clients = small_world(method="fedproto")
    server, rec = fed.run_round(server, clients, ds, cfg)
    assert rec.bytes_down == 0  # no model and no table yet
    # one vector per class per client on a near-IID split
    assert rec.bytes_up == (8 * 3 * ARCH.embedding_dim,) * 3
