import dataclasses

import numpy as np
import pytest

import protofed.diffcore as dc
import protofed.federation as fed
from protofed.data import ClientShard, partition_dirichlet, synth_blobs
from protofed.losses import GlobalPrototypes, LossWeights, PrototypeCoverageWarning
from protofed.model import Arch, build_backbone, flatten_params


ARCH = Arch(kind="mlp", input_dim=2, embedding_dim=4, num_classes=3, hidden=8)


def small_world(method="mp-fedkd", clients=3, seed=7, **over):
    ds = synth_blobs(classes=3, per_class=30, dim=2, spread=0.15, seed=11)
    ds, plan = partition_dirichlet(ds, clients=clients, alpha=1e6, test_fraction=0.2, seed=5)
    over.setdefault("rounds", 3)
    over.setdefault("epochs", 2)
    over.setdefault("batch_size", 16)
    over.setdefault("learning_rate", 0.05)
    cfg = fed.FedConfig(method=method, **over)
    server, clients_map = fed.init_federation(ARCH, plan, seed=seed)
    return ds, cfg, server, clients_map


def drive(ds, cfg, server, clients, rounds, topology=None):
    records = []
    for _ in range(rounds):
        server, rec = fed.run_round(server, clients, ds, cfg, topology)
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
    return (dc.Tensor(np.array([value])),)


def test_aggregate_models_weighted_hand_value():
    params = {0: _one_param_client(0.0), 1: _one_param_client(4.0)}
    out = fed.aggregate_models(params, {0: 1, 1: 3})
    assert out[0].data[0] == pytest.approx(3.0)


def test_aggregate_models_order_invariant_bitwise():
    params = {0: _one_param_client(0.1), 1: _one_param_client(0.7), 2: _one_param_client(0.3)}
    sizes = {0: 2, 1: 5, 2: 3}
    a = fed.aggregate_models(params, sizes)
    flipped = dict(reversed(list(params.items())))
    b = fed.aggregate_models(flipped, sizes)
    assert np.array_equal(a[0].data, b[0].data)


def test_aggregate_models_validation():
    with pytest.raises(ValueError):
        fed.aggregate_models({}, {})
    with pytest.raises(ValueError):
        fed.aggregate_models({0: _one_param_client(1.0)}, {1: 3})


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
    assert normalized.get(0)[0] == pytest.approx(1.0)
    assert literal.get(0)[0] == pytest.approx(0.5)


def test_aggregate_prototypes_count_weighting():
    sets = {
        0: _proto_set({0: [[0.0]]}, {0: 1}),
        1: _proto_set({0: [[4.0]]}, {0: 3}),
    }
    table = fed.aggregate_prototypes(sets, 1, "normalized")
    assert table.get(0)[0] == pytest.approx(3.0)


def test_aggregate_prototypes_multiple_vectors_average():
    sets = {0: _proto_set({2: [[0.0], [2.0]]}, {2: 6})}
    table = fed.aggregate_prototypes(sets, 1, "normalized")
    assert table.get(2)[0] == pytest.approx(1.0)
    # single member: literal prefactor 1/(1*2) gives the same mean
    literal = fed.aggregate_prototypes(sets, 1, "literal")
    assert literal.get(2)[0] == pytest.approx(1.0)


def test_prototype_set_validation():
    with pytest.raises(ValueError):
        fed.PrototypeSet(protos={0: [np.zeros(2)]}, counts={})
    with pytest.raises(ValueError):
        fed.PrototypeSet(protos={0: []}, counts={0: 1})
    with pytest.raises(ValueError):
        fed.PrototypeSet(protos={0: [np.zeros(2)], 1: [np.zeros(3)]}, counts={0: 1, 1: 1})


# ------------------------------------------------------------ round flow


def test_first_round_trains_on_ce_only():
    ds, cfg, server, clients = small_world()
    server, (rec,) = drive(ds, cfg, server, clients, 1)
    assert rec.round_idx == 1
    assert rec.ce > 0.0
    assert rec.distill == 0.0
    assert rec.align == 0.0
    assert rec.proto == 0.0
    # every class produced prototypes in round 1
    assert server.protos.classes() == [0, 1, 2]
    for st in clients.values():
        assert st.teacher is not None and st.teacher.round_idx == 1


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
        st, ds, tuple(server.model.params), server.protos, cfg, round_idx=2, run_seed=0
    )
    # never participated before: no teacher, so no auxiliary terms
    assert res.distill == 0.0 and res.align == 0.0 and res.proto == 0.0
    assert res.ce > 0.0


def test_round_two_with_empty_prototype_table_warns():
    ds, cfg, server, clients = small_world()
    st = clients[1]
    res1 = fed.client_update(
        st, ds, tuple(server.model.params), server.protos, cfg, round_idx=1, run_seed=0
    )
    assert st.teacher is not None
    with pytest.warns(PrototypeCoverageWarning):
        fed.client_update(
            st, ds, tuple(server.model.params), GlobalPrototypes(ARCH.embedding_dim),
            cfg, round_idx=2, run_seed=0,
        )


def test_epochs_zero_roundtrip():
    ds, cfg, server, clients = small_world(epochs=0)
    before = flatten_params(server.model.params).copy()
    server, (rec,) = drive(ds, cfg, server, clients, 1)
    assert rec.ce == 0.0 and rec.distill == 0.0
    # aggregate of identical untouched models stays put
    np.testing.assert_allclose(flatten_params(server.model.params), before, rtol=0, atol=1e-15)
    assert server.protos.classes() == [0, 1, 2]


def test_fedavg_keeps_prototype_table_empty():
    ds, cfg, server, clients = small_world(method="fedavg")
    server, records = drive(ds, cfg, server, clients, 2)
    assert len(server.protos) == 0
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


def test_fedproto_keeps_personal_models_and_server_fixed():
    ds, cfg, server, clients = small_world(method="fedproto")
    before = flatten_params(server.model.params).copy()
    server, records = drive(ds, cfg, server, clients, 2)
    assert np.array_equal(flatten_params(server.model.params), before)
    assert server.protos.classes() == [0, 1, 2]
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
    for c in server1.protos.classes():
        a = np.asarray(server1.protos.get(c), dtype=float)
        b = np.asarray(server4.protos.get(c), dtype=float)
        assert np.array_equal(a, b)


def test_stale_class_prototypes_survive_absence():
    ds, cfg, server, clients = small_world()
    server, _ = drive(ds, cfg, server, clients, 1)
    kept = np.array(server.protos.get(2), dtype=float, copy=True)
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
    assert np.array_equal(np.array(server.protos.get(2), dtype=float), kept)
    assert server.protos.classes() == [0, 1, 2]


def test_per_batch_prototype_mode_completes():
    ds, cfg, server, clients = small_world(per_batch_protos=True)
    server, records = drive(ds, cfg, server, clients, 2)
    assert server.protos.classes() == [0, 1, 2]
    assert records[1].distill > 0.0


def test_kmeans_variant_runs_and_differs_from_chac():
    ds, cfg_h, server_h, clients_h = small_world(method="mp-fedkd", seed=21)
    _, cfg_k, server_k, clients_k = small_world(method="mp-fedkd-kmeans", seed=21)
    server_h, _ = drive(ds, cfg_h, server_h, clients_h, 1)
    server_k, _ = drive(ds, cfg_k, server_k, clients_k, 1)
    assert server_k.protos.classes() == [0, 1, 2]
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
        "client 0 failed in round 1: epoch 0 batch 1: matmul produced a non-finite value"
    )
    assert isinstance(info.value.__cause__.__cause__, dc.NonFiniteError)


def test_align_weight_is_a_diagnostic():
    # The alignment term has no gradient path (detached embeddings, plain-array
    # prototypes), so its weight cannot move the parameters.
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


# -------------------------------------------------------------- topology


def test_topology_round_robin_assignment():
    topo = fed.Topology.round_robin([4, 2, 7], num_hubs=2)
    assert topo.assignment == {2: 0, 4: 1, 7: 0}
    with pytest.raises(ValueError):
        topo.record_down(99, 10)
    with pytest.raises(ValueError):
        fed.Topology(0, {})


def test_topology_accounting_fedavg_round():
    ds, cfg, server, clients = small_world(method="fedavg")
    topo = fed.Topology.round_robin(list(clients), num_hubs=2)
    param_bytes = 8 * sum(p.size for p in server.model.params)
    fed.run_round(server, clients, ds, cfg, topology=topo)
    assert topo.total_down == 3 * param_bytes
    assert topo.total_up == 3 * param_bytes
    assert sum(1 for b in topo.bytes_down if b > 0) == 2


def test_topology_accounting_prototype_traffic():
    ds, cfg, server, clients = small_world()
    topo = fed.Topology.round_robin(list(clients), num_hubs=1)
    param_bytes = 8 * sum(p.size for p in server.model.params)
    server, _ = fed.run_round(server, clients, ds, cfg, topology=topo)
    # round 1 downlink has no prototypes yet
    assert topo.total_down == 3 * param_bytes
    assert topo.total_up > 3 * param_bytes  # prototype vectors ride along
    down_r1 = topo.total_down
    fed.run_round(server, clients, ds, cfg, topology=topo)
    # round 2 downlink now carries the table: 3 classes x embedding_dim
    expected_table = 8 * 3 * ARCH.embedding_dim
    assert topo.total_down == down_r1 + 3 * (param_bytes + expected_table)


def test_fedproto_traffic_is_prototype_only():
    ds, cfg, server, clients = small_world(method="fedproto")
    topo = fed.Topology.round_robin(list(clients), num_hubs=1)
    server, _ = fed.run_round(server, clients, ds, cfg, topology=topo)
    assert topo.total_down == 0  # no model and no table yet
    assert 0 < topo.total_up == 8 * sum(
        r * ARCH.embedding_dim for r in (3, 3, 3)
    )  # one vector per class per client on a near-IID split
