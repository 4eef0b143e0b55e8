"""Federated training loop: client selection, local updates, aggregation.

One server model travels to the selected clients each round; clients train
locally, extract per-class prototype vectors from their embeddings, and send
both back. The server averages models by training-set size and merges
prototype tables, keeping stale classes until fresh evidence arrives.
Personal-model training (fedproto) skips the model exchange entirely.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import chac as clustering
from . import diffcore as dc
from . import losses
from .data import ClientShard, Dataset, PartitionPlan
from .losses import GlobalPrototypes, LossWeights
from .metrics import RoundRecord, accuracy, macro_f1, rmse_mae
from .model import Arch, Backbone, ModelSnapshot, build_backbone, init_backbone, flatten_params, sgd_step, snapshot, unflatten_params

__all__ = [
    "FederationError",
    "FedConfig",
    "PrototypeSet",
    "ClientState",
    "ServerState",
    "Topology",
    "select_clients",
    "client_update",
    "aggregate_models",
    "aggregate_prototypes",
    "init_federation",
    "run_round",
]

# SeedSequence stream tags; data.py owns 101/102, chac.py owns 103.
_SELECT_STREAM = 104
_SHUFFLE_STREAM = 105
_CLUSTER_STREAM = 106
_INIT_STREAM = 107

METHODS = ("mp-fedkd", "mp-fedkd-kmeans", "fedavg", "fedprox", "fedproto")
_MULTI_PROTO = ("mp-fedkd", "mp-fedkd-kmeans")


class FederationError(RuntimeError):
    """A client update or aggregation step failed."""


@dataclass(frozen=True)
class FedConfig:
    """Everything the training loop needs beyond data and model shape."""

    method: str = "mp-fedkd"
    rounds: int = 50
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.001
    fraction: float = 1.0
    clusters_per_class: int = 3
    aggregation: str = "normalized"  # prototype weighting: "normalized" | "literal"
    prox_rho: float = 0.01
    fedproto_weight: float = 1.0
    workers: int = 1
    per_batch_protos: bool = False
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must sit in (0, 1]")
        if self.clusters_per_class < 1:
            raise ValueError("clusters_per_class must be >= 1")
        if self.aggregation not in ("normalized", "literal"):
            raise ValueError(f"unknown prototype aggregation {self.aggregation!r}")
        if self.prox_rho < 0:
            raise ValueError("prox_rho must be >= 0")
        if self.fedproto_weight < 0:
            raise ValueError("fedproto_weight must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class PrototypeSet:
    """One client's per-class prototype vectors plus sample counts."""

    protos: dict[int, list[np.ndarray]]
    counts: dict[int, int]

    def __post_init__(self):
        if set(self.protos) != set(self.counts):
            raise ValueError("prototype and count keys disagree")
        dim = None
        for label, vecs in self.protos.items():
            if not vecs:
                raise ValueError(f"class {label} has no prototype vectors")
            if self.counts[label] < 1:
                raise ValueError(f"class {label} has a nonpositive sample count")
            for v in vecs:
                v = np.asarray(v)
                if v.ndim != 1:
                    raise ValueError("prototype vectors must be 1-D")
                if dim is None:
                    dim = v.shape[0]
                elif v.shape[0] != dim:
                    raise ValueError("prototype vectors have mixed widths")

    def classes(self) -> list[int]:
        return sorted(self.protos)

    def vector_floats(self) -> int:
        return sum(len(vecs) * vecs[0].shape[0] for vecs in self.protos.values())


@dataclass
class ClientState:
    client_id: int
    shard: ClientShard
    model: Backbone
    teacher: Optional[ModelSnapshot] = None


@dataclass
class ServerState:
    model: Backbone
    protos: GlobalPrototypes
    seed: int = 0
    round_idx: int = 0  # rounds completed so far


class Topology:
    """Clients hang off intermediate relay hubs; traffic is tallied per hub.

    Accounting covers payload floats only (8 bytes each), not framing.
    """

    def __init__(self, num_hubs: int, assignment: Mapping[int, int]):
        if num_hubs < 1:
            raise ValueError("need at least one hub")
        for cid, hub in assignment.items():
            if not 0 <= hub < num_hubs:
                raise ValueError(f"client {cid} assigned to unknown hub {hub}")
        self.num_hubs = num_hubs
        self.assignment = dict(assignment)
        self.bytes_down = [0] * num_hubs
        self.bytes_up = [0] * num_hubs

    @classmethod
    def round_robin(cls, client_ids: Sequence[int], num_hubs: int) -> "Topology":
        ids = sorted(int(i) for i in client_ids)
        return cls(num_hubs, {cid: pos % num_hubs for pos, cid in enumerate(ids)})

    def _hub_of(self, client_id: int) -> int:
        try:
            return self.assignment[client_id]
        except KeyError:
            raise ValueError(f"client {client_id} is not attached to any hub") from None

    def record_down(self, client_id: int, nbytes: int) -> None:
        self.bytes_down[self._hub_of(client_id)] += int(nbytes)

    def record_up(self, client_id: int, nbytes: int) -> None:
        self.bytes_up[self._hub_of(client_id)] += int(nbytes)

    @property
    def total_down(self) -> int:
        return sum(self.bytes_down)

    @property
    def total_up(self) -> int:
        return sum(self.bytes_up)


@dataclass
class ClientRoundResult:
    client_id: int
    params: tuple[dc.Tensor, ...]
    protos: Optional[PrototypeSet]
    train_size: int
    ce: float
    distill: float
    align: float
    proto: float


def select_clients(client_ids, fraction: float, seed: int, round_idx: int) -> tuple[int, ...]:
    """Sample round(fraction * M) clients, at least one, without replacement.

    Deterministic in (seed, round_idx) alone, so reruns and worker counts
    cannot change who participates.
    """
    ids = sorted(set(int(i) for i in client_ids))
    if not ids:
        raise ValueError("no clients to select from")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must sit in (0, 1]")
    if round_idx < 1:
        raise ValueError("round index must be >= 1")
    k = min(len(ids), max(1, int(round(fraction * len(ids)))))
    rng = np.random.default_rng(np.random.SeedSequence([seed, _SELECT_STREAM, round_idx]))
    picked = rng.choice(len(ids), size=k, replace=False)
    return tuple(sorted(ids[i] for i in picked))


def _forward_chunks(model: Backbone, feats: np.ndarray, batch: int) -> tuple[np.ndarray, ...]:
    """Embeddings and logits of ``feats``, ``batch`` rows per forward pass."""
    embs, logits = [], []
    for i in range(0, feats.shape[0], batch):
        emb, out = model.infer(feats[i : i + batch])
        embs.append(emb)
        logits.append(out)
    if not embs:
        return np.zeros((0, model.embedding_dim)), np.zeros((0, model.num_classes))
    return np.concatenate(embs, axis=0), np.concatenate(logits, axis=0)


def _class_prototypes(
    emb: np.ndarray, labels: np.ndarray, cfg: FedConfig, seed_parts: Sequence[int]
) -> PrototypeSet:
    """Per-class prototypes: the class mean for fedproto, otherwise up to
    clusters_per_class cluster means from chac (or kmeans)."""
    protos: dict[int, list[np.ndarray]] = {}
    counts: dict[int, int] = {}
    for c in sorted(int(v) for v in np.unique(labels)):
        rows = emb[labels == c]
        counts[c] = int(rows.shape[0])
        if cfg.method == "fedproto":
            protos[c] = [rows.mean(axis=0)]
            continue
        if cfg.method == "mp-fedkd-kmeans":
            seed = int(np.random.SeedSequence([*seed_parts, _CLUSTER_STREAM, c]).generate_state(1)[0])
            result = clustering.kmeans(rows, cfg.clusters_per_class, seed)
        else:
            result = clustering.chac(rows, cfg.clusters_per_class)
        cents = clustering.centroids(result)
        protos[c] = [cents[i].copy() for i in range(cents.shape[0])]
    return PrototypeSet(protos=protos, counts=counts)


def client_update(
    state: ClientState,
    dataset: Dataset,
    global_params: Optional[Sequence[dc.Tensor]],
    global_protos: GlobalPrototypes,
    cfg: FedConfig,
    round_idx: int,
    run_seed: int,
) -> ClientRoundResult:
    """One client's whole contribution to a round.

    For the shared-model methods the received parameters replace the local
    ones before training. After round 1 the multi-prototype methods add the
    distillation and attract/repel terms and log the alignment diagnostic,
    all referenced against the model this client trained in its previous
    participation (a client joining late starts with plain cross entropy
    once). fedproto never loads the global model and regularizes class means
    toward global prototypes. A failing batch raises ``FederationError``
    naming its epoch and batch index.
    """
    if round_idx < 1:
        raise ValueError("round index must be >= 1")
    method = cfg.method
    w = cfg.weights
    if method != "fedproto":
        if global_params is None:
            raise ValueError("shared-model methods need the global parameters")
        state.model.load(list(global_params))
        anchor = list(global_params)

    feats = dataset.features.data
    labels_all = dataset.labels
    train_idx = state.shard.train
    n = int(train_idx.shape[0])

    aux = method in _MULTI_PROTO and round_idx != 1 and state.teacher is not None
    teacher_model = state.teacher.build() if aux else None
    own_classes = [int(c) for c in np.flatnonzero(state.shard.histogram > 0)]

    rng = np.random.default_rng(
        np.random.SeedSequence([run_seed, _SHUFFLE_STREAM, round_idx, state.client_id])
    )

    sums = {"ce": 0.0, "distill": 0.0, "align": 0.0, "proto": 0.0}
    batches_seen = 0
    # (embeddings, labels) the prototypes come from; in per-batch mode, the
    # last batch's pre-step embeddings, otherwise the trained shard's.
    proto_input: Optional[tuple[np.ndarray, np.ndarray]] = None

    for epoch in range(cfg.epochs):
        order = train_idx[rng.permutation(n)]
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            try:
                idx = order[start : start + cfg.batch_size]
                xb = dc._wrap(feats[idx], "batch")  # fresh gather: no second copy
                yb = labels_all[idx]
                if aux:
                    t_emb, t_logits = teacher_model.infer(xb.data)  # constants: off the tape
                    # A diagnostic, so off the tape too: its embeddings are detached
                    # and the prototypes are plain arrays, leaving no gradient path.
                    # The attract term regroups the student's embeddings by it.
                    groups = losses.ClassGroups(t_emb, yb)
                    al = losses.align_loss(groups, global_protos)
                with dc.Tape() as tape:
                    state.model.watch(tape)
                    emb, logits = state.model.forward(xb)
                    ce = losses.cross_entropy(logits, yb)
                    if aux:
                        dist = losses.distill_loss(t_logits, logits, w.temperature)
                        att = losses.attract_loss(
                            groups.with_embeddings(emb), global_protos, w.scale
                        )
                        rep = losses.repel_loss(emb, global_protos, w.scale, classes=own_classes)
                        pair = losses.attract_repel_loss(att, rep, w.balance)
                        loss = losses.local_loss(ce, dist, al, pair, w, round_idx)
                        sums["distill"] += dist.item()
                        sums["align"] += al.item()
                        sums["proto"] += pair.item()
                    else:
                        loss = ce
                    if method == "fedproto":
                        groups = losses.ClassGroups(emb, yb)
                        covered, weights, targets = groups.covered(global_protos)
                        if covered:
                            centers = dc.matmul(weights.T, emb)
                            reg = dc.tmean(dc.square(dc.sub(centers, targets)))
                            loss = dc.add(loss, dc.mul(reg, cfg.fedproto_weight))
                            sums["proto"] += reg.item()
                    if method == "fedprox" and cfg.prox_rho > 0.0:
                        quad = None
                        for p, a in zip(state.model.params, anchor):
                            term = dc.tsum(dc.square(dc.sub(p, a)))
                            quad = term if quad is None else dc.add(quad, term)
                        loss = dc.add(loss, dc.mul(quad, cfg.prox_rho / 2.0))
                    sums["ce"] += ce.item()
                    grads = dc.backward(tape, loss)
                if cfg.per_batch_protos and method in _MULTI_PROTO:
                    proto_input = (emb.data, yb)
                sgd_step(state.model, grads, cfg.learning_rate)
            except Exception as exc:
                raise FederationError(f"epoch {epoch} batch {batch}: {exc}") from exc
            batches_seen += 1

    proto_set: Optional[PrototypeSet] = None
    if method in _MULTI_PROTO or method == "fedproto":
        if proto_input is None:
            emb_train, _ = _forward_chunks(state.model, feats[train_idx], 512)
            proto_input = (emb_train, labels_all[train_idx])
        proto_set = _class_prototypes(*proto_input, cfg, (run_seed, round_idx, state.client_id))
        if method in _MULTI_PROTO:
            state.teacher = snapshot(state.model, round_idx)

    scale = 1.0 / batches_seen if batches_seen else 0.0
    return ClientRoundResult(
        client_id=state.client_id,
        params=tuple(state.model.params),
        protos=proto_set,
        train_size=n,
        ce=sums["ce"] * scale,
        distill=sums["distill"] * scale,
        align=sums["align"] * scale,
        proto=sums["proto"] * scale,
    )


def aggregate_models(
    params_by_client: Mapping[int, Sequence[dc.Tensor]], sizes: Mapping[int, int]
) -> list[dc.Tensor]:
    """Training-set-size weighted parameter average, in sorted client order."""
    ids = sorted(params_by_client)
    if not ids:
        raise ValueError("nothing to aggregate")
    if set(sizes) != set(ids):
        raise ValueError("sizes and parameter sets cover different clients")
    total = float(sum(sizes[i] for i in ids))
    if not total > 0:
        raise ValueError("total training size must be positive")
    shapes = [p.shape for p in params_by_client[ids[0]]]
    acc = None
    for cid in ids:
        params = params_by_client[cid]
        if [p.shape for p in params] != shapes:
            raise ValueError(f"client {cid} returned mismatched parameter shapes")
        flat = flatten_params(params) * (sizes[cid] / total)
        acc = flat if acc is None else acc + flat
    return unflatten_params(acc, shapes)


def aggregate_prototypes(
    sets_by_client: Mapping[int, PrototypeSet], embedding_dim: int, mode: str
) -> GlobalPrototypes:
    """Merge client prototype sets into one vector per class.

    "normalized" weights each client's class mean by its share of the class
    samples. "literal" keeps the printed per-client prefactor
    1 / (#clients-with-class * #vectors), which deflates classes held by
    several clients; it is exposed for side-by-side comparison.
    """
    if mode not in ("normalized", "literal"):
        raise ValueError(f"unknown prototype aggregation {mode!r}")
    table = GlobalPrototypes(embedding_dim)
    all_classes = sorted({c for ps in sets_by_client.values() if ps for c in ps.protos})
    for c in all_classes:
        members = sorted(cid for cid, ps in sets_by_client.items() if ps and c in ps.protos)
        class_total = float(sum(sets_by_client[m].counts[c] for m in members))
        vec = np.zeros(embedding_dim)
        for m in members:
            ps = sets_by_client[m]
            stack = np.asarray(ps.protos[c])
            if stack.shape[1] != embedding_dim:
                raise ValueError(
                    f"client {m} class {c} prototypes are {stack.shape[1]}-wide, "
                    f"expected {embedding_dim}"
                )
            weight = ps.counts[c] / class_total
            summed = stack.sum(axis=0)
            if mode == "normalized":
                vec += weight * summed / stack.shape[0]
            else:
                vec += weight * summed / (len(members) * stack.shape[0])
        table.set(c, vec)
    return table


def init_federation(
    arch: Arch, plan: PartitionPlan, seed: int
) -> tuple[ServerState, dict[int, ClientState]]:
    """Fresh server and clients; every model starts from the same weights."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_STREAM]))
    global_model = init_backbone(arch, rng)
    server = ServerState(
        model=global_model, protos=GlobalPrototypes(arch.embedding_dim), seed=seed
    )
    clients = {}
    for shard in plan.shards:
        local = build_backbone(arch, list(global_model.params))
        clients[shard.client_id] = ClientState(
            client_id=shard.client_id, shard=shard, model=local
        )
    return server, clients


def _param_floats(params: Sequence[dc.Tensor]) -> int:
    return sum(p.size for p in params)


def run_round(
    server: ServerState,
    clients: Mapping[int, ClientState],
    dataset: Dataset,
    cfg: FedConfig,
    topology: Optional[Topology] = None,
) -> tuple[ServerState, RoundRecord]:
    """Advance the federation by one round and evaluate the result.

    Client updates may run on a thread pool; results are reduced in sorted
    client order, so the record is identical for any worker count.
    """
    t_start = time.perf_counter()
    round_idx = server.round_idx + 1
    selected = select_clients(list(clients), cfg.fraction, server.seed, round_idx)
    global_params = tuple(server.model.params)
    global_protos = server.protos
    method = cfg.method

    if topology is not None:
        model_floats = _param_floats(global_params)
        proto_floats = len(global_protos) * global_protos.embedding_dim
        for cid in selected:
            down = 0
            if method != "fedproto":
                down += model_floats
            if method in _MULTI_PROTO or method == "fedproto":
                down += proto_floats
            topology.record_down(cid, 8 * down)

    def work(cid: int) -> ClientRoundResult:
        try:
            return client_update(
                clients[cid], dataset, global_params, global_protos, cfg, round_idx, server.seed
            )
        except Exception as exc:
            raise FederationError(f"client {cid} failed in round {round_idx}: {exc}") from exc

    results: dict[int, ClientRoundResult] = {}
    if cfg.workers == 1:
        for cid in selected:
            results[cid] = work(cid)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = {cid: pool.submit(work, cid) for cid in selected}
            for cid, fut in futures.items():
                results[cid] = fut.result()

    if topology is not None:
        for cid in selected:
            res = results[cid]
            up = 0
            if method != "fedproto":
                up += _param_floats(res.params)
            if res.protos is not None:
                up += res.protos.vector_floats()
            topology.record_up(cid, 8 * up)

    if method != "fedproto":
        sizes = {cid: results[cid].train_size for cid in selected}
        new_params = aggregate_models({cid: results[cid].params for cid in selected}, sizes)
        server.model.load(new_params)

    if method in _MULTI_PROTO or method == "fedproto":
        proto_mode = cfg.aggregation if method in _MULTI_PROTO else "normalized"
        fresh = aggregate_prototypes(
            {cid: results[cid].protos for cid in selected},
            server.protos.embedding_dim,
            proto_mode,
        )
        merged = server.protos.copy()
        for c in fresh.classes():
            merged.set(c, fresh.get(c))
        server.protos = merged

    # fedproto scores each client's personal model on its own test split,
    # the other methods the server model on the pooled split. Accuracy is
    # the mean over the parts; error and F1 metrics pool all predictions.
    parts = [(clients[cid].model, clients[cid].shard.test) for cid in sorted(clients)]
    if method != "fedproto":
        parts = [(server.model, np.concatenate([te for _, te in parts]))]
    accs, preds, ys = [], [], []
    for model, te in parts:
        if te.size == 0:
            continue
        _, logits = _forward_chunks(model, dataset.features.data[te], 1024)
        preds.append(np.argmax(logits, axis=1))
        ys.append(dataset.labels[te])
        accs.append(accuracy(preds[-1], ys[-1]))
    if accs:
        acc = float(np.mean(accs))
        allp, ally = np.concatenate(preds), np.concatenate(ys)
        rmse, mae = rmse_mae(allp, ally)
        f1 = macro_f1(allp, ally, dataset.num_classes)
    else:
        acc = rmse = mae = f1 = float("nan")

    record = RoundRecord(
        round_idx=round_idx,
        selected=selected,
        ce=float(np.mean([results[c].ce for c in selected])),
        distill=float(np.mean([results[c].distill for c in selected])),
        align=float(np.mean([results[c].align for c in selected])),
        proto=float(np.mean([results[c].proto for c in selected])),
        acc=acc,
        rmse=rmse,
        mae=mae,
        macro_f1=f1,
        wall_time=time.perf_counter() - t_start,
    )
    server.round_idx = round_idx
    return server, record
