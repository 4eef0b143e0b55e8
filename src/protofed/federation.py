"""Federated training loop: client selection, local updates, aggregation.

Each payload is one array. The server model travels to the selected clients
as its flat parameter vector; clients train locally, extract each class's
prototypes from their embeddings as one (K, q) block, and send both back.
The server averages the vectors by training-set size and merges prototype
tables, keeping stale classes until fresh evidence arrives. Personal-model
training (fedproto) skips the model exchange entirely. Each round's record
carries its traffic: the payload bytes every selected client received and
those each sent back, at 8 bytes per float, framing not counted.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import chac as clustering
from . import losses
from .data import ClientShard, Dataset, PartitionPlan
from .diffcore import _check_finite
from .losses import GlobalPrototypes, LossWeights, _check_finite_floats
from .metrics import RoundRecord, accuracy, macro_f1, rmse_mae
from .model import Arch, Backbone, init_backbone, sgd_step

__all__ = [
    "FederationError",
    "FedConfig",
    "PrototypeSet",
    "ClientState",
    "ServerState",
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
_SHARES_MODEL = ("mp-fedkd", "mp-fedkd-kmeans", "fedavg", "fedprox")  # the server model travels
_USES_PROTOS = ("mp-fedkd", "mp-fedkd-kmeans", "fedproto")  # prototype tables travel


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
        _check_finite_floats(self)
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
    """One client's prototypes, a (K, q) float64 block per class (a list of
    K vectors reads as one), plus sample counts."""

    protos: dict[int, np.ndarray]
    counts: dict[int, int]

    def __post_init__(self):
        if set(self.protos) != set(self.counts):
            raise ValueError("prototype and count keys disagree")
        self.protos = {c: np.asarray(block, dtype=np.float64) for c, block in self.protos.items()}
        for label, block in self.protos.items():
            if block.ndim != 2 or block.shape[0] < 1:
                raise ValueError(f"class {label} needs a nonempty (K, q) prototype block")
            if self.counts[label] < 1:
                raise ValueError(f"class {label} has a nonpositive sample count")
        if len({block.shape[1] for block in self.protos.values()}) > 1:
            raise ValueError("prototype vectors have mixed widths")


@dataclass
class ClientState:
    client_id: int
    shard: ClientShard
    model: Backbone
    teacher: Optional[tuple[np.ndarray, np.ndarray]] = None  # (embeddings, logits) of shard.train


@dataclass
class ServerState:
    model: Backbone
    protos: GlobalPrototypes
    seed: int = 0
    round_idx: int = 0  # rounds completed so far


@dataclass
class ClientRoundResult:
    client_id: int
    flat: Optional[np.ndarray]  # the trained parameters; None when no model is shared
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
    protos: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for c in sorted(int(v) for v in np.unique(labels)):
        rows = emb[labels == c]
        counts[c] = int(rows.shape[0])
        if cfg.method == "fedproto":
            protos[c] = rows.mean(axis=0, keepdims=True)
            continue
        if cfg.method == "mp-fedkd-kmeans":
            seed = int(np.random.SeedSequence([*seed_parts, _CLUSTER_STREAM, c]).generate_state(1)[0])
            result = clustering.kmeans(rows, cfg.clusters_per_class, seed)
        else:
            result = clustering.chac(rows, cfg.clusters_per_class)
        protos[c] = clustering.centroids(result)
    return PrototypeSet(protos=protos, counts=counts)


def client_update(
    state: ClientState,
    dataset: Dataset,
    global_flat: Optional[np.ndarray],
    global_protos: GlobalPrototypes,
    cfg: FedConfig,
    round_idx: int,
    run_seed: int,
) -> ClientRoundResult:
    """One client's whole contribution to a round.

    For the shared-model methods the local model adopts the received
    parameter vector before training, and the result carries the trained
    one. After round 1 the multi-prototype methods add the distillation and
    attract/repel terms and log the alignment diagnostic against
    ``state.teacher``, the outputs of the model this client trained in its
    previous participation (a client joining late starts with plain cross
    entropy once). fedproto never adopts the global model and regularizes
    class means toward global prototypes. A failing batch raises
    ``FederationError`` naming its epoch and batch index.
    """
    if round_idx < 1:
        raise ValueError("round index must be >= 1")
    method = cfg.method
    w = cfg.weights
    shares_model, uses_protos = method in _SHARES_MODEL, method in _USES_PROTOS
    if shares_model:
        if global_flat is None:
            raise ValueError("shared-model methods need the global parameters")
        state.model.adopt(global_flat)
    prox = (cfg.prox_rho, global_flat) if method == "fedprox" and cfg.prox_rho > 0.0 else None

    feats = dataset.features
    labels_all = dataset.labels
    train_idx = state.shard.train
    n = int(train_idx.shape[0])

    aux = method in _MULTI_PROTO and round_idx != 1 and state.teacher is not None
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
        perm = rng.permutation(n)
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            try:
                pos = perm[start : start + cfg.batch_size]  # rows of the shard, and of the teacher
                idx = train_idx[pos]
                yb = labels_all[idx]
                if aux or method == "fedproto":
                    groups = losses.ClassGroups(yb, global_protos)
                emb, logits, cache = state.model.forward(feats[idx])
                ce, ce_bwd = losses.cross_entropy(logits, yb)
                sums["ce"] += ce
                # Each backward gets the scalar the loss mix hands its term; the
                # gradients add up in the op chain's order, the classifier's last.
                g_ce, g_emb = 1.0, None
                if aux:
                    t_emb, t_logits = state.teacher[0][pos], state.teacher[1][pos]
                    al, _ = losses.align_loss(t_emb, groups)  # a diagnostic: no gradient
                    dist, dist_bwd = losses.distill_loss(t_logits, logits, w.temperature)
                    att, att_bwd = losses.attract_loss(emb, groups, w.scale)
                    rep, rep_bwd = losses.repel_loss(emb, global_protos, w.scale, own_classes)
                    pair, pair_bwd = losses.attract_repel_loss(att, rep, w.balance)
                    _, mix_bwd = losses.local_loss(ce, dist, al, pair, w, round_idx)
                    g_ce, g_dist, _, g_pair = mix_bwd(1.0)
                    g_att, g_rep = pair_bwd(g_pair)
                    for bwd, g in ((rep_bwd, g_rep), (att_bwd, g_att)):
                        if bwd is not None:
                            g_emb = bwd(g) if g_emb is None else g_emb + bwd(g)
                    g_logits = dist_bwd(g_dist) + ce_bwd(g_ce)
                    sums["distill"] += dist
                    sums["align"] += al
                    sums["proto"] += pair
                else:
                    g_logits = ce_bwd(g_ce)
                if method == "fedproto":
                    reg = losses.fedproto_loss(emb, groups)
                    if reg is not None:
                        sums["proto"] += reg[0]
                        g_emb = reg[1](cfg.fedproto_weight)
                grad = state.model.backward(cache, g_emb, g_logits)
                if cfg.per_batch_protos and method in _MULTI_PROTO:
                    proto_input = (emb, yb)
                sgd_step(state.model, grad, cfg.learning_rate, prox)
            except Exception as exc:
                raise FederationError(f"epoch {epoch} batch {batch}: {exc}") from exc
            batches_seen += 1

    proto_set: Optional[PrototypeSet] = None
    if uses_protos:
        # One pass over the trained shard: the prototypes' input and the teacher.
        emb_train, logits_train = _forward_chunks(state.model, feats[train_idx], 512)
        if method in _MULTI_PROTO:
            state.teacher = (emb_train, logits_train)
        if proto_input is None:
            proto_input = (emb_train, labels_all[train_idx])
        proto_set = _class_prototypes(*proto_input, cfg, (run_seed, round_idx, state.client_id))

    scale = 1.0 / batches_seen if batches_seen else 0.0
    return ClientRoundResult(
        client_id=state.client_id,
        flat=state.model.flat if shares_model else None,
        protos=proto_set,
        train_size=n,
        ce=sums["ce"] * scale,
        distill=sums["distill"] * scale,
        align=sums["align"] * scale,
        proto=sums["proto"] * scale,
    )


def aggregate_models(
    flat_by_client: Mapping[int, np.ndarray], sizes: Mapping[int, int]
) -> np.ndarray:
    """Training-set-size weighted average of the clients' parameter vectors,
    summed in sorted client order."""
    ids = sorted(flat_by_client)
    if not ids:
        raise ValueError("nothing to aggregate")
    if set(sizes) != set(ids):
        raise ValueError("sizes and parameter vectors cover different clients")
    total = float(sum(sizes[i] for i in ids))
    if not total > 0:
        raise ValueError("total training size must be positive")
    acc = None
    for cid in ids:
        flat = flat_by_client[cid]
        if acc is not None and len(flat) != len(acc):
            raise ValueError(f"client {cid} sent {len(flat)} parameters, expected {len(acc)}")
        flat = flat * (sizes[cid] / total)
        acc = flat if acc is None else acc + flat
    _check_finite(acc, "aggregate_models")
    return acc


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
    vectors: dict[int, np.ndarray] = {}
    all_classes = sorted({c for ps in sets_by_client.values() if ps for c in ps.protos})
    for c in all_classes:
        members = sorted(cid for cid, ps in sets_by_client.items() if ps and c in ps.protos)
        class_total = float(sum(sets_by_client[m].counts[c] for m in members))
        vec = np.zeros(embedding_dim)
        for m in members:
            ps = sets_by_client[m]
            stack = ps.protos[c]
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
        vectors[c] = vec
    return GlobalPrototypes.of(embedding_dim, vectors)


def init_federation(
    arch: Arch, plan: PartitionPlan, seed: int
) -> tuple[ServerState, dict[int, ClientState]]:
    """Fresh server and clients; every model starts from the same weights."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_STREAM]))
    global_model = init_backbone(arch, rng)
    server = ServerState(
        model=global_model, protos=GlobalPrototypes.of(arch.embedding_dim, {}), seed=seed
    )
    clients = {}
    for shard in plan.shards:
        local = Backbone(arch, global_model.flat)
        clients[shard.client_id] = ClientState(
            client_id=shard.client_id, shard=shard, model=local
        )
    return server, clients


def run_round(
    server: ServerState,
    clients: Mapping[int, ClientState],
    dataset: Dataset,
    cfg: FedConfig,
) -> tuple[ServerState, RoundRecord]:
    """Advance the federation by one round and evaluate the result.

    Client updates may run on a thread pool; results are reduced in sorted
    client order, so the record is identical for any worker count.
    """
    t_start = time.perf_counter()
    round_idx = server.round_idx + 1
    selected = select_clients(list(clients), cfg.fraction, server.seed, round_idx)
    method = cfg.method
    shares_model, uses_protos = method in _SHARES_MODEL, method in _USES_PROTOS
    global_flat = server.model.flat if shares_model else None
    global_protos = server.protos

    down = global_flat.size if shares_model else 0
    if uses_protos:
        down += global_protos.matrix.size

    def work(cid: int) -> ClientRoundResult:
        try:
            return client_update(
                clients[cid], dataset, global_flat, global_protos, cfg, round_idx, server.seed
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

    bytes_up = []
    for cid in selected:
        up = results[cid].flat.size if shares_model else 0
        if uses_protos:
            up += sum(block.size for block in results[cid].protos.protos.values())
        bytes_up.append(8 * up)

    if shares_model:
        sizes = {cid: results[cid].train_size for cid in selected}
        server.model.adopt(aggregate_models({cid: results[cid].flat for cid in selected}, sizes))

    if uses_protos:
        proto_mode = cfg.aggregation if method in _MULTI_PROTO else "normalized"
        fresh = aggregate_prototypes(
            {cid: results[cid].protos for cid in selected},
            server.protos.embedding_dim,
            proto_mode,
        )
        # A class no selected client holds keeps its stale prototype.
        server.protos = GlobalPrototypes.of(fresh.embedding_dim, {
            **dict(zip(server.protos.labels, server.protos.matrix)),
            **dict(zip(fresh.labels, fresh.matrix)),
        })

    # fedproto scores each client's personal model on its own test split,
    # the other methods the server model on the pooled split. Accuracy is
    # the mean over the parts; error and F1 metrics pool all predictions.
    parts = [(clients[cid].model, clients[cid].shard.test) for cid in sorted(clients)]
    if shares_model:
        parts = [(server.model, np.concatenate([te for _, te in parts]))]
    accs, preds, ys = [], [], []
    for model, te in parts:
        if te.size == 0:
            continue
        _, logits = _forward_chunks(model, dataset.features[te], 1024)
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
        bytes_down=8 * down,
        bytes_up=tuple(bytes_up),
    )
    server.round_idx = round_idx
    return server, record
