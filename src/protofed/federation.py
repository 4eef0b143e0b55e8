"""Federated training loop: client selection, local updates, aggregation.

Each payload is one array. The server model travels to the selected clients
as its flat parameter vector; clients train locally, extract each class's
prototypes from their embeddings as one (K, q) block, and send both back.
A round's clients train in lockstep (``train_clients``), and every step is
a stacked step: the clients whose batches have the same size at one index of
their schedules step together as one ``BackboneStack`` (a client too big to
share steps in a stack of one), each ending bit for bit where it would alone;
every client's prototypes and teacher are made after the round's schedule.
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
from .diffcore import _check_finite, _sq_dists
from .losses import GlobalPrototypes, LossWeights, _check_finite_floats
from .metrics import RoundRecord, accuracy, macro_f1, rmse_mae
from .model import Arch, Backbone, BackboneStack, forward_entries, init_backbone, sgd_step

__all__ = [
    "FederationError",
    "FedConfig",
    "PrototypeSet",
    "ClientState",
    "ServerState",
    "select_clients",
    "client_update",
    "train_clients",
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

# Cap on the float64 entries (2 MiB) one stacked training step allocates:
# each client's forward (model.forward_entries per batch row) and its
# parameter gradient. A round's clients step in stacks within it; a client
# too big to share steps in a stack of one. Stacking saves per-call overhead,
# which only small models feel: at batch 32 a 784-128-64 mlp client takes
# about 0.15 M and steps alone (three to a stack, at twice the cap, ran no
# faster and took 2.5% more peak memory), as does a 28x28 cnn client (about
# 0.8 M); the blob mlps stack all their clients.
_STACK_ENTRIES = 1 << 18

METHODS = ("mp-fedkd", "mp-fedkd-kmeans", "fedavg", "fedprox", "fedproto")
_MULTI_PROTO = ("mp-fedkd", "mp-fedkd-kmeans")
_SHARES_MODEL = ("mp-fedkd", "mp-fedkd-kmeans", "fedavg", "fedprox")  # the server model travels
_USES_PROTOS = ("mp-fedkd", "mp-fedkd-kmeans", "fedproto")  # prototype tables travel
_TERMS = ("ce", "distill", "align", "proto")  # the loss terms a round logs


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
    model: Backbone  # None while train_clients steps its parameters
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


def _forward_chunks(model: Backbone, data: Dataset, idx: np.ndarray, batch: int) -> tuple:
    """Embeddings and logits of the rows ``idx``, gathered ``batch`` at a time."""
    embs, logits = [], []
    for i in range(0, idx.size, batch):
        emb, out = model.infer(data.rows(idx[i : i + batch]))
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


def client_update(state: ClientState, *args, **kwargs) -> ClientRoundResult:
    """One client's whole contribution to a round: ``train_clients`` (same
    further arguments) on this client alone, raising the error it failed with."""
    (out,) = train_clients([state], *args, **kwargs)
    if isinstance(out, Exception):
        raise out
    return out


@dataclass
class _Run:
    """One client's progress through ``train_clients``: its batches, epoch
    after epoch, as slices of ``pos`` (shard positions, the teacher's rows)
    and of ``rows`` (the dataset rows there)."""

    state: ClientState
    pos: np.ndarray
    rows: np.ndarray
    batches: list[slice]
    aux: bool  # the multi-prototype terms are on
    own: Optional[GlobalPrototypes] = None  # aux: the prototypes of the client's own classes
    align_dists: Optional[np.ndarray] = None  # aux: the teacher's rows' _sq_dists to ``own``
    sums: dict = field(default_factory=lambda: dict.fromkeys(_TERMS, 0.0))
    proto_input: Optional[tuple[np.ndarray, np.ndarray]] = None  # per-batch mode: the last batch's
    error: Optional[Exception] = None


def _step(model: BackboneStack, runs: Sequence[_Run], k: int, dataset: Dataset,
          global_protos: GlobalPrototypes, cfg: FedConfig, round_idx: int, prox) -> None:
    """SGD step k of the clients ``runs`` on their ``BackboneStack``, one client
    a row: forward, cross entropy, distillation, loss mixes, backward and update
    on the client axis; align, attract and repel (sharing one ``_sq_dists``) and
    fedproto's term client by client. Once the update went through, each
    client's logged terms join its sums, in batch order."""
    w, clients = cfg.weights, len(runs)
    idx = np.concatenate([r.rows[r.batches[k]] for r in runs])
    x, y = dataset.rows(idx), dataset.labels[idx].reshape(clients, -1)
    emb, logits, cache = model.forward(x.reshape(clients, -1, x.shape[1]))
    ce, ce_bwd = losses.cross_entropy(logits, y)
    g_ce, g_emb, logs = np.ones(clients), [None] * clients, {}
    aux = [i for i, r in enumerate(runs) if r.aux]
    sel = aux if len(aux) < clients else slice(None)  # every client: views, not gathers
    if aux:
        (al, att, rep), bwds, teacher = np.empty((3, len(aux))), [], []
        for j, i in enumerate(aux):
            r, e = runs[i], emb[i]
            at, groups = r.pos[r.batches[k]], losses.ClassGroups(y[i], r.own)  # the teacher's rows
            # align reads them in the round's table: a diagnostic, no gradient
            al[j], _ = losses.align_loss(r.state.teacher[0][at], groups, r.align_dists[at])
            sq = _sq_dists(e, r.own.matrix)  # attract's columns are a subset of repel's
            att[j], att_bwd = losses.attract_loss(e, groups, w.scale, sq)
            rep[j], rep_bwd = losses.repel_loss(e, r.own, w.scale, sq=sq)
            bwds.append((rep_bwd, att_bwd))
            teacher.append(r.state.teacher[1][at])
        dist, dist_bwd = losses.distill_loss(np.stack(teacher), logits[sel], w.temperature)
        pair, pair_bwd = losses.attract_repel_loss(att, rep, w.balance)
        _, mix_bwd = losses.local_loss(ce[sel], dist, al, pair, w, round_idx)
        # Each backward gets the scalar the loss mix hands its term; the
        # gradients add up in the op chain's order, the classifier's last.
        g_ce[sel], g_d, _, g_pair = mix_bwd(1.0)
        g_att, g_rep = pair_bwd(g_pair)
        for i, (rep_bwd, att_bwd) in zip(aux, bwds):
            for bwd, g in ((rep_bwd, g_rep), (att_bwd, g_att)):
                if bwd is not None:
                    g_emb[i] = bwd(g) if g_emb[i] is None else g_emb[i] + bwd(g)
        for i, *terms in zip(aux, dist.tolist(), al.tolist(), pair.tolist()):
            logs[i] = dict(zip(_TERMS[1:], terms))
    if cfg.method == "fedproto":  # each client's regularizer on its own slice
        for i in range(clients):
            reg = losses.fedproto_loss(emb[i], losses.ClassGroups(y[i], global_protos))
            if reg is not None:
                logs[i], g_emb[i] = {"proto": reg[0]}, reg[1](cfg.fedproto_weight)
    g_logits = ce_bwd(g_ce)
    if aux:  # a + b is b + a, bit for bit
        g_logits[sel] += dist_bwd(g_d)
    sgd_step(model, model.backward(cache, g_emb, g_logits), cfg.learning_rate, prox)
    for r, ce_i in zip(runs, ce.tolist()):  # the step went through
        r.sums["ce"] += ce_i
    for i, log in logs.items():
        for term, value in log.items():
            runs[i].sums[term] += value
    if cfg.per_batch_protos and cfg.method in _MULTI_PROTO:
        for i, r in enumerate(runs):
            r.proto_input = (emb[i], y[i])


def train_clients(
    states: Sequence[ClientState],
    dataset: Dataset,
    global_flat: Optional[np.ndarray],
    global_protos: GlobalPrototypes,
    cfg: FedConfig,
    round_idx: int,
    run_seed: int,
) -> list:
    """Each client's whole contribution to a round, trained in lockstep: its
    ``ClientRoundResult``, or the error it failed with.

    Shared-model methods start from the received vector and return the
    trained one. After round 1 the multi-prototype methods add distillation
    and attract/repel against a client's ``teacher``, the outputs of the model
    it trained when it last took part (a late joiner starts on plain cross
    entropy), and log the alignment diagnostic. Their round constants come
    first: each client's own classes' rows of the global table, and its
    teacher embeddings' distances to them, 512 rows at a time. Fedproto keeps
    its personal model and pulls class means toward the global prototypes.

    Each client draws its batches from its own shuffle stream. Every step is
    a ``BackboneStack`` step: at each index of the schedules, the clients
    whose batches have the same size step together, in stacks within
    ``_STACK_ENTRIES`` (a client too big to share steps in a stack of one),
    each bit for bit as alone. For the round, a client's parameters live only
    in its stack; its state gets them back, trained, after the schedule, and
    a failed client gets its last good ones. Every client's prototypes and
    teacher are made after the round's schedule. A failed stack's clients
    step again one by one: a failing client stops with a
    ``FederationError`` naming its own epoch and batch; the others go on.
    """
    if round_idx < 1:
        raise ValueError("round index must be >= 1")
    if not states:
        return []
    method, bs = cfg.method, cfg.batch_size
    if method in _SHARES_MODEL and global_flat is None:
        raise ValueError("shared-model methods need the global parameters")
    prox = (cfg.prox_rho, global_flat) if method == "fedprox" and cfg.prox_rho > 0.0 else None
    runs = []
    for st in states:
        n = int(st.shard.train.size)
        rng = np.random.default_rng(
            np.random.SeedSequence([run_seed, _SHUFFLE_STREAM, round_idx, st.client_id])
        )
        pos = np.concatenate([rng.permutation(n) for _ in range(cfg.epochs)] or [np.zeros(0, int)])
        batches = [slice(e * n + s, e * n + min(s + bs, n))
                   for e in range(cfg.epochs) for s in range(0, n, bs)]
        runs.append(_Run(st, pos, st.shard.train[pos], batches,
                         aux=method in _MULTI_PROTO and round_idx != 1 and st.teacher is not None))
        if runs[-1].aux:  # round constants: the table repel reads, align's distances to it
            own = [int(c) for c in np.flatnonzero(st.shard.histogram > 0) if global_protos.has(c)]
            r, t_emb = runs[-1], st.teacher[0]
            r.own, r.align_dists = GlobalPrototypes(own, global_protos.rows(own)), np.empty(
                (len(t_emb), len(own)))
            for s in range(0, len(t_emb), 512):  # 512 rows' (rows, k, q) differences at a time
                r.align_dists[s : s + 512] = _sq_dists(t_emb[s : s + 512], r.own.matrix)[0]

    # Each client's parameters, taken out of its state for the round: the
    # received vector or its own, then its row of the stack it steps in (a
    # copy of the row once it is done, so a multi-client stack can be freed).
    flats = [global_flat if method in _SHARES_MODEL else st.model.flat for st in states]
    arch = states[0].model.arch
    for st in states:  # no state holds a vector beside its stack's copy
        st.model = None
    stacks: dict = {}  # the last index's stacks, reused while their key holds
    per_row, n_params = forward_entries(arch), flats[0].size
    for k in range(max(len(r.batches) for r in runs)):
        by_size: dict[int, list[int]] = {}
        for i, r in enumerate(runs):
            if r.error is None and k < len(r.batches):
                b = r.batches[k]
                by_size.setdefault(b.stop - b.start, []).append(i)
        work = [tuple(m[s : s + cap]) for size, m in by_size.items()
                for cap in [max(1, _STACK_ENTRIES // (size * per_row + n_params))]
                for s in range(0, len(m), cap)]
        stacks = {key: stacks.get(key) for key in work}
        for key in work:  # grows by a failed stack's clients, to step again alone
            try:  # a stack of one views its client's vector, a larger one copies theirs
                model = stacks[key] = stacks.get(key) or BackboneStack(arch, (
                    flats[key[0]][None] if len(key) == 1 else np.array([flats[i] for i in key])))
                _step(model, [runs[i] for i in key], k, dataset, global_protos, cfg, round_idx,
                      prox)
            except Exception as exc:
                stacks[key] = None  # rebuilt from flats next time
                if len(key) > 1:
                    work += [(i,) for i in key]
                else:
                    r = runs[key[0]]
                    per_epoch = -(-r.state.shard.train.size // bs)
                    r.error = FederationError(
                        "epoch {} batch {}: {}".format(*divmod(k, per_epoch), exc))
                    r.error.__cause__ = exc
                continue
            for i, row in zip(key, model.flat):
                flats[i] = row.copy() if len(key) > 1 and k + 1 == len(runs[i].batches) else row
    out = []
    for r, flat in zip(runs, flats):
        r.state.model = Backbone(arch, flat)  # its last good parameters
        try:
            out.append(r.error or _finish(r, dataset, cfg, round_idx, run_seed))
        except Exception as exc:
            out.append(exc)
    return out


def _finish(r: _Run, dataset: Dataset, cfg: FedConfig, round_idx: int,
            run_seed: int) -> ClientRoundResult:
    """A trained client's prototypes, teacher and result."""
    state, method, train_idx = r.state, cfg.method, r.state.shard.train
    proto_set: Optional[PrototypeSet] = None
    if method in _USES_PROTOS:
        # One pass over the trained shard: the prototypes' input and the teacher.
        emb_train, logits_train = _forward_chunks(state.model, dataset, train_idx, 512)
        if method in _MULTI_PROTO:
            state.teacher = (emb_train, logits_train)
        proto_input = r.proto_input or (emb_train, dataset.labels[train_idx])
        proto_set = _class_prototypes(*proto_input, cfg, (run_seed, round_idx, state.client_id))
    scale = 1.0 / len(r.batches) if r.batches else 0.0
    return ClientRoundResult(
        state.client_id, state.model.flat if method in _SHARES_MODEL else None, proto_set,
        int(train_idx.shape[0]), *(r.sums[t] * scale for t in _TERMS),
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

    # One lockstep per worker, over contiguous runs of the sorted clients.
    chunks = [c.tolist() for c in np.array_split(selected, min(cfg.workers, len(selected)))]

    def work(chunk: list[int]) -> list:
        states = [clients[cid] for cid in chunk]
        return train_clients(states, dataset, global_flat, global_protos, cfg, round_idx,
                             server.seed)

    if len(chunks) == 1:
        outs = [work(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            outs = list(pool.map(work, chunks))
    results: dict[int, ClientRoundResult] = {}
    for cid, out in zip(selected, [o for chunk_outs in outs for o in chunk_outs]):
        if isinstance(out, Exception):  # the lowest-sorted failing client
            raise FederationError(f"client {cid} failed in round {round_idx}: {out}") from out
        results[cid] = out

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
        _, logits = _forward_chunks(model, dataset, te, 1024)
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
