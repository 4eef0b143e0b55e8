"""Shared test oracles: central finite differences against the reference
gradient tape, adapters that record the training step's plain-array kernels
and backbone forward on that tape, a naive Ward clustering to check chac
against, and op-chain references for the loss kernels, the fedproto and
fedprox regularizers and the backbone's layers."""
from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from protofed import diffcore as dc
from protofed import losses
from protofed.chac import Cluster, ClusteringResult, _as_points, _pair_cost, _singletons
from protofed.diffcore import Tape, Tensor, as_tensor, backward
from protofed.losses import GlobalPrototypes
from protofed.model import Arch, _flat_layout, build_backbone

FD_STEP = 1e-5
FD_RTOL = 1e-4
# Truncation noise floor for O(1) losses; keeps the relative check honest
# where the true derivative is ~0.
FD_ATOL = 1e-7


def fd_grads(
    f: Callable[[list[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    step: float = FD_STEP,
) -> list[np.ndarray]:
    """Central-difference gradients of a scalar function of several arrays."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for i, a in enumerate(arrays):
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"], order="C")
        while not it.finished:
            ix = it.multi_index
            plus = [x.copy() for x in arrays]
            minus = [x.copy() for x in arrays]
            plus[i][ix] += step
            minus[i][ix] -= step
            g[ix] = (f(plus) - f(minus)) / (2.0 * step)
            it.iternext()
        grads.append(g)
    return grads


def check_grads(
    build: Callable[[list[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    rtol: float = FD_RTOL,
    atol: float = FD_ATOL,
    step: float = FD_STEP,
) -> None:
    """Assert tape gradients of build(leaves) match central differences."""
    leaves = [Tensor(a) for a in arrays]
    with Tape() as tape:
        tape.watch(*leaves)
        loss = build(leaves)
    gmap = backward(tape, loss)
    auto = [gmap[leaf] for leaf in leaves]

    def f(arrs: list[np.ndarray]) -> float:
        return build([Tensor(a) for a in arrs]).item()

    numeric = fd_grads(f, arrays, step=step)
    for got, want in zip(auto, numeric):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


def ward_reference(points, requested: int) -> ClusteringResult:
    """O(n^3) oracle: recompute all means and pair costs from members at
    every step. Same tie-break contract as chac; testing only."""
    pts = _as_points(points)
    if requested < 1:
        raise ValueError(f"requested cluster count must be >= 1, got {requested}")
    n = len(pts)
    if n <= requested:
        return _singletons(pts, requested)

    groups: list[tuple[int, list[int]]] = [(i, [i]) for i in range(n)]
    merges: list[tuple[int, int, float]] = []
    next_id = n
    while len(groups) > requested:
        # fresh means from raw members every step, never carried over
        step_means = [pts[mem].mean(axis=0) for _, mem in groups]
        best = None
        for a in range(len(groups)):
            id_a, mem_a = groups[a]
            for b in range(a + 1, len(groups)):
                id_b, mem_b = groups[b]
                c = _pair_cost(len(mem_a), step_means[a], len(mem_b), step_means[b])
                key = (c, min(id_a, id_b), max(id_a, id_b))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (c, id_lo, id_hi), a, b = best
        merges.append((id_lo, id_hi, c))
        merged = (next_id, groups[a][1] + groups[b][1])
        next_id += 1
        groups = [g for k, g in enumerate(groups) if k not in (a, b)] + [merged]
    groups.sort(key=lambda g: min(g[1]))
    clusters = tuple(
        Cluster(tuple(sorted(mem)), pts[mem].mean(axis=0)) for _, mem in groups
    )
    return ClusteringResult(clusters, tuple(merges), requested)


# ---------------------------------------------------------------------------
# The training step on the reference tape
# ---------------------------------------------------------------------------
# Each adapter below takes Tensors (or arrays) where its protofed.losses
# kernel takes arrays, calls the kernel and records its (value, bwd) as one
# op, so a test can watch leaves, run ``backward`` and compare with finite
# differences or with the op chains further down. The align, attract and
# repel adapters take embeddings and make the kernel's distances to the
# prototype rows with ``_sq_dists``. A kernel's bwd None (no prototype to
# reach) gives an untracked constant.


class LiveTable(GlobalPrototypes):
    """A prototype table a test differentiates against: ``leaf`` is a Tensor
    of its matrix, and the align and repel adapters send the rows' gradient
    to it through a ``take_rows`` of the leaf."""

    def __init__(self, labels, matrix) -> None:
        self.leaf = as_tensor(matrix)
        super().__init__(labels, self.leaf.data)


def _rows(table: GlobalPrototypes, classes) -> Tensor:
    """The table's rows of ``classes`` as the reference engine sees them: a
    take_rows of a live table's leaf, else of a constant."""
    matrix = table.leaf if isinstance(table, LiveTable) else table.matrix
    return dc.take_rows(matrix, [table._row[c] for c in classes])


def _record(name: str, out, inputs: tuple, grads: Callable) -> Tensor:
    """A kernel's ``out = (value, bwd)`` as one op over ``inputs``;
    ``grads(bwd, g)`` gives one gradient per input."""
    value, bwd = out
    if bwd is None:
        return Tensor(value)
    return dc._op(np.asarray(value), name, inputs, lambda g: grads(bwd, g))


def _one(bwd, g) -> tuple:
    return (bwd(g),)


def cross_entropy(logits, labels) -> Tensor:
    logits = as_tensor(logits)
    return _record("cross_entropy", losses.cross_entropy(logits.data, labels), (logits,), _one)


def distill_loss(teacher_logits, student_logits, temperature: float) -> Tensor:
    student = as_tensor(student_logits)
    out = losses.distill_loss(as_tensor(teacher_logits).data, student.data, temperature)
    return _record("distill_loss", out, (student,), _one)


def align_loss(embeddings, groups, table: Optional[GlobalPrototypes] = None) -> Tensor:
    """With ``table``, the table ``groups`` indexes, the rows' gradient
    reaches a live table's leaf."""
    dists, diff = dc._sq_dists(as_tensor(embeddings).data, groups.rows)
    out = losses.align_loss(dists, groups, diff)
    rows = Tensor(groups.rows) if table is None else _rows(table, groups.classes)
    return _record("align_loss", out, (rows,), _one)


def attract_loss(embeddings, groups, scale: float) -> Tensor:
    emb = as_tensor(embeddings)
    out = losses.attract_loss(*dc._sq_dists(emb.data, groups.rows), groups, scale)
    return _record("attract_loss", out, (emb,), _one)


def repel_loss(embeddings, protos: GlobalPrototypes, scale: float, classes=None) -> Tensor:
    """Repels the table's rows of ``classes`` (default: all) that it holds."""
    emb = as_tensor(embeddings)
    wanted = protos.labels if classes is None else sorted(set(int(c) for c in classes))
    wanted = [c for c in wanted if protos.has(c)]
    out = losses.repel_loss(*dc._sq_dists(emb.data, protos.rows(wanted)), scale)
    if not isinstance(protos, LiveTable) or out[1] is None:
        return _record("repel_loss", out, (emb,), _one)
    rows = _rows(protos, wanted)
    return _record("repel_loss", out, (emb, rows), lambda bwd, g: bwd(g, rows=True))


def attract_repel_loss(attract, repel, balance: float) -> Tensor:
    a, r = as_tensor(attract), as_tensor(repel)
    out = losses.attract_repel_loss(a.data, r.data, balance)
    return _record("attract_repel_loss", out, (a, r), lambda bwd, g: bwd(g))


def local_loss(ce, distill, align, attract_repel, weights, round_idx: int) -> Tensor:
    terms = tuple(None if t is None else as_tensor(t) for t in (ce, distill, align, attract_repel))
    out = losses.local_loss(*(None if t is None else t.data for t in terms), weights, round_idx)
    return _record("local_loss", out, terms, lambda bwd, g: bwd(g))


def fedproto_loss(embeddings, groups) -> Optional[Tensor]:
    emb = as_tensor(embeddings)
    out = losses.fedproto_loss(emb.data, groups)
    return None if out is None else _record("fedproto_loss", out, (emb,), _one)


def forward(arch: Arch, params: Sequence[Tensor], x) -> tuple[Tensor, Tensor]:
    """A backbone over the values of ``params``, its forward on the tape:
    (embeddings, logits). The logits are recorded first, over every
    parameter, then the embeddings over the logits, so the sweep meets the
    embeddings first: their bwd keeps their gradient, and the logits' bwd
    hands both to ``Backbone.backward`` and splits the flat gradient. The
    logits must reach the loss; the input gets no gradient."""
    model = build_backbone(arch, [p.data for p in params])
    emb, logits, cache = model.forward(as_tensor(x).data)
    g_emb = []

    def logits_bwd(g):
        flat = model.backward(cache, g_emb[0] if g_emb else None, g)
        return [flat[start:stop].reshape(shape) for start, stop, shape in _flat_layout(arch)]

    def emb_bwd(g):
        g_emb.append(g)
        return (None,)

    logits_t = dc._op(logits, "forward", tuple(params), logits_bwd)
    return dc._op(emb, "embed", (logits_t,), emb_bwd), logits_t


# Op-chain references for the loss kernels in protofed.losses: each composes
# the small diffcore ops its kernel replaced, in the same order, so a
# kernel's value and every gradient must equal its reference's bit for bit.
# A table's rows come from ``_rows``, as in the adapters. Argument checks and
# empty-coverage warnings are the kernels' own; these take valid inputs
# only. Testing only.


def cross_entropy_reference(logits, labels) -> Tensor:
    picked = dc.gather_labels(dc.log_softmax_t(logits, 1.0), labels)
    return dc.tmean(dc.neg(picked))


def distill_reference(teacher_logits, student_logits, temperature: float) -> Tensor:
    teacher_logits = dc.detach(as_tensor(teacher_logits))
    n = student_logits.shape[0]
    p = dc.softmax_t(teacher_logits, temperature)
    log_p = dc.log_softmax_t(teacher_logits, temperature)
    log_q = dc.log_softmax_t(student_logits, temperature)
    kl_sum = dc.tsum(dc.mul(p, dc.sub(log_p, log_q)))
    return dc.mul(kl_sum, temperature * temperature / n)


def align_reference(embeddings, groups, table: Optional[GlobalPrototypes] = None) -> Tensor:
    rows = _rows(table, groups.classes) if table is not None else Tensor(groups.rows)
    dists = dc.sq_dists(dc.detach(embeddings), rows)
    return dc.tsum(dc.mul(dists, Tensor(groups.weights / dists.shape[1])))


def attract_reference(embeddings, groups, scale: float) -> Tensor:
    dists = dc.sq_dists(embeddings, Tensor(groups.rows))
    return dc.tsum(dc.mul(dists, Tensor(groups.weights * float(scale))))


def repel_reference(embeddings, protos, scale: float, classes) -> Tensor:
    wanted = [c for c in sorted(set(int(c) for c in classes)) if protos.has(c)]
    dists = dc.sq_dists(embeddings, _rows(protos, wanted))
    scores = dc.mul(dc.mean_rows(dists), -float(scale))
    shift = float(scores.data.max())
    total = dc.tsum(dc.exp(dc.sub(scores, shift)))
    return dc.add(dc.log(total), shift)


def attract_repel_reference(attract, repel, balance: float) -> Tensor:
    return dc.add(dc.mul(attract, float(balance)), dc.mul(repel, 1.0 - float(balance)))


def local_loss_reference(ce, distill, align, attract_repel, weights) -> Tensor:
    """Rounds after the first; round 1 returns ce itself."""
    out = dc.add(
        dc.mul(ce, weights.ce_weight),
        dc.mul(as_tensor(distill), 1.0 - weights.ce_weight),
    )
    out = dc.add(out, dc.mul(as_tensor(align), weights.align_weight))
    return dc.add(out, dc.mul(as_tensor(attract_repel), weights.proto_weight))


def fedproto_reference(embeddings, groups):
    """fedproto's regularizer as the chain fedproto_loss replaced: class means
    by one matmul, then their mean squared gap to the prototypes. None when
    no batch class has a prototype."""
    if not groups.classes:
        return None
    means = dc.matmul(groups.weights.T, embeddings)
    return dc.tmean(dc.square(dc.sub(means, Tensor(groups.rows))))


def prox_reference(params, anchor, rho: float) -> Tensor:
    """fedprox's proximal term (rho / 2) * sum ||p - a||^2 as a taped chain;
    client_update adds only its gradient, rho * (p - a), in sgd_step."""
    quad = None
    for p, a in zip(params, anchor):
        term = dc.tsum(dc.square(dc.sub(p, a)))
        quad = term if quad is None else dc.add(quad, term)
    return dc.mul(quad, rho / 2.0)


def embed_reference(arch: Arch, params: Sequence[Tensor], x) -> tuple[Tensor, Tensor]:
    """(embeddings, logits) of a backbone over ``params`` as one diffcore op
    per layer: the chain ``Backbone.forward`` and ``backward`` replace."""
    x, n = as_tensor(x), x.shape[0]
    rep, cls = params[:-2], params[-2:]
    if arch.kind == "cnn":
        k1, cb1, k2, cb2, w1, b1, w2, b2 = rep
        a = dc.relu(dc.conv2d(dc.reshape(x, (n,) + arch.image_shape), k1, cb1))
        a = dc.relu(dc.conv2d(a, k2, cb2))
        h = dc.relu(dc.affine(dc.reshape(a, (n, a.size // n)), w1, b1))
        emb = dc.relu(dc.affine(h, w2, b2))
    elif arch.kind == "mlp":
        w1, b1, w2, b2 = rep
        emb = dc.relu(dc.affine(dc.relu(dc.affine(x, w1, b1)), w2, b2))
    else:
        emb = dc.affine(x, *rep)
    return emb, dc.affine(emb, *cls)
