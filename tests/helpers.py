"""Shared test oracles: central finite differences against the gradient tape,
a naive Ward clustering to check chac against, and op-chain references for
the fused loss kernels and the fused representation op."""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from protofed import diffcore as dc
from protofed.chac import Cluster, ClusteringResult, _as_points, _pair_cost, _singletons
from protofed.diffcore import Tape, Tensor, as_tensor, backward
from protofed.losses import _class_mean_distances, _proto_matrix

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


# Op-chain references for the fused loss kernels in protofed.losses: each
# composes the small diffcore ops its kernel replaced, in the same order, so
# a kernel's value and every gradient must equal its reference's bit for bit.
# Argument checks and empty-coverage warnings are the kernels' own; these
# take valid inputs only. Testing only.


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


def align_reference(embeddings_by_class, protos) -> Tensor:
    dists, weights = _class_mean_distances(embeddings_by_class, protos, "align", False)
    return dc.tsum(dc.mul(dists, Tensor(weights / dists.shape[1])))


def attract_reference(embeddings_by_class, protos, scale: float) -> Tensor:
    dists, weights = _class_mean_distances(embeddings_by_class, protos, "attract", True)
    return dc.tsum(dc.mul(dists, Tensor(weights * float(scale))))


def repel_reference(embeddings, protos, scale: float, classes) -> Tensor:
    wanted = [c for c in sorted(set(int(c) for c in classes)) if protos.has(c)]
    dists = dc.sq_dists(embeddings, _proto_matrix(protos, wanted, live=True))
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


def embed_reference(model, x) -> tuple[Tensor, Tensor]:
    """(embeddings, logits) of ``model`` as one diffcore op per layer: the
    chain the fused representation op in ``Backbone.forward`` replaced."""
    x, rep, n = as_tensor(x), model.rep_params, x.shape[0]
    if model.arch.kind == "cnn":
        k1, cb1, k2, cb2, w1, b1, w2, b2 = rep
        a = dc.relu(dc.conv2d(dc.reshape(x, (n,) + model.arch.image_shape), k1, cb1))
        a = dc.relu(dc.conv2d(a, k2, cb2))
        h = dc.relu(dc.affine(dc.reshape(a, (n, a.size // n)), w1, b1))
        emb = dc.relu(dc.affine(h, w2, b2))
    elif model.arch.kind == "mlp":
        w1, b1, w2, b2 = rep
        emb = dc.relu(dc.affine(dc.relu(dc.affine(x, w1, b1)), w2, b2))
    else:
        emb = dc.affine(x, *rep)
    return emb, dc.affine(emb, *model.cls_params)
