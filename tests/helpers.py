"""Shared test oracles: central finite differences against the gradient tape,
and a naive Ward clustering to check chac against."""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from protofed.chac import Cluster, ClusteringResult, _as_points, _pair_cost, _singletons
from protofed.diffcore import Tape, Tensor, backward

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
