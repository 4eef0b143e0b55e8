"""Conditional hierarchical agglomerative clustering (Ward linkage).

Greedy bottom-up merging of embedding vectors: at each step the pair of
clusters whose merge least increases the within-cluster sum of squares is
fused, until the requested cluster count remains. The "conditional" part
is the guard used by prototype extraction: a class with fewer samples
than the requested count is not clustered at all, every sample stands
alone, so the output count is always min(requested, n).

Cluster means are maintained incrementally (exact weighted average, which
for Ward linkage reproduces the recompute-from-members costs), and ties
on merge cost are broken by the lexicographically smallest cluster-id
pair. Ids follow the dendrogram convention: input points are clusters
0..n-1 and the i-th merge creates id n+i.

`chac` is the generic algorithm with a nearest-neighbour list (Muellner,
"Modern hierarchical, agglomerative clustering algorithms", 2011, sec. 3):
an n x n cost matrix, built in row blocks, plus each row's minimum cost
and its partner, the smallest cluster id among exact ties. A merge picks
the global pair from those n entries, refreshes the merged cluster's row
and rescans only the rows that pointed at the merged pair, so a step
costs O(n q) plus a rescan instead of a scan of the whole matrix. Memory
is O(n^2) floats: the n^2 q pairwise-difference tensor is never built.
Merges stay in cost order, so the merge log, the costs and the centroids
are the ones a full-matrix scan gives, bit for bit.

A deliberately naive reference (`_ward_reference`, recompute everything
each step) ships here for equivalence testing only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Cluster",
    "ClusteringResult",
    "delta_ssq",
    "chac",
    "centroids",
    "kmeans",
    "merge_log_csv",
]


@dataclass(frozen=True)
class Cluster:
    """Member indices into the input plus their running mean."""

    members: tuple[int, ...]
    mean: np.ndarray

    def __post_init__(self):
        if not self.members:
            raise ValueError("a cluster needs at least one member")
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusteringResult:
    clusters: tuple[Cluster, ...]
    merges: tuple[tuple[int, int, float], ...]  # (id_a, id_b, cost), id_a < id_b
    requested: int

    @property
    def achieved(self) -> int:
        return len(self.clusters)

    def partition(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(c.members) for c in self.clusters)


def _pair_cost(size_a: float, mean_a: np.ndarray, size_b: float, mean_b: np.ndarray) -> float:
    gap = mean_a - mean_b
    return float(size_a * size_b / (size_a + size_b) * np.dot(gap, gap))


def delta_ssq(a: Cluster, b: Cluster) -> float:
    """Increase in within-cluster sum of squares if a and b were merged."""
    if a.mean.shape != b.mean.shape:
        raise ValueError(f"dimension mismatch: {a.mean.shape} vs {b.mean.shape}")
    return _pair_cost(a.size, a.mean, b.size, b.mean)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError(f"points must be a nonempty (n, q) array, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain NaN or Inf")
    return pts


def _singletons(pts: np.ndarray, requested: int) -> ClusteringResult:
    clusters = tuple(Cluster((i,), pts[i].copy()) for i in range(len(pts)))
    return ClusteringResult(clusters, (), requested)


_BLOCK_FLOATS = 1 << 16  # difference entries per block of the initial costs


def _initial_costs(pts: np.ndarray) -> np.ndarray:
    """Singleton Ward costs 0.5 * |x_a - x_b|^2 with an +inf diagonal.

    Rows come in blocks against the columns from the block's first row on,
    at most _BLOCK_FLOATS difference entries at a time, and are mirrored
    below the diagonal: the n^2 q difference tensor never exists, and each
    entry is the einsum contraction that tensor would give.
    """
    n, q = pts.shape
    cost = np.empty((n, n))
    rows = max(1, _BLOCK_FLOATS // (n * q))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff = pts[lo:hi, None, :] - pts[None, lo:, :]
        part = np.einsum("ijq,ijq->ij", diff, diff)
        cost[lo:hi, lo:] = part
        cost[lo:, lo:hi] = part.T
    cost *= 0.5  # singleton sizes: v_a v_b / (v_a + v_b) = 1/2
    np.fill_diagonal(cost, np.inf)
    return cost


def chac(points, requested: int) -> ClusteringResult:
    """Ward-linkage agglomeration down to ``requested`` clusters.

    Fewer points than requested leaves every point alone (the conditional
    guard); the merge log records (id_a, id_b, cost) per step with
    non-decreasing costs.
    """
    pts = _as_points(points)
    if requested < 1:
        raise ValueError(f"requested cluster count must be >= 1, got {requested}")
    n = len(pts)
    if n <= requested:
        return _singletons(pts, requested)

    means = pts.copy()
    sizes = np.ones(n)
    alive = np.ones(n, dtype=bool)
    ids = np.arange(n)
    members: list[list[int]] = [[i] for i in range(n)]

    # Symmetric cost matrix; dead slots and the diagonal stay +inf.
    cost = _initial_costs(pts)
    # Per-row nearest neighbour: the row minimum and, among exact ties, the
    # partner with the smallest cluster id (ids equal slots at the start,
    # and argmin returns the first minimum).
    nn = cost.argmin(axis=1)
    nn_cost = cost[ids, nn]
    no_id = 2 * n  # larger than every cluster id

    merges: list[tuple[int, int, float]] = []
    next_id = n
    remaining = n
    while remaining > requested:
        m = nn_cost.min()
        # Every slot in a pair of cost m has row minimum m. The smallest id
        # among them and its nearest neighbour form the pair with the
        # smallest (min id, max id) key. The merged cluster takes slot i.
        tied = np.flatnonzero(nn_cost == m)
        i = tied[ids[tied].argmin()]
        j = nn[i]
        merges.append((int(ids[i]), int(ids[j]), float(m)))

        size_i, size_j = sizes[i], sizes[j]
        merged_size = size_i + size_j
        means[i] = (size_i * means[i] + size_j * means[j]) / merged_size
        sizes[i] = merged_size
        members[i].extend(members[j])
        ids[i] = next_id
        next_id += 1
        alive[j] = False
        means[j] = np.inf  # dead slots get +inf costs below
        cost[j, :] = np.inf
        cost[:, j] = np.inf
        nn_cost[j] = np.inf

        # Refresh slot i's costs against every slot; the dead come out +inf.
        gap = means - means[i]
        pair = merged_size * sizes / (merged_size + sizes)
        fresh = pair * np.einsum("kq,kq->k", gap, gap)
        fresh[i] = np.inf
        cost[i] = fresh
        cost[:, i] = fresh

        # Rows that pointed at i or j rescan, row i among them (the merged
        # pair point at each other). Every other row keeps its neighbour
        # unless i is now strictly closer: on an exact tie the old neighbour
        # wins, since i's new id is the largest.
        stale = (nn == i) | (nn == j)
        stale[j] = False
        nn[fresh < nn_cost] = i
        np.minimum(nn_cost, fresh, out=nn_cost)
        stale = np.flatnonzero(stale)
        block = cost[stale]
        low = block.min(axis=1)
        nn_cost[stale] = low
        nn[stale] = np.where(block == low[:, None], ids, no_id).argmin(axis=1)
        remaining -= 1

    order = sorted(np.flatnonzero(alive), key=lambda s: min(members[s]))
    clusters = tuple(
        Cluster(tuple(sorted(members[s])), means[s].copy()) for s in order
    )
    return ClusteringResult(clusters, tuple(merges), requested)


def _ward_reference(points, requested: int) -> ClusteringResult:
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


def centroids(result: ClusteringResult) -> np.ndarray:
    """Cluster means as an (achieved, q) array, in result order."""
    return np.vstack([c.mean for c in result.clusters])


def kmeans(points, requested: int, seed: int, max_iters: int = 100) -> ClusteringResult:
    """Lloyd's iteration with uniform-over-points init; same conditional
    guard as chac. Clusters that empty out are dropped from the result."""
    pts = _as_points(points)
    if requested < 1:
        raise ValueError(f"requested cluster count must be >= 1, got {requested}")
    n = len(pts)
    if n < requested:
        return _singletons(pts, requested)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 103]))
    cents = pts[rng.choice(n, size=requested, replace=False)].copy()
    assign = np.full(n, -1)
    for _ in range(max_iters):
        d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(requested):
            mine = assign == k
            if np.any(mine):  # empty clusters keep their old centroid
                cents[k] = pts[mine].mean(axis=0)

    clusters = []
    for k in range(requested):
        mem = np.flatnonzero(assign == k)
        if mem.size:
            clusters.append(Cluster(tuple(int(i) for i in mem), pts[mem].mean(axis=0)))
    return ClusteringResult(tuple(clusters), (), requested)


def merge_log_csv(result: ClusteringResult) -> str:
    """Dendrogram audit: one line per merge."""
    lines = ["step,cluster_a,cluster_b,delta_ssq"]
    for step, (a, b, c) in enumerate(result.merges):
        lines.append(f"{step},{a},{b},{c!r}")
    return "\n".join(lines) + "\n"
