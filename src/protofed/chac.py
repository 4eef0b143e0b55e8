"""Conditional hierarchical agglomerative clustering (Ward linkage).

Greedy bottom-up merging of embedding vectors: at each step the pair of
clusters whose merge least increases the within-cluster sum of squares is
fused, until the requested cluster count remains. The "conditional" part
is the guard used by prototype extraction: a class with fewer samples
than the requested count is not clustered at all, every sample stands
alone, so the output count is always min(requested, n).

Cluster means are maintained incrementally (exact weighted average), ties
on merge cost go to the lexicographically smallest cluster-id pair, and
ids follow the dendrogram convention: input points are clusters 0..n-1
and the i-th merge creates id n+i.

`chac` merges in batched reciprocal-nearest-neighbour steps (Murtagh 1983;
Muellner, arXiv:1109.2378). Ward linkage is reducible, so all pairs of
clusters that are each other's nearest neighbour merge in one step without
changing the hierarchy: a few dozen steps instead of n - requested. A pair
whose row holds its minimum twice is an exact tie and waits; a step with
no other pair falls back to the single merge a one-at-a-time run makes
next. The steps run down to one cluster, then the merges are put in the
one-at-a-time order, renumbered and cut after n - requested. A merge's
cost and mean depend only on its children, so merges, costs and centroids
are that run's, bit for bit. Memory is O(n^2): an n x n cost matrix and
work arrays no larger; the n^2 q difference tensor is never built.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Cluster",
    "ClusteringResult",
    "delta_ssq",
    "chac",
    "centroids",
    "kmeans",
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


def _sequential_order(pairs: np.ndarray, cost: np.ndarray, n: int) -> np.ndarray:
    """The order in which a one-merge-at-a-time run makes these merges.

    Row k of pairs holds merge k's children (points 0..n-1, merge k is
    n + k); every child merge is listed. That run makes the cheapest merge
    whose children exist, a tie going to the smallest (min id, max id) in
    its own ids. Sorting by cost is that order when no costs tie and each
    merge costs more than its children; otherwise a heap replays the run.
    """
    order = np.argsort(cost, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    by_cost, (owner, side) = cost[order], np.nonzero(pairs >= n)
    child = pairs[owner, side] - n
    if np.all(by_cost[1:] > by_cost[:-1]) and np.all(rank[child] < rank[owner]):
        return order
    parent = np.full(cost.size, -1)
    parent[child] = owner
    pairs, cost, parent = pairs.tolist(), cost.tolist(), parent.tolist()
    ids = list(range(n)) + [-1] * len(cost)  # that run's ids, -1 until made
    heap = [(cost[k], *sorted(kids), k) for k, kids in enumerate(pairs) if max(kids) < n]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        k = heapq.heappop(heap)[3]
        ids[n + k] = n + len(out)
        out.append(k)
        p = parent[k]
        if p >= 0 and min(ids[c] for c in pairs[p]) >= 0:
            heapq.heappush(heap, (cost[p], *sorted(ids[c] for c in pairs[p]), p))
    return np.array(out, dtype=np.intp)


def _next_single_merge(cost, nn_cost, node, pairs, merge_cost, n) -> tuple[int, int]:
    """Slots of the pair a one-merge-at-a-time run merges next: the cheapest,
    at cost m, and among exact ties the smallest (min id, max id) in that
    run's ids. Every merge cheaper than m is made, so ordering the merges
    made gives their ids; an m-cost cluster in a tie was made here, in that
    run's order, since a batch merges only pairs that cannot tie."""
    m = nn_cost.min()
    key = np.arange(n + merge_cost.size)  # points, then merges as made
    if np.any(merge_cost < m):
        key[n + _sequential_order(pairs, merge_cost, n)] = key[n:].copy()
    tied = np.flatnonzero(nn_cost == m)
    i = tied[key[node[tied]].argmin()]
    partners = np.flatnonzero(cost[i] == m)
    return i, partners[key[node[partners]].argmin()]


def _ward_tree(pts: np.ndarray):
    """All n - 1 Ward merges in the order made: children (points 0..n-1,
    the k-th merge made n + k), costs and merged means."""
    n, q = pts.shape
    slots = np.arange(n)
    means, sizes, node = pts.copy(), np.ones(n), slots.copy()  # node: id in a slot
    alive = np.ones(n, dtype=bool)
    cost = _initial_costs(pts)  # dead columns and the diagonal stay +inf
    # Each row's minimum and a partner at it. Which partner on an exact tie
    # does not matter: a tied pair never merges in a batch.
    nn = cost.argmin(axis=1)
    nn_cost = cost[slots, nn]
    pairs = np.empty((n - 1, 2), dtype=np.intp)
    merge_cost, merge_mean = np.empty(n - 1), np.empty((n - 1, q))
    made = 0
    while made < n - 1:
        # Every reciprocal pair, from its lower slot, unless a row of it
        # holds its minimum twice.
        a = np.flatnonzero((nn[nn] == slots) & (slots < nn))
        ends = np.concatenate((a, nn[a]))
        at_min = cost[ends] == nn_cost[ends, None]
        if np.count_nonzero(at_min) > ends.size:
            single = np.count_nonzero(at_min, axis=1) == 1
            a = a[single[: a.size] & single[a.size:]]
        if not a.size:
            i, nn[i] = _next_single_merge(cost, nn_cost, node, pairs[:made], merge_cost[:made], n)
            a = np.array([i])
        b, k = nn[a], a.size
        done = slice(made, made + k)
        pairs[done, 0], pairs[done, 1], merge_cost[done] = node[a], node[b], nn_cost[a]
        size_a, size_b = sizes[a, None], sizes[b, None]
        means[a] = merge_mean[done] = (size_a * means[a] + size_b * means[b]) / (size_a + size_b)
        sizes[a] += sizes[b]
        node[a] = n + made + np.arange(k)
        made += k
        alive[b], nn_cost[b], nn[b] = False, np.inf, b  # a dead slot pairs with nothing
        cost[:, b] = np.inf
        merged = np.zeros(n, dtype=bool)
        merged[a] = merged[b] = True
        stale = np.flatnonzero(alive & merged[nn])

        # The merged rows against the live slots: v_a v_b / (v_a + v_b) times
        # one einsum per block of at most _BLOCK_FLOATS difference entries.
        live = np.flatnonzero(alive)
        live_means, live_sizes = means[live], sizes[live]
        fresh = sizes[a, None] * live_sizes / (sizes[a, None] + live_sizes)
        gap_sq = np.empty_like(fresh)
        rows = max(1, _BLOCK_FLOATS // (live.size * q))
        for lo in range(0, k, rows):
            gap = live_means - means[a[lo:lo + rows], None]
            np.einsum("ijq,ijq->ij", gap, gap, out=gap_sq[lo:lo + rows])
        fresh *= gap_sq
        cost[a[:, None], live] = fresh
        cost[live[:, None], a] = fresh.T
        cost[a, a] = np.inf

        # A row takes a new cluster that is closer; rows that pointed into a
        # merged pair rescan, the merged rows among them.
        near = fresh.argmin(axis=0)
        near_cost = fresh[near, np.arange(live.size)]
        closer = near_cost < nn_cost[live]
        nn[live[closer]], nn_cost[live[closer]] = a[near[closer]], near_cost[closer]
        block = cost[stale]
        nn[stale] = block.argmin(axis=1)
        nn_cost[stale] = block[np.arange(stale.size), nn[stale]]
    return pairs, merge_cost, merge_mean


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

    pairs, cost, means = _ward_tree(pts)
    order = _sequential_order(pairs, cost, n)
    ids = np.arange(2 * n - 1)  # the one-at-a-time run's ids, by id made
    ids[n + order] = n + np.arange(n - 1)
    kept = order[: n - requested]
    lo, hi = np.sort(ids[pairs[kept]], axis=1).T
    merges = tuple(zip(lo.tolist(), hi.tolist(), cost[kept].tolist()))
    # Each point's cluster after the cut: follow the kept merges to a root.
    up = np.arange(2 * n - 1)
    up[pairs[kept]] = n + kept[:, None]
    while not np.array_equal(up, up[up]):
        up = up[up]
    root = up[:n]
    firsts = np.sort(np.unique(root, return_index=True)[1])  # by smallest member
    clusters = tuple(
        Cluster(
            tuple(np.flatnonzero(root == r).tolist()),
            (pts[r] if r < n else means[r - n]).copy(),
        )
        for r in root[firsts]
    )
    return ClusteringResult(clusters, merges, requested)


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
