import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ward_reference
from protofed.chac import (
    Cluster,
    ClusteringResult,
    centroids,
    chac,
    delta_ssq,
    kmeans,
)


def rand_points(seed, n, q, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, q))


GOLDEN_PATH = Path(__file__).parent / "data" / "chac_golden.json"


def golden_inputs() -> dict[str, np.ndarray]:
    """The fixed inputs whose clustering chac_golden.json pins."""
    gauss = np.random.default_rng(501).standard_normal((200, 16))
    # Dead-ReLU-like embeddings: many exact zeros, so many exact cost ties.
    relu = np.maximum(np.random.default_rng(502).standard_normal((200, 16)) - 0.5, 0.0)
    rng = np.random.default_rng(503)
    distinct = rng.standard_normal((30, 16))
    repeated = distinct[rng.permutation(np.arange(200) % 30)]
    # Paper scale: about 480 embeddings of width 64 per class.
    rng = np.random.default_rng(504)
    centres = 3.0 * rng.standard_normal((6, 64))
    mixture = centres[rng.integers(0, 6, 480)] + rng.standard_normal((480, 64))
    # Half the rows exactly zero: one large block of exact cost ties.
    rng = np.random.default_rng(505)
    dead = np.maximum(rng.standard_normal((480, 64)) - 0.5, 0.0)
    dead[rng.permutation(480)[:240]] = 0.0
    return {
        "gaussian": gauss, "relu": relu, "repeated": repeated,
        "mixture480": mixture, "dead480": dead,
    }


def golden_record(pts: np.ndarray, requested: int) -> dict:
    """chac's output in exact form: costs and centroid entries as float.hex."""
    result = chac(pts, requested)
    return {
        "input_sha256": hashlib.sha256(pts.tobytes()).hexdigest(),
        "requested": requested,
        "merges": [[a, b, float(c).hex()] for a, b, c in result.merges],
        "members": [list(c.members) for c in result.clusters],
        "centroids": [[float(v).hex() for v in c.mean] for c in result.clusters],
    }


# ---------------------------------------------------------------------------
# Merge cost
# ---------------------------------------------------------------------------


def test_delta_ssq_singletons_hand_value():
    a = Cluster((0,), np.array([0.0]))
    b = Cluster((1,), np.array([2.0]))
    assert delta_ssq(a, b) == 2.0


def test_delta_ssq_weighted_hand_value():
    a = Cluster((0, 1), np.array([0.0, 0.0]))
    b = Cluster((2,), np.array([3.0, 0.0]))
    assert delta_ssq(a, b) == 6.0


def test_delta_ssq_symmetric_and_zero_iff_equal_means():
    rng = np.random.default_rng(0)
    a = Cluster((0, 1, 2), rng.uniform(-1, 1, 4))
    b = Cluster((3,), rng.uniform(-1, 1, 4))
    assert delta_ssq(a, b) == delta_ssq(b, a)
    assert delta_ssq(a, b) > 0
    same = Cluster((5, 6), a.mean.copy())
    assert delta_ssq(a, same) == 0.0


def test_delta_ssq_dimension_mismatch():
    with pytest.raises(ValueError):
        delta_ssq(Cluster((0,), np.zeros(2)), Cluster((1,), np.zeros(3)))


# ---------------------------------------------------------------------------
# Conditional Ward agglomeration
# ---------------------------------------------------------------------------


def test_chac_three_points_hand_case():
    result = chac(np.array([[0.0], [1.0], [10.0]]), requested=2)
    assert result.partition() == frozenset({frozenset({0, 1}), frozenset({2})})
    assert len(result.merges) == 1
    a, b, cost = result.merges[0]
    assert (a, b) == (0, 1)
    assert cost == 0.5  # (1*1/2) * 1^2


def test_chac_guard_returns_singletons():
    pts = rand_points(1, 5, 3)
    result = chac(pts, requested=7)
    assert result.achieved == 5
    assert result.merges == ()
    assert result.partition() == frozenset(frozenset({i}) for i in range(5))


def test_chac_guard_exhaustive_small():
    # Output count is always min(requested, n); singletons iff n <= requested.
    for n in range(1, 8):
        pts = rand_points(10 + n, n, 2)
        for requested in range(1, 8):
            result = chac(pts, requested)
            assert result.achieved == min(requested, n)
            idx = sorted(i for c in result.clusters for i in c.members)
            assert idx == list(range(n))
            if n <= requested:
                assert result.merges == ()
            else:
                assert len(result.merges) == n - requested


def test_chac_single_cluster_mean_is_global_mean():
    pts = rand_points(2, 9, 4)
    result = chac(pts, requested=1)
    assert result.achieved == 1
    np.testing.assert_allclose(result.clusters[0].mean, pts.mean(axis=0), atol=1e-12)
    assert result.clusters[0].members == tuple(range(9))


def test_chac_duplicates_merge_first():
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [-4.0, 2.0]])
    result = chac(pts, requested=3)
    assert frozenset({0, 2}) in result.partition()
    assert result.merges[0][2] == 0.0


def test_chac_merge_log_monotone():
    for seed in range(8):
        pts = rand_points(seed, 24, 3)
        result = chac(pts, requested=2)
        costs = [c for _, _, c in result.merges]
        assert all(a <= b for a, b in zip(costs, costs[1:]))


def test_chac_cluster_means_match_members():
    pts = rand_points(3, 30, 5)
    result = chac(pts, requested=4)
    for cluster in result.clusters:
        np.testing.assert_allclose(
            cluster.mean, pts[list(cluster.members)].mean(axis=0), atol=1e-10
        )


def test_chac_ids_follow_dendrogram_convention():
    pts = rand_points(4, 10, 2)
    result = chac(pts, requested=1)
    seen = set(range(10))
    for step, (a, b, _) in enumerate(result.merges):
        assert a < b
        assert a in seen and b in seen
        seen -= {a, b}
        seen.add(10 + step)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 20), st.integers(1, 6), st.integers(1, 4))
def test_chac_matches_naive_reference(seed, n, requested, q):
    pts = rand_points(seed, n, q)
    fast = chac(pts, requested)
    slow = ward_reference(pts, requested)
    assert fast.partition() == slow.partition()
    assert len(fast.merges) == len(slow.merges)
    for (a1, b1, c1), (a2, b2, c2) in zip(fast.merges, slow.merges):
        assert (a1, b1) == (a2, b2)
        np.testing.assert_allclose(c1, c2, rtol=1e-9)


def tie_heavy_points(kind: str, seed: int) -> tuple[np.ndarray, int]:
    """Inputs whose exact cost ties are exact in chac and the oracle alike.

    The oracle recomputes means from members, chac updates them, so a tie
    that holds only in exact arithmetic (say between means of three points)
    can round apart differently in each; these recipes avoid that:
    duplicated rows on a 2^-20 grid (sums of copies stay exact),
    ReLU-clipped rows (ties among exact zeros), and small integer grids
    merged only part way (pair and triple means round the same in both).
    """
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(6, 26)), int(rng.integers(1, 5))
    if kind == "duplicates":
        base = np.round(rng.uniform(-2, 2, (max(2, n // 3), q)) * 2**20) / 2**20
        return base[rng.integers(0, len(base), n)], int(rng.integers(1, 5))
    if kind == "relu":
        return np.maximum(rng.standard_normal((n, q)) - 0.5, 0.0), int(rng.integers(1, 5))
    return rng.integers(0, 3, (n, q)).astype(float), int(rng.integers(n // 2, n))


@pytest.mark.parametrize("kind", ["duplicates", "relu", "grid"])
def test_chac_matches_naive_reference_on_exact_ties(kind):
    tied_merges = 0
    for seed in range(40):
        pts, requested = tie_heavy_points(kind, seed)
        fast = chac(pts, requested)
        slow = ward_reference(pts, requested)
        assert fast.partition() == slow.partition()
        assert [m[:2] for m in fast.merges] == [m[:2] for m in slow.merges]
        for (_, _, c1), (_, _, c2) in zip(fast.merges, slow.merges):
            np.testing.assert_allclose(c1, c2, rtol=1e-9)
        tied_merges += len(fast.merges) - len({c for _, _, c in fast.merges})
    assert tied_merges > 50  # the inputs really reach the tie-break


def test_chac_tie_breaks_follow_one_at_a_time_ids():
    # Small grids merged to one or two clusters: exact ties between clusters
    # made in different batch steps, which only the ids of a one-merge-at-a-
    # time run put in the oracle's order.
    for seed in range(100):
        rng = np.random.default_rng([seed, 7])
        n, q = int(rng.integers(6, 30)), int(rng.integers(1, 4))
        pts = rng.integers(0, 3, (n, q)).astype(float)
        requested = int(rng.integers(1, 3))
        fast = chac(pts, requested)
        slow = ward_reference(pts, requested)
        assert fast.partition() == slow.partition()
        assert [m[:2] for m in fast.merges] == [m[:2] for m in slow.merges]
        for (_, _, c1), (_, _, c2) in zip(fast.merges, slow.merges):
            np.testing.assert_allclose(c1, c2, rtol=1e-9)


@pytest.mark.parametrize("name", ["gaussian", "relu", "repeated", "mixture480", "dead480"])
def test_chac_golden_bitwise(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    pts = golden_inputs()[name]
    assert hashlib.sha256(pts.tobytes()).hexdigest() == golden["input_sha256"], (
        "the golden input generator changed; chac was not compared"
    )
    assert golden_record(pts, golden["requested"]) == golden


def test_chac_memory_stays_quadratic():
    n, q = 1500, 64
    pts = np.random.default_rng(21).standard_normal((n, q))
    tracemalloc.start()
    try:
        result = chac(pts, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.achieved == 3
    # A few n x n float matrices; the n^2 q difference tensor would be 1.15 GB.
    assert peak <= 4 * n * n * 8


def test_chac_permutation_equivariant():
    rng = np.random.default_rng(7)
    pts = rand_points(8, 16, 3)
    perm = rng.permutation(16)
    base = chac(pts, 4).partition()
    permuted = chac(pts[perm], 4).partition()
    mapped = frozenset(
        frozenset(int(perm[i]) for i in cluster) for cluster in permuted
    )
    assert mapped == base


def test_chac_input_validation():
    with pytest.raises(ValueError):
        chac(np.zeros((0, 2)), 1)
    with pytest.raises(ValueError):
        chac(np.zeros((3, 2)), 0)
    with pytest.raises(ValueError):
        chac(np.array([[np.nan, 0.0]]), 1)
    with pytest.raises(ValueError):
        chac(np.zeros(3), 1)


def test_centroids_and_merge_log_hand_case():
    pts = np.array([[0.0], [1.0], [10.0]])
    result = chac(pts, 2)
    cents = centroids(result)
    np.testing.assert_allclose(cents, [[0.5], [10.0]])
    assert result.merges[0] == (0, 1, 0.5)


# ---------------------------------------------------------------------------
# K-Means alternative
# ---------------------------------------------------------------------------


def brute_force_best_2_split(pts: np.ndarray) -> float:
    n = len(pts)
    best = np.inf
    for mask in range(1, 2 ** (n - 1)):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        cost = 0.0
        for side in (sel, ~sel):
            if side.any():
                mu = pts[side].mean(axis=0)
                cost += float(((pts[side] - mu) ** 2).sum())
        best = min(best, cost)
    return best


def inertia(result: ClusteringResult, pts: np.ndarray) -> float:
    total = 0.0
    for c in result.clusters:
        total += float(((pts[list(c.members)] - c.mean) ** 2).sum())
    return total


def test_kmeans_two_blobs_reach_optimal_split():
    rng = np.random.default_rng(11)
    pts = np.vstack([
        rng.normal([-3, 0], 0.3, size=(6, 2)),
        rng.normal([3, 0], 0.3, size=(6, 2)),
    ])
    result = kmeans(pts, 2, seed=0)
    np.testing.assert_allclose(inertia(result, pts), brute_force_best_2_split(pts), rtol=1e-9)


def test_kmeans_distinct_points_k_equals_n():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    result = kmeans(pts, 3, seed=1)
    assert result.achieved == 3
    assert result.partition() == frozenset(frozenset({i}) for i in range(3))


def test_kmeans_guard_and_determinism():
    pts = rand_points(12, 4, 2)
    assert kmeans(pts, 9, seed=0).partition() == frozenset(frozenset({i}) for i in range(4))
    a = kmeans(rand_points(13, 40, 3), 5, seed=7)
    b = kmeans(rand_points(13, 40, 3), 5, seed=7)
    assert a.partition() == b.partition()
    assert a.merges == ()


def test_kmeans_partitions_everything():
    pts = rand_points(14, 25, 3)
    result = kmeans(pts, 4, seed=3)
    idx = sorted(i for c in result.clusters for i in c.members)
    assert idx == list(range(25))
    assert result.achieved <= 4
    for c in result.clusters:
        np.testing.assert_allclose(c.mean, pts[list(c.members)].mean(axis=0), atol=1e-12)
