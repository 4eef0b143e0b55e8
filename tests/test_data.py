import struct

import numpy as np
import pytest

from protofed.data import (
    ClientShard,
    Dataset,
    IdxFormatError,
    PartitionError,
    PartitionPlan,
    load_idx,
    partition_dirichlet,
    synth_blobs,
)


def write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray):
    """images: (n, rows, cols) uint8; labels: (n,) uint8."""
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx3-ubyte"
    lab_path = tmp_path / "labs.idx1-ubyte"
    img_path.write_bytes(struct.pack(">iiii", 0x803, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">ii", 0x801, n) + labels.tobytes())
    return img_path, lab_path


def linear_probe_accuracy(ds: Dataset) -> float:
    """Least-squares one-hot probe; independent of any model code."""
    x = np.hstack([ds.features, np.ones((len(ds), 1))])
    y = np.eye(ds.num_classes)[ds.labels]
    w, *_ = np.linalg.lstsq(x, y, rcond=None)
    pred = np.argmax(x @ w, axis=1)
    return float(np.mean(pred == ds.labels))


# ---------------------------------------------------------------------------
# IDX loading
# ---------------------------------------------------------------------------


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ds = load_idx(*write_idx_pair(tmp_path, images, labels))
    assert len(ds) == 7
    assert ds.input_dim == 12
    assert ds.image_shape == (1, 4, 3)
    assert ds.num_classes == 10
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
    x = ds.rows(np.arange(7))
    assert x.tobytes() == (images.reshape(7, 12) / 255.0).tobytes()
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_idx_keeps_the_files_uint8_pixels_read_only(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(5, 6, 4), dtype=np.uint8)
    ds = load_idx(*write_idx_pair(tmp_path, images, np.zeros(5, dtype=np.uint8)))
    assert ds.features.dtype == np.uint8 and not ds.features.flags.writeable
    assert ds.features.nbytes == 5 * 6 * 4
    assert ds.features.tobytes() == images.tobytes()
    assert not ds.features.flags.owndata  # a view of the bytes read, not a copy


def test_load_idx_peak_memory_stays_near_the_payload(tmp_path):
    # criterion 8's corpus size; the float64 matrix alone would be 8x the payload
    import tracemalloc

    n, side = 60_000, 28
    img_path, lab_path = tmp_path / "imgs", tmp_path / "labs"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 0x803, n, side, side))
        f.write(np.resize(np.arange(256, dtype=np.uint8), n * side * side))
    lab_path.write_bytes(struct.pack(">ii", 0x801, n) + (np.arange(n) % 10).astype(np.uint8).tobytes())
    tracemalloc.start()
    try:
        ds = load_idx(img_path, lab_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    assert peak < 1.25 * n * side * side, peak


def test_rows_scale_the_gathered_pixels_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    images = rng.integers(0, 256, size=(9, 3, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=9, dtype=np.uint8)
    ds = load_idx(*write_idx_pair(tmp_path, images, labels))
    pixels = images.reshape(9, 15)
    for idx in (rng.permutation(9), np.array([4, 4, 0, 8, 4]), np.zeros(0, dtype=np.int64)):
        x = ds.rows(idx)
        assert x.dtype == np.float64 and x.shape == (idx.size, 15)
        assert x.tobytes() == (pixels[idx] / 255.0).tobytes()
    other = tmp_path / "other"
    other.mkdir()
    images2 = rng.integers(0, 256, size=(4, 3, 5), dtype=np.uint8)
    ds2 = load_idx(*write_idx_pair(other, images2, np.ones(4, dtype=np.uint8)))
    both = Dataset.concat(ds, ds2)
    assert both.features.dtype == np.uint8
    pixels = np.vstack([pixels, images2.reshape(4, 15)])
    idx = rng.permutation(13)[np.array([0, 5, 5, 12, 3, 9])]
    assert both.rows(idx).tobytes() == (pixels[idx] / 255.0).tobytes()


def test_idx_empty_file_is_structured_error(tmp_path):
    img = tmp_path / "empty"
    img.write_bytes(b"")
    lab = tmp_path / "labs"
    lab.write_bytes(struct.pack(">ii", 0x801, 0))
    with pytest.raises(IdxFormatError, match="truncated header"):
        load_idx(img, lab)


def test_idx_bad_magic(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img_path, lab_path = write_idx_pair(tmp_path, images, labels)
    # swap the files: label magic where image magic is expected
    with pytest.raises(IdxFormatError, match="bad magic"):
        load_idx(lab_path, img_path)


def test_idx_count_mismatch(tmp_path):
    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    img_path, _ = write_idx_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
    lab_path = tmp_path / "short.idx1-ubyte"
    lab_path.write_bytes(struct.pack(">ii", 0x801, 2) + b"\x00\x00")
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_idx(img_path, lab_path)


def test_idx_truncated_payload(tmp_path):
    img_path = tmp_path / "trunc"
    img_path.write_bytes(struct.pack(">iiii", 0x803, 2, 2, 2) + b"\x00" * 7)
    lab_path = tmp_path / "labs"
    lab_path.write_bytes(struct.pack(">ii", 0x801, 2) + b"\x00\x00")
    with pytest.raises(IdxFormatError, match="payload"):
        load_idx(img_path, lab_path)


# ---------------------------------------------------------------------------
# Synthetic blobs
# ---------------------------------------------------------------------------


def test_dataset_features_are_a_checked_read_only_view():
    feats = np.arange(6.0).reshape(3, 2)
    ds = Dataset(features=feats, labels=[0, 1, 0], num_classes=2, name="t")
    assert ds.features.dtype == np.float64 and not ds.features.flags.writeable
    assert np.shares_memory(ds.features, feats) and feats.flags.writeable  # no copy
    assert not synth_blobs(classes=2, per_class=2, dim=2, spread=0.1, seed=0).features.flags.writeable
    for bad in (np.array([[0.0, np.nan]] * 3), np.array([[np.inf, 0.0]] * 3), np.zeros(3)):
        with pytest.raises(ValueError):
            Dataset(features=bad, labels=[0, 1, 0], num_classes=2, name="t")


def test_blobs_deterministic_and_balanced():
    a = synth_blobs(classes=3, per_class=50, dim=2, spread=0.1, seed=5)
    b = synth_blobs(classes=3, per_class=50, dim=2, spread=0.1, seed=5)
    assert a.features.tobytes() == b.features.tobytes()
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a) == 150
    np.testing.assert_array_equal(np.bincount(a.labels), [50, 50, 50])
    c = synth_blobs(classes=3, per_class=50, dim=2, spread=0.1, seed=6)
    assert a.features.tobytes() != c.features.tobytes()


def test_blobs_zero_spread_collapses_to_centers():
    ds = synth_blobs(classes=2, per_class=4, dim=3, spread=0.0, seed=1)
    for c in range(2):
        pts = ds.features[ds.labels == c]
        assert np.all(pts == pts[0])
    # centers sit on the unit sphere
    np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), 1.0, atol=1e-12)


def test_blobs_linear_probe_separability():
    ds = synth_blobs(classes=3, per_class=100, dim=2, spread=0.05, seed=2)
    assert linear_probe_accuracy(ds) >= 0.99


def test_blobs_validation():
    with pytest.raises(ValueError):
        synth_blobs(classes=1, per_class=5, dim=2, spread=0.1, seed=0)
    with pytest.raises(ValueError):
        synth_blobs(classes=2, per_class=5, dim=2, spread=-0.1, seed=0)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def plan_covers_everything(ds: Dataset, plan: PartitionPlan):
    all_idx = np.concatenate([np.concatenate([s.train, s.test]) for s in plan.shards])
    assert all_idx.size == len(ds)
    np.testing.assert_array_equal(np.sort(all_idx), np.arange(len(ds)))


def test_partition_disjoint_cover_and_histograms():
    ds = synth_blobs(classes=4, per_class=60, dim=2, spread=0.2, seed=3)
    plan = partition_dirichlet(ds, clients=5, alpha=0.5, test_fraction=0.2, seed=9)
    assert len(plan.shards) == 5
    plan_covers_everything(ds, plan)
    for shard in plan.shards:
        assert shard.train.size > 0
        counted = np.bincount(ds.labels[shard.train], minlength=4)
        np.testing.assert_array_equal(counted, shard.histogram)
        assert np.intersect1d(shard.train, shard.test).size == 0


def test_partition_deterministic_in_seed():
    ds = synth_blobs(classes=3, per_class=40, dim=2, spread=0.2, seed=4)
    p1 = partition_dirichlet(ds, clients=4, alpha=0.3, seed=11)
    p2 = partition_dirichlet(ds, clients=4, alpha=0.3, seed=11)
    for a, b in zip(p1.shards, p2.shards):
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)
    p3 = partition_dirichlet(ds, clients=4, alpha=0.3, seed=12)
    assert any(
        not np.array_equal(a.train, b.train) for a, b in zip(p1.shards, p3.shards)
    )


def test_partition_single_client_takes_all():
    ds = synth_blobs(classes=2, per_class=20, dim=2, spread=0.1, seed=5)
    plan = partition_dirichlet(ds, clients=1, alpha=1.0, test_fraction=0.25, seed=0)
    shard = plan.shards[0]
    assert shard.train.size + shard.test.size == 40
    # stratified: exactly 25% of each class held out
    np.testing.assert_array_equal(shard.histogram, [15, 15])


def test_partition_test_split_stratified():
    ds = synth_blobs(classes=3, per_class=50, dim=2, spread=0.2, seed=6)
    plan = partition_dirichlet(ds, clients=3, alpha=100.0, test_fraction=0.2, seed=7)
    for shard in plan.shards:
        for c in range(3):
            n_train = shard.histogram[c]
            n_test = np.sum(ds.labels[shard.test] == c)
            total = n_train + n_test
            assert n_test == int(np.floor(0.2 * total))


def test_partition_impossible_raises():
    # 3 samples cannot give 5 clients a nonempty train shard
    ds = synth_blobs(classes=3, per_class=1, dim=2, spread=0.0, seed=8)
    with pytest.raises(PartitionError):
        partition_dirichlet(ds, clients=5, alpha=1.0, test_fraction=0.0, seed=0)


def test_partition_two_domains_never_mix():
    a = synth_blobs(classes=3, per_class=40, dim=2, spread=0.2, seed=10)
    b = synth_blobs(classes=3, per_class=40, dim=2, spread=0.2, seed=20)
    combined = Dataset.concat(a, b)
    plan = partition_dirichlet(combined, clients=5, alpha=0.7, seed=13)
    assert plan.kind == "distinct-domain"
    plan_covers_everything(combined, plan)
    halves = [0, 0]
    for shard in plan.shards:
        mine = np.concatenate([shard.train, shard.test])
        domains = set(combined.sample_domains[mine].tolist())
        assert len(domains) == 1
        halves[domains.pop()] += 1
    assert halves == [3, 2]  # the larger half of an odd count takes the first domain


def test_sample_domains_must_index_two_domains():
    a = synth_blobs(classes=2, per_class=3, dim=2, spread=0.1, seed=0)
    combined = Dataset.concat(a, a)
    np.testing.assert_array_equal(combined.sample_domains, [0] * 6 + [1] * 6)
    assert combined.sample_domains.dtype == np.int64
    for bad in ([0, 1, 2, 0, 1, 0], [0, 1, 0.5, 0, 1, 0], ["a"] * 6, [0, 1, 0], [[0, 1, 0, 1, 0, 1]]):
        with pytest.raises(ValueError, match="sample_domains"):
            Dataset(a.features, a.labels, 2, "t", sample_domains=np.array(bad))


def test_concat_refuses_domains_stored_differently():
    blobs = synth_blobs(classes=2, per_class=3, dim=4, spread=0.1, seed=0)
    pixels = Dataset(np.zeros((6, 4), dtype=np.uint8), blobs.labels, 2, "pixels")
    for a, b in ((blobs, pixels), (pixels, blobs)):
        with pytest.raises(ValueError, match="blobs:2x3d4.*pixels|pixels.*blobs:2x3d4"):
            Dataset.concat(a, b)


def test_partition_plan_json_round_trips():
    import json

    ds = synth_blobs(classes=2, per_class=10, dim=2, spread=0.1, seed=14)
    plan = partition_dirichlet(ds, clients=2, alpha=1.0, seed=15)
    blob = json.loads(plan.to_json())
    assert blob["alpha"] == 1.0
    assert blob["kind"] == "same-domain"
    assert len(blob["clients"]) == 2
    got = sorted(i for c in blob["clients"] for i in c["train"] + c["test"])
    assert got == list(range(20))


def test_shard_histogram_validation():
    with pytest.raises(ValueError):
        ClientShard(0, np.array([1, 2]), np.array([3]), np.array([5]))


def test_partition_alpha_concentration_direction():
    # Higher alpha must look more uniform than lower alpha on the same data.
    # Counts are large enough that multinomial noise stays ~4% relative.
    ds = synth_blobs(classes=4, per_class=2000, dim=2, spread=0.2, seed=16)

    def worst_share(plan):
        shares = []
        for shard in plan.shards:
            frac = shard.histogram / shard.histogram.sum()
            shares.append(frac.max())
        return float(np.mean(shares))

    skew = partition_dirichlet(ds, clients=4, alpha=0.1, seed=17)
    flat = partition_dirichlet(ds, clients=4, alpha=1e6, seed=17)
    assert worst_share(skew) > worst_share(flat)
    np.testing.assert_allclose(worst_share(flat), 0.25, atol=0.02)
