import json
from pathlib import Path

import numpy as np
import pytest

from helpers import check_grads, embed_reference
from protofed import diffcore as dc
from protofed.diffcore import NonFiniteError, ShapeError, Tape, Tensor, backward
from protofed.losses import cross_entropy
from protofed.model import (
    Arch,
    ConvBackbone,
    LinearBackbone,
    MLPBackbone,
    ModelSnapshot,
    build_backbone,
    flatten_params,
    init_backbone,
    sgd_step,
    snapshot,
    unflatten_params,
)

MLP2x4x3 = Arch(kind="mlp", input_dim=2, embedding_dim=4, num_classes=3, hidden=4)
CNN1x7x6 = Arch(kind="cnn", input_dim=42, embedding_dim=3, num_classes=4, hidden=5,
                image_shape=(1, 7, 6), channels=(2, 3))
# Every backbone kind, with the _CONV_BLOCK_ENTRIES to run it under (None: as is).
KINDS = [
    (MLP2x4x3, None),
    (Arch(kind="linear", input_dim=5, embedding_dim=3, num_classes=4), None),
    (CNN1x7x6, None),
    (Arch(kind="cnn", input_dim=84, embedding_dim=3, num_classes=4, hidden=5,
          image_shape=(2, 7, 6), channels=(2, 3)), 2 * 18 * 5 * 4),  # first conv: 2-sample blocks
]


def small_mlp(seed=0, arch=MLP2x4x3):
    return init_backbone(arch, np.random.default_rng(seed))


@pytest.mark.parametrize("arch, block_entries", KINDS)
def test_infer_is_forward_off_the_tape(monkeypatch, arch, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(dc, "_CONV_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(11)
    model = init_backbone(arch, rng)
    x = rng.uniform(-1, 1, size=(7, arch.input_dim))
    emb, logits = model.forward(Tensor(x))
    with Tape() as tape:
        model.watch(tape)
        got = model.infer(x)
    assert tape.num_records == 0
    for arr, want in zip(got, (emb, logits)):
        assert type(arr) is np.ndarray
        assert arr.shape == want.shape and arr.tobytes() == want.data.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infer_checks_input_and_outputs():
    model = small_mlp()
    with pytest.raises(ShapeError):
        model.infer(np.zeros((3, 5)))
    w1, *rest = model.params
    model.load([Tensor(np.full(w1.shape, 1e300)), *rest])
    with pytest.raises(NonFiniteError, match="^infer embeddings produced"):
        model.infer(np.full((2, 2), 1e300))


def _values_and_grads(forward, model, x, watch_input, labels, weights) -> list[bytes]:
    with Tape() as tape:
        model.watch(tape)
        if watch_input:
            tape.watch(x)
        emb, logits = forward(x)
        # The embeddings reach the loss directly and through the classifier.
        loss = dc.add(cross_entropy(logits, labels), dc.tsum(dc.mul(emb, weights)))
    grads = backward(tape, loss)
    leaves = model.params + ([x] if watch_input else [])
    return [emb.data.tobytes(), logits.data.tobytes()] + [grads[t].tobytes() for t in leaves]


@pytest.mark.parametrize("watch_input", [False, True])
@pytest.mark.parametrize("arch, block_entries", KINDS)
def test_fused_representation_matches_op_chain_bitwise(monkeypatch, arch, block_entries, watch_input):
    if block_entries is not None:
        monkeypatch.setattr(dc, "_CONV_BLOCK_ENTRIES", block_entries)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = init_backbone(arch, rng)
        x = Tensor(rng.uniform(-1, 1, size=(7, arch.input_dim)))
        labels = rng.integers(0, arch.num_classes, size=7)
        weights = Tensor(rng.uniform(-1, 1, size=(7, arch.embedding_dim)))
        args = (model, x, watch_input, labels, weights)
        got = _values_and_grads(model.forward, *args)
        assert got == _values_and_grads(lambda t: embed_reference(model, t), *args)


@pytest.mark.parametrize("arch, block_entries", KINDS)
def test_training_forward_records_two_ops(arch, block_entries):
    model = init_backbone(arch, np.random.default_rng(3))
    with Tape() as tape:
        model.watch(tape)
        model.forward(Tensor(np.ones((2, arch.input_dim))))
    assert tape.num_records == 2  # the representation, then the classifier


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cnn_overflow_names_conv2d():
    model = init_backbone(CNN1x7x6, np.random.default_rng(19))
    k1, *rest = model.params
    model.load([Tensor(np.full(k1.shape, 1e300)), *rest])
    with Tape() as tape:
        model.watch(tape)
        with pytest.raises(NonFiniteError, match="^conv2d produced"):
            model.forward(Tensor(np.full((2, 42), 1e300)))


def test_init_is_seed_deterministic():
    a, b = small_mlp(7), small_mlp(7)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa.data, pb.data)
    c = small_mlp(8)
    assert any(not np.array_equal(pa.data, pc.data) for pa, pc in zip(a.params, c.params))


def test_init_respects_fan_in_bounds():
    arch = Arch(kind="mlp", input_dim=100, embedding_dim=5, num_classes=3, hidden=9)
    b = init_backbone(arch, np.random.default_rng(1))
    w1 = b.rep_params[0].data
    assert np.abs(w1).max() <= 1.0 / 10.0
    w2 = b.rep_params[2].data
    assert np.abs(w2).max() <= 1.0 / 3.0


def test_forward_shapes_and_purity():
    b = small_mlp()
    x = Tensor(np.random.default_rng(2).uniform(-1, 1, size=(5, 2)))
    before = [p.data.copy() for p in b.params]
    emb, logits = b.forward(x)
    assert emb.shape == (5, 4) and logits.shape == (5, 3)
    for p, old in zip(b.params, before):
        np.testing.assert_array_equal(p.data, old)
    # same input, same output
    emb2, logits2 = b.forward(x)
    np.testing.assert_array_equal(logits.data, logits2.data)


def test_zero_weight_mlp_gives_flat_logits():
    b = small_mlp()
    b.load([Tensor(np.zeros(p.shape)) for p in b.params])
    _, logits = b.forward(Tensor([[1.0, -2.0], [0.5, 0.5]]))
    assert np.all(logits.data == 0.0)


def test_linear_identity_embeds_inputs():
    arch = Arch(kind="linear", input_dim=3, embedding_dim=3, num_classes=2)
    b = init_backbone(arch, np.random.default_rng(0))
    b.load(
        [Tensor(np.eye(3)), Tensor(np.zeros(3))]
        + [Tensor(p.data) for p in b.cls_params]
    )
    x = np.random.default_rng(1).uniform(-2, 2, size=(4, 3))
    emb, _ = b.forward(Tensor(x))
    np.testing.assert_array_equal(emb.data, x)


def test_forward_rejects_bad_width():
    with pytest.raises(ShapeError):
        small_mlp().forward(Tensor(np.ones((2, 3))))


def test_golden_mlp_forward():
    golden = json.loads((Path(__file__).parent / "data" / "mlp_golden.json").read_text())
    arch = Arch(**golden["arch"])
    b = init_backbone(arch, np.random.default_rng(golden["seed"]))
    emb, logits = b.forward(Tensor(golden["batch"]))
    np.testing.assert_allclose(logits.data, golden["logits"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(emb.data, golden["embeddings"], rtol=0, atol=1e-12)


def test_cnn_forward_and_grads():
    arch = Arch(
        kind="cnn",
        input_dim=2 * 6 * 6,
        embedding_dim=3,
        num_classes=2,
        hidden=4,
        image_shape=(2, 6, 6),
        channels=(2, 3),
    )
    b = init_backbone(arch, np.random.default_rng(5))
    assert isinstance(b, ConvBackbone)
    x = np.random.default_rng(6).uniform(-1, 1, size=(2, 72))
    emb, logits = b.forward(Tensor(x))
    assert emb.shape == (2, 3) and logits.shape == (2, 2)

    labels = np.array([0, 1])
    xs = Tensor(x)

    def build(leaves):
        m = build_backbone(arch, leaves)
        _, z = m.forward(xs)
        return dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(z, 1.0), labels)))

    check_grads(build, [p.data for p in b.params])


def test_training_step_reaches_every_param():
    b = small_mlp(3)
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, size=(6, 2)))
    labels = np.random.default_rng(5).integers(0, 3, size=6)
    with Tape() as tape:
        b.watch(tape)
        _, logits = b.forward(x)
        loss = dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(logits, 1.0), labels)))
    grads = backward(tape, loss)
    assert set(grads) == set(b.params)
    assert any(np.any(grads[p] != 0.0) for p in b.params)


def test_sgd_step_zero_grads_is_identity():
    b = small_mlp(9)
    before = [p.data.copy() for p in b.params]
    sgd_step(b, {p: np.zeros(p.shape) for p in b.params}, lr=0.1)
    for p, old in zip(b.params, before):
        assert p.data.tobytes() == old.tobytes()


def test_sgd_step_applies_known_update():
    b = small_mlp(10)
    grads = {p: np.ones(p.shape) for p in b.params}
    before = [p.data.copy() for p in b.params]
    sgd_step(b, grads, lr=0.5)
    for p, old in zip(b.params, before):
        np.testing.assert_array_equal(p.data, old - 0.5)


def test_sgd_step_validations():
    b = small_mlp(11)
    with pytest.raises(ValueError):
        sgd_step(b, {p: np.zeros(p.shape) for p in b.params}, lr=0.0)
    bad = {p: np.zeros(p.shape) for p in b.params}
    bad[b.params[0]] = np.zeros((1, 1))
    with pytest.raises(ShapeError):
        sgd_step(b, bad, lr=0.1)
    with pytest.raises(ShapeError):
        sgd_step(b, {}, lr=0.1)


def test_sgd_step_non_finite_update_names_sgd_step():
    b = small_mlp(16)
    before = [p.data.tobytes() for p in b.params]
    grads = {p: np.zeros(p.shape) for p in b.params}
    grads[b.params[3]] = np.full(b.params[3].shape, np.inf)
    with pytest.raises(NonFiniteError, match="^sgd_step produced"):
        sgd_step(b, grads, lr=0.1)
    assert [p.data.tobytes() for p in b.params] == before


def test_parameters_stay_read_only_after_a_step():
    b = small_mlp(17)
    for _ in range(2):
        sgd_step(b, {p: np.ones(p.shape) for p in b.params}, lr=0.1)
        for p in b.params:
            with pytest.raises(ValueError):
                p.data[...] = 0.0


def test_stepping_one_backbone_leaves_its_siblings_unchanged():
    server = small_mlp(18)
    a, b = (build_backbone(MLP2x4x3, list(server.params)) for _ in range(2))
    want = [p.data.tobytes() for p in server.params]
    sgd_step(a, {p: np.ones(p.shape) for p in a.params}, lr=0.1)
    stepped = [p.data.tobytes() for p in a.params]
    assert stepped != want
    assert [p.data.tobytes() for p in b.params] == want
    assert [p.data.tobytes() for p in server.params] == want
    sgd_step(b, {p: np.ones(p.shape) for p in b.params}, lr=0.2)
    assert [p.data.tobytes() for p in a.params] == stepped


def test_flatten_unflatten_round_trip_bitwise():
    b = small_mlp(12)
    flat = flatten_params(b.params)
    back = unflatten_params(flat, [p.shape for p in b.params])
    for p, q in zip(b.params, back):
        assert p.data.tobytes() == q.data.tobytes()
    with pytest.raises(ShapeError):
        unflatten_params(flat[:-1], [p.shape for p in b.params])


def test_snapshot_round_trip_and_teacher_equality():
    b = small_mlp(13)
    snap = snapshot(b, round_idx=4)
    teacher = snap.build()
    x = Tensor(np.random.default_rng(14).uniform(-1, 1, size=(3, 2)))
    _, z1 = b.forward(x)
    _, z2 = teacher.forward(x)
    assert z1.data.tobytes() == z2.data.tobytes()
    # later training must not leak into the snapshot
    sgd_step(b, {p: np.ones(p.shape) for p in b.params}, lr=0.1)
    _, z3 = snap.build().forward(x)
    assert z3.data.tobytes() == z2.data.tobytes()


def test_snapshot_bytes_round_trip():
    arch = Arch(
        kind="cnn",
        input_dim=1 * 5 * 5,
        embedding_dim=2,
        num_classes=2,
        hidden=3,
        image_shape=(1, 5, 5),
        channels=(2, 2),
    )
    b = init_backbone(arch, np.random.default_rng(15))
    snap = snapshot(b, round_idx=7)
    blob = snap.to_bytes()
    loaded = ModelSnapshot.from_bytes(blob)
    assert loaded.round_idx == 7
    assert loaded.arch == arch
    assert loaded.shapes == snap.shapes
    assert loaded.flat.tobytes() == snap.flat.tobytes()
    with pytest.raises(ValueError):
        ModelSnapshot.from_bytes(blob[: len(blob) - 8])


def test_arch_validation():
    with pytest.raises(ValueError):
        Arch(kind="rnn", input_dim=2, embedding_dim=2, num_classes=2)
    with pytest.raises(ValueError):
        Arch(kind="mlp", input_dim=2, embedding_dim=2, num_classes=2, hidden=0)
    with pytest.raises(ValueError):
        Arch(kind="cnn", input_dim=9, embedding_dim=2, num_classes=2, hidden=2,
             image_shape=(1, 3, 3))
