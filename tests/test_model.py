import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import check_grads, cross_entropy, embed_reference, forward
from protofed import diffcore as dc
from protofed import losses
from protofed.diffcore import NonFiniteError, ShapeError, Tape, Tensor, backward
from protofed.model import (
    Arch,
    Backbone,
    BackboneStack,
    ModelSnapshot,
    build_backbone,
    _flat_layout,
    _layers,
    flatten_params,
    init_backbone,
    sgd_step,
    snapshot,
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
    emb, logits, cache = model.forward(x)
    assert len(cache) == len(_layers(arch)) + 1  # each layer's input, then the embeddings
    got = model.infer(x)
    for arr, want in zip(got, (emb, logits)):
        assert type(arr) is np.ndarray
        assert arr.shape == want.shape and arr.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_infer_checks_input_and_outputs():
    model = small_mlp()
    with pytest.raises(ShapeError):
        model.infer(np.zeros((3, 5)))
    w1, *rest = model.params
    model = build_backbone(model.arch, [np.full(w1.shape, 1e300), *rest])
    with pytest.raises(NonFiniteError, match="^infer embeddings produced"):
        model.infer(np.full((2, 2), 1e300))


def _values_and_grads(fwd, arch, params, x, watch_input, labels, weights) -> list[bytes]:
    with Tape() as tape:
        tape.watch(*params)
        if watch_input:
            tape.watch(x)
        emb, logits = fwd(arch, params, x)
        # The embeddings reach the loss directly and through the classifier.
        loss = dc.add(cross_entropy(logits, labels), dc.tsum(dc.mul(emb, weights)))
    grads = backward(tape, loss)
    got = [emb.data.tobytes(), logits.data.tobytes()] + [grads[t].tobytes() for t in params]
    return got, (grads[x] if watch_input else None)


@pytest.mark.parametrize("watch_input", [False, True])
@pytest.mark.parametrize("arch, block_entries", KINDS)
def test_fused_representation_matches_op_chain_bitwise(monkeypatch, arch, block_entries, watch_input):
    # Backbone.forward and backward against the layers as one diffcore op
    # each. The backbone gives the input batch no gradient, where the chain
    # does; watching the input leaves every parameter gradient unchanged.
    if block_entries is not None:
        monkeypatch.setattr(dc, "_CONV_BLOCK_ENTRIES", block_entries)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        params = [Tensor(p) for p in init_backbone(arch, rng).params]
        x = Tensor(rng.uniform(-1, 1, size=(7, arch.input_dim)))
        labels = rng.integers(0, arch.num_classes, size=7)
        weights = Tensor(rng.uniform(-1, 1, size=(7, arch.embedding_dim)))
        args = (arch, params, x, watch_input, labels, weights)
        got, g_x = _values_and_grads(forward, *args)
        want, want_x = _values_and_grads(embed_reference, *args)
        assert got == want
        if watch_input:
            assert not g_x.any() and want_x.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cnn_overflow_names_conv2d():
    model = init_backbone(CNN1x7x6, np.random.default_rng(19))
    k1, *rest = model.params
    model = build_backbone(CNN1x7x6, [np.full(k1.shape, 1e300), *rest])
    with pytest.raises(NonFiniteError, match="^conv2d produced"):
        model.forward(np.full((2, 42), 1e300))


def test_init_is_seed_deterministic():
    a, b = small_mlp(7), small_mlp(7)
    for pa, pb in zip(a.params, b.params):
        np.testing.assert_array_equal(pa, pb)
    c = small_mlp(8)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params, c.params))


def test_init_respects_fan_in_bounds():
    arch = Arch(kind="mlp", input_dim=100, embedding_dim=5, num_classes=3, hidden=9)
    b = init_backbone(arch, np.random.default_rng(1))
    w1 = b.rep_params[0]
    assert np.abs(w1).max() <= 1.0 / 10.0
    w2 = b.rep_params[2]
    assert np.abs(w2).max() <= 1.0 / 3.0


def test_forward_shapes_and_purity():
    b = small_mlp()
    x = np.random.default_rng(2).uniform(-1, 1, size=(5, 2))
    before = [p.copy() for p in b.params]
    emb, logits, _ = b.forward(x)
    assert emb.shape == (5, 4) and logits.shape == (5, 3)
    for p, old in zip(b.params, before):
        np.testing.assert_array_equal(p, old)
    # same input, same output
    emb2, logits2, _ = b.forward(x)
    np.testing.assert_array_equal(logits, logits2)


def test_zero_weight_mlp_gives_flat_logits():
    b = small_mlp()
    b.adopt(np.zeros(b.flat.size))
    _, logits, _ = b.forward(np.array([[1.0, -2.0], [0.5, 0.5]]))
    assert np.all(logits == 0.0)


def test_linear_identity_embeds_inputs():
    arch = Arch(kind="linear", input_dim=3, embedding_dim=3, num_classes=2)
    b = init_backbone(arch, np.random.default_rng(0))
    b = build_backbone(arch, [np.eye(3), np.zeros(3), *b.cls_params])
    x = np.random.default_rng(1).uniform(-2, 2, size=(4, 3))
    emb, _, _ = b.forward(x)
    np.testing.assert_array_equal(emb, x)


def test_forward_rejects_bad_width():
    with pytest.raises(ShapeError):
        small_mlp().forward(np.ones((2, 3)))


def test_golden_mlp_forward():
    golden = json.loads((Path(__file__).parent / "data" / "mlp_golden.json").read_text())
    arch = Arch(**golden["arch"])
    b = init_backbone(arch, np.random.default_rng(golden["seed"]))
    emb, logits, _ = b.forward(np.array(golden["batch"]))
    np.testing.assert_allclose(logits, golden["logits"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(emb, golden["embeddings"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["linear", "cnn"])
def test_golden_init_and_forward(kind):
    # Parameter shapes, init vector and forward outputs, bit for bit; JSON
    # floats round-trip exactly.
    golden = json.loads((Path(__file__).parent / "data" / f"{kind}_golden.json").read_text())
    arch = Arch(**{k: tuple(v) if isinstance(v, list) else v for k, v in golden["arch"].items()})
    b = init_backbone(arch, np.random.default_rng(golden["seed"]))
    assert [list(p.shape) for p in b.params] == golden["shapes"]
    assert b.flat.tolist() == golden["init"]
    emb, logits, _ = b.forward(np.array(golden["batch"], dtype=np.float64))
    assert emb.tolist() == golden["embeddings"]
    assert logits.tolist() == golden["logits"]


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
    assert b.arch.kind == "cnn"
    x = np.random.default_rng(6).uniform(-1, 1, size=(2, 72))
    emb, logits, _ = b.forward(x)
    assert emb.shape == (2, 3) and logits.shape == (2, 2)

    labels = np.array([0, 1])

    def build(leaves):
        _, z = forward(arch, leaves, x)
        return dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(z, 1.0), labels)))

    check_grads(build, b.params)


def test_training_step_reaches_every_param():
    b = small_mlp(3)
    x = np.random.default_rng(4).uniform(-1, 1, size=(6, 2))
    labels = np.random.default_rng(5).integers(0, 3, size=6)
    _, logits, cache = b.forward(x)
    _, ce_bwd = losses.cross_entropy(logits, labels)
    grad = b.backward(cache, None, ce_bwd(1.0))
    assert grad.shape == b.flat.shape and grad.dtype == np.float64
    assert all(np.any(grad[start:stop] != 0.0) for start, stop, _ in _flat_layout(b.arch))


def _ones(b):
    return np.ones(b.flat.size)


# Every KINDS entry, stepped in a stack of three clients and in a stack of one.
STACKED = [pytest.param(arch, entries, clients, id=f"arch{i}-{entries}{tag}")
           for clients, tag in ((3, ""), (1, "-one-client"))
           for i, (arch, entries) in enumerate(KINDS)]


@pytest.mark.parametrize("arch, block_entries, clients", STACKED)
def test_a_stack_steps_each_client_bitwise_as_alone(monkeypatch, arch, block_entries, clients):
    # A BackboneStack's forward, backward (the middle one of three clients
    # with no embedding gradient) and proximal SGD step give each client's
    # slice the bytes its own Backbone gets, in a stack of one too.
    if block_entries is not None:
        monkeypatch.setattr(dc, "_CONV_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(5)
    alone = [init_backbone(arch, rng) for _ in range(clients)]
    stack = BackboneStack(arch, np.array([b.flat for b in alone]))
    x = rng.normal(size=(clients, 7, arch.input_dim))
    emb, logits, cache = stack.forward(x)
    g_emb = [rng.normal(size=emb.shape[1:]), None, rng.normal(size=emb.shape[1:])][:clients]
    g_logits = rng.normal(size=logits.shape)
    grad = stack.backward(cache, g_emb, g_logits)
    want_grad = grad.copy()
    anchor = alone[clients // 2].flat
    sgd_step(stack, grad, 0.1, (0.5, anchor))
    for i, b in enumerate(alone):
        e, z, c = b.forward(x[i])
        assert (e.tobytes(), z.tobytes()) == (emb[i].tobytes(), logits[i].tobytes())
        g = b.backward(c, g_emb[i], g_logits[i])
        assert g.tobytes() == want_grad[i].tobytes()
        sgd_step(b, g, 0.1, (0.5, anchor))
        assert b.flat.tobytes() == stack.flat[i].tobytes()
    with pytest.raises(ShapeError):
        BackboneStack(arch, anchor)  # one vector is no stack
    with pytest.raises(ShapeError):
        stack.forward(x[0])  # a batch without its client axis


def test_backward_writes_weight_gradients_into_the_flat_gradient():
    # A one-client stack of the 784-128-64 mlp at batch 32: each weight
    # gradient is computed into its view of the flat gradient, so backward
    # holds no second copy of the first layer's 784 x 128 gradient beside it.
    arch = Arch(kind="mlp", input_dim=784, embedding_dim=64, num_classes=10, hidden=128)
    rng = np.random.default_rng(0)
    stack = BackboneStack(arch, init_backbone(arch, rng).flat[None].copy())
    emb, logits, cache = stack.forward(rng.uniform(size=(1, 32, 784)))
    g_emb, g_logits = [rng.normal(size=emb.shape[1:])], rng.normal(size=logits.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grad = stack.backward(cache, g_emb, g_logits)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * grad.nbytes
    alone = Backbone(arch, stack.flat[0]).backward([a[0] for a in cache], g_emb[0], g_logits[0])
    assert alone.tobytes() == grad[0].tobytes()


def test_sgd_step_zero_grads_is_identity():
    b = small_mlp(9)
    before = [p.copy() for p in b.params]
    sgd_step(b, np.zeros(b.flat.size), lr=0.1)
    for p, old in zip(b.params, before):
        assert p.tobytes() == old.tobytes()


def test_sgd_step_applies_known_update():
    b = small_mlp(10)
    before = [p.copy() for p in b.params]
    sgd_step(b, _ones(b), lr=0.5)
    for p, old in zip(b.params, before):
        np.testing.assert_array_equal(p, old - 0.5)


def test_sgd_step_validations():
    b = small_mlp(11)
    with pytest.raises(ValueError):
        sgd_step(b, np.zeros(b.flat.size), lr=0.0)
    with pytest.raises(ShapeError):
        sgd_step(b, np.zeros(b.flat.size - 1), lr=0.1)
    with pytest.raises(ShapeError):
        sgd_step(b, np.zeros(b.flat.size, dtype=np.float32), lr=0.1)


def test_sgd_step_non_finite_update_names_sgd_step():
    b = small_mlp(16)
    before = [p.tobytes() for p in b.params]
    grad = np.zeros(b.flat.size)
    start, stop, _ = _flat_layout(b.arch)[3]
    grad[start:stop] = np.inf
    with pytest.raises(NonFiniteError, match="^sgd_step produced"):
        sgd_step(b, grad, lr=0.1)
    assert [p.tobytes() for p in b.params] == before


def test_parameters_stay_read_only_after_a_step():
    b = small_mlp(17)
    for _ in range(2):
        sgd_step(b, _ones(b), lr=0.1)
        for p in b.params:
            with pytest.raises(ValueError):
                p[...] = 0.0


def test_stepping_one_backbone_leaves_its_siblings_unchanged():
    server = small_mlp(18)
    a, b = (build_backbone(MLP2x4x3, list(server.params)) for _ in range(2))
    want = [p.tobytes() for p in server.params]
    sgd_step(a, _ones(a), lr=0.1)
    stepped = [p.tobytes() for p in a.params]
    assert stepped != want
    assert [p.tobytes() for p in b.params] == want
    assert [p.tobytes() for p in server.params] == want
    sgd_step(b, _ones(b), lr=0.2)
    assert [p.tobytes() for p in a.params] == stepped


def test_flatten_then_from_flat_round_trip_bitwise():
    b = small_mlp(12)
    flat = flatten_params(b.params)
    back = Backbone(MLP2x4x3, flat)
    assert back.flat is flat and not flat.flags.writeable
    for p, q in zip(b.params, back.params):
        assert p.tobytes() == q.tobytes()
        assert np.shares_memory(q, flat)
    for bad in (flat[:-1], flat.astype(np.float32), flat.reshape(1, -1)):
        with pytest.raises(ShapeError):
            back.adopt(bad)
        with pytest.raises(ShapeError):
            Backbone(MLP2x4x3, bad)


def test_snapshot_round_trip_and_teacher_equality():
    b = small_mlp(13)
    snap = snapshot(b, round_idx=4)
    teacher = Backbone(snap.arch, snap.flat)
    x = np.random.default_rng(14).uniform(-1, 1, size=(3, 2))
    _, z1, _ = b.forward(x)
    _, z2, _ = teacher.forward(x)
    assert z1.tobytes() == z2.tobytes()
    # later training must not leak into the snapshot
    sgd_step(b, _ones(b), lr=0.1)
    _, z3, _ = Backbone(snap.arch, snap.flat).forward(x)
    assert z3.tobytes() == z2.tobytes()


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
    assert loaded.flat.tobytes() == snap.flat.tobytes()
    assert loaded.to_bytes() == blob
    head = json.loads(blob[: blob.index(b"\n")])
    assert head["shapes"] == [list(p.shape) for p in b.params]
    with pytest.raises(ValueError):
        ModelSnapshot.from_bytes(blob[: len(blob) - 8])
    nan = blob[: len(blob) - 8] + np.array([np.nan], dtype="<f8").tobytes()
    with pytest.raises(NonFiniteError, match="^snapshot payload produced"):
        ModelSnapshot.from_bytes(nan)


def test_snapshot_manifest_shapes_must_match_its_arch():
    b = small_mlp(20)
    blob = snapshot(b, round_idx=2).to_bytes()
    nl = blob.index(b"\n")
    head = json.loads(blob[:nl])
    assert head["shapes"][0] == [2, 4]
    head["shapes"][0] = [4, 2]  # same size and count: only the shapes are wrong
    tampered = json.dumps(head, sort_keys=True).encode() + blob[nl:]
    with pytest.raises(ValueError, match="manifest shapes"):
        ModelSnapshot.from_bytes(tampered)


def test_malformed_snapshot_manifest_is_a_value_error():
    blob = snapshot(small_mlp(21), round_idx=2).to_bytes()
    nl = blob.index(b"\n")
    head = json.loads(blob[:nl])
    assert ModelSnapshot.from_bytes(blob).round_idx == 2
    bad = [{k: v for k, v in head.items() if k != key} for key in head]  # each key missing
    bad += [[head], "manifest", 3]  # not an object
    bad += [{**head, "round": r} for r in ("x", 2.0, True, -1, None)]
    bad += [{**head, "input_dim": "2"}, {**head, "kind": "cnn", "image_shape": 5}]
    # values of the wrong type that the shape check cannot see
    bad += [{**head, "input_dim": 2.0}, {**head, "channels": 5}, {**head, "count": head["count"] * 1.0}]
    assert len(bad) == len(head) + 13
    for manifest in bad:
        with pytest.raises(ValueError):
            ModelSnapshot.from_bytes(json.dumps(manifest).encode() + blob[nl:])


def test_arch_validation():
    with pytest.raises(ValueError):
        Arch(kind="rnn", input_dim=2, embedding_dim=2, num_classes=2)
    with pytest.raises(ValueError):
        Arch(kind="mlp", input_dim=2, embedding_dim=2, num_classes=2, hidden=0)
    with pytest.raises(ValueError):
        Arch(kind="cnn", input_dim=9, embedding_dim=2, num_classes=2, hidden=2,
             image_shape=(1, 3, 3))
    mlp = dict(kind="mlp", input_dim=2, embedding_dim=2, num_classes=2, hidden=2)
    for over in ({"input_dim": 2.0}, {"hidden": True}, {"channels": (4,)}, {"channels": (4, 0)},
                 {"image_shape": (1, 2.0, 1)}, {"image_shape": [1, 1, 2]}):
        with pytest.raises(ValueError):
            Arch(**{**mlp, **over})
