import math

import numpy as np
import pytest

from helpers import (
    align_reference,
    attract_reference,
    attract_repel_reference,
    check_grads,
    cross_entropy_reference,
    distill_reference,
    local_loss_reference,
    repel_reference,
)
from protofed import diffcore as dc
from protofed.diffcore import ShapeError, Tape, Tensor, backward
from protofed.losses import (
    ClassGroups,
    GlobalPrototypes,
    LossWeights,
    PrototypeCoverageWarning,
    align_loss,
    attract_loss,
    attract_repel_loss,
    cross_entropy,
    distill_loss,
    local_loss,
    repel_loss,
)

E = math.e


def protos_from(arrays: dict[int, np.ndarray], dim: int) -> GlobalPrototypes:
    table = GlobalPrototypes(dim)
    for c, v in arrays.items():
        table.set(c, v if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64))
    return table


# ---------------------------------------------------------------------------
# Hand values
# ---------------------------------------------------------------------------


def test_ce_uniform_logits_is_log_num_classes():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert abs(loss.item() - math.log(2.0)) < 1e-12


def test_ce_known_value():
    loss = cross_entropy(Tensor([[1.0, 0.0]]), [0])
    assert abs(loss.item() - (math.log(1 + E) - 1.0)) < 1e-12  # 0.3133...


def test_ce_large_margin_goes_to_zero():
    loss = cross_entropy(Tensor([[100.0, 0.0], [0.0, 100.0]]), [0, 1])
    assert loss.item() < 1e-12


def test_distill_hand_value():
    loss = distill_loss(Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]]), temperature=1.0)
    want = (E - 1) / (E + 1)  # 0.4621...
    assert abs(loss.item() - 0.4621) < 1e-3
    assert abs(loss.item() - want) < 1e-12


def test_distill_zero_iff_matching_distributions():
    rng = np.random.default_rng(0)
    z = rng.uniform(-2, 2, size=(4, 5))
    assert distill_loss(Tensor(z), Tensor(z), 0.7).item() == 0.0
    # shifting logits per row leaves the softmax unchanged
    shifted = z + rng.uniform(-1, 1, size=(4, 1))
    assert abs(distill_loss(Tensor(z), Tensor(shifted), 0.7).item()) < 1e-12
    other = rng.uniform(-2, 2, size=(4, 5))
    assert distill_loss(Tensor(z), Tensor(other), 0.7).item() > 1e-6


def test_distill_nonnegative():
    rng = np.random.default_rng(1)
    for temperature in (0.1, 1.0, 10.0):
        t = rng.uniform(-2, 2, size=(6, 4))
        s = rng.uniform(-2, 2, size=(6, 4))
        assert distill_loss(Tensor(t), Tensor(s), temperature).item() >= -1e-12


def test_distill_extreme_logits_stay_finite():
    t = Tensor([[200.0, -200.0], [-500.0, 500.0]])
    s = Tensor([[-300.0, 300.0], [300.0, -300.0]])
    loss = distill_loss(t, s, temperature=0.1)
    assert np.isfinite(loss.item())


def test_align_hand_values():
    protos = protos_from({0: np.zeros(2)}, 2)
    loss = align_loss({0: Tensor([[1.0, 1.0]])}, protos)
    assert loss.item() == 1.0
    # two classes with per-class mean squared distances 1 and 3: average 2
    protos2 = protos_from({0: np.zeros(2), 1: np.zeros(2)}, 2)
    groups = {
        0: Tensor([[1.0, 1.0]]),                    # meanSq 1
        1: Tensor([[np.sqrt(3.0), np.sqrt(3.0)]]),  # meanSq 3
    }
    assert abs(align_loss(groups, protos2).item() - 2.0) < 1e-12


def test_align_skips_uncovered_classes():
    protos = protos_from({0: np.zeros(1)}, 1)
    loss = align_loss({0: Tensor([[2.0]]), 5: Tensor([[9.0]])}, protos)
    assert loss.item() == 4.0  # class 5 has no prototype and is ignored


def test_align_warns_when_nothing_overlaps():
    protos = protos_from({7: np.zeros(1)}, 1)
    with pytest.warns(PrototypeCoverageWarning):
        loss = align_loss({0: Tensor([[1.0]])}, protos)
    assert loss.item() == 0.0


def test_attract_hand_value_and_linearity():
    protos = protos_from({0: np.zeros(1)}, 1)
    groups = {0: Tensor([[2.0]])}
    assert attract_loss(groups, protos, scale=0.5).item() == 2.0
    assert attract_loss(groups, protos, scale=1.0).item() == 4.0


def test_repel_zero_distance_hand_value():
    protos = protos_from({0: np.zeros(2)}, 2)
    loss = repel_loss(Tensor([[0.0, 0.0], [0.0, 0.0]]), protos, scale=0.5)
    assert abs(loss.item()) < 1e-12


def test_repel_single_class_hand_value():
    protos = protos_from({0: np.zeros(1)}, 1)
    loss = repel_loss(Tensor([[2.0]]), protos, scale=0.5)
    assert abs(loss.item() - (-2.0)) < 1e-12


def test_repel_decreases_with_distance():
    protos = protos_from({0: np.zeros(2), 1: np.ones(2)}, 2)
    near = repel_loss(Tensor([[0.5, 0.5]]), protos, scale=0.5)
    far = repel_loss(Tensor([[5.0, 5.0]]), protos, scale=0.5)
    assert far.item() < near.item()


def test_repel_far_class_vanishes_in_the_limit():
    base = protos_from({0: np.zeros(2)}, 2)
    extended = protos_from({0: np.zeros(2), 1: np.full(2, 1e4)}, 2)
    emb = Tensor([[0.3, -0.2], [0.1, 0.4]])
    a = repel_loss(emb, base, scale=0.5)
    b = repel_loss(emb, extended, scale=0.5)
    assert abs(a.item() - b.item()) < 1e-12


def test_repel_is_overflow_safe():
    # distances so large that exp would underflow without the max shift
    protos = protos_from({0: np.zeros(1), 1: np.full(1, 2000.0)}, 1)
    loss = repel_loss(Tensor([[1000.0]]), protos, scale=1.0)
    assert np.isfinite(loss.item())


def test_repel_class_restriction():
    protos = protos_from({0: np.zeros(1), 1: np.ones(1)}, 1)
    all_classes = repel_loss(Tensor([[0.5]]), protos, scale=1.0)
    only_zero = repel_loss(Tensor([[0.5]]), protos, scale=1.0, classes=[0])
    assert only_zero.item() == pytest.approx(-0.25)
    assert all_classes.item() > only_zero.item()
    with pytest.warns(PrototypeCoverageWarning):
        repel_loss(Tensor([[0.5]]), protos, scale=1.0, classes=[9])


def test_repel_never_exponentiates_an_excluded_class():
    # class 0 would score 1e4 above the shift of the requested class 1, and
    # exp(1e4) overflows: only selecting columns before exp keeps this finite
    protos = protos_from({0: np.zeros(1), 1: np.full(1, 100.0)}, 1)
    loss = repel_loss(Tensor([[0.0]]), protos, scale=1.0, classes=[1])
    assert loss.item() == -1e4


def test_prototype_kernels_match_per_class_loops():
    rng = np.random.default_rng(10)
    q, scale = 3, 0.7
    table = protos_from({c: rng.uniform(-2, 2, q) for c in (0, 1, 3)}, q)
    groups = {c: rng.uniform(-2, 2, (int(rng.integers(1, 5)), q)) for c in (0, 1, 2)}
    per_class = {
        c: np.mean((g - table.get(c)) ** 2) for c, g in groups.items() if table.has(c)
    }
    tensors = {c: Tensor(g) for c, g in groups.items()}
    np.testing.assert_allclose(
        align_loss(tensors, table).item(), np.mean(list(per_class.values())), rtol=1e-13
    )
    np.testing.assert_allclose(
        attract_loss(tensors, table, scale).item(),
        scale * sum(per_class.values()),
        rtol=1e-13,
    )
    emb = rng.uniform(-2, 2, (5, q))
    scores = [-scale * np.mean((emb - table.get(c)) ** 2) for c in (1, 3)]
    np.testing.assert_allclose(
        repel_loss(Tensor(emb), table, scale, classes=[1, 2, 3]).item(),
        np.log(np.sum(np.exp(scores))),
        rtol=1e-13,
    )


def test_class_groups_reads_as_a_mapping():
    emb = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    groups = ClassGroups(emb, [2, 0, 2])
    assert list(groups) == [0, 2] and len(groups) == 2
    np.testing.assert_array_equal(groups[2].data, [[1.0, 2.0], [5.0, 6.0]])
    with pytest.raises(KeyError):
        groups[1]
    np.testing.assert_array_equal(groups.mean_weights([2]), [[0.5], [0.0], [0.5]])
    with pytest.raises(ShapeError):
        ClassGroups(emb, [0, 1])


def test_class_groups_match_per_class_blocks_with_gradients():
    rng = np.random.default_rng(11)
    labels = np.array([1, 0, 1, 2, 1, 0])
    emb = Tensor(rng.uniform(-2, 2, (6, 3)))
    live = [Tensor(rng.uniform(-2, 2, 3)) for _ in range(2)]
    table = protos_from({0: live[0], 1: live[1]}, 3)

    def run(kernel, grouped):
        with Tape() as tape:
            tape.watch(emb, *live)
            if grouped:
                groups = ClassGroups(emb, labels)
            else:
                groups = {c: dc.take_rows(emb, np.flatnonzero(labels == c)) for c in (0, 1, 2)}
            loss = kernel(groups)
        grads = backward(tape, loss)
        return loss.item(), [grads[t] for t in (emb, *live)]

    for kernel in (lambda g: attract_loss(g, table, 0.5), lambda g: align_loss(g, table)):
        (v1, g1), (v2, g2) = run(kernel, True), run(kernel, False)
        np.testing.assert_allclose(v1, v2, rtol=1e-13)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def test_with_embeddings_shares_the_grouping():
    # The client's alignment diagnostic and attract term group one batch once.
    rng = np.random.default_rng(12)
    labels = np.array([1, 0, 1, 2, 1, 0])
    t_emb, emb = rng.uniform(-2, 2, (6, 3)), Tensor(rng.uniform(-2, 2, (6, 3)))
    table = protos_from({0: rng.uniform(-2, 2, 3), 1: rng.uniform(-2, 2, 3)}, 3)
    groups = ClassGroups(t_emb, labels)
    align_loss(groups, table)
    twin = groups.with_embeddings(emb)
    assert twin.embeddings is emb and list(twin) == [0, 1, 2]
    shared, own = twin.covered(table), ClassGroups(emb, labels).covered(table)
    assert all(a is b for a, b in zip(shared, groups.covered(table)))
    assert shared[0] == own[0] == [0, 1]
    assert shared[1].tobytes() == own[1].tobytes()
    assert shared[2].data.tobytes() == own[2].data.tobytes()
    got = attract_loss(twin, table, 0.5).data.tobytes()
    assert got == attract_loss(ClassGroups(emb, labels), table, 0.5).data.tobytes()
    table.set(2, rng.uniform(-2, 2, 3))  # a changed table is covered afresh
    assert twin.covered(table)[0] == [0, 1, 2]
    with pytest.raises(ShapeError):
        groups.with_embeddings(Tensor(np.zeros((5, 3))))


def test_attract_repel_mix_hand_value():
    out = attract_repel_loss(Tensor(2.0), Tensor(-2.0), balance=0.5)
    assert out.item() == 0.0
    out = attract_repel_loss(Tensor(2.0), Tensor(-2.0), balance=1.0)
    assert out.item() == 2.0


def test_local_loss_round1_is_ce_bitwise():
    ce = cross_entropy(Tensor([[1.0, 0.0]]), [0])
    out = local_loss(ce, None, None, None, LossWeights(), round_idx=1)
    assert out is ce


def test_local_loss_mix_hand_value():
    one = Tensor(1.0)
    w = LossWeights(ce_weight=0.9, align_weight=1.0, proto_weight=0.1)
    out = local_loss(one, one, one, one, w, round_idx=2)
    assert abs(out.item() - 2.1) < 1e-12


def test_local_loss_requires_components_after_round1():
    ce = Tensor(1.0)
    with pytest.raises(ValueError):
        local_loss(ce, None, Tensor(0.0), Tensor(0.0), LossWeights(), round_idx=2)
    with pytest.raises(ValueError):
        local_loss(ce, Tensor(0.0), Tensor(0.0), Tensor(0.0), LossWeights(), round_idx=0)


# ---------------------------------------------------------------------------
# Weight and table validation
# ---------------------------------------------------------------------------


def test_loss_weights_validation():
    LossWeights()  # defaults are legal
    with pytest.raises(ValueError):
        LossWeights(ce_weight=1.5)
    with pytest.raises(ValueError):
        LossWeights(align_weight=-0.1)
    with pytest.raises(ValueError):
        LossWeights(balance=0.0)
    with pytest.raises(ValueError):
        LossWeights(scale=0.0)
    with pytest.raises(ValueError):
        LossWeights(temperature=0.0)


def test_prototype_table_contract():
    table = GlobalPrototypes(3)
    table.set(2, np.ones(3))
    assert table.has(2) and not table.has(0)
    assert table.classes() == [2]
    np.testing.assert_array_equal(table.get(2), np.ones(3))
    with pytest.raises(ShapeError):
        table.set(1, np.ones(4))
    clone = table.copy()
    clone.set(0, np.zeros(3))
    assert not table.has(0)
    assert clone.as_arrays().keys() == {0, 2}


# ---------------------------------------------------------------------------
# Gradient routing and finite differences
# ---------------------------------------------------------------------------


def test_distill_gradients_flow_to_student_only():
    rng = np.random.default_rng(2)
    t = Tensor(rng.uniform(-2, 2, size=(3, 4)))
    s = Tensor(rng.uniform(-2, 2, size=(3, 4)))
    with Tape() as tape:
        tape.watch(t, s)
        loss = distill_loss(t, s, temperature=0.5)
    grads = backward(tape, loss)
    assert np.all(grads[t] == 0.0)
    assert np.any(grads[s] != 0.0)


def test_align_gradients_flow_to_protos_only():
    rng = np.random.default_rng(3)
    emb = Tensor(rng.uniform(-2, 2, size=(4, 3)))
    proto = Tensor(rng.uniform(-2, 2, size=3))
    table = GlobalPrototypes(3)
    table.set(0, proto)
    with Tape() as tape:
        tape.watch(emb, proto)
        loss = align_loss({0: emb}, table)
    grads = backward(tape, loss)
    assert np.all(grads[emb] == 0.0)
    assert np.any(grads[proto] != 0.0)


def test_attract_gradients_flow_to_embeddings_only():
    rng = np.random.default_rng(4)
    emb = Tensor(rng.uniform(-2, 2, size=(4, 3)))
    proto = Tensor(rng.uniform(-2, 2, size=3))
    table = GlobalPrototypes(3)
    table.set(0, proto)
    with Tape() as tape:
        tape.watch(emb, proto)
        loss = attract_loss({0: emb}, table, scale=0.5)
    grads = backward(tape, loss)
    assert np.any(grads[emb] != 0.0)
    assert np.all(grads[proto] == 0.0)


def test_distill_matches_finite_differences():
    rng = np.random.default_rng(5)
    teacher = rng.uniform(-2, 2, size=(4, 5))
    for temperature in (0.5, 1.0, 4.0):
        student = rng.uniform(-2, 2, size=(4, 5))
        check_grads(
            lambda ls: distill_loss(Tensor(teacher), ls[0], temperature), [student]
        )


def test_align_matches_finite_differences_wrt_protos():
    rng = np.random.default_rng(6)
    groups_data = {0: rng.uniform(-2, 2, size=(3, 4)), 2: rng.uniform(-2, 2, size=(2, 4))}

    def build(ls):
        table = GlobalPrototypes(4)
        table.set(0, ls[0])
        table.set(2, ls[1])
        return align_loss({c: Tensor(v) for c, v in groups_data.items()}, table)

    check_grads(build, [rng.uniform(-2, 2, size=4), rng.uniform(-2, 2, size=4)])


def test_attract_matches_finite_differences_wrt_embeddings():
    rng = np.random.default_rng(7)
    table = protos_from({0: rng.uniform(-2, 2, 3), 1: rng.uniform(-2, 2, 3)}, 3)
    e0 = rng.uniform(-2, 2, size=(3, 3))
    e1 = rng.uniform(-2, 2, size=(2, 3))
    check_grads(
        lambda ls: attract_loss({0: ls[0], 1: ls[1]}, table, scale=0.5), [e0, e1]
    )


def test_repel_matches_finite_differences_wrt_both_sides():
    rng = np.random.default_rng(8)
    emb = rng.uniform(-2, 2, size=(4, 3))
    p0 = rng.uniform(-2, 2, size=3)
    p1 = rng.uniform(-2, 2, size=3)

    def build(ls):
        table = GlobalPrototypes(3)
        table.set(0, ls[1])
        table.set(1, ls[2])
        return repel_loss(ls[0], table, scale=0.5)

    check_grads(build, [emb, p0, p1])


def test_combined_loss_matches_finite_differences_through_model():
    # the full post-round-1 client loss, differentiated through an MLP
    from protofed.model import Arch, build_backbone, init_backbone

    rng = np.random.default_rng(9)
    arch = Arch(kind="mlp", input_dim=3, embedding_dim=4, num_classes=3, hidden=5)
    base = init_backbone(arch, rng)
    x = Tensor(rng.uniform(-1, 1, size=(6, 3)))
    labels = rng.integers(0, 3, size=6)
    teacher_logits = Tensor(rng.uniform(-1, 1, size=(6, 3)))
    prev_emb = rng.uniform(-1, 1, size=(6, 4))
    table = protos_from({c: rng.uniform(-1, 1, 4) for c in range(3)}, 4)
    w = LossWeights(temperature=0.8)

    def build(ls):
        m = build_backbone(arch, ls)
        emb, logits = m.forward(x)
        ce = cross_entropy(logits, labels)
        distill = distill_loss(teacher_logits, logits, w.temperature)
        groups = {
            c: dc.take_rows(emb, np.flatnonzero(labels == c))
            for c in range(3)
            if np.any(labels == c)
        }
        prev_groups = {
            c: Tensor(prev_emb[labels == c]) for c in range(3) if np.any(labels == c)
        }
        align = align_loss(prev_groups, table)
        pair = attract_repel_loss(
            attract_loss(groups, table, w.scale),
            repel_loss(emb, table, w.scale),
            w.balance,
        )
        return local_loss(ce, distill, align, pair, w, round_idx=3)

    check_grads(build, [p.data for p in base.params])


# ---------------------------------------------------------------------------
# Fused kernels against their op-chain references
# ---------------------------------------------------------------------------


def _bits(a) -> tuple:
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def _value_and_grads(build, leaves) -> list[tuple]:
    with Tape() as tape:
        tape.watch(*leaves)
        loss = build()
    grads = backward(tape, loss)
    return [_bits(loss.data)] + [_bits(grads[leaf]) for leaf in leaves]


@pytest.mark.parametrize("seed", range(25))
def test_fused_kernels_match_op_chain_references_bitwise(seed):
    rng = np.random.default_rng(seed)
    n, C, q = (int(v) for v in rng.integers((1, 2, 1), (9, 6, 6)))
    labels = rng.integers(0, C, size=n)
    logits = Tensor(rng.uniform(-3, 3, (n, C)))
    teacher = Tensor(rng.uniform(-3, 3, (n, C)))
    tau = float(rng.uniform(0.05, 3.0))
    emb = Tensor(rng.uniform(-2, 2, (n, q)))
    groups = ClassGroups(emb, labels)
    # prototypes for some classes, always one the batch holds; once as plain
    # arrays and once as tracked tensors
    arrays = {c: rng.uniform(-2, 2, q) for c in range(C) if c == labels[0] or rng.random() < 0.7}
    plain = protos_from(arrays, q)
    tensors = [Tensor(v) for v in arrays.values()]
    live = protos_from(dict(zip(arrays, tensors)), q)
    scale = float(rng.uniform(0.1, 2.0))
    own = sorted(set(labels.tolist()) | {int(rng.integers(0, C))})
    terms = [Tensor(v) for v in rng.uniform(-2, 2, 4)]
    w = LossWeights(
        ce_weight=float(rng.uniform()),
        align_weight=float(rng.uniform(0, 2)),
        proto_weight=float(rng.uniform(0, 2)),
        balance=float(rng.uniform(0.01, 1.0)),
    )
    cases = {
        "cross_entropy": (
            lambda: cross_entropy(logits, labels),
            lambda: cross_entropy_reference(logits, labels),
            [logits],
        ),
        "distill": (
            lambda: distill_loss(teacher, logits, tau),
            lambda: distill_reference(teacher, logits, tau),
            [teacher, logits],
        ),
        "attract": (
            lambda: attract_loss(groups, plain, scale),
            lambda: attract_reference(groups, plain, scale),
            [emb],
        ),
        "align": (
            lambda: align_loss(groups, live),
            lambda: align_reference(groups, live),
            [emb, *tensors],
        ),
        "repel": (
            lambda: repel_loss(emb, plain, scale, classes=own),
            lambda: repel_reference(emb, plain, scale, own),
            [emb],
        ),
        "repel, tracked prototypes": (
            lambda: repel_loss(emb, live, scale, classes=own),
            lambda: repel_reference(emb, live, scale, own),
            [emb, *tensors],
        ),
        "attract_repel": (
            lambda: attract_repel_loss(terms[0], terms[1], w.balance),
            lambda: attract_repel_reference(terms[0], terms[1], w.balance),
            terms[:2],
        ),
        "local_loss": (
            lambda: local_loss(*terms, w, round_idx=2),
            lambda: local_loss_reference(*terms, w),
            terms,
        ),
    }
    for name, (fused, reference, leaves) in cases.items():
        got = _value_and_grads(fused, leaves)
        assert got == _value_and_grads(reference, leaves), name


@pytest.mark.parametrize("seed", range(5))
def test_fused_training_loss_matches_op_chain_bitwise(seed):
    # The client's post-round-1 batch loss through an MLP, in client_update's
    # order: every parameter gradient equals the op chain's, so the order in
    # which the terms' gradients add up at the embeddings and logits held.
    from protofed.model import Arch, init_backbone

    rng = np.random.default_rng(100 + seed)
    arch = Arch(kind="mlp", input_dim=3, embedding_dim=4, num_classes=3, hidden=5)
    model, teacher = init_backbone(arch, rng), init_backbone(arch, rng)
    x = rng.uniform(-1, 1, size=(9, 3))
    labels = rng.integers(0, 3, size=9)
    t_emb, t_logits = teacher.infer(x)
    table = protos_from({c: rng.uniform(-1, 1, 4) for c in range(3)}, 4)
    w = LossWeights(temperature=0.3)

    def build(kernels):
        ce_k, distill_k, align_k, attract_k, repel_k, pair_k, local_k = kernels
        emb, logits = model.forward(Tensor(x))
        ce = ce_k(logits, labels)
        al = align_k(ClassGroups(t_emb, labels), table)
        dist = distill_k(t_logits, logits, w.temperature)
        att = attract_k(ClassGroups(emb, labels), table, w.scale)
        rep = repel_k(emb, table, w.scale, [0, 1, 2])
        return local_k(ce, dist, al, pair_k(att, rep, w.balance), w)

    fused = (
        cross_entropy, distill_loss, align_loss, attract_loss, repel_loss,
        attract_repel_loss, lambda *a: local_loss(*a, round_idx=2),
    )
    reference = (
        cross_entropy_reference, distill_reference, align_reference, attract_reference,
        repel_reference, attract_repel_reference, local_loss_reference,
    )
    got = _value_and_grads(lambda: build(fused), model.params)
    assert got == _value_and_grads(lambda: build(reference), model.params)


def test_shape_errors():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor([1.0, 2.0]), [0])
    with pytest.raises(ShapeError):
        distill_loss(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0, 2.0]]), 1.0)
    table = protos_from({0: np.zeros(2)}, 2)
    with pytest.raises(ShapeError):
        align_loss({0: Tensor([[1.0, 2.0, 3.0]])}, table)
    with pytest.raises(ShapeError):
        repel_loss(Tensor([[1.0, 2.0, 3.0]]), table, 1.0)
    with pytest.raises(ValueError):
        attract_loss({0: Tensor([[1.0, 0.0]])}, table, scale=0.0)
    with pytest.raises(ShapeError):
        attract_repel_loss(Tensor([1.0, 2.0]), Tensor(0.0), 0.5)
    with pytest.raises(ShapeError):
        local_loss(Tensor(1.0), Tensor(0.0), Tensor([0.0]), Tensor(0.0), LossWeights(), 2)
