import math

import numpy as np
import pytest

from helpers import (
    LiveTable,
    align_loss,
    align_reference,
    attract_loss,
    attract_reference,
    attract_repel_loss,
    attract_repel_reference,
    check_grads,
    cross_entropy,
    cross_entropy_reference,
    distill_loss,
    distill_reference,
    embed_reference,
    fedproto_loss,
    fedproto_reference,
    forward,
    local_loss,
    local_loss_reference,
    repel_loss,
    repel_reference,
)
from protofed import diffcore as dc
from protofed import losses
from protofed.diffcore import ShapeError, Tape, Tensor, backward
from protofed.losses import (
    ClassGroups,
    GlobalPrototypes,
    LossWeights,
    PrototypeCoverageWarning,
)

E = math.e


def protos_from(arrays: dict[int, np.ndarray], dim: int) -> GlobalPrototypes:
    return GlobalPrototypes.of(dim, arrays)


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
    loss = align_loss(Tensor([[1.0, 1.0]]), ClassGroups([0], protos))
    assert loss.item() == 1.0
    # two classes with per-class mean squared distances 1 and 3: average 2
    protos2 = protos_from({0: np.zeros(2), 1: np.zeros(2)}, 2)
    emb = Tensor([
        [1.0, 1.0],                    # class 0, meanSq 1
        [np.sqrt(3.0), np.sqrt(3.0)],  # class 1, meanSq 3
    ])
    assert abs(align_loss(emb, ClassGroups([0, 1], protos2)).item() - 2.0) < 1e-12


def test_align_skips_uncovered_classes():
    protos = protos_from({0: np.zeros(1)}, 1)
    loss = align_loss(Tensor([[2.0], [9.0]]), ClassGroups([0, 5], protos))
    assert loss.item() == 4.0  # class 5 has no prototype and is ignored


def test_align_warns_when_nothing_overlaps():
    protos = protos_from({7: np.zeros(1)}, 1)
    with pytest.warns(PrototypeCoverageWarning):
        loss = align_loss(Tensor([[1.0]]), ClassGroups([0], protos))
    assert loss.item() == 0.0


def test_attract_hand_value_and_linearity():
    protos = protos_from({0: np.zeros(1)}, 1)
    groups = ClassGroups([0], protos)
    assert attract_loss(Tensor([[2.0]]), groups, scale=0.5).item() == 2.0
    assert attract_loss(Tensor([[2.0]]), groups, scale=1.0).item() == 4.0


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
    vectors = {c: rng.uniform(-2, 2, q) for c in (0, 1, 3)}
    table = protos_from(vectors, q)
    blocks = {c: rng.uniform(-2, 2, (int(rng.integers(1, 5)), q)) for c in (0, 1, 2)}
    per_class = {
        c: np.mean((g - vectors[c]) ** 2) for c, g in blocks.items() if table.has(c)
    }
    stacked = Tensor(np.concatenate(list(blocks.values())))
    groups = ClassGroups(np.repeat(list(blocks), [len(g) for g in blocks.values()]), table)
    np.testing.assert_allclose(
        align_loss(stacked, groups).item(), np.mean(list(per_class.values())), rtol=1e-13
    )
    np.testing.assert_allclose(
        attract_loss(stacked, groups, scale).item(),
        scale * sum(per_class.values()),
        rtol=1e-13,
    )
    emb = rng.uniform(-2, 2, (5, q))
    scores = [-scale * np.mean((emb - vectors[c]) ** 2) for c in (1, 3)]
    np.testing.assert_allclose(
        repel_loss(Tensor(emb), table, scale, classes=[1, 2, 3]).item(),
        np.log(np.sum(np.exp(scores))),
        rtol=1e-13,
    )


def test_class_groups_mean_weights_and_shape_check():
    emb = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    table = protos_from({2: np.zeros(2), 4: np.ones(2)}, 2)
    groups = ClassGroups([2, 0, 2], table)
    assert groups.classes == [2]
    np.testing.assert_array_equal(groups.weights, [[0.5], [0.0], [0.5]])
    np.testing.assert_array_equal(groups.rows, [[0.0, 0.0]])
    with pytest.raises(ShapeError):
        align_loss(emb, ClassGroups([0, 2], table))
    with pytest.raises(ShapeError):
        ClassGroups([[0, 2]], table)


def test_class_groups_match_per_class_blocks_with_gradients():
    rng = np.random.default_rng(11)
    labels = np.array([1, 0, 1, 2, 1, 0])
    emb = Tensor(rng.uniform(-2, 2, (6, 3)))
    table = LiveTable([0, 1], rng.uniform(-2, 2, (2, 3)))
    # class 2 has no prototype; attract adds up the class terms, align averages them
    blocks = [np.flatnonzero(labels == c) for c in (0, 1)]

    def run(kernel, mix, grouped):
        with Tape() as tape:
            tape.watch(emb, table.leaf)
            if grouped:
                loss = kernel(emb, ClassGroups(labels, table))
            else:
                parts = [
                    kernel(dc.take_rows(emb, rows), ClassGroups(labels[rows], table))
                    for rows in blocks
                ]
                loss = dc.mul(dc.add(*parts), mix)
        grads = backward(tape, loss)
        return loss.item(), [grads[t] for t in (emb, table.leaf)]

    kernels = (
        (lambda e, g: attract_loss(e, g, 0.5), 1.0),
        (lambda e, g: align_loss(e, g, table), 0.5),
    )
    for kernel, mix in kernels:
        (v1, g1), (v2, g2) = run(kernel, mix, True), run(kernel, mix, False)
        np.testing.assert_allclose(v1, v2, rtol=1e-13)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


def test_one_grouping_serves_align_and_attract():
    # The client groups a batch once: the alignment diagnostic reads the
    # teacher's embeddings of its rows, the attract term the student's.
    rng = np.random.default_rng(12)
    labels = np.array([1, 0, 1, 2, 1, 0])
    t_emb, emb = rng.uniform(-2, 2, (6, 3)), Tensor(rng.uniform(-2, 2, (6, 3)))
    table = protos_from({0: rng.uniform(-2, 2, 3), 1: rng.uniform(-2, 2, 3)}, 3)
    groups = ClassGroups(labels, table)
    assert groups.classes == [0, 1]
    al = align_loss(t_emb, groups)
    assert al.data.tobytes() == align_loss(t_emb, ClassGroups(labels, table)).data.tobytes()
    got = _value_and_grads(lambda: attract_loss(emb, groups, 0.5), [emb])
    fresh = ClassGroups(labels, table)
    assert got == _value_and_grads(lambda: attract_loss(emb, fresh, 0.5), [emb])
    with pytest.raises(ShapeError):
        attract_loss(Tensor(np.zeros((5, 3))), groups, 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_kernels_on_a_client_stack_match_their_lone_calls(seed):
    # A stack of four clients, (G, n, .) as a BackboneStack makes it, with 10
    # classes and class 3 missing from the table. Distillation takes the stack;
    # align, attract and repel take each client's distances against its
    # own-class table, align and attract the batch classes' columns of them.
    # Each value and bwd is bitwise the lone call on distances to the global
    # table's rows of the same classes. Client 0's one own class with a
    # prototype is one column, client 1's nine cross numpy's 8-element
    # summation block.
    rng = np.random.default_rng(seed)
    n, q, scale = 12, 5, 0.7
    table = protos_from({c: rng.normal(size=q) for c in range(10) if c != 3}, q)
    owned = [[0, 3], list(range(10)), [2, 4, 5], [7]]
    labels = np.array([rng.choice(own, n) for own in owned])
    teacher, student = 3.0 * rng.normal(size=(2, 4, n, 10))
    t_emb, emb = rng.normal(size=(2, 4, n, q))
    g = rng.normal(size=4)

    value, bwd = losses.distill_loss(teacher, student, 0.3)
    for gs, grads in ((g, bwd(g)), ([g[0]] * 4, bwd(g[0]))):  # each client's scalar, or one
        for i in range(4):
            v, b = losses.distill_loss(teacher[i].copy(), student[i].copy(), 0.3)
            assert (value[i], grads[i].tobytes()) == (v, b(gs[i]).tobytes())

    for i, own in enumerate(owned):
        wanted = [c for c in own if table.has(c)]
        own_table = GlobalPrototypes(wanted, table.rows(wanted))
        groups, lone = ClassGroups(labels[i], own_table), ClassGroups(labels[i], table)
        t_dists, t_diff = (np.take(a, groups.cols, axis=1)
                           for a in dc._sq_dists(t_emb[i], own_table.matrix))
        dists, diff = dc._sq_dists(emb[i], own_table.matrix)
        cols = [np.take(a, groups.cols, axis=1) for a in (dists, diff)]
        got = [losses.align_loss(t_dists, groups, t_diff),
               losses.attract_loss(*cols, groups, scale), losses.repel_loss(dists, diff, scale)]
        lone_t, lone_s = (dc._sq_dists(e[i].copy(), table.rows(lone.classes)) for e in (t_emb, emb))
        want = [losses.align_loss(lone_t[0], lone, lone_t[1]),
                losses.attract_loss(*lone_s, lone, scale),
                losses.repel_loss(*dc._sq_dists(emb[i].copy(), table.rows(wanted)), scale)]
        for (v1, b1), (v2, b2) in zip(got, want):
            assert v1 == v2 and b1(g[i]).tobytes() == b2(g[i]).tobytes()
        rows = got[2][1](g[i], rows=True), want[2][1](g[i], rows=True)
        assert [a.tobytes() for a in rows[0]] == [a.tobytes() for a in rows[1]]
    assert got[0][0] > 0.0 and len(ClassGroups(labels[0], table).classes) == 1


def test_client_stack_shape_errors():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 4, 5))
    for teacher in (logits[:2], logits[..., :4], logits[0]):  # clients, width, no client axis
        with pytest.raises(ShapeError):
            losses.distill_loss(teacher, logits, 1.0)
    with pytest.raises(ShapeError):
        losses.distill_loss(logits[None], logits[None], 1.0)
    table = protos_from({0: np.zeros(2), 1: np.ones(2)}, 2)
    emb, groups = rng.normal(size=(4, 2)), ClassGroups([0, 1, 1, 0], table)
    narrow = dc._sq_dists(emb, table.rows([0]))
    with pytest.raises(ShapeError):
        losses.align_loss(narrow[0], groups)
    with pytest.raises(ShapeError):
        losses.attract_loss(*narrow, groups, 0.5)
    with pytest.raises(ShapeError):
        losses.repel_loss(narrow[0][0], narrow[1][0], 0.5)  # one row without its row axis
    with pytest.raises(ShapeError):
        losses.attract_repel_loss(np.ones(3), np.ones(2), 0.5)
    with pytest.raises(ShapeError):
        losses.local_loss(np.ones(3), np.ones(3), np.ones(2), np.ones(3), LossWeights(), 2)
    with pytest.raises(ShapeError):
        losses.local_loss(np.ones((3, 1)), None, None, None, LossWeights(), 1)
    value, bwd = losses.local_loss(*np.ones((4, 3)), LossWeights(), 2)  # elementwise
    assert value.shape == (3,) and bwd(1.0) == (0.9, 1.0 - 0.9, 1.0, 0.1)


def test_distance_kernels_check_the_block_they_are_handed():
    # Align and attract take a batch's distances to its groups' rows, one row
    # per label and one column per batch class with a prototype.
    table = protos_from({0: np.zeros(2), 1: np.ones(2), 2: np.full(2, 2.0)}, 2)
    groups = ClassGroups([0, 1, 1, 3], table)  # class 3 has no prototype: two columns
    dists, diff = dc._sq_dists(np.ones((4, 2)), groups.rows)
    assert losses.align_loss(dists, groups)[1] is None  # distances alone: no backward
    for bad in (dists[:3], dists[:, :1], np.ones((4, 3)), dists[None], dists[:, 0]):
        with pytest.raises(ShapeError):
            losses.align_loss(bad, groups)
        with pytest.raises(ShapeError):
            losses.attract_loss(bad, diff, groups, 0.5)
    # Repel takes any (rows, classes) block with rows; no class: 0 and a warning.
    full, full_diff = dc._sq_dists(np.ones((4, 2)), table.matrix)
    assert losses.repel_loss(full[:, :1], full_diff[:, :1], 0.5)[0] == -0.5  # one class: -scale * d
    for bad in (full[0], full[None], full[:0]):
        with pytest.raises(ShapeError):
            losses.repel_loss(bad, full_diff, 0.5)
    with pytest.warns(PrototypeCoverageWarning):
        assert losses.repel_loss(full[:, :0], full_diff[:, :0], 0.5) == (0.0, None)


def test_attract_repel_mix_hand_value():
    out = attract_repel_loss(Tensor(2.0), Tensor(-2.0), balance=0.5)
    assert out.item() == 0.0
    out = attract_repel_loss(Tensor(2.0), Tensor(-2.0), balance=1.0)
    assert out.item() == 2.0


def test_local_loss_round1_is_ce_bitwise():
    ce, _ = losses.cross_entropy(np.array([[1.0, 0.0]]), [0])
    out, bwd = losses.local_loss(ce, None, None, None, LossWeights(), round_idx=1)
    assert out == ce and bwd(0.3) == (0.3, None, None, None)


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
    table = GlobalPrototypes.of(3, {2: np.ones(3), 0: np.zeros(3)})
    assert table.has(2) and not table.has(1)
    assert table.labels == [0, 2] and table.embedding_dim == 3
    np.testing.assert_array_equal(table.matrix, [np.zeros(3), np.ones(3)])
    np.testing.assert_array_equal(table.rows([2, 0]), [np.ones(3), np.zeros(3)])
    with pytest.raises(ShapeError):
        GlobalPrototypes.of(3, {1: np.ones(4)})
    with pytest.raises(ValueError):
        GlobalPrototypes.of(0, {})
    empty = GlobalPrototypes.of(3, {})
    assert empty.labels == [] and empty.matrix.shape == (0, 3)
    with pytest.raises(ShapeError):
        GlobalPrototypes([0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        GlobalPrototypes([2, 0], np.zeros((2, 3)))  # labels must ascend


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
    table = LiveTable([0], rng.uniform(-2, 2, size=(1, 3)))
    with Tape() as tape:
        tape.watch(emb, table.leaf)
        loss = align_loss(emb, ClassGroups([0] * 4, table), table)
    grads = backward(tape, loss)
    assert np.all(grads[emb] == 0.0)
    assert np.any(grads[table.leaf] != 0.0)


def test_attract_gradients_flow_to_embeddings_only():
    rng = np.random.default_rng(4)
    emb = Tensor(rng.uniform(-2, 2, size=(4, 3)))
    table = LiveTable([0], rng.uniform(-2, 2, size=(1, 3)))
    with Tape() as tape:
        tape.watch(emb, table.leaf)
        loss = attract_loss(emb, ClassGroups([0] * 4, table), scale=0.5)
    grads = backward(tape, loss)
    assert np.any(grads[emb] != 0.0)
    assert np.all(grads[table.leaf] == 0.0)


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
    emb = Tensor(np.concatenate([rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (2, 4))]))
    labels = [0, 0, 0, 2, 2]

    def build(ls):
        table = LiveTable([0, 2], ls[0])
        return align_loss(emb, ClassGroups(labels, table), table)

    check_grads(build, [rng.uniform(-2, 2, size=(2, 4))])


def test_attract_matches_finite_differences_wrt_embeddings():
    rng = np.random.default_rng(7)
    table = protos_from({0: rng.uniform(-2, 2, 3), 1: rng.uniform(-2, 2, 3)}, 3)
    e0 = rng.uniform(-2, 2, size=(3, 3))
    e1 = rng.uniform(-2, 2, size=(2, 3))
    groups = ClassGroups([0, 0, 0, 1, 1], table)
    check_grads(lambda ls: attract_loss(ls[0], groups, scale=0.5), [np.concatenate([e0, e1])])


def test_repel_matches_finite_differences_wrt_both_sides():
    rng = np.random.default_rng(8)
    emb = rng.uniform(-2, 2, size=(4, 3))
    p0 = rng.uniform(-2, 2, size=3)
    p1 = rng.uniform(-2, 2, size=3)

    def build(ls):
        return repel_loss(ls[0], LiveTable([0, 1], ls[1]), scale=0.5)

    check_grads(build, [emb, np.stack([p0, p1])])


def test_combined_loss_matches_finite_differences_through_model():
    # the full post-round-1 client loss, differentiated through an MLP
    from protofed.model import Arch, init_backbone

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
        emb, logits = forward(arch, ls, x)
        ce = cross_entropy(logits, labels)
        distill = distill_loss(teacher_logits, logits, w.temperature)
        groups = ClassGroups(labels, table)
        align = align_loss(prev_emb, groups)
        pair = attract_repel_loss(
            attract_loss(emb, groups, w.scale),
            repel_loss(emb, table, w.scale),
            w.balance,
        )
        return local_loss(ce, distill, align, pair, w, round_idx=3)

    check_grads(build, base.params)


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
    # prototypes for some classes, always one the batch holds; once as a
    # constant matrix and once as a tracked one, grouped under the tape
    arrays = {c: rng.uniform(-2, 2, q) for c in range(C) if c == labels[0] or rng.random() < 0.7}
    plain = protos_from(arrays, q)
    groups = ClassGroups(labels, plain)
    live = LiveTable(plain.labels, plain.matrix)
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
            lambda: attract_loss(emb, groups, scale),
            lambda: attract_reference(emb, groups, scale),
            [emb],
        ),
        "attract, tracked prototypes": (
            lambda: attract_loss(emb, ClassGroups(labels, live), scale),
            lambda: attract_reference(emb, ClassGroups(labels, live), scale),
            [emb, live.leaf],
        ),
        "align": (
            lambda: align_loss(emb, ClassGroups(labels, live), live),
            lambda: align_reference(emb, ClassGroups(labels, live), live),
            [emb, live.leaf],
        ),
        "repel": (
            lambda: repel_loss(emb, plain, scale, classes=own),
            lambda: repel_reference(emb, plain, scale, own),
            [emb],
        ),
        "repel, tracked prototypes": (
            lambda: repel_loss(emb, live, scale, classes=own),
            lambda: repel_reference(emb, live, scale, own),
            [emb, live.leaf],
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
    # order: the kernels and the backbone's backward give every parameter
    # gradient of the op chain, layers included, so the order in which the
    # terms' gradients add up at the embeddings and logits held.
    from protofed.model import Arch, init_backbone

    rng = np.random.default_rng(100 + seed)
    arch = Arch(kind="mlp", input_dim=3, embedding_dim=4, num_classes=3, hidden=5)
    model, teacher = init_backbone(arch, rng), init_backbone(arch, rng)
    x = rng.uniform(-1, 1, size=(9, 3))
    labels = rng.integers(0, 3, size=9)
    t_emb, t_logits = teacher.infer(x)
    table = protos_from({c: rng.uniform(-1, 1, 4) for c in range(3)}, 4)
    w = LossWeights(temperature=0.3)
    leaves = [Tensor(p) for p in model.params]

    def build(kernels):
        fwd, ce_k, distill_k, align_k, attract_k, repel_k, pair_k, local_k = kernels
        emb, logits = fwd(arch, leaves, x)
        ce = ce_k(logits, labels)
        groups = ClassGroups(labels, table)
        al = align_k(t_emb, groups)
        dist = distill_k(t_logits, logits, w.temperature)
        att = attract_k(emb, groups, w.scale)
        rep = repel_k(emb, table, w.scale, [0, 1, 2])
        return local_k(ce, dist, al, pair_k(att, rep, w.balance), w)

    fused = (
        forward, cross_entropy, distill_loss, align_loss, attract_loss, repel_loss,
        attract_repel_loss, lambda *a: local_loss(*a, round_idx=2),
    )
    reference = (
        embed_reference, cross_entropy_reference, distill_reference, align_reference,
        attract_reference, repel_reference, attract_repel_reference, local_loss_reference,
    )
    got = _value_and_grads(lambda: build(fused), leaves)
    assert got == _value_and_grads(lambda: build(reference), leaves)


@pytest.mark.parametrize("seed", range(25))
def test_fedproto_kernel_matches_op_chain_bitwise(seed):
    # client_update's fedproto batch loss through an MLP: the kernel's value,
    # the mixed loss and every parameter gradient equal the op chain's. Some
    # batch classes lack a prototype; every fifth seed covers none of them.
    from protofed.model import Arch, init_backbone

    rng = np.random.default_rng(300 + seed)
    n, C, q = (int(v) for v in rng.integers((1, 2, 1), (12, 6, 6)))
    arch = Arch(kind="mlp", input_dim=3, embedding_dim=q, num_classes=C, hidden=5)
    leaves = [Tensor(p) for p in init_backbone(arch, rng).params]
    x = rng.uniform(-1, 1, size=(n, 3))
    labels = rng.integers(0, C, size=n)
    held = set(labels.tolist())
    keep = [c for c in range(C) if (rng.random() < 0.6 if seed % 5 else c not in held)]
    table = protos_from({c: rng.uniform(-1, 1, q) for c in keep}, q)
    weight = float(rng.uniform(0.0, 4.0))
    regs = []

    def build(fwd, ce_k, kernel, mix):
        emb, logits = fwd(arch, leaves, x)
        ce = ce_k(logits, labels)
        regs.append(kernel(emb, ClassGroups(labels, table)))
        return ce if regs[-1] is None else mix(ce, regs[-1])

    got = _value_and_grads(
        lambda: build(forward, cross_entropy, fedproto_loss,
                      lambda ce, r: dc.add(dc.mul(ce, 1.0), dc.mul(r, weight))),
        leaves,
    )
    want = _value_and_grads(
        lambda: build(embed_reference, cross_entropy_reference, fedproto_reference,
                      lambda ce, r: dc.add(ce, dc.mul(r, weight))),
        leaves,
    )
    assert got == want
    assert (regs[0] is None) == (regs[1] is None) == (seed % 5 == 0 or not held & set(keep))
    if regs[0] is not None:
        assert _bits(regs[0].data) == _bits(regs[1].data)


def test_fedproto_kernel_matches_finite_differences():
    rng = np.random.default_rng(31)
    labels = np.array([0, 2, 0, 1, 2, 2, 3])
    table = protos_from({c: rng.uniform(-1, 1, 4) for c in (0, 2, 3)}, 4)
    check_grads(
        lambda leaves: fedproto_loss(leaves[0], ClassGroups(labels, table)),
        [rng.uniform(-2, 2, (7, 4))],
    )


def test_fedproto_kernel_hand_value_and_coverage():
    emb = Tensor([[1.0, 2.0], [3.0, 6.0], [5.0, 0.0]])
    # class 0's mean (2, 4) sits (1, 2) off its prototype; class 1 has none
    table = protos_from({0: np.array([1.0, 2.0]), 2: np.zeros(2)}, 2)
    assert fedproto_loss(emb, ClassGroups([0, 0, 1], table)).item() == 2.5
    assert fedproto_loss(emb, ClassGroups([1, 1, 1], table)) is None
    with pytest.raises(ShapeError):
        fedproto_loss(emb, ClassGroups([0, 0, 1], protos_from({0: np.zeros(3)}, 3)))


def test_shape_errors():
    with pytest.raises(ShapeError):
        cross_entropy(Tensor([1.0, 2.0]), [0])
    with pytest.raises(ShapeError):
        distill_loss(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0, 2.0]]), 1.0)
    table = protos_from({0: np.zeros(2)}, 2)
    with pytest.raises(ShapeError):
        align_loss(Tensor([[1.0, 2.0, 3.0]]), ClassGroups([0], table))
    with pytest.raises(ShapeError):
        repel_loss(Tensor([[1.0, 2.0, 3.0]]), table, 1.0)
    with pytest.raises(ValueError):
        attract_loss(Tensor([[1.0, 0.0]]), ClassGroups([0], table), scale=0.0)
    with pytest.raises(ShapeError):
        attract_repel_loss(Tensor([1.0, 2.0]), Tensor(0.0), 0.5)
    with pytest.raises(ShapeError):
        local_loss(Tensor(1.0), Tensor(0.0), Tensor([0.0]), Tensor(0.0), LossWeights(), 2)
