import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_grads
from protofed import diffcore as dc
from protofed.diffcore import (
    NonFiniteError,
    _check_finite,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
)

RNG = np.random.default_rng


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------


def test_tensor_is_float64_and_frozen():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_tensor_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])


def test_tensor_copies_its_input():
    a = np.ones(3)
    t = Tensor(a)
    a[0] = 7.0
    assert t.data[0] == 1.0


def test_item_requires_scalar():
    assert Tensor(2.5).item() == 2.5
    assert Tensor([[2.5]]).item() == 2.5
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0]).item()


# ---------------------------------------------------------------------------
# Forward values
# ---------------------------------------------------------------------------


def test_affine_forward_matches_numpy():
    rng = RNG(0)
    x, w, b = rand(rng, 4, 3), rand(rng, 3, 2), rand(rng, 2)
    out = dc.affine(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_array_equal(out.data, x @ w + b)


def test_softmax_uniform_logits():
    p = dc.softmax_t(Tensor([[0.0, 0.0]]), 1.0)
    np.testing.assert_allclose(p.data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_known_value():
    p = dc.softmax_t(Tensor([[1.0, 0.0]]), 1.0)
    e = np.e
    np.testing.assert_allclose(p.data, [[e / (1 + e), 1 / (1 + e)]], atol=1e-12)


def test_softmax_high_temperature_flattens():
    p = dc.softmax_t(Tensor([[1.0, 0.0]]), 1e6)
    np.testing.assert_allclose(p.data, [[0.5, 0.5]], atol=1e-5)


def test_softmax_extreme_logits_stay_finite():
    p = dc.softmax_t(Tensor([[1000.0, -1000.0]]), 1.0)
    np.testing.assert_allclose(p.data, [[1.0, 0.0]], atol=1e-12)
    ls = dc.log_softmax_t(Tensor([[1000.0, -1000.0]]), 1.0)
    assert np.all(np.isfinite(ls.data))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    st.floats(0.01, 100.0),
)
def test_softmax_rows_sum_to_one(rows, tau):
    p = dc.softmax_t(Tensor(rows), tau)
    np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p.data >= 0.0)


def test_log_softmax_consistent_with_softmax():
    rng = RNG(3)
    z = rand(rng, 5, 4)
    p = dc.softmax_t(Tensor(z), 0.7)
    lp = dc.log_softmax_t(Tensor(z), 0.7)
    np.testing.assert_allclose(np.exp(lp.data), p.data, rtol=1e-12)


def test_gather_and_take_rows_values():
    x = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(dc.gather_labels(x, [1, 0, 1]).data, [2.0, 3.0, 6.0])
    np.testing.assert_array_equal(dc.take_rows(x, [2, 0]).data, [[5.0, 6.0], [1.0, 2.0]])


def test_reductions_and_reshape():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert dc.tsum(x).item() == 10.0
    assert dc.tmean(x).item() == 2.5
    np.testing.assert_array_equal(dc.mean_rows(x).data, [2.0, 3.0])
    np.testing.assert_array_equal(dc.reshape(x, (4,)).data, [1.0, 2.0, 3.0, 4.0])


def test_conv2d_matches_direct_loop():
    rng = RNG(7)
    x, k, b = rand(rng, 2, 2, 5, 4), rand(rng, 3, 2, 2, 3), rand(rng, 3)
    out = dc.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
    n, co, ho, wo = out.shape
    assert (n, co, ho, wo) == (2, 3, 4, 2)
    want = np.zeros_like(out)
    for i in range(n):
        for o in range(co):
            for r in range(ho):
                for c in range(wo):
                    want[i, o, r, c] = np.sum(x[i, :, r : r + 2, c : c + 3] * k[o]) + b[o]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_sq_dists_matches_loop():
    rng = RNG(8)
    x, p = rand(rng, 5, 3), rand(rng, 4, 3)
    out = dc.sq_dists(Tensor(x), Tensor(p)).data
    assert out.shape == (5, 4)
    want = [[np.mean((x[i] - p[c]) ** 2) for c in range(4)] for i in range(5)]
    np.testing.assert_allclose(out, want, rtol=1e-15)


def test_sq_dists_keeps_precision_near_a_prototype():
    # |x|^2 - 2 x.p + |p|^2 cancels to nothing here; the explicit difference
    # keeps the tiny gap.
    x = np.array([[1e8 + 1e-3, -3e7]])
    p = np.array([[1e8, -3e7]])
    gap = x[0, 0] - p[0, 0]
    assert dc.sq_dists(Tensor(x), Tensor(p)).item() == gap * gap / 2.0


# ---------------------------------------------------------------------------
# Gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_grad_matmul():
    rng = RNG(10)
    for _ in range(5):
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        check_grads(lambda ls: dc.tsum(dc.matmul(ls[0], ls[1])), [a, b])


def test_grad_add_sub_broadcasts():
    # Only a scalar broadcasts; the weights make every entry's gradient distinct.
    rng = RNG(11)
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)
    s = np.array(rng.uniform(-2, 2))
    weights = Tensor(rand(rng, 3, 4))
    for op in (dc.add, dc.sub):
        check_grads(lambda ls: dc.tsum(dc.mul(op(ls[0], ls[1]), weights)), [a, b])
        check_grads(lambda ls: dc.tsum(dc.mul(op(ls[0], ls[1]), weights)), [a, s])
    check_grads(lambda ls: dc.tsum(dc.mul(dc.add(ls[0], ls[1]), weights)), [s, a])


def test_grad_affine_all_operands():
    rng = RNG(22)
    for n, d, m in ((4, 3, 2), (1, 2, 3), (5, 1, 1)):
        x, w, b = rand(rng, n, d), rand(rng, d, m), rand(rng, m)
        check_grads(lambda ls: dc.tmean(dc.square(dc.affine(ls[0], ls[1], ls[2]))), [x, w, b])


def test_grad_mul_and_square():
    rng = RNG(12)
    a, b = rand(rng, 3, 3), rand(rng, 3, 3)
    s = np.array(rng.uniform(-2, 2))
    check_grads(lambda ls: dc.tsum(dc.mul(ls[0], ls[1])), [a, b])
    check_grads(lambda ls: dc.tsum(dc.mul(ls[0], ls[1])), [a, s])
    check_grads(lambda ls: dc.tmean(dc.square(ls[0])), [a])


def test_grad_unary_chain():
    rng = RNG(13)
    x = rng.uniform(0.5, 2.0, size=(4, 3))  # positive: log in the chain
    check_grads(lambda ls: dc.tmean(dc.log(dc.exp(dc.neg(ls[0])))), [x])


def test_grad_relu_away_from_kink():
    rng = RNG(14)
    x = rand(rng, 5, 4)
    x[np.abs(x) < 1e-3] = 0.5  # keep FD off the kink
    check_grads(lambda ls: dc.tsum(dc.relu(ls[0])), [x])


def test_grad_reductions_and_reshape():
    rng = RNG(15)
    x = rand(rng, 3, 4)
    check_grads(lambda ls: dc.tmean(ls[0]), [x])
    check_grads(lambda ls: dc.tsum(dc.square(dc.mean_rows(ls[0]))), [x])
    check_grads(lambda ls: dc.tsum(dc.square(dc.reshape(ls[0], (12,)))), [x])


def test_grad_softmax_and_gather():
    rng = RNG(16)
    for tau in (0.1, 1.0, 3.0):
        z = rand(rng, 4, 5)
        labels = rng.integers(0, 5, size=4)
        check_grads(
            lambda ls: dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(ls[0], tau), labels))),
            [z],
        )
        check_grads(lambda ls: dc.tsum(dc.square(dc.softmax_t(ls[0], tau))), [z])


def test_grad_take_rows_accumulates_duplicates():
    rng = RNG(17)
    x = rand(rng, 4, 3)
    idx = np.array([0, 0, 2])
    check_grads(lambda ls: dc.tsum(dc.square(dc.take_rows(ls[0], idx))), [x])


def test_grad_sq_dists_both_operands():
    rng = RNG(20)
    for n, c, q in ((4, 3, 2), (3, 2, 1), (5, 1, 3), (1, 1, 1)):
        x, p = rand(rng, n, q), rand(rng, c, q)
        weights = Tensor(rng.uniform(0.1, 1.0, size=(n, c)))
        check_grads(lambda ls: dc.tsum(dc.mul(dc.sq_dists(ls[0], ls[1]), weights)), [x, p])


def test_grad_conv2d():
    rng = RNG(18)
    x, k, b = rand(rng, 2, 2, 4, 4), rand(rng, 2, 2, 2, 2), rand(rng, 2)
    check_grads(lambda ls: dc.tmean(dc.square(dc.conv2d(ls[0], ls[1], ls[2]))), [x, k, b])


def _conv2d_grads_reference(x, k, g):
    """(dx, dk, db) of sum(g * conv2d(x, k, b)), one einsum per kernel tap."""
    _, _, kh, kw = k.shape
    ho, wo = g.shape[2:]
    dx, dk = np.zeros_like(x), np.zeros_like(k)
    for a in range(kh):
        for b in range(kw):
            dk[:, :, a, b] = np.einsum("nohw,nihw->oi", g, x[:, :, a : a + ho, b : b + wo])
            dx[:, :, a : a + ho, b : b + wo] += np.einsum("nohw,oi->nihw", g, k[:, :, a, b])
    return dx, dk, np.einsum("nohw->o", g)


def _conv2d_with_grads(x, k, b, g):
    xt, kt, bt = Tensor(x), Tensor(k), Tensor(b)
    with Tape() as tape:
        tape.watch(xt, kt, bt)
        out = dc.conv2d(xt, kt, bt)
        loss = dc.tsum(dc.mul(out, Tensor(g)))
    grads = backward(tape, loss)
    return out.data, grads[xt], grads[kt], grads[bt]


@pytest.mark.parametrize("samples_per_block", [1, 2])
def test_conv2d_blocks_match_one_block(monkeypatch, samples_per_block):
    rng = RNG(23)
    x, k, b = rand(rng, 5, 2, 6, 5), rand(rng, 3, 2, 3, 2), rand(rng, 3)
    g = rand(rng, 5, 3, 4, 4)
    whole = _conv2d_with_grads(x, k, b, g)
    per_sample = 2 * 3 * 2 * 4 * 4  # ci * kh * kw * ho * wo column entries
    monkeypatch.setattr(dc, "_CONV_BLOCK_ENTRIES", samples_per_block * per_sample)
    blocked = _conv2d_with_grads(x, k, b, g)  # blocks of 1 or 2, 2, 1 samples
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for got, want in zip(blocked[1:], _conv2d_grads_reference(x, k, g)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "op, inputs",
    [
        (dc.conv2d, ((3, 2, 5, 4), (2, 2, 2, 3), (2,))),
        (dc.matmul, ((4, 3), (3, 5))),
        (dc.add, ((4, 3), ())),
        (dc.sub, ((4, 3), (4, 3))),
        (dc.mul, ((4, 3), ())),
        (dc.sq_dists, ((5, 3), (4, 3))),
        (dc.affine, ((4, 3), (3, 5), (5,))),
    ],
)
def test_every_operand_gets_a_gradient_watched_or_not(op, inputs):
    # An op's backward returns every operand's gradient whichever operands
    # the tape watches; backward keeps only the watched ones, bitwise as when
    # all are watched.
    rng = RNG(24)
    operands = [Tensor(rand(rng, *shape)) for shape in inputs]

    def grads(*watched):
        with Tape() as tape:
            tape.watch(*watched)
            out = op(*operands)
            loss = dc.tsum(dc.square(out))
        out_rec, recorded, bwd = tape._records[0]
        assert out_rec is out and recorded == tuple(operands)
        return backward(tape, loss), bwd(np.ones(out.shape))

    every, every_bwd = grads(*operands)
    assert all(gi is not None for gi in every_bwd)
    for i, skipped in enumerate(operands):
        others = [t for t in operands if t is not skipped]
        partial, partial_bwd = grads(*others)
        assert all(gi is not None for gi in partial_bwd) and skipped not in partial
        np.testing.assert_array_equal(partial_bwd[i], every_bwd[i])
        for t in others:
            np.testing.assert_array_equal(partial[t], every[t])


def test_conv2d_memory_stays_blocked():
    rng = RNG(25)
    x, k = Tensor(rng.standard_normal((512, 4, 26, 26))), Tensor(rand(rng, 8, 4, 3, 3))
    tracemalloc.start()
    try:
        with Tape() as tape:
            tape.watch(x, k)
            out = dc.conv2d(x, k, Tensor(np.zeros(8)))
            loss = dc.tsum(out)
        grads = backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Output and gradients plus a few column blocks; one im2col buffer for the
    # whole batch would be 512 * 36 * 576 entries, 85 MB.
    assert peak <= out.data.nbytes + grads[x].nbytes + 4 * dc._CONV_BLOCK_ENTRIES * 8


def test_grad_mlp_composition():
    rng = RNG(19)
    x = rand(rng, 4, 3)
    w1, b1 = rand(rng, 3, 5), rand(rng, 5)
    w2, b2 = rand(rng, 5, 2), rand(rng, 2)
    labels = rng.integers(0, 2, size=4)

    def build(ls):
        h = dc.relu(dc.affine(Tensor(x), ls[0], ls[1]))
        z = dc.affine(h, ls[2], ls[3])
        return dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(z, 1.0), labels)))

    check_grads(build, [w1, b1, w2, b2])


def test_grad_diamond_reuse():
    # One tensor consumed twice: grads must accumulate.
    x = np.array([1.5, -0.5])
    check_grads(lambda ls: dc.tsum(dc.add(dc.square(ls[0]), dc.mul(ls[0], ls[0]))), [x])
    # add hands one gradient array to both inputs; accumulating into it in
    # place would also change the other input's gradient.
    c = Tensor([0.5, 3.0])

    def shared(ls):
        a, b = dc.mul(ls[0], 2.0), dc.mul(ls[0], 3.0)
        return dc.tsum(dc.mul(dc.add(dc.add(a, b), a), c))

    check_grads(shared, [x])


# ---------------------------------------------------------------------------
# Tape semantics
# ---------------------------------------------------------------------------


def test_untouched_leaf_gets_zero_grad():
    x, unused = Tensor([1.0, 2.0]), Tensor([[3.0]])
    with Tape() as tape:
        tape.watch(x, unused)
        loss = dc.tsum(dc.square(x))
    grads = backward(tape, loss)
    np.testing.assert_array_equal(grads[unused], np.zeros((1, 1)))


def test_no_recording_outside_tape():
    tape = Tape()
    x = Tensor([1.0])
    tape.watch(x)
    dc.square(x)  # tape never entered: nothing recorded
    assert tape.num_records == 0


def test_constants_are_not_tracked():
    x, c = Tensor([2.0]), Tensor([3.0])
    with Tape() as tape:
        tape.watch(x)
        loss = dc.tsum(dc.mul(x, c))
    grads = backward(tape, loss)
    assert set(grads) == {x}
    np.testing.assert_array_equal(grads[x], [3.0])


def test_detach_blocks_gradient():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch(x)
        y = dc.square(x)
        loss = dc.tsum(dc.mul(dc.detach(y), y))
    grads = backward(tape, loss)
    # d/dx sum(c * x^2) with c = x^2 held constant: 2*c*x
    np.testing.assert_allclose(grads[x], 2.0 * x.data**2 * x.data)


def test_backward_errors():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch(x)
        vec = dc.square(x)
        loss = dc.tsum(vec)
    with pytest.raises(TapeError):
        backward(tape, vec)  # not a scalar
    off_tape = Tensor(0.0)
    with pytest.raises(TapeError):
        backward(tape, off_tape)
    backward(tape, loss)  # and a legal call still works


def test_separate_tapes_are_independent():
    x = Tensor([3.0])
    with Tape() as t1:
        t1.watch(x)
        l1 = dc.tsum(dc.square(x))
    with Tape() as t2:
        t2.watch(x)
        l2 = dc.tsum(dc.mul(x, x))
    np.testing.assert_array_equal(backward(t1, l1)[x], [6.0])
    np.testing.assert_array_equal(backward(t2, l2)[x], [6.0])
    assert t1.num_records == 2 and t2.num_records == 2


# ---------------------------------------------------------------------------
# Errors and poisoning
# ---------------------------------------------------------------------------


def test_shape_errors():
    with pytest.raises(ShapeError):
        dc.matmul(Tensor([[1.0]]), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ShapeError):
        dc.add(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):  # a bias row belongs to affine
        dc.add(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):
        dc.sub(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):  # sub takes its scalar on the right only
        dc.sub(Tensor(1.0), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):
        dc.affine(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0]]), Tensor([1.0, 2.0]))
    with pytest.raises(ShapeError):
        dc.affine(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]), Tensor([1.0]))
    with pytest.raises(ShapeError):
        dc.mul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ShapeError):
        dc.reshape(Tensor([1.0, 2.0]), (3,))
    with pytest.raises(ShapeError):
        dc.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))), Tensor([0.0]))
    with pytest.raises(ShapeError):
        dc.conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((2, 1, 2, 2))), Tensor([0.0]))


def test_poisoning_surfaces_at_op_boundary():
    with pytest.raises(NonFiniteError):
        dc.log(Tensor([0.0]))
    with pytest.raises(NonFiniteError):
        dc.log(Tensor([-1.0]))
    with pytest.raises(NonFiniteError):
        dc.exp(Tensor([1000.0]))


@pytest.mark.parametrize(
    "values",
    [[1.0, np.nan], [np.inf, 2.0], [-np.inf], [np.nan, np.inf], [np.inf, -np.inf]],
)
def test_check_finite_names_the_op(values):
    with warnings.catch_warnings(), pytest.raises(NonFiniteError, match="^sq_dists produced"):
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in the sum
        _check_finite(np.array(values), "sq_dists")


def test_check_finite_accepts_finite_arrays_whose_sum_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy flags the overflowing sum
        _check_finite(np.array([1e308, 1e308]), "add")
        _check_finite(np.array([-1e308, -1e308]), "add")
    _check_finite(np.array(3.0), "add")
    _check_finite(np.zeros((0, 4)), "add")


def test_sq_dists_shape_errors():
    with pytest.raises(ShapeError):
        dc.sq_dists(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]]))
    with pytest.raises(ShapeError):
        dc.sq_dists(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))


def test_plain_sq_dists_checks_its_operands():
    # The distance kernels take _sq_dists' output, so the width check is its own.
    x = np.ones((3, 2))
    for p in (np.ones((4, 3)), np.ones((4, 1))):  # unequal widths
        with pytest.raises(ShapeError):
            dc._sq_dists(x, p)
    for a, b in ((x[0], x), (x, x[0]), (x[None], x), (np.ones((3, 0)), np.ones((4, 0)))):
        with pytest.raises(ShapeError):  # not a pair of matrices with columns
            dc._sq_dists(a, b)
    dists, diff = dc._sq_dists(x, np.zeros((0, 2)))  # no prototype: no columns
    assert dists.shape == (3, 0) and diff.shape == (3, 0, 2)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError):
        dc.softmax_t(Tensor([[1.0, 0.0]]), 0.0)
    with pytest.raises(ValueError):
        dc.softmax_t(Tensor([[1.0, 0.0]]), -1.0)


def test_gather_rejects_bad_labels():
    x = Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        dc.gather_labels(x, [2])
    with pytest.raises(ValueError):
        dc.take_rows(x, [5])


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_forward_backward_bit_determinism():
    def run():
        rng = RNG(99)
        x = Tensor(rand(rng, 6, 4))
        w = Tensor(rand(rng, 4, 3))
        labels = rng.integers(0, 3, size=6)
        with Tape() as tape:
            tape.watch(w)
            z = dc.matmul(x, w)
            loss = dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(z, 0.5), labels)))
        g = backward(tape, loss)[w]
        return loss.item(), g.tobytes()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2 and g1 == g2
