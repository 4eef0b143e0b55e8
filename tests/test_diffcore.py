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
    out = dc.add(dc.matmul(Tensor(x), Tensor(w)), Tensor(b))
    np.testing.assert_array_equal(out.data, x @ w + b)


def test_operator_sugar():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    np.testing.assert_array_equal((a + b).data, [4.0, 6.0])
    np.testing.assert_array_equal((a - b).data, [-2.0, -2.0])
    np.testing.assert_array_equal((a * b).data, [3.0, 8.0])
    np.testing.assert_array_equal((2.0 * a).data, [2.0, 4.0])
    np.testing.assert_array_equal((-a).data, [-1.0, -2.0])


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
    x, k = rand(rng, 2, 2, 5, 4), rand(rng, 3, 2, 2, 3)
    out = dc.conv2d(Tensor(x), Tensor(k)).data
    n, co, ho, wo = out.shape
    assert (n, co, ho, wo) == (2, 3, 4, 2)
    want = np.zeros_like(out)
    for i in range(n):
        for o in range(co):
            for r in range(ho):
                for c in range(wo):
                    want[i, o, r, c] = np.sum(x[i, :, r : r + 2, c : c + 3] * k[o])
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


def test_concat_rows_values():
    out = dc.concat_rows([Tensor([1.0, 2.0]), Tensor([[3.0, 4.0], [5.0, 6.0]])])
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


# ---------------------------------------------------------------------------
# Gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_grad_matmul():
    rng = RNG(10)
    for _ in range(5):
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        check_grads(lambda ls: dc.tsum(dc.matmul(ls[0], ls[1])), [a, b])


def test_grad_add_sub_broadcasts():
    rng = RNG(11)
    a, row = rand(rng, 3, 4), rand(rng, 4)
    s = np.array(rng.uniform(-2, 2))
    check_grads(lambda ls: dc.tsum(dc.add(ls[0], ls[1])), [a, row])
    check_grads(lambda ls: dc.tsum(dc.sub(ls[0], ls[1])), [a, row])
    check_grads(lambda ls: dc.tsum(dc.add(ls[0], ls[1])), [a, s])
    nchw, chan = rand(rng, 2, 3, 4, 4), rand(rng, 3)
    check_grads(lambda ls: dc.tsum(dc.add(ls[0], ls[1])), [nchw, chan])


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


def test_grad_concat_rows_splits_back():
    rng = RNG(21)
    v, m = rand(rng, 3), rand(rng, 2, 3)
    weights = Tensor(rand(rng, 3, 3))
    check_grads(lambda ls: dc.tsum(dc.mul(dc.concat_rows(ls), weights)), [v, m])


def test_grad_conv2d():
    rng = RNG(18)
    x, k = rand(rng, 2, 2, 4, 4), rand(rng, 2, 2, 2, 2)
    check_grads(lambda ls: dc.tmean(dc.square(dc.conv2d(ls[0], ls[1]))), [x, k])


def test_grad_mlp_composition():
    rng = RNG(19)
    x = rand(rng, 4, 3)
    w1, b1 = rand(rng, 3, 5), rand(rng, 5)
    w2, b2 = rand(rng, 5, 2), rand(rng, 2)
    labels = rng.integers(0, 2, size=4)

    def build(ls):
        h = dc.relu(dc.add(dc.matmul(Tensor(x), ls[0]), ls[1]))
        z = dc.add(dc.matmul(h, ls[2]), ls[3])
        return dc.tmean(dc.neg(dc.gather_labels(dc.log_softmax_t(z, 1.0), labels)))

    check_grads(build, [w1, b1, w2, b2])


def test_grad_diamond_reuse():
    # One tensor consumed twice: grads must accumulate.
    x = np.array([1.5, -0.5])
    check_grads(lambda ls: dc.tsum(dc.add(dc.square(ls[0]), dc.mul(ls[0], ls[0]))), [x])


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
    with pytest.raises(ShapeError):
        dc.mul(Tensor([1.0, 2.0]), Tensor([[1.0], [2.0]]))
    with pytest.raises(ShapeError):
        dc.reshape(Tensor([1.0, 2.0]), (3,))
    with pytest.raises(ShapeError):
        dc.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))


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


def test_sq_dists_and_concat_rows_shape_errors():
    with pytest.raises(ShapeError):
        dc.sq_dists(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]]))
    with pytest.raises(ShapeError):
        dc.sq_dists(Tensor([1.0, 2.0]), Tensor([[1.0, 2.0]]))
    with pytest.raises(ShapeError):
        dc.concat_rows([Tensor([1.0, 2.0]), Tensor([1.0])])
    with pytest.raises(ShapeError):
        dc.concat_rows([])


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
