import numpy as np
import pytest

from protofed.metrics import RoundRecord, accuracy, average_accuracy, macro_f1, rmse_mae


def test_accuracy_perfect_and_half():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert accuracy([0, 0], [0, 1]) == 0.5


def test_rmse_mae_hand_values():
    rmse, mae = rmse_mae([0, 0], [0, 1])
    assert rmse == pytest.approx(np.sqrt(0.5))
    assert mae == pytest.approx(0.5)
    rmse, mae = rmse_mae([3], [0])
    assert rmse == pytest.approx(3.0)
    assert mae == pytest.approx(3.0)


def test_rmse_mae_zero_on_perfect():
    assert rmse_mae([1, 2, 1], [1, 2, 1]) == (0.0, 0.0)


def test_macro_f1_hand_value():
    # class 0: tp=1 fp=1 fn=0 -> f1 2/3; class 1: tp=0 -> 0
    assert macro_f1([0, 0], [0, 1], num_classes=2) == pytest.approx(1.0 / 3.0)
    # widening the label space adds zero-score classes
    assert macro_f1([0, 0], [0, 1], num_classes=3) == pytest.approx(2.0 / 9.0)


def test_macro_f1_perfect():
    assert macro_f1([0, 1, 2, 2], [0, 1, 2, 2], num_classes=3) == 1.0


def test_macro_f1_pairwise_permutation_invariant():
    rng = np.random.default_rng(3)
    p = rng.integers(0, 4, size=50)
    y = rng.integers(0, 4, size=50)
    base = macro_f1(p, y, 4)
    perm = rng.permutation(50)
    assert macro_f1(p[perm], y[perm], 4) == pytest.approx(base, rel=1e-12)


def test_average_accuracy():
    assert average_accuracy([0.5, 1.0]) == pytest.approx(0.75)
    assert average_accuracy([0.4]) == pytest.approx(0.4)


def test_metric_input_validation():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([0, 1], [0])
    with pytest.raises(ValueError):
        macro_f1([0, 5], [0, 1], num_classes=2)
    with pytest.raises(ValueError):
        macro_f1([-1, 0, 1], [-1, 0, 1], num_classes=2)
    with pytest.raises(ValueError):
        macro_f1([0, 1], [0, -1], num_classes=2)
    with pytest.raises(ValueError):
        macro_f1([0], [0], num_classes=0)
    with pytest.raises(ValueError):
        average_accuracy([])


def test_round_record_is_frozen():
    rec = RoundRecord(1, (0, 1), 0.1, 0.0, 0.0, 0.0, 0.9, 0.3, 0.1, 0.8, 0.01, 64, (64, 80))
    with pytest.raises(AttributeError):
        rec.acc = 0.5
