import numpy as np
import pytest

from cyclecap.errors import NumericError
from cyclecap.optim import Adam
from cyclecap.tensor import Parameter, Tape

from _reference import mul, scale, sum_all


def test_zero_gradient_leaves_parameters_unchanged():
    p = Parameter([1.5, -2.0], "p")
    adam = Adam({"p": p}, lr=0.1)
    before = p.data.copy()
    adam.step()
    np.testing.assert_array_equal(p.data, before)


def test_single_step_with_unit_gradient_moves_by_learning_rate():
    # m_hat = v_hat = 1 at step 1, so the update is lr / (1 + eps)
    p = Parameter([0.0], "p")
    adam = Adam({"p": p}, lr=4e-4)
    p.grad = np.array([1.0])
    adam.step()
    assert p.data[0] == pytest.approx(-4e-4, rel=1e-6)


def test_constant_gradient_hand_steps():
    p = Parameter([0.0], "p")
    adam = Adam({"p": p}, lr=0.1)  # beta1 0.9, beta2 0.999, eps 1e-8
    m = v = 0.0
    theta = 0.0
    for t in range(1, 6):
        p.grad = np.array([2.0])
        adam.step()
        m = 0.9 * m + 0.1 * 2.0
        v = 0.999 * v + 0.001 * 4.0
        theta -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert p.data[0] == pytest.approx(theta, rel=1e-12)


def test_nan_gradient_aborts_naming_parameter():
    p = Parameter([1.0], "decoder/w_out")
    adam = Adam({"decoder/w_out": p})
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="decoder/w_out"):
        adam.step()


def test_identical_runs_are_bit_identical():
    def run():
        rng = np.random.default_rng(5)
        p = Parameter(rng.standard_normal(6), "p")
        adam = Adam({"p": p}, lr=1e-2)
        for _ in range(25):
            adam.zero_grad()
            with Tape() as tape:
                tape.backward(sum_all(mul(p, scale(p, 0.5))))
            adam.step()
        return p.data.copy()

    assert run().tobytes() == run().tobytes()
