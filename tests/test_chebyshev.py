import math

import numpy as np
import pytest

from pentapower import chebyshev_u_sequence, ipow


def test_u0_is_one_anywhere():
    assert chebyshev_u_sequence(0, 0.7 + 0.2j)[-1] == 1


def test_u_at_one_counts_up():
    # U_m(1) = m + 1
    assert chebyshev_u_sequence(5, 1)[-1] == 6
    for m in range(10):
        assert chebyshev_u_sequence(m, 1)[-1] == pytest.approx(m + 1)


def test_u3_at_half():
    # U_3(x) = 8x^3 - 4x, so U_3(0.5) = 1 - 2 = -1
    assert chebyshev_u_sequence(3, 0.5)[-1] == pytest.approx(-1)


def test_sequence_small_cases():
    assert chebyshev_u_sequence(1, 2j) == [1, 4j]
    assert chebyshev_u_sequence(3, 1) == [1, 2, 3, 4]
    assert chebyshev_u_sequence(2, 0.5) == [1, 1.0, 0.0]


def test_sequence_matches_pointwise_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        seq = chebyshev_u_sequence(40, x)
        for m, value in enumerate(seq):
            assert value == chebyshev_u_sequence(m, x)[-1]


@pytest.mark.parametrize("m_max", [0, 1, 5, 40])
def test_sequence_works_elementwise_on_arrays(m_max):
    # the lane tables pass every node of a lane in one call
    nodes = np.cos(np.random.default_rng(3).uniform(0, np.pi, 30))
    rows = chebyshev_u_sequence(m_max, nodes)
    assert len(rows) == m_max + 1
    for order, row in enumerate(rows):
        assert np.array_equal(row, [chebyshev_u_sequence(order, x)[-1] for x in nodes])
    assert np.array(chebyshev_u_sequence(m_max, np.array([]))).shape == (m_max + 1, 0)


def test_recurrence_consistency():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(x) > 2:
            x = x / abs(x) * 2
        for m in range(2, 65):
            residual = (
                chebyshev_u_sequence(m, x)[-1]
                - 2 * x * chebyshev_u_sequence(m - 1, x)[-1]
                + chebyshev_u_sequence(m - 2, x)[-1]
            )
            scale = max(1.0, abs(chebyshev_u_sequence(m, x)[-1]))
            assert abs(residual) <= 1e-12 * scale


def test_trigonometric_identity_pins_convention():
    # U_m(cos t) * sin t == sin((m + 1) t)
    thetas = np.linspace(0.05, math.pi - 0.05, 50)
    for m in range(33):
        for theta in thetas:
            value = chebyshev_u_sequence(m, math.cos(theta))[-1]
            assert abs(value - math.sin((m + 1) * theta) / math.sin(theta)) <= 1e-10


def test_fibonacci_chebyshev_bridge():
    # U_{m-1}(i/2) = i**(m-1) * F_m, F_m the Fibonacci numbers: exact, and U at a non-real argument
    fib = [0, 1]
    for m in range(1, 11):
        assert chebyshev_u_sequence(m - 1, 0.5j)[-1] == 1j ** (m - 1) * fib[m]
        fib.append(fib[-1] + fib[-2])


def test_rejects_negative_order():
    with pytest.raises(ValueError, match=r"^polynomial order must be >= 0, got -1$"):
        chebyshev_u_sequence(-1, 0.5)[-1]
    with pytest.raises(ValueError, match=r"^polynomial order must be >= 0, got -2$"):
        chebyshev_u_sequence(-2, 0.5)


def test_order_must_be_an_integer():
    # int(2.5) silently gave order 2
    with pytest.raises(TypeError):
        chebyshev_u_sequence(2.5, 0.5)
    assert chebyshev_u_sequence(np.int64(3), 0.5) == chebyshev_u_sequence(3, 0.5)


def test_rejects_non_finite_argument():
    with pytest.raises(ValueError, match=r"^argument must be finite, got \(nan\+0j\)$"):
        chebyshev_u_sequence(3, float("nan"))[-1]
    with pytest.raises(ValueError, match=r"^argument must be finite, got \(1\+infj\)$"):
        chebyshev_u_sequence(3, complex(1, float("inf")))[-1]


def test_ipow_matches_reference():
    rng = np.random.default_rng(17)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        acc = 1 + 0j
        for e in range(12):
            assert ipow(z, e) == pytest.approx(acc, rel=1e-12)
            acc *= z
    assert ipow(0, 0) == 1
    assert ipow(0, 5) == 0


def test_ipow_works_elementwise_on_arrays():
    base = np.random.default_rng(5).uniform(-1.5, 1.5, 50)
    for e in (0, 1, 2, 7, 64, 1001):
        assert np.array_equal(ipow(base, e), [ipow(float(x), e) for x in base])
    # the walk counts' mode route raises the lane's nodes to exponents beyond int64
    assert np.array_equal(ipow(np.array([1.0, -1.0, 0.5]), 10**20 + 1), [1.0, -1.0, 0.0])


def test_ipow_rejects_negative_exponent():
    with pytest.raises(ValueError, match="^exponent must be >= 0, got -3$"):
        ipow(2 + 1j, -3)
