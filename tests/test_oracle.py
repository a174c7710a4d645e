import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentapower import (
    MatrixSpec,
    build_dense,
    compare,
    determinant,
    determinant_corollary_check,
    mat_mul,
    naive_power,
    oracle,
)
from pentapower.oracle import band_pairs
from pentapower.spectrum import _eigenvalues


class TestBuildDense:
    def test_unit_bands(self):
        expected = np.array(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
        )
        assert np.array_equal(build_dense(MatrixSpec(n=4, a=1, b=1)), expected)

    def test_band_placement(self):
        matrix = build_dense(MatrixSpec(n=3, a=2, b=5))
        assert np.array_equal(
            matrix, np.array([[0, 0, 2], [0, 0, 0], [5, 0, 0]], dtype=complex)
        )

    def test_middle_row(self):
        matrix = build_dense(MatrixSpec(n=5, a=3, b=2))
        assert np.array_equal(matrix[2], np.array([2, 0, 0, 0, 3], dtype=complex))


class TestMatMul:
    def test_identity(self):
        m = np.arange(9, dtype=complex).reshape(3, 3)
        assert np.array_equal(mat_mul(np.eye(3, dtype=complex), m), m)

    def test_order_four_square(self):
        a4 = build_dense(MatrixSpec(n=4, a=1, b=1))
        assert np.array_equal(mat_mul(a4, a4), np.eye(4, dtype=complex))

    def test_order_five_square(self):
        a5 = build_dense(MatrixSpec(n=5, a=1, b=1))
        expected = np.diag([1, 1, 2, 1, 1]).astype(complex)
        expected[0, 4] = expected[4, 0] = 1
        assert np.array_equal(mat_mul(a5, a5), expected)

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            mat_mul(np.eye(3), np.eye(4))

    def test_rejects_a_non_square_left_operand(self):
        with pytest.raises(ValueError, match=r"^left operand is not square: shape \(2, 3\)$"):
            mat_mul(np.ones((2, 3)), np.ones((2, 3)))


class TestNaivePower:
    def test_r_zero(self):
        assert np.array_equal(
            naive_power(MatrixSpec(n=4, a=2, b=3), 0), np.eye(4, dtype=complex)
        )

    def test_scalar_matrix_case(self):
        assert_allclose(naive_power(MatrixSpec(n=4, a=2, b=3), 6), 216 * np.eye(4), atol=1e-12)

    def test_printed_seven_by_seven(self):
        expected = np.array(
            [
                [0, 0, 540, 0, 0, 0, 486],
                [0, 0, 0, 432, 0, 0, 0],
                [360, 0, 0, 0, 864, 0, 0],
                [0, 288, 0, 0, 0, 432, 0],
                [0, 0, 576, 0, 0, 0, 540],
                [0, 0, 0, 288, 0, 0, 0],
                [144, 0, 0, 0, 360, 0, 0],
            ],
            dtype=complex,
        )
        assert_allclose(naive_power(MatrixSpec(n=7, a=3, b=2), 5), expected, atol=1e-9)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            naive_power(MatrixSpec(n=4, a=1, b=1), -1)

    def test_semigroup(self):
        for n in (4, 7, 10):
            a, b = band_pairs(count=1)[0]
            spec = MatrixSpec(n=n, a=a, b=b)
            for r1 in (1, 3, 6):
                for r2 in (2, 5):
                    combined = naive_power(spec, r1 + r2)
                    product = mat_mul(naive_power(spec, r1), naive_power(spec, r2))
                    # opposite-parity positions are exact zeros on both sides
                    for i in range(n):
                        for j in range(n):
                            if (i + j) % 2 == 1:
                                assert combined[i, j] == 0
                                assert product[i, j] == 0
                    scale = max(1.0, np.max(np.abs(product)))
                    assert np.max(np.abs(combined - product)) <= 1e-12 * scale


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(5, dtype=complex)) == pytest.approx(1)

    def test_unit_band_order_four(self):
        # the matrix is the even permutation (1 3)(2 4) with unit entries
        assert determinant(build_dense(MatrixSpec(n=4, a=1, b=1))) == pytest.approx(1)

    def test_singular_shift(self):
        spec = MatrixSpec(n=4, a=1, b=1)
        shifted = 1.0 * np.eye(4) - build_dense(spec)
        reference = abs(determinant(3.0 * np.eye(4) - build_dense(spec)))
        assert abs(determinant(shifted)) <= 1e-12 * reference

    def test_exactly_singular_matrix_gives_zero(self):
        matrix = np.zeros((3, 3), dtype=complex)
        matrix[0, 1] = 1
        matrix[1, 0] = 1
        assert determinant(matrix) == 0

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"^matrix is not square: shape \(2, 3\)$"):
            determinant(np.ones((2, 3)))

    def test_multiplicative(self):
        pairs = band_pairs(count=4)
        for n in (3, 5, 8):
            lhs = build_dense(MatrixSpec(n=n, a=pairs[0][0], b=pairs[0][1]))
            rhs = build_dense(MatrixSpec(n=n, a=pairs[1][0], b=pairs[1][1]))
            product_det = determinant(mat_mul(lhs, rhs))
            separate = determinant(lhs) * determinant(rhs)
            assert product_det == pytest.approx(separate, rel=1e-9, abs=1e-12)

    def test_vanishes_on_spectrum(self):
        for a, b in band_pairs(count=2):
            for n in range(3, 13):
                spec = MatrixSpec(n=n, a=a, b=b)
                dense = build_dense(spec)
                values = _eigenvalues(spec)[0::2] if n % 2 == 0 else _eigenvalues(spec)
                reference_point = 3.0 * abs(np.sqrt(complex(a * b)))
                reference = abs(determinant(reference_point * np.eye(n) - dense))
                for value in values:
                    assert abs(determinant(value * np.eye(n) - dense)) <= 1e-6 * reference

    @pytest.mark.parametrize("case", ["band", "far_corner", "corollary"])
    def test_window_follows_the_input(self, case):
        # the elimination window comes from the input's non-zero diagonals: two below and
        # two above for the shifted band matrix, the whole matrix once [n-1, 0] is set.
        # The order is odd so that both corner indices sit in one lane: at an even order
        # the corner joins the two lanes, the matrix is block triangular and the entry
        # leaves the determinant unchanged. Here it scales it by about 1e50.
        if case == "corollary":
            assert determinant_corollary_check(125, 1 + 1j).passed
            return
        n = 501
        matrix = (1 + 1j) * np.eye(n) - build_dense(MatrixSpec(n=n, a=2, b=0.1j))
        if case == "far_corner":
            matrix[n - 1, 0] = 0.75 - 0.25j
        assert determinant(matrix) == pytest.approx(np.linalg.det(matrix), rel=1e-10)


class TestCorollaryCheck:
    def test_small_instances(self):
        report = determinant_corollary_check(1, 1)
        assert report.passed and report.max_abs_deviation <= 1e-9

        # t=1, x=1: the square is i*I so the determinant is i^2 = -1
        spec = MatrixSpec(n=4, a=1, b=1j)
        assert determinant(build_dense(spec)) == pytest.approx(-1)

        spec2 = MatrixSpec(n=4, a=2, b=1j)
        assert determinant(build_dense(spec2)) == pytest.approx(-4)

        spec3 = MatrixSpec(n=8, a=1, b=1j)
        assert determinant(build_dense(spec3)) == pytest.approx(1)

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("x", [1, 2, 0.5, 1 + 1j])
    def test_grid(self, t, x):
        assert determinant_corollary_check(t, x).passed

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            determinant_corollary_check(0, 1)

    def test_zeroed_determinant_fails_a_small_formula(self, monkeypatch):
        # the formula (0.1i)**16 is 1e-16: only a max(1, |formula|) floor would pass a zero
        monkeypatch.setattr(oracle, "determinant", lambda matrix: 0j)
        report = determinant_corollary_check(8, 0.1)
        assert not report.passed
        assert report.max_rel_deviation == pytest.approx(1)


class TestCompare:
    def test_equal_matrices_pass(self):
        m = build_dense(MatrixSpec(n=4, a=1 + 1j, b=2))
        report = compare(m, m, 1e-9)
        assert report.passed
        assert report.max_abs_deviation == 0

    def test_shared_ground_truth_case(self):
        from pentapower import PowerRequest, power_matrix

        spec = MatrixSpec(n=6, a=2, b=1 + 1j)
        report = compare(
            power_matrix(PowerRequest(spec=spec, r=6)), naive_power(spec, 6), 1e-8
        )
        assert report.passed

    def test_single_entry_perturbation_fails(self):
        reference = np.eye(3, dtype=complex)
        candidate = reference.copy()
        candidate[1, 2] += 1
        report = compare(candidate, reference, 1e-9)
        assert not report.passed
        assert report.worst_index == (1, 2)
        assert report.max_abs_deviation == pytest.approx(1)

    def test_small_reference_is_not_floored(self):
        # the scale is the reference's own largest modulus, not at least 1
        assert not compare(np.zeros((3, 3)), 1e-9 * np.eye(3), 1e-8).passed

    def test_zero_reference_needs_an_exact_match(self):
        zero = np.zeros((3, 3))
        exact = compare(zero, zero, 1e-8)
        assert exact.passed
        assert exact.max_rel_deviation == 0
        off = compare(1e-300 * np.eye(3), zero, 1e-8)
        assert not off.passed
        assert off.max_rel_deviation == np.inf

    def test_overflowed_reference_fails_every_candidate(self):
        # the reference's non-zero entries are inf or nan, so rel_tol * scale bounds nothing
        with np.errstate(over="ignore", invalid="ignore"):
            reference = naive_power(MatrixSpec(n=8, a=1, b=1), 2000)
            assert not compare(np.zeros((8, 8)), reference, 1e-8).passed
            assert not compare(reference, reference, 1e-8).passed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compare(np.eye(3), np.eye(4), 1e-9)
        with pytest.raises(ValueError):
            compare(np.eye(3), np.eye(3), 0)
