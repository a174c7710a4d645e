import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentapower import (
    DerivedScalars,
    MatrixSpec,
    build_dense,
    determinant,
    transform,
)
from pentapower.oracle import band_pairs
from pentapower.spectrum import _by_lanes, _eigenvalues, _even_nodes


def _residuals(spec, decomposition):
    """(similarity, inverse) residuals, each relative to its product scale."""
    a = build_dense(spec)
    lhs = a @ decomposition.transform
    rhs = decomposition.transform * decomposition.eigenvalues[None, :]
    sim = np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs)))
    product = decomposition.transform @ decomposition.inverse_transform
    inv = np.max(np.abs(product - np.eye(spec.n))) / max(1.0, np.max(np.abs(product)))
    return float(sim), float(inv)


class TestMatrixSpec:
    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            MatrixSpec(n=2, a=1, b=1)

    def test_rejects_zero_bands(self):
        with pytest.raises(ValueError, match="nonzero"):
            MatrixSpec(n=4, a=0, b=1)
        with pytest.raises(ValueError, match="nonzero"):
            MatrixSpec(n=4, a=1, b=0)

    def test_rejects_non_finite_bands(self):
        with pytest.raises(ValueError):
            MatrixSpec(n=4, a=float("inf"), b=1)


class TestDerivedScalars:
    def test_roots_square_back(self):
        for a, b in band_pairs(count=10):
            spec = MatrixSpec(n=4, a=a, b=b)
            derived = DerivedScalars.from_spec(spec)
            assert derived.sqrt_ab**2 == pytest.approx(a * b, rel=1e-14)
            assert derived.sqrt_alpha**2 == pytest.approx(derived.alpha, rel=1e-14)

    def test_sqrt_ab_is_principal(self):
        for a, b in band_pairs(count=10):
            root = DerivedScalars.from_spec(MatrixSpec(n=4, a=a, b=b)).sqrt_ab
            assert root.real > 0 or (root.real == 0 and root.imag >= 0)

    def test_roots_are_coherent(self):
        # a * sqrt_alpha must reproduce sqrt_ab exactly; the transforms
        # pair columns with the wrong eigenvalue otherwise
        for a, b in band_pairs(count=10) + [(-1 + 0j, 1j), (1j, -2 + 0j)]:
            spec = MatrixSpec(n=4, a=a, b=b)
            for flip in (False, True):
                derived = DerivedScalars.from_spec(spec, branch_flip=flip)
                assert spec.a * derived.sqrt_alpha == pytest.approx(
                    derived.sqrt_ab, rel=1e-14
                )

    def test_branch_flip_negates_both(self):
        spec = MatrixSpec(n=4, a=1 + 2j, b=0.5 - 1j)
        plain = DerivedScalars.from_spec(spec)
        flipped = DerivedScalars.from_spec(spec, branch_flip=True)
        assert flipped.sqrt_ab == -plain.sqrt_ab
        assert flipped.sqrt_alpha == -plain.sqrt_alpha


class TestEigenvalues:
    def test_even_unit_bands(self):
        assert_allclose(_eigenvalues(MatrixSpec(n=4, a=1, b=1))[0::2], [1, -1], atol=1e-15)

    def test_even_example_values(self):
        values = _eigenvalues(MatrixSpec(n=6, a=2, b=1 + 1j))[0::2]
        root = cmath.sqrt(4 + 4j)
        assert_allclose(values, [root, 0, -root], atol=1e-14)

    def test_even_n8_cosines(self):
        values = _eigenvalues(MatrixSpec(n=8, a=1, b=1))[0::2]
        expected = [2 * math.cos(k * math.pi / 5) for k in range(1, 5)]
        assert_allclose(values, expected, atol=1e-14)
        # cross-check against the dense determinant: each value is a root
        spec = MatrixSpec(n=8, a=1, b=1)
        reference = abs(determinant(3.0 * np.eye(8) - build_dense(spec)))
        for value in values:
            shifted = value * np.eye(8) - build_dense(spec)
            assert abs(determinant(shifted)) <= 1e-6 * reference

    def test_odd_unit_bands(self):
        assert_allclose(
            _eigenvalues(MatrixSpec(n=5, a=1, b=1)),
            [math.sqrt(2), 1, 0, -1, -math.sqrt(2)],
            atol=1e-14,
        )
        assert_allclose(_eigenvalues(MatrixSpec(n=3, a=1, b=1)), [1, 0, -1], atol=1e-14)

    def test_odd_leading_value(self):
        spec = MatrixSpec(n=7, a=3, b=2)
        values = _eigenvalues(spec)
        assert values[0] == pytest.approx(2 * math.sqrt(6) * math.cos(math.pi / 5), rel=1e-14)
        shifted = values[0] * np.eye(7) - build_dense(spec)
        reference = abs(determinant(3 * math.sqrt(6) * np.eye(7) - build_dense(spec)))
        assert abs(determinant(shifted)) <= 1e-6 * reference

    def test_even_spectrum_negation_symmetric(self):
        for a, b in band_pairs():
            for n in (4, 6, 8, 10, 12):
                spec = MatrixSpec(n=n, a=a, b=b)
                values = _eigenvalues(spec)[0::2]
                scale = abs(2 * DerivedScalars.from_spec(spec).sqrt_ab)
                order = np.lexsort((values.imag, values.real))
                mirrored = np.lexsort(((-values).imag, (-values).real))
                assert_allclose(
                    values[order], -values[mirrored], atol=1e-12 * scale, rtol=0
                )


class TestNodes:
    @pytest.mark.parametrize("m", [*range(1, 65), 511, 512])
    def test_nodes_mirror_exactly_about_an_exact_middle_zero(self, m):
        nodes = _even_nodes(2 * m)
        assert len(nodes) == m
        assert np.array_equal(nodes, -nodes[::-1])
        if m % 2:
            middle = nodes[m // 2]
            assert middle == 0.0 and math.copysign(1.0, middle) > 0
        k = np.arange(1, m // 2 + 1)
        assert np.array_equal(nodes[: m // 2], np.cos(2.0 * k * np.pi / (2 * m + 2)))


class TestTransforms:
    def test_even_first_column_unit_bands(self):
        decomposition = transform(MatrixSpec(n=4, a=1, b=1))
        assert_allclose(decomposition.transform[:, 0], [1, 0, 1, 0], atol=1e-15)

    def test_odd_middle_column_unit_bands(self):
        decomposition = transform(MatrixSpec(n=5, a=1, b=1))
        assert_allclose(decomposition.transform[:, 2], [1, 0, 0, 0, -1], atol=1e-15)

    def test_even_example_eigenvalue_order(self):
        decomposition = transform(MatrixSpec(n=6, a=2, b=1 + 1j))
        root = cmath.sqrt(4 + 4j)
        assert_allclose(
            decomposition.eigenvalues, [root, root, 0, 0, -root, -root], atol=1e-14
        )

    @pytest.mark.parametrize("n", range(3, 17))
    def test_residuals_across_band_sweep(self, n):
        for a, b in band_pairs():
            spec = MatrixSpec(n=n, a=a, b=b)
            sim, inv = _residuals(spec, transform(spec))
            assert sim <= 1e-9
            assert inv <= 1e-10

    @pytest.mark.parametrize("n", [4, 6, 7, 9, 12, 16])
    def test_flipped_branch_still_diagonalises(self, n):
        for a, b in band_pairs(count=3):
            spec = MatrixSpec(n=n, a=a, b=b)
            sim, inv = _residuals(spec, transform(spec, branch_flip=True))
            assert sim <= 1e-9
            assert inv <= 1e-10

    @pytest.mark.parametrize("n", [600, 601])
    def test_residuals_across_lane_blocks(self, n):
        # a size-300 lane is written as a 218-row block and an 82-row block
        spec = MatrixSpec(n=n, a=1.25 * cmath.exp(0.4j), b=1.25 * cmath.exp(-1.1j))
        sim, inv = _residuals(spec, transform(spec))
        assert sim <= 1e-11
        assert inv <= 1e-11

    def test_decomposition_arrays_are_frozen(self):
        decomposition = transform(MatrixSpec(n=4, a=1, b=1))
        with pytest.raises(ValueError):
            decomposition.transform[0, 0] = 5


class TestLaneAssembly:
    @staticmethod
    def _recording(calls, refuse=None):
        def lane(m):
            calls.append(("plan", m))
            if m == refuse:
                raise OverflowError(f"lane of size {m} refused")
            return lambda s: calls.append(("rows", m)) or np.full((s.stop - s.start, m), m)
        return lane

    def test_every_lane_is_planned_before_any_is_filled(self):
        calls = []
        out = _by_lanes(7, self._recording(calls))
        assert calls == [("plan", 4), ("plan", 3), ("rows", 4), ("rows", 3)]
        assert np.all(out[0::2, 0::2] == 4) and np.all(out[1::2, 1::2] == 3)

    def test_an_even_order_plans_its_shared_lane_once(self):
        calls = []
        out = _by_lanes(6, self._recording(calls))
        assert calls == [("plan", 3), ("rows", 3)]
        assert np.all(out[0::2, 0::2] == 3) and np.all(out[1::2, 1::2] == 3)

    def test_a_refused_lane_leaves_every_lane_unfilled(self):
        calls = []
        with pytest.raises(OverflowError, match="size 3"):
            _by_lanes(7, self._recording(calls, refuse=3))
        assert calls == [("plan", 4), ("plan", 3)]
