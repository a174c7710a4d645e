import cmath
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pentapower import (
    DerivedScalars,
    MatrixSpec,
    PowerRequest,
    build_dense,
    determinant,
    power_matrix,
    power_via_spectral,
    spectrum,
    transform,
)
from pentapower.oracle import band_pairs
from pentapower.power import power_lanes
from pentapower.spectrum import _by_lanes, _eigenvalues, _even_nodes, _lane_size


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

    def test_rejects_a_non_integer_order(self):
        with pytest.raises(TypeError):
            MatrixSpec(n=4.5, a=1, b=1)
        assert MatrixSpec(n=np.int64(5), a=1, b=1).n == 5


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
        for matrix in (True, False):
            calls = []
            with pytest.raises(OverflowError, match="size 3"):
                _by_lanes(7, self._recording(calls, refuse=3), matrix=matrix)
            assert calls == [("plan", 4), ("plan", 3)]

    @pytest.mark.parametrize("n", [513, 724])
    def test_two_blocks_are_filled_by_the_calling_thread(self, monkeypatch, n):
        # the larger lane (m = 257 or 362) takes two blocks alone: a second thread would not pay
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 8)
        threads = []
        out = _by_lanes(n, lambda m: lambda s: threads.append(threading.current_thread()) or np.ones((s.stop - s.start, m)))
        assert threads == [threading.main_thread()] * (2 + n % 2)  # n = 513's lane 1 (m = 256) is one block
        assert np.count_nonzero(out) == _lane_size(n, 0) ** 2 + _lane_size(n, 1) ** 2

    # the larger lane takes three blocks or more alone (m >= 363), so the blocks are shared from n = 725
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("n", [726, 1025, 2048])
    def test_shared_blocks_are_planned_first_and_written_once(self, monkeypatch, n, workers):
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: workers)
        calls = []

        def lane(m):
            calls.append(("plan", m))

            def rows(s):
                calls.append(("rows", m, s.start, s.stop, threading.get_ident()))
                return np.full((s.stop - s.start, m), m + 1j * np.arange(s.start, s.stop)[:, None])

            return rows

        for matrix in (True, False):
            calls.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # threads hand over the interpreter as often as they can
            try:
                out = _by_lanes(n, lane, matrix=matrix)
            finally:
                sys.setswitchinterval(interval)
            threads = {call[-1] for call in calls if call[0] == "rows"}
            assert 1 < len(threads) <= workers
            steps = [call[:-1] if call[0] == "rows" else call for call in calls]
            sizes = sorted({_lane_size(n, 0), _lane_size(n, 1)}, reverse=True)
            assert steps[: len(sizes)] == [("plan", m) for m in sizes]
            assert all(call[0] == "rows" for call in steps[len(sizes) :])
            for m in sizes:
                blocks = sorted(call[2:] for call in steps if call[:2] == ("rows", m))
                assert len(blocks) > 1
                assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
                assert blocks[-1][1] == m
                # the blocks that all threads hold at once add up to no more than one 2**16-entry block
                assert max(stop - start for start, stop in blocks) * m * len(threads) <= 2**16
            lanes = [out[idx::2, idx::2] for idx in (0, 1)] if matrix else out
            for idx in (0, 1):
                m = _lane_size(n, idx)
                assert np.array_equal(lanes[idx], m + 1j * np.arange(m)[:, None] + np.zeros(m))
            if matrix:
                assert np.all(out[0::2, 1::2] == 0) and np.all(out[1::2, 0::2] == 0)
            else:
                assert (out[0] is out[1]) == (n % 2 == 0)

    def test_an_error_in_a_worker_reaches_the_caller_after_every_join(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 4)
        before, raised, done = set(threading.enumerate()), threading.Event(), []

        def lane(m):
            step = spectrum._block_rows(m, 4)  # 16 rows: 64 blocks, the second one a worker's first

            def rows(s):
                if s.start == step:
                    raised.set()
                    raise ZeroDivisionError("the second block")
                if threading.current_thread() is threading.main_thread():
                    assert raised.wait(timeout=10)  # the caller's share ends after the error
                else:
                    time.sleep(0.005)  # while the other workers still run
                    done.append(s.start)
                return np.zeros((s.stop - s.start, m))

            return rows

        with pytest.raises(ZeroDivisionError, match="the second block"):
            _by_lanes(2048, lane)
        assert set(threading.enumerate()) == before
        assert len(done) == 32  # the two workers that did not fail ran their shares to the end

    @pytest.mark.parametrize("workers", [2, 8])
    def test_workers_keep_the_callers_errstate(self, monkeypatch, workers):
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: workers)
        seen = []

        def lane(m):
            def rows(s):
                in_worker = threading.current_thread() is not threading.main_thread()
                seen.append(in_worker)
                values = np.full((s.stop - s.start, m), 1e308)
                return values * 10 if in_worker else values  # overflows in a worker only
            return rows

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                _by_lanes(1024, lane)
        assert True in seen
        seen.clear()
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            out = _by_lanes(1024, lane)
        assert True in seen and False in seen
        assert np.isinf(out).any()

    @pytest.mark.parametrize("n", [513, 514, 1023, 1024, 1025, 2047, 2048])
    def test_every_route_gives_the_same_bits_on_any_worker_count(self, monkeypatch, n):
        def bits(call, workers):
            monkeypatch.setattr(spectrum, "_usable_cpus", lambda: workers)
            try:
                return call().view(np.uint64)
            except ArithmeticError as exc:
                return repr(exc)

        calls = []
        for a, b in [(0.5, 0.5j), (1.25 * cmath.exp(0.4j), 1.25 * cmath.exp(-1.1j)), (1, 0.25)]:
            spec = MatrixSpec(n=n, a=a, b=b)
            # the spectral route's lanes, one after the other
            spectral = lambda req: np.concatenate([lane.ravel() for lane in power_via_spectral(req)])
            lanes = lambda req: np.concatenate([lane.ravel() for lane in power_lanes(req)])
            routes = [power_matrix, spectral] if n <= 1025 else [power_matrix]
            routes += [lanes] if n >= 1024 else []
            calls += [lambda f=f, spec=spec, r=r: f(PowerRequest(spec=spec, r=r)) for f in routes for r in (1, 2, 10, 10**6)]
            if n <= 1025:
                calls.append(lambda spec=spec: (lambda d: np.stack((d.transform, d.inverse_transform)))(transform(spec)))
        filled = 0
        for call in calls:
            reference = bits(call, 1)
            filled += isinstance(reference, np.ndarray)
            for workers in (2, 8):
                other = bits(call, workers)
                assert type(other) is type(reference) and np.array_equal(other, reference)
        assert filled >= len(calls) // 2

    @pytest.mark.parametrize("n", [2048, 2047])
    def test_eight_workers_hold_one_block_beside_the_result(self, monkeypatch, n):
        # eight 1 MiB blocks in flight would not fit in 4 MiB: the workers share one block's budget
        monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 8)
        tracemalloc.start()
        try:
            result = power_matrix(PowerRequest(spec=MatrixSpec(n=n, a=0.5, b=0.5j), r=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - result.nbytes <= 4 * 2**20
