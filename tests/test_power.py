import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pentapower import (
    MatrixSpec,
    PowerRequest,
    mat_mul,
    naive_power,
    power_entry_even,
    power_entry_odd,
    power_matrix,
    power_via_spectral,
)
from pentapower.oracle import band_pairs
from pentapower.power import _MODES_FROM
from pentapower.spectrum import _even_nodes, _lane_size, _odd_nodes


def _request(n, a, b, r, flip=False):
    return PowerRequest(spec=MatrixSpec(n=n, a=a, b=b), r=r, branch_flip=flip)


class TestEntryFormulas:
    def test_even_diagonal_instance(self):
        # order 4 squares to (a*b) I, so the 6th power is (a*b)^3 I
        spec = MatrixSpec(n=4, a=2, b=3)
        assert power_entry_even(spec, 6, 1, 1) == pytest.approx(216)

    def test_even_printed_entry(self):
        spec = MatrixSpec(n=6, a=2, b=1 + 1j)
        assert power_entry_even(spec, 6, 1, 5) == pytest.approx(128j)

    def test_even_opposite_parity_is_exact_zero(self):
        spec = MatrixSpec(n=4, a=1.5 + 0.5j, b=-2j)
        assert power_entry_even(spec, 3, 1, 2) == 0

    def test_odd_printed_entry(self):
        spec = MatrixSpec(n=7, a=3, b=2)
        assert power_entry_odd(spec, 5, 1, 3) == pytest.approx(540)

    def test_odd_diagonal_instance(self):
        # order-5 symbolic instance: entry (3,3) of the 4th power is 4 a^2 b^2
        spec = MatrixSpec(n=5, a=2, b=3)
        assert power_entry_odd(spec, 4, 3, 3) == pytest.approx(144)

    def test_odd_opposite_parity_is_exact_zero(self):
        spec = MatrixSpec(n=5, a=1j, b=2)
        assert power_entry_odd(spec, 2, 2, 3) == 0

    def test_entries_match_oracle_matrix(self):
        for n, entry in ((8, power_entry_even), (9, power_entry_odd)):
            for a, b in band_pairs(count=2):
                spec = MatrixSpec(n=n, a=a, b=b)
                for r in (1, 4, 7):
                    reference = naive_power(spec, r)
                    scale = max(1.0, np.max(np.abs(reference)))
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            value = entry(spec, r, i, j)
                            assert abs(value - reference[i - 1, j - 1]) <= 1e-8 * scale

    def test_rejects_bad_arguments(self):
        spec_even = MatrixSpec(n=4, a=1, b=1)
        spec_odd = MatrixSpec(n=5, a=1, b=1)
        with pytest.raises(ValueError):
            power_entry_even(spec_odd, 2, 1, 1)
        with pytest.raises(ValueError):
            power_entry_odd(spec_even, 2, 1, 1)
        with pytest.raises(ValueError):
            power_entry_even(spec_even, 0, 1, 1)
        with pytest.raises(ValueError):
            power_entry_even(spec_even, 2, 0, 1)
        with pytest.raises(ValueError):
            power_entry_even(spec_even, 2, 1, 5)


def _assert_count_covers_lane(m, count):
    # the node sum keeps the first m // 2 nodes of a size-m lane and doubles each;
    # the rest are their negatives and, for odd m, one zero node
    nodes = _even_nodes(2 * m)
    assert count == m // 2
    assert np.all(nodes[:count] > 0)
    assert np.count_nonzero(np.abs(nodes) > 1e-12) == 2 * count
    assert_allclose(nodes[::-1][:count], -nodes[:count], atol=1e-15)


class TestTermCounts:
    @pytest.mark.parametrize("n", range(4, 41, 2))
    def test_even_counts_cover_nonzero_spectrum(self, n):
        m = _lane_size(n, 0)
        assert _lane_size(n, 1) == m
        count = m // 2
        assert count >= 1
        assert count <= n // 4 + 1
        _assert_count_covers_lane(m, count)

    @pytest.mark.parametrize("n", range(3, 42, 2))
    def test_odd_counts_are_exhaustively_consistent(self, n):
        # every same-parity (i, j) pair uses its lane's count; the count is
        # a non-negative integer and only the order-3 even lane is empty
        assert _lane_size(n, 0) + _lane_size(n, 1) == n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i + j) % 2:
                    continue
                m = _lane_size(n, 1 - i % 2)
                count = m // 2
                assert count >= 0
                assert count <= n // 4 + 1
                if n >= 5:
                    assert count >= 1
                _assert_count_covers_lane(m, count)
        nonzero = np.count_nonzero(np.abs(_odd_nodes(n)) > 1e-12)
        assert nonzero == 2 * (_lane_size(n, 0) // 2 + _lane_size(n, 1) // 2)
        assert _lane_size(3, 1) // 2 == 0


class TestPowerMatrix:
    def test_r_zero_is_identity(self):
        result = power_matrix(_request(5, 1, 1, 0))
        assert np.array_equal(result, np.eye(5, dtype=complex))

    def test_even_band_power(self):
        # order 4, 7th power: a^4 b^3 on the +2 band, a^3 b^4 on the -2 band
        result = power_matrix(_request(4, 2, 3, 7))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[1, 3] = 432
        expected[2, 0] = expected[3, 1] = 648
        assert_allclose(result, expected, atol=1e-10)
        assert_allclose(result, naive_power(MatrixSpec(n=4, a=2, b=3), 7), atol=1e-10)

    def test_printed_six_by_six(self):
        result = power_matrix(_request(6, 2, 1 + 1j, 6))
        expected = np.array(
            [
                [-64 + 64j, 0, 0, 0, 128j, 0],
                [0, -64 + 64j, 0, 0, 0, 128j],
                [0, 0, -128 + 128j, 0, 0, 0],
                [0, 0, 0, -128 + 128j, 0, 0],
                [-64, 0, 0, 0, -64 + 64j, 0],
                [0, -64, 0, 0, 0, -64 + 64j],
            ],
            dtype=complex,
        )
        assert_allclose(result, expected, atol=1e-9)

    def test_matches_entry_formulas(self):
        for n in (6, 7):
            for a, b in band_pairs(count=2):
                spec = MatrixSpec(n=n, a=a, b=b)
                entry = power_entry_even if n % 2 == 0 else power_entry_odd
                for r in (1, 2, 5):
                    full = power_matrix(PowerRequest(spec=spec, r=r))
                    scale = max(1.0, np.max(np.abs(full)))
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            assert abs(full[i - 1, j - 1] - entry(spec, r, i, j)) <= 1e-12 * scale

    def test_oracle_equivalence_sweep(self):
        for n in range(3, 13):
            for a, b in band_pairs():
                spec = MatrixSpec(n=n, a=a, b=b)
                for r in range(1, 11):
                    closed = power_matrix(PowerRequest(spec=spec, r=r))
                    reference = naive_power(spec, r)
                    scale = max(1.0, np.max(np.abs(reference)))
                    assert np.max(np.abs(closed - reference)) <= 1e-8 * scale

    def test_zero_pattern_is_exact(self):
        for n in (4, 5, 6, 7):
            for a, b in band_pairs(count=2):
                for r in (1, 2, 3, 8):
                    result = power_matrix(_request(n, a, b, r))
                    for i in range(n):
                        for j in range(n):
                            if (i + j) % 2 == 1:
                                assert result[i, j] == 0

    def test_order_four_power_parity_pattern(self):
        # the square is (a*b) I, so even powers are diagonal and odd powers
        # pure band matrices; both routes must show exact zeros elsewhere
        spec = MatrixSpec(n=4, a=1 - 1j, b=0.75j)
        for r in range(1, 9):
            closed = power_matrix(PowerRequest(spec=spec, r=r))
            reference = naive_power(spec, r)
            on_band = (
                np.eye(4, dtype=bool)
                if r % 2 == 0
                else (np.eye(4, k=2, dtype=bool) | np.eye(4, k=-2, dtype=bool))
            )
            assert np.all(closed[~on_band] == 0)
            assert np.all(reference[~on_band] == 0)
            assert_allclose(closed, reference, atol=1e-10 * max(1.0, np.max(np.abs(reference))))

    def test_semigroup_property(self):
        for n in (4, 5, 6, 7):
            a, b = band_pairs(count=1)[0]
            spec = MatrixSpec(n=n, a=a, b=b)
            for r1, r2 in ((1, 1), (2, 3), (4, 4)):
                combined = power_matrix(PowerRequest(spec=spec, r=r1 + r2))
                product = mat_mul(
                    power_matrix(PowerRequest(spec=spec, r=r1)),
                    power_matrix(PowerRequest(spec=spec, r=r2)),
                )
                scale = max(1.0, np.max(np.abs(product)))
                assert np.max(np.abs(combined - product)) <= 1e-8 * scale

    def test_branch_flip_changes_nothing(self):
        for n in (4, 5, 7, 8):
            for a, b in band_pairs(count=3):
                spec = MatrixSpec(n=n, a=a, b=b)
                for r in (1, 3, 6):
                    plain = power_matrix(PowerRequest(spec=spec, r=r))
                    flipped = power_matrix(PowerRequest(spec=spec, r=r, branch_flip=True))
                    scale = max(1.0, np.max(np.abs(plain)))
                    assert np.max(np.abs(plain - flipped)) <= 1e-10 * scale

    def test_neighbouring_orders_share_a_lane(self):
        # orders 2k-1 (lane 0), 2k (both lanes) and 2k+1 (lane 1) all have
        # a size-k lane, which is the same tridiagonal matrix in each
        for a, b in band_pairs():
            for k in range(2, 9):
                for r in sorted({1, 2, 5, k, 2 * k}):
                    even = power_matrix(_request(2 * k, a, b, r))
                    lane = even[0::2, 0::2]
                    scale = np.max(np.abs(lane))
                    for other in (
                        even[1::2, 1::2],
                        power_matrix(_request(2 * k - 1, a, b, r))[0::2, 0::2],
                        power_matrix(_request(2 * k + 1, a, b, r))[1::2, 1::2],
                    ):
                        assert np.max(np.abs(other - lane)) <= 1e-12 * scale

    def test_request_validation(self):
        with pytest.raises(ValueError):
            _request(4, 1, 1, -1)


class TestSpectralRoute:
    def test_r_zero_is_identity(self):
        result = power_via_spectral(_request(5, 2, 3, 0))
        assert np.array_equal(result, np.eye(5, dtype=complex))

    def test_unit_band_square_is_identity(self):
        result = power_via_spectral(_request(4, 1, 1, 2))
        assert_allclose(result, np.eye(4), atol=1e-12)

    def test_odd_symbolic_instance(self):
        # order-5 entry (1,3) of the 5th power is 4 a^3 b^2
        result = power_via_spectral(_request(5, 2, 3, 5))
        assert result[0, 2] == pytest.approx(288, rel=1e-12)
        assert_allclose(result, naive_power(MatrixSpec(n=5, a=2, b=3), 5), atol=1e-9)

    def test_printed_seven_by_seven(self):
        result = power_via_spectral(_request(7, 3, 2, 5))
        assert_allclose(result, naive_power(MatrixSpec(n=7, a=3, b=2), 5), atol=1e-9)

    def test_agrees_with_closed_form(self):
        for n in range(3, 13):
            for a, b in band_pairs(count=3):
                spec = MatrixSpec(n=n, a=a, b=b)
                for r in (1, 5, 10):
                    closed = power_matrix(PowerRequest(spec=spec, r=r))
                    spectral = power_via_spectral(PowerRequest(spec=spec, r=r))
                    scale = max(1.0, np.max(np.abs(closed)))
                    assert np.max(np.abs(closed - spectral)) <= 1e-8 * scale

    def test_entries_read_the_same_lane_sum(self):
        for n, entry in ((8, power_entry_even), (9, power_entry_odd)):
            for a, b in band_pairs(count=2):
                spec = MatrixSpec(n=n, a=a, b=b)
                for r in (1, 4, 7):
                    spectral = power_via_spectral(PowerRequest(spec=spec, r=r))
                    for i in range(1, n + 1):
                        for j in range(1, n + 1):
                            assert entry(spec, r, i, j) == spectral[i - 1, j - 1]

    def test_odd_walk_parity_is_exact_zero(self):
        # entry (p, q) of a lane's r-th power needs r + p + q even: the node pairs cancel otherwise
        for n in (6, 7, 9):
            for a, b in band_pairs(count=2):
                for r in (1, 2, 3, 4):
                    result = power_via_spectral(_request(n, a, b, r))
                    i, j = np.indices((n, n))
                    assert np.all(result[((i + j) % 2 == 1) | ((i // 2 + j // 2 + r) % 2 == 1)] == 0)

    @pytest.mark.parametrize("n", [6, 7, 12])
    @pytest.mark.parametrize("band", [1e200, -1e200, 1e-200])
    def test_bands_whose_product_leaves_the_double_range(self, n, band):
        # a*b is inf or 0 as a double; sqrt(ab) comes from sqrt(a) * sqrt(b) instead
        closed = power_matrix(_request(n, band, band, 1))
        spectral = power_via_spectral(_request(n, band, band, 1))
        assert np.max(np.abs(spectral - closed)) <= 1e-12 * np.max(np.abs(closed))

    def test_unresolvable_sum_is_refused(self):
        # the sqrt(b/a)**(p-q) node sum missed this case by 1.2e28 of the scale
        with pytest.raises(FloatingPointError, match=r"rounding bound .* \(\|b/a\| = 4\)"):
            power_via_spectral(_request(300, 1, 4, 20))
        with pytest.raises(FloatingPointError):
            power_entry_even(MatrixSpec(n=300, a=1, b=4), 20, 1, 41)


def _deviation(n, a, b, r):
    """max |power_matrix - naive_power| over the oracle's largest modulus (no max(1, .) floor)."""
    spec = MatrixSpec(n=n, a=a, b=b)
    reference = naive_power(spec, r)
    scale = np.max(np.abs(reference))
    return np.max(np.abs(power_matrix(PowerRequest(spec=spec, r=r)) - reference)) / scale


# |b/a| = 4 and 1/4, and two complex pairs with |b/a| = sqrt(2) and 1/sqrt(2)
NON_NORMAL_BANDS = [
    (1, 4),
    (4, -1),
    (np.sqrt(2) * np.exp(0.7j), 2 * np.exp(-1.9j)),
    (2 * np.exp(2.1j), np.sqrt(2) * np.exp(0.4j)),
]


class TestNonNormalBands:
    @pytest.mark.parametrize("a,b", NON_NORMAL_BANDS)
    @pytest.mark.parametrize(
        "n,r",
        [(n, r) for n in (64, 128, 256) for r in (1, 3, 10, 50, n // 4, n // 2, n)] + [(512, 512)],
    )
    def test_sweep_matches_oracle_or_refuses(self, n, r, a, b):
        spec = MatrixSpec(n=n, a=a, b=b)
        with np.errstate(over="ignore", invalid="ignore"):
            reference = naive_power(spec, r)
        if not np.isfinite(reference).all():
            with pytest.raises(OverflowError, match="beyond the double range"):
                power_matrix(PowerRequest(spec=spec, r=r))
            return
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(power_matrix(PowerRequest(spec=spec, r=r)) - reference)) <= 1e-8 * scale

    @pytest.mark.parametrize(
        "n,a,b,r", [(64, 1, 4, 3), (256, 1, 4, 50), (512, 2, 1 + 1j, 10), (300, 1, 4, 20)]
    )
    def test_spectral_sum_failures_stay_fixed(self, n, a, b, r):
        # the sqrt(b/a)**(p-q) node sum missed these by 5e-8 up to 1e28 of the scale
        assert _deviation(n, a, b, r) <= 1e-12

    @pytest.mark.parametrize("a,b", [(0.25, 1), (1, 0.25j)])
    @pytest.mark.parametrize("r", [256, 510, 512, 514, 4096, 16384])
    def test_both_sides_of_the_count_crossover(self, a, b, r):
        # n = 128 has lanes of m = 64: r < m*m/8 = 512 folds binomials, r >= 512 sums modes
        m = 64
        assert (_MODES_FROM * r < m * m) == (r < 512)
        assert _deviation(128, a, b, r) <= 1e-9


class TestDoubleRange:
    def test_overflow_is_refused_with_its_magnitude(self):
        with pytest.raises(OverflowError, match=r"about 1e417, beyond the double range"):
            power_matrix(_request(8, 1, 1, 2000))

    def test_underflow_rounds_to_zero(self):
        # criterion 8's case: (2 * 0.5 * cos(pi/33))**1e6 is far below the smallest double
        result = power_matrix(_request(64, 0.5, 0.5, 10**6))
        assert np.array_equal(result, np.zeros((64, 64)))

    def test_exponent_beyond_int64(self):
        assert np.array_equal(power_matrix(_request(8, 0.5, 0.5, 10**20)), np.zeros((8, 8)))
        with pytest.raises(OverflowError):
            power_matrix(_request(8, 1, 1, 10**20))

    def test_counts_and_weights_too_spread_are_refused(self):
        # the entries that matter pair counts 2**-1100 below the largest one with weights
        # as far above the rest: one shared exponent cannot hold both, so no answer is given
        with pytest.raises(OverflowError, match="span more than"):
            power_matrix(_request(2400, 1, 0.01, 1169))

    @pytest.mark.parametrize("r", [1200, 5000])
    def test_scale_carried_outside_the_double_range(self, r):
        # the walk counts (about 2**r) overflow a double and the weights (2**-r) underflow
        # it, but their products stay near 1; n = 200 has lanes of m = 100, so r = 1200
        # folds binomials (1200 < 100*100/8) and r = 5000 sums modes
        assert _deviation(200, 0.5, 0.5j, r) <= 1e-10


_BAND = st.builds(
    lambda modulus, phase: complex(modulus * np.exp(1j * phase)),
    st.floats(0.5, 2.0),
    st.floats(0.0, 2 * np.pi),
)
_CASES = dict(n=st.integers(3, 512), a=_BAND, b=_BAND, r=st.integers(1, 40))


class TestIdentities:
    """O(n^2) checks that need no dense oracle, at orders it would take too long for."""

    @settings(max_examples=25, deadline=None)
    @given(**_CASES)
    def test_one_more_factor_shifts_and_scales_rows(self, n, a, b, r):
        power = power_matrix(_request(n, a, b, r))
        following = power_matrix(_request(n, a, b, r + 1))
        # row i of A @ P is a * P[i + 2] + b * P[i - 2]
        product = np.zeros_like(power)
        product[:-2] += a * power[2:]
        product[2:] += b * power[:-2]
        assert np.max(np.abs(product - following)) <= 1e-10 * np.max(np.abs(following))

    @settings(max_examples=25, deadline=None)
    @given(**_CASES)
    def test_transpose_swaps_the_bands(self, n, a, b, r):
        power = power_matrix(_request(n, a, b, r))
        swapped = power_matrix(_request(n, b, a, r))
        assert np.max(np.abs(power.T - swapped)) <= 1e-10 * np.max(np.abs(power))

    @settings(max_examples=25, deadline=None)
    @given(**_CASES)
    def test_zero_pattern_is_the_walk_support(self, n, a, b, r):
        # a walk of length r between lane positions (i - j) / 2 apart exists iff the lane
        # has two positions, |i - j| <= 2r and (i - j) / 2 has the parity of r
        i, j = np.indices((n, n))
        lane_size = (n + 1 - i % 2) // 2
        step = (i - j) // 2
        support = ((i - j) % 2 == 0) & (lane_size >= 2) & (abs(step) <= r) & ((step - r) % 2 == 0)
        assert np.array_equal(power_matrix(_request(n, a, b, r)) != 0, support)
