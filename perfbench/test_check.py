"""Self-test of the benchmark's checker: it must count broken results as failures.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_check.py

At n = 256, r = 10**6, a = 0.5, b = 0.5i the largest entry of A**r is about
4.9e-131, so ``oracle.compare`` with its max(1, scale) floor passes an
all-zero matrix; ``check.check_matrix`` must not.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from pentapower import MatrixSpec, PowerRequest, compare, naive_power, power_matrix  # noqa: E402


@pytest.fixture(scope="module")
def tiny_case():
    spec = MatrixSpec(n=256, a=0.5, b=0.5j)
    r = 10**6
    return power_matrix(PowerRequest(spec=spec, r=r)), naive_power(spec, r)


def test_entries_are_tiny_and_the_floor_hides_a_zeroed_matrix(tiny_case):
    _, reference = tiny_case
    assert np.abs(reference).max() < 1e-129
    assert compare(np.zeros_like(reference), reference, 1e-8).passed


def test_true_result_passes(tiny_case):
    result, reference = tiny_case
    assert check.check_matrix(result, reference).passed


@pytest.mark.parametrize(
    "broken",
    [np.zeros_like, lambda m: np.full_like(m, np.nan), np.transpose],
    ids=["zeroed", "nan", "transposed"],
)
def test_broken_results_fail(tiny_case, broken):
    result, reference = tiny_case
    assert not check.check_matrix(broken(result), reference).passed


def test_refusal_passes_only_where_the_reference_is_not_finite(tiny_case):
    result, reference = tiny_case
    overflowed = np.full_like(reference, np.inf)
    assert check.check_matrix(None, overflowed).passed
    assert not check.check_matrix(result, overflowed).passed
    assert not check.check_matrix(None, reference).passed


@pytest.mark.parametrize("n", [9, 10])
def test_band_identities_hold_and_catch_a_zeroed_result(n):
    a, b, r = 1.5, -0.5j, 12
    spec = MatrixSpec(n=n, a=a, b=b)
    exact = naive_power(spec, r)
    assert check.check_matrix(check.banded_power(n, a, b, r), exact).passed
    assert check.check_matrix(check.band_apply(a, b, exact), naive_power(spec, r + 1)).passed
    assert check.check_support(exact, r).passed
    assert not check.check_support(np.zeros_like(exact), r).passed
    assert np.array_equal(check.support(n, 1), np.abs(check.band_apply(a, b, np.eye(n))) > 0)
