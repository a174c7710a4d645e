"""Brute-force dense reference computations.

Deliberately simple: dense complex arrays, repeated squaring for powers,
textbook LU with partial pivoting for determinants. Nothing in here knows
about eigenvalues or closed forms, which makes these routines a fair
referee for the fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import fibonacci_poly, ipow
from .spectrum import MatrixSpec

__all__ = [
    "VerificationReport",
    "band_pairs",
    "build_dense",
    "mat_mul",
    "naive_power",
    "determinant",
    "determinant_corollary_check",
    "compare",
]


@dataclass(frozen=True)
class VerificationReport:
    """Elementwise deviation summary between a candidate and a reference.

    max_rel_deviation is max_abs_deviation over the largest reference modulus
    (0 or inf for an all-zero reference, which only an exact match passes);
    passed compares it with tolerance_used, and a non-finite modulus fails.
    worst_index is 0-based (row, column).
    """

    max_abs_deviation: float
    max_rel_deviation: float
    worst_index: tuple[int, int]
    passed: bool
    tolerance_used: float


def band_pairs(seed: int = 20240811, count: int = 5) -> list[tuple[complex, complex]]:
    """Random complex (a, b) pairs with moduli in [0.5, 2], fixed seed."""
    # draws modulus, phase, modulus, phase, ... in that order, pair by pair
    draws = np.random.default_rng(seed).uniform([0.5, 0.0], [2.0, 2.0 * np.pi], (count, 2, 2))
    return [(complex(a), complex(b)) for a, b in draws[..., 0] * np.exp(1j * draws[..., 1])]


def build_dense(spec: MatrixSpec) -> np.ndarray:
    """Dense n x n matrix with a on the +2 band and b on the -2 band."""
    n = spec.n
    out = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 2)
    out[idx, idx + 2] = spec.a
    out[idx + 2, idx] = spec.b
    return out


def mat_mul(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    if lhs.ndim != 2 or lhs.shape[0] != lhs.shape[1]:
        raise ValueError(f"left operand is not square: shape {lhs.shape}")
    if lhs.shape != rhs.shape:
        raise ValueError(f"order mismatch: {lhs.shape} vs {rhs.shape}")
    return lhs @ rhs


def naive_power(spec: MatrixSpec, r: int) -> np.ndarray:
    """A**r by repeated squaring of the dense matrix; r = 0 gives identity."""
    r = int(r)
    if r < 0:
        raise ValueError(f"exponent must be >= 0, got {r}")
    result = np.eye(spec.n, dtype=complex)
    base = build_dense(spec)
    while r:
        if r & 1:
            result = mat_mul(result, base)
        r >>= 1
        if r:
            base = mat_mul(base, base)
    return result


def determinant(matrix: np.ndarray) -> complex:
    """LU with partial pivoting on modulus; the zero main diagonal of the
    band matrices makes unpivoted elimination fail immediately.
    """
    work = np.array(matrix, dtype=complex)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"matrix is not square: shape {work.shape}")
    n = work.shape[0]
    det = 1 + 0j
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        pivot = work[pivot_row, col]
        if pivot == 0:
            return 0j
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            det = -det
        det *= pivot
        if col + 1 < n:
            factors = work[col + 1 :, col] / pivot
            work[col + 1 :, col:] -= np.outer(factors, work[col, col:])
    return det


def _determinant_corollary(
    t: int, x, rel_tol: float
) -> tuple[VerificationReport, complex, complex]:
    """The corollary report with the LU determinant and the closed form it compared."""
    t = int(t)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    n = 4 * t
    spec = MatrixSpec(n=n, a=complex(x), b=1j)
    lu_value = determinant(build_dense(spec))
    formula_value = ipow(1j * fibonacci_poly(2, x), n // 2)
    return compare([[lu_value]], [[formula_value]], rel_tol), lu_value, formula_value


def determinant_corollary_check(t: int, x, rel_tol: float = 1e-9) -> VerificationReport:
    """Compare the LU determinant of the order-4t matrix with a = x, b = i
    against the closed form (i*x)**(2t).
    """
    return _determinant_corollary(t, x, rel_tol)[0]


def compare(candidate: np.ndarray, reference: np.ndarray, rel_tol: float) -> VerificationReport:
    """Elementwise comparison, pass iff max deviation <= rel_tol * largest reference modulus < inf."""
    candidate = np.asarray(candidate, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if candidate.shape != reference.shape:
        raise ValueError(f"order mismatch: {candidate.shape} vs {reference.shape}")
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    deviation = np.abs(candidate - reference)
    worst_flat = int(np.argmax(deviation))
    worst_index = tuple(int(v) for v in np.unravel_index(worst_flat, deviation.shape))
    max_abs = float(deviation[worst_index])
    scale = float(np.max(np.abs(reference)))
    return VerificationReport(
        max_abs_deviation=max_abs,
        max_rel_deviation=max_abs / scale if scale else (0.0 if max_abs == 0 else np.inf),
        worst_index=worst_index,
        passed=bool(np.isfinite(scale) and max_abs <= rel_tol * scale),
        tolerance_used=rel_tol,
    )
