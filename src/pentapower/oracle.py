"""Brute-force dense reference computations.

Deliberately simple: dense complex arrays; repeated squaring for powers and
LU with partial pivoting for determinants, each kept to the input's non-zero
blocks (filled from A's band entries; equal ones multiplied once) or diagonals.
Nothing in here knows about eigenvalues or closed forms, which makes these
routines a fair referee for the fast paths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .chebyshev import ipow
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
    passed compares it with compare's rel_tol, and a non-finite modulus fails.
    """

    max_abs_deviation: float
    max_rel_deviation: float
    passed: bool


def band_pairs(seed: int = 20240811, count: int = 5) -> list[tuple[complex, complex]]:
    """Random complex (a, b) pairs with moduli in [0.5, 2], fixed seed."""
    # draws modulus, phase, modulus, phase, ... in that order, pair by pair
    draws = np.random.default_rng(seed).uniform([0.5, 0.0], [2.0, 2.0 * np.pi], (count, 2, 2))
    return [(complex(a), complex(b)) for a, b in draws[..., 0] * np.exp(1j * draws[..., 1])]


def _entries(spec: MatrixSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A's non-zero entries as 0-based rows, columns and values: a at (i, i + 2), b at (i + 2, i)."""
    idx = np.arange(spec.n - 2)
    return np.concatenate((idx, idx + 2)), np.concatenate((idx + 2, idx)), np.repeat([spec.a, spec.b], spec.n - 2)


def build_dense(spec: MatrixSpec) -> np.ndarray:
    """Dense n x n matrix with a on the +2 band and b on the -2 band."""
    out = np.zeros((spec.n, spec.n), dtype=complex)
    rows, columns, values = _entries(spec)
    out[rows, columns] = values
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
    """A**r by repeated squaring on the blocks of index classes mod 4; r = 0 gives identity.

    Block [c, d] is the q x q matrix of rows c::4 and columns d::4, q = ceil(n/4), zero past order n.
    The blocks that hold A's band entries are filled from them, and only they are multiplied, by mat_mul,
    in row-major [c, d] order; blocks found equal are held as one array, whose products are made once.
    A power of A has one block per block row, so a product of two costs four (n/4)**3 block products,
    not one n**3: two for even n, whose lanes are equal. The power's blocks are written into a zero result.
    """
    r = operator.index(r)
    if r < 0:
        raise ValueError(f"exponent must be >= 0, got {r}")
    if r == 0:
        return np.eye(spec.n, dtype=complex)
    # made before the block products: made after them, it lands on the heap's top, which glibc trims once the
    # caller frees it, so the next call faults its pages in again (verify_grid: about 70,000 faults per pass)
    out = np.zeros((spec.n, spec.n), dtype=complex)
    rows, columns, values = _entries(spec)
    classes, q = rows % 4 * 4 + columns % 4, -(-spec.n // 4)
    base = {}
    for key in np.flatnonzero(np.bincount(classes)).tolist():  # row-major [c, d]; np.unique imports numpy.ma
        mine = classes == key
        block = np.zeros((q, q), dtype=complex)  # contiguous, so @ does not copy it on every multiply
        block[rows[mine] // 4, columns[mine] // 4] = values[mine]
        base[divmod(key, 4)] = next((held for held in base.values() if np.array_equal(held, block)), block)
    result = base
    for bit in bin(r)[3:]:  # the bits of r after the leading 1, high to low
        result = _block_product(result, result)
        if bit == "1":
            result = _block_product(result, base)
    for (c, d), block in result.items():  # block rows and columns past order n are dropped
        out[c::4, d::4] = block[: (spec.n - c + 3) // 4, : (spec.n - d + 3) // 4]
    return out


def _block_product(lhs: dict, rhs: dict) -> dict:
    # block [c, e] of the product sums lhs[c, d] @ rhs[d, e] over the d that both sides hold; the operands
    # live through the call, so their ids name each distinct pair: multiplied once, never updated in place
    out, products = {}, {}
    for (c, d), left in lhs.items():
        for (inner, e), right in rhs.items():
            if inner == d:
                if (key := (id(left), id(right))) not in products:
                    products[key] = mat_mul(left, right) + 0  # + 0 turns -0.0 (zero times a negative) into 0.0
                out[c, e] = out[c, e] + products[key] if (c, e) in out else products[key]
    return out


def determinant(matrix: np.ndarray) -> complex:
    """LU with partial pivoting on modulus; the zero main diagonal of the
    band matrices makes unpivoted elimination fail immediately.

    The pivot search and the row update are kept to the band of the input's
    non-zero diagonals, widened by pivoting as in band Gaussian elimination
    (Golub & Van Loan, Matrix Computations, 4.3): only exact zeros are
    skipped, and a dense input runs over the whole trailing block.
    """
    work = np.array(matrix, dtype=complex)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise ValueError(f"matrix is not square: shape {work.shape}")
    n = work.shape[0]
    rows, cols = np.nonzero(work)
    below, above = int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))
    det = 1 + 0j
    for col in range(n):
        last, right = min(n, col + below + 1), min(n, col + below + above + 1)
        pivot_row = col + int(np.argmax(np.abs(work[col:last, col])))
        pivot = work[pivot_row, col]
        if pivot == 0:
            return 0j
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            det = -det
        det *= pivot
        factors = work[col + 1 : last, col] / pivot
        work[col + 1 : last, col:right] -= np.outer(factors, work[col, col:right])
    return det


def _determinant_corollary(
    t: int, x, rel_tol: float
) -> tuple[VerificationReport, complex, complex]:
    """The corollary report with the LU determinant and the closed form it compared."""
    t = operator.index(t)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    n = 4 * t
    spec = MatrixSpec(n=n, a=complex(x), b=1j)
    lu_value = determinant(build_dense(spec))
    formula_value = ipow(1j * complex(x), n // 2)
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
    max_abs = float(np.max(np.abs(candidate - reference)))
    scale = float(np.max(np.abs(reference)))
    return VerificationReport(
        max_abs_deviation=max_abs,
        max_rel_deviation=max_abs / scale if scale else (0.0 if max_abs == 0 else np.inf),
        passed=bool(np.isfinite(scale) and max_abs <= rel_tol * scale),
    )
