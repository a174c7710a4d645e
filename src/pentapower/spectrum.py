"""Eigenvalues and diagonalising transforms for the two-band Toeplitz family.

The matrices treated here have a single constant band at offset +2 (value a)
and one at offset -2 (value b); everything else, including the main
diagonal, is zero. Entries at odd and even index positions never mix, so
each matrix splits into two interleaved "lanes" and every n x n object is
assembled lane by lane, in row blocks, by _by_lanes.

All eigenvalues have the form 2*sqrt(ab)*cos(angle) where the angles are
fixed rational multiples of pi. The normalised nodes cos(angle) are real
regardless of a and b; the complex character of the problem lives entirely
in sqrt(ab) and in powers of sqrt(b/a).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .chebyshev import chebyshev_u_sequence

__all__ = [
    "MatrixSpec",
    "DerivedScalars",
    "SpectralDecomposition",
    "transform_even",
    "transform_odd",
]


@dataclass(frozen=True)
class MatrixSpec:
    """Order n plus the two band values: a at offset +2, b at offset -2."""

    n: int
    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 3:
            raise ValueError(f"matrix order must be >= 3, got {self.n}")
        for name in ("a", "b"):
            value = complex(getattr(self, name))
            object.__setattr__(self, name, value)
            if not cmath.isfinite(value):
                raise ValueError(f"band value {name} must be finite, got {value!r}")
            if value == 0:
                raise ValueError(f"band value {name} must be nonzero")

    @property
    def is_even(self) -> bool:
        return self.n % 2 == 0


def _principal_sqrt(a: complex, b: complex) -> complex:
    """Square root of a*b with Re >= 0, and Im >= 0 when the real part vanishes; from
    sqrt(a)*sqrt(b) where a*b itself would leave the double range or lose digits."""
    ab = a * b
    root = cmath.sqrt(ab) if 2.0**-1000 < abs(ab) < 2.0**1000 else cmath.sqrt(a) * cmath.sqrt(b)
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


@dataclass(frozen=True)
class DerivedScalars:
    """The square roots every formula shares.

    sqrt_alpha is tied to sqrt_ab by sqrt_alpha = sqrt_ab / a rather than
    taken as an independent principal root: the lane recurrences need
    a * sqrt_alpha == sqrt_ab exactly, otherwise transform columns pair
    with the negated eigenvalue for some complex (a, b). Negating both
    roots together (branch_flip) is the only other coherent choice.
    """

    sqrt_ab: complex
    alpha: complex
    sqrt_alpha: complex

    @classmethod
    def from_spec(cls, spec: MatrixSpec, branch_flip: bool = False) -> "DerivedScalars":
        sqrt_ab = _principal_sqrt(spec.a, spec.b)
        alpha = spec.b / spec.a
        sqrt_alpha = sqrt_ab / spec.a
        if branch_flip:
            sqrt_ab = -sqrt_ab
            sqrt_alpha = -sqrt_alpha
        return cls(sqrt_ab=sqrt_ab, alpha=alpha, sqrt_alpha=sqrt_alpha)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (with multiplicity, in construction order) and the
    transform pair satisfying A @ transform == transform @ diag(eigenvalues).
    """

    eigenvalues: np.ndarray
    transform: np.ndarray
    inverse_transform: np.ndarray

    def __post_init__(self):
        for array in (self.eigenvalues, self.transform, self.inverse_transform):
            array.setflags(write=False)


def _even_nodes(n: int) -> np.ndarray:
    # cos(2*k*pi/(n+2)) for k = 1..n/2; with n = 2m these are the nodes
    # cos(k*pi/(m+1)) of a size-m lane
    k = np.arange(1, n // 2 + 1)
    return np.cos(2.0 * k * np.pi / (n + 2))


def _index_nodes(n: int) -> np.ndarray:
    # in index order: the nodes of lane 0 at positions 1, 3, ..., those of lane 1 at 2, 4, ...
    nodes = np.empty(n)
    for lane in (0, 1):
        nodes[lane::2] = _even_nodes(2 * _lane_size(n, lane))
    return nodes


def _lane_size(n: int, lane: int) -> int:
    # lane 0 holds positions 1, 3, ...; lane 1 holds positions 2, 4, ...
    return (n + 1 - lane) // 2


def _block_rows(m: int) -> int:
    # about 2**16 complex entries (1 MiB): a block stays in cache while it is written to every lane
    return min(m, max(1, 2**16 // m))


def _by_lanes(n: int, lane) -> np.ndarray:
    """Zero n x n matrix whose size-m lanes take each block s of rows = lane(m) from one rows(s) call.
    Every lane(m) is called, lane 0's first, before the matrix is allocated and any block filled."""
    sizes = [_lane_size(n, idx) for idx in (0, 1)]
    plans = {m: lane(m) for m in dict.fromkeys(sizes)}  # an even order's lanes share one plan
    out = np.zeros((n, n), dtype=complex)
    for m, rows in plans.items():
        step, targets = _block_rows(m), [out[idx::2, idx::2] for idx in (0, 1) if sizes[idx] == m]
        for start in range(0, m, step):
            values = rows(block := slice(start, min(start + step, m)))
            for view in targets:
                view[block] = values
    return out


def _require_even(spec: MatrixSpec) -> None:
    if spec.n % 2 != 0:
        raise ValueError(f"matrix order must be even, got {spec.n}")


def _require_odd(spec: MatrixSpec) -> None:
    if spec.n % 2 != 1:
        raise ValueError(f"matrix order must be odd, got {spec.n}")


def _eigenvalues(spec: MatrixSpec, branch_flip: bool = False) -> np.ndarray:
    """All n eigenvalues in index order, with multiplicity: sqrt(ab) * (2 * node). Doubling
    the node is exact, and unlike doubling sqrt(ab) it cannot overflow before the node scales."""
    derived = DerivedScalars.from_spec(spec, branch_flip=branch_flip)
    return derived.sqrt_ab * (2.0 * _index_nodes(spec.n))


def _int_powers(base: complex, count: int) -> np.ndarray:
    """[base**0, base**1, ..., base**(count-1)] by repeated multiplication."""
    out = np.empty(count, dtype=complex)
    acc = 1 + 0j
    for idx in range(count):
        out[idx] = acc
        acc *= base
    return out


def _lane_tables(m: int, count: int, derived: DerivedScalars):
    """The first count (possibly 0) nodes cos(k*pi/(m+1)) of a size-m lane and their tables.

    Returns (nodes, weights, columns, inverse_rows): columns[p, k] is the
    transform lane, inverse_rows[k, q] the inverse lane before the weight
    2*(1 - node**2)/(m + 1) of node k.
    """
    nodes = _even_nodes(2 * m)[:count]
    weights = 2.0 * (1.0 - nodes**2) / (m + 1)
    cheb = np.array(
        [chebyshev_u_sequence(m - 1, complex(x)) for x in nodes], dtype=complex
    ).reshape(count, m).T
    up = _int_powers(derived.sqrt_alpha, m)
    down = _int_powers(1 / derived.sqrt_alpha, m)
    return nodes, weights, up[:, None] * cheb, down[None, :] * cheb.T


def _transform(spec: MatrixSpec, branch_flip: bool) -> SpectralDecomposition:
    """Column and eigenvalue lane + 2(k-1) carry the k-th node of a size-m lane;
    its inverse rows carry the weights 2*(1 - node**2)/(m + 1)."""
    derived = DerivedScalars.from_spec(spec, branch_flip=branch_flip)
    tables = {m: _lane_tables(m, m, derived) for m in {_lane_size(spec.n, 0), _lane_size(spec.n, 1)}}
    return SpectralDecomposition(
        eigenvalues=_eigenvalues(spec, branch_flip),
        transform=_by_lanes(spec.n, lambda m: tables[m][2].__getitem__),
        inverse_transform=_by_lanes(spec.n, lambda m: (tables[m][1][:, None] * tables[m][3]).__getitem__),
    )


def transform_even(spec: MatrixSpec, *, branch_flip: bool = False) -> SpectralDecomposition:
    """Diagonalising pair for even order.

    Column 2k-1 carries the odd lane and column 2k the even lane for the
    k-th eigenvalue, both lanes sharing the same Chebyshev profile. The
    inverse rows carry the weights (4 - 4*node**2)/(n + 2).
    """
    _require_even(spec)
    return _transform(spec, branch_flip)


def transform_odd(spec: MatrixSpec, *, branch_flip: bool = False) -> SpectralDecomposition:
    """Diagonalising pair for odd order.

    The odd lane has (n+1)/2 positions and uses the odd-indexed
    eigenvalues; the even lane has (n-1)/2 positions and the even-indexed
    ones. Weights divide by n+3 on the odd lane and n+1 on the even lane.
    """
    _require_odd(spec)
    return _transform(spec, branch_flip)
