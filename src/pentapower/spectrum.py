"""Eigenvalues and diagonalising transforms for the two-band Toeplitz family.

The matrices treated here have a single constant band at offset +2 (value a)
and one at offset -2 (value b); everything else, including the main
diagonal, is zero. Entries at odd and even index positions never mix, so
each matrix splits into two interleaved "lanes", and every n x n object or
pair of lanes is assembled lane by lane, in row blocks, by _by_lanes.

All eigenvalues have the form 2*sqrt(ab)*cos(angle) where the angles are
fixed rational multiples of pi. The normalised nodes cos(angle) are real
regardless of a and b; the complex character of the problem lives entirely
in sqrt(ab) and in powers of sqrt(b/a).
"""

from __future__ import annotations

import cmath
import contextvars
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .chebyshev import chebyshev_u_sequence

__all__ = [
    "MatrixSpec",
    "DerivedScalars",
    "SpectralDecomposition",
    "transform",
]


@dataclass(frozen=True)
class MatrixSpec:
    """Order n plus the two band values: a at offset +2, b at offset -2."""

    n: int
    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
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
    # with n = 2m, the nodes cos(k*pi/(m+1)), k = 1..m, of a size-m lane: cos(2*k*pi/(n+2)) for
    # k <= m // 2, an exact 0 in the middle of an odd m, then the first half negated in reverse
    half = np.cos(2.0 * np.arange(1, n // 4 + 1) * np.pi / (n + 2))
    return np.concatenate((half, np.zeros(n // 2 % 2), -half[::-1]))


def _index_nodes(n: int) -> np.ndarray:
    # in index order: the nodes of lane 0 at positions 1, 3, ..., those of lane 1 at 2, 4, ...
    nodes = np.empty(n)
    for lane in (0, 1):
        nodes[lane::2] = _even_nodes(2 * _lane_size(n, lane))
    return nodes


def _lane_size(n: int, lane: int) -> int:
    # lane 0 holds positions 1, 3, ...; lane 1 holds positions 2, 4, ...
    return (n + 1 - lane) // 2


def _block_rows(m: int, workers: int = 1) -> int:
    # about 2**16 complex entries (1 MiB) across all workers: the blocks in flight stay in cache
    # while each is written to every lane
    return min(m, max(1, 2**16 // (m * workers)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on macOS or Windows
        return os.cpu_count() or 1


def _fill(tasks, errors: list) -> None:
    try:
        for rows, block, targets in tasks:
            values = rows(block)
            for view in targets:
                view[block] = values
            del values  # a worker holds one block at a time
    except Exception as exc:  # re-raised by the calling thread once every worker has joined
        errors.append(exc)


def _by_lanes(n: int, lane, *, matrix: bool = True) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Zero n x n matrix whose size-m lanes take each block s of rows = lane(m) from one rows(s) call,
    or with matrix=False its lanes 0 and 1 alone, new m x m arrays (an even order's are one array).

    Every lane(m) is called in the calling thread, lane 0's first, before the result is
    allocated and any block filled, so a refusal leaves nothing to undo. Where a lane spans
    more than two blocks, the blocks, their rows divided by the thread count, are shared
    between min(usable CPUs, its blocks) threads, the calling one included, each under a copy
    of the caller's context, which keeps np.errstate; rows(s) must then be safe
    to call while another block is being filled. All threads are joined before the first
    exception raised in any of them reaches the caller.
    """
    sizes = [_lane_size(n, idx) for idx in (0, 1)]
    plans = {m: lane(m) for m in dict.fromkeys(sizes)}  # an even order's lanes share one plan
    out = np.zeros((n, n), dtype=complex) if matrix else {m: np.empty((m, m), dtype=complex) for m in plans}
    # a second thread repays its start-up only once the larger lane, filled alone, takes over two blocks
    blocks = max(-(-m // _block_rows(m)) for m in plans)
    workers = min(_usable_cpus(), blocks) if blocks > 2 else 1
    tasks = []
    for m, rows in plans.items():
        step = _block_rows(m, workers)
        targets = [out[idx::2, idx::2] for idx in (0, 1) if sizes[idx] == m] if matrix else [out[m]]
        tasks += [(rows, slice(start, min(start + step, m)), targets) for start in range(0, m, step)]
    errors: list = []
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(_fill, tasks[k::workers], errors))
        for k in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    try:
        _fill(tasks[::workers], errors)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out if matrix else (out[sizes[0]], out[sizes[1]])


def _lane_copies(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous copies of an n x n matrix's lanes 0 and 1, the entries that _by_lanes writes."""
    return np.ascontiguousarray(matrix[0::2, 0::2]), np.ascontiguousarray(matrix[1::2, 1::2])


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
    2*(1 - node**2)/(m + 1) of node k; OverflowError where a table leaves the double range.
    """
    nodes = _even_nodes(2 * m)[:count]
    weights = 2.0 * (1.0 - nodes**2) / (m + 1)
    cheb = np.array(chebyshev_u_sequence(m - 1, nodes))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below refuses a non-finite table
        columns = _int_powers(derived.sqrt_alpha, m)[:, None] * cheb
        inverse_rows = _int_powers(1 / derived.sqrt_alpha, m)[None, :] * cheb.T
    if not (np.isfinite(columns).all() and np.isfinite(inverse_rows).all()):
        raise OverflowError(f"the size-{m} lane's sqrt(b/a) powers leave the double range (|b/a| = {abs(derived.alpha):.3g})")
    return nodes, weights, columns, inverse_rows


def transform(spec: MatrixSpec, *, branch_flip: bool = False) -> SpectralDecomposition:
    """Diagonalising pair for any order n.

    Column and eigenvalue lane + 2(k-1) carry the k-th node of a size-m lane,
    and its inverse rows the weight 2*(1 - node**2)/(m + 1). An even order's
    lanes share one Chebyshev profile, with weights (4 - 4*node**2)/(n + 2);
    an odd order's lane 0 has (n+1)/2 positions and lane 1 has (n-1)/2.
    """
    derived = DerivedScalars.from_spec(spec, branch_flip=branch_flip)
    tables = {m: _lane_tables(m, m, derived) for m in {_lane_size(spec.n, 0), _lane_size(spec.n, 1)}}
    return SpectralDecomposition(
        eigenvalues=_eigenvalues(spec, branch_flip),
        transform=_by_lanes(spec.n, lambda m: tables[m][2].__getitem__),
        inverse_transform=_by_lanes(spec.n, lambda m: (tables[m][1][:, None] * tables[m][3]).__getitem__),
    )
