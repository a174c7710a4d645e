"""Integer powers of the two-band matrices without matrix multiplication.

Positions 1, 3, ... (lane 0) and 2, 4, ... (lane 1) never mix, and each
lane is the size-m tridiagonal Toeplitz matrix with a above its diagonal
and b below, m = (n + 1 - lane) // 2. A walk of length r from p to q on
that path takes u = (r + q - p)/2 steps up (worth a) and v = (r - q + p)/2
down (worth b), so entry (p, q), 0-based, of the lane's r-th power is

    W_r(p, q) * a**u * b**v,    W_r(p, q) = C[|q - p|] - C[p + q + 2],

where the reflection principle (Feller, Vol. 1, walks between two
absorbing barriers) gives the path count W_r through C[d], the number of
walks from 0 to d on a cycle of 2(m + 1) vertices. power_matrix and
power_lanes fill each lane from O(m) numbers, Toeplitz weights times
(Toeplitz minus Hankel) counts, with no square root and no branch choice,
in row blocks that _by_lanes writes to every lane of its size in one pass,
in the n x n matrix or alone, one block per thread at a time, on every
usable CPU once a lane spans more than two blocks. C comes from:

* r < m*m/8: the binomial row folded mod 2(m + 1), in float log space, O(r);
* r >= m*m/8: the path-graph modes, (1/(m+1)) * sum_k mu_k cos(k*pi*d/(m+1))
  with mu_k = (x_k / x_1)**r, x_k = cos(k*pi/(m+1)), k = 1..m, by one real
  FFT (modes 0 and m + 1 cancel in W_r and are left out).

The log binomials lose accuracy as r grows (at n = 2048, a = 1, b = 0.25:
1.7e-11 of the scale at m*m/64, 8.1e-10 at m*m/16 and 1.6e-8 at r = 131071
= m*m/8 - 1, open ROADMAP item 1); the mode sum is accurate only once few
modes dominate (0.15 of the scale off at m*m/64, <= 2.5e-10 at m*m/16):
hence the crossover. Counts and weights carry a binary exponent outside
the double range, so neither over- or underflows while their products fit
it; a lane whose significant entries need more than one shared exponent is
refused.

The reference routes (power_entry, power_via_spectral) read one lane
routine, _node_sum_lane, the paper's node sum: entry (p, q) =
sum_k w_k * (2*sqrt(ab)*x_k)**r * sqrt(b/a)**(p-q) * U_p(x_k) * U_q(x_k)
with w_k = 2*(1 - x_k**2)/(m+1), over the first m // 2 nodes, each doubled
or cancelled with its negative by the parity of r + p + q. Its rounding
error grows like |b/a|**(m/2) (Reichel & Trefethen, LAA 1992): where
m * eps times the sum of the terms' moduli exceeds 1e-8 of the lane's
largest entry, it raises FloatingPointError; where the lane itself leaves
the double range, OverflowError. An odd lane's zero middle node is
dropped, so r = 0 is short-circuited to the identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .chebyshev import ipow
from .chebyshev import chebyshev_u_sequence  # noqa: F401  unused here; the benchmark's traced run looks it up on this module
from .spectrum import (
    DerivedScalars,
    MatrixSpec,
    _by_lanes,
    _even_nodes,
    _index_nodes as _odd_nodes,  # unused here; the benchmark's traced run looks it up on this module
    _int_powers,
    _lane_size,
    _lane_tables,
)

__all__ = [
    "PowerRequest",
    "power_entry",
    "power_matrix",
    "power_via_spectral",
]

# r >= m*m/8 counts walks by path modes, below by log binomials: on non-normal bands the modes err by 0.15-0.85 of scale at m*m/64 and <= 2.5e-10 at m*m/16, the log binomials by 8.1e-10 at m*m/16 and 1.6e-8 at r = 131071 = m*m/8 - 1 (n = 2048, a = 1, b = 0.25; open ROADMAP item 1)
_MODES_FROM = 8


@dataclass(frozen=True)
class PowerRequest:
    """A power computation: which matrix, which exponent, which root branch."""

    spec: MatrixSpec
    r: int
    branch_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r", operator.index(self.r))
        if self.r < 0:
            raise ValueError(f"exponent must be >= 0, got {self.r}")


def _split(z: complex) -> tuple[complex, int]:
    """(mantissa, e) with z == mantissa * 2**e and the larger part of the mantissa in [0.5, 1)."""
    e = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def _scaled_pow(z: complex, k: int) -> tuple[complex, int]:
    """z**k as (mantissa, e) with z**k == mantissa * 2**e, by repeated squaring;
    e is a Python int, so neither k nor the result is bounded by the double range."""
    result, exponent = 1 + 0j, 0
    base, base_exp = complex(z), 0
    while k:
        # renormalise only far from 1, so that no product below can leave the double range
        if not 2.0**-200 < abs(base) < 2.0**200:
            base, e = _split(base)
            base_exp += e
        if k & 1:
            result *= base
            exponent += base_exp
            if not 2.0**-200 < abs(result) < 2.0**200:
                result, e = _split(result)
                exponent += e
        k >>= 1
        if k:
            base *= base
            base_exp *= 2
    return result, exponent


def _walk_counts(m: int, r: int) -> tuple[np.ndarray, int]:
    """(C, e): C[d] * 2**e, d = 0 .. 2m+1, counts the length-r walks from 0 to d on a
    cycle of 2(m + 1) vertices, up to terms that cancel in C[|q-p|] - C[p+q+2]."""
    size = 2 * (m + 1)
    if _MODES_FROM * r < m * m:
        k = np.arange(r)
        logs = np.concatenate(([0.0], np.cumsum(np.log((r - k) / (k + 1.0)))))
        top = logs[r // 2] / math.log(2)
        whole = math.floor(top)
        row = np.exp((logs - logs[r // 2]) + (top - whole) * math.log(2))
        return np.bincount((2 * np.arange(r + 1) - r) % size, weights=row, minlength=size), whole
    nodes = _even_nodes(2 * m)
    modes = np.zeros(m + 2)
    modes[1 : m + 1] = ipow(nodes / nodes[0], r)
    scale, e = _scaled_pow(2.0 * nodes[0], r)
    return np.fft.irfft(modes, size) * scale.real, e


def _diagonal_weights(m: int, a: complex, b: complex, r: int) -> tuple[np.ndarray, int]:
    """(w, e): w[d + m - 1] * 2**e = a**u * b**v on lane diagonal d = q - p, and an
    exact 0 where no walk of length r reaches (|d| > r or r + d odd)."""
    reach = min(r, m - 1)
    reach -= (r - reach) % 2
    # from the diagonal with the most steps on the larger band, each step of 2
    # toward the other end trades one of them for one on the smaller band
    big, small = (a, b) if abs(b) <= abs(a) else (b, a)
    lead_big, e_big = _scaled_pow(big, (r + reach) // 2)
    lead_small, e_small = _scaled_pow(small, (r - reach) // 2)
    lead, e = _split(lead_big * lead_small)
    ramp = lead * _int_powers(small / big, reach + 1)
    weights = np.zeros(2 * m - 1, dtype=complex)
    weights[m - 1 - reach : m + reach : 2] = ramp[::-1] if big is a else ramp
    return weights, e + e_big + e_small


def _walk_lane(m: int, spec: MatrixSpec, r: int):
    """rows(s): the rows s of a size-m lane's r-th power, in a new array for r >= 1 (calls may overlap)."""
    if r == 0:
        return np.eye(m, dtype=complex).__getitem__
    if m == 1:
        return lambda s: np.zeros((1, 1), dtype=complex)  # a single vertex has no walk of length >= 1
    counts, e_counts = _walk_counts(m, r)
    weights, e_weights = _diagonal_weights(m, spec.a, spec.b, r)
    diagonals = np.arange(-(m - 1), m)
    along, sizes = counts[np.abs(diagonals)], np.abs(weights)
    # the largest |W| on diagonal d is C[|d|] less the least C[s], s = |d|+2, |d|+4, ... <= m+1
    # (C is symmetric about m+1, so that covers every p + q + 2 on the diagonal)
    same = counts[r % 2 : m + 2 : 2]
    least_beyond = np.minimum.accumulate(same[::-1])[::-1][1:]
    reached = (np.abs(diagonals) - r % 2) // 2  # wrong-parity diagonals have weight 0
    peak = float(np.max((same[reached] - least_beyond[reached]) * sizes))
    exponent = e_counts + e_weights
    if not (peak <= 0 or math.log2(peak) + exponent < 1024):  # a NaN peak refuses too
        if not math.isfinite(peak):
            raise OverflowError(f"the walk counts or weights of A**{r} are not finite")
        decades = (math.log2(peak) + exponent) * math.log10(2)
        raise OverflowError(
            f"the largest entry of A**{r} is about 1e{math.floor(decades)}, beyond the double range"
        )
    # below 2**-960 of the largest count, a count's Hankel partner leaves the double range;
    # below 2**-1021, a weight loses digits: refuse where such an entry could still matter
    support = (np.abs(diagonals) <= min(r, m)) & ((diagonals + r % 2) % 2 == 0)
    blurred = support & ((np.abs(along) < 2.0**-960) | (sizes < 2.0**-1021))
    bound = np.maximum(np.abs(along[blurred]), 2.0**-960) * np.maximum(sizes[blurred], 2.0**-1021)
    if not np.all(bound <= peak * 2.0**-60):  # a NaN bound refuses too
        raise OverflowError(f"the entries of A**{r} span more than one double exponent can scale")
    # the counts and the weights each take half the exponent (both peak near 1)
    half = max(min(exponent // 2, 2048), -2048)
    rest = max(min(exponent - half, 2048), -2048)
    if max(half, rest) >= 1000:
        raise OverflowError(f"the entries of A**{r} span more than the double range")
    weights *= math.ldexp(1.0, rest)
    # lane[p, q] = (C[|q-p|] - C[p+q+2]) * w[q-p], from read-only m x m views whose row p is line[p:] or line[m-1-p:]
    def window(line: np.ndarray, step: int) -> np.ndarray:
        size = line.itemsize
        return np.ndarray((m, m), line.dtype, memoryview(line).toreadonly(), (m - 1) * size * (step < 0), (step * size, size))
    toeplitz = window(weights, -1)
    hankel = window(np.ldexp(counts[2 : 2 * m + 1], half), 1)
    leading = window(np.ldexp(along, half) * weights, -1)
    def rows(s: slice) -> np.ndarray:
        block = np.multiply(hankel[s], toeplitz[s])
        return np.subtract(leading[s], block, out=block)
    return rows


def _node_sum_lane(m: int, derived: DerivedScalars, r: int) -> np.ndarray:
    """The r-th power, r >= 1, of a size-m lane from the paper's node sum, with an exact 0
    where r + p + q is odd; OverflowError or FloatingPointError where doubles cannot hold it."""
    nodes, weights, columns, inverse_rows = _lane_tables(m, m // 2, derived)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks refuse a non-finite term, lane or bound
        terms = weights * np.array([ipow(derived.sqrt_ab * (2.0 * x), r) for x in nodes], dtype=complex)
        if not np.isfinite(terms).all():
            raise OverflowError(f"the node sum for A**{r} has eigenvalue powers beyond the double range")
        lane = 2 * (columns * terms) @ inverse_rows
        moduli = 2 * (abs(columns) * abs(terms)) @ abs(inverse_rows)
    lane[np.add.outer(np.arange(m), np.arange(m)) % 2 != r % 2] = 0
    if not np.isfinite(lane).all():
        raise OverflowError(f"the node sum for A**{r} has terms beyond the double range")
    bound = m * np.finfo(float).eps * float(np.max(moduli, initial=0))
    largest = float(np.max(abs(lane), initial=0))
    if not bound <= 1e-8 * largest:  # a NaN refuses too
        raise FloatingPointError(
            f"the node sum for A**{r} cannot resolve its entries: rounding bound {bound:.1e} "
            f"against a largest entry of {largest:.1e} (|b/a| = {abs(derived.alpha):.3g})"
        )
    return lane


def power_entry(spec: MatrixSpec, r: int, i: int, j: int) -> complex:
    """Entry (i, j), 1-based, of the r-th power, r >= 1, from the node sum of its lane."""
    r, i, j = operator.index(r), operator.index(i), operator.index(j)
    if r < 1:
        raise ValueError(f"entry formulas require r >= 1, got {r}")
    for name, idx in (("i", i), ("j", j)):
        if not 1 <= idx <= spec.n:
            raise ValueError(f"index {name}={idx} out of range 1..{spec.n}")
    if (i + j) % 2 == 1:
        return 0j  # the lanes never mix
    lane = _node_sum_lane(_lane_size(spec.n, 1 - i % 2), DerivedScalars.from_spec(spec), r)
    return complex(lane[(i - 1) // 2, (j - 1) // 2])


def power_matrix(req: PowerRequest) -> np.ndarray:
    """The full r-th power from the walk counts of each lane.

    Work is O(n^2) plus O(min(r, n^2)) for the counts, so runtime is
    essentially independent of r. Raises OverflowError, before filling any
    lane, when a lane's largest entry exceeds the double range, or when entries
    that matter lie too far apart for one shared exponent; entries below
    the double range round to 0. branch_flip has no effect: no square root
    is taken.
    """
    return _by_lanes(req.spec.n, lambda m: _walk_lane(m, req.spec, req.r))


def power_lanes(req: PowerRequest) -> tuple[np.ndarray, np.ndarray]:
    """power_matrix's lanes 0 and 1, rows and columns 1, 3, ... and 2, 4, ..., with its refusals; 0 elsewhere."""
    return _by_lanes(req.spec.n, lambda m: _walk_lane(m, req.spec, req.r), matrix=False)


def power_via_spectral(req: PowerRequest) -> tuple[np.ndarray, np.ndarray]:
    """Reference route: power_lanes' lanes, each from the node sum of its spectral decomposition."""
    if req.r == 0:
        return power_lanes(req)  # the identity's lanes
    derived = DerivedScalars.from_spec(req.spec, branch_flip=req.branch_flip)
    return _by_lanes(req.spec.n, lambda m: _node_sum_lane(m, derived, req.r).__getitem__, matrix=False)
