"""Integer powers of the two-band matrices without matrix multiplication.

Positions 1, 3, ... (lane 0) and 2, 4, ... (lane 1) never mix, and each
lane is the size-m tridiagonal Toeplitz matrix with a above its diagonal
and b below, m = (n + 1 - lane) // 2. Its nodes are x_k = cos(k*pi/(m+1)),
k = 1..m, its eigenvalues 2*sqrt(ab)*x_k and its weights
w_k = 2*(1 - x_k**2)/(m+1); entry (p, q), 0-based, of its r-th power is
sum_k w_k * (2*sqrt(ab)*x_k)**r * sqrt(b/a)**(p-q) * U_p(x_k) * U_q(x_k).

* The nodes are symmetric under negation and U_p(-x) = (-1)**p U_p(x), so
  each node and its negative double or cancel by the parity of r + p + q:
  only the first m // 2 nodes are summed, with a factor {0, 2}.
* When m is odd the middle node is 0; its eigenvalue contributes nothing
  for r >= 1 and is dropped, which is why r = 0 is short-circuited to the
  identity before the formulas run.

Every power and entry below is built by one routine over such a lane; the
two lanes of an even order are the same matrix, computed once. At most
n/4 + 1 terms are summed, independent of r; the only r-dependent work is
one repeated-squaring scalar power per term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import chebyshev_u, chebyshev_u_sequence, ipow
from .spectrum import (
    DerivedScalars,
    MatrixSpec,
    _even_nodes,
    _int_powers,
    _lane_size,
    _odd_nodes,  # unused here; the benchmark's traced run looks it up on this module
    _require_even,
    _require_odd,
    _transform,
)

__all__ = [
    "PowerRequest",
    "power_entry_even",
    "power_entry_odd",
    "power_matrix",
    "power_via_spectral",
]


@dataclass(frozen=True)
class PowerRequest:
    """A power computation: which matrix, which exponent, which root branch."""

    spec: MatrixSpec
    r: int
    branch_flip: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r", int(self.r))
        if self.r < 0:
            raise ValueError(f"exponent must be >= 0, got {self.r}")


def _term_count_even(n: int) -> int:
    # one term per node pair of a lane; an odd-size lane's zero middle node is dropped
    return _lane_size(n, 0) // 2


def _term_count_odd(n: int, odd_lane: bool) -> int:
    # the same count for the lane that holds position 1 (odd_lane) or position 2
    return _lane_size(n, 0 if odd_lane else 1) // 2


def _lane_terms(m: int, derived: DerivedScalars, r: int):
    """Nodes, weights and eigenvalue powers of the m // 2 summed terms of a size-m lane."""
    nodes = _even_nodes(2 * m)[: m // 2]
    weights = 2.0 * (1.0 - nodes**2) / (m + 1)
    powers = np.array(
        [ipow(2.0 * derived.sqrt_ab * x, r) for x in nodes], dtype=complex
    )
    return nodes, weights, powers


def _lane_power(m: int, derived: DerivedScalars, r: int) -> np.ndarray:
    """The r-th power of a size-m lane, r >= 1."""
    nodes, weights, powers = _lane_terms(m, derived, r)
    # table[p, k] = U_p(nodes[k]); the reshape keeps the shape when no term is summed
    table = np.array(
        [chebyshev_u_sequence(m - 1, complex(x)) for x in nodes], dtype=complex
    ).reshape(nodes.size, m).T
    # 2 * sqrt(b/a)**(p-q) times the node sum, scaled in place rather than in m x m temporaries
    block = np.outer(
        _int_powers(derived.sqrt_alpha, m),
        _int_powers(1 / derived.sqrt_alpha, m),
    )
    block *= 2.0
    block *= (table * (weights * powers)) @ table.T
    # node pairs cancel unless r + p + q is even
    block[(np.add.outer(np.arange(m), np.arange(m)) + r) % 2 == 1] = 0
    return block


def _power_entry(spec: MatrixSpec, r: int, i: int, j: int) -> complex:
    r, i, j = int(r), int(i), int(j)
    if r < 1:
        raise ValueError(f"entry formulas require r >= 1, got {r}")
    for name, idx in (("i", i), ("j", j)):
        if not 1 <= idx <= spec.n:
            raise ValueError(f"index {name}={idx} out of range 1..{spec.n}")
    p, q = (i - 1) // 2, (j - 1) // 2
    # the lanes never mix, and within one the node pairs cancel unless r + p + q is even
    if (i + j) % 2 == 1:
        return 0j
    if (p + q + r) % 2 == 1:
        return 0j
    derived = DerivedScalars.from_spec(spec)
    m = _lane_size(spec.n, 1 - i % 2)
    alpha_pow = ipow(derived.sqrt_alpha, p - q)
    nodes, weights, powers = _lane_terms(m, derived, r)
    total = 0j
    for node, weight, eig_pow in zip(nodes, weights, powers):
        total += (
            eig_pow
            * weight
            * alpha_pow
            * chebyshev_u(p, node)
            * chebyshev_u(q, node)
        )
    return 2 * total


def power_entry_even(spec: MatrixSpec, r: int, i: int, j: int) -> complex:
    """Entry (i, j), 1-based, of the r-th power for even order n."""
    _require_even(spec)
    return _power_entry(spec, r, i, j)


def power_entry_odd(spec: MatrixSpec, r: int, i: int, j: int) -> complex:
    """Entry (i, j), 1-based, of the r-th power for odd order n."""
    _require_odd(spec)
    return _power_entry(spec, r, i, j)


def power_matrix(req: PowerRequest) -> np.ndarray:
    """The full r-th power by the closed-form entry sums.

    Work is O(n^2 * terms) with terms <= n/4 + 1; the exponent enters only
    through the per-term scalar powers, so runtime is essentially
    independent of r.
    """
    spec = req.spec
    if req.r == 0:
        return np.eye(spec.n, dtype=complex)
    derived = DerivedScalars.from_spec(spec, branch_flip=req.branch_flip)
    out = np.zeros((spec.n, spec.n), dtype=complex)
    for lane in (0, 1):
        if lane == 1 and spec.is_even:
            out[1::2, 1::2] = out[0::2, 0::2]  # both lanes of an even order are the same matrix
        else:
            out[lane::2, lane::2] = _lane_power(_lane_size(spec.n, lane), derived, req.r)
    return out


def power_via_spectral(req: PowerRequest) -> np.ndarray:
    """Reference route: transform @ diag(eigenvalues**r) @ inverse_transform."""
    decomposition = _transform(req.spec, req.branch_flip)
    powered = np.array([ipow(v, req.r) for v in decomposition.eigenvalues], dtype=complex)
    return (decomposition.transform * powered[None, :]) @ decomposition.inverse_transform
