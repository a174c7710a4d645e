"""Chebyshev polynomials of the second kind and integer powers of complex scalars.

A plain forward three-term recurrence on double-precision complex scalars.
Every argument that shows up downstream is a cosine (possibly scaled), so
the recurrence is run forward without any stabilisation tricks.
"""

from __future__ import annotations

import cmath

__all__ = ["chebyshev_u_sequence", "ipow"]


def chebyshev_u_sequence(m_max: int, x) -> list[complex]:
    """[U_0(x), ..., U_{m_max}(x)] with U_0 = 1, U_1 = 2x, U_{k+1} = 2x*U_k - U_{k-1}."""
    m_max = int(m_max)
    if m_max < 0:
        raise ValueError(f"polynomial order must be >= 0, got {m_max}")
    x = complex(x)
    if not cmath.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    values = [1 + 0j]
    if m_max == 0:
        return values
    prev, cur = values[0], 2 * x
    values.append(cur)
    for _ in range(m_max - 1):
        prev, cur = cur, 2 * x * cur - prev
        values.append(cur)
    return values


def ipow(base, exponent: int) -> complex:
    """Integer power of a complex scalar by repeated squaring (never exp/log)."""
    exponent = int(exponent)
    base = complex(base)
    if exponent < 0:
        base = 1 / base
        exponent = -exponent
    result = 1 + 0j
    while exponent:
        if exponent & 1:
            result *= base
        exponent >>= 1
        if exponent:
            base *= base
    return result
