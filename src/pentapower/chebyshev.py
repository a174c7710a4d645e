"""Chebyshev polynomials of the second kind and Fibonacci polynomials.

Plain forward three-term recurrences on double-precision complex scalars.
Every argument that shows up downstream is a cosine (possibly scaled), so
the recurrence is run forward without any stabilisation tricks.
"""

from __future__ import annotations

import cmath

__all__ = ["chebyshev_u_sequence", "fibonacci_poly", "ipow"]


def _as_finite_complex(x) -> complex:
    value = complex(x)
    if not (cmath.isfinite(value)):
        raise ValueError(f"argument must be finite, got {value!r}")
    return value


def _check_order(m: int) -> int:
    m = int(m)
    if m < 0:
        raise ValueError(f"polynomial order must be >= 0, got {m}")
    return m


def chebyshev_u_sequence(m_max: int, x) -> list[complex]:
    """[U_0(x), ..., U_{m_max}(x)] with U_0 = 1, U_1 = 2x, U_{k+1} = 2x*U_k - U_{k-1}."""
    m_max = _check_order(m_max)
    x = _as_finite_complex(x)
    values = [1 + 0j]
    if m_max == 0:
        return values
    prev, cur = values[0], 2 * x
    values.append(cur)
    for _ in range(m_max - 1):
        prev, cur = cur, 2 * x * cur - prev
        values.append(cur)
    return values


def fibonacci_poly(m: int, x) -> complex:
    """F_m(x) with F_0 = 0, F_1 = 1, F_k = x*F_{k-1} + F_{k-2}."""
    m = _check_order(m)
    x = _as_finite_complex(x)
    prev, cur = 0j, 1 + 0j
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, x * cur + prev
    return cur


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
