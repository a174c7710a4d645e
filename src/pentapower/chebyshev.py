"""Chebyshev polynomials of the second kind and integer powers by repeated squaring.

A plain forward three-term recurrence on double-precision complex values.
Every argument that shows up downstream is a cosine (possibly scaled), so
the recurrence is run forward without any stabilisation tricks. Both work
elementwise on arrays, with the values of their scalar calls (an array x gives
one array per order); ipow takes any Python int exponent >= 0, past int64 too.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["chebyshev_u_sequence", "ipow"]


def chebyshev_u_sequence(m_max: int, x) -> list:
    """[U_0(x), ..., U_{m_max}(x)] with U_0 = 1, U_1 = 2x, U_{k+1} = 2x*U_k - U_{k-1}."""
    m_max = operator.index(m_max)
    if m_max < 0:
        raise ValueError(f"polynomial order must be >= 0, got {m_max}")
    x = np.asarray(x, dtype=complex) if np.ndim(x) else complex(x)
    if not np.isfinite(x).all():
        raise ValueError(f"argument must be finite, got {x!r}")
    values = [x**0]
    if m_max == 0:
        return values
    prev, cur = values[0], 2 * x
    values.append(cur)
    for _ in range(m_max - 1):
        prev, cur = cur, 2 * x * cur - prev
        values.append(cur)
    return values


def ipow(base, exponent: int):
    """base**exponent, exponent >= 0, by repeated squaring (never exp/log); elementwise on an array."""
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    result = base**0
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result
