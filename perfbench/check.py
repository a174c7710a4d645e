"""Correctness checks for pentapower results, independent of ``oracle.compare``.

``compare`` divides the deviation by ``max(1, scale)``. At n = 256,
r = 10**6, a = 0.5, b = 0.5i the largest entry of A**r is about 4.9e-131,
so that floor passes an all-zero matrix. Here the tolerance is always
relative to the reference's own largest modulus.

The two-band helpers build O(n^2) references from the band structure alone:
``band_apply`` multiplies by A with one shift and one scale per band, and
``support`` is the set of entries that a walk of length r can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    """passed, the deviation over the reference scale (inf when not comparable), and why.

    nonfinite marks a result with inf or nan entries where the reference is finite.
    """

    passed: bool
    rel_err: float
    reason: str
    nonfinite: bool = False


def check_matrix(candidate, reference) -> Verdict:
    """Compare a result with its reference; ``candidate`` is None when the computation raised.

    Where the reference is not finite, a double cannot hold the answer and
    only a refusal passes. Otherwise the candidate must be finite, have the
    reference's shape, and miss it by at most REL_TOL times its largest modulus.
    """
    reference = np.asarray(reference)
    if not np.isfinite(reference).all():
        if candidate is None:
            return Verdict(True, 0.0, "refused; reference not finite")
        return Verdict(False, math.inf, "answered where the reference is not finite")
    if candidate is None:
        return Verdict(False, math.inf, "raised")
    candidate = np.asarray(candidate)
    if candidate.shape != reference.shape:
        return Verdict(False, math.inf, f"shape {candidate.shape} != {reference.shape}")
    if not np.isfinite(candidate).all():
        return Verdict(False, math.inf, "non-finite entries", nonfinite=True)
    scale = float(np.max(np.abs(reference), initial=0.0))
    deviation = float(np.max(np.abs(candidate - reference), initial=0.0))
    if scale == 0.0:
        rel_err = 0.0 if deviation == 0.0 else math.inf
    else:
        rel_err = deviation / scale
    if rel_err <= REL_TOL:
        return Verdict(True, rel_err, "ok")
    return Verdict(False, rel_err, f"deviation {rel_err:.3e} of scale {scale:.3e}")


def band_apply(a: complex, b: complex, x: np.ndarray) -> np.ndarray:
    """A @ x for the matrix with a on the +2 band and b on the -2 band."""
    out = np.zeros(x.shape, dtype=complex)
    out[:-2] = a * x[2:]
    out[2:] += b * x[:-2]
    return out


def banded_power(n: int, a: complex, b: complex, r: int) -> np.ndarray:
    """A**r by r shift-and-scale steps from the identity: O(r n^2), no spectral sums."""
    out = np.eye(n, dtype=complex)
    for _ in range(r):
        out = band_apply(a, b, out)
    return out


def support(n: int, r: int) -> np.ndarray:
    """Mask of the entries of A**r that are not exactly zero.

    A walk of length r joins rows i and j only inside one lane (i, j of equal
    parity), over at most r lane positions, with r of the same parity as the
    distance between the positions.
    """
    lane_pos = np.arange(n) // 2
    same_lane = (np.arange(n)[:, None] - np.arange(n)[None, :]) % 2 == 0
    distance = lane_pos[:, None] - lane_pos[None, :]
    return same_lane & (np.abs(distance) <= r) & ((distance - r) % 2 == 0)


def check_support(candidate: np.ndarray, r: int) -> Verdict:
    """Nonzero on every reachable entry, negligible elsewhere: catches a zeroed result,
    which passes every linear identity."""
    expected = support(candidate.shape[0], r)
    magnitude = np.abs(candidate)
    missing = int(np.count_nonzero(magnitude[expected] == 0))
    stray = float(np.max(magnitude[~expected], initial=0.0))
    scale = float(np.max(magnitude, initial=0.0))
    if missing or stray > REL_TOL * scale:
        return Verdict(False, math.inf, f"{missing} reachable entries zero, stray {stray:.3e}")
    return Verdict(True, 0.0, "ok")


def combine(verdicts: list[Verdict]) -> Verdict:
    """All must pass; the error is the worst one."""
    failed = [v.reason for v in verdicts if not v.passed]
    rel_err = max((v.rel_err for v in verdicts), default=0.0)
    return Verdict(not failed, rel_err, "; ".join(failed) or "ok",
                   nonfinite=any(v.nonfinite for v in verdicts))
