"""End-to-end acceptance suite: one test per release criterion.

Every test prints a single CRITERION line, so `pytest tests/test_acceptance.py -v -s`
doubles as the acceptance report.
"""

import json
import time

import numpy as np
from click.testing import CliRunner

from pentapower import (
    MatrixSpec,
    PowerRequest,
    build_dense,
    determinant_corollary_check,
    naive_power,
    power_matrix,
    power_via_spectral,
    transform,
)
from pentapower.cli import cli
from pentapower.oracle import band_pairs


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number} {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def _rows_to_array(document):
    return np.array(
        [[complex(cell["re"], cell["im"]) for cell in row] for row in document["rows"]]
    )


PRINTED_SIX_BY_SIX = np.array(
    [
        [-64 + 64j, 0, 0, 0, 128j, 0],
        [0, -64 + 64j, 0, 0, 0, 128j],
        [0, 0, -128 + 128j, 0, 0, 0],
        [0, 0, 0, -128 + 128j, 0, 0],
        [-64, 0, 0, 0, -64 + 64j, 0],
        [0, -64, 0, 0, 0, -64 + 64j],
    ],
    dtype=complex,
)

PRINTED_SEVEN_BY_SEVEN = np.array(
    [
        [0, 0, 540, 0, 0, 0, 486],
        [0, 0, 0, 432, 0, 0, 0],
        [360, 0, 0, 0, 864, 0, 0],
        [0, 288, 0, 0, 0, 432, 0],
        [0, 0, 576, 0, 0, 0, 540],
        [0, 0, 0, 288, 0, 0, 0],
        [144, 0, 0, 0, 360, 0, 0],
    ],
    dtype=complex,
)


def test_criterion_1_six_by_six_reproduction():
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(
        cli, ["power", "--n", "6", "--r", "6", "--a", "2", "--b", "1+1i", "--format", "json"]
    )
    elapsed = time.perf_counter() - start
    ok = result.exit_code == 0
    deviation = float("inf")
    if ok:
        deviation = float(
            np.max(np.abs(_rows_to_array(json.loads(result.output)) - PRINTED_SIX_BY_SIX))
        )
        ok = deviation <= 1e-9 and elapsed < 1.0
    _report(
        1,
        "order-6 sixth power matches the printed matrix",
        ok,
        f"max_abs={deviation:.2e}, elapsed={elapsed:.3f}s",
    )


def test_criterion_2_seven_by_seven_reproduction():
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(
        cli, ["power", "--n", "7", "--r", "5", "--a", "3", "--b", "2", "--format", "json"]
    )
    elapsed = time.perf_counter() - start
    ok = result.exit_code == 0
    deviation = float("inf")
    if ok:
        deviation = float(
            np.max(np.abs(_rows_to_array(json.loads(result.output)) - PRINTED_SEVEN_BY_SEVEN))
        )
        ok = deviation <= 1e-6 and elapsed < 1.0
    _report(
        2,
        "order-7 fifth power matches the printed integer matrix",
        ok,
        f"max_abs={deviation:.2e}, elapsed={elapsed:.3f}s",
    )


def test_criterion_3_small_order_symbolic_instances():
    checks = []

    def closed_and_oracle(n, r):
        spec = MatrixSpec(n=n, a=2, b=3)
        closed = power_matrix(PowerRequest(spec=spec, r=r))
        reference = naive_power(spec, r)
        scale = max(1.0, float(np.max(np.abs(reference))))
        checks.append(float(np.max(np.abs(closed - reference))) / scale <= 1e-8)
        return closed, scale

    closed, scale = closed_and_oracle(4, 6)
    checks.append(np.max(np.abs(closed - 216 * np.eye(4))) / scale <= 1e-8)

    closed, scale = closed_and_oracle(4, 7)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = 432
    expected[2, 0] = expected[3, 1] = 648
    checks.append(np.max(np.abs(closed - expected)) / scale <= 1e-8)

    closed, scale = closed_and_oracle(5, 4)
    for index, value in (((0, 0), 72), ((2, 2), 144), ((0, 4), 48), ((4, 0), 108)):
        checks.append(abs(closed[index] - value) / scale <= 1e-8)

    closed, scale = closed_and_oracle(5, 5)
    for index, value in (((0, 2), 288), ((2, 0), 432)):
        checks.append(abs(closed[index] - value) / scale <= 1e-8)

    _report(3, "order-4 and order-5 symbolic instances at a=2, b=3", all(checks))


def test_criterion_4_oracle_equivalence_sweep():
    pairs = band_pairs()
    worst = 0.0
    start = time.perf_counter()
    for n in range(3, 13):
        for a, b in pairs:
            spec = MatrixSpec(n=n, a=a, b=b)
            for r in range(1, 11):
                closed = power_matrix(PowerRequest(spec=spec, r=r))
                reference = naive_power(spec, r)
                scale = max(1.0, float(np.max(np.abs(reference))))
                worst = max(worst, float(np.max(np.abs(closed - reference))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(
        4,
        "closed form vs brute-force oracle over n=3..12, r=1..10, 5 band pairs",
        ok,
        f"worst_rel={worst:.2e}, elapsed={elapsed:.1f}s",
    )


def test_criterion_5_spectral_residuals():
    worst_similarity = 0.0
    worst_inverse = 0.0
    for n in range(3, 17):
        for a, b in band_pairs():
            spec = MatrixSpec(n=n, a=a, b=b)
            decomposition = transform(spec)
            dense = build_dense(spec)
            lhs = dense @ decomposition.transform
            rhs = decomposition.transform * decomposition.eigenvalues[None, :]
            worst_similarity = max(
                worst_similarity,
                float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(lhs)))),
            )
            product = decomposition.transform @ decomposition.inverse_transform
            worst_inverse = max(
                worst_inverse,
                float(np.max(np.abs(product - np.eye(n))))
                / max(1.0, float(np.max(np.abs(product)))),
            )
    ok = worst_similarity <= 1e-9 and worst_inverse <= 1e-9
    _report(
        5,
        "similarity and inverse residuals up to order 16",
        ok,
        f"similarity={worst_similarity:.2e}, inverse={worst_inverse:.2e}",
    )


def test_criterion_6_determinant_identity_grid():
    worst = 0.0
    ok = True
    for t in (1, 2, 3):
        for x in (1, 2, 0.5, 1 + 1j):
            report = determinant_corollary_check(t, x, rel_tol=1e-9)
            worst = max(worst, report.max_rel_deviation)
            ok = ok and report.passed
    _report(6, "determinant identity for orders 4t with the -2 band set to i", ok,
            f"worst_rel={worst:.2e}")


def _spectral_cells(spec, r, branch_flip):
    """Every cell of the spectral route's lanes; all others are an exact 0."""
    lanes = power_via_spectral(PowerRequest(spec=spec, r=r), branch_flip=branch_flip)
    return np.concatenate([lane.ravel() for lane in lanes])


def test_criterion_7_branch_invariance():
    # the spectral route reads the flag through sqrt(ab) and sqrt(b/a); the closed form takes no root
    worst = 0.0
    for n in range(3, 9):
        for a, b in band_pairs():
            spec = MatrixSpec(n=n, a=a, b=b)
            for r in range(1, 7):
                plain = _spectral_cells(spec, r, False)
                flipped = _spectral_cells(spec, r, True)
                scale = max(1.0, float(np.max(np.abs(plain))))
                worst = max(worst, float(np.max(np.abs(plain - flipped))) / scale)
    _report(7, "flipped square-root branch leaves powers unchanged", worst <= 1e-10,
            f"worst_rel={worst:.2e}")


def test_criterion_8_exponent_independent_runtime(tmp_path):
    runner = CliRunner()
    artifact = tmp_path / "bench.csv"
    result = runner.invoke(
        cli,
        [
            "bench",
            "--n", "64",
            "--r", "10,1000000",
            "--route", "closed_form",
            "--a", "0.5",
            "--b", "0.5",
            "--repeats", "9",
            "--out", str(artifact),
        ],
    )
    assert result.exit_code == 0
    rows = artifact.read_text().strip().splitlines()[1:]
    medians = {int(fields[1]): int(fields[3]) for fields in (row.split(",") for row in rows)}
    ratio = medians[1000000] / medians[10]

    result = runner.invoke(
        cli,
        [
            "bench",
            "--n", "256",
            "--r", "1000000",
            "--route", "closed_form,oracle",
            "--a", "0.5",
            "--b", "0.5",
            "--repeats", "3",
        ],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()[1:]
    by_route = {fields[2]: int(fields[3]) for fields in (line.split(",") for line in lines)}
    ok = ratio < 2.0 and by_route["closed_form"] < by_route["oracle"]
    _report(
        8,
        "closed-form runtime is exponent independent and beats the oracle at order 256",
        ok,
        f"ratio={ratio:.2f}, closed={by_route['closed_form']}ns, oracle={by_route['oracle']}ns",
    )


def test_criterion_9_zero_pattern_exactness():
    ok = True
    for n in range(3, 13):
        for a, b in band_pairs():
            spec = MatrixSpec(n=n, a=a, b=b)
            for r in range(1, 11):
                closed = power_matrix(PowerRequest(spec=spec, r=r))
                mask = (np.add.outer(np.arange(n), np.arange(n)) % 2) == 1
                ok = ok and bool(np.all(closed[mask] == 0))
    _report(9, "opposite-parity entries are exactly zero across the sweep", ok)
