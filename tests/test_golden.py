"""Byte-for-byte golden outputs of ``power``, ``eig`` and the matrix formatters.

The documents under ``tests/golden/`` were recorded with the per-cell
formatters that the distinct-value formatter replaced, so any change to the
printed bytes fails here; the ``oracle_*`` documents were recorded before the
dense oracle built its blocks from A's band entries instead of an n x n copy of
A. A failure names the first difference only. ``elapsed_ns`` is scrubbed as in
``test_cli.py::test_deterministic_output``.

``golden/manifest.json`` covers a wider grid by hash alone: per command line, the
SHA-256 of its scrubbed stdout, its exit code and the SHA-256 of its stderr, and
its check names every case that moved. Re-record both only for a deliberate
change of the output contract: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import gzip
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import assert_same_text

from pentapower import MatrixSpec
from pentapower.cli import _matrix_csv, _matrix_json, _matrix_pretty, cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_POWER = {
    "n6_r6": ["--n", "6", "--r", "6", "--a", "2", "--b", "1+1i"],
    "n7_r7": ["--n", "7", "--r", "7", "--a", "2", "--b", "1+1i"],
    "n64_r30": ["--n", "64", "--r", "30", "--a", "2", "--b", "1+1i"],
    "n64_r1000": ["--n", "64", "--r", "1000", "--a", "0.5", "--b", "0.5i"],
    "n257_r300": ["--n", "257", "--r", "300", "--a", "0.5", "--b", "0.5i"],
}
_PRETTY = ("n6_r6", "n7_r7")
# the dense oracle's own bytes: one-element blocks (n = 3), an odd order, an even one, and n % 4 != 0 in CSV
_ORACLE = {(3, 7): "json", (7, 7): "json", (66, 30): "json", (67, 30): "csv"}

CASES = {
    **{
        f"power_{name}_{fmt}": ["power", *args, "--format", fmt]
        for name, args in _POWER.items()
        for fmt in ("json", "csv", *(("pretty",) if name in _PRETTY else ()))
    },
    **{
        f"oracle_n{n}_r{r}_{fmt}": ["power", "--n", str(n), "--r", str(r), "--a", "2", "--b", "1+1i",
                                    "--route", "oracle", "--format", fmt]
        for (n, r), fmt in _ORACLE.items()
    },
    **{
        f"eig_n{n}_{fmt}": ["eig", "--n", str(n), "--a", "2", "--b", "1+1i", "--format", fmt]
        for n in (6, 7)
        for fmt in ("json", "csv", "pretty")
    },
}


_BANDS = (("2", "1+1i", "7"), ("0.5", "0.5i", "1000000"), ("1", "0.25", "0"))
_REFUSALS = [
    ["power", "--n", "2", "--r", "1"],
    ["power", "--n", "4", "--r", "1", "--a", "0"],
    ["power", "--n", "4", "--r", "-1"],
    *[["power", "--n", "8", "--r", "2000", "--a", "1", "--b", "1", "--route", route]
      for route in ("closed_form", "spectral", "oracle")],
    ["power", "--n", "8", "--r", "99999999999999999999", "--a", "1", "--b", "1"],
    ["power", "--route", "spectral", "--n", "300", "--r", "20", "--a", "1", "--b", "4"],
    ["power", "--route", "spectral", "--n", "128", "--r", "1026"],
    ["power", "--n", "4", "--r", "1", "--a", "0..5"],
    ["power", "--n", "four", "--r", "1"],
    ["power", "--n", "4", "--r", "1", "--route", "warp"],
    ["eig", "--n", "3", "--a", "1\n"],
    *[["eig", "--n", str(n), "--a", "1" + "0" * 308, "--b", "1" + "0" * 308] for n in (10, 11, 12)],
    ["verify", "--n", "8", "--r", "7", "--a", "1+1i", "--b", "2", "--rel-tol", "1e-30"],
    *[["verify", "--n", "6", "--r", "6", "--rel-tol", tol] for tol in ("0", "nan")],
    ["verify", "--n", "4", "--r", "1", "--a", "0", "--b", "1"],
    ["verify", "--n", "8", "--r", "2000"],
    ["verify", "--n", "100", "--r", "1000", "--a", "100000000", "--b", "0.000000001"],
    ["verify", "--n", "6", "--r", "0"],
    ["verify", "--sweep", "--seed", "-1"],
    *[["det", "--t", t, "--x", x] for t, x in (("0", "1"), ("1", "0"), ("100", "1000"), ("100", "0.001"))],
    ["bench", "--n", "8", "--r", "2000", "--repeats", "3"],
    ["bench", "--n", "100", "--r", "1000", "--a", "100000000", "--b", "0.000000001", "--repeats", "3"],
    ["bench", "--n", "300", "--r", "20", "--a", "1", "--b", "4", "--route", "closed_form,spectral", "--repeats", "3"],
    ["bench", "--n", "128", "--r", "1026", "--route", "closed_form,spectral", "--repeats", "3"],
    ["bench", "--n", "0", "--r", "1"],
    ["bench", "--n", "4", "--r", "-1", "--repeats", "3"],
]
# the node sum's eigenvalue powers at r up to 10**18, on bands whose largest eigenvalue at n = 256 is about 1
_SPECTRAL_REACH = [
    ["power", "--route", "spectral", "--n", "256", "--r", str(r), "--a", "0.5001483090555375",
     "--b", "0.5001483090555375", "--format", "csv"]
    for r in (10**6, 10**7, 3 * 10**7, 10**18)
]
MANIFEST_CASES = [
    *[["power", "--n", str(n), "--r", r, "--a", a, "--b", b, "--route", route, "--format", fmt]
      for route in ("closed_form", "spectral", "oracle")
      for fmt in ("json", "csv", "pretty")
      for n in (3, 4, 5, 8, 9, 64, 65, 257)
      for a, b, r in _BANDS],
    *[["power", "--n", "1024", "--r", "1000000", "--a", "0.5", "--b", "0.5i", "--format", fmt] for fmt in ("json", "csv")],
    *[["eig", "--n", str(n), "--a", "2", "--b", "1+1i", "--format", fmt]
      for n in range(3, 13) for fmt in ("json", "csv", "pretty")],
    *[["det", "--t", str(t), "--x", x] for t in (1, 2, 3) for x in ("1", "0.5", "1+1i")],
    *_REFUSALS,
    *_SPECTRAL_REACH,
]


def _edge_matrix() -> np.ndarray:
    """Signed zeros, a subnormal, tiny and huge magnitudes: long positional digit strings."""
    values = [
        -0.0, 5e-324, 1e-300, 1e300, -1e300, 2.2250738585072014e-308, 0.1, -7.0,
        complex(-0.0, -0.0), complex(0.0, -0.0), complex(1e-300, -1e300), complex(-0.0, 2.5),
        complex(3.0, -0.0), complex(-5e-324, 1e300), complex(0.1, 0.1), 123456789.125,
    ]
    return np.array(values, dtype=complex).reshape(4, 4)


def _edge_outputs() -> dict[str, str]:
    matrix = _edge_matrix()
    spec = MatrixSpec(n=4, a=complex(-0.0, 1e-300), b=1e300)
    return {
        "edge_json": "".join(_matrix_json([matrix], spec, 3, "closed_form", 12345)),
        "edge_csv": "".join(_matrix_csv([matrix])),
        "edge_pretty": "".join(_matrix_pretty([matrix])),
    }


def _scrub(text: str) -> str:
    return re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', text)


def _cli_output(args: list[str]) -> str:
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, result.output
    return _scrub(result.output)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _manifest() -> dict[str, dict]:
    """Per command line of MANIFEST_CASES: the hash of its scrubbed stdout, its exit code and the hash of its stderr."""
    runner, out = CliRunner(), {}
    for args in MANIFEST_CASES:
        result = runner.invoke(cli, args)
        out[" ".join(args)] = {
            "stdout": _digest(_scrub(result.stdout)),
            "exit": result.exit_code,
            "stderr": _digest(result.stderr),
        }
    return out


def _golden(name: str) -> str:
    return gzip.decompress((GOLDEN / f"{name}.gz").read_bytes()).decode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    assert_same_text(_cli_output(CASES[name]), _golden(name))


@pytest.mark.parametrize("name", ["edge_json", "edge_csv", "edge_pretty"])
def test_formatter_matches_golden_on_edge_values(name):
    assert_same_text(_edge_outputs()[name], _golden(name))


def test_every_manifest_case_keeps_its_output():
    recorded = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    now = _manifest()
    assert sorted(now) == sorted(recorded)
    moved = [f"{case}: {recorded[case]} -> {now[case]}" for case in now if now[case] != recorded[case]]
    assert not moved, f"{len(moved)} of {len(now)} cases moved:\n" + "\n".join(moved)


def test_module_entry_point_matches_golden():
    # the benchmark's CLI workload runs `python -m pentapower.cli`, which CliRunner never does
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

    def run(*args):
        command = [sys.executable, "-m", "pentapower.cli", "power", *args]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    done = run(*_POWER["n6_r6"])
    assert done.returncode == 0, done.stderr
    assert_same_text(_scrub(done.stdout), _golden("power_n6_r6_json"))
    refused = run("--n", "2", "--r", "1")
    assert refused.returncode == 3
    assert refused.stdout == ""
    assert "matrix order must be >= 3, got 2" in refused.stderr


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    outputs = {name: _cli_output(args) for name, args in CASES.items()} | _edge_outputs()
    for name, text in outputs.items():
        (GOLDEN / f"{name}.gz").write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    (GOLDEN / "manifest.json").write_text(json.dumps(_manifest(), indent=1) + "\n", encoding="utf-8")
