import functools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import assert_same_text
from hypothesis import given, settings
from hypothesis import strategies as st

from pentapower import MatrixSpec, PowerRequest, compare, naive_power, power_matrix, transform
from pentapower import cli as cli_module
from pentapower import oracle as oracle_module
from pentapower import power as power_module
from pentapower import spectrum as spectrum_module
from pentapower.cli import _matrix_json, cli, format_complex, parse_complex


@pytest.fixture()
def runner():
    return CliRunner()


@functools.cache
def _peak_kib(*args):
    """The peak RSS of ``python *args``, read by a small launcher so that pytest's is not inherited; cached, so
    that the import's is read once."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    command = [sys.executable, str(Path(__file__).with_name("peak_rss.py")), sys.executable, *args]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def _rows_to_array(document):
    return np.array(
        [[complex(cell["re"], cell["im"]) for cell in row] for row in document["rows"]]
    )


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("-3.5", -3.5 + 0j),
            ("1+1i", 1 + 1j),
            ("2-0.5i", 2 - 0.5j),
            ("i", 1j),
            ("-i", -1j),
            ("4.0i", 4j),
            ("+2", 2 + 0j),
            ("0.25+i", 0.25 + 1j),
            ("1+-2i", 1 - 2j),
        ],
    )
    def test_valid_literals(self, text, expected):
        assert parse_complex(text) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-0", (-0.0, 0.0)),
            ("-0i", (0.0, -0.0)),
            ("0-0i", (0.0, -0.0)),
            ("-0+-0i", (-0.0, -0.0)),
            ("1--i", (1.0, 1.0)),
            ("1-+i", (1.0, -1.0)),
            ("1++2.5i", (1.0, 2.5)),
            ("007", (7.0, 0.0)),
        ],
    )
    def test_signs_and_zeros(self, text, expected):
        value = parse_complex(text)
        signs = [math.copysign(1.0, part) for part in (value.real, value.imag)]
        assert (value.real, value.imag) == expected
        assert signs == [math.copysign(1.0, part) for part in expected]

    @pytest.mark.parametrize(
        "text",
        ["", "1 + 2i", "2e3", "1+2j", "--3", "3.", ".5", "i5", "1i+2", "+", "abc", "1\n", "1+i\n"],
    )
    def test_invalid_literals(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    @given(
        re_part=st.floats(allow_nan=False, allow_infinity=False),
        im_part=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, re_part, im_part):
        value = complex(re_part, im_part)
        assert parse_complex(format_complex(value)) == complex(re_part + 0.0, im_part + 0.0)

    def test_a_trailing_newline_is_a_usage_error(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "3", "--a", "1\n"])
        assert result.exit_code == 2
        assert "invalid complex literal: '1\\n'" in result.output

    def test_parameter_type_passes_a_complex_through(self):
        assert cli_module.ComplexValue().convert(1 + 2j, None, None) == 1 + 2j


class TestPowerCommand:
    def test_printed_six_by_six_json(self, runner):
        result = runner.invoke(
            cli, ["power", "--n", "6", "--r", "6", "--a", "2", "--b", "1+1i"]
        )
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert document["schema_version"] == "1"
        assert document["n"] == 6 and document["r"] == 6
        assert document["meta"]["route"] == "closed_form"
        expected = np.array(
            [
                [-64 + 64j, 0, 0, 0, 128j, 0],
                [0, -64 + 64j, 0, 0, 0, 128j],
                [0, 0, -128 + 128j, 0, 0, 0],
                [0, 0, 0, -128 + 128j, 0, 0],
                [-64, 0, 0, 0, -64 + 64j, 0],
                [0, -64, 0, 0, 0, -64 + 64j],
            ]
        )
        assert np.max(np.abs(_rows_to_array(document) - expected)) <= 1e-9

    def test_r_zero_identity(self, runner):
        result = runner.invoke(cli, ["power", "--n", "4", "--r", "0", "--a", "2", "--b", "3"])
        assert result.exit_code == 0
        matrix = _rows_to_array(json.loads(result.output))
        assert np.array_equal(matrix, np.eye(4, dtype=complex))

    def test_csv_printed_seven_by_seven(self, runner):
        result = runner.invoke(
            cli,
            ["power", "--n", "7", "--r", "5", "--a", "3", "--b", "2", "--format", "csv"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("c1_re,c1_im")
        first_row = lines[1].split(",")
        assert float(first_row[4]) == pytest.approx(540, abs=1e-6)
        assert float(first_row[5]) == pytest.approx(0, abs=1e-9)

    def test_routes_agree(self, runner):
        matrices = {}
        for route in ("closed_form", "spectral", "oracle"):
            result = runner.invoke(
                cli,
                ["power", "--n", "5", "--r", "4", "--a", "2", "--b", "3", "--route", route],
            )
            assert result.exit_code == 0
            matrices[route] = _rows_to_array(json.loads(result.output))
        assert np.max(np.abs(matrices["closed_form"] - matrices["oracle"])) <= 1e-8 * 144
        assert np.max(np.abs(matrices["spectral"] - matrices["oracle"])) <= 1e-8 * 144

    def test_deterministic_output(self, runner):
        args = ["power", "--n", "6", "--r", "3", "--a", "1+1i", "--b", "-0.5i"]
        first = runner.invoke(cli, args).output
        second = runner.invoke(cli, args).output
        scrub = lambda text: re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', text)
        assert scrub(first) == scrub(second)

    def test_negative_zero_is_normalised(self, runner):
        result = runner.invoke(cli, ["power", "--n", "4", "--r", "2", "--a", "1", "--b", "-1"])
        assert result.exit_code == 0
        assert "-0.0" not in result.output

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "matrix.json"
        result = runner.invoke(
            cli,
            ["power", "--n", "4", "--r", "1", "--a", "1", "--b", "1", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        document = json.loads(target.read_text())
        assert document["n"] == 4

    def test_domain_errors_exit_three(self, runner):
        for args in (
            ["power", "--n", "2", "--r", "1"],
            ["power", "--n", "4", "--r", "1", "--a", "0"],
            ["power", "--n", "4", "--r", "-1"],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 3

    def test_overflow_exits_three_without_nan(self, runner):
        result = runner.invoke(cli, ["power", "--n", "8", "--r", "2000", "--a", "1", "--b", "1"])
        assert result.exit_code == 3
        assert "NaN" not in result.output
        assert "RuntimeWarning" not in result.stderr
        # the largest entry counts walks of length 2000 on a path of 4 vertices: 6.8e417
        assert "about 1e417" in result.stderr

    def test_csv_formats_each_distinct_value_once(self, runner, monkeypatch):
        calls = []
        original = cli_module._format_float
        monkeypatch.setattr(cli_module, "_format_float", lambda v: calls.append(v) or original(v))
        args = ["power", "--n", "257", "--r", "300", "--a", "0.5", "--b", "0.5i", "--format", "csv"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        parts = power_matrix(PowerRequest(spec=MatrixSpec(n=257, a=0.5, b=0.5j), r=300)).view(float)
        moduli = np.unique(np.abs(parts[parts != 0])).size  # 2,903 here, against 4,334 distinct parts
        assert len(result.output.splitlines()) == 258
        assert 0 < len(calls) <= moduli + 1

    def test_json_refuses_nan(self):
        spec = MatrixSpec(n=3, a=1, b=1)
        with pytest.raises(ValueError):
            _matrix_json([np.full((3, 3), np.nan, dtype=complex)], spec, 1, "closed_form", 0)

    @pytest.mark.parametrize("route", ["spectral", "oracle"])
    def test_reference_routes_refuse_non_finite(self, runner, route):
        result = runner.invoke(
            cli, ["power", "--n", "8", "--r", "2000", "--a", "1", "--b", "1", "--route", route]
        )
        assert result.exit_code == 3
        assert "NaN" not in result.output

    def test_exponent_beyond_int64_underflows(self, runner):
        result = runner.invoke(
            cli, ["power", "--n", "8", "--r", "99999999999999999999", "--a", "0.5", "--b", "0.5"]
        )
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert document["r"] == 99999999999999999999
        assert np.array_equal(_rows_to_array(document), np.zeros((8, 8)))

    def test_exponent_beyond_int64_overflows(self, runner):
        result = runner.invoke(
            cli, ["power", "--n", "8", "--r", "99999999999999999999", "--a", "1", "--b", "1"]
        )
        assert result.exit_code == 3
        assert "beyond the double range" in result.stderr

    def test_unresolvable_reference_sum_exits_three(self, runner):
        result = runner.invoke(
            cli, ["power", "--route", "spectral", "--n", "300", "--r", "20", "--a", "1", "--b", "4"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "rounding bound" in result.stderr

    def test_overflowing_node_sum_names_its_eigenvalue_powers(self, runner):
        # the closed form fits doubles here; only the node sum's (2 sqrt(ab) x_k)**r overflow
        result = runner.invoke(cli, ["power", "--route", "spectral", "--n", "128", "--r", "1026"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "node sum for A**1026 has eigenvalue powers beyond the double range" in result.stderr

    @pytest.mark.parametrize("command", ["power", "verify", "bench", "det"])
    def test_order_beyond_memory_exits_three(self, runner, command):
        # 16 * 10**14 bytes per array at n = 10**7: refused before any n x n array is allocated;
        # det holds two, the dense matrix and the LU's working copy
        if command == "det":
            args, needed = ["det", "--t", "2500000", "--x", "1"], "3200000000000000 bytes"
        else:
            args, needed = [command, "--n", "10000000", "--r", "2"], "1600000000000000 bytes"
        result = runner.invoke(cli, args)
        assert result.exit_code == 3
        assert needed in result.stderr

    @pytest.mark.parametrize("route", ["closed_form", "spectral", "oracle"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_order_beyond_its_working_set_exits_three(self, runner, tmp_path, monkeypatch, route, fmt):
        # a cgroup v2 limit one byte below the counted working set refuses the order; the count itself admits it
        limit = tmp_path / "memory.max"
        monkeypatch.setattr(cli_module, "_CGROUP_MEMORY_MAX", str(limit))
        needed = cli_module._ROUTES[route][1] * 8**2
        args = ["power", "--n", "8", "--r", "3", "--route", route, "--format", fmt]
        limit.write_text(f"{needed - 1}\n")
        refused = runner.invoke(cli, args)
        assert refused.exit_code == 3
        assert refused.stdout == ""
        assert f"order 8 needs {needed} bytes" in refused.stderr
        assert f"more than {needed - 1} in memory" in refused.stderr
        limit.write_text(f"{needed}\n")
        assert runner.invoke(cli, args).exit_code == 0

    @pytest.mark.parametrize("limit", ["max\n", None, "twice"], ids=["max", "missing", "above_physical"])
    def test_memory_without_a_smaller_cgroup_limit_is_physical(self, runner, tmp_path, monkeypatch, limit):
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        path = tmp_path / "memory.max"
        if limit is not None:
            path.write_text(f"{2 * physical}\n" if limit == "twice" else limit)
        monkeypatch.setattr(cli_module, "_CGROUP_MEMORY_MAX", str(path))
        result = runner.invoke(cli, ["power", "--n", "10000000", "--r", "2"])
        assert result.exit_code == 3
        assert f"more than {physical} in memory" in result.stderr

    @pytest.mark.parametrize("route", ["closed_form", "spectral", "oracle"])
    @pytest.mark.parametrize("n", [511, 512])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_peak_rss_stays_within_the_counted_working_set(self, tmp_path, fmt, n, route):
        # each route's own count; n = 511 holds every route's worst bytes per cell
        args = ["power", "--n", str(n), "--r", "1000000", "--a", "0.5", "--b", "0.5i", "--route", route, "--format", fmt]
        powered = _peak_kib("-m", "pentapower.cli", *args, "--out", str(tmp_path / "power"))
        assert powered <= _peak_kib("-c", "import pentapower.cli") + cli_module._ROUTES[route][1] * n**2 // 1024

    @pytest.mark.parametrize(
        "args",
        [["power", "--n", "3", "--r", "5"], ["eig", "--n", "3"], ["bench", "--n", "4", "--r", "1", "--repeats", "3"]],
        ids=lambda args: args[0],
    )
    def test_out_in_a_missing_directory_is_a_usage_error(self, runner, tmp_path, args):
        result = runner.invoke(cli, [*args, "--out", str(tmp_path / "missing" / "x")])
        assert result.exit_code == 2
        assert "'--out'" in result.stderr
        assert not (tmp_path / "missing").exists()

    def test_usage_errors_exit_two(self, runner):
        for args in (
            ["power", "--n", "4", "--r", "1", "--a", "0..5"],
            ["power", "--n", "four", "--r", "1"],
            ["power", "--n", "4", "--r", "1", "--route", "warp"],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 2


class TestEigCommand:
    def test_even_unit_bands(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "4", "--a", "1", "--b", "1"])
        document = json.loads(result.output)
        values = [complex(v["re"], v["im"]) for v in document["eigenvalues"]]
        assert values == pytest.approx([1, 1, -1, -1])
        assert document["parity"] == "even"

    def test_odd_unit_bands(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "5", "--a", "1", "--b", "1"])
        values = [
            complex(v["re"], v["im"]) for v in json.loads(result.output)["eigenvalues"]
        ]
        assert values == pytest.approx([math.sqrt(2), 1, 0, -1, -math.sqrt(2)], abs=1e-12)

    def test_order_three(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "3", "--a", "1", "--b", "1"])
        values = [
            complex(v["re"], v["im"]) for v in json.loads(result.output)["eigenvalues"]
        ]
        assert values == pytest.approx([1, 0, -1], abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("zeros", [-200, 200])
    def test_bands_whose_product_leaves_the_double_range(self, runner, n, zeros):
        # a = b = 10**zeros, typed out in full: a*b is inf or 0 as a double, sqrt(ab) = a is not
        band = "1" + "0" * zeros if zeros > 0 else "0." + "0" * (-zeros - 1) + "1"
        result = runner.invoke(cli, ["eig", "--n", str(n), "--a", band, "--b", band])
        assert result.exit_code == 0
        values = [v["re"] for v in json.loads(result.output)["eigenvalues"]]
        expected = [
            2 * 10.0**zeros * math.cos(k * math.pi / (m + 1))
            for m in (n // 2 + n % 2, n // 2)
            for k in range(1, m + 1)
        ]
        assert sorted(values) == pytest.approx(sorted(expected), rel=1e-12, abs=1e-15 * 10.0**zeros)

    def test_an_exact_zero_prints_as_zero(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "3", "--format", "pretty"])
        assert result.output.splitlines()[1] == "0"

    def test_json_formats_each_distinct_value_once(self, runner, monkeypatch):
        calls = []
        original = cli_module._json_float
        monkeypatch.setattr(cli_module, "_json_float", lambda v: calls.append(v) or original(v))
        result = runner.invoke(cli, ["eig", "--n", "64"])
        assert result.exit_code == 0
        values = transform(MatrixSpec(n=64, a=1, b=1)).eigenvalues
        assert len(json.loads(result.output)["eigenvalues"]) == 64
        # the 32 distinct values are 16 moduli of either sign
        assert len(calls) == np.unique(np.abs(values[values != 0])).size + 1

    def test_values_pair_as_exact_negatives(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "7"])
        values = [complex(v["re"], v["im"]) for v in json.loads(result.output)["eigenvalues"]]
        ascending = sorted(values, key=lambda v: (v.real, v.imag))
        assert ascending == [-v for v in reversed(ascending)]

    def test_csv_format(self, runner):
        result = runner.invoke(cli, ["eig", "--n", "4", "--format", "csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 5

    @pytest.mark.parametrize("n", range(3, 13))
    def test_bands_near_the_top_of_the_double_range(self, runner, n):
        # a = b = 1e308: sqrt(ab) = 1e308 fits, 2*sqrt(ab) does not; the largest
        # eigenvalue 2e308*cos(pi/(m+1)) fits up to m = 5 (n = 10) and overflows beyond
        band = "1" + "0" * 308
        result = runner.invoke(cli, ["eig", "--n", str(n), "--a", band, "--b", band])
        if n > 10:
            assert result.exit_code == 3
            assert result.stdout == ""
            assert "eigenvalues of order" in result.stderr
            return
        assert result.exit_code == 0
        values = [complex(v["re"], v["im"]) for v in json.loads(result.output)["eigenvalues"]]
        spec = MatrixSpec(n=n, a=1e308, b=1e308)
        expected = transform(spec).eigenvalues
        assert np.max(np.abs(np.array(values) - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_values_are_the_transform_eigenvalues(self, runner, n):
        for a, b in oracle_module.band_pairs(20240811, 5):
            spec = MatrixSpec(n=n, a=a, b=b)
            result = runner.invoke(cli, ["eig", "--n", str(n), "--a", format_complex(a), "--b", format_complex(b)])
            values = [complex(v["re"], v["im"]) for v in json.loads(result.output)["eigenvalues"]]
            assert values == list(transform(spec).eigenvalues)


class TestVerifyCommand:
    def test_single_case_passes(self, runner):
        result = runner.invoke(
            cli, ["verify", "--n", "6", "--r", "6", "--a", "2", "--b", "1+1i"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("PASS")
        assert "max_rel=" in result.output

    def test_unreachable_tolerance_exits_one(self, runner):
        result = runner.invoke(
            cli,
            ["verify", "--n", "8", "--r", "7", "--a", "1+1i", "--b", "2", "--rel-tol", "1e-30"],
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_non_positive_tolerance_exits_three(self, runner, tol):
        result = runner.invoke(cli, ["verify", "--n", "6", "--r", "6", "--rel-tol", tol])
        assert result.exit_code == 3
        assert "rel-tol must be positive" in result.stderr

    def test_domain_error(self, runner):
        result = runner.invoke(cli, ["verify", "--n", "4", "--r", "1", "--a", "0", "--b", "1"])
        assert result.exit_code == 3
        assert "nonzero" in result.stderr

    def test_non_normal_case_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--n", "300", "--r", "20", "--a", "1", "--b", "4"])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")

    def test_zero_candidate_fails_a_small_reference(self, runner, monkeypatch):
        # every entry of this reference is below 1e-8, so only a floored scale would pass zeros
        zeros = lambda spec, r: spectrum_module._lane_copies(np.zeros((spec.n, spec.n), dtype=complex))
        monkeypatch.setitem(cli_module._ROUTES, "closed_form", (zeros, cli_module._ROUTES["closed_form"][1]))
        result = runner.invoke(cli, ["verify", "--n", "8", "--r", "20", "--a", "0.1", "--b", "0.1"])
        assert result.exit_code == 1
        assert result.output.startswith("FAIL")

    def test_overflow_exits_three(self, runner):
        result = runner.invoke(cli, ["verify", "--n", "8", "--r", "2000"])
        assert result.exit_code == 3
        assert "beyond the double range" in result.stderr

    def test_overflowed_oracle_exits_three(self, runner):
        # the closed form fits doubles (largest entry 9.4e204); the oracle's squarings overflow
        args = ["verify", "--n", "100", "--r", "1000", "--a", "100000000", "--b", "0.000000001"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 3
        assert "PASS" not in result.output and "FAIL" not in result.output
        assert "A**1000 by the oracle route went beyond the double range" in result.stderr

    def test_non_finite_oracle_is_refused_not_passed(self, runner, monkeypatch):
        nan_power = lambda spec, r: spectrum_module._lane_copies(np.full((spec.n, spec.n), np.nan, dtype=complex))
        monkeypatch.setitem(cli_module._ROUTES, "oracle", (nan_power, cli_module._ROUTES["oracle"][1]))
        result = runner.invoke(cli, ["verify", "--n", "6", "--r", "6"])
        assert result.exit_code == 3
        assert "PASS" not in result.output

    @pytest.mark.parametrize("n", [5, 6, 64, 65])
    def test_lanes_give_the_verdict_of_the_matrices(self, runner, n):
        # every cell off the lanes is an exact 0 on both sides: the n x n comparison has the same verdict and max_rel
        verdicts = set()
        for a, b in oracle_module.band_pairs(20240811, 3):
            spec = MatrixSpec(n=n, a=a, b=b)
            for r in (1, 7, 30):
                lanes = [cli_module._flat(cli_module._computed(route, spec, r)) for route in ("closed_form", "oracle")]
                for rel_tol in (1e-8, 1e-15):
                    matrices = compare(power_matrix(PowerRequest(spec=spec, r=r)), naive_power(spec, r), rel_tol)
                    report = compare(*lanes, rel_tol)
                    assert (report.passed, report.max_rel_deviation) == (matrices.passed, matrices.max_rel_deviation)
                    verdicts.add(matrices.passed)
                    args = ["--n", str(n), "--r", str(r), "--a", format_complex(a), "--b", format_complex(b)]
                    printed = runner.invoke(cli, ["verify", *args, "--rel-tol", str(rel_tol)]).output.splitlines()[0]
                    assert printed.startswith("PASS" if matrices.passed else "FAIL")
                    assert printed.endswith(f"max_rel={matrices.max_rel_deviation:.3e}")
        assert verdicts == {True, False}

    def test_zero_exponent_exits_three(self, runner):
        result = runner.invoke(cli, ["verify", "--n", "6", "--r", "0"])
        assert result.exit_code == 3
        assert "verification needs r >= 1" in result.stderr

    def test_sweep_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--sweep"])
        assert result.exit_code == 0
        assert "500/500 cases passed" in result.output

    def test_negative_seed_is_a_usage_error(self, runner):
        result = runner.invoke(cli, ["verify", "--sweep", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed" in result.stderr


class TestDetCommand:
    @pytest.mark.parametrize(
        "t,x,expected",
        [("1", "1", "-1"), ("1", "2", "-4"), ("2", "1", "1")],
    )
    def test_small_cases(self, runner, t, x, expected):
        result = runner.invoke(cli, ["det", "--t", t, "--x", x])
        assert result.exit_code == 0
        assert f"lu_det={expected}" in result.output
        assert f"formula={expected}" in result.output
        assert "PASS" in result.output

    def test_rejects_bad_t(self, runner):
        result = runner.invoke(cli, ["det", "--t", "0", "--x", "1"])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "t,x",
        [
            ("1", "0"),  # a = 0 is no matrix of the family
            ("100", "1000"),  # (1000i)**200 = 1e600 overflows, and so does the LU product
            ("100", "0.001"),  # 1e-600 underflows to 0, where a check of 0 against 0 would pass
        ],
    )
    def test_values_outside_doubles_exit_three(self, runner, t, x):
        result = runner.invoke(cli, ["det", "--t", t, "--x", x])
        assert result.exit_code == 3
        assert result.stdout == ""

    @pytest.mark.parametrize("x", ["0.028", "0.03"])
    def test_subnormal_determinants_pass(self, runner, x):
        result = runner.invoke(cli, ["det", "--t", "100", "--x", x])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_zero_lu_determinant_fails(self, runner, monkeypatch):
        monkeypatch.setattr(oracle_module, "determinant", lambda matrix: 0j)
        result = runner.invoke(cli, ["det", "--t", "2", "--x", "1+1i"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1].endswith("FAIL")


class TestBenchCommand:
    def test_route_agreement_rows(self, runner):
        result = runner.invoke(
            cli,
            [
                "bench",
                "--n", "8",
                "--r", "5",
                "--route", "closed_form,spectral,oracle",
                "--repeats", "3",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,r,route,median_ns,max_rel_vs_oracle"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert int(fields[3]) > 0
            assert float(fields[4]) <= 1e-8

    def test_overflow_exits_three(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "8", "--r", "2000", "--repeats", "3"])
        assert result.exit_code == 3
        assert "beyond the double range" in result.stderr

    def test_overflow_names_the_route_before_the_oracle(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "8", "--r", "2000", "--repeats", "3"])
        assert result.exit_code == 3
        assert "the largest entry of A**2000 is about 1e417" in result.stderr

    def test_oracle_only_overflow_names_the_oracle(self, runner):
        # the closed form fits doubles (largest entry 9.4e204); the oracle's squarings overflow
        args = ["bench", "--n", "100", "--r", "1000", "--a", "100000000", "--b", "0.000000001"]
        result = runner.invoke(cli, [*args, "--repeats", "3"])
        assert result.exit_code == 3
        assert "A**1000 by the oracle route went beyond the double range" in result.stderr

    def test_unresolvable_reference_sum_exits_three(self, runner):
        result = runner.invoke(
            cli,
            [
                "bench",
                "--n", "300",
                "--r", "20",
                "--a", "1",
                "--b", "4",
                "--route", "closed_form,spectral",
                "--repeats", "3",
            ],
        )
        assert result.exit_code == 3
        assert "rounding bound" in result.stderr

    def test_overflowing_reference_sum_exits_three(self, runner):
        # the closed form fits doubles here, but the node sum's eigenvalue powers overflow
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                cli,
                [
                    "bench",
                    "--n", "128",
                    "--r", "1026",
                    "--route", "closed_form,spectral",
                    "--repeats", "3",
                ],
            )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert not caught

    def test_zero_order_exits_three(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "0", "--r", "1"])
        assert result.exit_code == 3

    def test_negative_exponent_exits_three(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "4", "--r", "-1", "--repeats", "3"])
        assert result.exit_code == 3
        assert "exponent must be >= 0, got -1" in result.stderr

    def test_too_few_repeats_exits_three(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "4", "--r", "1", "--repeats", "2"])
        assert result.exit_code == 3

    def test_unknown_route_exits_two(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "4", "--r", "1", "--route", "warp"])
        assert result.exit_code == 2

    def test_empty_list_exits_two(self, runner):
        result = runner.invoke(cli, ["bench", "--n", "", "--r", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag,text", [("--route", ","), ("--n", "4,x")])
    def test_malformed_list_exits_two(self, runner, flag, text):
        result = runner.invoke(cli, ["bench", "--n", "4", "--r", "1", flag, text])
        assert result.exit_code == 2


def _per_cell(values, fmt, width, sep, row_sep):
    """The block writer's reference: ``fmt`` of every cell, no table of distinct values."""
    cells = [fmt(value) for value in values.tolist()]
    return row_sep.join(sep.join(cells[i : i + width]) for i in range(0, len(cells), width))


def _writer_values(size, seed):
    """Seeded values: repeats, zeros and parts of either sign, and fresh ones that never repeat."""
    rng = np.random.default_rng(seed)
    pool = np.array(
        [0.0, -0.0, 1.5, -1.5, complex(-0.0, 2.0), complex(0.0, 2.0), complex(3.0, -0.0),
         complex(-0.0, -0.0), complex(1e-300, 1e300), 0.1 + 0.2j, -7.0, 2.0],
        dtype=complex,
    )
    fresh = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return np.where(rng.random(size) < 0.7, rng.choice(pool, size), fresh)


def _colliding_keys(monkeypatch):
    # keep 3 of the 64 key bits: distinct values share a key, and equal ones may be split apart
    key = cli_module._sort_key
    monkeypatch.setattr(cli_module, "_sort_key", lambda values: key(values) & np.uint64(7))


def _signed_moduli():
    """Each modulus with both signs, in either part and within one cell, where the digits are hardest to fold: the
    subnormals' and normals' ends, the largest double, and the neighbours of 1e-4 and 1e16, where ``repr`` switches
    between positional and exponent form; integral values lose their dot in csv and pretty."""
    ends = [5e-324, 2.2250738585072014e-308, 1e-300, 1e300, np.finfo(float).max, 1.0, 7.0, 2.0**53]
    moduli = ends + [np.nextafter(edge, toward) for edge in (1e-4, 1e16) for toward in (0.0, edge, np.inf)]
    cells = [complex(re, im) for m in moduli for re, im in
             [(m, m), (-m, m), (m, -m), (-m, -m), (m, 0.0), (-m, -0.0), (-0.0, m), (0.0, -m), (-m, 1.0), (1.0, -m)]]
    cells += [complex(-0.0, -0.0), complex(-1e-300, 1e300), complex(1e300, -1e-300)]
    n = math.isqrt(len(cells) - 1) + 1
    return np.array(cells + [0j] * (n * n - len(cells))).reshape(n, n)


_WRITER_MATRICES = {
    "n3": lambda: _writer_values(9, 1).reshape(3, 3),
    # 200 rows of 200 cells: the chunks of whole rows (163, then 37; csv 81, 81, 38) leave a remainder
    "n200": lambda: _writer_values(200 * 200, 2).reshape(200, 200),
    "zeros": lambda: np.where(np.arange(36) % 3 == 0, complex(-0.0, -0.0), 0j).reshape(6, 6),
    "signed_moduli": _signed_moduli,
}


class TestBlockWriter:
    @pytest.mark.parametrize("collide", [False, True], ids=["mixed_key", "colliding_key"])
    @pytest.mark.parametrize("name", sorted(_WRITER_MATRICES))
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_power_formats_match_per_cell_formatting(self, monkeypatch, fmt, name, collide):
        if collide:
            _colliding_keys(monkeypatch)
        matrix = _WRITER_MATRICES[name]()
        n = matrix.shape[0]
        if fmt == "json":
            spec = MatrixSpec(n=n, a=0.5, b=-0.0 + 2j)
            written = "".join(cli_module._matrix_json([matrix], spec, 7, "oracle", 42))
            pairs = [[{"re": v.real + 0.0, "im": v.imag + 0.0} for v in row] for row in matrix.tolist()]
            expected = json.dumps(
                {"schema_version": "1", "n": n, "r": 7, "a": {"re": 0.5, "im": 0.0}, "b": {"re": 0.0, "im": 2.0},
                 "rows": pairs, "meta": {"route": "oracle", "elapsed_ns": 42}}
            )
        elif fmt == "csv":
            written = "".join(cli_module._matrix_csv([matrix]))
            header = ",".join(f"c{j}_re,c{j}_im" for j in range(1, n + 1))
            parts = np.ravel(matrix).view(np.float64)
            expected = f"{header}\n{_per_cell(parts, cli_module._format_float, 2 * n, ',', chr(10))}"
        else:
            written = "".join(cli_module._matrix_pretty([matrix]))
            width = max(len(format_complex(v)) for v in matrix.ravel().tolist())
            expected = _per_cell(np.ravel(matrix), lambda v: format_complex(v).rjust(width), n, "  ", "\n")
        assert_same_text(written, expected)

    @pytest.mark.parametrize("collide", [False, True], ids=["mixed_key", "colliding_key"])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_eig_formats_match_per_cell_formatting(self, runner, monkeypatch, fmt, collide):
        # 40000 values: csv chunks of 16384 rows and pretty ones of 32768 leave a remainder
        if collide:
            _colliding_keys(monkeypatch)
        values = _writer_values(40_000, 3)
        monkeypatch.setattr(cli_module, "_eigenvalues", lambda spec: values)
        result = runner.invoke(cli, ["eig", "--n", "40000", "--a", "2", "--b", "1+1i", "--format", fmt])
        assert result.exit_code == 0
        if fmt == "json":
            expected = json.dumps(
                {"schema_version": "1", "n": 40000, "a": {"re": 2.0, "im": 0.0}, "b": {"re": 1.0, "im": 1.0},
                 "parity": "even", "eigenvalues": [{"re": v.real + 0.0, "im": v.imag + 0.0} for v in values.tolist()]}
            )
        elif fmt == "csv":
            expected = "re,im\n" + _per_cell(values.view(np.float64), cli_module._format_float, 2, ",", "\n")
        else:
            expected = _per_cell(values, format_complex, 1, "", "\n")
        assert_same_text(result.output, expected + "\n")

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_a_real_matrix_prints_as_its_complex_copy(self, fmt, dtype):
        # _sort_key reads complex bits: an int64 matrix of 9 cells, read as 4.5 complex values, lost a cell
        spec = MatrixSpec(n=3, a=1, b=1)
        write = {"json": lambda m: cli_module._matrix_json(m, spec, 1, "oracle", 0),
                 "csv": cli_module._matrix_csv, "pretty": cli_module._matrix_pretty}[fmt]
        matrix = np.arange(-4, 5).reshape(3, 3)
        assert "".join(write([matrix.astype(dtype)])) == "".join(write([matrix.astype(complex)]))

    def test_a_colliding_key_formats_a_value_twice_but_never_wrongly(self, monkeypatch):
        _colliding_keys(monkeypatch)
        values = _writer_values(200 * 200, 2)
        texts, (index,) = cli_module._lane_table([values], "json")
        assert len(set(texts.tolist())) < len(texts)
        pairs = (json.dumps({"re": v.real + 0.0, "im": v.imag + 0.0}) for v in values.tolist())
        assert_same_text("\n".join(texts[index].tolist()), "\n".join(pairs))


def _per_cell_document(matrix, fmt, a, b, r):
    """``power``'s document for an n x n matrix, every cell formatted on its own (each distinct one once)."""
    n = matrix.shape[0]
    if fmt == "json":
        pair = functools.lru_cache(maxsize=None)(lambda v: json.dumps({"re": v.real + 0.0, "im": v.imag + 0.0}))
        head = json.dumps({"schema_version": "1", "n": n, "r": r, "a": cli_module._pair(a), "b": cli_module._pair(b)})
        meta = json.dumps({"route": "closed_form", "elapsed_ns": 0})
        return f'{head[:-1]}, "rows": [[{_per_cell(np.ravel(matrix), pair, n, ", ", "], [")}]], "meta": {meta}}}'
    if fmt == "csv":
        header = ",".join(f"c{j}_re,c{j}_im" for j in range(1, n + 1))
        part = functools.lru_cache(maxsize=None)(cli_module._format_float)
        return f"{header}\n{_per_cell(np.ravel(matrix).view(np.float64), part, 2 * n, ',', chr(10))}"
    width = max(len(format_complex(v)) for v in np.ravel(matrix).tolist())
    cell = functools.lru_cache(maxsize=None)(lambda v: format_complex(v).rjust(width))
    return _per_cell(np.ravel(matrix), cell, n, "  ", "\n")


@pytest.fixture()
def no_assembly(monkeypatch):
    by_lanes = spectrum_module._by_lanes

    def lanes_only(n, lane, *, matrix=True):
        if matrix:
            raise AssertionError(f"an order-{n} matrix was assembled")
        return by_lanes(n, lane, matrix=False)

    monkeypatch.setattr(spectrum_module, "_by_lanes", lanes_only)
    monkeypatch.setattr(power_module, "_by_lanes", lanes_only)


class TestLaneWriter:
    """Every route hands the writer its power's two lanes; the bytes are those of its n x n matrix."""

    @pytest.mark.parametrize("r", [0, 1, 2, 7, 300])
    @pytest.mark.parametrize("a,b", [("2", "1+1i"), ("0.5", "0.5i")])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 200, 201])
    def test_power_matches_per_cell_formatting_of_the_matrix(self, runner, n, fmt, a, b, r):
        # n = 3 has a one-cell lane; at 200 and 201 the chunks of whole rows leave a remainder
        self._assert_per_cell(runner, n, fmt, a, b, r)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_the_dense_benchmark_case_matches_per_cell_formatting(self, runner, fmt):
        # perfbench's cli_dense command: 70,769 distinct non-zero parts, 47,249 distinct moduli
        self._assert_per_cell(runner, 1024, fmt, "0.5", "0.5i", 10**6)

    @staticmethod
    def _assert_per_cell(runner, n, fmt, a, b, r):
        args = ["power", "--n", str(n), "--r", str(r), "--a", a, "--b", b, "--format", fmt]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.stderr
        spec = MatrixSpec(n=n, a=parse_complex(a), b=parse_complex(b))
        expected = _per_cell_document(power_matrix(PowerRequest(spec=spec, r=r)), fmt, spec.a, spec.b, r)
        assert_same_text(re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', result.output), expected + "\n")

    @pytest.mark.parametrize("n", [8, 9])
    def test_an_even_orders_rows_share_one_index(self, n):
        lanes = power_module.power_lanes(PowerRequest(spec=MatrixSpec(n=n, a=2, b=1 + 1j), r=7))
        _, (first, second) = cli_module._lane_table(list(lanes), "csv")
        assert (first is second) == (n % 2 == 0)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_closed_form_builds_no_n_by_n_matrix(self, runner, no_assembly, fmt):
        args = ["power", "--route", "closed_form", "--format", fmt]
        for n in ("8", "9"):
            assert runner.invoke(cli, [*args, "--n", n, "--r", "7", "--a", "2", "--b", "1+1i"]).exit_code == 0
        refusals = {"about 1e417": ["--n", "8", "--r", "2000"]}
        refusals["span more than"] = ["--n", "2400", "--r", "1169", "--b", "0.01"]
        for reason, refused in refusals.items():
            result = runner.invoke(cli, [*args, *refused])
            assert result.exit_code == 3
            assert result.stdout == ""
            assert reason in result.stderr

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_spectral_route_builds_no_n_by_n_matrix(self, runner, no_assembly, fmt):
        for n, r in (("8", "0"), ("8", "7"), ("9", "7")):
            args = ["power", "--route", "spectral", "--format", fmt, "--n", n, "--r", r, "--a", "2", "--b", "1+1i"]
            assert runner.invoke(cli, args).exit_code == 0
