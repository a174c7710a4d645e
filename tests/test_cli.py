import json
import math
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pentapower import MatrixSpec, PowerRequest, power_matrix, transform_even, transform_odd
from pentapower import cli as cli_module
from pentapower import oracle as oracle_module
from pentapower.cli import _matrix_json, cli, format_complex, parse_complex


@pytest.fixture()
def runner():
    return CliRunner()


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
        ["", "1 + 2i", "2e3", "1+2j", "--3", "3.", ".5", "i5", "1i+2", "+", "abc"],
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
        distinct = np.unique(parts[parts != 0]).size
        assert len(result.output.splitlines()) == 258
        assert 0 < len(calls) <= distinct + 1

    def test_json_refuses_nan(self):
        spec = MatrixSpec(n=3, a=1, b=1)
        with pytest.raises(ValueError):
            _matrix_json(np.full((3, 3), np.nan, dtype=complex), spec, 1, "closed_form", 0)

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
        expected = (transform_even if n % 2 == 0 else transform_odd)(spec).eigenvalues
        assert np.max(np.abs(np.array(values) - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_values_are_the_transform_eigenvalues(self, runner, n):
        for a, b in oracle_module.band_pairs(20240811, 5):
            spec = MatrixSpec(n=n, a=a, b=b)
            result = runner.invoke(cli, ["eig", "--n", str(n), "--a", format_complex(a), "--b", format_complex(b)])
            values = [complex(v["re"], v["im"]) for v in json.loads(result.output)["eigenvalues"]]
            assert values == list((transform_even if n % 2 == 0 else transform_odd)(spec).eigenvalues)


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
        monkeypatch.setitem(
            cli_module._ROUTES, "closed_form", lambda spec, r: np.zeros((spec.n, spec.n), dtype=complex)
        )
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
        nan_power = lambda spec, r: np.full((spec.n, spec.n), np.nan, dtype=complex)
        monkeypatch.setitem(cli_module._ROUTES, "oracle", nan_power)
        result = runner.invoke(cli, ["verify", "--n", "6", "--r", "6"])
        assert result.exit_code == 3
        assert "PASS" not in result.output

    def test_zero_exponent_exits_three(self, runner):
        result = runner.invoke(cli, ["verify", "--n", "6", "--r", "0"])
        assert result.exit_code == 3
        assert "verification needs r >= 1" in result.stderr

    def test_sweep_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--sweep"])
        assert result.exit_code == 0
        assert "500/500 cases passed" in result.output


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
