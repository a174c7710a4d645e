"""Command line front end.

Subcommands: power, eig, verify, det, bench. JSON is the default output
format where a document makes sense; csv and pretty are available too.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error (valid flags, but bad matrix parameters, an order beyond memory, a
power, eigenvalue or determinant beyond doubles, or an unresolvable sum).

Complex values on the command line use a compact literal: ``2``, ``-3.5``,
``1+1i``, ``2-0.5i``, ``i``, ``-i``, ``4.0i``. No whitespace, no exponent
notation, imaginary unit spelled ``i``.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import sys
import time

import click
import numpy as np

from .oracle import _determinant_corollary, band_pairs, compare, naive_power
from .power import PowerRequest, power_matrix, power_via_spectral
from .spectrum import MatrixSpec, _eigenvalues

_REAL = r"[+-]?\d+(?:\.\d+)?"
_IMAG = r"[+-]?(?:\d+(?:\.\d+)?)?i"
_COMPLEX_RE = re.compile(rf"^(?:{_REAL}|{_IMAG}|{_REAL}[+-]{_IMAG})$")


def parse_complex(text: str) -> complex:
    """Parse a complex literal; raises ValueError on anything off-grammar."""
    if _COMPLEX_RE.match(text) is None:
        raise ValueError(f"invalid complex literal: {text!r}")
    # complex() takes one sign between the parts and spells the unit j
    merged = re.sub(r"[+-]{2}", lambda signs: "+" if signs[0][0] == signs[0][1] else "-", text)
    return complex(merged.replace("i", "j"))


def _format_float(value: float) -> str:
    # positional, shortest digits that round-trip; integral values lose the dot
    return np.format_float_positional(value + 0.0, trim="-")


def format_complex(value: complex) -> str:
    re_part = value.real + 0.0
    im_part = value.imag + 0.0
    if im_part == 0.0:
        return _format_float(re_part)
    if re_part == 0.0:
        return f"{_format_float(im_part)}i"
    sign = "+" if im_part >= 0 else "-"
    return f"{_format_float(re_part)}{sign}{_format_float(abs(im_part))}i"


class ComplexValue(click.ParamType):
    name = "complex"

    def convert(self, value, param, ctx):
        if isinstance(value, complex):
            return value
        try:
            return parse_complex(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


COMPLEX = ComplexValue()


class DomainError(click.ClickException):
    exit_code = 3


def _make_spec(n: int, a: complex, b: complex) -> MatrixSpec:
    try:
        return MatrixSpec(n=n, a=a, b=b)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc


def _pair(value: complex) -> dict:
    return {"re": value.real + 0.0, "im": value.imag + 0.0}


def _emit(text: str, out: str | None) -> None:
    # the newline goes out on its own: appending it would copy the whole document
    if out is None:
        click.echo(text, nl=False)
        click.echo()
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines((text, "\n"))


def _cell_texts(values: np.ndarray, fmt) -> list[str]:
    """``fmt`` of every cell of a flat array, called once per distinct non-zero value.

    Most entries of a power are exact zeros and the rest repeat along diagonals.
    Zeros of either sign share the text of ``0``: every ``fmt`` here adds ``0.0``.
    """
    nonzero = np.flatnonzero(values)
    distinct, inverse = np.unique(values[nonzero], return_inverse=True)
    zero = values.dtype.type().item()
    texts = np.array([fmt(v) for v in [zero, *distinct.tolist()]], dtype=object)
    index = np.zeros(values.size, dtype=np.intp)
    index[nonzero] = inverse + 1
    return texts[index].tolist()


def _rows(cells: list[str], width: int, sep: str) -> list[str]:
    return [sep.join(cells[i : i + width]) for i in range(0, len(cells), width)]


def _parts(values: np.ndarray) -> np.ndarray:
    """Real and imaginary parts interleaved, as the CSV columns list them."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1).view(np.float64)


def _json_pair(value: complex) -> str:
    # the text json.dumps gives _pair(value): floats are written with repr
    return '{"re": %r, "im": %r}' % (value.real + 0.0, value.imag + 0.0)


def _matrix_json(matrix: np.ndarray, spec: MatrixSpec, r: int, route: str, elapsed_ns: int) -> str:
    if not np.isfinite(matrix).all():
        raise ValueError("Out of range float values are not JSON compliant")
    head = json.dumps(
        {"schema_version": "1", "n": spec.n, "r": r, "a": _pair(spec.a), "b": _pair(spec.b)},
        allow_nan=False,
    )
    rows = "], [".join(_rows(_cell_texts(np.ravel(matrix), _json_pair), matrix.shape[1], ", "))
    meta = json.dumps({"route": route, "elapsed_ns": elapsed_ns})
    return f'{head[:-1]}, "rows": [[{rows}]], "meta": {meta}}}'


def _matrix_csv(matrix: np.ndarray) -> str:
    n = matrix.shape[0]
    header = ",".join(f"c{j}_re,c{j}_im" for j in range(1, n + 1))
    return "\n".join([header, *_rows(_cell_texts(_parts(matrix), _format_float), 2 * n, ",")])


def _matrix_pretty(matrix: np.ndarray) -> str:
    cells = _cell_texts(np.ravel(matrix), format_complex)
    width = max(map(len, cells))
    return "\n".join(_rows([c.rjust(width) for c in cells], matrix.shape[1], "  "))


_ROUTES = {
    "closed_form": lambda spec, r: power_matrix(PowerRequest(spec=spec, r=r)),
    "spectral": lambda spec, r: power_via_spectral(PowerRequest(spec=spec, r=r)),
    "oracle": naive_power,
}


def _require_memory(n: int, arrays: int) -> None:
    needed, memory = arrays * 16 * n**2, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > memory:
        raise DomainError(f"order {n} needs {needed} bytes, more than the {memory} in memory")


def _computed(route: str, spec: MatrixSpec, r: int) -> np.ndarray:
    """The route's r-th power, or a domain error where r, memory, doubles or rounding fail it."""
    if r < 0:
        raise DomainError(f"exponent must be >= 0, got {r}")
    _require_memory(spec.n, 1)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = _ROUTES[route](spec, r)
    except ArithmeticError as exc:
        raise DomainError(str(exc)) from exc
    if not np.isfinite(matrix).all():
        raise DomainError(f"A**{r} by the {route} route went beyond the double range")
    return matrix


@click.group()
def cli():
    """Powers, eigenvalues and verification for two-band Toeplitz matrices."""


@cli.command("power")
@click.option("--n", type=int, required=True, help="Matrix order (>= 3).")
@click.option("--r", type=int, required=True, help="Exponent (>= 0).")
@click.option("--a", type=COMPLEX, default="1", help="Value on the +2 band.")
@click.option("--b", type=COMPLEX, default="1", help="Value on the -2 band.")
@click.option(
    "--route",
    type=click.Choice(["closed_form", "spectral", "oracle"]),
    default="closed_form",
)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def power_cmd(n, r, a, b, route, fmt, out):
    """Compute the r-th power and print it."""
    spec = _make_spec(n, a, b)
    start = time.perf_counter_ns()
    matrix = _computed(route, spec, r)
    elapsed_ns = time.perf_counter_ns() - start
    if fmt == "json":
        text = _matrix_json(matrix, spec, r, route, elapsed_ns)
    elif fmt == "csv":
        text = _matrix_csv(matrix)
    else:
        text = _matrix_pretty(matrix)
    _emit(text, out)


@cli.command("eig")
@click.option("--n", type=int, required=True)
@click.option("--a", type=COMPLEX, default="1")
@click.option("--b", type=COMPLEX, default="1")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def eig_cmd(n, a, b, fmt, out):
    """List the eigenvalues, with multiplicities, in construction order."""
    spec = _make_spec(n, a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _eigenvalues(spec)
    if not np.isfinite(values).all():
        raise DomainError(f"the eigenvalues of order {n} go beyond the double range")
    if fmt == "json":
        document = {
            "schema_version": "1",
            "n": spec.n,
            "a": _pair(spec.a),
            "b": _pair(spec.b),
            "parity": "even" if spec.is_even else "odd",
            "eigenvalues": [_pair(complex(v)) for v in values],
        }
        text = json.dumps(document)
    elif fmt == "csv":
        text = "\n".join(["re,im", *_rows(_cell_texts(_parts(values), _format_float), 2, ",")])
    else:
        text = "\n".join(_cell_texts(values, format_complex))
    _emit(text, out)


@cli.command("verify")
@click.option("--n", type=int, default=6)
@click.option("--r", type=int, default=6)
@click.option("--a", type=COMPLEX, default="1")
@click.option("--b", type=COMPLEX, default="1")
@click.option("--seed", type=int, default=20240811, help="Seed for --sweep band values.")
@click.option("--sweep", is_flag=True, help="Run the full grid instead of one case.")
@click.option("--rel-tol", type=float, default=1e-8)
def verify_cmd(n, r, a, b, seed, sweep, rel_tol):
    """Check the closed form against the brute-force oracle."""
    if not rel_tol > 0:
        raise DomainError(f"rel-tol must be positive, got {rel_tol}")
    if sweep:
        cases = [
            (order, exponent, av, bv)
            for order in range(3, 13)
            for exponent in range(1, 11)
            for av, bv in band_pairs(seed, 5)
        ]
    else:
        if r < 1:
            raise DomainError(f"verification needs r >= 1, got {r}")
        cases = [(n, r, a, b)]
    failures = 0
    for order, exponent, av, bv in cases:
        spec = _make_spec(order, av, bv)
        candidate = _computed("closed_form", spec, exponent)
        report = compare(candidate, _computed("oracle", spec, exponent), rel_tol)
        status = "PASS" if report.passed else "FAIL"
        failures += 0 if report.passed else 1
        click.echo(
            f"{status} n={order} r={exponent} a={format_complex(av)} "
            f"b={format_complex(bv)} max_rel={report.max_rel_deviation:.3e}"
        )
    click.echo(f"{len(cases) - failures}/{len(cases)} cases passed")
    if failures:
        sys.exit(1)


@cli.command("det")
@click.option("--t", type=int, required=True, help="Quarter order; the matrix has n = 4t.")
@click.option("--x", type=COMPLEX, required=True, help="Value placed on the +2 band.")
def det_cmd(t, x):
    """Determinant identity check for order 4t with the -2 band set to i."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    spec = _make_spec(4 * t, x, 1j)
    _require_memory(spec.n, 2)  # the dense matrix and the LU's working copy
    with np.errstate(over="ignore", invalid="ignore"):
        report, lu_value, formula_value = _determinant_corollary(t, x, 1e-9)
    # x != 0, so a zero formula has underflowed; then the check would compare 0 with 0
    if formula_value == 0 or not np.isfinite([lu_value, formula_value]).all():
        raise DomainError(f"the determinant of order {spec.n}, (i*x)**{2 * t}, lies outside the double range")
    status = "PASS" if report.passed else "FAIL"
    click.echo(f"lu_det={format_complex(lu_value)}")
    click.echo(f"formula={format_complex(formula_value)}")
    click.echo(f"deviation={report.max_abs_deviation:.3e} {status}")
    if not report.passed:
        sys.exit(1)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise click.UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise click.UsageError(f"{flag} must not be empty")
    return values


# Each timed block of calls lasts at least this long. The rows take turns block by
# block, and each repeat keeps a row's fastest of three blocks, so a slow spell of a
# shared host moves a row's time only if it outlasts the other rows' blocks between.
_REPEAT_NS = 5_000_000


def _interleaved_ns(calls: list, repeats: int) -> list[list[int]]:
    """Per call and repeat, the fastest mean ns of one call in three round-robin blocks."""
    counts = []
    for call in calls:
        start = time.perf_counter_ns()
        call()
        counts.append(-(-_REPEAT_NS // max(1, time.perf_counter_ns() - start)))
    blocks = [[] for _ in calls]
    for _ in range(3 * repeats):
        for call, count, row in zip(calls, counts, blocks):
            start = time.perf_counter_ns()
            for _ in range(count):
                call()
            row.append((time.perf_counter_ns() - start) // count)
    return [[min(row[i : i + 3]) for i in range(0, len(row), 3)] for row in blocks]


@cli.command("bench")
@click.option("--n", "n_list", required=True, help="Comma-separated orders.")
@click.option("--r", "r_list", required=True, help="Comma-separated exponents.")
@click.option(
    "--route",
    "route_list",
    default="closed_form",
    help="Comma-separated routes among closed_form, spectral, oracle.",
)
@click.option("--repeats", type=int, default=5)
@click.option("--a", type=COMPLEX, default="1")
@click.option("--b", type=COMPLEX, default="1")
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def bench_cmd(n_list, r_list, route_list, repeats, a, b, fmt, out):
    """Time the routes and report deviation from the oracle as CSV."""
    orders = _parse_int_list(n_list, "--n")
    exponents = _parse_int_list(r_list, "--r")
    routes = [tok for tok in route_list.split(",") if tok != ""]
    for route in routes:
        if route not in _ROUTES:
            raise click.UsageError(f"unknown route {route!r}")
    if not routes:
        raise click.UsageError("--route must not be empty")
    if repeats < 3:
        raise DomainError(f"repeats must be >= 3, got {repeats}")
    rows, calls = [], []
    for order in orders:
        spec = _make_spec(order, a, b)
        for exponent in exponents:
            results = {route: _computed(route, spec, exponent) for route in routes}
            reference = results["oracle"] if "oracle" in results else _computed("oracle", spec, exponent)
            for route in routes:
                deviation = compare(results[route], reference, 1e-8).max_rel_deviation
                rows.append((f"{order},{exponent},{route}", deviation))
                calls.append(functools.partial(_ROUTES[route], spec, exponent))
    lines = ["n,r,route,median_ns,max_rel_vs_oracle"]
    for (row, deviation), timings in zip(rows, _interleaved_ns(calls, repeats)):
        lines.append(f"{row},{int(statistics.median(timings))},{deviation:.3e}")
    _emit("\n".join(lines), out)


def main():
    cli()


if __name__ == "__main__":
    main()
