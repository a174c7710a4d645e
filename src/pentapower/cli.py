"""Command line front end.

Subcommands: power, eig, verify, det, bench. JSON is the default output
format where a document makes sense; csv and pretty are available too.
Each distinct modulus of a part is formatted once and signed per cell, and
documents are written a chunk of rows at a time, so no string holds a whole
matrix. Every route returns the power's two lanes; power, verify and bench
read those alone, and no n x n array reaches a writer or a comparison.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error (valid flags, but bad matrix parameters, an order beyond memory, a
power, eigenvalue or determinant beyond doubles, or an unresolvable sum).

Complex values on the command line use a compact literal: ``2``, ``-3.5``,
``1+1i``, ``2-0.5i``, ``i``, ``-i``, ``4.0i``. No whitespace, no exponent
notation, imaginary unit spelled ``i``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import statistics
import sys
import time
from collections.abc import Iterable, Iterator

import click
import numpy as np

from .oracle import _determinant_corollary, band_pairs, compare, naive_power
from .power import PowerRequest, power_lanes, power_via_spectral
from .power import power_matrix  # noqa: F401  unused here; the benchmark's traced run looks it up on this module
from .spectrum import MatrixSpec, _eigenvalues, _lane_copies

_REAL = r"[+-]?\d+(?:\.\d+)?"
_IMAG = r"[+-]?(?:\d+(?:\.\d+)?)?i"
_COMPLEX_RE = re.compile(rf"{_REAL}|{_IMAG}|{_REAL}[+-]{_IMAG}")


def parse_complex(text: str) -> complex:
    """Parse a complex literal; raises ValueError on anything off-grammar."""
    if _COMPLEX_RE.fullmatch(text) is None:
        raise ValueError(f"invalid complex literal: {text!r}")
    # complex() takes one sign between the parts and spells the unit j
    merged = re.sub(r"[+-]{2}", lambda signs: "+" if signs[0][0] == signs[0][1] else "-", text)
    return complex(merged.replace("i", "j"))


def _format_float(value: float) -> str:
    # positional, shortest digits that round-trip; integral values lose the dot
    return np.format_float_positional(value + 0.0, trim="-")


_json_float = repr  # the text json.dumps gives a float
# Each style's text of a cell from its parts' signs, "" or "-", and the texts of their moduli
_CELLS = {
    "json": lambda re_sign, im_sign, re_text, im_text: f'{{"re": {re_sign}{re_text}, "im": {im_sign}{im_text}}}',
    "csv": lambda re_sign, im_sign, re_text, im_text: f"{re_sign}{re_text},{im_sign}{im_text}",
    "pretty": lambda re_sign, im_sign, re_text, im_text: re_sign + re_text if im_text == "0" else (
        f"{im_sign}{im_text}i" if re_text == "0" else f"{re_sign}{re_text}{im_sign or '+'}{im_text}i"
    ),
}


def format_complex(value: complex) -> str:
    parts = (value.real, value.imag)
    return _CELLS["pretty"](*["-" if part < 0 else "" for part in parts], *[_format_float(abs(part)) for part in parts])


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


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks, then a newline, each as it comes: no string holds the whole document."""
    if out is None:
        for chunk in chunks:
            click.echo(chunk, nl=False)
        click.echo()
    else:
        try:
            handle = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise click.BadParameter(str(exc), param_hint="'--out'") from exc
        with handle:
            handle.writelines(chunks)
            handle.write("\n")


def _sort_key(values: np.ndarray) -> np.ndarray:
    """A 64-bit key per value of a contiguous flat array: a float's bits, or a complex's two parts mixed."""
    bits = values.view(np.uint64)
    return bits if values.dtype == np.float64 else bits[0::2] * np.uint64(0x9E3779B97F4A7C15) ^ bits[1::2]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-zero values of a flat array after 0, and each value's index into them (0 for a zero). A run of
    equal neighbours in ``_sort_key`` order is one value: a key shared by distinct values can split a run, never mix."""
    index = np.zeros(values.size, dtype=np.int32 if values.size < 2**31 else np.intp)
    nonzero = np.flatnonzero(values).astype(index.dtype)  # int32: the sort's temporaries stay resident once freed
    nonzero = nonzero[np.argsort(_sort_key(values[nonzero]))]
    picked = values[nonzero]
    first = np.r_[True, picked[1:] != picked[:-1]][: picked.size]
    index[nonzero] = np.cumsum(first, dtype=index.dtype)
    return np.concatenate([np.zeros(1, values.dtype), picked[first]]), index


def _lane_table(lanes: list, style: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """The ``style`` text of each distinct value of ``lanes`` (a route's lanes 0 and 1, or one matrix), read as complex,
    after that of 0, and each lane's text index; ``lanes`` is emptied once sorted. Shortest round-trip digits depend on
    a magnitude alone, so each distinct modulus of a part is formatted once, and a cell's text is made from its parts'
    signs and texts, 2**13 cells at a time: a text is made before the first that reads it and dropped after the last."""
    shared, shapes = lanes[0] is lanes[-1], [lane.shape for lane in lanes]  # an even order's lanes are one array
    flat = [np.ravel(np.asarray(lane, dtype=complex)) for lane in (lanes[:1] if shared else lanes)]  # _sort_key's bits
    lanes.clear()
    values, index = _distinct(flat := np.concatenate(flat) if flat[1:] else flat[0])  # an odd order's lanes go here
    parts, flat = values.view(np.float64), None  # with the list emptied, the lanes or their concatenation go here
    negative, values = parts < 0, None
    moduli, at = _distinct(np.abs(parts, out=parts))  # in place: the values are read no more
    positions, parts = np.arange(at.size, dtype=at.dtype), None
    first, last = np.full(moduli.size, at.size, at.dtype), np.zeros(moduli.size, at.dtype)
    np.minimum.at(first, at, positions)  # the first and the last part that reads each modulus
    np.maximum.at(last, at, positions)
    fmt, cell = _json_float if style == "json" else _format_float, _CELLS[style]
    texts, cells = np.empty(moduli.size, dtype=object), np.empty(at.size // 2, dtype=object)
    for start in range(0, at.size, 2**14):
        read, here = at[start : start + 2**14], positions[start : start + 2**14]
        new = read[first[read] == here]
        texts[new] = [fmt(modulus) for modulus in moduli[new].tolist()]
        signs = np.array(["", "-"], dtype=object)[negative[start : start + 2**14].view(np.int8)]
        pairs = [*signs.reshape(-1, 2).T.tolist(), *texts[read].reshape(-1, 2).T.tolist()]
        cells[start // 2 : start // 2 + 2**13] = list(map(cell, *pairs))
        texts[read[last[read] == here]] = None
    index = np.split(index, [np.prod(shapes[0])])[: 1 if shared else None]
    index = [part.reshape(shape) for part, shape in zip(index, shapes)]
    return cells, index * len(shapes) if shared else index  # lanes that share an array share its index


def _chunks(texts: np.ndarray, lanes: list, sep: str, row_sep: str, head: str = "", tail: str = "") -> Iterator[str]:
    """``head``, ``texts[index]`` for each 2-D ``index`` of k ``lanes``, then ``tail``, joined about 2**15 cells of
    whole rows at a time (at n = 1024 on 2 vCPUs, 2**12 to 2**17 cells wrote the JSON within one run-to-run spread).
    Lane p's row i is row k*i + p, at columns p, p + k, ... and text 0 elsewhere; lane 0 has the most rows, at most
    one more than any other. An even order's two lanes are one index array, whose rows are joined once for both."""
    k, width, zero = len(lanes), sum(index.shape[1] for index in lanes), texts[0]
    joiner, step = sep + (zero + sep) * (k - 1), max(1, 2**15 // (k * width))
    ends = [((zero + sep) * p, (sep + zero) * (width - 1 - p - k * lane.shape[1] + k)) for p, lane in enumerate(lanes)]
    distinct = lanes[:1] if lanes[0] is lanes[-1] else lanes
    for start in range(0, lanes[0].shape[0], step):
        joined = [[joiner.join(row) for row in texts[lane[start : start + step]].tolist()] for lane in distinct]
        rows = [[pre + line + post for line in joined[p % len(joined)]] for p, (pre, post) in enumerate(ends)]
        yield row_sep if start else head
        yield row_sep.join([line for group in zip(*rows) for line in group] + rows[0][len(rows[-1]) :])
    yield tail


def _matrix_json(lanes: list, spec: MatrixSpec, r: int, route: str, elapsed_ns: int) -> Iterator[str]:
    """The JSON document in chunks; the text table is built, and NaN refused, before this returns."""
    if not all(np.isfinite(lane).all() for lane in lanes):
        raise ValueError("Out of range float values are not JSON compliant")
    head = {"schema_version": "1", "n": spec.n, "r": r, "a": _pair(spec.a), "b": _pair(spec.b)}
    head = json.dumps(head, allow_nan=False)
    texts, lanes = _lane_table(lanes, "json")
    meta = json.dumps({"route": route, "elapsed_ns": elapsed_ns})
    return _chunks(texts, lanes, ", ", "], [", f'{head[:-1]}, "rows": [[', f']], "meta": {meta}}}')


def _matrix_csv(lanes: list) -> Iterator[str]:
    texts, lanes = _lane_table(lanes, "csv")
    header = ",".join(f"c{j}_re,c{j}_im" for j in range(1, sum(lane.shape[1] for lane in lanes) + 1))
    return _chunks(texts, lanes, ",", "\n", header + "\n")


def _matrix_pretty(lanes: list) -> Iterator[str]:
    texts, lanes = _lane_table(lanes, "pretty")
    width = max(map(len, texts))
    for start in range(0, len(texts), 2**15):  # in place: each padded chunk replaces its unpadded texts
        texts[start : start + 2**15] = [text.rjust(width) for text in texts[start : start + 2**15].tolist()]
    return _chunks(texts, lanes, "  ", "\n")


# Each route's r-th power as its lanes 0 and 1, and the bytes per cell that `power` by it counts: its peak RSS above
# the import's over n**2 at r = 10**6, a = 0.5, b = 0.5i (Python 3.11, numpy 2.4, 2 vCPUs), the worst of json, csv
# and pretty, at n = 511, 512, 1023, 1024, 2047, 2048: closed_form 68, 53, 31, 18, 25, 13; spectral 153, 131, 64,
# 36, 57, 29; oracle 84, 72, 54, 35, 34, 24. Each count is a multiple of 8 at least 10% above its route's worst.
_ROUTES = {
    "closed_form": (lambda spec, r: power_lanes(PowerRequest(spec=spec, r=r)), 80),
    "spectral": (lambda spec, r: power_via_spectral(PowerRequest(spec=spec, r=r)), 176),
    "oracle": (lambda spec, r: _lane_copies(naive_power(spec, r)), 104),  # the n x n matrix is dropped here
}
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _require_memory(n: int, cell_bytes: int) -> None:
    needed, memory = cell_bytes * n**2, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    with contextlib.suppress(OSError, ValueError), open(_CGROUP_MEMORY_MAX, encoding="ascii") as limit:
        memory = min(memory, int(limit.read()))  # ValueError: "max", no limit set
    if needed > memory:
        raise DomainError(f"order {n} needs {needed} bytes ({16 * n**2} bytes per array), more than {memory} in memory")


def _computed(route: str, spec: MatrixSpec, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The lanes of the route's r-th power, or a domain error where r, memory, doubles or rounding fail it."""
    if r < 0:
        raise DomainError(f"exponent must be >= 0, got {r}")
    _require_memory(spec.n, 16)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            lanes = _ROUTES[route][0](spec, r)
    except ArithmeticError as exc:
        raise DomainError(str(exc)) from exc
    if not all(np.isfinite(lane).all() for lane in lanes):
        raise DomainError(f"A**{r} by the {route} route went beyond the double range")
    return lanes


def _flat(lanes: tuple) -> np.ndarray:
    # every cell off the lanes is an exact 0 on every route, so comparing these compares the matrices
    return np.concatenate([lane.ravel() for lane in lanes])


@click.group()
def cli():
    """Powers, eigenvalues and verification for two-band Toeplitz matrices."""


@cli.command("power")
@click.option("--n", type=int, required=True, help="Matrix order (>= 3).")
@click.option("--r", type=int, required=True, help="Exponent (>= 0).")
@click.option("--a", type=COMPLEX, default="1", help="Value on the +2 band.")
@click.option("--b", type=COMPLEX, default="1", help="Value on the -2 band.")
@click.option("--route", type=click.Choice(list(_ROUTES)), default="closed_form")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "pretty"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def power_cmd(n, r, a, b, route, fmt, out):
    """Compute the r-th power and print it."""
    spec = _make_spec(n, a, b)
    _require_memory(spec.n, _ROUTES[route][1])
    start = time.perf_counter_ns()
    lanes = list(_computed(route, spec, r))  # the writer's table empties it: the lanes go before any text is made
    elapsed_ns = time.perf_counter_ns() - start
    if fmt == "json":
        chunks = _matrix_json(lanes, spec, r, route, elapsed_ns)
    else:
        chunks = (_matrix_csv if fmt == "csv" else _matrix_pretty)(lanes)
    _emit(chunks, out)


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
        parity = "even" if spec.is_even else "odd"
        head = json.dumps({"schema_version": "1", "n": spec.n, "a": _pair(spec.a), "b": _pair(spec.b), "parity": parity})
        chunks = _chunks(*_lane_table([values[None, :]], fmt), ", ", "", f'{head[:-1]}, "eigenvalues": [', "]}")
    else:
        chunks = _chunks(*_lane_table([values[:, None]], fmt), "", "\n", "re,im\n" if fmt == "csv" else "")
    _emit(chunks, out)


@cli.command("verify")
@click.option("--n", type=int, default=6)
@click.option("--r", type=int, default=6)
@click.option("--a", type=COMPLEX, default="1")
@click.option("--b", type=COMPLEX, default="1")
@click.option("--seed", type=click.IntRange(min=0), default=20240811, help="Seed for --sweep band values.")
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
        candidate = _flat(_computed("closed_form", spec, exponent))
        report = compare(candidate, _flat(_computed("oracle", spec, exponent)), rel_tol)
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
    _require_memory(spec.n, 32)  # the dense matrix and the LU's working copy
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
@click.option("--route", "route_list", default="closed_form", help=f"Comma-separated routes among {', '.join(_ROUTES)}.")
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
            results = {route: _flat(_computed(route, spec, exponent)) for route in routes}
            reference = results["oracle"] if "oracle" in results else _flat(_computed("oracle", spec, exponent))
            for route in routes:
                deviation = compare(results[route], reference, 1e-8).max_rel_deviation
                rows.append((f"{order},{exponent},{route}", deviation))
                calls.append(functools.partial(_ROUTES[route][0], spec, exponent))
    lines = ["n,r,route,median_ns,max_rel_vs_oracle"]
    for (row, deviation), timings in zip(rows, _interleaved_ns(calls, repeats)):
        lines.append(f"{row},{int(statistics.median(timings))},{deviation:.3e}")
    _emit(["\n".join(lines)], out)


def main():
    cli()


if __name__ == "__main__":
    main()
