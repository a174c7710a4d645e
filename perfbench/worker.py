"""One benchmark workload in one fresh process.

Started by run.py, which times the set-up from outside:

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR --setup-only

DIR holds the workload's scratch files; the spans of a traced run go next to it.

Set-up (imports, inputs from the seed, one small warm-up operation) ends
with the line "ready" on stdout. The worker then runs whole cycles of the
workload's operations for --seconds, one operation at a time (a closed
loop with one caller), checks every output after the timed region, and
prints one JSON line. With --trace 1 the first half of the time runs
untraced and the second half with spans on; the line then also carries
the per-layer metrics, per cycle of the workload.
"""

from __future__ import annotations

import argparse
import cmath
import ctypes
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAWN_REPEATS = 5  # cli.start_ms and cli.import_ms are medians over this many interpreter starts
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pentapower.oracle as oracle  # noqa: E402
import pentapower.power as power  # noqa: E402
from pentapower import MatrixSpec, PowerRequest  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402


@dataclass
class Op:
    """One timed operation. Equal keys are equal inputs and must give equal digests."""

    kind: str
    ns: int
    key: object
    digest: int | str | None
    verdict: check.Verdict | None = None
    bytes_out: int = 0


def _digest(data) -> int:
    """Fingerprint of an output, to tell repeats of one input apart; CRC-32 is fast enough
    to take between timed operations. An array is made C-contiguous first, as the
    byte view needs."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data)
    return zlib.crc32(memoryview(data).cast("B"))


class Workload:
    """timings maps each end-to-end timing to the kind of operation it takes the median of."""

    timings: dict[str, str] = {}
    next_op = 0

    def _start_op(self, tracer: spans.Tracer | None) -> None:
        """Number the next operation; its spans carry the number."""
        self.next_op += 1
        if tracer is not None:
            tracer.op = self.next_op

    def verify(self, ops: list[Op]) -> None:
        """Fill in the verdict of every operation; by default the operation did it itself."""

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def primary(self, cycles: list[list[Op]]) -> dict[str, tuple[list[float], str]]:
        """The samples of op1_ms and op2_ms, in this order, under their own names and units."""
        return {name: ([op.ns / 1e6 for c in cycles for op in c if op.kind == kind], "ms")
                for name, kind in self.timings.items()}


class CliDense(Workload):
    """`python -m pentapower.cli power` at n = 1024, alternating JSON and CSV output.

    What a CLI user waits for: interpreter start, import, parse, compute,
    format, write. Each output is compared, after the timed region, with an
    in-process power_matrix bit for bit, and repeats of one format must be
    byte-identical apart from elapsed_ns.
    """

    name = "cli_dense"
    spec, r = MatrixSpec(n=1024, a=0.5, b=0.5j), 10**6
    bands = ("--a", "0.5", "--b", "0.5i")
    largest_array_bytes = 1024 * 1024 * 16
    timings = {"json_ms": "json", "csv_ms": "csv"}

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.outputs: dict[int, tuple[str, bytes]] = {}

    def _args(self, fmt: str, out: Path, n: int = 0, r: int = 0) -> list[str]:
        return ["power", "--n", str(n or self.spec.n), "--r", str(r or self.r), *self.bands,
                "--format", fmt, "--out", str(out)]

    def _invoke(self, args: list[str], tracer: spans.Tracer | None) -> tuple[int, int]:
        if tracer is None:
            argv = [sys.executable, "-m", "pentapower.cli", *args]
        else:
            spans_file = self.workdir / "cli_spans.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), str(tracer.op), *args]
        start = time.perf_counter_ns()
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        elapsed = time.perf_counter_ns() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return elapsed, proc.returncode

    def warm_up(self) -> None:
        out = self.workdir / "warm_up.json"
        _, code = self._invoke(self._args("json", out, n=8, r=3), None)
        if code != 0:
            raise RuntimeError(f"warm-up invocation exited {code}")

    def traced_layers(self, tracer: spans.Tracer) -> None:
        """The CLI runs in child processes, which install their own spans."""

    def cycle(self, tracer: spans.Tracer | None) -> list[Op]:
        ops = []
        for fmt in ("json", "csv"):
            out = self.workdir / f"power.{fmt}"
            self._start_op(tracer)
            if tracer is None:
                ns, code = self._invoke(self._args(fmt, out), None)
            else:
                with tracer.span("bench.cli_process") as parent:
                    ns, code = self._invoke(self._args(fmt, out), tracer)
                tracer.adopt(json.loads((self.workdir / "cli_spans.json").read_text()), parent)
            digest = None
            if code == 0 and out.exists():
                data = out.read_bytes()
                out.unlink()  # before the next invocation, so it never waits on writeback
                if fmt == "json":
                    data = re.sub(rb'"elapsed_ns": \d+', b'"elapsed_ns": 0', data)
                digest = _digest(data)
                self.outputs.setdefault(digest, (fmt, data))
            ops.append(Op(kind=fmt, ns=ns, key=fmt, digest=digest,
                          bytes_out=0 if digest is None else len(data)))
        return ops

    def verify(self, ops: list[Op]) -> None:
        reference = power.power_matrix(PowerRequest(spec=self.spec, r=self.r))
        verdicts = {digest: self._check(fmt, data, reference)
                    for digest, (fmt, data) in self.outputs.items()}
        exited = check.Verdict(False, math.inf, "exited non-zero or wrote nothing")
        for op in ops:
            op.verdict = verdicts.get(op.digest, exited)

    def _check(self, fmt: str, data: bytes, reference: np.ndarray) -> check.Verdict:
        try:
            cells = self._parse_json(data) if fmt == "json" else self._parse_csv(data)
        except (ValueError, KeyError, TypeError) as exc:
            return check.Verdict(False, math.inf, f"{fmt} output does not parse: {exc}")
        expected = np.ascontiguousarray(reference + 0.0)  # the CLI writes -0.0 as 0.0
        if cells.shape == expected.shape and np.array_equal(cells.view(np.uint64),
                                                            expected.view(np.uint64)):
            return check.Verdict(True, 0.0, "bit-identical")
        verdict = check.check_matrix(cells, reference)
        return check.Verdict(False, verdict.rel_err, f"{fmt} differs from power_matrix: {verdict.reason}",
                             nonfinite=verdict.nonfinite)

    def _parse_json(self, data: bytes) -> np.ndarray:
        def cell(obj):
            return complex(obj["re"], obj["im"]) if obj.keys() == {"re", "im"} else obj

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(data, object_hook=cell, parse_constant=reject)
        header = (doc["schema_version"], doc["n"], doc["r"], doc["a"], doc["b"], doc["meta"])
        expected = ("1", self.spec.n, self.r, self.spec.a, self.spec.b,
                    {"route": "closed_form", "elapsed_ns": 0})
        if header != expected:
            raise ValueError(f"header {header!r}")
        return np.array(doc["rows"], dtype=complex)

    def _parse_csv(self, data: bytes) -> np.ndarray:
        lines = data.decode("ascii").split("\n")
        if lines[-1] == "":
            lines.pop()
        n = self.spec.n
        header = ",".join(f"c{j}_re,c{j}_im" for j in range(1, n + 1))
        if lines[0] != header or len(lines) != n + 1:
            raise ValueError("header or row count")
        values = np.array([[float(token) for token in line.split(",")] for line in lines[1:]])
        cells = np.empty((n, n), dtype=complex)
        cells.real = values[:, 0::2]
        cells.imag = values[:, 1::2]
        return cells

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class KernelLarge(Workload):
    """In-process power_matrix at n in {2047, 2048} and r in {10, 10**6}; nothing serialized.

    Checked without an O(n^3) oracle: r = 10 against r shift-and-scale steps,
    r = 10**6 by A P_r = P_{r+1} and P_r (P_r x) = P_{2r} x, both on the walk
    support. Each timed output must be bit-identical to the checked one.
    """

    name = "kernel_large"
    a, b = 0.5, 0.5j
    cases = ((2047, 10), (2048, 10), (2047, 10**6), (2048, 10**6))
    largest_array_bytes = 2048 * 2048 * 16
    timings = {"solve_even_ms": "n2048", "solve_odd_ms": "n2047"}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.specs = {n: MatrixSpec(n=n, a=self.a, b=self.b) for n in (2047, 2048)}
        self.vectors = {n: rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in self.specs}

    def warm_up(self) -> None:
        for n in (64, 65):
            power.power_matrix(PowerRequest(spec=MatrixSpec(n=n, a=self.a, b=self.b), r=10))

    def traced_layers(self, tracer: spans.Tracer) -> None:
        tracer.patch(power, "power_matrix", "power.power_matrix")
        spans.patch_kernel(tracer, power)

    def cycle(self, tracer: spans.Tracer | None) -> list[Op]:
        ops = []
        for n, r in self.cases:
            self._start_op(tracer)
            start = time.perf_counter_ns()
            result = power.power_matrix(PowerRequest(spec=self.specs[n], r=r))
            ns = time.perf_counter_ns() - start
            ops.append(Op(kind=f"n{n}", ns=ns, key=(n, r), digest=_digest(result)))
            del result
        return ops

    def verify(self, ops: list[Op]) -> None:
        for n, r in self.cases:
            result = power.power_matrix(PowerRequest(spec=self.specs[n], r=r))
            verdict = self._check(n, r, result)
            digest = _digest(result)
            differs = check.Verdict(False, math.inf, "differs from a repeat of the same call")
            for op in ops:
                if op.key == (n, r):
                    op.verdict = verdict if op.digest == digest else differs
            del result

    def _check(self, n: int, r: int, result: np.ndarray) -> check.Verdict:
        spec = self.specs[n]
        verdicts = [check.check_support(result, r)]
        if r <= 64:
            verdicts.append(check.check_matrix(result, check.banded_power(n, spec.a, spec.b, r)))
        else:
            following = power.power_matrix(PowerRequest(spec=spec, r=r + 1))
            verdicts.append(check.check_matrix(check.band_apply(spec.a, spec.b, result), following))
            del following
            x = self.vectors[n]
            doubled = power.power_matrix(PowerRequest(spec=spec, r=2 * r))
            verdicts.append(check.check_matrix(result @ (result @ x), doubled @ x))
        return check.combine(verdicts)


class VerifyGrid(Workload):
    """The verify route per case: power_matrix, then naive_power, then the check.

    n in {64, 128, 256, 512}, r in {1, 3, 10, 50, m/2, m, n} with m = n/2,
    and five band pairs: |b/a| = 4 and 1/4 (real, signs from the seed), two
    complex pairs with |b/a| = 1/sqrt(2) and sqrt(2), and one with |a| = |b|
    (phases from the seed). Where the oracle is not finite, only a refusal
    passes.
    """

    name = "verify_grid"
    orders = (64, 128, 256, 512)
    small_n = 128  # where the kernel's per-call overhead outweighs the oracle
    largest_array_bytes = 512 * 512 * 16

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)

        def sign() -> float:
            return float(rng.choice((-1.0, 1.0)))

        def phase() -> complex:
            return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))

        root2 = math.sqrt(2.0)
        pairs = [
            (sign(), 4.0 * sign()),
            (4.0 * sign(), sign()),
            (2.0 * phase(), root2 * phase()),
            (root2 * phase(), 2.0 * phase()),
            (phase(), phase()),
        ]
        self.cases = [
            (MatrixSpec(n=n, a=a, b=b), r)
            for n in self.orders
            for r in (1, 3, 10, 50, n // 4, n // 2, n)
            for a, b in pairs
        ]
        self.refusals: dict[str, int] = {}
        self.traced_check = None

    def warm_up(self) -> None:
        spec, r = self.cases[0]
        check.check_matrix(power.power_matrix(PowerRequest(spec=spec, r=r)), oracle.naive_power(spec, r))

    def traced_layers(self, tracer: spans.Tracer) -> None:
        tracer.patch(power, "power_matrix", "power.power_matrix")
        spans.patch_kernel(tracer, power)
        spans.patch_oracle(tracer, oracle)
        self.traced_check = tracer.wrap(check.check_matrix, "oracle.check")

    def cycle(self, tracer: spans.Tracer | None) -> list[Op]:
        check_matrix = check.check_matrix if tracer is None else self.traced_check
        ops = []
        for index, (spec, r) in enumerate(self.cases):
            self._start_op(tracer)
            start = time.perf_counter_ns()
            try:
                result = power.power_matrix(PowerRequest(spec=spec, r=r))
            except Exception as exc:  # a refusal: it passes only where the oracle overflows
                result = None
                self.refusals[type(exc).__name__] = self.refusals.get(type(exc).__name__, 0) + 1
            verdict = check_matrix(result, oracle.naive_power(spec, r))
            ns = time.perf_counter_ns() - start
            digest = "raised" if result is None else _digest(result)
            kind = "small" if spec.n <= self.small_n else "large"
            ops.append(Op(kind=kind, ns=ns, key=index, digest=digest, verdict=verdict))
        return ops

    def primary(self, cycles: list[list[Op]]) -> dict[str, tuple[list[float], str]]:
        return {
            "grid_s": ([sum(op.ns for op in c) / 1e9 for c in cycles], "s"),
            "small_grid_ms": ([sum(op.ns for op in c if op.kind == "small") / 1e6 for c in cycles], "ms"),
        }


WORKLOADS = {w.name: w for w in (CliDense, KernelLarge, VerifyGrid)}


def summary(values: list[float], unit: str) -> dict:
    """Median and quartiles, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "unit": unit, "count": len(ordered)}
    if len(ordered) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(ordered, n=4)
    if len(ordered) > 10:
        out["tail_pct"] = round(100.0 * (len(ordered) - 10) / len(ordered), 2)
        out["tail"] = ordered[-11]
    return out


def _blas_runtime() -> dict:
    """The OpenBLAS that numpy loaded, asked directly; empty if it is not found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            config = getattr(lib, f"{prefix}_get_config64_", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return {}


def _cache_bytes() -> dict:
    libc = ctypes.CDLL(None)
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    return {name: libc.sysconf(code) for name, code in (("l1d", 188), ("l2", 191), ("l3", 194))}


def environment(workload) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), **_blas_runtime()},
        "cache_bytes": _cache_bytes(),
        "largest_array_bytes": workload.largest_array_bytes,
    }


def _spawn_ms(code: str, env: dict) -> float:
    times = []
    for _ in range(SPAWN_REPEATS):
        start = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)


def layer_metrics(tracer: spans.Tracer, traced: list[list[Op]], untraced: list[list[Op]]) -> dict:
    """Per-layer metrics per cycle of the traced half; a layer that did not run reads 0."""
    s = spans.summarise(tracer.spans)
    cycles = len(traced)

    def ms(ns: float) -> float:
        return ns / 1e6 / cycles

    ops = [op for c in traced for op in c]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start_ms = _spawn_ms("pass", env)
    import_ms = _spawn_ms("import pentapower.cli", env) - start_ms
    matmul_ns = s["total_ns"]["oracle.mat_mul"]
    finite_errs = [op.verdict.rel_err for op in ops if math.isfinite(op.verdict.rel_err)]
    cycle_ns = [statistics.median(sum(op.ns for op in c) for c in group) for group in (traced, untraced)]
    spectrum_calls = sum(v for k, v in s["calls"].items() if k.startswith("spectrum."))
    metrics = {
        "cli.start_ms": (start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.parse_ms": (ms(s["total_ns"]["cli.parse"]), "ms"),
        "cli.format_json_ms": (ms(s["total_ns"]["cli.format_json"]), "ms"),
        "cli.format_csv_ms": (ms(s["total_ns"]["cli.format_csv"]), "ms"),
        "cli.write_ms": (ms(s["total_ns"]["cli.write"]), "ms"),
        "cli.bytes_out": (sum(op.bytes_out for op in ops) / cycles, "bytes"),
        "power.compute_ms": (ms(s["total_ns"]["power.power_matrix"]), "ms"),
        "power.self_ms": (ms(s["self_ns"]["power"]), "ms"),
        "power.max_rel_err": (max(finite_errs, default=0.0), "ratio"),
        "power.nonfinite": (sum(op.verdict.nonfinite for op in ops) / cycles, "count"),
        "chebyshev.self_ms": (ms(s["self_ns"]["chebyshev"]), "ms"),
        "chebyshev.calls": (s["calls"]["chebyshev.u_sequence"] / cycles, "count"),
        "chebyshev.steps": (s["work"]["chebyshev.u_sequence"] / cycles, "count"),
        "spectrum.self_ms": (ms(s["self_ns"]["spectrum"]), "ms"),
        "spectrum.calls": (spectrum_calls / cycles, "count"),
        "oracle.naive_power_ms": (ms(s["total_ns"]["oracle.naive_power"]), "ms"),
        "oracle.matmuls": (s["calls"]["oracle.mat_mul"] / cycles, "count"),
        "oracle.gflop": (s["work"]["oracle.mat_mul"] / 1e9 / cycles, "GFLOP"),
        "oracle.gflop_s": (s["work"]["oracle.mat_mul"] / matmul_ns if matmul_ns else 0.0, "GFLOP/s"),
        "oracle.check_ms": (ms(s["total_ns"]["oracle.check"]), "ms"),
        "trace.overhead_frac": (cycle_ns[0] / cycle_ns[1] - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    with np.errstate(all="ignore"):
        workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    untraced: list[list[Op]] = []
    traced: list[list[Op]] = []
    tracer = spans.Tracer() if args.trace else None
    untraced_seconds = args.seconds / 2 if tracer else args.seconds
    start = time.perf_counter()
    with np.errstate(all="ignore"):
        while not untraced or time.perf_counter() - start < untraced_seconds:
            untraced.append(workload.cycle(None))
        if tracer is not None:
            workload.traced_layers(tracer)
            try:
                while not traced or time.perf_counter() - start < args.seconds:
                    traced.append(workload.cycle(tracer))
            finally:
                tracer.unpatch()
    peak_rss_mib = workload.peak_rss_kib() / 1024.0

    ops = [op for c in untraced + traced for op in c]
    with np.errstate(all="ignore"):
        workload.verify(ops)
    failed = sum(not op.verdict.passed for op in ops)
    digests: dict = {}
    for op in ops:
        digests.setdefault(op.key, set()).add(op.digest)
    reproducible = all(len(d) == 1 for d in digests.values())

    primary = workload.primary(untraced)
    reasons: dict[str, int] = {}
    for op in ops:
        if not op.verdict.passed:
            reason = re.sub(r"\d[\d.e+-]*", "#", op.verdict.reason)
            reasons[reason] = reasons.get(reason, 0) + 1
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "cycles": {"untraced": len(untraced), "traced": len(traced)},
        "metrics": {
            **{name: summary(values, unit) for name, (values, unit) in primary.items()},
            "fail_frac": {"value": failed / len(ops), "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mib, "unit": "MiB"},
        },
        "reproducible": reproducible,
        "failures": reasons,
        "environment": environment(workload),
    }
    if isinstance(workload, VerifyGrid):
        report["refusals"] = workload.refusals

    medians_ms = [statistics.median(values) * (1000.0 if unit == "s" else 1.0)
                  for values, unit in primary.values()]
    end_to_end = {
        "op1_ms": {"value": medians_ms[0], "unit": "ms"},
        "op2_ms": {"value": medians_ms[1], "unit": "ms"},
        "pass_frac": {"value": 1.0 - failed / len(ops), "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mib, "unit": "MiB"},
    }
    if tracer is not None:
        layers = layer_metrics(tracer, traced, untraced)
        spans_file = args.workdir.parent / f"spans-{workload.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "work"],
                                          "spans": tracer.spans}))
    else:
        layers = {}
    print(json.dumps({
        "correct": reproducible,
        "attempted": len(ops),
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
