"""pentapower benchmark: one workload per call, or all three in turn.

    python3 perfbench/run.py --workload cli_dense --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the code measured is ``src/`` next to this directory.
Each workload runs in a fresh process (perfbench/worker.py). Set-up is
timed from here, from process start to the line "ready": six set-up-only
processes and the measured one, and setup_s is their median.

Before the last line the run prints one JSON line {"report": ...} with
every metric under the names below, its unit, tail and sample count, and
the environment. The last line is
{"correct", "attempted", "failed", "metrics"}; its metrics are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.

End-to-end metrics, on every workload:
  setup_s      median set-up time (s)
  op1_ms       cli_dense: json_ms, median wall time of one JSON invocation;
               kernel_large: solve_even_ms, median power_matrix call at n = 2048;
               verify_grid: grid_s, median time of one pass over the grid (in ms)
  op2_ms       cli_dense: csv_ms; kernel_large: solve_odd_ms (n = 2047);
               verify_grid: small_grid_ms, median time of one pass over the n <= 128 cases
  pass_frac    1 - fail_frac: share of operations whose output passed its check
  peak_rss_mb  peak RSS of the CLI children (cli_dense) or of the workload process
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("cli_dense", "kernel_large", "verify_grid")
SETUP_RUNS = 7
GRACE_S = 120.0  # set-up probes, the last cycle and the checks, on top of --seconds


class BenchError(Exception):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git clone or without git."""
    if not (ROOT / ".git").exists():  # else git would name an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the paths and bytes of src/**/*.py: names the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Worker:
    """One worker process; ``setup_s`` is the time from its start to its "ready" line.

    The worker leads its own process group, so that a kill at the deadline
    also stops the CLI processes it may have started.
    """

    def __init__(self, args: list[str], deadline: float):
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                     cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self._kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise BenchError(f"worker did not get ready: {line!r}")

    def finish(self) -> str:
        """Wait for the exit; returns the rest of the worker's stdout."""
        out, _ = self.proc.communicate()
        self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return out

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        """Stop the whole group, whatever is left of it, and reap the worker."""
        self.timer.cancel()
        self._kill()
        self.proc.wait()


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Returns the report and the final result of one workload."""
    deadline = time.monotonic() + seconds + GRACE_S
    workdir = OUT_DIR / f"run-{name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            probe = Worker([*common, "--setup-only"], deadline)
            setups.append(probe.setup_s)
            probe.finish()
        worker = Worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
        setups.append(worker.setup_s)
        result = json.loads(worker.finish().strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setups)
    report = result["report"]
    report["metrics"]["setup_s"] = {"median": setup_s, "unit": "s", "count": len(setups)}
    report["environment"].update(commit=git_commit(), src_sha256=src_digest(),
                                 seconds=seconds, trace=trace)
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **result["end_to_end"]}
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    return report, final


def main() -> int:
    parser = argparse.ArgumentParser(description="pentapower benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pentapower" / "__init__.py").is_file():
        print(f"no pentapower sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    finals = {}
    try:
        for name in names:
            report, finals[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps({"report": report}), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(finals[names[0]]))
    else:
        print(json.dumps({
            "correct": all(f["correct"] for f in finals.values()),
            "attempted": sum(f["attempted"] for f in finals.values()),
            "failed": sum(f["failed"] for f in finals.values()),
            "metrics": {f"{name}.{metric}": value for name, f in finals.items()
                        for metric, value in f["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
