"""In-memory spans around the module-level names pentapower's layers call each other through.

Only the traced run installs them. A span is ``[name, start_ns, end_ns,
parent, op, work]``: ``parent`` indexes the enclosing span (-1 at the top),
``op`` is the workload operation it belongs to, and ``work`` is a count the
layer metrics sum (the recurrence order of a ``chebyshev_u_sequence`` call,
8 n^3 flops for a complex matmul). Span names are ``<layer>.<function>``,
with the layers named after pentapower's modules.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str, work: int) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, work=None):
        def traced(*args, **kwargs):
            record = self._open(name, work(*args) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; yields the span's index."""
        record = self._open(name, 0)
        try:
            yield self._stack[-1]
        finally:
            self._close(record)

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace ``owner.attr`` (module, class or instance) by a traced wrapper."""
        traced = self.wrap(getattr(owner, attr), name, work)
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, staticmethod(traced) if isinstance(owner, type) else traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def adopt(self, child_spans: list[list], parent: int) -> None:
        """Append spans recorded by a child process under the span ``parent``."""
        base = len(self.spans)
        for name, start, end, up, op, work in child_spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up, op, work])


def patch_kernel(tracer: Tracer, power_module) -> None:
    """Spans on the chebyshev and spectrum names that pentapower.power calls."""
    tracer.patch(power_module, "chebyshev_u_sequence", "chebyshev.u_sequence",
                 work=lambda m_max, x: int(m_max))
    tracer.patch(power_module, "ipow", "chebyshev.ipow")
    tracer.patch(power_module.DerivedScalars, "from_spec", "spectrum.from_spec")
    for attr in ("_even_nodes", "_odd_nodes", "_int_powers"):
        tracer.patch(power_module, attr, f"spectrum.{attr.lstrip('_')}")


def patch_oracle(tracer: Tracer, oracle_module) -> None:
    tracer.patch(oracle_module, "naive_power", "oracle.naive_power")
    tracer.patch(oracle_module, "mat_mul", "oracle.mat_mul",
                 work=lambda lhs, rhs: 8 * len(lhs) ** 3)


def patch_cli(tracer: Tracer, cli_module) -> None:
    tracer.patch(cli_module, "power_matrix", "power.power_matrix")
    tracer.patch(cli_module.power_cmd, "make_context", "cli.parse")
    tracer.patch(cli_module, "_matrix_json", "cli.format_json")
    tracer.patch(cli_module, "_matrix_csv", "cli.format_csv")
    tracer.patch(cli_module, "_emit", "cli.write")


def summarise(spans: list[list]) -> dict:
    """Per span name: calls, total ns, summed work; per layer: self ns.

    A span's self time is its duration minus that of its direct children,
    which never overlap because every layer runs on the caller's thread.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _parent, _op, amount) in enumerate(spans):
        calls[name] += 1
        total_ns[name] += end - start
        work[name] += amount
        self_ns[name.split(".", 1)[0]] += end - start - covered[index]
    return {"calls": calls, "total_ns": total_ns, "work": work, "self_ns": self_ns}
