"""pentapower's CLI with spans around its layers, for the traced run of cli_dense.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_FILE OP_ID power --n 8 --r 3

Runs the command exactly as ``python -m pentapower.cli`` would and writes
the spans as JSON to SPANS_FILE when it ends, whatever its exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans
import pentapower.cli as cli
import pentapower.power as power


def main() -> None:
    spans_file, op, args = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.op = op
    spans.patch_kernel(tracer, power)
    spans.patch_cli(tracer, cli)
    try:
        cli.cli.main(args=args, prog_name="pentapower")
    finally:
        spans_file.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    main()
