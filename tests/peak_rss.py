"""Run a command, print its peak RSS in KiB and exit with its exit code.

    python tests/peak_rss.py pentapower power --n 2048 --r 10 --out power.json

The command is started from this small process on purpose: a child that a
large process such as pytest spawns inherits that process's RSS high-water
mark through fork or vfork and exec, and reports it in place of its own.
"""

import os
import sys

if __name__ == "__main__":
    pid = os.spawnvp(os.P_NOWAIT, sys.argv[1], sys.argv[1:])
    _, status, usage = os.wait4(pid, 0)
    print(usage.ru_maxrss)
    sys.exit(os.waitstatus_to_exitcode(status))
