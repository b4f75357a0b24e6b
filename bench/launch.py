"""Run one command; write its exit code, wall time and peak RSS as JSON.

Usage: python3 launch.py RESULT.json -- COMMAND...

The benchmark starts every child through this small launcher so that the
peak RSS is the command's own: Linux carries a process's RSS high-water
mark across fork and exec, so a direct child of the larger benchmark
process would report the benchmark's RSS whenever that is the higher one.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    result, cmd = argv[0], argv[sep + 1:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        json.dump({"exit_code": proc.returncode, "wall_s": wall,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
