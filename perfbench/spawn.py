"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 spawn.py STDERR_FILE TIMEOUT_S -- COMMAND [ARG ...]

Every measured process is started through a fresh copy of this small
launcher. On Linux a child's ru_maxrss starts from the memory high-water
mark of the process it was forked or vforked from, so a command started
straight from run.py (which holds the generated inputs) would report the
peak of run.py instead of its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    stderr_path, timeout = sys.argv[1], float(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                      "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
