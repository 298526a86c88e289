"""Starts the benchmark's child processes, one at a time, and reports each
one's exit code, wall time, CPU time and peak RSS from ``os.wait4``.

Linux carries the spawning process's peak RSS into a child's
``ru_maxrss``: exec records the high-water mark of the memory it replaces,
and a vfork'd child replaces its parent's.  A child started by the
benchmark itself would so report at least the benchmark's own peak, which
is larger than most mechx commands.  This process stays small (about
11 MB, run with ``python -S``), below any mechx child.

Children inherit this process's environment.  Protocol: one JSON line per
child on stdin, ``[argv, cwd, stdout path, stderr path, timeout_s]``; one
JSON line back, ``[exit code, wall_s, cpu_s, peak_rss_kb]``.  It exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, cwd, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        reply = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
