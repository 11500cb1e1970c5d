"""Run one command and print its wall time, exit code and resource use as JSON.

    python3 -S benchmarks/spawn.py STDOUT_FILE STDERR_FILE COMMAND [ARG...]

``run.py`` starts every timed crrkit invocation through this script. Linux
reports a child's peak resident memory as at least the resident size of the
process it was started from, so a command started straight from ``run.py``,
which holds numpy, crrkit and the reference arrays, would report the
benchmark's size rather than its own. This interpreter imports nothing but
``os``, ``sys``, ``time`` and ``json``, and stays below every crrkit command.
"""

import json
import os
import sys
import time


def main() -> int:
    out_path, err_path, *cmd = sys.argv[1:]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(
            cmd[0],
            cmd,
            os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "exit_code": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
