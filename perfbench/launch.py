"""Runs the CLI for run.py and times it, from a small process of its own.

A child's wait4 ru_maxrss starts from the resident size of the process
that spawned it, so CLI runs spawned by the benchmark itself, which holds
inputs and reference outputs, would report the benchmark's memory. This
process imports nothing but the standard library and is started before
the benchmark builds anything. It reads one JSON request per line on
stdin and answers each with one JSON line on stdout.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

TIMEOUT_S = 100.0


def spawn(req: dict) -> dict:
    """Run ``req["argv"]``; time to first stdout line, to exit, and peak RSS.

    The RSS is the wait4 ru_maxrss: the largest of the CLI process and the
    workers it reaped. Stdout goes to the file ``req["stdout"]``.
    """
    env = dict(os.environ, **req["env"])
    with open(req["stdin"], "rb") as fin, open(req["stderr"], "wb") as ferr, \
            open(req["stdout"], "wb") as fout:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdin=fin, stdout=subprocess.PIPE, stderr=ferr,
                                env=env, cwd=req["cwd"], start_new_session=True)
        timer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            first = proc.stdout.readline()
            first_s = time.perf_counter() - start
            fout.write(first)
            shutil.copyfileobj(proc.stdout, fout)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "first_line_s": first_s if first else wall,
            "rss_mib": usage.ru_maxrss / 1024, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
