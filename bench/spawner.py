"""Runs child processes one at a time on request and reports on each.

The harness starts this small process once and sends it one JSON request
per line on stdin:

    {"argv": [...], "env": {...}, "stdin": "...", "timeout": 30.0}

It answers with one JSON line per request: exit code, whether the timeout
killed the child, wall time from spawn to reaping, the spawn instant on the
monotonic clock, the child's CPU time (user plus system), its peak resident
set size, stdout and stderr.

A child started by vfork or fork inherits the peak RSS of its parent's
address space in its own ``ru_maxrss``.  Spawning from this process, which
stays small, keeps the harness's growing memory out of the children's
figures.
"""

import json
import os
import subprocess
import sys
import threading
import time


def _read(stream, sink):
    sink.append(stream.read())


def run(req: dict) -> dict:
    stdin_data = req.get("stdin")
    start = time.monotonic()
    proc = subprocess.Popen(
        req["argv"],
        stdin=subprocess.PIPE if stdin_data is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=req.get("env"),
        cwd=req.get("cwd"),
    )
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [threading.Thread(target=_read, args=(proc.stdout, out)),
               threading.Thread(target=_read, args=(proc.stderr, err))]
    for t in readers:
        t.start()
    if stdin_data is not None:
        try:
            proc.stdin.write(stdin_data.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(req["timeout"], kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    return {
        "rc": proc.returncode,
        "timed_out": timed_out.is_set(),
        "start": start,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "stdout": b"".join(out).decode(errors="replace"),
        "stderr": b"".join(err).decode(errors="replace"),
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
