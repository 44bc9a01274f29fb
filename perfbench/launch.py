"""Spawns the benchmark's CLI children and reports what each cost.

The peak RSS that wait4 reports for a child starts from the high-water
mark of the process that spawned it, because the mark carries over
exec.  The benchmark itself grows as it holds inputs and outputs, so it
starts this small process first and lets it spawn every CLI child; the
children's peak RSS is then their own.

Protocol: one JSON request per stdin line, {"argv", "stdin", "out",
"err"} with file paths (stdin may be null); one JSON reply per request
on stdout, {"code", "wall", "cpu", "rss_mb"}.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def run(req: dict) -> dict:
    stdin = open(req["stdin"], "rb") if req["stdin"] else subprocess.DEVNULL
    try:
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=stdin, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if req["stdin"]:
            stdin.close()
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
