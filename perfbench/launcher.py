"""Starts the benchmark's commands and reports wall time, peak RSS and exit code.

It runs as a separate, small process. A child started from a large process
inherits that process's peak RSS in its own `ru_maxrss` (Linux carries it
over fork and exec), so children started from here report their own peak.

It also measures the machine's speed around each timed command. On a shared
2-vCPU virtual machine the same code was seen to run up to 1.6x slower for
seconds to tens of seconds at a time, on one vCPU or both, for reasons
outside the guest. A fixed Python loop, run at once on every CPU just
before and just after a command, tracks that speed; the benchmark scales
the command's wall time by it.

Protocol: one JSON job per stdin line, {"argv", "env", "cwd", "stdout",
"stderr", "timeout", "calibrate"}; one JSON line back per job, {"wall",
"maxrss_kb", "code", "calibration_s"}. Exits at end of input.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from time import perf_counter


# A record-shaped JSON payload, like the program's input lines.
_PAYLOAD = json.dumps([{"text": f"w{i % 97}", "bbox": [i % 640, i % 480, 10, 12], "confidence": 0.5}
                       for i in range(400)])


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of the kind of work the program does:
    JSON decode and encode, a keyed sort, dict building."""
    start = perf_counter()
    for _ in range(55):
        objs = json.loads(_PAYLOAD)
        objs.sort(key=lambda o: (o["bbox"][1] + o["bbox"][3] / 2, o["bbox"][0], o["text"]))
        index = {}
        for o in objs:
            index.setdefault(o["text"], []).append(o["confidence"])
        json.dumps(objs, ensure_ascii=False)
    return perf_counter() - start


def _calibrator(conn):
    while conn.recv():
        conn.send(calibration_loop())


class Speed:
    """Mean calibration time over one calibrator process per CPU. The one
    taken right after a command also serves as the one before the next."""

    def __init__(self):
        ctx = multiprocessing.get_context("spawn")
        self._conns, self._procs = [], []
        for _ in os.sched_getaffinity(0):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_calibrator, args=(there,), daemon=True)
            proc.start()
            self._conns.append(here)
            self._procs.append(proc)
        self.last, self.at = None, 0.0

    def before(self) -> float:
        if self.last is None or perf_counter() - self.at > 1.0:
            self.after()
        return self.last

    def after(self) -> float:
        for conn in self._conns:
            conn.send(True)
        times = [conn.recv() for conn in self._conns]
        self.last = sum(times) / len(times)
        self.at = perf_counter()
        return self.last

    def close(self):
        for conn in self._conns:
            conn.send(False)
        for proc in self._procs:
            proc.join(timeout=30)


def run(job: dict, speed: Speed) -> dict:
    before = speed.before() if job["calibrate"] else None
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(job["argv"], stdout=out, stderr=err, env=job["env"], cwd=job["cwd"])
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    calibration = (before + speed.after()) / 2 if job["calibrate"] else None
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode,
            "calibration_s": calibration}


def main():
    speed = Speed()
    try:
        for line in sys.stdin:
            print(json.dumps(run(json.loads(line), speed)), flush=True)
    finally:
        speed.close()


if __name__ == "__main__":
    main()
