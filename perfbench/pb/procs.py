"""Child processes of the benchmark, accounted one by one.

CPU time and peak RSS come from ``wait4`` on the child itself (its own
``rusage``), never ``RUSAGE_CHILDREN``, which keeps the maximum over every
child ever reaped. Live servers are sampled through ``/proc``.
"""

import os
import select
import signal
import subprocess
import threading
import time


class Exited:
    """How a reaped child ended and what it used."""

    def __init__(self, status, rusage, wall_s):
        self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.wall_s = wall_s


def run(argv, env, log_path, timeout_s=170.0):
    """Run ``argv`` to completion with its output in ``log_path``."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
    return reap(proc, start, timeout_s)


def reap(proc, start, timeout_s):
    """``wait4`` the child (killing it after ``timeout_s``) -> ``Exited``.

    The wait blocks; a timer thread kills a child that overruns, so the
    runner does not wake up to poll while the program is measured."""
    watchdog = threading.Timer(max(0.0, start + timeout_s - time.perf_counter()), proc.kill)
    watchdog.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    # Reaped here, so the Popen object must not wait on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(status, rusage, wall)


def cpu_seconds(pid):
    """CPU time a live process has run so far, summed over its threads from
    ``/proc/<pid>/task/*/schedstat`` (nanoseconds; ``/proc/<pid>/stat``
    only has clock ticks). Threads that already exited are not counted, so
    take deltas across a phase in which the threads persist."""
    total = 0
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat", encoding="ascii") as f:
                total += int(f.read().split()[0])
        except FileNotFoundError:
            continue
    return total / 1e9


def host_ticks():
    """``(steal, total)`` CPU ticks of the whole machine from ``/proc/stat``.
    Steal is time the hypervisor ran something else on our virtual CPUs."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before, after):
    """Share of machine CPU time stolen between two ``host_ticks()``."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


class Server:
    """A ``convmeter serve`` child, ready once it prints its address."""

    def __init__(self, argv, env, log_path, ready_timeout_s=60.0):
        self.start = time.perf_counter()
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=self.log)
        self.addr = None
        self.exited = None
        line = b""
        deadline = self.start + ready_timeout_s
        while self.addr is None:
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, left))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(f"server not ready (see {log_path})")
            self.log.write(chunk)
            line += chunk
            for text in line.decode(errors="replace").splitlines():
                if text.startswith("listening on http://"):
                    host, port = text.split("//", 1)[1].rsplit(":", 1)
                    self.addr = (host, int(port))

    def cpu_seconds(self):
        return cpu_seconds(self.proc.pid)

    def stop(self):
        """Terminate and reap the server -> ``Exited``."""
        if self.exited is None:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGTERM)
            self.exited = reap(self.proc, time.perf_counter(), 10.0)
            self.proc.stdout.close()
            self.log.close()
        return self.exited
