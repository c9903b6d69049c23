"""Host speed probe: how fast the host runs Python, moment by moment.

On a shared host the same code runs up to about twice as fast at one
moment as at another (other tenants share the cores, caches and memory
bandwidth), and the speed changes every few seconds, so the raw wall
times of two runs of the same code differ by more than any useful
regression bound.  The probe times a fixed chunk of pure-Python work
many times a second, in its own process so that it shares nothing with
the program.  A workload pairs each measurement with the probe's chunks
taken at the same time, and :meth:`Probe.scaled` turns a time measured on this
host into the time on a reference host where one chunk takes exactly
``REFERENCE_S``.  Over ten runs of each workload on a 2-vCPU shared
VM, the scaled walls spread 2-8% (quartile spread over the median)
where the raw walls spread 5-24%.

Run as a script it times a chunk every ``PERIOD_S`` until its standard
input closes, then prints the samples as JSON: one ``[end_ns, wall_s,
cpu_s]`` per chunk, ``end_ns`` on the system-wide monotonic clock
(``time.perf_counter_ns``), which the benchmark process shares.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

#: a timed chunk takes 0.6-1.6 ms of CPU on a 2-vCPU Xeon VM, depending
#: on what the host's other tenants do; scaled times are seconds on a
#: host where it takes exactly REFERENCE_S (about a quiet such VM).
REFERENCE_S = 0.8e-3
#: a chunk is timed this often, on each CPU in turn (about 4% of one
#: CPU, with its warm-up).
PERIOD_S = 0.05


def _chunk() -> float:
    """The probe's fixed work: an interpreter loop over floats and a
    small dict, like most of the program's own Python."""
    acc = 0.0
    table: dict = {}
    for i in range(3000):
        key = i & 63
        table[key] = table.get(key, 0.0) * 0.5 + i
        acc += table[key] % 7.0
    return acc


def _main() -> int:
    _chunk()
    print("ready", flush=True)
    samples = []
    stdin = sys.stdin.fileno()
    # the vCPUs of a shared host change speed independently, and the
    # program's processes and threads move between them: take turns on
    # each, rather than timing whichever one the program leaves idle
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while True:
        ready, _, _ = select.select([stdin], [], [], PERIOD_S)
        if ready and not os.read(stdin, 4096):
            break  # the benchmark closed our stdin: report and exit
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        turn += 1
        # the untimed run brings the chunk back into the caches, so the
        # timed one measures the host, not how much of the cache the
        # program took meanwhile
        _chunk()
        wall = time.perf_counter()
        cpu = time.thread_time()
        _chunk()
        samples.append((time.perf_counter_ns(),
                        time.perf_counter() - wall,
                        time.thread_time() - cpu))
    json.dump(samples, sys.stdout)
    return 0


class Probe:
    """The probe process, running for the life of the ``with`` block.

    After the block, :attr:`samples` holds ``(end_ns, wall_s, cpu_s)``
    for every chunk.
    """

    def __init__(self) -> None:
        self.proc = None
        self.samples: list = []

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # set-up starts only once the probe's own start-up is over
        if self.proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise RuntimeError("the speed probe did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self.proc.communicate(timeout=10)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode == 0:
            self.samples = [tuple(s) for s in json.loads(out)]

    def factor(self, start_ns: int, end_ns: int) -> float:
        """How much slower than the reference host this host ran Python
        during [start, end): the mean CPU seconds of the chunks that
        ended inside, over ``REFERENCE_S``; for a shorter span, of the
        chunk that ended nearest to it.

        CPU seconds, not wall: a chunk waiting for a CPU the program
        keeps busy says nothing about the host's speed.
        """
        if not self.samples:
            raise RuntimeError("the speed probe recorded no chunk")
        inside = [cpu for t, _, cpu in self.samples
                  if start_ns <= t < end_ns]
        if not inside:
            middle = (start_ns + end_ns) // 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[2]]
        return sum(inside) / len(inside) / REFERENCE_S

    def scaled(self, start_ns: int, end_ns: int, within=None) -> float:
        """The seconds [start, end) would have taken on the reference
        host, by the probe's chunks of that span or of the wider span
        *within*."""
        return (end_ns - start_ns) / 1e9 / self.factor(
            *(within or (start_ns, end_ns)))

    def scaled_setups(self, spans: list) -> list:
        """Set-up spans scaled to the reference host.  Each set-up is a
        fraction of a second of process start-up, too short to pair
        with its own few chunks, so all are scaled by the chunks taken
        from the first set-up's start to the last one's end."""
        within = (spans[0][0], spans[-1][1])
        return [self.scaled(*span, within=within) for span in spans]


if __name__ == "__main__":
    sys.exit(_main())
