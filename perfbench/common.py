"""Shared plumbing for the benchmark workloads.

Paths, order statistics, process-tree memory sampling, run metadata and
the per-run correctness ledger.  Importing this module starts nothing;
the workloads create what they need inside :class:`Workspace`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import threading

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: scratch space of one run (removed when the run ends) and the
#: per-run result files and Chrome traces (kept for inspection).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 5


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def median(values) -> float:
    return float(statistics.median(values))


def tail_quantile(n: int) -> float:
    """The highest quantile (capped at p99) with >= 10 samples beyond it.

    Below 20 samples no quantile above the median has ten samples past
    it, so the tail is reported as the maximum.
    """
    if n < 20:
        return 1.0
    return min(0.99, 1.0 - 10.0 / n)


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolated *q*-quantile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("quantile of an empty sample")
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


def canonical_digest(obj) -> str:
    """sha256 of *obj* as sorted-key compact JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Counts attempted and failed operations; remembers why they failed.

    Every output comparison, guard and ledger gate of a run goes through
    :meth:`check`, so ``failed`` is the number the result line reports
    and ``reasons`` says which comparisons failed.
    """

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Record *attempted* operations of which *failed* went wrong."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(f"{what}: {failed} of {attempted} failed")


class Workspace:
    """A private scratch directory under the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = os.path.join(WORK_ROOT, f"{label}-{os.getpid()}")

    def __enter__(self) -> "Workspace":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only succeeds once no run uses it
        except OSError:
            pass

    def sub(self, *parts: str) -> str:
        return os.path.join(self.path, *parts)


# -- memory -----------------------------------------------------------------


def _status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kib(pid: int) -> int:
    """The process's peak resident set (``VmHWM``), 0 once it is gone."""
    return _status_kib(pid, "VmHWM:")


def _descendants(pid: int) -> list:
    out = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(p) for p in fh.read().split()]
            except OSError:
                continue
            out.extend(kids)
            frontier.extend(kids)
    return out


class TreeRssSampler:
    """Samples the summed resident set of this process and its children.

    The peak of the sum is the memory the program needs at once (the
    benchmark process plus campaign workers; the *exclude* pid, the
    speed probe, is not the program's).  Sampling can miss a
    short spike, so the result is never below this process's own
    ``VmHWM`` reached while sampling.
    """

    def __init__(self, interval: float = 0.02, exclude: int = 0) -> None:
        self.interval = interval
        self.exclude = exclude
        self.peak_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-rss")

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            total = _status_kib(me, "VmRSS:")
            for child in _descendants(me):
                if child != self.exclude:
                    total += _status_kib(child, "VmRSS:")
            self.peak_kib = max(self.peak_kib, total)
            self._stop.wait(self.interval)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_kib = max(self.peak_kib, peak_rss_kib(os.getpid()))

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0


# -- metadata ---------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over every file under ``src/``: identifies the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_meta(workload: str, seed: int, seconds: float, trace: bool,
             jobs: int, **extra) -> dict:
    """What makes two ledger entries comparable across boxes."""
    import numpy

    from repro.version import CODE_VERSION

    meta = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": _git_commit(),
        "source_sha256": source_digest(), "nproc": nproc(),
        "jobs": jobs, "python": platform.python_version(),
        "numpy": numpy.__version__, "code_version": CODE_VERSION,
        "machine": platform.machine(),
    }
    meta.update(extra)
    return meta
