"""The repository benchmark: one command, four workloads, two ledgers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload campaign_cold --seed 0 \\
        --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``campaign_cold`` -- a cold labelling campaign over the ``quick`` grid;
* ``train_eval``    -- the paper's CV protocol (``run_headline``);
* ``serve_rows``    -- JSON single-row requests on ``repro serve``;
* ``serve_stream``  -- binary-v2 stream frames + blocks on ``repro serve``.

``--trace 0`` measures the end-to-end metrics, its times scaled to a
reference host by a speed probe running beside the program
(``probe.py``); ``--trace 1`` takes the
per-layer ledger from spans around calls into each layer and fails the
run when the stages do not add up to the traced wall.  Every output is
checked (pinned digests, invariants, reference predictions); the last
line of standard output is the JSON result, the lines before it a
readable summary.  Full results and Chrome traces land in
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from common import (
    BENCHMARK_PATH,
    OUT_DIR,
    PINS_PATH,
    SRC,
    Checks,
    TreeRssSampler,
    Workspace,
    load_json,
    median,
    nproc,
    run_meta,
)


class Context:
    """Everything a workload needs for one run."""

    def __init__(self, args, ws: Workspace, pins: dict) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.jobs = nproc()
        self.ws = ws
        self.pins = pins
        self.checks = Checks()
        self.meta: dict = {}

    def chrome_path(self) -> str:
        return os.path.join(OUT_DIR,
                            f"{self.workload}-seed{self.seed}.trace.json")

    def repeat_units(self, probe, unit) -> tuple:
        """Run *unit()* (it returns the ``perf_counter_ns`` span of its
        work) once, then again while another is expected to end inside
        the ``--seconds`` window, sampling the program's memory; returns
        (spans, peak MiB)."""
        spans: list = []
        window = int(self.seconds * 1e9)
        with TreeRssSampler(exclude=probe.proc.pid) as rss:
            start = time.perf_counter_ns()
            while not spans or (time.perf_counter_ns() - start
                                + spans[-1][1] - spans[-1][0] <= window):
                spans.append(unit())
        return spans, rss.peak_mib

    def unit_metrics(self, probe, setups: list, spans: list, rows: int,
                     peak_rss_mb: float) -> dict:
        """End-to-end metrics of a workload whose unit of work is one
        long operation (a campaign, a protocol run): the unit's wall
        time and the dataset rows it handles per second, each span
        scaled to the reference host by the speed probe's chunks taken
        during it.  The raw figures are kept as ``host.*``."""
        walls = [probe.scaled(*span) for span in spans]
        setup_walls = probe.scaled_setups(setups)
        host_walls = [(b - a) / 1e9 for a, b in spans]
        host_setups = [(b - a) / 1e9 for a, b in setups]
        self.meta.update(rows=rows, walls_s=walls, setups_s=setup_walls,
                         host_walls_s=host_walls, host_setups_s=host_setups)
        wall = median(walls)
        return {
            "setup_s": median(setup_walls),
            "wall_s": wall,
            "rows_per_s": rows / wall,
            "peak_rss_mb": peak_rss_mb,
            "host.setup_s": median(host_setups),
            "host.wall_s": median(host_walls),
            "host.speed_factor": probe.factor(spans[0][0], spans[-1][1]),
        }

    def ledger_gate(self, tracer, root_sid: int, stages: dict,
                    tolerance: float) -> dict:
        """The ledger of the traced section, checked to add up: the run
        fails unless the stages explain the traced wall to within
        *tolerance* (a missing stage means the ledger is wrong)."""
        ledger = tracer.ledger(root_sid, stages)
        self.checks.check(not tracer.missing,
                          f"layer functions not found: {tracer.missing}")
        self.checks.check(
            abs(1.0 - ledger["coverage"]) <= tolerance,
            f"ledger coverage {ledger['coverage']:.4f} outside "
            f"1 +- {tolerance}")
        ledger["tolerance"] = tolerance
        return ledger


#: units of what a workload measures besides the BENCHMARK.json metrics
INFO_UNITS = {"rows_per_s": "rows/s",
              "p50_us": "us", "p90_us": "us", "p99_us": "us",
              "host.setup_s": "s", "host.wall_s": "s",
              "host.rows_per_s": "rows/s", "host.speed_factor": "ratio"}


def _workload_module(name: str):
    if name == "campaign_cold":
        import campaign as module
    elif name == "train_eval":
        import train_eval as module
    else:
        import serve as module
    return module


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: daemons and dirs cleaned


def main(argv=None) -> int:
    bench = load_json(BENCHMARK_PATH)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    # a caller in the background may start us with SIGINT ignored, which
    # every child would inherit: the daemon stops on SIGINT
    signal.signal(signal.SIGINT, signal.default_int_handler)

    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    with Workspace(args.workload) as ws:
        ctx = Context(args, ws, load_json(PINS_PATH))
        measured = _workload_module(args.workload).run(ctx)

    kind = "per_layer" if args.trace else "end_to_end"
    checks = ctx.checks
    metrics = {}
    for spec in bench[kind]:
        name = spec["name"]
        if name not in measured and not args.trace:
            raise KeyError(f"workload {args.workload} did not measure "
                           f"{name}")
        # a layer the workload never calls reads 0
        metrics[name] = {"value": measured.pop(name, 0.0),
                         "unit": spec["unit"]}
    # measured but not gated: printed, and kept in the details file
    info = {name: {"value": value, "unit": INFO_UNITS[name]}
            for name, value in measured.items()}
    info["failed_ratio"] = {"value": checks.failed / checks.attempted,
                            "unit": "ratio"}
    correct = checks.failed == 0
    meta = run_meta(args.workload, args.seed, args.seconds,
                    bool(args.trace), ctx.jobs, **ctx.meta)
    meta["elapsed_s"] = time.perf_counter() - started
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as handle:
        json.dump({"meta": meta, "correct": correct,
                   "attempted": checks.attempted, "failed": checks.failed,
                   "failure_reasons": checks.reasons, "metrics": metrics,
                   "not_gated": info},
                  handle, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={ctx.jobs} nproc={meta['nproc']} "
          f"code_version={meta['code_version']} "
          f"commit={meta['commit'] or 'n/a'} "
          f"source={meta['source_sha256'][:12]}")
    for name, entry in metrics.items():
        print(f"#   {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    for name, entry in info.items():
        print(f"#   {name:32s} {entry['value']:>16.6g} {entry['unit']}"
              f"  (not gated)")
    for reason in checks.reasons:
        print(f"# FAILED: {reason}")
    print(f"# details: {os.path.relpath(out_path)}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    # a single wrong output, failed guard or ledger gate fails the run
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
