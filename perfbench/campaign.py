"""``campaign_cold``: one labelling campaign over the ``quick`` grid.

Untraced, the campaign runs the way ``repro --jobs N build-dataset``
runs it: ``build_dataset(..., jobs=nproc)`` on a fresh, empty
simulation cache, with the kernels in registry order.  The labelled
dataset is compared sample by sample with the pin.

The seed does not change this workload's inputs.  A seed-permuted
submission order was considered and rejected: the pool hands out fixed
chunks in submission order, so on a 2-CPU box the order alone moves the
campaign's wall between 23.0 and 28.2 s (quartile spread 6.4% of the
median over 40 orders, replayed from traced per-sample times) -- more
than a regression bound can absorb.

Traced, one untraced pool campaign gives the wall the pool efficiency
is computed against, then the same campaign is replayed serially with a
span around every call into each layer, so every sample's stages are
visible (a process pool would hide them).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

from common import SETUP_REPEATS, SRC
from data import check_dataset, sim_entries
from probe import Probe
from spans import Tracer

PROFILE = "quick"

#: a fresh interpreter importing the campaign's layers, resolving the
#: grid and opening an empty cache: what a user of ``build-dataset``
#: waits for before the first simulation starts.
_READY = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.dataset.build import SimCache;"
    "from repro.dataset.registry import all_kernel_specs;"
    "from repro.dataset.spec import enumerate_samples, profile_sizes;"
    "grid = enumerate_samples(all_kernel_specs(), profile_sizes(sys.argv[3]));"
    "SimCache(sys.argv[2]); print(len(grid))"
)

#: the stages must explain the serial replay to within this share.
LEDGER_TOLERANCE = 0.03
#: ledger stages of the serial replay -> the span names each sums.
STAGES = {
    "dataset.spec_build": ("dataset.spec_build",),
    "features.static": ("features.raw", "features.agg", "features.mca"),
    "compiler.lower": ("compiler.lower",),
    "sim.run": ("sim.run", "sim.validate"),
    "energy.account": ("energy.account",),
    "features.dynamic": ("features.dynamic", "features.dynamic_flatten"),
    "dataset.cache_io": ("dataset.cache_load", "dataset.cache_store",
                         "dataset.fingerprint", "dataset.save"),
}


def _ready_span(ctx, index: int) -> tuple:
    """One set-up; returns its ``perf_counter_ns`` span."""
    cache = ctx.ws.sub(f"ready-{index}")
    start = time.perf_counter_ns()
    out = subprocess.run(
        [sys.executable, "-c", _READY, SRC, cache, PROFILE],
        capture_output=True, text=True, timeout=120, check=True)
    end = time.perf_counter_ns()
    n = int(out.stdout.strip() or 0)
    ctx.checks.check(n == ctx.pins["campaign_cold"]["n_samples"],
                     f"ready state resolved {n} samples")
    ctx.checks.check(os.path.isdir(cache) and not os.listdir(cache),
                     "ready state did not leave an empty cache")
    return start, end


def _campaign(ctx, index: int, jobs: int, span=nullcontext):
    """One cold campaign, its build inside *span*; returns
    (its ``perf_counter_ns`` span, dataset)."""
    from repro.dataset.build import build_dataset

    cache = ctx.ws.sub(f"cold-{index}")
    os.makedirs(cache)
    start = time.perf_counter_ns()
    with span():
        dataset = build_dataset(PROFILE, cache_dir=cache, jobs=jobs)
    end = time.perf_counter_ns()
    n = ctx.pins["campaign_cold"]["n_samples"]
    # the cache started empty, so every stored entry is one miss and
    # nothing could hit
    misses = len(sim_entries(cache))
    ctx.checks.check(misses == n, f"cold guard: {misses} cache misses "
                     f"for {n} samples")
    ctx.meta.setdefault("digests", []).append(check_dataset(
        ctx.checks, dataset, ctx.pins["campaign_cold"],
        f"campaign (jobs={jobs})"))
    shutil.rmtree(cache, ignore_errors=True)
    return (start, end), dataset


def run(ctx) -> dict:
    if ctx.trace:
        return _traced(ctx)
    campaigns = []

    def unit() -> tuple:
        span, dataset = _campaign(ctx, len(campaigns), ctx.jobs)
        campaigns.append(len(dataset))
        return span

    with Probe() as probe:
        setups = [_ready_span(ctx, i) for i in range(SETUP_REPEATS)]
        spans, peak_mib = ctx.repeat_units(probe, unit)
    return ctx.unit_metrics(probe, setups, spans, rows=campaigns[0],
                            peak_rss_mb=peak_mib)


def _traced(ctx) -> dict:
    import repro.dataset.build as build
    import repro.dataset.cache as cache
    import repro.dataset.spec as spec
    import repro.sim.engine as engine
    from repro.sim.counters import ClusterCounters

    (start, end), _ = _campaign(ctx, 0, ctx.jobs)
    pool_wall = (end - start) / 1e9

    tracer = Tracer()
    for owner, attr, name, attrs_of in (
            (build, "build_sample", "dataset.sample", None),
            (spec.SampleSpec, "build", "dataset.spec_build", None),
            (build, "kernel_fingerprint", "dataset.fingerprint", None),
            (cache.SimCache, "load", "dataset.cache_load",
             lambda teams: {"hit": bool(teams)}),
            (cache.SimCache, "store", "dataset.cache_store", None),
            (build.Dataset, "save", "dataset.save", None),
            (build, "extract_raw", "features.raw", None),
            (build, "agg_from_raw", "features.agg", None),
            (build, "extract_mca", "features.mca", None),
            (build, "simulate", "sim.simulate", None),
            (engine, "lower_kernel", "compiler.lower", None),
            (engine, "run_lowered", "sim.run",
             lambda counters: {"cycles": counters.cycles}),
            (ClusterCounters, "validate", "sim.validate", None),
            (build, "compute_energy", "energy.account", None),
            (build, "extract_dynamic", "features.dynamic", None),
            (build, "flatten_dynamic", "features.dynamic_flatten", None)):
        tracer.instrument(owner, attr, name, attrs_of)
    try:
        _campaign(ctx, 1, 1, span=lambda: tracer.span("campaign.serial"))
    finally:
        tracer.restore()
    root = tracer.by_name("campaign.serial")[0][0]
    tracer.write_chrome(ctx.chrome_path())

    ledger = ctx.ledger_gate(tracer, root, STAGES, LEDGER_TOLERANCE)
    stages = ledger["stages_s"]
    run_s = stages["sim.run"]
    cycles = sum(tracer.attrs[s[0]]["cycles"]
                 for s in tracer.by_name("sim.run"))
    per_sample = sorted(tracer.sum_by_ancestor(
        ("sim.run", "sim.validate"), "dataset.sample").values(),
        reverse=True)
    tail = per_sample[:max(1, -(-len(per_sample) // 10))]
    loads = tracer.by_name("dataset.cache_load")
    hits = sum(1 for s in loads if tracer.attrs[s[0]]["hit"])
    n = ctx.pins["campaign_cold"]["n_samples"]
    ctx.checks.check(len(loads) - hits == n and hits == 0,
                     f"cold guard (traced): {len(loads) - hits} misses, "
                     f"{hits} hits for {n} samples")
    serial_sum = sum(stages.values())
    ctx.meta.update(pool_wall_s=pool_wall, ledger=ledger,
                    samples_traced=len(per_sample))
    return {
        "sim.run_s": run_s,
        "sim.mcycles_per_s": cycles / run_s / 1e6 if run_s else 0.0,
        "sim.cycles": cycles,
        "sim.tail10_share": sum(tail) / sum(per_sample),
        "parallel.pool_efficiency": serial_sum / (ctx.jobs * pool_wall),
        "compiler.lower_s": stages["compiler.lower"],
        "features.static_s": stages["features.static"],
        "features.dynamic_s": stages["features.dynamic"],
        "energy.account_s": stages["energy.account"],
        "dataset.spec_build_s": stages["dataset.spec_build"],
        "dataset.cache_io_s": stages["dataset.cache_io"],
        "dataset.cache_misses": len(loads) - hits,
        "dataset.cache_hits": hits,
        "ledger.coverage": ledger["coverage"],
        "trace.overhead_pct": tracer.overhead_pct(ledger["wall_s"]),
    }
