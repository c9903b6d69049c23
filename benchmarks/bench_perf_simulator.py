"""P1a — simulator performance: simulated cycles per host second.

Not a paper artefact; tracks the engine's throughput on a contended and
an uncontended workload so regressions in the hot loop are visible.
The fast engine (what ``simulate`` runs) is measured beside the
reference engine it is differentially tested against, on the same
lowered program, at a full team and at one core (the lone-core loop).
"""

import pytest

from repro.compiler.lowering import lower_kernel
from repro.dataset.registry import get_kernel_spec
from repro.ir.types import DType
from repro.platform.config import ClusterConfig
from repro.sim.engine import run_lowered, run_reference, simulate

from benchmarks.conftest import write_artifact


def test_simulator_throughput_scalable(benchmark):
    kernel = get_kernel_spec("gemm").build(DType.INT32, 2048)
    counters = benchmark(simulate, kernel, 8)
    write_artifact(
        "perf_simulator.txt",
        f"gemm int32 2048B @8 cores: {counters.cycles} cycles, "
        f"{counters.total_instructions} instructions per run")
    assert counters.cycles > 0


def test_simulator_throughput_contended(benchmark):
    kernel = get_kernel_spec("bank_hammer").build(DType.INT32, 2048)
    counters = benchmark(simulate, kernel, 8)
    assert counters.total_l1_conflicts > 0


@pytest.mark.parametrize("team", [1, 8])
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_engine_throughput(benchmark, engine, team):
    """One lowered gemm, run by either engine: the fast engine's gain."""
    config = ClusterConfig()
    kernel = get_kernel_spec("gemm").build(DType.FP32, 2048)
    lowered = lower_kernel(kernel, team, config)
    run = run_lowered if engine == "fast" else run_reference
    counters = benchmark(run, lowered, config)
    assert counters.as_dict() == run_reference(lowered, config).as_dict()
