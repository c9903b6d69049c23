"""Simulator engine tests: accounting invariants, shared-resource
arbitration, synchronisation, and cross-team conservation laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.lowering import LoweredProgram, lower_kernel
from repro.errors import SimulationError
from repro.ir import (
    Compute,
    Critical,
    KernelBuilder,
    Load,
    OpKind,
    Store,
)
from repro.ir.expr import var
from repro.ir.types import DType
from repro.isa.opcodes import OP_LD
from repro.platform.config import ClusterConfig
from repro.sim.engine import run_lowered, run_reference, simulate
from tests.conftest import make_axpy, make_matmul


def _simple_kernel(body_factory, n=32, dtype=DType.INT32, arrays=("A", "B")):
    b = KernelBuilder("t", dtype, 512)
    arrs = {name: b.array(name, n) for name in arrays}
    b.parallel_for("i", 0, n, body_factory(b, arrs, var("i")))
    return b.build()


class TestCycleBudget:
    """issue + stall + cg == window for every core, every config."""

    @pytest.mark.parametrize("team", [1, 2, 3, 5, 8])
    def test_budget_axpy(self, team):
        counters = simulate(make_axpy(DType.INT32, 512), team)
        counters.validate()  # raises on violation
        for core in counters.cores:
            assert (core.issue_cycles + core.stall_cycles
                    + core.cg_cycles) == counters.cycles

    @pytest.mark.parametrize("team", [1, 4, 8])
    def test_budget_matmul_fp(self, team):
        counters = simulate(make_matmul(DType.FP32, 1024), team)
        counters.validate()

    def test_offteam_cores_fully_gated(self):
        counters = simulate(make_axpy(DType.INT32, 512), 3)
        for core in counters.cores[3:]:
            assert core.cg_cycles == counters.cycles
            assert core.issue_cycles == 0


class TestWorkConservation:
    """The kernel's useful ops don't depend on the team size."""

    def test_memory_ops_conserved_across_teams(self):
        totals = []
        for team in range(1, 9):
            counters = simulate(make_axpy(DType.INT32, 512), team)
            totals.append(counters.total_l1_reads
                          + counters.total_l1_writes)
        assert len(set(totals)) == 1

    def test_fp_ops_conserved_and_on_fpus(self):
        for team in (1, 4, 8):
            counters = simulate(make_axpy(DType.FP32, 512), team)
            core_fp = sum(c.fp_ops + c.fpdiv_ops for c in counters.cores)
            assert sum(counters.fpu_ops) == core_fp

    def test_int_kernel_never_touches_fpu(self):
        counters = simulate(make_matmul(DType.INT32, 512), 8)
        assert sum(counters.fpu_ops) == 0

    def test_runtime_decreases_with_cores_for_scalable_kernel(self):
        cycles = [simulate(make_matmul(DType.INT32, 2048), t).cycles
                  for t in (1, 2, 4, 8)]
        assert cycles[0] > cycles[1] > cycles[2] > cycles[3]


class TestBankConflicts:
    def test_same_bank_stride_conflicts(self):
        def body(b, arrs, i):
            return [Load("A", i * 16), Store("B", i * 16)]

        kernel = _simple_kernel(body, n=64)
        serial = simulate(kernel, 1)
        parallel = simulate(kernel, 8)
        assert serial.total_l1_conflicts == 0
        assert parallel.total_l1_conflicts > 0

    def test_conflicts_hit_single_bank(self):
        def body(b, arrs, i):
            return [Load("A", i * 16), Compute(OpKind.ALU, 1)]

        kernel = _simple_kernel(body, n=64, arrays=("A",))
        counters = simulate(kernel, 8)
        busy = [idx for idx, bank in enumerate(counters.l1_banks)
                if bank.conflicts > 0]
        assert busy == [0]  # array A is at base word 0

    def test_stride1_conflicts_below_hammer(self):
        # Static contiguous chunks put every core on the same start bank,
        # so stride-1 is not conflict-free — but it must stay well below
        # the worst-case same-bank hammer pattern.
        def stride1(b, arrs, i):
            return [Load("A", i), Compute(OpKind.ALU, 2), Store("B", i)]

        def hammer(b, arrs, i):
            return [Load("A", i * 16), Compute(OpKind.ALU, 2),
                    Store("B", i * 16)]

        friendly = simulate(_simple_kernel(stride1, n=128), 8)
        hammered = simulate(_simple_kernel(hammer, n=128), 8)
        assert friendly.total_l1_conflicts < hammered.total_l1_conflicts
        assert friendly.cycles < hammered.cycles


class TestFpuSharing:
    def test_fp_dense_kernel_saturates_shared_fpus(self):
        def body(b, arrs, i):
            return [Load("A", i), Compute(OpKind.FP, 16), Store("B", i)]

        kernel = _simple_kernel(body, n=64, dtype=DType.FP32)
        t4 = simulate(kernel, 4)   # one core per FPU: no sharing
        t8 = simulate(kernel, 8)   # two cores per FPU: contention
        stalls4 = sum(c.stall_cycles for c in t4.cores)
        stalls8 = sum(c.stall_cycles for c in t8.cores)
        assert stalls8 > stalls4 * 2
        # speed-up from 4 to 8 cores collapses under saturation
        assert t8.cycles > t4.cycles * 0.75

    def test_fpdiv_occupies_fpu(self):
        def body(b, arrs, i):
            return [Load("A", i), Compute(OpKind.FPDIV, 1), Store("B", i)]

        kernel = _simple_kernel(body, n=16, dtype=DType.FP32)
        counters = simulate(kernel, 8)
        assert sum(c.fpdiv_ops for c in counters.cores) == 16
        assert sum(c.stall_cycles for c in counters.cores) > 0


class TestLongLatencies:
    def test_l2_access_stalls_core(self):
        b = KernelBuilder("l2", DType.INT32, 512)
        b.array("Z", 64, space="l2")
        b.parallel_for("i", 0, 16, [Load("Z", var("i"))])
        kernel = b.build()
        config = ClusterConfig()
        counters = simulate(kernel, 1, config)
        core = counters.cores[0]
        assert core.l2_ops == 16
        assert core.stall_cycles >= 16 * (config.l2_latency - 1)
        assert sum(bank.reads for bank in counters.l2_banks) == 16

    def test_div_latency_accounted(self):
        def body(b, arrs, i):
            return [Compute(OpKind.DIV, 1), Load("A", i)]

        kernel = _simple_kernel(body, n=8, arrays=("A",))
        config = ClusterConfig()
        counters = simulate(kernel, 1, config)
        core = counters.cores[0]
        assert core.div_ops == 8
        assert core.stall_cycles >= 8 * (config.div_latency - 1)


class TestCriticalSections:
    def test_lock_serialises_and_burns_bank_reads(self):
        def body(b, arrs, i):
            return [Critical([Load("A", 0), Compute(OpKind.ALU, 1),
                              Store("A", 0)], name="sec")]

        kernel = _simple_kernel(body, n=32, arrays=("A",))
        serial = simulate(kernel, 1)
        parallel = simulate(kernel, 8)
        # contended locks spin: more probe reads than the serial run
        assert (parallel.total_l1_reads > serial.total_l1_reads)
        # serialisation destroys the speed-up
        assert parallel.cycles > serial.cycles * 0.5


class TestDeterminism:
    def test_same_input_same_counters(self):
        kernel = make_matmul(DType.FP32, 512)
        a = simulate(kernel, 5).as_dict()
        b = simulate(kernel, 5).as_dict()
        assert a == b

    @settings(max_examples=10, deadline=None)
    @given(team=st.integers(min_value=1, max_value=8),
           size=st.sampled_from([256, 512, 1024]))
    def test_budget_property(self, team, size):
        counters = simulate(make_axpy(DType.FP32, size), team)
        counters.validate()


class _Endless:
    """A segment factory whose folded stream loads from bank 0 forever."""

    @staticmethod
    def folded(counters):
        while True:
            yield (OP_LD, 0, 1)


def _endless_program(team: int) -> LoweredProgram:
    return LoweredProgram(
        "endless", team, folded=True,
        programs=[[("r", _Endless(), 1)] if c < team else []
                  for c in range(8)])


class TestGuards:
    def test_runaway_guard(self):
        kernel = make_matmul(DType.INT32, 2048)
        with pytest.raises(SimulationError, match="exceeded"):
            simulate(kernel, 1, max_cycles=100)

    @pytest.mark.parametrize("team", [1, 8])
    def test_limit_raises_the_reference_error(self, team):
        """Team 1 runs in the fast engine's lone-core loop, team 8 in its
        lockstep loop; both fail exactly when the reference does."""
        config = ClusterConfig()
        lowered = lower_kernel(make_matmul(DType.INT32, 512), team, config)
        window = run_reference(lowered, config).cycles
        for limit in (100, window // 2, window - 1):
            with pytest.raises(SimulationError, match="exceeded") as fast:
                run_lowered(lowered, config, max_cycles=limit)
            with pytest.raises(SimulationError) as ref:
                run_reference(lowered, config, max_cycles=limit)
            assert str(fast.value) == str(ref.value)
        assert run_lowered(lowered, config,
                           max_cycles=window).cycles == window

    @pytest.mark.parametrize("team", [1, 8])
    def test_limit_stops_an_endless_segment(self, team):
        """The lone-core loop checks the limit itself: a segment that
        never ends must not hang it."""
        with pytest.raises(SimulationError,
                           match="'endless' exceeded 1000 cycles"):
            run_lowered(_endless_program(team), ClusterConfig(),
                        max_cycles=1000)

    def test_icache_counts_positive(self):
        counters = simulate(make_axpy(DType.INT32, 512), 2)
        assert counters.icache_fetches == sum(c.issue_cycles
                                              for c in counters.cores)
        assert counters.icache_refills > 0
