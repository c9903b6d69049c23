"""Property-based fuzzing of the whole pipeline.

Hypothesis generates random (small) kernels — arbitrary mixes of compute
ops, loads/stores with random affine indices, nested loops, critical
sections and DMA transfers — and every one must satisfy the system's
global invariants:

* the per-core cycle budget closes (issue + stall + cg == window);
* both lowering backends produce identical counters;
* the fast engine's counters equal the reference engine's, on random
  region structures and cluster configurations too;
* the trace -> regex -> listeners pipeline reconstructs the counters;
* useful work (memory ops, arithmetic) is conserved across team sizes;
* energy accounting accepts the counters and is strictly positive.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import compute_energy
from repro.energy.model import EnergyModel
from repro.ir import KernelBuilder, Load, Loop, Store
from repro.compiler.lowering import lower_kernel
from repro.ir.nodes import (
    Compute,
    Critical,
    DmaCopy,
    OpKind,
    ParallelFor,
    Sequential,
)
from repro.ir.expr import Affine, var
from repro.ir.types import DType
from repro.platform.config import ClusterConfig
from repro.sim.engine import run_lowered, run_reference, simulate
from repro.trace import TraceWriter
from repro.trace.analyser import analyse_trace

_KINDS = (OpKind.ALU, OpKind.FP, OpKind.DIV, OpKind.FPDIV, OpKind.NOP,
          OpKind.JUMP)


@st.composite
def leaf_stmt(draw, loop_vars):
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        kind = draw(st.sampled_from(_KINDS))
        return Compute(kind, draw(st.integers(min_value=1, max_value=6)))
    if choice in (1, 2):
        coefs = {
            name: draw(st.integers(min_value=0, max_value=5))
            for name in loop_vars
        }
        index = Affine(draw(st.integers(min_value=0, max_value=7)), coefs)
        array = draw(st.sampled_from(["A", "B"]))
        return (Load(array, index) if choice == 1
                else Store(array, index))
    if choice == 3:
        return DmaCopy(draw(st.integers(min_value=1, max_value=12)))
    inner = Compute(OpKind.ALU, draw(st.integers(min_value=1,
                                                 max_value=3)))
    return Critical([inner], name="fuzz_sec")


@st.composite
def bodies(draw, loop_vars, depth=0):
    n_stmts = draw(st.integers(min_value=1, max_value=3))
    stmts = [draw(leaf_stmt(loop_vars)) for _ in range(n_stmts)]
    if depth < 2 and draw(st.booleans()):
        inner_var = f"v{depth}"
        trip = draw(st.integers(min_value=0, max_value=4))
        inner = draw(bodies(loop_vars + (inner_var,), depth + 1))
        stmts.append(Loop(inner_var, 0, trip, inner))
    return stmts


@st.composite
def kernels(draw):
    dtype = draw(st.sampled_from([DType.INT32, DType.FP32]))
    builder = KernelBuilder("fuzz", dtype, 512)
    builder.array("A", 64)
    builder.array("B", 64)
    trip = draw(st.integers(min_value=1, max_value=12))
    builder.parallel_for("i", 0, trip, draw(bodies(("i",))))
    return builder.build()


@st.composite
def programs(draw):
    """Kernels of several regions: parallel loops (with or without the
    join barrier), master-only sequential code, explicit barriers and
    sequential-for loops around both, over L1 and L2 arrays."""
    dtype = draw(st.sampled_from([DType.INT32, DType.FP32]))
    builder = KernelBuilder("fuzz", dtype, 512)
    builder.array("A", 64)
    builder.array("B", 64, space=draw(st.sampled_from(["l1", "l2"])))
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        # a kernel needs a parallel region: the first one is
        choice = draw(st.integers(min_value=0, max_value=3)) if index else 0
        if choice == 0:
            builder.parallel_for(
                "i", 0, draw(st.integers(min_value=1, max_value=12)),
                draw(bodies(("i",))), nowait=draw(st.booleans()))
        elif choice == 1:
            builder.sequential(draw(bodies(())))
        elif choice == 2:
            builder.barrier()
        else:
            upper = var("t") + draw(st.integers(min_value=1, max_value=6))
            builder.sequential_for(
                "t", 0, draw(st.integers(min_value=1, max_value=3)), [
                    ParallelFor("i", 0, upper, draw(bodies(("t", "i")))),
                    Sequential(draw(bodies(("t",)))),
                ])
    return builder.build()


@st.composite
def configs(draw):
    """Cluster timings that move the engines' corner cases: FPUs private
    to every core or shared by all, busy L2 banks, slow lock retries."""
    return ClusterConfig(
        n_fpus=draw(st.sampled_from([1, 2, 4, 8])),
        l2_latency=draw(st.integers(min_value=1, max_value=16)),
        l2_bank_occupancy=draw(st.integers(min_value=0, max_value=20)),
        jump_cycles=draw(st.integers(min_value=1, max_value=3)),
        div_latency=draw(st.integers(min_value=1, max_value=9)),
        fpdiv_latency=draw(st.integers(min_value=1, max_value=13)),
        lock_retry_cycles=draw(st.integers(min_value=0, max_value=5)),
        fork_instrs=draw(st.integers(min_value=0, max_value=30)),
        worker_prologue_instrs=draw(st.integers(min_value=0, max_value=9)),
        join_instrs=draw(st.integers(min_value=0, max_value=9)),
        barrier_wakeup_cycles=draw(st.integers(min_value=1, max_value=4)))


class TestFuzzedKernels:
    @settings(max_examples=30, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_budget_and_energy_invariants(self, kernel, team):
        counters = simulate(kernel, team)
        counters.validate()
        breakdown = compute_energy(counters, EnergyModel.paper_table1())
        assert breakdown.total > 0

    @settings(max_examples=15, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_backend_equivalence(self, kernel, team):
        fast = simulate(kernel, team).as_dict()
        slow = simulate(kernel, team, backend="interp").as_dict()
        assert fast == slow

    @settings(max_examples=40, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_fast_engine_matches_reference(self, kernel, team):
        config = ClusterConfig()
        lowered = lower_kernel(kernel, team, config)
        fast = run_lowered(lowered, config)
        assert fast.as_dict() == run_reference(lowered, config).as_dict()

    @settings(max_examples=40, deadline=None)
    @given(kernel=programs(), config=configs(),
           team=st.integers(min_value=1, max_value=8))
    def test_fast_engine_matches_reference_on_regions(self, kernel, config,
                                                      team):
        lowered = lower_kernel(kernel, team, config)
        fast = run_lowered(lowered, config)
        fast.validate()
        assert fast.as_dict() == run_reference(lowered, config).as_dict()

    @settings(max_examples=15, deadline=None)
    @given(kernel=kernels(), team=st.integers(min_value=1, max_value=8))
    def test_trace_reconstruction(self, kernel, team):
        writer = TraceWriter()
        engine = simulate(kernel, team, trace=writer)
        rebuilt = analyse_trace(writer.lines).to_counters()
        assert rebuilt.as_dict() == engine.as_dict()

    @settings(max_examples=10, deadline=None)
    @given(kernel=kernels())
    def test_work_conservation_across_teams(self, kernel):
        from repro.ir.nodes import walk_body

        has_critical = any(
            isinstance(stmt, Critical)
            for region in kernel.parallel_regions()
            for stmt in walk_body(region.body))
        references = None
        for team in (1, 4, 8):
            counters = simulate(kernel, team)
            work = (
                # contended locks spin and issue extra probe *reads*, so
                # reads are only team-invariant without critical sections
                counters.total_l1_reads if not has_critical else 0,
                counters.total_l1_writes,
                sum(c.fp_ops + c.fpdiv_ops for c in counters.cores),
                sum(c.div_ops for c in counters.cores),
                counters.dma_transfers,
            )
            if references is None:
                references = work
            else:
                assert work == references
