"""Lower a kernel to per-core segment programs for a given team size.

A lowered program is, per core, a list of segments:

* ``("r", factory, code_sites)`` — run the instruction stream produced
  by ``factory()`` (``code_sites`` drives I-cache cold refills).  A
  codegen factory also has ``factory.folded(counters)``, the same
  stream folded to shared-resource instructions (see
  :mod:`repro.compiler.codegen`);
* ``("b", barrier_id)`` — arrive at a team barrier and sleep in clock
  gating until everyone arrived.

:attr:`LoweredProgram.folded` says whether every run segment has the
folded stream, which is what lets :func:`repro.sim.engine.run_lowered`
take its fast engine.

Segment bodies are compiled once per kernel, not once per team size:
every team size runs the same bodies with different chunk bounds.  A
small cache keyed by the kernel's value (its arrays and body) and the
cluster configuration keeps the compiled bodies of the most recent
kernels, so a labelling campaign's eight lowerings of one sample
compile each body once.  The plain stream is compiled only when an
engine first asks for it (a traced run, the reference engine).

Region structure (mirrors the PULP OpenMP runtime):

* a ``ParallelFor`` opens with the master running ``fork_instrs``
  runtime ops, a *fork barrier* releasing the team, each member running
  its chunk prologue + static chunk, an implicit *join barrier*
  (unless ``nowait``) and ``join_instrs`` on the master;
* a ``Sequential`` region runs on the master only — the workers are
  already parked at the next barrier in clock gating;
* a ``SequentialFor`` re-emits its inner regions once per iteration,
  paying the full fork/join tax every time (region bodies are compiled
  once and re-instantiated with the loop value, so lowering cost does
  not scale with the trip count);
* a trailing *final barrier* closes the measurement window for the team.

Cores outside the team get an empty program: the engine keeps them
clock-gated for the whole window, exactly like unused PULP cores.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import LoweringError
from repro.ir.nodes import (
    Barrier,
    Kernel,
    ParallelFor,
    Sequential,
    SequentialFor,
)
from repro.compiler.codegen import (compile_segment, fold_segment,
                                    segment_sites)
from repro.compiler.interp import interpret_segment
from repro.compiler.schedule import static_chunks
from repro.platform.config import ClusterConfig
from repro.platform.memory import MemoryMap


@dataclass
class LoweredProgram:
    """Per-core segment programs plus barrier metadata."""

    kernel_name: str
    team_size: int
    programs: list = field(default_factory=list)
    barrier_team: dict = field(default_factory=dict)
    #: every run segment has the folded stream (the codegen backend)
    folded: bool = False

    @property
    def n_cores(self) -> int:
        return len(self.programs)


class _CompiledSegment:
    """One segment body compiled for one kernel: folded now, plain lazily."""

    def __init__(self, body: tuple, memmap: MemoryMap,
                 config: ClusterConfig, loop_var: str | None,
                 free_vars: tuple[str, ...], prologue: int) -> None:
        self._args = (body, memmap, config.n_l1_banks, config.n_l2_banks)
        self._kwargs = dict(loop_var=loop_var, free_vars=free_vars,
                            prologue_alu=prologue)
        self.folded = fold_segment(
            *self._args, config.jump_cycles, config.div_latency,
            **self._kwargs)
        self.sites = segment_sites(body, loop_var, prologue)
        self._plain = None

    def plain(self, *params):
        if self._plain is None:
            self._plain = compile_segment(*self._args, **self._kwargs)[0]
        return self._plain(*params)


class _Factory:
    """The streams of one segment instance: ``factory()`` is the plain
    one, ``factory.folded(counters)`` the folded one."""

    __slots__ = ("_code", "_params")

    def __init__(self, code: _CompiledSegment, params: tuple) -> None:
        self._code = code
        self._params = params

    def __call__(self):
        return self._code.plain(*self._params)

    def folded(self, counters: list):
        return self._code.folded(*self._params, counters)


class _KernelCode:
    """The compiled segment bodies of one kernel on one configuration."""

    def __init__(self, kernel: Kernel, config: ClusterConfig) -> None:
        self.memmap = MemoryMap(kernel, config.n_l1_banks,
                                config.n_l2_banks, config.tcdm_bytes,
                                config.l2_bytes)
        #: (region position, prologue) -> _CompiledSegment
        self.segments: dict[tuple, _CompiledSegment] = {}


#: compiled code of the most recently lowered kernels, keyed by value
_KERNEL_CODE: OrderedDict[tuple, _KernelCode] = OrderedDict()
_KERNEL_CODE_LOCK = threading.Lock()
_KERNEL_CODE_SIZE = 8


def _kernel_code(kernel: Kernel, config: ClusterConfig) -> _KernelCode:
    key = (kernel.arrays, kernel.body, config)
    with _KERNEL_CODE_LOCK:
        code = _KERNEL_CODE.get(key)
        if code is None:
            code = _KERNEL_CODE[key] = _KernelCode(kernel, config)
            while len(_KERNEL_CODE) > _KERNEL_CODE_SIZE:
                _KERNEL_CODE.popitem(last=False)
        else:
            _KERNEL_CODE.move_to_end(key)
    return code


class _SegmentCompiler:
    """Hands out the run segments of one lowering."""

    def __init__(self, kernel: Kernel, config: ClusterConfig,
                 backend: str) -> None:
        self._config = config
        self._backend = backend
        if backend == "codegen":
            self._code = _kernel_code(kernel, config)
            self._memmap = self._code.memmap
        else:
            self._memmap = MemoryMap(kernel, config.n_l1_banks,
                                     config.n_l2_banks, config.tcdm_bytes,
                                     config.l2_bytes)

    def factory(self, position: tuple | None, body: tuple,
                loop_var: str | None, chunk: tuple[int, int],
                free_vars: tuple[str, ...], env: dict[str, int],
                prologue: int):
        """The run segment of one instance of *body*.

        *position* locates the region in the kernel (``None`` for the
        runtime's fork and join work, whose body is empty): equal kernels
        have equal bodies at equal positions, so it keys the compiled
        code without hashing the body.
        """
        lo, hi = chunk
        values = tuple([env[name] for name in free_vars])
        if self._backend == "codegen":
            segments = self._code.segments
            entry = segments.get((position, prologue))
            if entry is None:
                entry = segments[(position, prologue)] = _CompiledSegment(
                    body, self._memmap, self._config, loop_var, free_vars,
                    prologue)
            return ("r", _Factory(entry, (lo, hi, *values)), entry.sites)

        memmap, config = self._memmap, self._config
        bound_env = dict(env)

        def make_interp():
            return interpret_segment(
                body, memmap, config.n_l1_banks, config.n_l2_banks,
                loop_var=loop_var, loop_range=(lo, hi),
                prologue_alu=prologue, env=bound_env)

        return ("r", make_interp, segment_sites(body, loop_var, prologue))


def lower_kernel(kernel: Kernel, team_size: int, config: ClusterConfig,
                 backend: str = "codegen") -> LoweredProgram:
    """Lower *kernel* for a team of *team_size* cores on *config*."""
    if not 1 <= team_size <= config.n_cores:
        raise LoweringError(
            f"team size {team_size} outside [1, {config.n_cores}]")
    if backend not in ("codegen", "interp"):
        raise LoweringError(f"unknown backend {backend!r}")

    lowered = LoweredProgram(kernel.name, team_size,
                             programs=[[] for _ in range(config.n_cores)],
                             folded=backend == "codegen")
    compiler = _SegmentCompiler(kernel, config, backend)
    state = {"next_barrier": 0}

    def new_barrier() -> int:
        bid = state["next_barrier"]
        state["next_barrier"] += 1
        lowered.barrier_team[bid] = team_size
        return bid

    team = range(team_size)

    def emit_parallel_for(region: ParallelFor, position: tuple,
                          free_vars: tuple, env: dict[str, int]) -> None:
        fork_id = new_barrier()
        join_id = None if region.nowait else new_barrier()
        lo = region.lower.evaluate(env)
        hi = region.upper.evaluate(env)
        chunks = static_chunks(lo, hi, team_size)
        for core in team:
            program = lowered.programs[core]
            if core == 0 and config.fork_instrs > 0:
                program.append(compiler.factory(
                    None, (), None, (0, 0), (), {},
                    prologue=config.fork_instrs))
            program.append(("b", fork_id))
            program.append(compiler.factory(
                position, region.body, region.var, chunks[core], free_vars,
                env, prologue=config.worker_prologue_instrs))
            if join_id is not None:
                program.append(("b", join_id))
                if core == 0 and config.join_instrs > 0:
                    program.append(compiler.factory(
                        None, (), None, (0, 0), (), {},
                        prologue=config.join_instrs))

    def emit_region(region, position: tuple, free_vars: tuple,
                    env: dict[str, int]) -> None:
        if isinstance(region, ParallelFor):
            emit_parallel_for(region, position, free_vars, env)
        elif isinstance(region, Sequential):
            lowered.programs[0].append(compiler.factory(
                position, region.body, None, (0, 0), free_vars, env,
                prologue=0))
        elif isinstance(region, Barrier):
            bid = new_barrier()
            for core in team:
                lowered.programs[core].append(("b", bid))
        elif isinstance(region, SequentialFor):
            if free_vars:
                raise LoweringError("sequential-for loops cannot nest")
            lo = region.lower.const
            hi = region.upper.const
            for value in range(lo, hi):
                inner_env = {region.var: value}
                for index, inner in enumerate(region.body):
                    emit_region(inner, position + (index,), (region.var,),
                                inner_env)
        else:
            raise LoweringError(f"unexpected top-level region "
                                f"{type(region).__name__}")

    for index, region in enumerate(kernel.body):
        emit_region(region, (index,), (), {})

    final_id = new_barrier()
    for core in team:
        lowered.programs[core].append(("b", final_id))
    return lowered
