"""Cycle-lockstep simulation of the PULP cluster.

Each simulated cycle, every team core in (rotating) priority order either
issues one instruction, retries a conflicted access, or sleeps:

* a TCDM bank serves one request per cycle; additional requesters record
  a *conflict* on the bank and an active-wait cycle on the core;
* FP ops arbitrate for the core's statically-mapped shared FPU (one op
  per cycle per FPU; FP divisions occupy the unit for their latency);
* L2 accesses stall the core for ``l2_latency`` cycles, taken branches
  for ``jump_cycles``, dividers for their latency;
* barrier arrivals park the core in clock gating through the event unit;
  the last arrival releases the team after ``barrier_wakeup_cycles``;
* lock probes (critical sections) are TCDM reads on the lock's bank,
  retried every ``lock_retry_cycles`` — spinning burns real bank energy.

Cores outside the team stay clock-gated for the whole window.  When no
core can issue, the engine jumps straight to the next wake-up cycle, so
barrier-heavy and long-latency phases cost little host time.

Accounting invariant (checked by ``ClusterCounters.validate``): for every
team core, ``issue_cycles + stall_cycles + cg_cycles == window cycles``.

Two engines implement these rules and return identical counters:

* :func:`run_reference` steps every core through every instruction of
  the plain stream.  It is the oracle: it runs traced simulations
  (``trace=``), programs lowered with ``backend="interp"``, and the
  differential tests.
* The fast engine runs every other (codegen-lowered, untraced) program.
  Its segments are folded (:func:`repro.compiler.codegen.fold_segment`):
  they yield only shared-resource instructions, each after an inline
  delay that stands for the core-local ops before it.  Those ops touch
  no shared state, so only their summed latency can affect another
  core.  Each core keeps one *ready-at* cycle, the next cycle it acts
  at, in place of a status and a resume cycle; it fetches its next
  shared instruction when the previous one issues, so lockstep steps
  it once per shared instruction.  A multi-op FP macro issues whole
  when no core sharing its FPU can ask for the unit before the macro
  ends.  When exactly one team
  core is awake (team 1, sequential regions, the master's fork and join
  work, the last core into a barrier) it runs without rotation: no
  other core can contend for a bank or an FPU, and it keeps every
  L1/L2/FPU check anyway.  Locks, DMA transfers and barriers go back to
  the lockstep loop, which arbitrates them in rotating priority order.
"""

from __future__ import annotations

from itertools import chain

# Per-core counter slots (lists are faster than attribute access here).
from repro.compiler.codegen import (
    N_SLOTS,
    SLOT_ALU as _ALU,
    SLOT_CG as _CGC,
    SLOT_DIV as _DIVC,
    SLOT_FP as _FPC,
    SLOT_FPDIV as _FPDIVC,
    SLOT_JMP as _JMPC,
    SLOT_L1 as _L1C,
    SLOT_L2 as _L2C,
    SLOT_NOP as _NOPC,
    SLOT_STALL as _STALLC,
    SLOT_TAIL as _TAIL,
)
from repro.compiler.lowering import LoweredProgram, lower_kernel
from repro.errors import SimulationError
from repro.ir.nodes import Kernel
from repro.isa.opcodes import (
    OP_ALU,
    OP_DIV,
    OP_DMA,
    OP_FDIV,
    OP_FP,
    OP_JMP,
    OP_LD,
    OP_LD2,
    OP_LOCK,
    OP_NOP,
    OP_ST,
    OP_ST2,
    OP_UNLOCK,
)
from repro.platform.config import ClusterConfig
from repro.sim.counters import BankCounters, ClusterCounters, CoreCounters

# Core scheduling states.
_RUN = 0
_STALL = 1
_BARRIER = 2
_DONE = 3

_DEFAULT_MAX_CYCLES = 200_000_000

#: ready-at cycle of a core parked at a barrier or done (the fast engine)
_PARKED = 1 << 62
#: instructions the fast engine's lone-core loop hands back to lockstep
_LOCKSTEP_OPS = (OP_LOCK, OP_UNLOCK, OP_DMA)


def run_lowered(lowered: LoweredProgram, config: ClusterConfig,
                trace=None, max_cycles: int | None = None) -> ClusterCounters:
    """Execute a lowered program and return the event counters.

    Untraced programs with folded segments (the codegen backend) run on
    the fast engine; the rest run on :func:`run_reference`.  Both give
    the same counters.
    """
    if trace is None and lowered.folded:
        limit = max_cycles if max_cycles is not None else _DEFAULT_MAX_CYCLES
        return _run_fast(lowered, config, limit)
    return run_reference(lowered, config, trace=trace, max_cycles=max_cycles)


def run_reference(lowered: LoweredProgram, config: ClusterConfig,
                  trace=None, max_cycles: int | None = None
                  ) -> ClusterCounters:
    """Step every core through the plain instruction stream (the oracle)."""
    n_cores = config.n_cores
    team = [c for c in range(n_cores) if lowered.programs[c]]
    if not team:
        raise SimulationError("lowered program has no active cores")
    limit = max_cycles if max_cycles is not None else _DEFAULT_MAX_CYCLES

    # --- mutable per-core state -------------------------------------------------
    status = [_DONE] * n_cores
    resume = [0] * n_cores
    iters: list = [None] * n_cores
    pending: list = [None] * n_cores
    seg_idx = [0] * n_cores
    sleep_from = [0] * n_cores
    finish = [0] * n_cores
    cnt = [[0] * 10 for _ in range(n_cores)]
    for c in team:
        status[c] = _RUN

    # --- shared resources ----------------------------------------------------------
    n_l1 = config.n_l1_banks
    n_l2 = config.n_l2_banks
    l1_stamp = [-1] * n_l1
    l2_stamp = [-1] * n_l2
    l1_reads = [0] * n_l1
    l1_writes = [0] * n_l1
    l1_conf = [0] * n_l1
    l2_reads = [0] * n_l2
    l2_writes = [0] * n_l2
    l2_conf = [0] * n_l2
    l2_busy_until = [0] * n_l2
    fpu_stamp = [-1] * config.n_fpus
    fpu_busy_until = [0] * config.n_fpus
    fpu_ops = [0] * config.n_fpus
    fpu_map = [config.fpu_of_core(c) for c in range(n_cores)]
    lock_holder: dict[int, int | None] = {}
    barrier_count: dict[int, int] = {}
    barrier_waiters: dict[int, list[int]] = {}
    icache_refills = 0
    dma_busy_until = 0
    dma_transfers = 0

    programs = lowered.programs
    barrier_team = lowered.barrier_team
    wakeup = config.barrier_wakeup_cycles
    jump_cycles = config.jump_cycles
    l2_latency = config.l2_latency
    l2_occupancy = config.l2_bank_occupancy
    div_latency = config.div_latency
    fpdiv_latency = config.fpdiv_latency
    lock_retry = config.lock_retry_cycles
    line_instrs = config.icache_line_instrs

    n_team = len(team)
    orders = [[team[(r + k) % n_team] for k in range(n_team)]
              for r in range(n_team)]

    done_count = 0
    cycle = 0
    tw = trace
    if tw is not None:
        tw.kernel_marker(0, "begin")

    while done_count < n_team:
        if cycle > limit:
            raise SimulationError(
                f"simulation of {lowered.kernel_name!r} exceeded "
                f"{limit} cycles (deadlock or runaway kernel)")
        any_run = False
        for c in orders[cycle % n_team]:
            st = status[c]
            if st == _STALL:
                if resume[c] > cycle:
                    continue
                st = status[c] = _RUN
            elif st != _RUN:
                continue

            ins = pending[c]
            ccnt = cnt[c]
            # -- fetch next instruction / advance segments -------------------
            if ins is None:
                while True:
                    it = iters[c]
                    if it is not None:
                        ins = next(it, None)
                        if ins is not None:
                            break
                        iters[c] = None
                        continue
                    segs = programs[c]
                    si = seg_idx[c]
                    if si >= len(segs):
                        status[c] = _DONE
                        finish[c] = cycle
                        done_count += 1
                        break
                    seg = segs[si]
                    seg_idx[c] = si + 1
                    if seg[0] == "r":
                        iters[c] = seg[1]()
                        lines = -(-seg[2] // line_instrs)
                        icache_refills += lines
                        if tw is not None:
                            tw.icache(cycle, "refill", lines)
                        continue
                    # barrier arrival: costs one ALU-class issue cycle
                    bid = seg[1]
                    ccnt[_ALU] += 1
                    if tw is not None:
                        tw.instr(cycle, c, OP_ALU, 1)
                    arrived = barrier_count.get(bid, 0) + 1
                    if arrived >= barrier_team[bid]:
                        barrier_count[bid] = 0
                        rel = cycle + wakeup
                        for w in barrier_waiters.pop(bid, ()):
                            status[w] = _STALL
                            resume[w] = rel
                            cnt[w][_CGC] += rel - sleep_from[w]
                            if tw is not None:
                                tw.core_state(rel, w, "cg_exit")
                        status[c] = _STALL
                        resume[c] = rel
                        ccnt[_STALLC] += wakeup - 1
                        if tw is not None and wakeup > 1:
                            tw.core_state(cycle, c, f"stall {wakeup - 1}")
                    else:
                        barrier_count[bid] = arrived
                        barrier_waiters.setdefault(bid, []).append(c)
                        status[c] = _BARRIER
                        sleep_from[c] = cycle + 1
                        if tw is not None:
                            tw.core_state(cycle + 1, c, "cg_enter")
                    any_run = True  # the arrival consumed this cycle
                    break
                if ins is None:
                    continue

            # -- dispatch ------------------------------------------------------
            op = ins[0]
            arg = ins[1]
            if op == OP_ALU:
                ccnt[_ALU] += arg
                pending[c] = None
                if arg > 1:
                    status[c] = _STALL
                    resume[c] = cycle + arg  # busy issuing, not waiting
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
            elif op == OP_LD or op == OP_ST:
                if l1_stamp[arg] == cycle:
                    l1_conf[arg] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l1(cycle, arg, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l1_stamp[arg] = cycle
                    ccnt[_L1C] += 1
                    pending[c] = None
                    if op == OP_LD:
                        l1_reads[arg] += 1
                    else:
                        l1_writes[arg] += 1
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l1(cycle, arg,
                              "read" if op == OP_LD else "write")
            elif op == OP_FP:
                f = fpu_map[c]
                if fpu_stamp[f] == cycle or fpu_busy_until[f] > cycle:
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.core_state(cycle, c, "stall 1")
                else:
                    fpu_stamp[f] = cycle
                    fpu_ops[f] += 1
                    ccnt[_FPC] += 1
                    pending[c] = (OP_FP, arg - 1) if arg > 1 else None
                    if tw is not None:
                        tw.instr(cycle, c, op, 1)
            elif op == OP_JMP:
                ccnt[_JMPC] += arg
                extra = arg * (jump_cycles - 1)
                ccnt[_STALLC] += extra
                status[c] = _STALL
                resume[c] = cycle + arg * jump_cycles
                pending[c] = None
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
                    if extra:
                        tw.core_state(cycle, c, f"stall {extra}")
            elif op == OP_NOP:
                ccnt[_NOPC] += arg
                pending[c] = None
                if arg > 1:
                    status[c] = _STALL
                    resume[c] = cycle + arg
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
            elif op == OP_LD2 or op == OP_ST2:
                if l2_stamp[arg] == cycle or l2_busy_until[arg] > cycle:
                    l2_conf[arg] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l2(cycle, arg, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l2_stamp[arg] = cycle
                    l2_busy_until[arg] = cycle + l2_occupancy
                    ccnt[_L2C] += 1
                    ccnt[_STALLC] += l2_latency - 1
                    status[c] = _STALL
                    resume[c] = cycle + l2_latency
                    pending[c] = None
                    if op == OP_LD2:
                        l2_reads[arg] += 1
                    else:
                        l2_writes[arg] += 1
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l2(cycle, arg,
                              "read" if op == OP_LD2 else "write")
                        tw.core_state(cycle, c, f"stall {l2_latency - 1}")
            elif op == OP_DIV:
                ccnt[_DIVC] += arg
                extra = arg * (div_latency - 1)
                ccnt[_STALLC] += extra
                status[c] = _STALL
                resume[c] = cycle + arg * div_latency
                pending[c] = None
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
                    tw.core_state(cycle, c, f"stall {extra}")
            elif op == OP_FDIV:
                f = fpu_map[c]
                if fpu_stamp[f] == cycle or fpu_busy_until[f] > cycle:
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.core_state(cycle, c, "stall 1")
                else:
                    fpu_stamp[f] = cycle
                    fpu_busy_until[f] = cycle + fpdiv_latency
                    fpu_ops[f] += 1
                    ccnt[_FPDIVC] += 1
                    ccnt[_STALLC] += fpdiv_latency - 1
                    status[c] = _STALL
                    resume[c] = cycle + fpdiv_latency
                    pending[c] = (OP_FDIV, arg - 1) if arg > 1 else None
                    if tw is not None:
                        tw.instr(cycle, c, op, 1)
                        tw.core_state(cycle, c,
                                      f"stall {fpdiv_latency - 1}")
            elif op == OP_LOCK:
                bank = arg & 0xFF
                lock_id = arg >> 8
                if l1_stamp[bank] == cycle:
                    l1_conf[bank] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l1(cycle, bank, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l1_stamp[bank] = cycle
                    l1_reads[bank] += 1
                    ccnt[_L1C] += 1
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l1(cycle, bank, "read")
                    if lock_holder.get(lock_id) is None:
                        lock_holder[lock_id] = c
                        pending[c] = None
                    else:
                        ccnt[_STALLC] += lock_retry
                        status[c] = _STALL
                        resume[c] = cycle + 1 + lock_retry
                        pending[c] = ins  # re-probe after the backoff
                        if tw is not None:
                            tw.core_state(cycle, c, f"stall {lock_retry}")
            elif op == OP_DMA:
                # descriptor write, then sleep on the event unit until
                # the (single-channel) DMA finishes moving `arg` words
                ccnt[_ALU] += 1
                start = cycle + 1
                if dma_busy_until > start:
                    start = dma_busy_until
                done = start + arg
                dma_busy_until = done
                dma_transfers += arg
                ccnt[_CGC] += done - cycle - 1
                status[c] = _STALL
                resume[c] = done
                pending[c] = None
                if tw is not None:
                    tw.instr(cycle, c, op, arg)
                    tw.dma(cycle, arg)
                    if done > cycle + 1:
                        tw.core_state(cycle + 1, c, "cg_enter")
                        tw.core_state(done, c, "cg_exit")
            elif op == OP_UNLOCK:
                bank = arg & 0xFF
                lock_id = arg >> 8
                if l1_stamp[bank] == cycle:
                    l1_conf[bank] += 1
                    ccnt[_STALLC] += 1
                    pending[c] = ins
                    if tw is not None:
                        tw.l1(cycle, bank, "conflict")
                        tw.core_state(cycle, c, "stall 1")
                else:
                    l1_stamp[bank] = cycle
                    l1_writes[bank] += 1
                    ccnt[_L1C] += 1
                    if lock_holder.get(lock_id) != c:
                        raise SimulationError(
                            f"core {c} released lock {lock_id} it does "
                            f"not hold")
                    lock_holder[lock_id] = None
                    pending[c] = None
                    if tw is not None:
                        tw.instr(cycle, c, op, arg)
                        tw.l1(cycle, bank, "write")
            else:
                raise SimulationError(f"unknown opcode {op}")
            any_run = True

        if done_count >= n_team:
            break
        if any_run:
            cycle += 1
        else:
            next_wake = min((resume[c] for c in team
                             if status[c] == _STALL), default=-1)
            if next_wake < 0:
                raise SimulationError(
                    f"deadlock at cycle {cycle} in "
                    f"{lowered.kernel_name!r}: no runnable core and no "
                    f"pending wake-up")
            cycle = next_wake if next_wake > cycle else cycle + 1

    total = max(finish[c] for c in team)
    if tw is not None:
        tw.kernel_marker(total, "end")
    return _counters(config, team, total, cnt, finish,
                     (l1_reads, l1_writes, l1_conf),
                     (l2_reads, l2_writes, l2_conf), fpu_ops,
                     icache_refills, dma_transfers, tw)


def _run_fast(lowered: LoweredProgram, config: ClusterConfig,
              limit: int) -> ClusterCounters:
    """The fast engine: folded segments, ready-at lockstep, lone core."""
    n_cores = config.n_cores
    programs = lowered.programs
    n_team = lowered.team_size
    team = list(range(n_team))
    if not all(programs[:n_team]) or any(programs[n_team:]):
        raise SimulationError(
            f"folded program of {lowered.kernel_name!r} does not run on "
            f"cores 0..{n_team - 1}")

    # --- mutable per-core state -------------------------------------------------
    ready = [0] * n_team  # the next cycle each team core acts at
    pend: list = [None] * n_team  # its next shared instruction
    gens: list = [None] * n_team
    seg_idx = [0] * n_team
    sleep_from = [0] * n_team
    finish = [0] * n_cores
    cnt = [[0] * N_SLOTS for _ in range(n_cores)]

    # --- shared resources ----------------------------------------------------------
    n_l1 = config.n_l1_banks
    n_l2 = config.n_l2_banks
    l1_stamp = [-1] * n_l1
    l2_stamp = [-1] * n_l2
    l1_reads = [0] * n_l1
    l1_writes = [0] * n_l1
    l1_conf = [0] * n_l1
    l2_reads = [0] * n_l2
    l2_writes = [0] * n_l2
    l2_conf = [0] * n_l2
    l2_busy_until = [0] * n_l2
    fpu_stamp = [-1] * config.n_fpus
    fpu_busy_until = [0] * config.n_fpus
    fpu_ops = [0] * config.n_fpus
    fpu_map = [config.fpu_of_core(c) for c in range(n_cores)]
    lock_holder: dict[int, int | None] = {}
    barrier_count: dict[int, int] = {}
    barrier_waiters: dict[int, list[int]] = {}
    icache_refills = 0
    dma_busy_until = 0
    dma_transfers = 0

    barrier_team = lowered.barrier_team
    wakeup = config.barrier_wakeup_cycles
    l2_latency = config.l2_latency
    l2_occupancy = config.l2_bank_occupancy
    fpdiv_latency = config.fpdiv_latency
    # a core resumes no earlier than the next cycle
    fpdiv_step = max(1, fpdiv_latency)
    lock_retry = config.lock_retry_cycles
    line_instrs = config.icache_line_instrs

    orders = [[team[(r + k) % n_team] for k in range(n_team)]
              for r in range(n_team)]
    fpu_partners = [[w for w in team if w != c and fpu_map[w] == fpu_map[c]]
                    for c in team]

    awake = n_team  # team cores neither parked at a barrier nor done
    done_count = 0
    last = -1  # the last cycle every core has been stepped through
    nxt = 0  # the earliest ready-at cycle after it
    while done_count < n_team:
        if nxt >= _PARKED:
            raise SimulationError(
                f"deadlock at cycle {last + 1} in "
                f"{lowered.kernel_name!r}: no runnable core and no "
                f"pending wake-up")
        cycle = nxt if nxt > last else last + 1

        if awake == 1:
            c = ready.index(min(ready))
            ins = pend[c]
            if ins is None or ins[0] not in _LOCKSTEP_OPS:
                # -- lone core: run until a lock, DMA, barrier or the end --
                t = cycle
                k = cnt[c]
                f = fpu_map[c]
                segs = programs[c]
                g = gens[c]
                # the pending instruction's delay is already in ready-at
                it = g if ins is None else chain(((ins[0], ins[1], 0),), g)
                pend[c] = None
                while True:
                    if it is None:
                        si = seg_idx[c]
                        if si >= len(segs) or segs[si][0] != "r":
                            break
                        seg = segs[si]
                        seg_idx[c] = si + 1
                        it = g = seg[1].folded(k)
                        icache_refills += -(-seg[2] // line_instrs)
                    for op, arg, pre in it:
                        t += pre
                        if t > limit:
                            break
                        if op == OP_LD or op == OP_ST:
                            while l1_stamp[arg] == t:
                                l1_conf[arg] += 1
                                k[_STALLC] += 1
                                t += 1
                            l1_stamp[arg] = t
                            k[_L1C] += 1
                            if op == OP_LD:
                                l1_reads[arg] += 1
                            else:
                                l1_writes[arg] += 1
                            t += 1
                        elif op == OP_FP:
                            while fpu_stamp[f] == t or fpu_busy_until[f] > t:
                                k[_STALLC] += 1
                                t += 1
                            # the FPU stays free for the whole macro
                            fpu_ops[f] += arg
                            k[_FPC] += arg
                            t += arg
                            fpu_stamp[f] = t - 1
                        elif op == OP_LD2 or op == OP_ST2:
                            while (l2_stamp[arg] == t
                                   or l2_busy_until[arg] > t):
                                l2_conf[arg] += 1
                                k[_STALLC] += 1
                                t += 1
                            l2_stamp[arg] = t
                            l2_busy_until[arg] = t + l2_occupancy
                            k[_L2C] += 1
                            k[_STALLC] += l2_latency - 1
                            if op == OP_LD2:
                                l2_reads[arg] += 1
                            else:
                                l2_writes[arg] += 1
                            t += l2_latency
                        elif op == OP_FDIV:
                            while True:
                                while (fpu_stamp[f] == t
                                       or fpu_busy_until[f] > t):
                                    k[_STALLC] += 1
                                    t += 1
                                fpu_stamp[f] = t
                                fpu_busy_until[f] = t + fpdiv_latency
                                fpu_ops[f] += 1
                                k[_FPDIVC] += 1
                                k[_STALLC] += fpdiv_latency - 1
                                t += fpdiv_step
                                arg -= 1
                                if not arg:
                                    break
                        else:  # locks and DMA: lockstep arbitrates them
                            pend[c] = (op, arg)
                            break
                    else:
                        it = g = None
                        t += k[_TAIL]
                        continue
                    break
                gens[c] = g
                cycle = ready[c] = t
        if cycle > limit:
            raise SimulationError(
                f"simulation of {lowered.kernel_name!r} exceeded "
                f"{limit} cycles (deadlock or runaway kernel)")

        nxt = _PARKED
        for c in orders[cycle % n_team]:
            r = ready[c]
            if r > cycle:
                if r < nxt:
                    nxt = r
                continue
            k = cnt[c]
            ins = pend[c]
            if ins is None:
                # -- at a segment boundary: advance segments -----------------
                while True:
                    segs = programs[c]
                    si = seg_idx[c]
                    if si >= len(segs):
                        ready[c] = _PARKED
                        finish[c] = cycle
                        done_count += 1
                        awake -= 1
                        break
                    seg = segs[si]
                    seg_idx[c] = si + 1
                    if seg[0] == "r":
                        g = gens[c] = seg[1].folded(k)
                        icache_refills += -(-seg[2] // line_instrs)
                        ins = next(g, None)
                        if ins is None:  # no shared instruction at all
                            gens[c] = None
                            if k[_TAIL]:
                                r = ready[c] = cycle + k[_TAIL]
                                if r < nxt:
                                    nxt = r
                                break
                            continue
                        pend[c] = ins
                        if ins[2]:  # core-local work first
                            r = ready[c] = cycle + ins[2]
                            if r < nxt:
                                nxt = r
                            ins = None
                        break
                    # barrier arrival: costs one ALU-class issue cycle
                    bid = seg[1]
                    k[_ALU] += 1
                    arrived = barrier_count.get(bid, 0) + 1
                    if arrived >= barrier_team[bid]:
                        barrier_count[bid] = 0
                        rel = cycle + wakeup
                        for w in barrier_waiters.pop(bid, ()):
                            ready[w] = rel
                            cnt[w][_CGC] += rel - sleep_from[w]
                            awake += 1
                        ready[c] = rel
                        if rel < nxt:
                            nxt = rel
                        k[_STALLC] += wakeup - 1
                    else:
                        barrier_count[bid] = arrived
                        barrier_waiters.setdefault(bid, []).append(c)
                        ready[c] = _PARKED
                        sleep_from[c] = cycle + 1
                        awake -= 1
                    break
                if ins is None:
                    continue

            # -- dispatch (shared-resource instructions only) ------------------
            # a refused request stays pending and is retried next cycle,
            # the earliest cycle any core can act at, so it sets nxt
            op = ins[0]
            arg = ins[1]
            if op == OP_LD or op == OP_ST:
                if l1_stamp[arg] == cycle:
                    l1_conf[arg] += 1
                    k[_STALLC] += 1
                    ready[c] = nxt = cycle + 1
                    continue
                l1_stamp[arg] = cycle
                k[_L1C] += 1
                if op == OP_LD:
                    l1_reads[arg] += 1
                else:
                    l1_writes[arg] += 1
                r = cycle + 1
            elif op == OP_FP:
                f = fpu_map[c]
                if fpu_stamp[f] == cycle or fpu_busy_until[f] > cycle:
                    k[_STALLC] += 1
                    ready[c] = nxt = cycle + 1
                    continue
                r = cycle + arg
                # the macro keeps the FPU until r unless a core sharing it
                # asks for it first; issue it whole when none can
                for p in fpu_partners[c]:
                    q = ready[p]
                    if q >= _PARKED:
                        if seg_idx[p] < len(programs[p]):
                            break  # parked at a barrier: may wake up
                    else:
                        p_ins = pend[p]
                        if p_ins is not None and p_ins[0] != OP_FP \
                                and p_ins[0] != OP_FDIV:
                            q += 1  # its next FPU request is later
                        if q < r:
                            break
                else:
                    fpu_ops[f] += arg
                    k[_FPC] += arg
                    fpu_stamp[f] = r - 1
                    arg = 0
                if arg:
                    fpu_stamp[f] = cycle
                    fpu_ops[f] += 1
                    k[_FPC] += 1
                    if arg > 1:
                        pend[c] = (OP_FP, arg - 1)
                        ready[c] = nxt = cycle + 1
                        continue
                    r = cycle + 1
            elif op == OP_LD2 or op == OP_ST2:
                if l2_stamp[arg] == cycle or l2_busy_until[arg] > cycle:
                    l2_conf[arg] += 1
                    k[_STALLC] += 1
                    ready[c] = nxt = cycle + 1
                    continue
                l2_stamp[arg] = cycle
                l2_busy_until[arg] = cycle + l2_occupancy
                k[_L2C] += 1
                k[_STALLC] += l2_latency - 1
                if op == OP_LD2:
                    l2_reads[arg] += 1
                else:
                    l2_writes[arg] += 1
                r = cycle + l2_latency
            elif op == OP_FDIV:
                f = fpu_map[c]
                if fpu_stamp[f] == cycle or fpu_busy_until[f] > cycle:
                    k[_STALLC] += 1
                    ready[c] = nxt = cycle + 1
                    continue
                fpu_stamp[f] = cycle
                fpu_busy_until[f] = cycle + fpdiv_latency
                fpu_ops[f] += 1
                k[_FPDIVC] += 1
                k[_STALLC] += fpdiv_latency - 1
                r = cycle + fpdiv_step
                if arg > 1:
                    pend[c] = (OP_FDIV, arg - 1)
                    ready[c] = r
                    if r < nxt:
                        nxt = r
                    continue
            elif op == OP_LOCK:
                bank = arg & 0xFF
                if l1_stamp[bank] == cycle:
                    l1_conf[bank] += 1
                    k[_STALLC] += 1
                    ready[c] = nxt = cycle + 1
                    continue
                l1_stamp[bank] = cycle
                l1_reads[bank] += 1
                k[_L1C] += 1
                lock_id = arg >> 8
                if lock_holder.get(lock_id) is not None:
                    k[_STALLC] += lock_retry
                    r = ready[c] = cycle + 1 + lock_retry  # re-probe then
                    if r < nxt:
                        nxt = r
                    continue
                lock_holder[lock_id] = c
                r = cycle + 1
            elif op == OP_DMA:
                k[_ALU] += 1
                start = cycle + 1
                if dma_busy_until > start:
                    start = dma_busy_until
                r = dma_busy_until = start + arg
                dma_transfers += arg
                k[_CGC] += r - cycle - 1
            elif op == OP_UNLOCK:
                bank = arg & 0xFF
                if l1_stamp[bank] == cycle:
                    l1_conf[bank] += 1
                    k[_STALLC] += 1
                    ready[c] = nxt = cycle + 1
                    continue
                l1_stamp[bank] = cycle
                l1_writes[bank] += 1
                k[_L1C] += 1
                lock_id = arg >> 8
                if lock_holder.get(lock_id) != c:
                    raise SimulationError(
                        f"core {c} released lock {lock_id} it does "
                        f"not hold")
                lock_holder[lock_id] = None
                r = cycle + 1
            else:
                raise SimulationError(f"unknown opcode {op}")
            # issued: fetch the next shared instruction now, so the core
            # next acts when it is due, after its core-local work
            ins = next(gens[c], None)
            if ins is not None:
                pend[c] = ins
                r += ins[2]
            else:
                pend[c] = gens[c] = None
                r += k[_TAIL]
            ready[c] = r
            if r < nxt:
                nxt = r
        last = cycle

    total = max(finish[c] for c in team)
    return _counters(config, team, total, cnt, finish,
                     (l1_reads, l1_writes, l1_conf),
                     (l2_reads, l2_writes, l2_conf), fpu_ops,
                     icache_refills, dma_transfers)


def _counters(config: ClusterConfig, team: list, total: int, cnt: list,
              finish: list, l1: tuple, l2: tuple, fpu_ops: list,
              icache_refills: int, dma_transfers: int,
              tw=None) -> ClusterCounters:
    """Event counters of a finished run; *l1*/*l2* are per-bank
    ``(reads, writes, conflicts)`` lists."""
    n_cores = config.n_cores
    counters = ClusterCounters(
        n_cores=n_cores, n_l1_banks=config.n_l1_banks,
        n_l2_banks=config.n_l2_banks, n_fpus=config.n_fpus)
    counters.cycles = total
    team_set = set(team)
    for c in range(n_cores):
        k = cnt[c]
        core = CoreCounters(
            alu_ops=k[_ALU], jump_ops=k[_JMPC], div_ops=k[_DIVC],
            fp_ops=k[_FPC], fpdiv_ops=k[_FPDIVC], l1_ops=k[_L1C],
            l2_ops=k[_L2C], nop_ops=k[_NOPC], stall_cycles=k[_STALLC],
            cg_cycles=k[_CGC])
        if c in team_set:
            core.cg_cycles += total - finish[c]
            if tw is not None and total > finish[c]:
                tw.core_state(finish[c], c, "cg_enter")
                tw.core_state(total, c, "cg_exit")
        else:
            core.cg_cycles = total
            if tw is not None and total > 0:
                tw.core_state(0, c, "cg_enter")
                tw.core_state(total, c, "cg_exit")
        counters.cores[c] = core
    for b, (reads, writes, conf) in enumerate(zip(*l1)):
        counters.l1_banks[b] = BankCounters(
            reads=reads, writes=writes, conflicts=conf)
    for b, (reads, writes, conf) in enumerate(zip(*l2)):
        counters.l2_banks[b] = BankCounters(
            reads=reads, writes=writes, conflicts=conf)
    counters.fpu_ops = fpu_ops
    counters.icache_refills = icache_refills
    counters.icache_fetches = sum(core.issue_cycles
                                  for core in counters.cores)
    counters.dma_transfers = dma_transfers
    return counters


def simulate(kernel: Kernel, team_size: int,
             config: ClusterConfig | None = None, trace=None,
             backend: str = "codegen",
             max_cycles: int | None = None) -> ClusterCounters:
    """Lower *kernel* for *team_size* cores and simulate it."""
    config = config or ClusterConfig()
    lowered = lower_kernel(kernel, team_size, config, backend=backend)
    counters = run_lowered(lowered, config, trace=trace,
                           max_cycles=max_cycles)
    counters.validate()
    return counters
