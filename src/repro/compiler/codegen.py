"""Python-source backend: compile a loop body to a generator function.

The emitted source is a plain nested-``for`` generator; loop variables
are local integers and bank numbers are computed inline, so iterating
the stream costs one generator resumption per instruction — the
cheapest portable representation for a simulator that consumes millions
of instructions per run.  Each segment body compiles to two forms:

* :func:`compile_segment` yields every instruction as ``(opcode, arg)``.
  The reference engine (and the trace writer) consume this form.
* :func:`fold_segment` yields only the instructions that touch a shared
  resource (TCDM/L2 banks, the FPUs, locks, the DMA) as
  ``(opcode, arg, pre_delay)``.  Every run of core-local ops before one
  (``ALU``, ``JMP``, ``NOP``, ``DIV``) becomes an inline cycle delay,
  ``pre_delay``, and its event counts are added straight to the core's
  counter list.  The fast engine consumes this form.

Folding is exact.  A core-local op reads and writes only its own core's
state, and no other core can observe when it runs.  So a run of them
changes the cluster's timeline only through its summed latency, and its
counters are plain sums.  Counts of loops with constant trip counts are
hoisted into their parent; a loop made only of core-local ops with a
fixed per-iteration cost folds into one multiplication.

Conventions (shared with :mod:`repro.compiler.interp` and the static
feature extractors):

* every executed loop iteration costs one induction ``ALU`` op and one
  taken-branch ``JMP``; entering a loop costs two setup ``ALU`` ops;
* runs of adjacent constant-count ``ALU``/``NOP`` ops are coalesced into
  one macro instruction (legal on an in-order single-issue core);
* a ``Load``/``Store`` is a single instruction (RI5CY's post-increment
  addressing covers the affine index updates);
* a :class:`Critical` section is a lock probe (a TCDM read on the lock's
  bank), the body, and a releasing store.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import LoweringError
from repro.ir.nodes import (
    Compute,
    Critical,
    DmaCopy,
    Load,
    Loop,
    OpKind,
    Store,
)
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
    pack_lock,
)
from repro.platform.memory import MemoryMap

_KIND_TO_OP = {
    OpKind.ALU: OP_ALU,
    OpKind.FP: OP_FP,
    OpKind.DIV: OP_DIV,
    OpKind.FPDIV: OP_FDIV,
    OpKind.JUMP: OP_JMP,
    OpKind.NOP: OP_NOP,
}

#: op kinds whose constant-count macros may be merged when adjacent.
_COALESCIBLE = (OP_ALU, OP_NOP)

#: Slots of a core's counter list, shared with :mod:`repro.sim.engine`.
#: A folded segment adds its core-local counts to the first ten and
#: leaves the delay of its trailing core-local ops in ``SLOT_TAIL``.
(SLOT_ALU, SLOT_JMP, SLOT_DIV, SLOT_FP, SLOT_FPDIV, SLOT_L1, SLOT_L2,
 SLOT_NOP, SLOT_STALL, SLOT_CG, SLOT_TAIL) = range(11)
N_SLOTS = 11

#: instruction sites charged for a Compute macro when estimating code
#: size (large macros are loops in real code, not straight-line bodies).
_MAX_MACRO_SITES = 8


def body_sites(body: tuple) -> int:
    """Static instruction-site estimate of a body tree.

    Used (by both backends, so their counters agree exactly) to charge
    I-cache cold refills when a segment first executes.
    """
    sites = 0
    for stmt in body:
        if isinstance(stmt, Compute):
            sites += min(stmt.count, _MAX_MACRO_SITES)
        elif isinstance(stmt, (Load, Store, DmaCopy)):
            sites += 1
        elif isinstance(stmt, Loop):
            sites += 3 + body_sites(stmt.body)  # setup, induction, branch
        elif isinstance(stmt, Critical):
            sites += 2 + body_sites(stmt.body)  # lock + unlock
    return sites


def segment_sites(body: tuple, loop_var: str | None,
                  prologue_alu: int) -> int:
    """Site estimate of a whole run segment."""
    sites = min(prologue_alu, _MAX_MACRO_SITES) if prologue_alu else 0
    if loop_var is not None:
        sites += 2  # chunk-loop induction and back branch
    sites += body_sites(body)
    return max(1, sites)


class _Emitter:
    """Accumulates generated source lines with ALU/NOP coalescing."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.sites = 0
        self._pending: tuple[int, int, int] | None = None  # op, count, indent

    def _flush(self) -> None:
        if self._pending is not None:
            op, count, indent = self._pending
            self.lines.append(f"{'    ' * indent}yield ({op}, {count})")
            self.sites += min(count, _MAX_MACRO_SITES)
            self._pending = None

    def constant(self, op: int, count: int, indent: int) -> None:
        """Emit a constant-arg instruction, merging coalescible runs."""
        if (self._pending is not None and op in _COALESCIBLE
                and self._pending[0] == op and self._pending[2] == indent):
            self._pending = (op, self._pending[1] + count, indent)
            return
        self._flush()
        if op in _COALESCIBLE:
            self._pending = (op, count, indent)
        else:
            self.lines.append(f"{'    ' * indent}yield ({op}, {count})")
            self.sites += min(count, _MAX_MACRO_SITES)

    def dynamic(self, op: int, arg_src: str, indent: int) -> None:
        """Emit an instruction whose argument is a runtime expression."""
        self._flush()
        self.lines.append(f"{'    ' * indent}yield ({op}, {arg_src})")
        self.sites += 1

    def raw(self, text: str, indent: int) -> None:
        self._flush()
        self.lines.append(f"{'    ' * indent}{text}")

    def finish(self) -> list[str]:
        self._flush()
        return self.lines


def _emit_body(emitter: _Emitter, body: tuple, memmap: MemoryMap,
               n_l1_banks: int, n_l2_banks: int, indent: int) -> None:
    for stmt in body:
        if isinstance(stmt, Compute):
            emitter.constant(_KIND_TO_OP[stmt.kind], stmt.count, indent)
        elif isinstance(stmt, (Load, Store)):
            placement = memmap.placement(stmt.array)
            if placement.space == "l1":
                op = OP_LD if isinstance(stmt, Load) else OP_ST
                banks = n_l1_banks
            else:
                op = OP_LD2 if isinstance(stmt, Load) else OP_ST2
                banks = n_l2_banks
            index = stmt.index
            if index.is_constant:
                bank = (placement.base_word + index.const) % banks
                emitter.dynamic(op, str(bank), indent)
            else:
                expr = f"({placement.base_word}+{index.to_python()})%{banks}"
                emitter.dynamic(op, expr, indent)
        elif isinstance(stmt, Loop):
            emitter.constant(OP_ALU, 2, indent)  # loop setup
            lo = stmt.lower.to_python()
            hi = stmt.upper.to_python()
            emitter.raw(f"for {stmt.var} in range({lo}, {hi}):", indent)
            emitter.constant(OP_ALU, 1, indent + 1)  # induction
            _emit_body(emitter, stmt.body, memmap, n_l1_banks, n_l2_banks,
                       indent + 1)
            emitter.constant(OP_JMP, 1, indent + 1)  # back branch
        elif isinstance(stmt, Critical):
            packed = pack_lock(_lock_index(stmt.name),
                               memmap.lock_bank(stmt.name))
            emitter.dynamic(OP_LOCK, str(packed), indent)
            _emit_body(emitter, stmt.body, memmap, n_l1_banks, n_l2_banks,
                       indent)
            emitter.dynamic(OP_UNLOCK, str(packed), indent)
        elif isinstance(stmt, DmaCopy):
            emitter.dynamic(OP_DMA, str(stmt.words), indent)
        else:
            raise LoweringError(f"cannot lower {type(stmt).__name__} "
                                f"inside a loop body")


_LOCK_IDS: dict[str, int] = {}


def _lock_index(name: str) -> int:
    """Stable small integer id per critical-section name."""
    if name not in _LOCK_IDS:
        _LOCK_IDS[name] = len(_LOCK_IDS)
    return _LOCK_IDS[name]


def compile_segment(body: tuple, memmap: MemoryMap, n_l1_banks: int,
                    n_l2_banks: int, loop_var: str | None = None,
                    free_vars: tuple[str, ...] = (),
                    prologue_alu: int = 0,
                    ) -> tuple[Callable, int]:
    """Compile one run segment to a *parameterised* generator function.

    The generated generator takes ``(__lo, __hi, *free_vars)``: the
    chunk bounds of the per-core work-share loop (ignored when
    *loop_var* is None) and the values of enclosing sequential-for
    variables.  Compiling once and binding the parameters per instance
    keeps the compilation cost independent of trip counts.

    When *loop_var* is given, the body is wrapped in the chunk loop of a
    parallel region (with the usual induction and back-branch
    overhead).  *prologue_alu* prepends runtime-overhead integer ops.
    Returns ``(generator_fn, code_sites)`` where ``code_sites``
    estimates static instruction sites for I-cache refill accounting.
    """
    params = ["__lo", "__hi", *free_vars]
    emitter = _Emitter()
    emitter.raw(f"def __segment__({', '.join(params)}):", 0)
    if prologue_alu > 0:
        emitter.constant(OP_ALU, prologue_alu, 1)
    if loop_var is not None:
        emitter.raw(f"for {loop_var} in range(__lo, __hi):", 1)
        emitter.constant(OP_ALU, 1, 2)
        _emit_body(emitter, body, memmap, n_l1_banks, n_l2_banks, 2)
        emitter.constant(OP_JMP, 1, 2)
    else:
        _emit_body(emitter, body, memmap, n_l1_banks, n_l2_banks, 1)
    lines = emitter.finish()
    has_yield = any("yield" in line for line in lines)
    if not has_yield:  # ensure the function is a generator
        lines.append("    yield from ()")
    source = "\n".join(lines)
    namespace: dict = {}
    exec(compile(source, "<repro-codegen>", "exec"), namespace)  # noqa: S102
    return namespace["__segment__"], segment_sites(body, loop_var,
                                                   prologue_alu)


class _Folder:
    """Emits a folded segment body: shared-resource yields, inline delays.

    The pending delay (latency of the core-local ops since the last
    yield) is ``static`` when known at compile time, plus the runtime
    variable ``__d`` when ``dyn`` is set (after a loop, whose trip count
    is only known at run time).  *counts* lists passed around collect
    the core-local counts of one loop level, per :data:`N_SLOTS` slot.
    """

    def __init__(self, memmap: MemoryMap, n_l1_banks: int, n_l2_banks: int,
                 jump_cycles: int, div_latency: int) -> None:
        self._memmap = memmap
        self._banks = (n_l1_banks, n_l2_banks)
        self._timing = (jump_cycles, div_latency)
        #: op -> (latency per op, counter slot, stall cycles per op)
        self._local = {
            OP_ALU: (1, SLOT_ALU, 0),
            OP_NOP: (1, SLOT_NOP, 0),
            OP_JMP: (jump_cycles, SLOT_JMP, jump_cycles - 1),
            OP_DIV: (div_latency, SLOT_DIV, div_latency - 1),
        }
        self.lines: list[str] = []
        self.static = 0
        self.dyn = False

    def _sub(self) -> "_Folder":
        return _Folder(self._memmap, *self._banks, *self._timing)

    def emit(self, text: str, indent: int) -> None:
        self.lines.append(f"{'    ' * indent}{text}")

    def pending(self) -> str:
        """Source of the pending delay."""
        if not self.dyn:
            return str(self.static)
        return f"__d+{self.static}" if self.static else "__d"

    def materialize(self, indent: int) -> None:
        """Make ``__d`` hold the pending delay (before a control-flow join)."""
        if not self.dyn:
            self.emit(f"__d = {self.static}", indent)
        elif self.static:
            self.emit(f"__d += {self.static}", indent)
        self.dyn, self.static = True, 0

    def local(self, op: int, count: int, counts: list) -> None:
        per_op, slot, stall = self._local[op]
        # a macro op occupies the core at least one cycle (the reference
        # engine resumes a core no earlier than the next cycle)
        self.static += max(1, count * per_op)
        counts[slot] += count
        counts[SLOT_STALL] += count * stall

    def shared(self, op: int, arg_src: str, indent: int) -> None:
        self.emit(f"yield ({op}, {arg_src}, {self.pending()})", indent)
        self.dyn, self.static = False, 0

    def body(self, body: tuple, indent: int, counts: list) -> None:
        n_l1_banks, n_l2_banks = self._banks
        for stmt in body:
            if isinstance(stmt, Compute):
                op = _KIND_TO_OP[stmt.kind]
                if op in self._local:
                    self.local(op, stmt.count, counts)
                else:
                    self.shared(op, str(stmt.count), indent)
            elif isinstance(stmt, (Load, Store)):
                placement = self._memmap.placement(stmt.array)
                if placement.space == "l1":
                    op = OP_LD if isinstance(stmt, Load) else OP_ST
                    banks = n_l1_banks
                else:
                    op = OP_LD2 if isinstance(stmt, Load) else OP_ST2
                    banks = n_l2_banks
                index = stmt.index
                if index.is_constant:
                    arg = str((placement.base_word + index.const) % banks)
                else:
                    arg = (f"({placement.base_word}+{index.to_python()})"
                           f"%{banks}")
                self.shared(op, arg, indent)
            elif isinstance(stmt, Loop):
                trip = None
                if stmt.lower.is_constant and stmt.upper.is_constant:
                    trip = max(0, stmt.upper.const - stmt.lower.const)
                self.local(OP_ALU, 2, counts)  # loop setup
                self.loop(stmt.var, stmt.lower.to_python(),
                          stmt.upper.to_python(), stmt.body, trip, indent,
                          counts)
            elif isinstance(stmt, Critical):
                packed = str(pack_lock(_lock_index(stmt.name),
                                       self._memmap.lock_bank(stmt.name)))
                self.shared(OP_LOCK, packed, indent)
                self.body(stmt.body, indent, counts)
                self.shared(OP_UNLOCK, packed, indent)
            elif isinstance(stmt, DmaCopy):
                self.shared(OP_DMA, str(stmt.words), indent)
            else:
                raise LoweringError(f"cannot lower {type(stmt).__name__} "
                                    f"inside a loop body")

    def loop(self, var: str, lo: str, hi: str, body: tuple,
             trip: int | None, indent: int, counts: list) -> None:
        """One counted loop: induction ALU, *body*, back branch per trip.

        *trip* is the trip count when the bounds are constants.
        """
        n_trip = f"max(0, {hi}-{lo})"
        per_iter = [0] * N_SLOTS
        sub = self._sub()
        sub.local(OP_ALU, 1, per_iter)
        sub.body(body, 0, per_iter)
        sub.local(OP_JMP, 1, per_iter)
        if not sub.lines:
            # only core-local ops, at a fixed cost per iteration
            if trip is not None:
                self.static += trip * sub.static
            else:
                total = f"{n_trip}*{sub.static}"
                if self.static:
                    total += f"+{self.static}"
                self.emit(f"__d {'+=' if self.dyn else '='} {total}", indent)
                self.dyn, self.static = True, 0
        else:
            per_iter = [0] * N_SLOTS
            self.materialize(indent)
            self.emit(f"for {var} in range({lo}, {hi}):", indent)
            self.local(OP_ALU, 1, per_iter)  # induction
            self.body(body, indent + 1, per_iter)
            self.local(OP_JMP, 1, per_iter)  # back branch
            self.materialize(indent + 1)
        if trip is not None:
            for slot, count in enumerate(per_iter):
                counts[slot] += trip * count
        elif any(per_iter):
            self.emit(f"__n = {n_trip}", indent)
            self.lines += _count_lines(per_iter, indent, "__n*")


def _count_lines(counts: list, indent: int, scale: str = "") -> list[str]:
    """Source adding *counts* (times *scale*) to the counter list."""
    pad = "    " * indent
    return [f"{pad}__k[{slot}] += {scale}{count}"
            for slot, count in enumerate(counts) if count]


def fold_segment(body: tuple, memmap: MemoryMap, n_l1_banks: int,
                 n_l2_banks: int, jump_cycles: int, div_latency: int,
                 loop_var: str | None = None,
                 free_vars: tuple[str, ...] = (),
                 prologue_alu: int = 0) -> Callable:
    """Compile one run segment to a *folded* generator function.

    Same segment as :func:`compile_segment`, but the generator takes
    ``(__lo, __hi, *free_vars, __k)``, where ``__k`` is the core's
    counter list (:data:`SLOT_ALU` ...).  It yields only shared-resource
    instructions, as ``(opcode, arg, pre_delay)``: the core issues the
    instruction ``pre_delay`` cycles after it finished the previous one.
    Core-local counts go straight into ``__k``, and the delay of the
    core-local ops after the last yield is left in ``__k[SLOT_TAIL]``.
    """
    folder = _Folder(memmap, n_l1_banks, n_l2_banks, jump_cycles,
                     div_latency)
    counts = [0] * N_SLOTS
    if prologue_alu > 0:
        folder.local(OP_ALU, prologue_alu, counts)
    if loop_var is not None:
        folder.loop(loop_var, "__lo", "__hi", body, None, 1, counts)
    else:
        folder.body(body, 1, counts)
    params = ", ".join(["__lo", "__hi", *free_vars, "__k"])
    lines = [f"def __segment__({params}):", *_count_lines(counts, 1),
             *folder.lines, f"    __k[{SLOT_TAIL}] = {folder.pending()}"]
    if not any("yield" in line for line in lines):
        lines.append("    yield from ()")  # ensure a generator function
    namespace: dict = {}
    exec(compile("\n".join(lines), "<repro-codegen>", "exec"),  # noqa: S102
         namespace)
    return namespace["__segment__"]
