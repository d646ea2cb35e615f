"""The simulator core shared by every backend.

A *backend* owns the state of one netlist (one instance, or ``lanes``
lockstep instances) behind one protocol: ``poke``/``peek``/``peek_all``
of a signal on every lane or one (any state slot: the simulator, not the
backend, validates testbench pokes), ``poke_mem``/``peek_mem``,
``settle``/``step``/``reset``, ``values(lane)`` and the cached
:class:`Snapshot`.  :class:`ScalarState` implements it for the
interpreter and the compiled backend, which differ only in their
kernels; :class:`~repro.hdl.sim.batched.LaneState` for the batched one.

:class:`SimCore` is the pipeline written once for
:class:`~repro.hdl.sim.engine.Simulator` and
:class:`~repro.hdl.sim.batched.BatchSimulator`: netlist preparation,
fault plans, watchers, the step loop and reset.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Union

from ..memory import Mem
from ..netlist import Netlist
from ..nodes import HdlError
from ..signal import Signal
from ..types import mask_for

SignalLike = Union[Signal, str]


def join_rows(col: List[int], rows) -> List[int]:
    """Per-signal ints from one lane's row values (limb 0 = bits 63..0)."""
    out = []
    for row0, limbs in rows:
        if limbs == 1:
            out.append(col[row0])
        else:
            value = 0
            for j in range(limbs):
                value |= col[row0 + j] << (64 * j)
            out.append(value)
    return out


class Snapshot:
    """The settled values of every value signal at one cycle: a
    ``[rows, lanes]`` uint64 array (batched) or one int per signal
    (scalar); ``rows[i]`` is the ``(row, limbs)`` of value signal ``i``.
    """

    __slots__ = ("values", "rows", "prev", "epoch", "_diff", "_mems", "_src")

    def __init__(self, values, src, prev: Optional["Snapshot"]):
        self.values = values
        self.rows = src.rows
        self.prev = prev
        self.epoch = src.epoch
        self._diff = None
        self._mems = None
        self._src = src

    def diff(self, prev: "Snapshot"):
        """``prev.values ^ self.values``; cached when ``prev`` is the
        snapshot the simulator took before this one."""
        if prev is self.prev and self._diff is not None:
            return self._diff
        a, b = prev.values, self.values
        d = [x ^ y for x, y in zip(a, b)] if isinstance(b, list) else a ^ b
        if prev is self.prev:
            self._diff = d
        return d

    @property
    def mems(self) -> Dict[Mem, list]:
        """Writable memory -> its limb planes (one ``[depth, lanes]``
        array per limb, or one list of words), copied on first access,
        which must come while this snapshot is still current."""
        if self._mems is None:
            src = self._src
            if src.dirty or src.epoch != self.epoch:
                raise HdlError("memory words of a superseded snapshot")
            self._mems = src.mem_planes()
        return self._mems

    def signals(self, data, lane: int = 0) -> List[int]:
        """Per-signal ints of ``data`` (these values or a :meth:`diff`)
        on one lane."""
        if isinstance(data, list):
            return data
        return join_rows(data[:, lane].tolist(), self.rows)


class ListLayout:
    """The scalar backends' layout: ``state`` = inputs then registers,
    ``env`` = combinational signals, ``mems`` by position."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.state_index: Dict[Signal, int] = {
            sig: i for i, sig in enumerate(
                list(netlist.inputs) + list(netlist.regs))}
        self.comb_index: Dict[Signal, int] = {
            sig: i for i, sig in enumerate(netlist.comb)}
        self.mem_index: Dict[Mem, int] = {
            mem: i for i, mem in enumerate(netlist.mems)}

    def new_state(self) -> List[int]:
        state = [0] * len(self.state_index)
        for reg in self.netlist.regs:
            state[self.state_index[reg]] = reg.init
        return state

    def new_env(self) -> List[int]:
        return [0] * len(self.comb_index)

    def new_mems(self) -> List[List[int]]:
        return [list(m.init) for m in self.netlist.mems]


class BackendState:
    """Kernel binding, clocking and the cached :class:`Snapshot`.

    A subclass sets ``rows``, ``_extra`` (kernel arguments after
    ``state, mems, env``) and ``_alloc``.  Each evaluation bumps
    ``epoch``: a snapshot is current while its epoch matches.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        nl = kernel.netlist
        self._wmems = [m for m in nl.mems if m in nl.mem_writes]
        self.epoch = 0
        self._snap: Optional[Snapshot] = None
        self.reset()

    def reset(self) -> None:
        self.state, self.env, self.mems = self._alloc()
        args = (self.state, self.mems, self.env) + self._extra
        self._eval = partial(self.kernel.eval_comb, *args)
        self._tick = partial(self.kernel.step, *args)
        self.dirty = True

    def settle(self) -> None:
        if self.dirty:
            self._eval()
            self.dirty = False
            self.epoch += 1

    def step(self, n: int = 1) -> None:
        tick = self._tick
        for _ in range(n):
            tick()
        if n:
            self.dirty = True

    def snapshot(self) -> Snapshot:
        self.settle()
        snap = self._snap
        if snap is None or snap.epoch != self.epoch:
            if snap is not None:
                snap.prev = None  # keep one link, not a chain
            snap = self._snap = Snapshot(self._capture(), self, snap)
        return snap


class ScalarState(BackendState):
    """One netlist instance in the :class:`ListLayout`; the kernel
    (:class:`~repro.hdl.sim.interp.InterpBackend` or
    :class:`~repro.hdl.sim.compiler.CompiledBackend`) supplies
    ``eval_comb(state, mems, env)`` and ``step(state, mems, env)``."""

    lanes = 1
    #: a row holds a whole value, not a 64-bit limb
    limb_bits = None
    _extra = ()

    def __init__(self, kernel, lanes: int = 1):
        if lanes != 1:
            raise ValueError(f"lanes={lanes} requires backend='batched'")
        self._sidx = kernel.state_index
        self._cidx = kernel.comb_index
        self._midx = kernel.mem_index
        self.rows = [(i, 1) for i in range(len(self._sidx) + len(self._cidx))]
        super().__init__(kernel)

    def _alloc(self):
        k = self.kernel
        return k.new_state(), k.new_env(), k.new_mems()

    def _check_lane(self, lane) -> None:
        if lane:
            raise ValueError(f"single-lane backend; lane {lane} requested")

    def poke(self, sig: Signal, value: int,
             lane: Optional[int] = None) -> None:
        if lane:
            self._check_lane(lane)
        self.state[self._sidx[sig]] = value
        self.dirty = True

    def peek(self, sig: Signal, lane: int = 0) -> int:
        if lane:
            self._check_lane(lane)
        if self.dirty:
            self.settle()
        i = self._sidx.get(sig)
        if i is not None:
            return self.state[i]
        return self.env[self._cidx[sig]]

    def peek_all(self, sig: Signal) -> List[int]:
        return [self.peek(sig)]

    def poke_mem(self, mem: Mem, addr: int, value: int,
                 lane: Optional[int] = None) -> None:
        self._check_lane(lane)
        self.mems[self._midx[mem]][addr] = value
        self.dirty = True

    def peek_mem(self, mem: Mem, addr: int, lane: int = 0) -> int:
        self._check_lane(lane)
        return self.mems[self._midx[mem]][addr]

    def values(self, lane: int = 0) -> List[int]:
        self._check_lane(lane)
        self.settle()
        return self.state + self.env

    def _capture(self) -> List[int]:
        return self.state + self.env

    def mem_planes(self) -> Dict[Mem, list]:
        return {m: [list(self.mems[self._midx[m]])] for m in self._wmems}


class SimCore:
    """Pipeline shared by ``Simulator`` and ``BatchSimulator``: a
    subclass prepares the netlist with :meth:`_prepare`, builds its
    backend on it and hands that to :meth:`_start`."""

    def _prepare(self, netlist: Netlist, fault_targets, fault_plan,
                 tag_tracking: bool, lattice, tag_precise: bool,
                 tag_check_downgrades: bool, tag_audit: str) -> None:
        """Tag synthesis, then fault instrumentation, into ``netlist``.

        Tags come first so the shadow nets are compiled and
        fault-targetable like any other net; with every fault control at
        0 the instrumented design behaves like the original, so one
        simulator serves a whole campaign of plans.
        """
        self.tag_plan = None
        self.tags = None
        if tag_tracking:
            from ...ifc.synth import synthesize_tags

            if lattice is None:
                raise ValueError(
                    "tag_tracking=True needs the security lattice the "
                    "design's labels live in (pass lattice=...)")
            netlist, self.tag_plan = synthesize_tags(
                netlist, lattice, check_downgrades=tag_check_downgrades,
                precise=tag_precise, audit=tag_audit)
        self.fault_controls = {}
        if fault_plan is not None and fault_targets is None:
            fault_targets = fault_plan.signal_targets()
        if fault_targets:
            from ...faults.plan import instrument

            netlist, self.fault_controls = instrument(netlist, fault_targets)
        self.netlist = netlist

    def _start(self, backend, fault_plan, tag_target=None) -> None:
        """Adopt ``backend``; ``tag_target`` is the lane-addressed face
        the tag view drives (the simulator itself by default)."""
        self._be = backend
        self.lanes = backend.lanes
        self.cycle = 0
        self._watchers = []
        self._fault_applier = None
        self._input_set = frozenset(self.netlist.inputs)
        if self.tag_plan is not None:
            from ...ifc.synth import TagView

            self.tags = TagView(tag_target or self, self.tag_plan)
        if fault_plan is not None:
            self.load_fault_plan(fault_plan)

    # -- resolution ---------------------------------------------------------------
    def _resolve(self, sig: SignalLike) -> Signal:
        if isinstance(sig, Signal):
            return sig
        return self.netlist.signal_by_path(sig)

    def _resolve_mem(self, mem: Union[Mem, str]) -> Mem:
        if isinstance(mem, Mem):
            return mem
        return self.netlist.mem_by_path(mem)

    def _checked_input(self, sig: SignalLike, value: int) -> Signal:
        if not isinstance(sig, Signal):  # _resolve, inlined: a hot path
            sig = self.netlist.signal_by_path(sig)
        if not 0 <= value <= mask_for(sig.width):
            raise ValueError(
                f"value {value} does not fit {sig.width}-bit signal {sig.path}"
            )
        if sig not in self._input_set:
            raise HdlError(f"{sig.path} is not a free input of this netlist")
        return sig

    def _checked_mem(self, mem: Union[Mem, str], value: int) -> Mem:
        mem = self._resolve_mem(mem)
        if not 0 <= value <= mask_for(mem.width):
            raise ValueError(f"value {value} does not fit memory {mem.path}")
        return mem

    # -- fault injection ------------------------------------------------------------
    def load_fault_plan(self, plan) -> None:
        """Arm a :class:`~repro.faults.plan.FaultPlan`.

        ``fault_targets`` must have covered every signal the plan
        touches; lane-targeted faults hit only their lane.  The plan is
        applied at absolute ``cycle`` values, at the top of each step
        iteration (before the watchers), so a faulted register latches
        its upset at that cycle's commit.
        """
        from ...faults.plan import FaultApplier

        self._fault_applier = FaultApplier(
            plan, self.fault_controls, self.netlist, lanes=self.lanes)

    def clear_fault_plan(self) -> None:
        """Disarm any loaded plan and zero every fault-control input."""
        self._fault_applier = None
        for ctrl in self.fault_controls.values():
            for sig in (ctrl.flip, ctrl.stuck1, ctrl.stuck0):
                self._be.poke(sig, 0)

    @property
    def fault_events(self) -> int:
        """(fault, cycle) applications performed so far."""
        ap = self._fault_applier
        return ap.events if ap is not None else 0

    def _apply_faults(self, ap) -> None:
        from ...faults.plan import faulted_value

        be = self._be
        updates, mem_ops = ap.at(self.cycle)
        for sig, value in updates.items():
            be.poke(sig, value)
        for mem, addr, kind, mask, lane in mem_ops:
            for ln in (range(self.lanes) if lane is None else (lane,)):
                cur = be.peek_mem(mem, addr, ln)
                be.poke_mem(mem, addr,
                            faulted_value(cur, kind, mask, mem.width), ln)

    # -- observation --------------------------------------------------------------
    def add_watcher(self, fn) -> None:
        """Register a callable invoked (with the simulator, settled)
        before each step."""
        self._watchers.append(fn)

    def remove_watcher(self, fn) -> None:
        """Detach a watcher previously registered with ``add_watcher``."""
        if fn in self._watchers:
            self._watchers.remove(fn)

    def value_signals(self) -> List[Signal]:
        """Inputs, registers, then combinational signals: the order of
        :meth:`values` and :meth:`snapshot`."""
        return (list(self.netlist.inputs) + list(self.netlist.regs)
                + list(self.netlist.comb))

    def value_rows(self) -> tuple:
        """Each value signal's ``(row, limbs)`` in a snapshot, and the
        bits per row (None where a row holds a whole value)."""
        return self._be.rows, self._be.limb_bits

    def snapshot(self) -> Snapshot:
        """The settled cycle's :class:`Snapshot`, built at most once."""
        return self._be.snapshot()

    # -- memories and clocking ------------------------------------------------------
    def peek_mem(self, mem: Union[Mem, str], addr: int, lane: int = 0) -> int:
        return self._be.peek_mem(self._resolve_mem(mem), addr, lane)

    def poke_mem(self, mem: Union[Mem, str], addr: int, value: int,
                 lane: Optional[int] = None) -> None:
        """Backdoor memory write (one lane, or every lane when ``lane``
        is None)."""
        self._be.poke_mem(self._checked_mem(mem, value), addr, value, lane)

    def step(self, n: int = 1) -> None:
        """Advance every lane ``n`` clock cycles."""
        be = self._be
        ap = self._fault_applier
        if ap is None and not self._watchers:
            be.step(n)
            self.cycle += n
            return
        for _ in range(n):
            if ap is not None:
                self._apply_faults(ap)
            if self._watchers:
                be.settle()
                for w in self._watchers:
                    w(self)
            be.step(1)
            self.cycle += 1

    def reset(self) -> None:
        """Registers, memories and inputs to their initial values."""
        self._be.reset()
        self.cycle = 0
        if self.tags is not None:
            self.tags.reseed()
        if self._fault_applier is not None:
            self._fault_applier.reset()
