"""Simulator driver: poke/peek/step over an elaborated netlist.

The engine holds one of three backends (interpreter, compiled, or
batched) behind a uniform testbench API:

>>> sim = Simulator(my_module)          # elaborates + compiles
>>> sim.poke("top.in_valid", 1)
>>> sim.step()
>>> sim.peek("top.out_data")

Combinational values are (re)computed lazily: any poke invalidates the
current evaluation, and ``peek`` / ``step`` recompute as needed.

``backend="batched"`` runs ``lanes`` lockstep instances on numpy vectors
(see :mod:`repro.hdl.sim.batched`); through this single-instance API all
lanes receive the same pokes and ``peek`` reads lane 0 — ``sim.lanes_sim``
is the same simulator through the lane-addressed
:class:`~repro.hdl.sim.batched.BatchSimulator` API.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Union

from ...obs import telemetry as _telemetry
from ..elaborate import elaborate
from ..memory import Mem
from ..module import Module
from ..netlist import Netlist
from .compiler import CompiledBackend
from .core import ScalarState, SignalLike, SimCore
from .interp import InterpBackend


class SimStats:
    """Wall-time accounting for one simulator, accumulated only while
    telemetry is enabled (so the disabled path never calls the clock)."""

    __slots__ = ("timed_cycles", "wall_seconds", "step_calls")

    def __init__(self):
        self.timed_cycles = 0
        self.wall_seconds = 0.0
        self.step_calls = 0

    def cycles_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.timed_cycles / self.wall_seconds


def _lanes(netlist: Netlist, lanes: int):
    # Imported lazily: the batched backend needs numpy, which is a test
    # extra, not a runtime dependency of the package.
    from .batched import BatchedBackend, LaneState

    return LaneState(BatchedBackend(netlist), lanes)


#: backend name -> ``make(netlist, lanes)`` building its state
_BACKENDS = {
    "interp": lambda netlist, lanes: ScalarState(InterpBackend(netlist), lanes),
    "compiled": lambda netlist, lanes: ScalarState(CompiledBackend(netlist),
                                                   lanes),
    "batched": _lanes,
}


class Simulator(SimCore):
    """Cycle-accurate simulator over a netlist or module."""

    def __init__(self, design: Union[Module, Netlist], backend: str = "compiled",
                 lanes: int = 1, fault_targets=None, fault_plan=None,
                 tag_tracking: bool = False, lattice=None,
                 tag_precise: bool = True, tag_check_downgrades: bool = True,
                 tag_audit: str = "full"):
        make = _BACKENDS.get(backend)
        if make is None:
            raise ValueError(f"unknown backend {backend!r}")
        if isinstance(design, Module):
            design = elaborate(design)
        #: label only: the backend object below carries the behaviour
        self.backend_name = backend
        self.stats = SimStats()
        self._prepare(design, fault_targets, fault_plan, tag_tracking,
                      lattice, tag_precise, tag_check_downgrades, tag_audit)
        state = make(self.netlist, lanes)
        if not isinstance(state, ScalarState):
            # the lane-addressed face of this same simulator: it shares
            # every attribute (backend, cycle, watchers, fault plan, tags)
            from .batched import BatchSimulator

            self.lanes_sim = BatchSimulator.__new__(BatchSimulator)
            self.lanes_sim.__dict__ = self.__dict__
        self._start(state, fault_plan, getattr(self, "lanes_sim", None))

    # -- testbench API ------------------------------------------------------------
    def poke(self, sig: SignalLike, value: int) -> None:
        """Drive a free (input) signal (every lane)."""
        self._be.poke(self._checked_input(sig, value), value)

    def peek(self, sig: SignalLike) -> int:
        """Read any signal's current (combinationally settled) value."""
        return self._be.peek(self._resolve(sig))

    def peek_mem(self, mem: Union[Mem, str], addr: int) -> int:
        return self._be.peek_mem(self._resolve_mem(mem), addr)

    def poke_mem(self, mem: Union[Mem, str], addr: int, value: int) -> None:
        """Testbench backdoor write into a memory (every lane)."""
        self._be.poke_mem(self._checked_mem(mem, value), addr, value)

    def step(self, n: int = 1) -> None:
        """Advance ``n`` clock cycles."""
        # telemetry: one global read per call; None (the default) makes
        # the whole accounting path two cheap branches
        obs = _telemetry()
        t0 = perf_counter() if obs is not None else 0.0
        SimCore.step(self, n)
        if obs is not None:
            st = self.stats
            st.wall_seconds += perf_counter() - t0
            st.timed_cycles += n
            st.step_calls += 1

    # -- bulk observation (profilers) -------------------------------------------
    def values(self, lane: int = 0) -> List[int]:
        """Settled values of :meth:`value_signals`, as one flat list.

        This is the bulk sampling primitive: one call per sampled cycle
        instead of one ``peek`` per signal (the scalar backends are
        single-lane: ``lane`` must be 0).
        """
        return self._be.values(lane)

    def run_until(self, sig: SignalLike, value: int = 1, max_cycles: int = 10000) -> int:
        """Step until ``sig == value``; returns cycles waited.

        Raises ``TimeoutError`` after ``max_cycles``.
        """
        sig = self._resolve(sig)
        for waited in range(max_cycles):
            if self.peek(sig) == value:
                return waited
            self.step()
        raise TimeoutError(
            f"{sig.path} did not reach {value} within {max_cycles} cycles"
        )
