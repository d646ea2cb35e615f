"""Interpreter simulation backend.

This backend defines the reference semantics of the netlist: values are
computed by an explicit operands-first traversal of each expression DAG
with per-cycle memoisation.  It is deliberately simple — the compiled
backend (:mod:`repro.hdl.sim.compiler`) is differentially tested against
it.  Both share the list layout of :class:`~repro.hdl.sim.core.ListLayout`
and the state class :class:`~repro.hdl.sim.core.ScalarState`.
"""

from __future__ import annotations

from typing import Dict, List

from ..nodes import Node, UnknownSignalError, walk
from .core import ListLayout


class InterpBackend(ListLayout):
    """Evaluate a netlist cycle-by-cycle by direct interpretation."""

    def _eval_nodes(self, roots, state, mems, memo) -> None:
        """Evaluate every node reachable from ``roots`` into ``memo``."""
        for node in walk(roots):
            nid = id(node)
            if nid in memo:
                continue
            if node.kind == "signal":
                try:
                    memo[nid] = state[self.state_index[node]]
                except KeyError:
                    raise UnknownSignalError(
                        node.path,
                        f"state of netlist {self.netlist.root.path!r} "
                        "(signal referenced but never seeded)") from None
            elif node.kind == "const":
                memo[nid] = node.value
            elif node.kind == "memread":
                addr = memo[id(node.addr)]
                contents = mems[self.mem_index[node.mem]]
                memo[nid] = contents[addr] if addr < len(contents) else 0
            else:
                vals = [memo[id(op)] for op in node.operands()]
                memo[nid] = node.eval_op(vals)

    def eval_comb(self, state: List[int], mems, env: List[int]
                  ) -> Dict[int, int]:
        """Evaluate every combinational signal into ``env``; returns the
        node memo (which ``step`` reuses)."""
        memo: Dict[int, int] = {}
        nl = self.netlist
        for sig in nl.comb:
            driver = nl.drivers[sig]
            self._eval_nodes([driver], state, mems, memo)
            value = memo[id(driver)]
            env[self.comb_index[sig]] = value
            memo[id(sig)] = value
        return memo

    def step(self, state: List[int], mems, env: List[int]) -> None:
        """Advance one clock cycle in place."""
        nl = self.netlist
        memo = self.eval_comb(state, mems, env)

        roots: List[Node] = list(nl.reg_next.values())
        for writes in nl.mem_writes.values():
            for w in writes:
                if w.cond is not None:
                    roots.append(w.cond)
                roots.extend([w.addr, w.data])
        self._eval_nodes(roots, state, mems, memo)

        pending = []
        for mem, writes in nl.mem_writes.items():
            for w in writes:
                if w.cond is None or memo[id(w.cond)] != 0:
                    pending.append((self.mem_index[mem], memo[id(w.addr)],
                                    memo[id(w.data)]))
        for reg, nxt in nl.reg_next.items():
            state[self.state_index[reg]] = memo[id(nxt)]
        for midx, addr, data in pending:
            contents = mems[midx]
            if addr < len(contents):
                contents[addr] = data
