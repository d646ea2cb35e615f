"""Waveform capture: record signal values per cycle, optionally as VCD.

Used by the attack reproductions to produce concrete evidence traces
(e.g. the latency samples of the covert-channel experiment) and for
debugging the pipeline.

The VCD writer emits a proper module hierarchy (one ``$scope`` per
design path segment), correct multi-bit ``$var`` widths, and compact
base-94 identifiers, so standard waveform viewers load the dumps
unmodified; :func:`read_vcd` parses them back for round-trip tests.

When a :class:`~repro.ifc.tracker.LabelTracker` is attached, the trace
also records each watched signal's *runtime security label* per cycle
and dumps it as two parallel VCD signals (``<name>__conf`` and
``<name>__integ``, one bit per lattice principal) — a blocked flow
becomes visible in the waveform right next to the data it labels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..nodes import HdlError
from ..signal import Signal

#: VCD identifier alphabet: printable ASCII 33..126
_VCD_BASE = 94
_VCD_FIRST = 33


def vcd_ident(n: int) -> str:
    """Compact unique VCD identifier for index ``n`` (base-94, any length)."""
    if n < 0:
        raise ValueError("identifier index must be non-negative")
    out = []
    while True:
        out.append(chr(_VCD_FIRST + (n % _VCD_BASE)))
        n //= _VCD_BASE
        if n == 0:
            return "".join(out)


class Trace:
    """Tabular recording of selected signals over simulation cycles.

    Parameters
    ----------
    sim:
        A :class:`~repro.hdl.sim.engine.Simulator` or a standalone
        :class:`~repro.hdl.sim.batched.BatchSimulator`.
    signals:
        The signals (or dotted paths) to record.
    tracker:
        Optional :class:`~repro.ifc.tracker.LabelTracker` on the same
        simulator; when given, each captured cycle also records the
        tracked label of every watched signal.  Construct the tracker
        *before* the trace so its watcher has already propagated labels
        for the cycle being captured.
    lane:
        Which lane to record on a multi-lane (batched) simulator.
    """

    def __init__(self, sim, signals: Sequence[Union[Signal, str]],
                 tracker=None, lane: int = 0):
        self.sim = sim
        self.lane = lane
        self.tracker = tracker
        self.signals: List[Signal] = [sim._resolve(s) for s in signals]
        # O(1) lookup maps instead of list.index per query (traces run to
        # thousands of cycles; column()/at() used to rescan every call)
        self._sig_index: Dict[Signal, int] = {
            s: i for i, s in enumerate(self.signals)
        }
        self._cycle_index: Dict[int, int] = {}
        self.rows: List[List[int]] = []
        self.cycles: List[int] = []
        #: per-cycle labels (same shape as rows) when a tracker is attached
        self.label_rows: List[List[Optional[object]]] = []
        # per-lane capture rides the bulk values() snapshot: one call per
        # cycle instead of one peek per signal, and the only way to read
        # a specific lane of a batched simulator uniformly
        order = sim.value_signals()
        pos = {s: i for i, s in enumerate(order)}
        vidx = [pos.get(s) for s in self.signals]
        self._vidx = vidx if all(i is not None for i in vidx) else None
        if self._vidx is None and lane != 0:
            raise HdlError(
                "per-lane tracing requires all signals to be in the "
                "bulk values() snapshot")
        sim.add_watcher(self._capture)

    def _capture(self, sim) -> None:
        self._cycle_index[sim.cycle] = len(self.cycles)
        self.cycles.append(sim.cycle)
        if self._vidx is not None:
            vals = sim.values(self.lane)
            self.rows.append([vals[i] for i in self._vidx])
        else:
            self.rows.append([sim.peek(s) for s in self.signals])
        if self.tracker is not None:
            self.label_rows.append(
                [self.tracker.label_at(s) for s in self.signals])

    def column(self, sig: Union[Signal, str]) -> List[int]:
        sig = self.sim._resolve(sig)
        idx = self._sig_index.get(sig)
        if idx is None:
            raise HdlError(
                f"{sig.path} is not recorded by this trace; watched "
                f"signals: {[s.path for s in self.signals]}"
            )
        return [row[idx] for row in self.rows]

    def label_column(self, sig: Union[Signal, str]) -> List[Optional[object]]:
        """Recorded labels of one signal (requires a tracker)."""
        sig = self.sim._resolve(sig)
        idx = self._sig_index.get(sig)
        if idx is None or self.tracker is None:
            raise HdlError(
                f"no labels recorded for {getattr(sig, 'path', sig)}; "
                f"construct Trace(..., tracker=...) to capture labels"
            )
        return [row[idx] for row in self.label_rows]

    def at(self, cycle: int) -> Dict[str, int]:
        i = self._cycle_index.get(cycle)
        if i is None:
            span = (f"{self.cycles[0]}..{self.cycles[-1]}" if self.cycles
                    else "<empty>")
            raise HdlError(
                f"cycle {cycle} was not captured by this trace "
                f"(recorded cycles: {span})"
            )
        return {s.path: v for s, v in zip(self.signals, self.rows[i])}

    # ------------------------------------------------------------------ VCD
    def _scope_tree(self) -> dict:
        """Nest watched signals by module path: {scope: subtree, None: vars}."""
        root: dict = {None: []}
        for sig in self.signals:
            parts = sig.path.split(".")
            node = root
            for part in parts[:-1]:
                node = node.setdefault(part, {None: []})
            node[None].append((parts[-1], sig))
        return root

    def _label_bits(self, label) -> Optional[Tuple[int, int, int]]:
        """(conf_bits, integ_bits, n_principals) of a Label, or None."""
        if label is None:
            return None
        n = len(label.lattice.principals)
        enc = label.encode()
        return enc >> n, enc & ((1 << n) - 1), n

    def write_vcd(self, path: str, timescale: str = "1ns",
                  labels: Optional[bool] = None) -> None:
        """Dump the recorded trace as a VCD file.

        ``labels`` controls the label overlay: ``None`` (default) emits
        it whenever a tracker is attached, ``True`` requires one,
        ``False`` suppresses it.
        """
        if labels is None:
            labels = self.tracker is not None
        if labels and self.tracker is None:
            raise HdlError("write_vcd(labels=True) needs a tracker-attached "
                           "trace; construct Trace(..., tracker=...)")
        n_principals = 0
        if labels:
            for row in self.label_rows:
                for lbl in row:
                    if lbl is not None:
                        n_principals = len(lbl.lattice.principals)
                        break
                if n_principals:
                    break

        idents: Dict[Signal, str] = {}
        label_idents: Dict[Signal, Tuple[str, str]] = {}
        counter = [0]

        def next_ident() -> str:
            ident = vcd_ident(counter[0])
            counter[0] += 1
            return ident

        lines: List[str] = [f"$timescale {timescale} $end"]

        def emit_scope(tree: dict, depth: int) -> None:
            pad = "  " * depth
            for name, sig in tree[None]:
                idents[sig] = next_ident()
                lines.append(
                    f"{pad}$var wire {sig.width} {idents[sig]} {name} $end")
                if labels and n_principals:
                    ci, ii = next_ident(), next_ident()
                    label_idents[sig] = (ci, ii)
                    lines.append(
                        f"{pad}$var wire {n_principals} {ci} "
                        f"{name}__conf $end")
                    lines.append(
                        f"{pad}$var wire {n_principals} {ii} "
                        f"{name}__integ $end")
            for scope in sorted(k for k in tree if k is not None):
                lines.append(f"{pad}$scope module {scope} $end")
                emit_scope(tree[scope], depth + 1)
                lines.append(f"{pad}$upscope $end")

        emit_scope(self._scope_tree(), 0)
        lines.append("$enddefinitions $end")

        def fmt(sig_width: int, ident: str, value: Optional[int]) -> str:
            if value is None:
                return f"bx {ident}" if sig_width > 1 else f"x{ident}"
            if sig_width == 1:
                return f"{value & 1}{ident}"
            return f"b{value:b} {ident}"

        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
            prev: Dict[str, Optional[int]] = {}
            first = True
            for i, (cycle, row) in enumerate(zip(self.cycles, self.rows)):
                changes: List[str] = []
                for sig, value in zip(self.signals, row):
                    ident = idents[sig]
                    if not first and prev.get(ident) == value:
                        continue
                    prev[ident] = value
                    changes.append(fmt(sig.width, ident, value))
                if labels and n_principals:
                    lrow = (self.label_rows[i]
                            if i < len(self.label_rows) else None)
                    for j, sig in enumerate(self.signals):
                        ci, ii = label_idents[sig]
                        bits = self._label_bits(
                            lrow[j] if lrow is not None else None)
                        cv, iv = (None, None) if bits is None else bits[:2]
                        if first or prev.get(ci) != cv:
                            prev[ci] = cv
                            changes.append(fmt(n_principals, ci, cv))
                        if first or prev.get(ii) != iv:
                            prev[ii] = iv
                            changes.append(fmt(n_principals, ii, iv))
                f.write(f"#{cycle}\n")
                if first:
                    f.write("$dumpvars\n")
                    f.write("\n".join(changes) + "\n")
                    f.write("$end\n")
                else:
                    if changes:
                        f.write("\n".join(changes) + "\n")
                first = False

    def __len__(self) -> int:
        return len(self.rows)


def read_vcd(path: str) -> Dict[str, object]:
    """Parse a VCD file back into declarations and value changes.

    Returns ``{"timescale": str, "widths": {path: width},
    "changes": {path: [(time, value-or-None), ...]}}`` with dotted
    hierarchical paths rebuilt from the ``$scope`` nesting.  ``x``
    values parse as ``None``.  Covers the subset of VCD this module
    writes (which is also what standard RTL simulators emit for wires).
    """
    timescale = ""
    widths: Dict[str, int] = {}
    by_ident: Dict[str, List[str]] = {}
    changes: Dict[str, List[Tuple[int, Optional[int]]]] = {}
    scope: List[str] = []
    time = 0
    in_defs = True

    def record(ident: str, value: Optional[int]) -> None:
        for p in by_ident.get(ident, ()):
            changes[p].append((time, value))

    with open(path) as f:
        tokens: List[str] = []
        for raw in f:
            tokens.extend(raw.split())
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if in_defs:
                if tok == "$timescale":
                    j = tokens.index("$end", i)
                    timescale = " ".join(tokens[i + 1:j])
                    i = j
                elif tok == "$scope":
                    scope.append(tokens[i + 2])
                    i = tokens.index("$end", i)
                elif tok == "$upscope":
                    scope.pop()
                    i = tokens.index("$end", i)
                elif tok == "$var":
                    width = int(tokens[i + 2])
                    ident = tokens[i + 3]
                    name = tokens[i + 4]
                    full = ".".join(scope + [name])
                    widths[full] = width
                    by_ident.setdefault(ident, []).append(full)
                    changes[full] = []
                    i = tokens.index("$end", i)
                elif tok == "$enddefinitions":
                    in_defs = False
                    i = tokens.index("$end", i)
            else:
                if tok.startswith("#"):
                    time = int(tok[1:])
                elif tok in ("$dumpvars", "$end", "$comment"):
                    pass
                elif tok.startswith("b"):
                    bits = tok[1:]
                    value = None if "x" in bits or "z" in bits \
                        else int(bits, 2)
                    i += 1
                    record(tokens[i], value)
                elif tok[0] in "01xz":
                    value = None if tok[0] in "xz" else int(tok[0])
                    record(tok[1:], value)
            i += 1
    return {"timescale": timescale, "widths": widths, "changes": changes}
