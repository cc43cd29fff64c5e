"""Spans around calls into qpf's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a recording wrapper at
every place it is bound in the loaded ``qpf`` modules, matched by object
identity, so aliases (``qpf.cli.circuit_metrics``) and calls made inside the
package (``run_hhl`` calling ``apply_circuit``) get spans with the right
parent.  Per-gate helpers (``apply_gate``, ``gate_qubits``, ``invert_gate``,
``Circuit.append``) are left alone: wrapping them would time the wrapper.

Spans stay in memory; ``layer_metrics`` turns them into per-operation self
times, counts and ratios.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


def _sizes(**counters):
    """Counter that stores named sizes of a call's result."""
    def count(args, result, _before):
        return {name: fn(args, result) for name, fn in counters.items()}
    return count


def _stdout_position():
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return 0


# span name -> (defining module, counter or None).  A counter maps
# (call args, result, value of the span's "before" hook) to counts.
TRACED = {
    "grid.parse_network": ("qpf.grid", _sizes(buses=lambda a, r: len(r.buses))),
    "grid.build_reduced_system": ("qpf.grid", _sizes(n=lambda a, r: len(r.p))),
    "grid.solve_dc": ("qpf.grid", None),
    "grid.network_stats": ("qpf.grid", None),
    "hhl.run_hhl": ("qpf.hhl", None),
    "hhl.eigendecompose": ("qpf.hhl", None),
    "hhl.choose_scaling": ("qpf.hhl", None),
    "hhl.build_hhl_circuit": ("qpf.hhl", _sizes(gates=lambda a, r: len(r.gates),
                                                width=lambda a, r: r.num_qubits)),
    "hhl.build_qpe": ("qpf.hhl", None),
    "hhl.build_reciprocal_rotation": ("qpf.hhl", None),
    "hhl.fidelity": ("qpf.hhl", None),
    "qsim.prepare_state": ("qpf.qsim.prepare", None),
    "qsim.apply_circuit": ("qpf.qsim.simulate", _sizes(
        statevector_bytes=lambda a, r: 16 * 2 ** a[1].num_qubits)),
    "qsim.post_select": ("qpf.qsim.simulate", _sizes(
        post_select_probability=lambda a, r: r.probability)),
    "qsim.lower_to_basis": ("qpf.qsim.lower", _sizes(
        lowered_gates=lambda a, r: len(r.gates), input_gates=lambda a, r: len(a[0].gates))),
    "qsim.metrics": ("qpf.qsim.metrics", _sizes(depth=lambda a, r: r.depth,
                                                cnot_count=lambda a, r: r.cnot_count)),
    "complexity.find_crossover": ("qpf.complexity", None),
    "complexity.sweep": ("qpf.complexity", _sizes(rows=lambda a, r: len(r))),
    "complexity.sweep_csv": ("qpf.complexity", None),
    "cli.main": ("qpf.cli", lambda args, result, before: {
        "output_bytes": _stdout_position() - before}),
}
_BEFORE = {"cli.main": _stdout_position}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for name, (module_name, _counter) in TRACED.items():
            fn = getattr(importlib.import_module(module_name), name.split(".", 1)[1])
            originals[id(fn)] = (name, fn)
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != "qpf" and not module_name.startswith("qpf."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(hit[0], value)
                setattr(module, attr, wrappers[id(value)])
                self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        counter = TRACED[name][1]
        before_hook = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook() if before_hook else None
            span = Span(name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, result, before)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "counts": s.counts}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics, as means per traced operation.

    ``<layer>.<function>_s`` is self time; counts are per-operation sums;
    ratios are formed from totals over the whole run.
    """
    if ops < 1:
        raise ValueError("no traced operations")
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        layer = span.name.split(".", 1)[0]
        for key, value in span.counts.items():
            counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0.0) + value

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    metrics = {f"{name}_s": ratio(self_s.get(name, 0.0), ops) for name in TRACED}
    for key in ("grid.buses", "grid.n", "hhl.gates", "hhl.width",
                "qsim.statevector_bytes", "qsim.lowered_gates", "qsim.depth",
                "qsim.cnot_count", "complexity.rows", "cli.output_bytes"):
        metrics[key] = ratio(counts.get(key, 0.0), ops)
    metrics["qsim.post_select_probability"] = ratio(
        counts.get("qsim.post_select_probability", 0.0), calls.get("qsim.post_select", 0))
    metrics["qsim.lowering_expansion"] = ratio(
        counts.get("qsim.lowered_gates", 0.0), counts.get("qsim.input_gates", 0.0))
    metrics["qsim.lowered_gates_per_s"] = ratio(
        counts.get("qsim.lowered_gates", 0.0), self_s.get("qsim.lower_to_basis", 0.0))
    metrics["complexity.rows_per_s"] = ratio(
        counts.get("complexity.rows", 0.0), self_s.get("complexity.sweep", 0.0))
    return metrics
