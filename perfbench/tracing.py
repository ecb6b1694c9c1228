"""In-memory spans around qccc's public functions, and the per-layer metrics.

``Tracer.install`` replaces the listed functions and methods with wrappers
that record a span (name, start, end, parent span, task id) and restores the
originals on ``uninstall``; no file of the program is changed. Spans stay in
memory until the run ends. A span's self time is its duration minus the time
its child spans cover, so the self times of all spans under one root add up to
the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

SV_OPS = ("apply", "add_entry", "remove_entry", "measure_remove", "clone",
          "branch_probabilities", "permuted", "fidelity")
STAB_OPS = ("apply_gate", "measure", "remove_qubit", "from_generators", "states_equal",
            "copy", "add_qubits")
CIRCUIT_OPS = ("apply_layer", "estimate_range", "operator_support", "circuit_unitary")
MPS_OPS = ("bound_report", "block", "rg_fixed_point_tensor", "fidelity_deficit",
           "preparation_pipeline")
LAYERS = ("statevector", "stabilizer", "circuits", "locc", "protocols", "mps",
          "diagnostics", "lattice", "cli", "bench")


BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric name -> unit, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, task id, size observed]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.pruned: List[float] = []
        self.task = None
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """Wrap fn so each call records a span; size(args, result) is read outside it."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = size(args, None) if size is not None else 0
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[5] = max(pre, size(args, result))
            return result

        return traced

    def count(self, key: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------------------

    def _patch_method(self, cls, attr: str, make: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_function(self, module, attr: str, make: Callable) -> None:
        """Replace a module function everywhere qccc holds a reference to it."""
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qccc" or name.startswith("qccc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._saved.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self) -> None:
        from qccc import circuits, cli, diagnostics, lattice, locc, mps, protocols
        from qccc.stabilizer import StabilizerTableau, TableauState
        from qccc.statevector import PureState, QuditRegister

        def sv_size(args, result):
            return args[0].register.total_dim

        def tab_size(args, result):
            if isinstance(result, StabilizerTableau):
                return result.n
            return args[0].n if isinstance(args[0], StabilizerTableau) else 0

        for op in SV_OPS:
            self._patch_method(PureState, op, lambda f, op=op: self.span(f"statevector.{op}", f, sv_size))
        self._patch_method(QuditRegister, "__init__",
                           lambda f: self.count("statevector.register_builds", f))
        for op in STAB_OPS:
            attr = "measure_pauli" if op == "measure" else op
            self._patch_method(StabilizerTableau, attr,
                               lambda f, op=op: self.span(f"stabilizer.{op}", f, tab_size))
        self._patch_method(TableauState, "clone", lambda f: self.count("stabilizer.state_clones", f))

        for op in CIRCUIT_OPS:
            self._patch_function(circuits, op, lambda f, op=op: self.span(f"circuits.{op}", f))

        def enumerated(args, result):
            if result is None:
                return 0
            self.pruned.append(1.0 - result.total_probability())
            return len(result.reports)

        self._patch_function(locc, "enumerate_branches",
                             lambda f: self.span("locc.enumerate_branches", f, enumerated))
        self._patch_function(locc, "run_sampled",
                             lambda f: self.span("locc.run_sampled", f, lambda a, r: 1))
        for fn in ("ghz_protocol", "w_protocol", "rg_fixed_point_protocol", "toric_code_protocol"):
            self._patch_function(protocols, fn, lambda f: self.span("protocols.build", f))
        for fn in ("ghz_state", "ghz_generators", "w_state", "rg_target_state",
                   "tc_target_state", "tc_target_generators"):
            self._patch_function(protocols, fn, lambda f: self.span("protocols.target", f))
        self._patch_function(protocols, "find_tc_correction",
                             lambda f: self.span("protocols.find_tc_correction", f))
        for op in MPS_OPS:
            self._patch_function(mps, op, lambda f, op=op: self.span(f"mps.{op}", f))
        self._patch_function(diagnostics, "run_cj_unitary",
                             lambda f: self.span("diagnostics.run_cj_unitary", f))
        self._patch_function(lattice, "distance", lambda f: self.span("lattice.distance", f))
        self._patch_function(cli, "main", lambda f: self.span("cli.main", f))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task, size) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "size": size}) + "\n")

    def metrics(self, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
        """Per-layer metrics over every recorded span; accounting over task spans only."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        size_sum: Dict[str, float] = defaultdict(float)
        size_max: Dict[str, float] = defaultdict(float)
        removal = []
        task_self = 0.0
        for i, (name, start, end, parent, task, size) in enumerate(spans):
            own = end - start - child[i]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_s[name] += own
            self_s[layer] += own
            size_sum[name] += size
            size_max[layer] = max(size_max[layer], size)
            if task != "setup":
                task_self += own
            if name == "stabilizer.remove_qubit" and own > 0 and size > 1:
                removal.append((size, own))

        m: Dict[str, float] = {}
        for key in per_layer_units():
            base, _, kind = key.rpartition(".")
            if kind == "calls":
                m[key] = calls[base]
            elif kind == "self_s":
                m[key] = self_s[base]
        branches = size_sum["locc.enumerate_branches"] + size_sum["locc.run_sampled"]
        clones = calls["statevector.clone"] + self.counters["stabilizer.state_clones"]
        m["statevector.register_builds"] = self.counters["statevector.register_builds"]
        m["statevector.peak_amplitudes"] = size_max["statevector"]
        m["statevector.bytes_computed"] = 16 * sum(size_sum[f"statevector.{op}"] for op in SV_OPS)
        m["stabilizer.peak_qubits"] = size_max["stabilizer"]
        m["stabilizer.remove_qubit.exponent"] = _loglog_slope(removal)
        m["stabilizer.from_generators.per_branch"] = (
            calls["stabilizer.from_generators"] / branches if branches else 0.0
        )
        m["locc.branches"] = branches
        m["locc.clones_per_branch"] = clones / branches if branches else 0.0
        m["locc.pruned_mass"] = max(self.pruned) if self.pruned else 0.0
        m["cli.report_bytes"] = self.counters["cli.report_bytes"]
        m["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        m["trace.accounted_ratio"] = task_self / traced_wall
        m["trace.wall_s"] = traced_wall
        m["trace.spans"] = len(spans)
        return m


def _loglog_slope(points) -> float:
    """Slope of log(self time) against log(qubits); 0.0 with fewer than two sizes."""
    if len({n for n, _ in points}) < 2:
        return 0.0
    n, t = np.array(points, dtype=float).T
    return float(np.polyfit(np.log(n), np.log(t), 1)[0])
