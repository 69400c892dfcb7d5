"""Run one serrelab CLI command with a span around each public function of
its layers, and turn recorded spans into per-layer metrics.

    python benchmarks/tracer.py SPANS.json -- run --config c.txt --out d

A span is ``[id, parent id, name, start ns, end ns, simulation id, value]``.
Times come from ``time.perf_counter_ns``, which reads CLOCK_MONOTONIC and
so agrees across processes.  The simulation id names the ``execute_run``
call the span belongs to.  ``value`` is the cell count of a ``step`` and
the file size of a ``write_snapshot``.

Spans are kept in memory and written to SPANS.json when the command ends.
The pool workers of ``serrelab converge`` are forked, so they inherit the
wrappers; a worker exits without running atexit handlers, so after each
sweep cell it writes its own spans to SPANS.json.<pid>.

Importing this module imports nothing from serrelab.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); both mass updates share one name
TARGETS = (
    ("core", "parse_config_file", "core.parse_config_file"),
    ("core", "smoothed_dambreak_ic", "core.smoothed_dambreak_ic"),
    ("core", "apply_dirichlet", "core.apply_dirichlet"),
    ("core", "take_snapshot", "core.take_snapshot"),
    ("solvers", "run_to", "solvers.run_to"),
    ("solvers", "step", "solvers.step"),
    ("solvers", "momentum_update", "solvers.momentum_update"),
    ("solvers", "assemble_momentum_system",
     "solvers.assemble_momentum_system"),
    ("solvers", "solve_tridiagonal", "solvers.solve_tridiagonal"),
    ("solvers", "mass_update_leapfrog", "solvers.mass_update"),
    ("solvers", "mass_update_lax_wendroff", "solvers.mass_update"),
    ("diagnostics", "diagnose", "diagnostics.diagnose"),
    ("diagnostics", "totals", "diagnostics.totals"),
    ("diagnostics", "classify_structure", "diagnostics.classify_structure"),
    ("diagnostics", "l1_difference", "diagnostics.l1_difference"),
    ("io", "write_snapshot", "io.write_snapshot"),
    ("io", "read_snapshot", "io.read_snapshot"),
    ("io", "write_step_reports", "io.write_step_reports"),
    ("io", "write_diagnostics", "io.write_diagnostics"),
    ("reference", "solve_swwe_dambreak", "reference.solve_swwe_dambreak"),
    ("cli", "execute_run", "cli.execute_run"),
    ("cli", "_sweep_cell", "cli.sweep.cell"),
)


class Tracer:
    """Span store of one process; forked children start an empty one."""

    def __init__(self, path):
        self.path = path
        self.root_pid = self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.count = 0
        self.sim = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.pid = os.getpid()
        self.spans = []

    def record(self, name, start, end):
        self.count += 1
        self.spans.append([f"{self.pid}:{self.count}", None, name, start,
                           end, self.sim, None])

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = f"{self.pid}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            outer_sim = self.sim
            if name == "cli.execute_run":
                self.sim = span_id
            self.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                value = None
                if name == "solvers.step":
                    value = args[0].grid.n_cells
                elif name == "io.write_snapshot":
                    value = os.path.getsize(args[0])
                self.spans.append([span_id, parent, name, start, end,
                                   self.sim, value])
                self.sim = outer_sim
                if name == "cli.sweep.cell" and self.pid != self.root_pid:
                    self.write()
        return traced

    def install(self):
        """Wrap every binding of each target in every serrelab module, so
        that `solvers.apply_dirichlet` and `core.apply_dirichlet` both
        record spans."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "serrelab" or n.startswith("serrelab.")]
        for module, attr, name in TARGETS:
            original = getattr(sys.modules[f"serrelab.{module}"], attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def write(self):
        path = self.path if self.pid == self.root_pid else \
            f"{self.path}.{self.pid}"
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_spans(path):
    """Spans of one traced command: its own file and its workers' files."""
    spans = []
    for name in [path] + sorted(glob.glob(glob.escape(path) + ".*")):
        with open(name) as fh:
            spans += json.load(fh)
    return spans


def covered_ns(intervals, lo=None, hi=None):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans):
    """Per-layer metrics of a set of spans.

    For every span name X: ``X.s`` (summed duration), ``X.self_s`` (summed
    duration not covered by child spans) and ``X.calls``; plus the step
    latency percentiles, work counts and the sweep's cell times.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    values = defaultdict(int)
    durations = defaultdict(list)
    for span_id, _, name, start, end, _, value in spans:
        total[name] += end - start
        own[name] += end - start - covered_ns(children[span_id], start, end)
        calls[name] += 1
        values[name] += value or 0
        durations[name].append(end - start)
    names = {name for _, _, name in TARGETS} | {"cli.import"}
    metrics = {}
    for name in names:
        metrics[f"{name}.s"] = total[name] / 1e9
        metrics[f"{name}.self_s"] = own[name] / 1e9
        metrics[f"{name}.calls"] = calls[name]
    steps_ms = np.array(durations["solvers.step"]) / 1e6
    for q in (50, 99):
        metrics[f"solvers.step.p{q}_ms"] = (
            float(np.percentile(steps_ms, q)) if len(steps_ms) else 0.0)
    metrics["solvers.cell_steps"] = values["solvers.step"]
    written = values["io.write_snapshot"]
    metrics["io.write_snapshot.bytes"] = written
    metrics["io.write_snapshot.mb_per_s"] = (
        written / 1e6 / metrics["io.write_snapshot.s"] if written else 0.0)
    metrics["cli.import_s"] = metrics["cli.import.s"]
    cells = [d / 1e9 for d in durations["cli.sweep.cell"]]
    metrics["cli.sweep.cell_s.max"] = max(cells, default=0.0)
    metrics["cli.sweep.cell_s.sum"] = sum(cells)
    return metrics


def main(argv):
    path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <serrelab args>")
    start = time.perf_counter_ns()
    from serrelab import cli
    tracer = Tracer(path)
    tracer.record("cli.import", start, time.perf_counter_ns())
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
