"""The benchmark's three workloads: their inputs, CLI commands, operation
counts and correctness checks.

Every input is fixed: the physics of a dam break has no random part, so the
workloads take no seed.  Each workload is a closed loop with one caller,
which starts a command only after the previous one has ended.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import checks


def level_dx(level):
    return 10.0 / 2 ** level


@dataclass(frozen=True)
class Case:
    """One smoothed dam break, as written to a serrelab config file."""

    alpha: float
    dx: float
    t_end: float
    scheme: str
    snapshot_times: tuple = ()
    h0: float = 1.0
    h1: float = 1.8
    x0: float = 500.0
    domain_a: float = 0.0
    domain_b: float = 1000.0
    g: float = 9.81

    def config_text(self):
        keys = ("h0", "h1", "x0", "alpha", "domain_a", "domain_b", "dx",
                "t_end", "scheme")
        lines = [f"{k} = {getattr(self, k)}" if k == "scheme"
                 else f"{k} = {getattr(self, k)!r}" for k in keys]
        lines.append("snapshot_times = "
                     + ",".join(repr(t) for t in self.snapshot_times))
        return "\n".join(lines) + "\n"


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


class BoreFine:
    """One long scheme-D run on n = 25 600 cells; stepping dominates."""

    name = "bore-fine"
    case = Case(alpha=2.0, dx=level_dx(8), t_end=1.0, scheme="D",
                snapshot_times=(0.5, 1.0))
    setup_case = case

    def commands(self, inputs, out):
        config = _write(os.path.join(inputs, "bore.txt"),
                        self.case.config_text())
        return [["run", "--config", config,
                 "--out", os.path.join(out, "run")]]

    def operations(self, out, codes):
        return 1, int(codes[0] != 0)

    def check(self, out):
        return checks.check_bore(os.path.join(out, "run"), self.case)


class SweepNested:
    """The convergence sweep of acceptance criterion 5 on two workers."""

    name = "sweep-nested"
    alphas = (40.0, 2.0)
    levels = (4, 5, 6, 7)
    t_end = 3.0
    scheme = "E"
    workers = 2
    # the largest cell, started by a fresh interpreter
    setup_case = Case(alpha=2.0, dx=level_dx(7), t_end=3.0, scheme="E")

    def manifest_text(self):
        case = self.setup_case
        return "".join(f"{k} = {v}\n" for k, v in (
            ("h0", case.h0), ("h1", case.h1), ("x0", case.x0),
            ("domain_a", case.domain_a), ("domain_b", case.domain_b),
            ("t_end", self.t_end), ("scheme", self.scheme),
            ("alphas", ",".join(repr(a) for a in self.alphas)),
            ("levels", ",".join(str(k) for k in self.levels))))

    def commands(self, inputs, out):
        manifest = _write(os.path.join(inputs, "sweep.txt"),
                          self.manifest_text())
        return [["converge", "--manifest", manifest,
                 "--out", os.path.join(out, "sweep"),
                 "--workers", str(self.workers)]]

    def operations(self, out, codes):
        """Each sweep cell is one operation; a cell without its
        diagnostics.csv failed."""
        cells = [os.path.join(out, "sweep", "%.17g" % a, str(k))
                 for a in self.alphas for k in self.levels]
        failed = sum(not os.path.exists(os.path.join(c, "diagnostics.csv"))
                     for c in cells)
        if codes[0] != 0:
            failed = max(failed, 1)
        return len(cells), failed

    def check(self, out):
        return checks.check_sweep(os.path.join(out, "sweep"), self)


def _archive_case():
    dx = level_dx(10)
    dt = 0.01 * dx
    steps, snapshots = 200, 10
    every = steps // snapshots
    times = tuple(k * every * dt for k in range(1, snapshots + 1))
    return Case(alpha=0.4, dx=dx, t_end=times[-1], scheme="E",
                snapshot_times=times)


class SnapshotArchive:
    """A short run on n = 102 400 cells that writes ten snapshots, then
    `compare`; CSV writing dominates."""

    name = "snapshot-archive"
    case = _archive_case()
    setup_case = case

    def commands(self, inputs, out):
        config = _write(os.path.join(inputs, "archive.txt"),
                        self.case.config_text())
        run_dir = os.path.join(out, "run")
        return [["run", "--config", config, "--out", run_dir],
                ["compare", run_dir]]

    def operations(self, out, codes):
        return len(codes), sum(c != 0 for c in codes)

    def check(self, out):
        return checks.check_archive(os.path.join(out, "run"), self.case)


WORKLOADS = {w.name: w for w in (BoreFine(), SweepNested(),
                                 SnapshotArchive())}
