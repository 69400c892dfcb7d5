"""Correctness checks on the files serrelab writes, made without serrelab.

Nothing here imports serrelab: the closed forms, the nested-grid L1
differences and the CSV parsing are the benchmark's own.  Each check
returns a list of failures, one ``"<check>: <detail>"`` string each; an
empty list means the output passed.  Tolerances come from properties the
method must have, never from a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

# Mass is conserved to round-off: both mass updates telescope over the
# cells and the far-field velocity is zero, and the midpoint rule is exact
# for the tanh initial depth because the profile is odd about the domain
# centre.  Summing ~1e5 doubles leaves ~1e-12 relative at worst.
MASS_RTOL = 1e-10
# The non-conservative momentum update meets the boundary-flux balance only
# to its discretisation error, O(dx^2 + dt^2) for a second-order method
# (about 2e-6 relative at dx = 10/2^8).  A wrong flux or update is O(1).
MOMENTUM_RTOL = 1e-4
# Ahead of the shock and behind the rarefaction head, the depth differs from
# the far field by the tanh tail 0.8 exp(-2 d / alpha), e^-30 at d = 15 alpha.
FAR_FIELD_MARGIN_ALPHAS = 15.0
FAR_FIELD_TOL = 1e-8
# A second-order method halves the nested-grid L1 difference at least
# 2^1.7-fold per level in the asymptotic range.
MIN_RATE = 1.7
MAX_C1_H = 1e-9
L1_RTOL = 1e-10
# A crest rises above a neighbour by more than round-off on a flat plateau.
CREST_PROMINENCE = 1e-10

_SNAPSHOT_RE = re.compile(r"snapshot_(.+)\.csv$")


def snapshot_files(run_dir):
    """(t, path) of every snapshot CSV in a run directory, by time."""
    found = []
    for name in os.listdir(run_dir):
        m = _SNAPSHOT_RE.match(name)
        if m:
            found.append((float(m.group(1)), os.path.join(run_dir, name)))
    return sorted(found)


def read_table(path):
    """Rows of a CSV file as dicts of strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def load_snapshot(path):
    """(x, h, u) columns of a snapshot CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2]


def swwe_dambreak(h0, h1, g):
    """Shallow-water dam break into still water: (h2, u2, S2).

    The rarefaction gives u2 = 2(sqrt(g h1) - sqrt(g h2)); the shock gives
    S2^2 = g h2 (h2 + h0) / (2 h0) and u2 = S2 (h2 - h0) / h2.  The middle
    depth is found by bisection on (h0, h1).
    """
    def shock_speed(h2):
        return math.sqrt(g * h2 * (h2 + h0) / (2.0 * h0))

    def mismatch(h2):
        return (shock_speed(h2) * (h2 - h0) / h2
                - 2.0 * (math.sqrt(g * h1) - math.sqrt(g * h2)))

    lo, hi = h0, h1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mismatch(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    h2 = 0.5 * (lo + hi)
    s2 = shock_speed(h2)
    return h2, s2 * (h2 - h0) / h2, s2


def _mass_failures(label, h, case):
    exact = 0.5 * (case.h0 + case.h1) * (case.domain_b - case.domain_a)
    mass = float(h.sum()) * case.dx
    if abs(mass - exact) > MASS_RTOL * exact:
        return [f"mass: {label}: midpoint mass {mass!r} vs {exact!r}"]
    return []


def _grid_failures(label, x, case):
    n = round((case.domain_b - case.domain_a) / case.dx)
    if len(x) != n:
        return [f"grid: {label}: {len(x)} rows, expected {n}"]
    return []


def check_bore(run_dir, case):
    """Positivity, mass, momentum balance and far-field states of a run."""
    files = snapshot_files(run_dir)
    times = [t for t, _ in files]
    if times != list(case.snapshot_times):
        return [f"files: snapshot times {times}, "
                f"expected {list(case.snapshot_times)}"]
    _, _, s2 = swwe_dambreak(case.h0, case.h1, case.g)
    flux = 0.5 * case.g * (case.h1 ** 2 - case.h0 ** 2)
    margin = FAR_FIELD_MARGIN_ALPHAS * case.alpha
    failures = []
    for t, path in files:
        label = f"t={t!r}"
        x, h, u = load_snapshot(path)
        failures += _grid_failures(label, x, case)
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(u))
                and np.all(h > 0.0)):
            failures.append(f"positivity: {label}: min h {h.min()!r}")
        failures += _mass_failures(label, h, case)
        momentum = float((u * h).sum()) * case.dx
        if abs(momentum - flux * t) > MOMENTUM_RTOL * flux * t:
            failures.append(f"momentum: {label}: {momentum!r} vs "
                            f"boundary flux {flux * t!r}")
        left = x < case.x0 - math.sqrt(case.g * case.h1) * t - margin
        right = x > case.x0 + s2 * t + margin
        if not (left.any() and right.any()):
            failures.append(f"far_field: {label}: no cells outside the fan")
            continue
        dev = max(np.abs(h[left] - case.h1).max(), np.abs(u[left]).max(),
                  np.abs(h[right] - case.h0).max(), np.abs(u[right]).max())
        if dev > FAR_FIELD_TOL:
            failures.append(f"far_field: {label}: deviation {dev!r}")
    return failures


def _coarse_centre_values(xc, xf, qf):
    """Fine values at coarse centres: the two straddling fine cells averaged."""
    r = len(xf) // len(xc)
    idx = np.arange(len(xc)) * r + r // 2
    if not np.allclose(0.5 * (xf[idx - 1] + xf[idx]), xc, rtol=0.0,
                       atol=1e-9):
        raise ValueError("grids are not nested")
    return 0.5 * (qf[idx - 1] + qf[idx])


def l1_difference(coarse, fine, column):
    """Relative L1 difference of one column on the coarse centres."""
    qc = coarse[column]
    qf = _coarse_centre_values(coarse[0], fine[0], fine[column])
    return float(np.abs(qc - qf).sum() / np.abs(qf).sum())


def check_sweep(sweep_dir, sweep):
    """Recomputed L1 differences, observed rates and mass conservation."""
    table = read_table(os.path.join(sweep_dir, "convergence.csv"))
    failures = []
    for alpha in sweep.alphas:
        rows = [r for r in table if float(r["alpha"]) == alpha]
        dxs = [10.0 / 2 ** k for k in sweep.levels]
        if [float(r["dx"]) for r in rows] != dxs:
            failures.append(f"files: alpha={alpha!r}: table rows {rows}")
            continue
        finals = []
        for k in sweep.levels:
            cell = os.path.join(sweep_dir, "%.17g" % alpha, str(k))
            t, path = snapshot_files(cell)[-1]
            if t != sweep.t_end:
                failures.append(f"files: {cell}: last snapshot t={t!r}")
            finals.append(load_snapshot(path))
        for row in rows:
            if not float(row["C1_h"]) <= MAX_C1_H:
                failures.append(f"c1_h: alpha={alpha!r} dx={row['dx']}: "
                                f"{row['C1_h']}")
        for col, name in ((1, "L1_h"), (2, "L1_u")):
            ours = [l1_difference(c, finals[-1], col) for c in finals[:-1]]
            for row, value in zip(rows, ours):
                theirs = float(row[name])
                if abs(theirs - value) > L1_RTOL * abs(value):
                    failures.append(f"l1: alpha={alpha!r} dx={row['dx']} "
                                    f"{name}: table {theirs!r}, "
                                    f"recomputed {value!r}")
            rates = [math.log2(a / b) for a, b in zip(ours, ours[1:])]
            if not all(r >= MIN_RATE for r in rates):
                failures.append(f"rates: alpha={alpha!r} {name}: {rates}")
    return failures


def _round_trip_failures(path):
    """Tokens of a CSV that `%.17g` does not print back to the same text."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            for token in row:
                if "%.17g" % float(token) != token:
                    return [f"round_trip: {os.path.basename(path)} line "
                            f"{lineno}: {token!r}"]
    return []


def has_crest(h, h0, delta):
    """True if h has a local maximum above h0 + delta."""
    mid = h[1:-1]
    is_max = ((mid >= h[:-2]) & (mid >= h[2:])
              & ((mid > h[:-2] + CREST_PROMINENCE)
                 | (mid > h[2:] + CREST_PROMINENCE)))
    return bool(np.any(is_max & (mid > h0 + delta)))


def check_archive(run_dir, case):
    """Grid, text round trip and mass of every snapshot, then compare.csv."""
    files = snapshot_files(run_dir)
    times = [t for t, _ in files]
    if times != list(case.snapshot_times):
        return [f"files: snapshot times {times}, "
                f"expected {list(case.snapshot_times)}"]
    failures = []
    h = None
    for t, path in files:
        label = f"t={t!r}"
        x, h, _ = load_snapshot(path)
        failures += _grid_failures(label, x, case)
        exact_x = case.domain_a + (np.arange(len(x)) + 0.5) * case.dx
        dev = float(np.abs(x - exact_x).max())
        if dev > 1e-12 * max(abs(case.domain_a), abs(case.domain_b)):
            failures.append(f"x_column: {label}: deviation {dev!r}")
        failures += _round_trip_failures(path)
        failures += _mass_failures(label, h, case)
    rows = read_table(os.path.join(run_dir, "compare.csv"))
    says_no_bore = rows == [{"result": "no bore"}]
    crest = has_crest(h, case.h0, 0.01 * (case.h1 - case.h0))
    if says_no_bore == crest:
        failures.append(f"compare: compare.csv says "
                        f"{'no bore' if says_no_bore else 'bore'}, latest "
                        f"snapshot {'has' if crest else 'has no'} crest")
    return failures
