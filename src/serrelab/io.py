"""CSV readers and writers.  All floats use 17 significant digits so that
every cell round-trips through parse -> format without value change.
"""
from __future__ import annotations

import csv
import dataclasses

import numpy as np

from .core import Snapshot
from .diagnostics import DiagnosticsRecord

FLOAT_FMT = "%.17g"


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return FLOAT_FMT % value


def snapshot_filename(t: float) -> str:
    return f"snapshot_{fmt(t)}.csv"


SNAPSHOT_ROW = ",".join([FLOAT_FMT] * 3) + "\r\n"
SNAPSHOT_CHUNK = 4096


def write_snapshot(path, snapshot: Snapshot) -> None:
    """x,h,u rows with CRLF line ends: the bytes of np.savetxt with
    fmt=FLOAT_FMT, written a chunk of rows at a time."""
    x, h, u = snapshot.x, snapshot.h, snapshot.u
    with open(path, "w", newline="") as fh:
        fh.write("x,h,u\r\n")
        for start in range(0, len(x), SNAPSHOT_CHUNK):
            rows = slice(start, start + SNAPSHOT_CHUNK)
            block = np.column_stack((x[rows], h[rows], u[rows]))
            fh.write((SNAPSHOT_ROW * len(block))
                     % tuple(block.ravel().tolist()))


def read_snapshot(path, t: float) -> Snapshot:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    return Snapshot(t=t, x=data[:, 0], h=data[:, 1], u=data[:, 2])


def write_step_reports(path, log) -> None:
    # %.17g prints the whole-number step and 0/1 flag columns as ints
    write_rows(path, ["step", "t", "min_h", "max_abs_u", "diag_dominant"],
               log.tolist())


DIAGNOSTICS_COLUMNS = [f.name for f in dataclasses.fields(DiagnosticsRecord)]


def write_diagnostics(path, records) -> None:
    write_rows(path, DIAGNOSTICS_COLUMNS,
               ([getattr(r, c) for c in DIAGNOSTICS_COLUMNS] for r in records))


CONVERGENCE_COLUMNS = ["alpha", "dx", "C1_h", "C1_uh", "C1_H",
                       "L1_h", "L1_u", "excluded_window"]


def write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])
