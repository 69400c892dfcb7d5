"""CSV readers and writers.  All floats use 17 significant digits so that
every cell round-trips through parse -> format without value change.
"""
from __future__ import annotations

import csv
import dataclasses

import numpy as np

from . import solvers
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


SNAPSHOT_CHUNK = 4096
# the longest %.17g field, "-2.2250738585072014e-308"
FIELD_BYTES = 24


def _format_percent(block) -> bytes:
    """The CSV body of a 2-D float block by Python's %: each value as
    FLOAT_FMT, fields joined by "," and rows ended by CRLF."""
    row = ",".join([FLOAT_FMT] * block.shape[1]) + "\r\n"
    return ((row * len(block)) % tuple(block.ravel().tolist())).encode()


def _write_float_rows(path, header, columns) -> None:
    """A CSV file of equal-length float columns: the header, then one row
    per cell, with CRLF line ends (the bytes of np.savetxt with
    fmt=FLOAT_FMT, and of csv.writer over fmt).  The rows are formatted a
    chunk at a time, by the C kernel into one reused buffer when it is
    built, else by _format_percent; both give the same bytes."""
    kernel = solvers._step_kernel()
    if kernel is not None:
        # each field with one separator byte, and the LF of each CRLF
        buf = np.empty(SNAPSHOT_CHUNK * ((FIELD_BYTES + 1) * len(columns)
                                         + 1), np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(columns[0]), SNAPSHOT_CHUNK):
            rows = slice(start, start + SNAPSHOT_CHUNK)
            # a contiguous copy: read_snapshot's columns are strided views
            block = np.column_stack([column[rows] for column in columns])
            fh.write(_format_percent(block) if kernel is None else
                     solvers._format_with_kernel(kernel, block, buf))


def write_snapshot(path, snapshot: Snapshot) -> None:
    """x,h,u rows with CRLF line ends: the bytes of np.savetxt with
    fmt=FLOAT_FMT."""
    _write_float_rows(path, ["x", "h", "u"],
                      (snapshot.x, snapshot.h, snapshot.u))


def read_snapshot(path, t: float) -> Snapshot:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    return Snapshot(t=t, x=data[:, 0], h=data[:, 1], u=data[:, 2])


def write_step_reports(path, log) -> None:
    # %.17g prints the whole-number step and 0/1 flag columns as ints
    _write_float_rows(path, ["step", "t", "min_h", "max_abs_u",
                             "diag_dominant"], log.T)


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
