"""Golden regression: schemes D and E on one smooth (alpha = 40 m) and one
steep (alpha = 0.4 m) dam break reproduce stored arrays bit for bit.

Each case runs on 1 600 cells (dx = 10/2^4 on [0, 1000] m) for 320 steps
to t = 2 s, Euler bootstrap included, and compares the final depth and
velocity profiles and the step log's min_h, max_abs_u and diag_dominant
columns with `np.array_equal`.

The file holds the bits of the x86-64 compiled kernel, which flushes
subnormals to zero.  On x86-64 the numpy fallback reads every operand as
the kernel does but keeps its subnormal results, so its alpha = 0.4
velocities hold a subnormal where the file holds a zero.  A run that
keeps gradual underflow throughout (the kernel and numpy elsewhere)
gives the same bits until a subnormal appears.  On either path that
writes subnormals, the alpha = 0.4 velocities may differ, in far-field
cells, by at most UNDERFLOW_DRIFT.

The reference file is written by this module's main block:

    PYTHONPATH=src python tests/test_golden.py

Before it overwrites the file, it prints for each array the number of
cells whose bits change and the largest |difference|.  Rewrite the file
only for a change that alters the arithmetic on purpose, and state that
report in the change's notes.
"""
import os
import platform

import numpy as np
import pytest

import serrelab as sl
from _cases import collect, make_config
from serrelab import solvers

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "serre_d_e.npz")
CASES = [(40.0, "D"), (40.0, "E"), (0.4, "D"), (0.4, "E")]
T_END = 2.0
# the largest |u| change (m/s) that keeping subnormals makes at alpha = 0.4
UNDERFLOW_DRIFT = 1e-290
# the compiled kernel flushes subnormals to zero on x86-64 only
X86_64 = platform.machine() in ("x86_64", "AMD64")


def run_golden_case(alpha, scheme):
    """Final profiles and step-log columns of one golden case."""
    config = make_config(alpha, 4, T_END, scheme=scheme)
    snapshots, log = collect(sl.smoothed_dambreak_ic(config), config)
    return {
        "h": snapshots[-1].h,
        "u": snapshots[-1].u,
        "min_h": log[:, 2],
        "max_abs_u": log[:, 3],
        "diag_dominant": log[:, 4] == 1.0,
    }


def case_key(alpha, scheme, name):
    return f"{scheme}_alpha{alpha:g}_{name}"


def agrees(golden, alpha, scheme, name, value):
    """Whether one array of a golden case, run on this process's path, is
    the file's, bit for bit.  On a path that writes subnormals (the numpy
    fallback, or the kernel off x86-64), the alpha = 0.4 velocities may
    instead differ by at most UNDERFLOW_DRIFT."""
    want = golden[case_key(alpha, scheme, name)]
    flushed = X86_64 and solvers._step_kernel() is not None
    if not flushed and alpha == 0.4 and name == "u":
        return bool(np.abs(value - want).max() <= UNDERFLOW_DRIFT)
    return np.array_equal(value, want)


def drift_report(old, new):
    """One line per array of new: the number of cells whose bits differ
    from old's and the largest |difference| (booleans count as 0/1)."""
    lines = []
    for key, value in new.items():
        was = old[key]
        if value.dtype == bool:
            changed = int((value != was).sum())
            largest = float(changed > 0)
        else:
            changed = int((value.view(np.int64) != was.view(np.int64)).sum())
            largest = float(np.abs(value - was).max())
        lines.append(f"{key}: {changed} of {value.size} cells changed, "
                     f"max |delta| = {largest:.3g}")
    return lines


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("alpha,scheme", CASES)
def test_bit_identical(golden, alpha, scheme):
    got = run_golden_case(alpha, scheme)
    assert len(got["min_h"]) == round(T_END / make_config(alpha, 4, T_END).dt)
    for name, value in got.items():
        assert agrees(golden, alpha, scheme, name, value), name


if __name__ == "__main__":
    arrays = {case_key(a, s, name): value for a, s in CASES
              for name, value in run_golden_case(a, s).items()}
    if os.path.exists(GOLDEN):
        with np.load(GOLDEN) as old:
            print("\n".join(drift_report(dict(old), arrays)))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    np.savez(GOLDEN, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN}")
