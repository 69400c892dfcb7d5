"""Golden regression: schemes D and E on one smooth (alpha = 40 m) and one
steep (alpha = 0.4 m) dam break reproduce stored arrays bit for bit.

Each case runs on 1 600 cells (dx = 10/2^4 on [0, 1000] m) for 320 steps
to t = 2 s, Euler bootstrap included, and compares the final depth and
velocity profiles and the step log's min_h, max_abs_u and diag_dominant
columns with `np.array_equal`.

The reference file is written by this module's main block:

    PYTHONPATH=src python tests/test_golden.py

Rewrite it only for a change that alters the arithmetic on purpose, and
state the drift in that change's notes.
"""
import os

import numpy as np
import pytest

import serrelab as sl
from _cases import collect, make_config

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "serre_d_e.npz")
CASES = [(40.0, "D"), (40.0, "E"), (0.4, "D"), (0.4, "E")]
T_END = 2.0


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


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("alpha,scheme", CASES)
def test_bit_identical(golden, alpha, scheme):
    got = run_golden_case(alpha, scheme)
    assert len(got["min_h"]) == round(T_END / make_config(alpha, 4, T_END).dt)
    for name, value in got.items():
        assert np.array_equal(value, golden[case_key(alpha, scheme, name)]), \
            name


if __name__ == "__main__":
    arrays = {case_key(a, s, name): value for a, s in CASES
              for name, value in run_golden_case(a, s).items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    np.savez(GOLDEN, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN}")
