"""Each correctness check passes on a real workload output and fails once
one value of that output is perturbed, so no check is vacuous.

    python -m pytest benchmarks/test_checks.py

Runs every workload once through the CLI (about half a minute).
"""
import csv
import os
import shutil

import pytest

import run
from checks import snapshot_files
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output directory of each workload, run once per test session."""
    done = {}

    def get(name):
        if name not in done:
            workload = WORKLOADS[name]
            base = tmp_path_factory.mktemp(name)
            inputs, out = str(base / "inputs"), str(base / "out")
            os.makedirs(inputs)
            result = run.run_round(workload, inputs, out, run.child_env())
            assert result.failed == 0
            done[name] = out
        return done[name]
    return get


def edit_csv(path, row, column, change):
    """Replace one cell (data row `row`, 0-based) by change(old text)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = header.index(column)
    body[row][col] = change(body[row][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + body)


def add(delta):
    return lambda text: "%.17g" % (float(text) + delta)


def set_to(value):
    return lambda text: "%.17g" % value


def last_snapshot(run_dir):
    return snapshot_files(run_dir)[-1][1]


# (workload, check, file to edit, data row, column, change); rows and
# values are chosen so the perturbed cell lies where the check looks
MID = {"bore-fine": 12_800, "snapshot-archive": 51_200}
PERTURBATIONS = [
    ("bore-fine", "positivity", "run", MID["bore-fine"], "h", set_to(-1e-3)),
    ("bore-fine", "mass", "run", MID["bore-fine"], "h", add(1e-3)),
    ("bore-fine", "momentum", "run", MID["bore-fine"], "u", add(0.1)),
    ("bore-fine", "far_field", "run", 10, "h", add(1e-6)),
    ("sweep-nested", "c1_h", "convergence.csv", 0, "C1_h", set_to(1e-8)),
    ("sweep-nested", "l1", ("40", 4), 800, "u", add(1e-4)),
    ("sweep-nested", "rates", ("40", 6), 3200, "h", add(1e-4)),
    ("snapshot-archive", "x_column", "run", 100, "x", add(1e-6)),
    ("snapshot-archive", "round_trip", "run", 100, "x", lambda t: t + "0"),
    ("snapshot-archive", "mass", "run", MID["snapshot-archive"], "h",
     add(1e-3)),
    ("snapshot-archive", "compare", "run", 102_300, "h", set_to(1.5)),
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_pass(name, outputs):
    assert WORKLOADS[name].check(outputs(name)) == []


@pytest.mark.parametrize(
    "case", PERTURBATIONS, ids=[f"{p[0]}-{p[1]}" for p in PERTURBATIONS])
def test_one_perturbed_value_fails(case, outputs, tmp_path):
    name, check, target, row, column, change = case
    copy = str(tmp_path / "out")
    shutil.copytree(outputs(name), copy)
    if target == "run":
        path = last_snapshot(os.path.join(copy, "run"))
    elif target == "convergence.csv":
        path = os.path.join(copy, "sweep", target)
    else:
        alpha, level = target
        path = last_snapshot(os.path.join(copy, "sweep", alpha, str(level)))
    edit_csv(path, row, column, change)
    failures = WORKLOADS[name].check(copy)
    assert any(f.startswith(check + ":") for f in failures), failures
