"""The benchmark drives serrelab from outside: its traced run wraps
serrelab functions by name, its set-up probe calls them directly and its
workloads write config files and a manifest.  A name, call shape or input
rule that changes in serrelab would crash those scripts, so it fails
here."""
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys

import pytest

import serrelab as sl
from serrelab.cli import build_parser, parse_manifest_file

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCHMARKS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = load_script("tracer")
    assert tracer.TARGETS
    for module, function, _ in tracer.TARGETS:
        assert callable(getattr(
            importlib.import_module(f"serrelab.{module}"), function, None)), \
            f"serrelab.{module}.{function}"


def test_setup_probe_reaches_first_step(tmp_path):
    config = tmp_path / "c.txt"
    config.write_text("h0 = 1.0\nh1 = 1.8\nx0 = 50.0\nalpha = 2.0\n"
                      "domain_a = 0.0\ndomain_b = 100.0\ndx = 2.5\n"
                      "t_end = 1.0\nscheme = D\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, "setup_probe.py"),
         str(config)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ready\n"


def test_workload_inputs_accepted(tmp_path, monkeypatch):
    # workloads.py imports its sibling checks.py
    monkeypatch.syspath_prepend(BENCHMARKS)
    workloads = load_script("workloads")
    parsed = 0
    for workload in workloads.WORKLOADS.values():
        sl.parse_config_text(workload.setup_case.config_text())
        for argv in workload.commands(str(tmp_path), str(tmp_path / "out")):
            # a removed or renamed option exits here, as in the benchmark
            args = build_parser().parse_args(argv)
            if getattr(args, "config", None):
                sl.parse_config_file(args.config)
                parsed += 1
            if getattr(args, "manifest", None):
                parse_manifest_file(args.manifest)
                parsed += 1
    assert parsed == 3


@pytest.mark.parametrize("scheme", ["D", "E"])
def test_assembly_span_fires_on_the_compiled_path(tmp_path, scheme):
    if shutil.which("c++") is None:
        pytest.skip("no c++ on PATH")
    tracer = load_script("tracer")
    config = tmp_path / "c.txt"
    # dt = 0.025: 40 steps after the bootstrap solve
    config.write_text("h0 = 1.0\nh1 = 1.8\nx0 = 50.0\nalpha = 2.0\n"
                      "domain_a = 0.0\ndomain_b = 100.0\ndx = 2.5\n"
                      f"t_end = 1.0\nscheme = {scheme}\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCHMARKS, "tracer.py"), str(spans),
         "--", "run", "--config", str(config), "--out",
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    # the run built the kernel into the cache, so this loads it
    compiled = subprocess.run(
        [sys.executable, "-c", "from serrelab import solvers; "
         "print(solvers._step_kernel() is not None)"],
        capture_output=True, text=True, env=env, timeout=300)
    assert compiled.stdout == "True\n", compiled.stderr
    metrics = tracer.layer_metrics(tracer.load_spans(str(spans)))
    # every layer the benchmark reports is reached through its traced
    # name: one call per step, plus the bootstrap's momentum solve, and
    # one snapshot at t_end
    calls = {"solvers.run_to": 1, "solvers.step": 40,
             "solvers.momentum_update": 40 + 1,
             "solvers.solve_tridiagonal": 40 + 1,
             "solvers.assemble_momentum_system": 40 + 1,
             "solvers.mass_update": 40, "core.take_snapshot": 1}
    for name, count in calls.items():
        assert metrics[f"{name}.calls"] == count, name
    assert metrics["solvers.assemble_momentum_system.s"] > 0
