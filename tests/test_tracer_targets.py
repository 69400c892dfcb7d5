"""The benchmark drives serrelab from outside: its traced run wraps
serrelab functions by name and its set-up probe calls them directly.  A
name or call shape that changes in serrelab would crash those scripts, so
it fails here."""
import importlib
import importlib.util
import os
import subprocess
import sys

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
TRACER = os.path.join(BENCHMARKS, "tracer.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
