"""The benchmark's traced run wraps serrelab functions by name; a name
that disappears from serrelab would crash that run, so it fails here."""
import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                      "tracer.py")


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, function, _ in tracer.TARGETS:
        assert callable(getattr(
            importlib.import_module(f"serrelab.{module}"), function, None)), \
            f"serrelab.{module}.{function}"
