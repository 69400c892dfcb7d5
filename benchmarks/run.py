"""serrelab benchmark: run one workload for a fixed time, check its output,
and print its metrics as the last line of standard output.

    python3 benchmarks/run.py --workload bore-fine --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a source tree: the commands run the CLI from
``src/`` with ``python -m serrelab.cli``.  With ``--trace 0`` it prints the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced rounds (see tracer.py) and prints the per-layer
metrics.  The workloads have no random input, so ``--seed`` changes
nothing.  See README.md for the metrics and the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    """The environment of every command: serrelab from src/, one thread
    per BLAS/OpenMP pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    # (spans file, start ns, end ns) of each traced command
    traced: list


def run_command(args, log, env):
    """Run one command to its end: (exit code, start ns, end ns, peak RSS
    in MiB of the command and the children it waited for)."""
    with open(log, "ab") as fh:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def run_round(workload, inputs, out, env, trace_dir=None):
    """Run the workload's commands one after another into a fresh `out`."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if trace_dir:
        os.makedirs(trace_dir)
    log = os.path.join(out, "commands.log")
    codes, wall_ns, peak, traced = [], 0, 0.0, []
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    for i, args in enumerate(workload.commands(inputs, out)):
        if trace_dir:
            spans = os.path.join(trace_dir, f"command-{i}.json")
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                   "--", *args]
        else:
            cmd = [sys.executable, "-m", "serrelab.cli", *args]
        code, start, end, rss = run_command(cmd, log, env)
        if code != 0:
            with open(log) as fh:
                sys.stderr.write(fh.read()[-2000:])
        codes.append(code)
        wall_ns += end - start
        peak = max(peak, rss)
        if trace_dir:
            traced.append((spans, start, end))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime
           - before.ru_utime - before.ru_stime)
    attempted, failed = workload.operations(out, codes)
    return Round(wall_ns / 1e9, cpu, peak, attempted, failed, traced)


def setup_seconds(workload, inputs, env):
    """Median time for a fresh interpreter to reach its first step."""
    config = os.path.join(inputs, "setup.txt")
    with open(config, "w") as fh:
        fh.write(workload.setup_case.config_text())
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), config]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(probe, stdout=subprocess.PIPE, env=env,
                                cwd=ROOT)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe failed: {proc.returncode}")
    return statistics.median(samples)


def traced_metrics(rounds, names):
    """Per-layer metrics: the median over traced rounds of each metric."""
    untraced = [r.wall_s for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    per_round = []
    for r in traced:
        spans = {path: tracer.load_spans(path) for path, _, _ in r.traced}
        m = tracer.layer_metrics([s for v in spans.values() for s in v])
        uncovered = sum(
            end - start - tracer.covered_ns(
                [(s[3], s[4]) for s in spans[path]], start, end)
            for path, start, end in r.traced)
        m["trace.unaccounted_s"] = uncovered / 1e9
        per_round.append(m)
    metrics = {n: statistics.median(m[n] for m in per_round)
               for n in names if n != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(untraced))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "serrelab", "cli.py")):
        print(f"error: no serrelab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    workload = WORKLOADS[args.workload]
    env = child_env()
    base = os.path.join(OUT_DIR, workload.name)
    inputs = os.path.join(base, "inputs")
    out = os.path.join(base, "round")
    os.makedirs(inputs, exist_ok=True)
    shutil.rmtree(os.path.join(TRACE_DIR, workload.name), ignore_errors=True)
    setup_s = None if args.trace else setup_seconds(workload, inputs, env)

    # whole rounds while the next one fits in the time; a traced run
    # alternates untraced and traced rounds and makes at least one of each
    rounds = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        trace_dir = None
        if args.trace and len(rounds) % 2:
            trace_dir = os.path.join(TRACE_DIR, workload.name,
                                     f"round-{len(rounds)}")
        start = time.perf_counter()
        rounds.append(run_round(workload, inputs, out, env, trace_dir))
        longest = max(longest, time.perf_counter() - start)
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - begin + longest > args.seconds:
            break

    try:
        failures = workload.check(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures = [f"check raised {exc!r}"]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    if args.trace:
        specs = spec["per_layer"]
        values = traced_metrics(rounds, [m["name"] for m in specs])
    else:
        specs = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            "setup_s": setup_s,
        }
    print(f"{workload.name}: {len(rounds)} rounds, wall "
          f"{[round(r.wall_s, 3) for r in rounds]} s", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
