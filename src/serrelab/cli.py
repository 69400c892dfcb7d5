"""Command-line front end: single runs, nested-grid convergence sweeps,
reference comparisons and the closed-form reference table.
"""
from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from . import diagnostics, io, reference, solvers
from .core import (CONFIG_KEYS, REQUIRED_KEYS, ConfigError, SimConfig,
                   _parse_value, analytic_totals, format_config,
                   parse_config_file, parse_key_values, smoothed_dambreak_ic)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2

# a manifest is a config file whose alpha and dx the sweep sets
_SWEPT = ("alpha", "dx")
MANIFEST_KEYS = tuple(k for k in CONFIG_KEYS if k not in _SWEPT) + (
    "alphas", "levels", "exclude_window")
MANIFEST_REQUIRED = tuple(k for k in REQUIRED_KEYS if k not in _SWEPT) + (
    "alphas", "levels")


@dataclass(frozen=True)
class ExperimentManifest:
    """Sweep of smoothing lengths and refinement levels (dx = 10 / 2^k)."""

    alphas: tuple
    levels: tuple
    exclude_window: tuple | None
    configs: dict        # (alpha, level) -> the cell's SimConfig, in order


def level_dx(level: int) -> float:
    return 10.0 / 2 ** level


def parse_manifest_file(path) -> ExperimentManifest:
    """Parse a manifest and build every cell's SimConfig, so that a bad
    cell fails here, before the sweep writes anything."""
    with open(path) as fh:
        values = {key: _parse_value(key, raw) for key, raw in parse_key_values(
            fh.read(), MANIFEST_KEYS, MANIFEST_REQUIRED).items()}

    alphas = values.pop("alphas")
    levels = values.pop("levels")
    exclude = values.pop("exclude_window", ()) or None
    if not alphas:
        raise ConfigError("alphas must name at least one smoothing length")
    if len(set(alphas)) < len(alphas):
        raise ConfigError("alphas must be distinct")
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be two or more strictly increasing "
                          "refinement levels")
    if exclude and (len(exclude) != 2 or exclude[1] < exclude[0]):
        raise ConfigError(f"exclude_window must be LO,HI with LO <= HI, "
                          f"got {exclude}")
    configs = {(alpha, level): SimConfig(alpha=alpha, dx=level_dx(level),
                                         **values)
               for alpha in alphas for level in levels}
    return ExperimentManifest(alphas, levels, exclude, configs)


def _refuse_used_dir(path: str, record: str) -> None:
    """One run per directory: refuse an --out that already holds one."""
    if os.path.exists(os.path.join(path, record)):
        raise ConfigError(f"{path} already holds {record}; pass a new --out")


def _bore(config: SimConfig):
    """The shallow-water solution of config's dam break, or None when
    there is no bore (h1 > h0 does not hold)."""
    if config.h1 > config.h0:
        return reference.solve_swwe_dambreak(config.h0, config.h1, config.g,
                                             x0=config.x0)
    return None


def execute_run(config: SimConfig, run_dir: str):
    """Run one simulation and write its full file set into run_dir.

    run_to's sink writes each snapshot file, and computes its diagnostics
    row, as soon as the snapshot is taken, so a run that is killed or
    fails keeps the snapshots it finished.  step_report.csv and
    diagnostics.csv are written at the end; a failed run writes the step
    log that its SolverError carries, and no diagnostics.csv.

    Returns the last snapshot and the diagnostics records.
    """
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "config.txt"), "w") as fh:
        fh.write(format_config(config))
    try:
        totals_0 = analytic_totals(config)
    except ConfigError:  # x0 is not the domain midpoint
        totals_0 = None
    sol = _bore(config)
    records, last = [], None

    def write_and_diagnose(snap):
        nonlocal last
        io.write_snapshot(os.path.join(run_dir, io.snapshot_filename(snap.t)),
                          snap)
        records.append(diagnostics.diagnose(snap, config.g,
                                            totals_0=totals_0, sol=sol))
        last = snap

    step_report = os.path.join(run_dir, "step_report.csv")
    try:
        log = solvers.run_to(smoothed_dambreak_ic(config), config,
                             write_and_diagnose)
    except solvers.SolverError as exc:
        io.write_step_reports(step_report, exc.log)
        raise
    io.write_step_reports(step_report, log)
    io.write_diagnostics(os.path.join(run_dir, "diagnostics.csv"), records)
    return last, records


def cmd_run(args) -> int:
    config = parse_config_file(args.config)
    _refuse_used_dir(args.out, "config.txt")
    execute_run(config, args.out)
    print(f"run complete: {args.out}")
    return EXIT_OK


def _sweep_cell(manifest: ExperimentManifest, sweep_dir: str, cell):
    """Last snapshot and record of one (alpha, level) cell, or its error."""
    alpha, level = cell
    try:
        last, records = execute_run(
            manifest.configs[cell],
            os.path.join(sweep_dir, io.fmt(alpha), str(level)))
    except solvers.SolverError as exc:
        return str(exc)
    return last, records[-1]


def cmd_converge(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    manifest = parse_manifest_file(args.manifest)
    sweep_dir = args.out
    _refuse_used_dir(sweep_dir, "manifest.txt")
    os.makedirs(sweep_dir, exist_ok=True)
    shutil.copyfile(args.manifest, os.path.join(sweep_dir, "manifest.txt"))

    # the finest cells take longest: the pool starts them first
    cells = sorted(manifest.configs, key=lambda cell: cell[1], reverse=True)
    run_cell = partial(_sweep_cell, manifest, sweep_dir)
    # the pool forks all its workers at the first submit
    workers = min(args.workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = dict(zip(cells, pool.map(run_cell, cells)))
    else:
        outcomes = dict(zip(cells, map(run_cell, cells)))

    exclude = manifest.exclude_window
    window_label = f"{exclude[0]},{exclude[1]}" if exclude else ""
    table_rows, rate_rows = [], []
    for alpha in manifest.alphas:
        done = [k for k in manifest.levels
                if not isinstance(outcomes[alpha, k], str)]
        if len(done) < 2:
            continue
        finest = outcomes[alpha, done[-1]][0]
        # (L1_h, L1_u) against the finest level, for all the others
        l1 = [[diagnostics.l1_difference(outcomes[alpha, k][0], finest, q,
                                         exclude_window=exclude)
               for q in ("h", "u")] for k in done[:-1]]
        for k, errors in zip(done, l1 + [[None, None]]):
            record = outcomes[alpha, k][1]
            table_rows.append([alpha, level_dx(k), record.C1_h,
                               record.C1_uh, record.C1_H, *errors,
                               window_label])
        for ka, kb, la, lb in zip(done, done[1:], l1, l1[1:]):
            rate_rows.append([alpha, level_dx(ka), level_dx(kb)] + [
                math.log2(a / b) if b > 0 else float("nan")
                for a, b in zip(la, lb)])

    io.write_rows(os.path.join(sweep_dir, "convergence.csv"),
                  io.CONVERGENCE_COLUMNS, table_rows)
    io.write_rows(os.path.join(sweep_dir, "rates.csv"),
                  ["alpha", "dx_coarse", "dx_fine", "rate_h", "rate_u"],
                  rate_rows)
    failed = [cell for cell in manifest.configs
              if isinstance(outcomes[cell], str)]
    for alpha, k in failed:
        print(f"error: cell alpha={alpha} level={k} failed: "
              f"{outcomes[alpha, k]}", file=sys.stderr)
    if failed:
        print("convergence table written with partial results", file=sys.stderr)
        return EXIT_SOLVER
    print(f"converge complete: {sweep_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    run_dir = args.run_dir
    config = parse_config_file(os.path.join(run_dir, "config.txt"))
    # the name the stepper gave the t_end snapshot: state.step * dt
    t = config.n_steps * config.dt
    snap = io.read_snapshot(os.path.join(run_dir, io.snapshot_filename(t)),
                            t=t)
    out_path = os.path.join(run_dir, "compare.csv")

    header, row = ["result"], ["no bore"]
    sol = _bore(config)
    if sol is not None:
        crest = diagnostics.leading_wave(snap, sol)
        if crest is not None:
            whitham = reference.whitham_leading_wave(
                config.h0, config.h1, config.g, x0=config.x0)
            h_mean, u_mean, _ = diagnostics.bore_means(snap, sol)
            x_a, amp = crest
            header = ["t", "h_mean", "h2", "u_mean", "u2", "A", "A_plus",
                      "x_A", "x_S2", "x_S_plus"]
            row = [t, h_mean, sol.h2, u_mean, sol.u2, amp, whitham.A_plus,
                   x_a, sol.x_shock(t), whitham.x_front(t)]
    io.write_rows(out_path, header, [row])
    print(f"compare complete: {out_path}")
    return EXIT_OK


def cmd_reference(args) -> int:
    sol = reference.solve_swwe_dambreak(args.h0, args.h1, args.g, x0=args.x0)
    whitham = reference.whitham_leading_wave(args.h0, args.h1, args.g,
                                             x0=args.x0)
    t = args.t
    header = ["h2", "u2", "S2", "h_b", "delta", "A_plus", "S_plus",
              "x_u2", "x_S2", "x_S_plus"]
    row = [sol.h2, sol.u2, sol.S2, whitham.h_b, whitham.delta,
           whitham.A_plus, whitham.S_plus, sol.x_u2(t), sol.x_shock(t),
           whitham.x_front(t)]
    print(",".join(header))
    print(",".join(io.fmt(v) for v in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serrelab",
        description="Dispersive shallow-water dam-break laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("converge",
                            help="nested-grid sweep with L1/C1 table")
    p_conv.add_argument("--manifest", required=True)
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--workers", type=int, default=1)
    p_conv.set_defaults(func=cmd_converge)

    p_cmp = sub.add_parser("compare",
                           help="compare a finished run with the closed forms")
    p_cmp.add_argument("run_dir")
    p_cmp.set_defaults(func=cmd_compare)

    p_ref = sub.add_parser("reference", help="print the closed-form table")
    p_ref.add_argument("--h0", type=float, required=True)
    p_ref.add_argument("--h1", type=float, required=True)
    p_ref.add_argument("--t", type=float, default=30.0)
    p_ref.add_argument("--g", type=float, default=9.81)
    p_ref.add_argument("--x0", type=float, default=reference.DEFAULT_X0)
    p_ref.set_defaults(func=cmd_reference)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solvers.SolverError as exc:
        print(f"error: solver failed at step {exc.step}: {exc}",
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
