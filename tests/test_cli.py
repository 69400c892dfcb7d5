import csv
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import serrelab as sl
from serrelab import cli, io
from serrelab.cli import main
from test_solvers import subprocess_env


def write_config(path, **overrides):
    values = dict(h0=1.0, h1=1.8, x0=50.0, alpha=2.0, domain_a=0.0,
                  domain_b=100.0, dx=1.25, t_end=1.0, scheme="D",
                  snapshot_times="0.5,1.0")
    values.update(overrides)
    with open(path, "w") as fh:
        for key, val in values.items():
            if val is not None:
                fh.write(f"{key} = {val}\n")
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_run_produces_file_set(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "config.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "step_report.csv").exists()
        assert (out / "snapshot_1.csv").exists()
        rows = read_csv(out / "diagnostics.csv")
        assert rows[0] == io.DIAGNOSTICS_COLUMNS
        assert len(rows) == 3  # header + t = 0.5, 1.0

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out_a)])
        main(["run", "--config", str(cfg), "--out", str(out_b)])
        for name in ("diagnostics.csv", "snapshot_1.csv", "step_report.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_step_report_columns(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        rows = read_csv(out / "step_report.csv")
        assert rows[0] == ["step", "t", "min_h", "max_abs_u",
                           "diag_dominant"]
        assert len(rows) == 1 + round(1.0 / (0.01 * 1.25))
        assert {row[4] for row in rows[1:]} == {"1"}

    def test_step_report_flags_lost_dominance(self, tmp_path):
        log = np.array([[1, 0.1, 1.0, 0.5, True],
                        [2, 0.2, 1.0, 0.5, False]])
        io.write_step_reports(tmp_path / "r.csv", log)
        rows = read_csv(tmp_path / "r.csv")
        assert [row[4] for row in rows[1:]] == ["1", "0"]

    def test_missing_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("h0 = 1.0\n")
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2
        assert "h1" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_one_run_per_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # a rerun that would fail must not mix its files into the first run's
        bad = write_config(tmp_path / "bad.txt", alpha=0.01, dx=12.5,
                           dt_factor=2.0, t_end=100.0, snapshot_times=None)
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "already holds config.txt" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_solver_failure_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", alpha=0.01, dx=12.5,
                           dt_factor=2.0, t_end=100.0, snapshot_times=None)
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 1
        assert "solver failed" in capsys.readouterr().err

    def test_solver_failure_keeps_evidence(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", alpha=0.01, dx=12.5,
                           dt_factor=2.0, t_end=100.0, snapshot_times="0")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        failed_at = int(err.split("failed at step ")[1].split(":")[0])
        snap = io.read_snapshot(out / "snapshot_0.csv", t=0.0)
        assert snap.t == 0.0 and np.all(snap.u == 0.0)
        rows = read_csv(out / "step_report.csv")
        assert [int(row[0]) for row in rows[1:]] == list(
            range(1, failed_at + 1))
        assert not (out / "diagnostics.csv").exists()

    def test_killed_run_keeps_its_snapshots(self, tmp_path):
        # snapshots at steps 0, 80 and 16 000: the run is killed when the
        # second file appears, long before its last step
        path = write_config(tmp_path / "c.txt", x0=500.0, domain_b=1000.0,
                            dx=0.625, t_end=100.0, snapshot_times="0,0.5")
        config = sl.parse_config_file(path)
        first, second, last = (io.snapshot_filename(s * config.dt)
                               for s in sorted(config.snapshot_steps))
        full = tmp_path / "full"
        start = time.monotonic()
        assert main(["run", "--config", str(path), "--out", str(full)]) == 0
        full_s = time.monotonic() - start

        out = tmp_path / "killed"
        proc = subprocess.Popen(
            [sys.executable, "-m", "serrelab.cli", "run", "--config",
             str(path), "--out", str(out)], env=subprocess_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        start = time.monotonic()
        try:
            # a run that writes only at its end shows no second file
            # within the time of a whole run
            while not (out / second).exists():
                assert proc.poll() is None, "the run ended first"
                assert time.monotonic() - start < full_s, \
                    "no second snapshot within the time of a whole run"
                time.sleep(0.002)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        assert (out / first).read_bytes() == (full / first).read_bytes()
        assert not (out / last).exists()
        assert not (out / "diagnostics.csv").exists()

    def test_t_end_between_steps_exit_2(self, tmp_path, capsys):
        # dt = 0.0125; every draw puts t_end strictly between two steps
        rng = np.random.default_rng(13)
        for n, f in zip(rng.integers(0, 400, 5), rng.uniform(0.01, 0.99, 5)):
            t_end = float((n + f) * 0.0125)
            cfg = write_config(tmp_path / "c.txt", t_end=repr(t_end),
                               snapshot_times=None)
            assert main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o")]) == 2
            assert f"t_end = {t_end} is not" in capsys.readouterr().err

    # dt = 0.0125 and 80 cells: each value below is off-step, out of
    # range, shorter than one step or does not tile the domain
    @pytest.mark.parametrize("key, value, named", [
        ("snapshot_times", "0.26", "snapshot_times entry 0.26"),
        ("snapshot_times", "0.5,5", "snapshot_times entry 5.0"),
        ("snapshot_times", "-0.5", "snapshot_times entry -0.5"),
        ("t_end", "1.01", "t_end = 1.01"),
        ("t_end", "inf", "t_end = inf"),
        ("t_end", "1e-12", "t_end = 1e-12"),
        ("dx", "0.7", "dx = 0.7"),
    ])
    def test_bad_clock_exit_2_before_output(self, tmp_path, capsys, key,
                                            value, named):
        cfg = write_config(tmp_path / "c.txt", **{key: value})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def short_grid_error(tmp_path, capsys, domain_b):
        """The error text of a run on [0, domain_b] with dx = 1, which
        must exit 2 before it writes any file."""
        cfg = write_config(tmp_path / "c.txt", domain_a=0.0,
                           domain_b=domain_b, x0=domain_b / 2, dx=1.0,
                           snapshot_times=None)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_one_cell_grid_exit_2_before_output(self, tmp_path, capsys):
        # a one-row momentum system has no off-diagonals
        err = self.short_grid_error(tmp_path, capsys, 1.0)
        assert "dx = 1.0" in err and "[0.0, 1.0]" in err
        assert "at least 5 cells" in err

    def test_three_cell_grid_exit_2_before_output(self, tmp_path, capsys):
        # the solve takes three rows, but the quartic interpolant of the
        # conserved totals needs five cells
        err = self.short_grid_error(tmp_path, capsys, 3.0)
        assert "dx = 1.0" in err and "[0.0, 3.0]" in err
        assert "at least 5 cells" in err


def write_manifest(path, **overrides):
    values = dict(h0=1.0, h1=1.8, x0=50.0, domain_a=0.0, domain_b=100.0,
                  t_end=1.0, scheme="D", alphas="40,2", levels="3,4")
    values.update(overrides)
    with open(path, "w") as fh:
        for key, val in values.items():
            if val is not None:
                fh.write(f"{key} = {val}\n")
    return path


class TestConverge:
    def test_sweep_outputs(self, tmp_path):
        man = write_manifest(tmp_path / "m.txt")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man),
                     "--out", str(out)]) == 0
        assert (out / "manifest.txt").exists()
        table = read_csv(out / "convergence.csv")
        assert table[0] == io.CONVERGENCE_COLUMNS
        # one row per (alpha, level); L1 only on the non-finest levels
        assert len(table) == 5
        rates = read_csv(out / "rates.csv")
        assert rates[0] == ["alpha", "dx_coarse", "dx_fine", "rate_h",
                            "rate_u"]
        # per-cell directories carry their own file sets
        assert (out / "40" / "3" / "diagnostics.csv").exists()
        assert (out / "2" / "4" / "config.txt").exists()

    def test_lake_at_rest_sweep_warns_nothing(self, tmp_path):
        # u = 0 on every level, so L1_u is 0/0: nan, with no RuntimeWarning
        man = write_manifest(tmp_path / "m.txt", h1=1.0, alphas="2",
                             levels="2,3,4")
        out = tmp_path / "sweep"
        done = subprocess.run(
            [sys.executable, "-m", "serrelab.cli", "converge", "--manifest",
             str(man), "--out", str(out)], capture_output=True, text=True,
            env=subprocess_env())
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr
        table = read_csv(out / "convergence.csv")
        column = table[0].index("L1_u")
        assert [row[column] for row in table[1:]] == ["nan", "nan", ""]

    def test_parallel_matches_serial(self, tmp_path):
        man = write_manifest(tmp_path / "m.txt", alphas="40")
        out_a, out_b = tmp_path / "serial", tmp_path / "par"
        main(["converge", "--manifest", str(man), "--out", str(out_a)])
        main(["converge", "--manifest", str(man), "--out", str(out_b),
              "--workers", "2"])
        assert ((out_a / "convergence.csv").read_bytes()
                == (out_b / "convergence.csv").read_bytes())

    def test_exclude_window_recorded(self, tmp_path):
        man = write_manifest(tmp_path / "m.txt", alphas="40",
                             exclude_window="520,540")
        out = tmp_path / "sweep"
        main(["converge", "--manifest", str(man), "--out", str(out)])
        table = read_csv(out / "convergence.csv")
        assert table[1][-1] == "520.0,540.0"

    def test_manifest_copied_verbatim(self, tmp_path):
        man = write_manifest(tmp_path / "m.txt", alphas="40")
        with open(man, "a", newline="") as fh:
            fh.write("# no newline at the end, a CRLF line before\r\n"
                     "exclude_window = 520, 540")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man),
                     "--out", str(out)]) == 0
        assert (out / "manifest.txt").read_bytes() == man.read_bytes()
        assert "out_dir" not in (out / "40" / "3" / "config.txt").read_text()

    def test_one_sweep_per_directory(self, tmp_path, capsys):
        man = write_manifest(tmp_path / "m.txt")
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "manifest.txt").write_text("an earlier sweep's\n")
        assert main(["converge", "--manifest", str(man),
                     "--out", str(out)]) == 2
        assert "already holds manifest.txt" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]
        assert (out / "manifest.txt").read_text() == "an earlier sweep's\n"

    @pytest.mark.parametrize("line, named", [
        ("viscosity = 1", "unknown key: viscosity"),
        ("h0 = 2.0", "duplicate key: h0"),
        ("levels 3,4", "line 10"),
        ("g = heavy", "bad value for g"),
        ("alpha = 0.4", "unknown key: alpha"),
        ("out_dir = x", "unknown key: out_dir"),
    ])
    def test_bad_manifest_line_exit_2(self, tmp_path, capsys, line, named):
        man = write_manifest(tmp_path / "m.txt")
        with open(man, "a") as fh:
            fh.write(line + "\n")
        assert main(["converge", "--manifest", str(man),
                     "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    def test_blank_optional_values_accepted(self, tmp_path):
        man = write_manifest(tmp_path / "m.txt", alphas="40",
                             snapshot_times="", exclude_window="")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man),
                     "--out", str(out)]) == 0
        assert read_csv(out / "convergence.csv")[1][-1] == ""

    def test_failing_sweep_same_serial_and_pooled(self, tmp_path, capsys):
        # dt = 0.3 dx on a sharp front: every cell loses positivity
        man = write_manifest(tmp_path / "m.txt", dt_factor=0.3, t_end=99.0,
                             alphas="0.01,40", levels="2,3")
        errors = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["converge", "--manifest", str(man), "--out",
                         str(out), "--workers", workers]) == 1
            errors[workers] = [line for line in
                               capsys.readouterr().err.splitlines()
                               if line.startswith("error: cell")]
            assert read_csv(out / "convergence.csv") == [
                io.CONVERGENCE_COLUMNS]
        assert [line.split(" failed:")[0] for line in errors["1"]] == [
            f"error: cell alpha={a} level={k}"
            for a in (0.01, 40.0) for k in (2, 3)]
        assert errors["1"] == errors["2"]

    def test_bore_window_outside_domain(self, tmp_path):
        # by t = 100 s the 100 m bore window has left the 100 m basin
        man = write_manifest(tmp_path / "m.txt", dt_factor=0.1, t_end=100.0,
                             alphas="40", levels="2,3")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man),
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "convergence.csv")) == 3
        rows = read_csv(out / "40" / "3" / "diagnostics.csv")
        record = dict(zip(rows[0], rows[1]))
        assert record["h_mean"] == record["u_mean"] == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("key, value, named", [
        ("t_end", "1.01", "t_end = 1.01"),
        ("snapshot_times", "0.26", "snapshot_times entry 0.26"),
        ("domain_b", "99.0", "does not tile"),
    ])
    def test_bad_clock_exit_2_before_output(self, tmp_path, capsys, workers,
                                            key, value, named):
        man = write_manifest(tmp_path / "m.txt", **{key: value})
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man), "--out", str(out),
                     "--workers", workers]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_every_cell_checked_before_output(self, tmp_path, capsys,
                                              workers):
        # the first alpha's cells are valid; the second alpha is not
        man = write_manifest(tmp_path / "m.txt", alphas="40,-1")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man), "--out", str(out),
                     "--workers", workers]) == 2
        assert "alpha must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_alpha_exit_2(self, tmp_path, capsys):
        man = write_manifest(tmp_path / "m.txt", alphas="40,2,40")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man),
                     "--out", str(out)]) == 2
        assert "alphas must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_levels_exit_2(self, tmp_path, capsys):
        man = write_manifest(tmp_path / "m.txt", levels="4,4")
        assert main(["converge", "--manifest", str(man),
                     "--out", str(tmp_path / "o")]) == 2
        assert "increasing" in capsys.readouterr().err

    def test_single_level_exit_2(self, tmp_path):
        man = write_manifest(tmp_path / "m.txt", levels="4")
        assert main(["converge", "--manifest", str(man),
                     "--out", str(tmp_path / "o")]) == 2

    def test_workers_capped_at_cell_count(self, tmp_path, monkeypatch):
        # the pool forks all max_workers processes at its first submit;
        # this stand-in records the count and maps in this process
        counts = []

        class SerialPool:
            def __init__(self, max_workers):
                counts.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        man = write_manifest(tmp_path / "m.txt", alphas="40")
        out_a, out_b = tmp_path / "serial", tmp_path / "pooled"
        assert main(["converge", "--manifest", str(man), "--out", str(out_a),
                     "--workers", "1"]) == 0
        assert counts == []
        assert main(["converge", "--manifest", str(man), "--out", str(out_b),
                     "--workers", "64"]) == 0
        assert counts == [2]  # one alpha at levels 3 and 4
        assert ((out_a / "convergence.csv").read_bytes()
                == (out_b / "convergence.csv").read_bytes())

    def test_pool_starts_finest_cells_first(self, tmp_path, monkeypatch):
        # this stand-in records the cells in the order they are mapped
        mapped = []

        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                mapped.extend(cells)
                return map(fn, cells)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        man = write_manifest(tmp_path / "m.txt", levels="2,3,4")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man), "--out", str(out),
                     "--workers", "2"]) == 0
        levels = [k for _, k in mapped]
        assert len(levels) == 6 and levels == sorted(levels, reverse=True)
        # the table keeps manifest order
        assert [row[:2] for row in read_csv(out / "convergence.csv")[1:]] == [
            [a, dx] for a in ("40", "2") for dx in ("2.5", "1.25", "0.625")]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("key, value", [
        ("alphas", "40,x"),
        ("levels", "4,5.5"),
        ("exclude_window", "1,b"),
        ("exclude_window", "5,1"),
        ("alphas", ""),
    ])
    def test_bad_list_value_names_its_key(self, tmp_path, capsys, workers,
                                          key, value):
        man = write_manifest(tmp_path / "m.txt", **{key: value})
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man), "--out", str(out),
                     "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        man = write_manifest(tmp_path / "m.txt")
        out = tmp_path / "sweep"
        assert main(["converge", "--manifest", str(man), "--out", str(out),
                     f"--workers={workers}"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["run", "converge"])
def test_out_naming_a_file_exit_2(tmp_path, capsys, command):
    source = (["--config", str(write_config(tmp_path / "c.txt"))]
              if command == "run"
              else ["--manifest", str(write_manifest(tmp_path / "m.txt"))])
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    assert main([command, *source, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == "a file, not a directory\n"


class TestCompare:
    def test_bore_comparison_row(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", alpha=0.5, t_end=3.0,
                           snapshot_times="3.0")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        assert main(["compare", str(out)]) == 0
        rows = read_csv(out / "compare.csv")
        assert rows[0][0] == "t"
        values = dict(zip(rows[0], [float(v) for v in rows[1]]))
        sol = sl.solve_swwe_dambreak(1.0, 1.8, 9.81, x0=50.0)
        assert values["h2"] == pytest.approx(sol.h2, rel=1e-12)
        assert values["x_S2"] == pytest.approx(sol.x_shock(3.0), rel=1e-12)

    def test_reads_the_t_end_snapshot(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", alpha=0.5, t_end=3.0,
                           snapshot_times="3.0")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        # a stray later snapshot is not the run that config.txt describes
        (out / "snapshot_99.csv").write_bytes(
            (out / "snapshot_3.csv").read_bytes())
        assert main(["compare", str(out)]) == 0
        rows = read_csv(out / "compare.csv")
        assert float(dict(zip(*rows))["t"]) == 3.0

    def test_missing_t_end_snapshot_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        (out / "snapshot_1.csv").unlink()
        assert main(["compare", str(out)]) == 2
        assert "snapshot_1.csv" in capsys.readouterr().err

    def test_still_basin_no_bore(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt", h1=1.0)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        main(["compare", str(out)])
        rows = read_csv(out / "compare.csv")
        assert rows[1] == ["no bore"]

    def test_missing_run_dir_exit_2(self, tmp_path):
        assert main(["compare", str(tmp_path / "nothing")]) == 2


class TestReference:
    def test_table_values(self, capsys):
        assert main(["reference", "--h0", "1", "--h1", "1.8",
                     "--t", "30"]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        values = dict(zip(header.split(","),
                          [float(v) for v in row.split(",")]))
        assert values["h2"] == pytest.approx(1.3689772648, abs=1e-9)
        assert values["S_plus"] == pytest.approx(4.1314853, abs=1e-6)
        assert values["x_S2"] < values["x_S_plus"]


class TestCsvRoundTrip:
    def test_float_format_preserves_doubles(self):
        rng = np.random.default_rng(3)
        for v in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(io.fmt(v)) == v

    def test_snapshot_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        x, h, u = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(
            -12, 12, (3, 7))
        io.write_snapshot(tmp_path / "s.csv",
                          sl.Snapshot(t=1.0, x=x, h=h, u=u))
        expected = "x,h,u\r\n" + "".join(
            "%.17g,%.17g,%.17g\r\n" % row for row in zip(x, h, u))
        assert (tmp_path / "s.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", [0, 1, io.SNAPSHOT_CHUNK,
                                   2 * io.SNAPSHOT_CHUNK + 5])
    def test_snapshot_bytes_match_savetxt(self, tmp_path, n):
        # special values, then random ones, over whole and partial chunks
        special = [-0.0, 0.0, 1e-310, -1e-310, 1e300, -1e300, 3.0, -42.0,
                   1e17, np.nan, np.inf, -np.inf, 0.1, 2.0 ** -1074]
        rng = np.random.default_rng(7)
        values = rng.standard_normal(3 * n) * 10.0 ** rng.integers(
            -300, 300, 3 * n)
        values[:min(len(special), 3 * n)] = special[:3 * n]
        x, h, u = values.reshape(3, n)
        io.write_snapshot(tmp_path / "s.csv",
                          sl.Snapshot(t=1.0, x=x, h=h, u=u))
        np.savetxt(tmp_path / "old.csv", np.column_stack((x, h, u)),
                   fmt="%.17g", delimiter=",", newline="\r\n",
                   header="x,h,u", comments="")
        assert ((tmp_path / "s.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_snapshot_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.txt")
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        state_cfg = sl.parse_config_file(out / "config.txt")
        snap = io.read_snapshot(out / "snapshot_1.csv", t=1.0)
        again = tmp_path / "again.csv"
        io.write_snapshot(again, snap)
        assert again.read_bytes() == (out / "snapshot_1.csv").read_bytes()
        assert snap.t == 1.0
        assert len(snap.x) == sl.Grid.from_config(state_cfg).n_cells
