"""The float CSV writers give the same bytes on both paths: the compiled
formatter (_format.cc) and Python's "%.17g" % v."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import serrelab as sl
from serrelab import io, solvers
from serrelab.cli import main
from test_cli import write_config

# %.17g's edge cases: signed zeros and infinities, a NaN with the sign bit
# set, subnormals, the switch to exponent notation at 1e17 and below 1e-4
# (with values that round up across it), and values past 2**53
EDGES = [0.0, -0.0, math.inf, -math.inf, -math.nan, 5e-324, 1e-310, 1e16,
         1e17, 99999999999999999.0, 9.9999999999999999e-5, 1e-5,
         2.0 ** 53 + 2, 1e22, 1e23]


def percent_body(block):
    """The CSV body of a 2-D block, one "%.17g" % v per field."""
    return "".join(",".join("%.17g" % v for v in row) + "\r\n"
                   for row in block.tolist()).encode()


def kernel_body(kernel, block):
    buf = np.empty(len(block) * (25 * block.shape[1] + 1), np.uint8)
    return bytes(solvers._format_with_kernel(kernel, block, buf))


def as_block(values, cols=3):
    """values, padded with zeros to whole rows of `cols`."""
    values = list(values) + [0.0] * (-len(values) % cols)
    return np.array(values, dtype=np.float64).reshape(-1, cols)


@pytest.fixture(params=["numpy", "kernel"])
def path(request, monkeypatch):
    """Run the test on the % path and on the kernel path."""
    chosen = None
    if request.param == "kernel":
        chosen = request.getfixturevalue("kernel")
    monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
    return request.param


class TestFormatter:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=60))
    def test_bit_patterns(self, kernel, patterns):
        # every exponent, both signs, and NaNs with every payload
        block = as_block(np.array(patterns, dtype=np.uint64).view(np.float64))
        assert kernel_body(kernel, block) == percent_body(block)
        assert io._format_percent(block) == percent_body(block)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=60), st.integers(1, 5))
    def test_floats(self, kernel, values, cols):
        block = as_block(values, cols)
        assert kernel_body(kernel, block) == percent_body(block)
        assert io._format_percent(block) == percent_body(block)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edges(self, kernel, sign):
        block = as_block([sign * v for v in EDGES])
        assert kernel_body(kernel, block) == percent_body(block)
        assert b"-nan" not in kernel_body(kernel, block)

    @pytest.mark.parametrize("shape, bad", [
        ((2, 3), "float32"), ((6,), "one-dimensional"), ((3, 2), "strided")])
    def test_unfit_blocks_rejected(self, kernel, shape, bad):
        block = {"float32": np.zeros(shape, np.float32),
                 "one-dimensional": np.zeros(shape),
                 "strided": np.zeros(shape).T}[bad]
        with pytest.raises(ValueError, match="float64"):
            solvers._format_with_kernel(kernel, block,
                                        np.empty(1000, np.uint8))


class TestWriters:
    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
    def test_snapshot_rows(self, tmp_path, path, n):
        values = np.random.default_rng(n).standard_normal(3 * n) * (
            10.0 ** np.random.default_rng(n + 1).integers(-300, 300, 3 * n))
        values[:min(3 * n, 2 * len(EDGES))] = (EDGES + [-v for v in EDGES]
                                               )[:3 * n]
        x, h, u = values.reshape(3, n)
        io.write_snapshot(tmp_path / "s.csv", sl.Snapshot(t=1.0, x=x, h=h,
                                                          u=u))
        expected = b"x,h,u\r\n" + percent_body(np.column_stack((x, h, u)))
        assert (tmp_path / "s.csv").read_bytes() == expected

    def test_snapshot_read_back_rewritten(self, tmp_path, path):
        rng = np.random.default_rng(11)
        x, h, u = rng.standard_normal((3, 5000)) * 10.0 ** rng.integers(
            -20, 20, (3, 5000))
        io.write_snapshot(tmp_path / "a.csv", sl.Snapshot(t=1.0, x=x, h=h,
                                                          u=u))
        snap = io.read_snapshot(tmp_path / "a.csv", t=1.0)
        assert not snap.x.flags.c_contiguous  # strided column views
        io.write_snapshot(tmp_path / "b.csv", snap)
        assert ((tmp_path / "b.csv").read_bytes()
                == (tmp_path / "a.csv").read_bytes())

    def test_step_report_is_csv_writer_bytes(self, tmp_path, path):
        rng = np.random.default_rng(5)
        n = 2 * io.SNAPSHOT_CHUNK + 3
        log = np.column_stack((np.arange(1.0, n + 1), 0.0125 * np.arange(
            1, n + 1), rng.uniform(0.5, 2.0, n), rng.exponential(1.0, n),
            rng.integers(0, 2, n)))
        log[:2, 2:4] = [[np.nan, np.inf], [-np.nan, 1e-310]]
        io.write_step_reports(tmp_path / "r.csv", log)
        # the bytes that csv.writer wrote for the log before
        header = ["step", "t", "min_h", "max_abs_u", "diag_dominant"]
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([io.fmt(v) for v in row] for row in log.tolist())
        assert ((tmp_path / "r.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_run_files_same_on_both_paths(self, tmp_path, kernel,
                                          monkeypatch):
        cfg = write_config(tmp_path / "c.txt", snapshot_times="0,0.5,1.0")
        files = []
        for chosen in (None, kernel):
            monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
            out = tmp_path / ("kernel" if chosen else "numpy")
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(files[0]) == sorted(files[1])
        assert len(files[0]) == 6
        assert files[0] == files[1]
