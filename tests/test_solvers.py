import math
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
import types
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import serrelab as sl
from serrelab import solvers
from serrelab.solvers import (mass_update_lax_wendroff, mass_update_leapfrog,
                              momentum_update, solve_tridiagonal)
from _cases import collect, make_config, momentum_system, run_case
from test_golden import CASES, GOLDEN, X86_64, agrees, run_golden_case

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def small_config(**kw):
    defaults = dict(h0=1.0, h1=1.8, x0=50.0, alpha=2.0, domain_a=0.0,
                    domain_b=100.0, dx=2.5, t_end=1.0, scheme="D")
    defaults.update(kw)
    return sl.SimConfig(**defaults)


def smooth_state(cfg, amp=0.01):
    """Rest-depth state carrying a small smooth velocity at both levels."""
    state = sl.smoothed_dambreak_ic(cfg)
    bump = amp * np.exp(-((state.grid.x_all - 50.0) / 10.0) ** 2)
    state.u[:] = bump
    state.u_prev[:] = bump
    sl.apply_dirichlet(state, cfg)
    return state


class TestMomentumUpdate:
    def test_lake_at_rest_velocity(self):
        cfg = small_config(h0=1.4, h1=1.4)
        state = sl.smoothed_dambreak_ic(cfg)
        u_next, dominant = momentum_update(state, cfg)
        assert dominant
        assert np.all(np.abs(u_next) < 1e-14)

    def test_tridiagonal_residual(self):
        cfg = small_config()
        state = smooth_state(cfg)
        system = momentum_system(state, cfg)
        sub, diag, sup, rhs = system
        u = solve_tridiagonal(*system.copy())
        resid = diag * u
        resid[1:] += sub[1:] * u[:-1]
        resid[:-1] += sup[:-1] * u[1:]
        scale = np.abs(rhs).max()
        assert np.abs(resid - rhs).max() <= 1e-12 * max(scale, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(5, 300), dx=st.floats(0.01, 10.0),
           dt_factor=st.floats(0.001, 0.1), seed=st.integers(0, 2 ** 32 - 1))
    def test_residual_across_parameters(self, kernel, n, dx, dt_factor,
                                        seed):
        # backward-stable elimination: max|Ax - b| <= 8 eps (max(|A||x|) +
        # max|b|) on both paths, on random states whose systems are mostly
        # not diagonally dominant, so that the solve pivots; the point
        # test's bound above, relative to max|b| alone, is not a property
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.1, 5.0, n + 4)
        u, u_prev = rng.uniform(-2.0, 2.0, (2, n + 4))
        eps = np.finfo(np.float64).eps
        for chosen in (None, kernel):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "_step_kernel", lambda: chosen)
                work = solvers.Workspace(n, 2)
                solvers.assemble_momentum_system(
                    h, u, u_prev, dx, dt_factor * dx, 9.81, 2, work)
                sub, diag, sup, rhs = system = np.array(
                    [work.sub, work.diag, work.sup, work.rhs])
                x = solve_tridiagonal(*system.copy())
            resid, size = diag * x - rhs, np.abs(diag * x)
            resid[1:] += sub[1:] * x[:-1]
            resid[:-1] += sup[:-1] * x[1:]
            size[1:] += np.abs(sub[1:] * x[:-1])
            size[:-1] += np.abs(sup[:-1] * x[1:])
            bound = 8 * eps * (size.max() + np.abs(rhs).max())
            assert np.abs(resid).max() <= bound, chosen

    def test_dense_matrix_oracle(self):
        # flat depth, small smooth velocity, one solve on a tiny grid
        cfg = small_config(h0=1.0, h1=1.0, dx=100.0 / 48)
        state = smooth_state(cfg)
        sub, diag, sup, rhs = momentum_system(state, cfg)
        dense = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        expected = np.linalg.solve(dense, rhs)
        got, _ = momentum_update(state, cfg)
        assert np.abs(got - expected).max() < 1e-12

    def test_diagonal_dominance_flag(self):
        cfg = small_config()
        _, dominant = momentum_update(sl.smoothed_dambreak_ic(cfg), cfg)
        assert dominant


class TestSolveTridiagonal:
    def test_singular_system_raises(self):
        # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: the first two rows are equal
        sub = np.array([0.0, 1.0, 0.0])
        diag = np.ones(3)
        sup = np.array([1.0, 0.0, 0.0])
        with pytest.raises(sl.SolverError, match="singular"):
            solve_tridiagonal(sub, diag, sup, np.array([1.0, 2.0, 3.0]))

    def test_singular_momentum_system_carries_step(self):
        # zero depth zeroes every entry of the momentum matrix, so the
        # bootstrap solve, before step 1, fails
        cfg = small_config()
        state = sl.smoothed_dambreak_ic(cfg)
        state.h[state.grid.interior] = 0.0
        with pytest.raises(sl.SolverError, match="singular") as err:
            collect(state, cfg)
        assert err.value.step == len(err.value.log) == 0


class TestMassUpdateLeapfrog:
    def test_stationary_fluid(self):
        cfg = small_config()
        state = sl.smoothed_dambreak_ic(cfg)
        h_next = mass_update_leapfrog(state, cfg)
        assert np.array_equal(h_next, state.interior(state.h_prev))

    def test_uniform_advection(self):
        cfg = small_config(h0=1.4, h1=1.4)
        state = sl.smoothed_dambreak_ic(cfg)
        state.u[:] = 0.7
        state.u_prev[:] = 0.7
        h_next = mass_update_leapfrog(state, cfg)
        assert np.abs(h_next - 1.4).max() < 1e-14

    def test_hand_computed_linear_profile(self):
        # h linear in x, u constant: update is h_prev - dt u (h_{i+1}-h_{i-1})/dx
        cfg = small_config(dx=100.0 / 8)
        state = sl.smoothed_dambreak_ic(cfg)
        slope = 0.01
        state.h[:] = 1.0 + slope * state.grid.x_all
        state.h_prev[:] = state.h
        state.u[:] = 0.5
        state.u_prev[:] = 0.5
        h_next = mass_update_leapfrog(state, cfg)
        expected = (state.interior(state.h_prev)
                    - cfg.dt * 0.5 * (2.0 * slope * cfg.dx) / cfg.dx)
        assert np.abs(h_next - expected).max() < 1e-14


class TestMassUpdateLaxWendroff:
    def test_zero_flux(self):
        # a fresh workspace's new velocities are zero, ghosts included
        cfg = small_config(scheme="E")
        state = sl.smoothed_dambreak_ic(cfg)
        h_next = mass_update_lax_wendroff(state, cfg)
        assert np.array_equal(h_next, state.interior(state.h))

    def test_telescoping_identity(self):
        cfg = small_config(scheme="E")
        state = smooth_state(cfg, amp=0.05)
        ng = state.grid.ghost_layers
        # the solve leaves its velocities in the workspace's u_full
        momentum_update(state, cfg)
        u_full = state.work.u_full
        h_next = mass_update_lax_wendroff(state, cfg)

        # recompute the two boundary face fluxes of the conservative form
        h, u, dx, dt = state.h, state.u, cfg.dx, cfg.dt
        lam = dt / (2.0 * dx)
        hf = 0.5 * (h[ng:-ng + 1] + h[ng - 1:-ng]) - lam * (
            u[ng:-ng + 1] * h[ng:-ng + 1] - h[ng - 1:-ng] * u[ng - 1:-ng])
        uf = 0.25 * (u_full[ng:-ng + 1] + u[ng:-ng + 1]
                     + u_full[ng - 1:-ng] + u[ng - 1:-ng])
        flux = uf * hf
        change = dx * (h_next - state.interior(state.h)).sum()
        assert abs(change + dt * (flux[-1] - flux[0])) <= 1e-12

    def test_extended_precision_transcription(self):
        # single step on a 16-cell sine perturbation against a straight
        # mpmath transcription of the three update formulas
        import mpmath
        mpmath.mp.dps = 40
        cfg = small_config(scheme="E", dx=100.0 / 16)
        state = sl.smoothed_dambreak_ic(cfg)
        xs = state.grid.x_all
        state.h[:] = 1.0 + 0.05 * np.sin(2.0 * np.pi * xs / 100.0)
        state.h_prev[:] = state.h
        state.u[:] = 0.02 * np.sin(2.0 * np.pi * xs / 100.0)
        state.u_prev[:] = state.u
        u_next = 0.02 * np.cos(2.0 * np.pi * xs / 100.0)
        solvers._workspace(state).u_full[:] = u_next
        h_next = mass_update_lax_wendroff(state, cfg)

        ng = state.grid.ghost_layers
        H = [mpmath.mpf(v) for v in state.h]
        U = [mpmath.mpf(v) for v in state.u]
        UN = [mpmath.mpf(v) for v in u_next]
        dx = mpmath.mpf(cfg.dx)
        dt = mpmath.mpf(cfg.dt)
        expected = []
        for i in range(ng, len(H) - ng):
            hr = (H[i + 1] + H[i]) / 2 - dt / (2 * dx) * (
                U[i + 1] * H[i + 1] - H[i] * U[i])
            hl = (H[i] + H[i - 1]) / 2 - dt / (2 * dx) * (
                U[i] * H[i] - H[i - 1] * U[i - 1])
            ur = (UN[i + 1] + U[i + 1] + UN[i] + U[i]) / 4
            ul = (UN[i] + U[i] + UN[i - 1] + U[i - 1]) / 4
            expected.append(H[i] - dt / dx * (ur * hr - ul * hl))
        diff = [abs(a - float(b)) for a, b in zip(h_next, expected)]
        assert max(diff) < 1e-15


class TestMassTelescoping:
    """Each mass update is a difference of face fluxes, so on any state
    dx sum(h_next - h_ref) + dt (F_right - F_left) vanishes to round-off."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_both_updates_telescope(self, n, seed):
        dx = 100.0 / n
        cfg = small_config(dx=dx, dt_factor=0.1, t_end=0.1 * dx)
        state = sl.smoothed_dambreak_ic(cfg)
        ng = state.grid.ghost_layers
        rng = np.random.default_rng(seed)
        for level in (state.h, state.h_prev):
            level[:] = rng.uniform(0.1, 5.0, state.grid.n_total)
        state.u[:] = rng.uniform(-5.0, 5.0, state.grid.n_total)
        u_full = solvers._workspace(state).u_full
        u_full[:] = rng.uniform(-5.0, 5.0, state.grid.n_total)
        h, u, dt = state.h, state.u, cfg.dt

        # D: face i + 1/2 carries u_i h_{i+1} + h_i u_{i+1}
        flux = u[:-1] * h[1:] + h[:-1] * u[1:]
        h_next = mass_update_leapfrog(state, cfg)
        change = dx * (h_next - state.interior(state.h_prev)).sum()
        residual = change + dt * (flux[ng + n - 1] - flux[ng - 1])
        assert abs(residual) <= 1e-12 * dx * np.abs(h_next).sum()

        # E: the Lax-Wendroff face fluxes of test_telescoping_identity
        lam = dt / (2.0 * dx)
        hf = 0.5 * (h[ng:-ng + 1] + h[ng - 1:-ng]) - lam * (
            u[ng:-ng + 1] * h[ng:-ng + 1] - h[ng - 1:-ng] * u[ng - 1:-ng])
        uf = 0.25 * (u_full[ng:-ng + 1] + u[ng:-ng + 1]
                     + u_full[ng - 1:-ng] + u[ng - 1:-ng])
        flux = uf * hf
        h_next = mass_update_lax_wendroff(state, cfg)
        change = dx * (h_next - state.interior(state.h)).sum()
        residual = change + dt * (flux[-1] - flux[0])
        assert abs(residual) <= 1e-12 * dx * np.abs(h_next).sum()


class TestStep:
    @pytest.mark.parametrize("scheme", ["D", "E"])
    def test_lake_at_rest_fixed_point(self, scheme):
        cfg = small_config(h0=1.4, h1=1.4, scheme=scheme, dx=1.25)
        state = sl.smoothed_dambreak_ic(cfg)
        for _ in range(1000):
            sl.step(state, cfg)
        assert np.abs(state.interior(state.h) - 1.4).max() <= 1e-12
        assert np.abs(state.interior(state.u)).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(depth=st.floats(0.2, 5.0), n=st.integers(5, 200),
           dt_factor=st.floats(0.001, 0.1), scheme=st.sampled_from("DE"))
    def test_lake_at_rest_across_parameters(self, depth, n, dt_factor,
                                            scheme):
        dx = 100.0 / n
        cfg = small_config(h0=depth, h1=depth, scheme=scheme, dx=dx,
                           dt_factor=dt_factor, t_end=50 * dt_factor * dx)
        state = sl.smoothed_dambreak_ic(cfg)
        for _ in range(50):
            sl.step(state, cfg)
        assert np.abs(state.interior(state.h) - depth).max() <= 1e-12
        assert np.abs(state.interior(state.u)).max() <= 1e-12

    def test_positivity_failure_raises(self):
        cfg = small_config(alpha=0.1, dt_factor=20.0, t_end=1000.0)
        assert cfg.dt == 50.0
        state = sl.smoothed_dambreak_ic(cfg)
        with pytest.raises(sl.SolverError, match="positivity") as err:
            # grossly oversized steps drive the depth negative within a few
            collect(state, cfg)
        assert err.value.step == len(err.value.log) == state.step
        assert 0 < err.value.step < cfg.n_steps

    @pytest.mark.parametrize("scheme", ["D", "E"])
    @pytest.mark.parametrize("path", ["numpy", "kernel"])
    def test_non_finite_velocity_leaves_state(self, kernel, monkeypatch,
                                              path, scheme):
        # a NaN depth poisons its rows of the momentum system, so the solve
        # returns NaN velocities: the step raises before it writes anything
        chosen = None if path == "numpy" else kernel
        monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
        cfg = small_config(scheme=scheme)
        state = sl.smoothed_dambreak_ic(cfg)
        sl.step(state, cfg)
        state.h[state.grid.ghost_layers + 12] = math.nan
        levels = ("h", "u", "h_prev", "u_prev")
        before = {name: getattr(state, name).copy() for name in levels}
        with pytest.raises(sl.SolverError,
                           match="^non-finite velocity after momentum "
                                 "solve$"):
            sl.step(state, cfg)
        for name in levels:
            assert np.array_equal(getattr(state, name).view(np.int64),
                                  before[name].view(np.int64)), name
        assert (state.step, state.t) == (1, cfg.dt)

    def test_determinism(self):
        cfg = small_config(t_end=1.0)
        finals = []
        for _ in range(2):
            snapshots, _ = collect(sl.smoothed_dambreak_ic(cfg), cfg)
            finals.append(snapshots[-1])
        assert np.array_equal(finals[0].h, finals[1].h)
        assert np.array_equal(finals[0].u, finals[1].u)

    def test_step_counter_time(self):
        cfg = small_config()
        state = sl.smoothed_dambreak_ic(cfg)
        for _ in range(7):
            row = sl.step(state, cfg)
        assert row[:2] == (7, 7 * cfg.dt)
        assert state.t == 7 * cfg.dt


class TestAllocation:
    @pytest.mark.parametrize("scheme", ["D", "E"])
    def test_steps_allocate_no_arrays(self, kernel, monkeypatch, scheme):
        # the compiled step (the numpy references allocate temporaries):
        # tracemalloc sees numpy's data buffers; after a warm-up step the
        # traced peak over 20 more steps grows by less than one array
        monkeypatch.setattr(solvers, "_step_kernel", lambda: kernel)
        cfg = make_config(2.0, 4, 1.0, scheme=scheme)
        state = sl.smoothed_dambreak_ic(cfg)
        n = state.grid.n_cells
        assert n == 1600
        tracemalloc.start()
        try:
            sl.step(state, cfg)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(20):
                sl.step(state, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * n

    def test_run_to_keeps_a_compact_log(self):
        # one step's log row is five float64s: 40 B, against the 224 B of
        # one object per step
        def kept(t_end):
            cfg = small_config(t_end=t_end)
            state = sl.smoothed_dambreak_ic(cfg)
            tracemalloc.start()
            try:
                result = collect(state, cfg)
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(result[1]) == cfg.n_steps
            return cfg.n_steps, size

        n_short, short = kept(10.0)
        n_long, long = kept(50.0)
        assert (long - short) / (n_long - n_short) <= 48


class TestRunTo:
    def test_step_count(self):
        cfg = small_config()
        state = sl.smoothed_dambreak_ic(cfg)
        _, log = collect(state, cfg)
        assert len(log) == round(1.0 / cfg.dt)
        assert state.t == pytest.approx(1.0, abs=1e-12)

    def test_partial_final_step_rejected(self):
        # dt = 0.025: 0.26 s is 10.4 steps
        with pytest.raises(sl.ConfigError, match="t_end = 0.26 .*dt = 0.025"):
            small_config(t_end=0.26)

    def test_whole_steps_only(self):
        # a 0.2 m step keeps all 400 steps of dt = 0.1 dx positive
        rng = np.random.default_rng(17)
        for _ in range(12):
            k = int(rng.integers(2, 7))
            dt_factor = float(rng.choice([0.005, 0.01, 0.1]))
            n = int(rng.integers(1, 401))
            f = rng.uniform(0.01, 0.99)
            marks = sorted({int(m) for m in rng.integers(0, n + 1, 3)})
            dx = 10.0 / 2 ** k
            dt = dt_factor * dx

            def config(t_end, times):
                return small_config(h1=1.2, x0=10.0, domain_b=20.0, dx=dx,
                                    dt_factor=dt_factor, t_end=t_end,
                                    snapshot_times=times)

            times = [m * dt for m in marks]
            with pytest.raises(sl.ConfigError, match="t_end"):
                config((n + f) * dt, times)
            for stray in ((marks[0] + f) * dt, -dt, (n + 1) * dt):
                with pytest.raises(sl.ConfigError, match="snapshot_times"):
                    config(n * dt, times + [stray])
            cfg = config(n * dt, times)
            assert cfg.n_cells == 2 ** (k + 1)  # 20 m of dx = 10 / 2^k
            assert cfg.n_steps == n
            assert cfg.snapshot_steps == set(marks) | {n}
            state = sl.smoothed_dambreak_ic(cfg)
            snapshots, log = collect(state, cfg)
            assert len(log) == state.step == n
            assert list(log[:, 0]) == list(range(1, n + 1))
            assert state.t == n * dt
            assert [s.t for s in snapshots] == [
                m * dt for m in sorted(set(marks) | {n})]

    def test_snapshot_times(self):
        cfg = small_config(snapshot_times=(0.5, 1.0))
        state = sl.smoothed_dambreak_ic(cfg)
        snapshots, _ = collect(state, cfg)
        assert [s.t for s in snapshots] == pytest.approx([0.5, 1.0])

    def test_sink_takes_each_snapshot_as_it_is_taken(self):
        cfg = small_config(snapshot_times=(0.0, 0.5, 0.75))
        state = sl.smoothed_dambreak_ic(cfg)
        taken = []

        def sink(snap):
            taken.append((snap, state.step))

        sl.run_to(state, cfg, sink)
        # each one before the next step, in time order
        assert [step for _, step in taken] == [0, 20, 30, 40]
        assert [s.t for s, _ in taken] == [
            step * cfg.dt for step in (0, 20, 30, 40)]

    def test_failure_carries_last_snapshot(self):
        cfg = small_config(alpha=0.01, dx=12.5, dt_factor=2.0, t_end=1000.0,
                           snapshot_times=(0.0,))
        state = sl.smoothed_dambreak_ic(cfg)
        taken = []
        with pytest.raises(sl.SolverError) as err:
            sl.run_to(state, cfg, taken.append)
        # the sink had the t = 0 snapshot before the error was raised
        assert [s.t for s in taken] == [0.0]
        assert list(err.value.log[:, 0]) == list(
            range(1, err.value.step + 1))

    def test_snapshots_share_read_only_x(self):
        cfg = small_config(snapshot_times=(0.5, 1.0))
        state = sl.smoothed_dambreak_ic(cfg)
        first, second = collect(state, cfg)[0]
        assert first.x is second.x is state.grid.x
        assert not first.x.flags.writeable


class TestGhostCells:
    @pytest.mark.parametrize("path", ["numpy", "kernel"])
    def test_new_velocity_ghosts_stay_positive_zero(self, kernel,
                                                    monkeypatch, path):
        # mass_update_lax_wendroff reads the ghosts of the workspace's
        # u_full as the walls' zero velocities: +0.0, bit for bit
        chosen = None if path == "numpy" else kernel
        monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
        cfg = small_config(scheme="E")
        state = sl.smoothed_dambreak_ic(cfg)
        for _ in range(50):
            sl.step(state, cfg)
        ng = state.grid.ghost_layers
        u_full = state.work.u_full
        ghosts = np.concatenate((u_full[:ng], u_full[-ng:]))
        assert len(ghosts) == 4
        assert ghosts.tobytes() == bytes(8 * 4)
        assert np.abs(u_full[ng:-ng]).max() > 0.0

    @pytest.mark.parametrize("scheme", ["D", "E"])
    @pytest.mark.parametrize("t_end", [2.0])
    def test_ghosts_hold_dirichlet_data(self, scheme, t_end):
        # a 20 m basin: both waves reach the walls well before t_end, so
        # the cells beside the ghosts move while the ghosts must not
        cfg = small_config(scheme=scheme, x0=10.0, domain_b=20.0,
                           dx=0.3125, t_end=t_end)
        state = sl.smoothed_dambreak_ic(cfg)
        collect(state, cfg)
        ng = state.grid.ghost_layers
        for arr, left, right in ((state.h, 1.8, 1.0),
                                 (state.h_prev, 1.8, 1.0),
                                 (state.u, 0.0, 0.0),
                                 (state.u_prev, 0.0, 0.0)):
            assert np.all(arr[:ng] == left) and np.all(arr[-ng:] == right)
        assert state.h[ng] != 1.8 and state.h[-ng - 1] != 1.0


class TestSchemeAgreement:
    def test_smooth_case_profiles_close(self):
        # the two schemes agree closely on the smooth alpha = 40 problem
        snaps_d, _ = run_case(40.0, 6, 30.0, scheme="D")
        snaps_e, _ = run_case(40.0, 6, 30.0, scheme="E")
        l1 = sl.l1_difference(snaps_d[30.0], snaps_e[30.0], "h")
        assert l1 <= 1e-3


def subprocess_env(**extra):
    """os.environ with src first on PYTHONPATH, plus `extra`."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    return env


def both_assemblies(kernel, h, u, u_prev, dx, dt):
    """(numpy Workspace, numpy flag, kernel Workspace, kernel flag)."""
    n, ng = len(h) - 4, 2
    expected, got = solvers.Workspace(n, ng), solvers.Workspace(n, ng)
    flag = solvers._assemble_numpy(h, u, u_prev, dx, dt, 9.81, ng, expected)
    got_flag = solvers._assemble_with_kernel(kernel, h, u, u_prev, dx, dt,
                                             9.81, ng, got)
    return expected, flag, got, got_flag


ROWS = ("sub", "diag", "sup", "rhs")


def cells(length, lo, hi):
    """Strategy for an array of `length` cells with values in [lo, hi]."""
    return arrays(np.float64, length, elements=st.floats(lo, hi))


def signed_cells(length, hi):
    """Strategy for an array of `length` cells of either sign, with
    magnitudes in {0} and [1e-100, hi]: on such data no intermediate of
    the kernel leaves the normal range, so that the x86-64 kernel's flush
    of subnormals never acts (TestFlush tests that range)."""
    return arrays(np.float64, length, elements=(
        st.sampled_from([0.0, -0.0]) | st.floats(1e-100, hi)
        | st.floats(-hi, -1e-100)))


class TestAssemblyKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 300),
           dx=st.floats(0.01, 10.0), dt=st.floats(1e-4, 50.0))
    def test_matches_numpy_bit_for_bit(self, kernel, data, n, dx, dt):
        # n from 1 to 300 reaches every length of the vector tail
        h = data.draw(cells(n + 4, 0.01, 10.0))
        u = data.draw(signed_cells(n + 4, 10.0))
        u_prev = data.draw(signed_cells(n + 4, 10.0))
        expected, flag, got, got_flag = both_assemblies(
            kernel, h, u, u_prev, dx, dt)
        assert got_flag == flag
        for row in ROWS:
            assert np.array_equal(getattr(got, row).view(np.int64),
                                  getattr(expected, row).view(np.int64)), row

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 300), data=st.data())
    def test_nan_depth_clears_the_flag(self, kernel, n, data):
        x = np.linspace(0.0, 1.0, n + 4)
        h, u, u_prev = 1.0 + 0.1 * x, 0.01 * x, 0.02 * x
        # the depth stencil reaches one ghost cell on each side
        h[data.draw(st.integers(1, n + 2))] = np.nan
        expected, flag, got, got_flag = both_assemblies(
            kernel, h, u, u_prev, 0.5, 0.005)
        assert not flag and not got_flag
        for row in ROWS:
            assert np.array_equal(getattr(got, row), getattr(expected, row),
                                  equal_nan=True), row

    @pytest.mark.parametrize("bad", ["float32", "strided", "short"])
    def test_unfit_arrays_rejected(self, kernel, bad):
        n = 9
        h = np.ones(n + 4)
        u = {"float32": np.zeros(n + 4, dtype=np.float32),
             "strided": np.zeros(2 * (n + 4))[::2],
             "short": np.zeros(n + 3)}[bad]
        with pytest.raises(ValueError, match="float64"):
            solvers._assemble_with_kernel(kernel, h, u, h, 1.0, 0.01, 9.81,
                                          2, solvers.Workspace(n, 2))

    @pytest.mark.parametrize("path", ["numpy", "kernel"])
    def test_golden_on_either_path(self, kernel, monkeypatch, path):
        import scipy.linalg.lapack
        calls = {"assemble": 0, "dgtsv": 0, "leapfrog": 0, "lax_wendroff": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        chosen = None if path == "numpy" else kernel
        monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
        for module, attr, name in (
                (solvers, "_assemble_numpy", "assemble"),
                (scipy.linalg.lapack, "dgtsv", "dgtsv"),
                (solvers, "_leapfrog_numpy", "leapfrog"),
                (solvers, "_lax_wendroff_numpy", "lax_wendroff")):
            monkeypatch.setattr(module, attr,
                                counted(name, getattr(module, attr)))
        # the numpy path keeps the subnormal velocities that the x86-64
        # kernel flushes: at alpha = 0.4 its u is bounded, not bit-equal
        with np.load(GOLDEN) as golden:
            for alpha, scheme in CASES:
                for name, value in run_golden_case(alpha, scheme).items():
                    assert agrees(golden, alpha, scheme, name, value), name
        if path == "numpy":
            assert all(calls.values()), calls
        else:
            assert not any(calls.values()), calls

    def test_source_is_package_data(self):
        for name, functions in (
                ("_step.c", ("int assemble_momentum(", "ptrdiff_t gtsv(",
                             "void mass_leapfrog(",
                             "void mass_lax_wendroff(")),
                ("_format.cc", ('extern "C" ptrdiff_t format_rows(',))):
            source = resources.files("serrelab").joinpath(name).read_text()
            for function in functions:
                assert function in source, name


def both_solves(kernel, system):
    """((x, info) of SciPy's dgtsv, (x, info) of the kernel) on copies."""
    return (solvers._gtsv_lapack(*system.copy()),
            solvers._gtsv_with_kernel(kernel, *system.copy()))


def solve_error(chosen, system):
    """The SolverError text of solve_tridiagonal on one path, or None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_step_kernel", lambda: chosen)
        try:
            solve_tridiagonal(*system.copy())
        except sl.SolverError as exc:
            return str(exc)
    return None


def random_system(n, seed):
    """A system of n rows with entries of either sign and magnitudes
    0.01-10, spread over binades; a seeded generator fills the 4 n
    entries far faster than hypothesis draws them one by one."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], (4, n)) * np.exp(
        rng.uniform(math.log(0.01), math.log(10.0), (4, n)))


class TestSolveKernel:
    """The C dgtsv against SciPy's: SciPy refuses n = 1, so the solve
    draws n = 2-300 and one row is checked by hand."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2 ** 32),
           dominant=st.booleans())
    def test_finite_systems_bit_for_bit(self, kernel, n, seed, dominant):
        system = random_system(n, seed)
        if dominant:
            # |diag| > 20 >= |sub| + |sup|: no row is interchanged
            system[1] += np.copysign(20.0, system[1])
        (x, info), (y, got_info) = both_solves(kernel, system)
        assert got_info == info
        assert np.array_equal(y.view(np.int64), x.view(np.int64))
        assert solve_error(kernel, system) == solve_error(None, system)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 40))
    def test_singular_systems_same_info_and_error(self, kernel, data, n):
        # few distinct values, zeros among them: many exact zero pivots;
        # every entry is drawn on its own (no fill value)
        system = data.draw(arrays(
            np.float64, (4, n), fill=st.nothing(),
            elements=st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5])))
        (x, info), (y, got_info) = both_solves(kernel, system)
        assert got_info == info
        assert np.array_equal(y.view(np.int64), x.view(np.int64))
        assert solve_error(kernel, system) == solve_error(None, system)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 300),
           seed=st.integers(0, 2 ** 32))
    def test_non_finite_systems_same_info(self, kernel, data, n, seed):
        system = random_system(n, seed)
        spots = data.draw(st.lists(st.tuples(
            st.integers(0, 3), st.integers(0, n - 1),
            st.sampled_from([np.nan, np.inf, -np.inf])), min_size=1,
            max_size=3))
        for row, col, value in spots:
            system[row, col] = value
        (x, info), (y, got_info) = both_solves(kernel, system)
        assert got_info == info
        assert np.array_equal(y, x, equal_nan=True)

    @pytest.mark.parametrize("diag, info", [(4.0, 0), (0.0, 1)])
    def test_one_row(self, kernel, diag, info):
        system = np.array([[7.0], [diag], [5.0], [3.0]])
        x, got_info = solvers._gtsv_with_kernel(kernel, *system)
        assert got_info == info
        if info == 0:
            assert x[0] == 3.0 / 4.0

    def test_solves_in_place_on_both_paths(self, kernel, monkeypatch):
        system = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 9))
        solutions = []
        for chosen in (None, kernel):
            monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
            rows = list(system.copy())
            assert solve_tridiagonal(*rows) is rows[3]
            solutions.append(rows[3])
        assert np.array_equal(*solutions)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_refused_on_both_paths(self, kernel,
                                                       monkeypatch, n):
        for chosen in (None, kernel):
            monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
            with pytest.raises(ValueError, match="at least 2 rows"):
                solve_tridiagonal(*np.ones((4, n)))


class TestMassUpdateKernel:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 300),
           dx=st.floats(0.01, 10.0), dt=st.floats(1e-4, 50.0))
    def test_both_updates_bit_for_bit(self, kernel, data, n, dx, dt):
        h, h_prev = data.draw(cells(n + 4, 0.01, 10.0)), data.draw(
            cells(n + 4, 0.01, 10.0))
        u, u_next = data.draw(signed_cells(n + 4, 10.0)), data.draw(
            signed_cells(n + 4, 10.0))
        expected, got = solvers.Workspace(n, 2), solvers.Workspace(n, 2)
        for numpy_update, function, third in (
                (solvers._leapfrog_numpy, kernel.mass_leapfrog, h_prev),
                (solvers._lax_wendroff_numpy, kernel.mass_lax_wendroff,
                 u_next)):
            want = numpy_update(h, u, third, dx, dt, 2, expected)
            have = solvers._mass_with_kernel(function, h, u, third, dx, dt,
                                             2, got)
            assert np.array_equal(have.view(np.int64),
                                  want.view(np.int64)), numpy_update


def subnormal(a):
    """Where a holds a subnormal (nonzero, below the smallest normal)."""
    return (a != 0.0) & (np.abs(a) < np.finfo(np.float64).tiny)


def flush(a):
    """a with each subnormal replaced by a zero of its sign."""
    return np.where(subnormal(a), np.copysign(0.0, a), a)


def underflowing(rng, shape):
    """Values of either sign, half of them of order one and the rest
    spread over 1e-320 to 1e-290: about a fifth, and at least one, are
    subnormal, and many products and differences underflow."""
    tiny = 10.0 ** rng.uniform(-320.0, -290.0, shape)
    ordinary = np.exp(rng.uniform(-1.0, 1.0, shape))
    values = rng.choice([-1.0, 1.0], shape) * np.where(
        rng.random(shape) < 0.5, ordinary, tiny)
    values.flat[rng.integers(values.size)] = rng.choice([-1e-310, 1e-310])
    return values


def kernel_outputs(kernel, cells, system):
    """What the four kernel entry points write, on cells (3, n + 4) as
    h, u and a third level (u_prev, h_prev, the new velocity) and on a
    tridiagonal system (4, n): ({name: array}, (dominant, info))."""
    h, u, w = cells
    n = len(h) - 4
    work = solvers.Workspace(n, 2)
    dominant = solvers._assemble_with_kernel(kernel, h, u, w, 0.3, 0.7,
                                             9.81, 2, work)
    out = {row: getattr(work, row).copy() for row in ROWS}
    x, info = solvers._gtsv_with_kernel(kernel, *system.copy())
    out["x"] = x
    for name, function in (("leapfrog", kernel.mass_leapfrog),
                           ("lax_wendroff", kernel.mass_lax_wendroff)):
        out[name] = solvers._mass_with_kernel(function, h, u, w, 0.3, 0.7,
                                              2, work).copy()
    return out, (dominant, info)


def keeps_gradual_underflow():
    """Whether this thread's arithmetic still keeps subnormals: neither
    flush-to-zero nor denormals-are-zero is set.  Bits are compared, since
    under denormals-are-zero 0.0 == 5e-324 holds."""
    return (np.float64(5e-324) * 1.0).tobytes() == np.float64(
        5e-324).tobytes()


@pytest.mark.skipif(not X86_64, reason="the kernel flushes on x86-64 only")
class TestFlush:
    """The x86-64 kernel runs with flush-to-zero (FTZ) and
    denormals-are-zero (DAZ) set, and only inside its calls."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    def test_subnormal_inputs_read_as_signed_zeros(self, kernel, n, seed):
        # DAZ: a subnormal input gives the bits of a zero of its sign
        rng = np.random.default_rng(seed)
        cells, system = underflowing(rng, (3, n + 4)), underflowing(
            rng, (4, n))
        out, scalars = kernel_outputs(kernel, cells, system)
        zeroed, zeroed_scalars = kernel_outputs(kernel, flush(cells),
                                                flush(system))
        assert scalars == zeroed_scalars
        for name, value in out.items():
            # a singular solve leaves the rows after its zero pivot as they
            # came in, subnormals included; flush() zeroes those copies
            assert np.array_equal(flush(value).view(np.int64),
                                  zeroed[name].view(np.int64)), name

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32))
    def test_no_output_is_subnormal(self, kernel, n, seed):
        # FTZ: a result that would be subnormal is written as a zero
        rng = np.random.default_rng(seed)
        out, (_, info) = kernel_outputs(kernel, underflowing(rng, (3, n + 4)),
                                        underflowing(rng, (4, n)))
        if info != 0:
            del out["x"]  # rows left as they came in
        for name, value in out.items():
            assert not subnormal(value).any(), name

    def test_golden_steep_cases_underflow_on_numpy_path_only(
            self, kernel, monkeypatch):
        # the documented divergence of the two paths
        for chosen, underflows in ((kernel, False), (None, True)):
            monkeypatch.setattr(solvers, "_step_kernel", lambda: chosen)
            for scheme in "DE":
                u = run_golden_case(0.4, scheme)["u"]
                assert subnormal(u).any() == underflows, (chosen, scheme)

    def test_mode_never_leaks(self, kernel, monkeypatch):
        rng = np.random.default_rng(5)
        h, u, w = underflowing(rng, (3, 13))
        work = solvers.Workspace(9, 2)
        system = random_system(9, 5)
        system[3] = underflowing(rng, 9)  # a solution that underflows
        singular = np.zeros((4, 9))
        singular[1] = 1.0
        singular[1, 4] = 0.0  # a zero pivot: info = 5
        calls = {
            "assemble": lambda: solvers._assemble_with_kernel(
                kernel, h, u, w, 0.3, 0.7, 9.81, 2, work),
            "solve": lambda: solvers._gtsv_with_kernel(kernel, *system),
            "singular solve": lambda: solvers._gtsv_with_kernel(
                kernel, *singular),
            "leapfrog": lambda: solvers._mass_with_kernel(
                kernel.mass_leapfrog, h, u, w, 0.3, 0.7, 2, work),
            "lax_wendroff": lambda: solvers._mass_with_kernel(
                kernel.mass_lax_wendroff, h, u, w, 0.3, 0.7, 2, work),
        }
        assert keeps_gradual_underflow()
        results = {}
        for name, call in calls.items():
            results[name] = call()
            assert keeps_gradual_underflow(), name
        assert [results[name][1] for name in ("solve", "singular solve")
                ] == [0, 5]
        # a NaN depth gives NaN velocities, and the step raises
        monkeypatch.setattr(solvers, "_step_kernel", lambda: kernel)
        cfg = small_config()
        state = sl.smoothed_dambreak_ic(cfg)
        state.h[state.grid.ghost_layers + 12] = math.nan
        with pytest.raises(sl.SolverError, match="non-finite velocity"):
            sl.step(state, cfg)
        assert keeps_gradual_underflow()


def variant_refused(cache, tmp_path, monkeypatch, name, original, variant):
    """Whether a kernel whose source `name` has `original` replaced by
    `variant` builds, fails the self-check and leaves nothing in the
    cache."""
    package = resources.files("serrelab")
    sources = {source: package.joinpath(source).read_text()
               for source in solvers._KERNEL_SOURCES}
    assert sources[name].count(original) == 1
    sources[name] = sources[name].replace(original, variant)
    directory = tmp_path / "variant"
    directory.mkdir()
    for source, text in sources.items():
        (directory / source).write_text(text)
    monkeypatch.setattr(solvers, "resources",
                        types.SimpleNamespace(files=lambda _: directory))
    checks = []
    agrees = solvers._kernel_agrees
    monkeypatch.setattr(solvers, "_kernel_agrees",
                        lambda kernel: checks.append(agrees(kernel)))
    return (solvers._load_kernel() is None and checks == [False]
            and list(cache.iterdir()) == [])


@pytest.mark.skipif(shutil.which("c++") is None, reason="no c++ on PATH")
class TestKernelBuild:
    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        return tmp_path / "serrelab"

    def test_missing_compiler_falls_back_silently(self, cache, monkeypatch,
                                                  capfd):
        # cc alone builds no kernel: _format.cc needs a C++ compiler
        which = shutil.which
        monkeypatch.setattr(solvers.shutil, "which", lambda name: (
            None if name == "c++" else which(name)))
        assert solvers._load_kernel() is None
        assert capfd.readouterr() == ("", "")
        assert not cache.exists()

    def test_cold_cache_filled_by_one_build(self, cache, monkeypatch):
        runs = []
        run = subprocess.run

        def counted(*args, **kwargs):
            runs.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(solvers.subprocess, "run", counted)
        kernel = solvers._load_kernel()
        assert kernel is not None
        assert len(runs) == 1
        assert [p.suffix for p in cache.iterdir()] == [".so"]
        # the kernel names the cached file, not its temporary build name
        assert kernel._name == str(next(cache.iterdir()))
        assert os.path.exists(kernel._name)

    def test_cache_hit_starts_no_process(self, cache, monkeypatch):
        assert solvers._load_kernel() is not None

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit started a process")

        monkeypatch.setattr(solvers.subprocess, "run", refuse)
        kernel = solvers._load_kernel()
        assert kernel is not None and solvers._kernel_agrees(kernel)

    def test_mismatch_is_not_cached(self, cache, monkeypatch):
        monkeypatch.setattr(solvers, "_kernel_agrees", lambda kernel: False)
        assert solvers._load_kernel() is None
        assert list(cache.iterdir()) == []

    def test_unwritable_cache_falls_back(self, tmp_path, monkeypatch):
        # a plain file where the cache directory should be
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        assert solvers._load_kernel() is None

    # one reordered operation in each of the solve and the mass updates
    @pytest.mark.parametrize("original, reordered", [
        ("(b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2])",
         "(b[i] - (du[i] * b[i + 1] + dl[i] * b[i + 2]))"),
        ("(h[i + 1] - h[i - 1]) * u[i] / dx",
         "(h[i + 1] - h[i - 1]) * (u[i] / dx)"),
        ("(u_next[i] + u_r + u_next[i - 1] + u_l)",
         "(u_next[i] + u_next[i - 1] + u_r + u_l)"),
    ])
    def test_reordered_kernel_refused(self, cache, tmp_path, monkeypatch,
                                      original, reordered):
        assert variant_refused(cache, tmp_path, monkeypatch, "_step.c",
                               original, reordered)

    # a formatter one digit short, one that prints "-nan" and one that
    # ends rows with LF
    @pytest.mark.parametrize("original, variant", [
        ("std::chars_format::general, 17)", "std::chars_format::general, 16)"),
        ("if (std::isnan(v))\n                v = std::fabs(v);", ""),
        ('? "," : "\\r\\n";', '? "," : "\\n";'),
    ], ids=["precision-16", "signed-nan", "lf"])
    def test_format_variant_refused(self, cache, tmp_path, monkeypatch,
                                    original, variant):
        assert variant_refused(cache, tmp_path, monkeypatch, "_format.cc",
                               original, variant)

    def test_format_overflow_refused(self, kernel):
        block = np.array([[-2.2250738585072014e-308, 0.1, -1e-5]] * 5)
        full = bytes(solvers._format_with_kernel(
            kernel, block, np.empty(5 * 76, np.uint8)))
        for cap in (0, 1, len(full) // 2, len(full) - 2, len(full) - 1):
            buf = np.full(len(full) + 8, 0xAB, np.uint8)
            assert kernel.format_rows(block.ctypes.data, *block.shape,
                                      buf.ctypes.data, cap) == -1
            assert np.all(buf[cap:] == 0xAB), cap
            with pytest.raises(ValueError, match="do not fit"):
                solvers._format_with_kernel(kernel, block, buf[:cap])
        buf = np.empty(len(full), np.uint8)
        assert bytes(solvers._format_with_kernel(kernel, block, buf)) == full

    def test_kernel_path_never_loads_scipy(self, kernel, kernel_cache):
        # the cache is warm, so no build (and no self-check) runs
        code = textwrap.dedent("""\
            import sys
            import numpy as np
            import serrelab.cli
            from serrelab import solvers
            if sys.argv[1] == "numpy":
                solvers._step_kernel = lambda: None
            from test_golden import GOLDEN, agrees, run_golden_case
            with np.load(GOLDEN) as golden:
                same = all(
                    agrees(golden, alpha, scheme, name, value)
                    for alpha, scheme in ((0.4, "D"), (0.4, "E"))
                    for name, value in run_golden_case(alpha, scheme).items())
            print(same, solvers._step_kernel() is not None,
                  "scipy" in sys.modules)
            """)
        env = subprocess_env(XDG_CACHE_HOME=str(kernel_cache))
        env["PYTHONPATH"] += os.pathsep + os.path.dirname(__file__)
        outs = [subprocess.run([sys.executable, "-c", code, path], env=env,
                               capture_output=True, text=True, timeout=300)
                for path in ("kernel", "numpy")]
        assert [done.stderr for done in outs] == ["", ""]
        assert [done.stdout for done in outs] == ["True True False\n",
                                                  "True False True\n"]

    def test_concurrent_cold_builds(self, cache):
        env = subprocess_env()
        code = ("from serrelab import solvers\n"
                "kernel = solvers._load_kernel()\n"
                "print(kernel is not None and solvers._kernel_agrees(kernel))")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120)[0] for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        assert outs == ["True\n", "True\n"]
        assert [p.suffix for p in cache.iterdir()] == [".so"]
