"""Acceptance suite: one test per criterion, pinned tolerances.

Heavy simulation runs are shared through the cached helpers in _cases.
"""
import math

import numpy as np
import pytest

import serrelab as sl
from _cases import (SWWE, WHITHAM, collect, make_config, momentum_system,
                    run_case)


def test_criterion_1_swwe_constants():
    sol = sl.solve_swwe_dambreak(1.0, 1.8, 9.81)
    assert abs(sol.h2 - 1.36898) <= 1e-4
    assert abs(sol.u2 - 1.074975) <= 1e-5
    assert abs(sol.S2 - 3.98835) <= 1e-4
    # the full-precision shock path x0 + 30 S2 = 619.65182...; the pinned
    # 619.6505 +- 1e-3 target is only reachable from the rounded S2 above
    assert abs(sol.x_shock(30.0) - 619.6505) <= 1e-3, (
        f"x_S2(30) = {sol.x_shock(30.0):.5f}, pinned target 619.6505 +- 1e-3")


def test_criterion_2_whitham_prediction():
    pred = sl.whitham_leading_wave(1.0, 1.8, 9.81)
    assert abs(pred.h_b - 1.37082) <= 1e-4
    assert abs(pred.A_plus - 1.73998) <= 1e-4
    assert abs(pred.S_plus - 4.13148) <= 1e-4
    assert abs(pred.x_front(30.0) - 623.9444) <= 1e-3
    assert abs(pred.S_plus - math.sqrt(9.81 * pred.A_plus)) <= 1e-10


def test_criterion_3_quadrature_exactness():
    # degree <= 4 polynomial integrands reproduced to 1e-12 relative
    n = 64
    dx = 1.0 / n
    x = (np.arange(n) + 0.5) * dx
    for coeffs, exact in ((np.array([0, 0, 0, 0, 1.0]), 0.2),
                          (np.array([1.0, -2.0, 3.0, 0, 0]), 1.0),
                          (np.array([0.5, 0, 0, 4.0, 0]), 1.5)):
        h = np.polyval(coeffs[::-1], x)
        snap = sl.Snapshot(t=0.0, x=x, h=h, u=np.zeros(n))
        assert abs(sl.totals(snap)[0] - exact) <= 1e-12 * abs(exact)

    # corrected closed-form energy total vs quadrature of the alpha = 2 IC
    cfg = make_config(2.0, 6, 30.0)
    snap = sl.take_snapshot(sl.smoothed_dambreak_ic(cfg))
    _, _, c_ham = sl.analytic_totals(cfg)
    quad = sl.totals(snap, cfg.g)[2]
    assert abs(quad - c_ham) / abs(c_ham) <= 1e-8


def test_criterion_4_structure_regression():
    snaps, _ = run_case(40.0, 6, 30.0)
    assert sl.classify_structure(snaps[30.0], SWWE) == "S1"

    snaps, _ = run_case(2.0, 8, 30.0)
    assert sl.classify_structure(snaps[30.0], SWWE) == "S2"

    sol_mid = sl.solve_swwe_dambreak(1.0, 1.8, 9.81, x0=480.0)
    snaps, _ = run_case(0.4, 10, 3.0, domain=(400.0, 560.0))
    assert sl.classify_structure(snaps[3.0], sol_mid) in ("S3", "S4")

    snaps, _ = run_case(0.1, 10, 3.0, domain=(400.0, 560.0))
    assert sl.classify_structure(snaps[3.0], sol_mid) == "S4"


def test_criterion_5_convergence_trend():
    levels = (4, 5, 6, 7)
    for alpha in (40.0, 2.0):
        for scheme in ("D", "E"):
            finals = {k: run_case(alpha, k, 3.0, scheme=scheme)[0][3.0]
                      for k in levels}
            fine = finals[levels[-1]]
            l1 = {k: (sl.l1_difference(finals[k], fine, "h"),
                      sl.l1_difference(finals[k], fine, "u"))
                  for k in levels[:-1]}
            for qi, name in ((0, "h"), (1, "u")):
                seq = [l1[k][qi] for k in levels[:-1]]
                assert seq[0] > seq[1] > seq[2], (
                    f"L1_{name} not monotone for alpha={alpha} {scheme}: {seq}")
                for a, b in zip(seq, seq[1:]):
                    rate = math.log2(a / b)
                    assert rate >= 1.7, (
                        f"rate {rate:.2f} < 1.7 for alpha={alpha} "
                        f"scheme={scheme} {name}")

    snaps, cfg = run_case(40.0, 6, 30.0, scheme="E")
    totals_0 = sl.analytic_totals(cfg)
    c1_h, _, _ = sl.conservation_error(totals_0, snaps[30.0], cfg.g,
                                       sl.totals(snaps[30.0], cfg.g))
    assert c1_h <= 1e-9


def test_criterion_6_mean_bore():
    problems = []
    for h1 in (1.2, 1.5, 1.8):
        sol = sl.solve_swwe_dambreak(1.0, h1, 9.81, x0=500.0)
        try:
            snaps, _ = run_case(0.1, 6, 100.0, h1=h1)
        except sl.SolverError as exc:
            problems.append(f"h1={h1}: solver lost positivity before t=100 "
                            f"(step {exc.step}): {exc}")
            continue
        h_mean, u_mean, clipped = sl.bore_means(snaps[100.0], sol)
        assert not clipped
        if abs(h_mean - sol.h2) / sol.h2 > 0.05:
            problems.append(f"h1={h1}: h_mean {h_mean:.5f} vs h2 {sol.h2:.5f}")
        if abs(u_mean - sol.u2) / sol.u2 > 0.05:
            problems.append(f"h1={h1}: u_mean {u_mean:.5f} vs u2 {sol.u2:.5f}")
    assert not problems, "; ".join(problems)


def test_criterion_7_front_ordering():
    snaps, cfg = run_case(0.1, 8, 30.0, times=(3.0, 30.0))
    crest = sl.leading_wave(snaps[30.0], SWWE)
    assert crest is not None
    x_a, _ = crest
    x_s2 = SWWE.x_shock(30.0)
    x_sp = WHITHAM.x_front(30.0)
    assert x_s2 < x_a
    assert abs(x_a - x_sp) < abs(x_a - x_s2)


def test_criterion_8_property_suite():
    from serrelab.solvers import (mass_update_lax_wendroff, momentum_update,
                                  solve_tridiagonal)

    # lake at rest is a fixed point of both schemes over 1000 steps
    for scheme in ("D", "E"):
        cfg = sl.SimConfig(h0=1.4, h1=1.4, x0=50.0, alpha=2.0, domain_a=0.0,
                           domain_b=100.0, dx=1.25, t_end=1.0, scheme=scheme)
        state = sl.smoothed_dambreak_ic(cfg)
        for _ in range(1000):
            sl.step(state, cfg)
        assert np.abs(state.interior(state.h) - 1.4).max() <= 1e-12
        assert np.abs(state.interior(state.u)).max() <= 1e-12

    # Lax-Wendroff telescoping mass identity on an evolved bore state
    cfg = make_config(2.0, 4, 1.0, scheme="E")
    state = sl.smoothed_dambreak_ic(cfg)
    for _ in range(10):
        sl.step(state, cfg)
    ng = state.grid.ghost_layers
    # the solve leaves its velocities, with zero ghosts, in the workspace
    momentum_update(state, cfg)
    u_full = state.work.u_full
    h_next = mass_update_lax_wendroff(state, cfg)
    h, u, dx, dt = state.h, state.u, cfg.dx, cfg.dt
    lam = dt / (2.0 * dx)
    hf = 0.5 * (h[ng:-ng + 1] + h[ng - 1:-ng]) - lam * (
        u[ng:-ng + 1] * h[ng:-ng + 1] - h[ng - 1:-ng] * u[ng - 1:-ng])
    uf = 0.25 * (u_full[ng:-ng + 1] + u[ng:-ng + 1]
                 + u_full[ng - 1:-ng] + u[ng - 1:-ng])
    flux = uf * hf
    change = dx * (h_next - state.interior(state.h)).sum()
    assert abs(change + dt * (flux[-1] - flux[0])) <= 1e-12

    # tridiagonal residual on an evolved state
    cfg = make_config(2.0, 4, 1.0)
    state = sl.smoothed_dambreak_ic(cfg)
    for _ in range(25):
        sl.step(state, cfg)
    system = momentum_system(state, cfg)
    sub, diag, sup, rhs = system
    u_sol = solve_tridiagonal(*system.copy())
    resid = diag * u_sol
    resid[1:] += sub[1:] * u_sol[:-1]
    resid[:-1] += sup[:-1] * u_sol[1:]
    assert np.abs(resid - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)

    # bit-identical reruns
    cfg = make_config(2.0, 4, 1.0)
    results = []
    for _ in range(2):
        snapshots, _ = collect(sl.smoothed_dambreak_ic(cfg), cfg)
        results.append(snapshots[-1])
    assert np.array_equal(results[0].h, results[1].h)
    assert np.array_equal(results[0].u, results[1].u)
