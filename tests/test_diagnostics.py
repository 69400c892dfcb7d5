import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial

import serrelab as sl
from serrelab import diagnostics
from serrelab.diagnostics import (_GAUSS_NODES, _GAUSS_WEIGHTS, _SLOPE,
                                  _VALUE, _extrema_indices, _gauss_samples)
from _cases import SWWE, collect, make_config, run_case


def snapshot_on(a, b, n, h_fn, u_fn, t=0.0):
    dx = (b - a) / n
    x = a + (np.arange(n) + 0.5) * dx
    return sl.Snapshot(t=t, x=x, h=h_fn(x), u=u_fn(x))


class TestTotalQuantity:
    def test_constant_depth(self):
        snap = snapshot_on(0.0, 10.0, 40, lambda x: np.full_like(x, 1.4),
                           lambda x: np.zeros_like(x))
        assert sl.totals(snap)[0] == pytest.approx(14.0, rel=1e-13)

    def test_quartic_exact(self):
        snap = snapshot_on(0.0, 1.0, 50, lambda x: x ** 4,
                           lambda x: np.zeros_like(x))
        assert sl.totals(snap)[0] == pytest.approx(0.2, rel=1e-12)

    def test_product_polynomial_exact(self):
        # h and u quadratic: the uh integrand is quartic, still exact
        snap = snapshot_on(0.0, 1.0, 50, lambda x: 1.0 + x ** 2,
                           lambda x: x ** 2)
        exact = 1.0 / 3.0 + 1.0 / 5.0
        assert sl.totals(snap)[1] == pytest.approx(exact, rel=1e-12)

    def test_energy_of_still_water(self):
        snap = snapshot_on(0.0, 10.0, 40, lambda x: np.full_like(x, 2.0),
                           lambda x: np.zeros_like(x))
        assert sl.totals(snap, g=9.81)[2] == pytest.approx(
            0.5 * 9.81 * 4.0 * 10.0, rel=1e-13)

    def test_energy_includes_shear_term(self):
        # linear u on constant h: H = (hu^2 + (h^3/3) + g h^2) / 2 with u_x = 1
        snap = snapshot_on(0.0, 1.0, 50, lambda x: np.ones_like(x),
                           lambda x: x)
        exact = 0.5 * (1.0 / 3.0 + 1.0 / 3.0 + 9.81)
        assert sl.totals(snap, g=9.81)[2] == pytest.approx(
            exact, rel=1e-12)

    def test_too_few_cells_rejected(self):
        snap = snapshot_on(0.0, 1.0, 4, lambda x: np.ones_like(x),
                           lambda x: np.zeros_like(x))
        with pytest.raises(ValueError):
            sl.totals(snap)


def integral_01(coefficients):
    """The integral over [0, 1] of the polynomial with these (float)
    coefficients, lowest power first, summed exactly."""
    return float(sum(Fraction(float(c)) / (k + 1)
                     for k, c in enumerate(coefficients)))


class TestQuadratureExactness:
    """totals is exact on what its quartic interpolants and 3-point Gauss
    rule reproduce, on any grid, TOTALS_CHUNK crossed or not.  Left is
    the round-off of n sampled values summed cell by cell: a relative
    error of at most 4 n eps (1.4 n eps at worst in 4 000 probe draws).
    Coefficients are non-negative and the constant terms at least 0.1,
    so each integrand is positive on [0, 1] and its relative error is
    well conditioned."""

    @staticmethod
    def poly(rng, degree):
        return np.concatenate(([rng.uniform(0.1, 1.0)],
                               rng.uniform(0.0, 1.0, degree)))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(5, 9000), seed=st.integers(0, 2 ** 32 - 1),
           deg_h=st.integers(0, 4), data=st.data())
    def test_polynomial_totals(self, n, seed, deg_h, data):
        # u h is reproduced when each factor is (degree <= 4) and the
        # product is integrated exactly (degree <= 5)
        deg_u = data.draw(st.integers(0, min(4, 5 - deg_h)))
        rng = np.random.default_rng(seed)
        x = (np.arange(n) + 0.5) / n
        quartic, h, u, quadratic = (self.poly(rng, d)
                                    for d in (4, deg_h, deg_u, 2))
        g = 9.81
        cases = (
            (polynomial.polyval(x, quartic), np.zeros(n), 0,
             integral_01(quartic)),
            (polynomial.polyval(x, h), polynomial.polyval(x, u), 1,
             integral_01(polynomial.polymul(h, u))),
            (polynomial.polyval(x, quadratic), np.zeros(n), 2,
             0.5 * g * integral_01(polynomial.polymul(quadratic,
                                                      quadratic))))
        tol = 4 * n * np.finfo(np.float64).eps
        for h_cells, u_cells, which, exact in cases:
            snap = sl.Snapshot(t=0.0, x=x, h=h_cells, u=u_cells)
            got = sl.totals(snap, g)[which]
            assert abs(got - exact) <= tol * exact, which


def three_pass_totals(snapshot, g):
    """The totals as computed before `totals` sampled h and u once: one
    pass per quantity, each sampling h (and u) again."""
    dx = snapshot.dx
    out = []
    for quantity in ("h", "uh", "H"):
        h_vals = _gauss_samples(snapshot.h, _VALUE)
        if quantity == "h":
            integrand = h_vals
        else:
            u_vals = _gauss_samples(snapshot.u, _VALUE)
            if quantity == "uh":
                integrand = u_vals * h_vals
            else:
                u_ders = _gauss_samples(snapshot.u, _SLOPE) / dx
                integrand = 0.5 * (h_vals * u_vals ** 2
                                   + (h_vals ** 3 / 3.0) * u_ders ** 2
                                   + g * h_vals ** 2)
        cell_totals = (0.5 * dx) * (_GAUSS_WEIGHTS @ integrand)
        out.append(float(np.cumsum(cell_totals)[-1]))
    return tuple(out)


def per_cell_samples(q, weights):
    """_gauss_samples(q, weights) cell by cell: a Python float sum of the
    five products, left to right from 0.0, at each centred cell, and the
    one-sided table times the first or the last five cells at the first
    and last two cells."""
    n = len(q)
    out = np.empty((3, n))
    for i in range(2, n - 2):
        for g in range(3):
            acc = 0.0
            for j in range(5):
                acc += float(weights[0, g, j]) * float(q[i - 2 + j])
            out[g, i] = acc
    for m, cell, first in zip(weights[1:], (0, 1, n - 2, n - 1),
                              (0, 0, n - 5, n - 5)):
        out[:, cell] = m @ q[first:first + 5]
    return out


class TestTotals:
    def test_evolved_bore_matches_three_passes(self):
        snap = run_case(2.0, 4, 3.0, scheme="E")[0][3.0]
        assert sl.totals(snap, 9.81) == three_pass_totals(snap, 9.81)

    def test_synthetic_matches_three_passes(self):
        rng = np.random.default_rng(11)
        snap = snapshot_on(0.0, 7.0, 97,
                           lambda x: 1.0 + 0.3 * rng.random(len(x)),
                           lambda x: rng.standard_normal(len(x)))
        assert sl.totals(snap, 3.7) == three_pass_totals(snap, 3.7)

    def test_sampler_exact_on_a_quartic(self):
        # each stencil, the one-sided ones included, reproduces a quartic
        # and its slope at the Gauss nodes of its own cell; totals alone
        # would not see two edge cells swapping their samples
        n, dx = 9, 0.5
        centres = (np.arange(n) + 0.5) * dx
        nodes = centres + 0.5 * dx * _GAUSS_NODES[:, None]
        p = np.polynomial.Polynomial([0.3, -1.0, 0.5, 0.2, -0.1])
        q = p(centres)
        assert np.allclose(_gauss_samples(q, _VALUE), p(nodes),
                           rtol=0.0, atol=1e-12)
        assert np.allclose(_gauss_samples(q, _SLOPE) / dx, p.deriv()(nodes),
                           rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("weights", [_VALUE, _SLOPE],
                             ids=["value", "slope"])
    def test_sampler_matches_per_cell_loop_bit_for_bit(self, weights):
        # magnitudes over about 35 binades, both signs and signed zeros,
        # so that a reordered sum or a fused product shows in the bits
        rng = np.random.default_rng(40)
        for n in range(5, 41):
            q = (np.exp(rng.uniform(-12.0, 12.0, n))
                 * rng.choice([-1.0, 1.0], n))
            q[rng.integers(0, n, 2)] = 0.0
            q[rng.integers(0, n, 2)] = -0.0
            got = _gauss_samples(q, weights)
            want = per_cell_samples(q, weights)
            assert got.shape == (3, n)
            assert np.array_equal(got.view(np.int64),
                                  want.view(np.int64)), n


def total_bits(totals):
    return [np.float64(v).view(np.int64) for v in totals]


class TestTotalsChunks:
    # both sides of each slice edge (TOTALS_CHUNK = 4 096), and the
    # shortest grids, whose one slice is the whole array
    @pytest.mark.parametrize("n", [5, 6, 7, 4094, 4095, 4096, 4097, 4098,
                                   8191, 8192, 8193, 102400])
    def test_chunked_sum_matches_one_pass_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        h = 1.0 + 0.8 * rng.random(n)
        # u over about 150 binades, signed zeros and subnormals among them
        u = np.exp(rng.uniform(-100.0, 3.0, n)) * rng.choice([-1.0, 1.0], n)
        u[rng.integers(0, n, 3)] = 0.0
        u[rng.integers(0, n, 3)] = -0.0
        u[rng.integers(0, n, 3)] = 5e-320 * rng.choice([-1.0, 1.0], 3)
        snap = snapshot_on(0.0, 0.01 * n, n, lambda x: h, lambda x: u)
        assert total_bits(sl.totals(snap, 9.81)) == total_bits(
            three_pass_totals(snap, 9.81))

    def test_all_negative_zero_matches_one_pass(self):
        n = 4097
        snap = snapshot_on(0.0, 1.0, n, lambda x: np.full(n, -0.0),
                           lambda x: np.full(n, -0.0))
        assert total_bits(sl.totals(snap, 9.81)) == total_bits(
            three_pass_totals(snap, 9.81))

    def test_memory_does_not_grow_with_the_grid(self):
        # one pass over the whole array holds about fifteen (3, n)
        # temporaries: 14 MiB at n = 102 400
        n = 102400
        rng = np.random.default_rng(3)
        snap = snapshot_on(0.0, 1000.0, n,
                           lambda x: 1.0 + 0.8 * rng.random(n),
                           lambda x: rng.standard_normal(n))
        tracemalloc.start()
        try:
            sl.totals(snap, 9.81)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


class TestConservationError:
    def test_self_comparison_is_zero(self):
        cfg = make_config(2.0, 6, 30.0)
        state = sl.smoothed_dambreak_ic(cfg)
        snap = sl.take_snapshot(state)
        tot = sl.totals(snap, cfg.g)
        c1_h, c1_uh, c1_ham = sl.conservation_error(tot, snap, cfg.g, tot)
        assert c1_h <= 1e-12 and c1_uh <= 1e-12 and c1_ham <= 1e-12

    def test_still_basin_momentum(self):
        # equal far-field depths: the boundary-flux correction vanishes and
        # the momentum total stays at zero through 100 steps
        cfg = sl.SimConfig(h0=1.4, h1=1.4, x0=50.0, alpha=2.0, domain_a=0.0,
                           domain_b=100.0, dx=1.25, t_end=1.25, scheme="D")
        state = sl.smoothed_dambreak_ic(cfg)
        snaps, _ = collect(state, cfg)
        totals_0 = sl.analytic_totals(cfg)
        _, c1_uh, _ = sl.conservation_error(totals_0, snaps[-1], cfg.g,
                                            sl.totals(snaps[-1], cfg.g))
        assert c1_uh <= 1e-12

    def test_momentum_correction_applied(self):
        cfg = make_config(2.0, 6, 30.0)
        t = 10.0
        snap = replace(sl.take_snapshot(sl.smoothed_dambreak_ic(cfg)), t=t)
        totals_0 = sl.analytic_totals(cfg)
        _, c1_uh, _ = sl.conservation_error(totals_0, snap, cfg.g,
                                            sl.totals(snap, cfg.g))
        expected = abs(0.5 * cfg.g * t * (snap.h[-1] ** 2 - snap.h[0] ** 2))
        assert c1_uh == pytest.approx(expected, rel=1e-6)


class TestL1Difference:
    def test_identical_is_zero(self):
        snap = snapshot_on(0.0, 10.0, 16, lambda x: 1.0 + 0.1 * np.sin(x),
                           lambda x: np.cos(x))
        assert sl.l1_difference(snap, snap, "h") == 0.0

    def test_uniform_offset(self):
        f = lambda x: 2.0 + 0.1 * np.sin(x)
        snap_a = snapshot_on(0.0, 10.0, 16, f, lambda x: np.zeros_like(x))
        eps = 1e-3
        snap_b = snapshot_on(0.0, 10.0, 16, lambda x: f(x) + eps,
                             lambda x: np.zeros_like(x))
        expected = eps * 16 / np.abs(snap_a.h).sum()
        assert sl.l1_difference(snap_b, snap_a, "h") == pytest.approx(
            expected, rel=1e-10)

    def test_refined_grid_averaging(self):
        # linear field: the two-cell average at a coarse centre is exact
        f = lambda x: 1.0 + 0.25 * x
        coarse = snapshot_on(0.0, 10.0, 16, f, lambda x: np.zeros_like(x))
        fine = snapshot_on(0.0, 10.0, 64, f, lambda x: np.zeros_like(x))
        assert sl.l1_difference(coarse, fine, "h") <= 1e-14

    def test_incompatible_ratio_rejected(self):
        ones = lambda x: np.ones_like(x)
        zeros = lambda x: np.zeros_like(x)
        coarse = snapshot_on(0.0, 10.0, 16, ones, zeros)
        fine = snapshot_on(0.0, 10.0, 48, ones, zeros)
        with pytest.raises(ValueError):
            sl.l1_difference(coarse, fine, "h")

    def test_misaligned_grids_rejected(self):
        ones = lambda x: np.ones_like(x)
        zeros = lambda x: np.zeros_like(x)
        coarse = snapshot_on(0.0, 10.0, 16, ones, zeros)
        fine = snapshot_on(1.0, 11.0, 32, ones, zeros)
        with pytest.raises(ValueError):
            sl.l1_difference(coarse, fine, "h")

    def test_exclusion_window(self):
        f = lambda x: np.ones_like(x)
        coarse = snapshot_on(0.0, 10.0, 16, f, lambda x: np.zeros_like(x))
        bumped = coarse.h.copy()
        bumped[(coarse.x > 4.0) & (coarse.x < 6.0)] += 1.0
        other = sl.Snapshot(t=0.0, x=coarse.x, h=bumped, u=coarse.u)
        assert sl.l1_difference(other, coarse, "h") > 0.1
        assert sl.l1_difference(other, coarse, "h",
                                exclude_window=(4.0, 6.0)) == 0.0


class TestLeadingWave:
    def test_monotone_profile_has_no_crest(self):
        snap = snapshot_on(0.0, 1000.0, 500,
                           lambda x: 1.4 - 0.4 * np.tanh((x - 500) / 40.0),
                           lambda x: np.zeros_like(x))
        assert sl.leading_wave(snap, SWWE) is None

    def test_synthetic_sech_crest(self):
        dx = 0.1
        snap = snapshot_on(500.0, 700.0, 2000,
                           lambda x: 1.0 + 0.7 / np.cosh(x - 600.0) ** 2,
                           lambda x: np.zeros_like(x))
        x_a, amp = sl.leading_wave(snap, SWWE)
        assert x_a == pytest.approx(600.0, abs=dx / 10.0)
        assert amp == pytest.approx(1.7, abs=1e-3)

    def test_rightmost_crest_wins(self):
        def two_bumps(x):
            return (1.0 + 0.5 / np.cosh(np.clip(x - 300.0, -300, 300)) ** 2
                    + 0.3 / np.cosh(np.clip(x - 700.0, -300, 300)) ** 2)
        snap = snapshot_on(0.0, 1000.0, 2000, two_bumps,
                           lambda x: np.zeros_like(x))
        x_a, amp = sl.leading_wave(snap, SWWE)
        assert x_a == pytest.approx(700.0, abs=0.1)
        # the parabola slightly undershoots a sech^2 crest at this dx
        assert amp == pytest.approx(1.3, abs=1e-2)

    def test_flat_plateau_noise_rejected(self):
        rng = np.random.default_rng(7)
        h = np.full(500, 1.8)
        h += 1e-13 * rng.standard_normal(500)
        snap = sl.Snapshot(t=0.0, x=np.linspace(0, 499, 500), h=h,
                           u=np.zeros(500))
        assert sl.leading_wave(snap, SWWE) is None


class TestBoreMeans:
    def test_uniform_mid_state(self):
        t = 30.0
        snap = snapshot_on(0.0, 1000.0, 2000,
                           lambda x: np.full_like(x, SWWE.h2),
                           lambda x: np.full_like(x, SWWE.u2), t=t)
        h_mean, u_mean, clipped = sl.bore_means(snap, SWWE)
        assert h_mean == pytest.approx(SWWE.h2, rel=1e-15)
        assert u_mean == pytest.approx(SWWE.u2, rel=1e-15)
        assert not clipped

    def test_symmetric_oscillation_about_h2(self):
        t = 30.0
        x_u2 = SWWE.x_u2(t)
        n = 2000
        dx = 1000.0 / n
        x = (np.arange(n) + 0.5) * dx
        # sawtooth centred exactly on the window midpoint
        h = SWWE.h2 + 0.1 * np.sin(2.0 * np.pi * (x - x_u2) / 10.0)
        snap = sl.Snapshot(t=t, x=x, h=h, u=np.zeros(n))
        h_mean, _, _ = sl.bore_means(snap, SWWE)
        assert h_mean == pytest.approx(SWWE.h2, abs=1e-12)

    def test_clipped_window_flagged(self):
        t = 30.0
        snap = snapshot_on(SWWE.x_u2(t) - 10.0, SWWE.x_u2(t) + 60.0, 200,
                           lambda x: np.ones_like(x),
                           lambda x: np.zeros_like(x), t=t)
        _, _, clipped = sl.bore_means(snap, SWWE)
        assert clipped


class TestOscillationAmplitude:
    def test_extrema_detection(self):
        h = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 1.0, 2.0, 0.5])
        idx = _extrema_indices(h)
        assert 1 in idx and 3 in idx and 6 in idx

    def test_sinusoid_amplitude(self):
        snap = snapshot_on(0.0, 100.0, 1000,
                           lambda x: 1.4 + 0.05 * np.sin(2 * np.pi * x / 5.0),
                           lambda x: np.zeros_like(x))
        amp = sl.oscillation_amplitude(snap, 10.0, 90.0)
        assert amp == pytest.approx(0.05, rel=1e-3)

    def test_flat_profile_is_zero(self):
        snap = snapshot_on(0.0, 100.0, 200, lambda x: np.full_like(x, 1.4),
                           lambda x: np.zeros_like(x))
        assert sl.oscillation_amplitude(snap, 0.0, 100.0) == 0.0

    def test_extrema_match_loop_reference(self):
        def reference(h):
            s = np.sign(np.diff(h))
            filled = np.zeros_like(s)
            last = 0.0
            for i, si in enumerate(s):
                last = si if si != 0 else last
                filled[i] = last
            return np.flatnonzero(filled[1:] * filled[:-1] < 0) + 1

        rng = np.random.default_rng(7)
        profiles = [np.full(9, 1.4), np.array([2.0]), np.array([]),
                    np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0])]
        for _ in range(300):
            n = int(rng.integers(2, 60))
            # few distinct levels make flat runs common
            h = rng.integers(0, 4, n).astype(float)
            lead, trail = rng.integers(0, 5, 2)
            profiles.append(np.concatenate(
                (np.full(lead, h[0]), h, np.full(trail, h[-1]))))
        for h in profiles:
            np.testing.assert_array_equal(_extrema_indices(h), reference(h))


def synthetic_bore(t, mid_amp, flank_amp, wavelength=5.0, mid_halfwidth=12.0):
    """Plateau at h2 with sinusoidal oscillations of controlled envelope."""
    x_u2 = SWWE.x_u2(t)
    n = 4000
    dx = 1000.0 / n
    x = (np.arange(n) + 0.5) * dx
    h, u = sl.swwe_profile(SWWE, x, t)
    envelope = np.where(np.abs(x - x_u2) <= mid_halfwidth, mid_amp, flank_amp)
    c2 = math.sqrt(SWWE.g * SWWE.h2)
    tail = SWWE.x0 + t * (SWWE.u2 - c2)
    active = (x > tail + 5.0) & (x < SWWE.x_shock(t) - 1.0)
    h = h + np.where(active, envelope, 0.0) * np.sin(
        2.0 * np.pi * x / wavelength)
    return sl.Snapshot(t=t, x=x, h=h, u=u)


class TestClassifier:
    def test_s1_flat_bore(self):
        snap = synthetic_bore(30.0, 0.0, 0.0)
        assert sl.classify_structure(snap, SWWE) == "S1"

    def test_s2_plateau_with_oscillating_flanks(self):
        snap = synthetic_bore(30.0, 0.0, 0.05)
        assert sl.classify_structure(snap, SWWE) == "S2"

    def test_s3_node_at_contact(self):
        snap = synthetic_bore(30.0, 0.02, 0.08)
        assert sl.classify_structure(snap, SWWE) == "S3"

    def test_s4_growth_at_contact(self):
        snap = synthetic_bore(30.0, 0.10, 0.02, mid_halfwidth=8.0)
        assert sl.classify_structure(snap, SWWE) == "S4"

    def test_unclassified_when_contact_outside(self):
        snap = snapshot_on(0.0, 100.0, 200, lambda x: np.ones_like(x),
                           lambda x: np.zeros_like(x), t=30.0)
        assert sl.classify_structure(snap, SWWE) == "Unclassified"

    def test_one_extrema_pass_per_snapshot(self, monkeypatch):
        # an S3 bore reaches all four windows
        snap = synthetic_bore(30.0, 0.02, 0.08)
        calls = []
        extrema = diagnostics._extrema_indices
        monkeypatch.setattr(diagnostics, "_extrema_indices",
                            lambda h: calls.append(1) or extrema(h))
        assert sl.classify_structure(snap, SWWE) == "S3"
        assert len(calls) == 1

    def test_velocity_shift_invariance(self):
        snap = synthetic_bore(30.0, 0.0, 0.05)
        shifted = sl.Snapshot(t=snap.t, x=snap.x, h=snap.h, u=snap.u + 3.0)
        assert (sl.classify_structure(shifted, SWWE)
                == sl.classify_structure(snap, SWWE))

    def test_steep_bore_evolution_properties(self):
        # one fine steep-front run serves three checks: the front advances,
        # the crest approaches the modulation-theory amplitude, and the
        # oscillations around the contact point decay over time
        from _cases import WHITHAM
        snaps, _ = run_case(0.1, 8, 30.0, times=(3.0, 30.0))
        x_a3, _ = sl.leading_wave(snaps[3.0], SWWE)
        x_a30, amp30 = sl.leading_wave(snaps[30.0], SWWE)
        assert x_a3 < x_a30
        assert abs(amp30 - WHITHAM.A_plus) / WHITHAM.A_plus < 0.10
        mid3 = sl.oscillation_amplitude(snaps[3.0], SWWE.x_u2(3.0) - 10.0,
                                        SWWE.x_u2(3.0) + 10.0)
        mid30 = sl.oscillation_amplitude(snaps[30.0], SWWE.x_u2(30.0) - 10.0,
                                         SWWE.x_u2(30.0) + 10.0)
        assert mid30 < mid3

    def test_refinement_invariance_smooth_case(self):
        # the converged alpha = 40 profile keeps its label across one level
        snaps4, _ = run_case(40.0, 4, 30.0)
        snaps5, _ = run_case(40.0, 5, 30.0)
        label4 = sl.classify_structure(snaps4[30.0], SWWE)
        label5 = sl.classify_structure(snaps5[30.0], SWWE)
        assert label4 == label5 == "S1"
