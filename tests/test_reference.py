import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import newton

import serrelab as sl
from serrelab.reference import (BISECTION_TOL, _amplitude_residual,
                                _midstate_residual)


class TestSwweConstants:
    def test_residual_and_ordering(self):
        sol = sl.solve_swwe_dambreak(1.0, 1.8, 9.81)
        assert abs(_midstate_residual(sol.h2, 1.0, 1.8)) < 1e-12
        assert 1.0 < sol.h2 < 1.8
        assert sol.u2 > 0.0
        assert sol.S2 > sol.u2

    def test_vanishing_dam_limit(self):
        sol = sl.solve_swwe_dambreak(1.0, 1.0 + 1e-9, 9.81)
        assert sol.h2 == pytest.approx(1.0, abs=1e-8)
        assert sol.u2 == pytest.approx(0.0, abs=1e-8)

    def test_newton_cross_check(self):
        # independent root-finder agreement on a large aspect ratio
        sol = sl.solve_swwe_dambreak(1.0, 4.0, 9.81)
        h2_newton = newton(lambda h: _midstate_residual(h, 1.0, 4.0),
                           x0=2.0, tol=1e-13)
        assert sol.h2 == pytest.approx(h2_newton, abs=1e-10)

    def test_monotone_in_h1(self):
        h2s = [sl.solve_swwe_dambreak(1.0, h1, 9.81).h2
               for h1 in np.linspace(1.1, 4.0, 16)]
        assert np.all(np.diff(h2s) > 0)

    def test_rejects_reversed_states(self):
        with pytest.raises(ValueError):
            sl.solve_swwe_dambreak(1.8, 1.0, 9.81)

    def test_front_positions(self):
        sol = sl.solve_swwe_dambreak(1.0, 1.8, 9.81, x0=500.0)
        assert sol.x_u2(30.0) == pytest.approx(500.0 + 30.0 * sol.u2, rel=1e-15)
        assert sol.x_shock(30.0) == pytest.approx(500.0 + 30.0 * sol.S2,
                                                  rel=1e-15)


class TestClosedFormsAcrossStates:
    @settings(max_examples=1000, deadline=None)
    @given(h0=st.floats(0.1, 5.0), ratio=st.floats(1.01, 10.0))
    def test_roots_bracketed_and_ordered(self, h0, ratio):
        # the midstate residual itself is not bounded: at h1 / h0 = 1.01
        # it reaches 5.5e-12; nor is S+ > S2 asserted, which fails on
        # most of this range
        h1 = h0 * ratio
        sol = sl.solve_swwe_dambreak(h0, h1, 9.81)
        lo, hi = sol.h2 - 2 * BISECTION_TOL, sol.h2 + 2 * BISECTION_TOL
        assert (_midstate_residual(lo, h0, h1)
                * _midstate_residual(hi, h0, h1)) < 0.0
        assert h0 < sol.h2 < h1
        assert sol.u2 > 0.0 and sol.S2 > 0.0
        pred = sl.whitham_leading_wave(h0, h1, 9.81)
        assert abs(_amplitude_residual(pred.a_plus_dimless,
                                       pred.delta)) <= 1e-13


class TestSwweProfile:
    def setup_method(self):
        self.sol = sl.solve_swwe_dambreak(1.0, 1.8, 9.81, x0=500.0)

    def test_fan_joins_left_state(self):
        t = 30.0
        c1 = math.sqrt(9.81 * 1.8)
        h, u = sl.swwe_profile(self.sol, [500.0 - t * c1], t)
        assert h[0] == pytest.approx(1.8, abs=1e-10)
        assert u[0] == pytest.approx(0.0, abs=1e-10)

    def test_fan_joins_mid_state(self):
        t = 30.0
        c2 = math.sqrt(9.81 * self.sol.h2)
        x_j = 500.0 + t * (self.sol.u2 - c2)
        h, u = sl.swwe_profile(self.sol, [x_j], t)
        assert h[0] == pytest.approx(self.sol.h2, abs=1e-10)
        assert u[0] == pytest.approx(self.sol.u2, abs=1e-10)

    def test_continuity_except_shock(self):
        t = 30.0
        x = np.linspace(0.0, 1000.0, 200001)
        h, _ = sl.swwe_profile(self.sol, x, t)
        jumps = np.abs(np.diff(h))
        shock = self.sol.x_shock(t)
        at_shock = (x[:-1] < shock) & (x[1:] >= shock)
        assert np.all(jumps[~at_shock] < 1e-3)
        assert jumps[at_shock][0] > 0.3

    def test_far_states(self):
        h, u = sl.swwe_profile(self.sol, [1.0, 999.0], 30.0)
        assert h[0] == 1.8 and u[0] == 0.0
        assert h[1] == 1.0 and u[1] == 0.0

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            sl.swwe_profile(self.sol, [500.0], 0.0)


class TestWhitham:
    def test_residual_at_solution(self):
        pred = sl.whitham_leading_wave(1.0, 1.8, 9.81)
        assert abs(_amplitude_residual(pred.a_plus_dimless,
                                       pred.delta)) < 1e-12

    def test_residual_at_zero_amplitude(self):
        # the amplitude relation degenerates to delta = 1 at a = 0
        assert _amplitude_residual(0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert _amplitude_residual(0.0, 1.3) == pytest.approx(0.3, abs=1e-14)

    def test_bore_height_formula(self):
        pred = sl.whitham_leading_wave(1.0, 1.8, 9.81)
        assert pred.h_b == pytest.approx(
            0.25 * (math.sqrt(1.8) + 1.0) ** 2, rel=1e-14)
        assert pred.delta == pytest.approx(pred.h_b, rel=1e-14)

    def test_speed_amplitude_consistency(self):
        pred = sl.whitham_leading_wave(1.0, 1.8, 9.81)
        assert pred.S_plus == pytest.approx(
            math.sqrt(9.81 * pred.A_plus), abs=1e-10)

    def test_front_outruns_shock(self):
        sol = sl.solve_swwe_dambreak(1.0, 1.8, 9.81, x0=500.0)
        pred = sl.whitham_leading_wave(1.0, 1.8, 9.81, x0=500.0)
        for t in (1.0, 10.0, 30.0, 100.0):
            assert pred.x_front(t) > sol.x_shock(t)

    def test_rejects_reversed_states(self):
        with pytest.raises(ValueError):
            sl.whitham_leading_wave(1.0, 0.5, 9.81)

    def test_bisection_guard(self):
        from serrelab.reference import _bisect
        with pytest.raises(sl.RootBracketError):
            _bisect(lambda s: s * s + 1.0, 0.0, 1.0)
