import dataclasses
import math

import numpy as np
import pytest

import serrelab as sl
from serrelab import core
from _cases import make_config


def base_config(**kw):
    defaults = dict(h0=1.0, h1=1.8, x0=500.0, alpha=2.0, domain_a=0.0,
                    domain_b=1000.0, dx=10.0 / 2 ** 4, t_end=1.0, scheme="D")
    defaults.update(kw)
    return sl.SimConfig(**defaults)


class TestConfigValidation:
    def test_dt_rule(self):
        cfg = base_config(dx=0.5)
        assert cfg.dt == pytest.approx(0.005, rel=1e-15)

    @pytest.mark.parametrize("field", ["h0", "h1", "alpha", "dx", "t_end"])
    def test_positive_fields(self, field):
        with pytest.raises(sl.ConfigError):
            base_config(**{field: -1.0})

    def test_x0_inside_domain(self):
        with pytest.raises(sl.ConfigError):
            base_config(x0=1000.0)

    def test_bad_scheme(self):
        with pytest.raises(sl.ConfigError):
            base_config(scheme="Q")

    def test_domain_ordering(self):
        with pytest.raises(sl.ConfigError):
            base_config(domain_a=1000.0, domain_b=0.0, x0=500.0)

    def test_frozen_counts_follow_replace(self):
        cfg = base_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.t_end = 2.0
        assert dataclasses.replace(cfg, t_end=2.0).n_steps == 2 * cfg.n_steps

    def test_require_midpoint(self):
        base_config().require_midpoint()
        with pytest.raises(sl.ConfigError):
            base_config(x0=400.0).require_midpoint()


class TestGrid:
    def test_centres(self):
        grid = sl.Grid.from_config(base_config(dx=0.625))
        assert grid.n_cells == 1600
        assert grid.x[0] == pytest.approx(0.3125, abs=1e-14)
        # centres generated by the closed form, uniform to round-off
        assert np.all(np.diff(grid.x) == pytest.approx(0.625, abs=1e-12))

    def test_ghost_layers(self):
        grid = sl.Grid.from_config(base_config())
        assert grid.ghost_layers == 2
        assert grid.n_total == grid.n_cells + 4
        assert len(grid.x_all) == grid.n_total

    def test_non_tiling_dx_rejected(self):
        with pytest.raises(sl.ConfigError):
            sl.Grid.from_config(base_config(dx=0.7))

    def test_at_least_five_cells(self):
        with pytest.raises(sl.ConfigError, match=r"dx = 250.0 .*\[0.0, "
                           r"1000.0\] .*at least 5 cells"):
            base_config(dx=250.0, t_end=2.5)
        assert base_config(dx=200.0, t_end=2.0).n_cells == 5


class TestInitialCondition:
    def test_midpoint_depth(self):
        cfg = base_config()
        assert sl.initial_depth(500.0, cfg) == pytest.approx(1.4, abs=1e-14)

    def test_far_field_limits(self):
        cfg = base_config()
        assert sl.initial_depth(-1e6, cfg) == pytest.approx(1.8, abs=1e-12)
        assert sl.initial_depth(1e6, cfg) == pytest.approx(1.0, abs=1e-12)

    def test_point_value(self):
        # closed form at x = 502, alpha = 2: 1 + 0.4 (1 + tanh(-1))
        cfg = base_config()
        assert sl.initial_depth(502.0, cfg) == pytest.approx(
            1.0953623376176940, abs=1e-13)

    def test_monotone_decreasing(self):
        cfg = base_config()
        # strictly decreasing wherever the tanh has not saturated in floats
        x = np.linspace(485.0, 515.0, 1501)
        assert np.all(np.diff(sl.initial_depth(x, cfg)) < 0)

    def test_symmetry_about_x0(self):
        cfg = base_config()
        s = np.linspace(0.0, 400.0, 101)
        total = (sl.initial_depth(500.0 + s, cfg)
                 + sl.initial_depth(500.0 - s, cfg))
        assert np.all(np.abs(total - 2.8) < 1e-13)

    def test_state_at_rest(self):
        state = sl.smoothed_dambreak_ic(base_config())
        assert np.all(state.u == 0.0)
        assert np.all(state.u_prev == 0.0)
        assert state.t == 0.0 and state.step == 0


class TestDirichletGhosts:
    def test_values_and_idempotence(self):
        cfg = base_config()
        state = sl.smoothed_dambreak_ic(cfg)
        interior_before = state.interior(state.h).copy()
        sl.apply_dirichlet(state, cfg)
        sl.apply_dirichlet(state, cfg)
        assert np.all(state.h[:2] == 1.8)
        assert np.all(state.h[-2:] == 1.0)
        assert np.all(state.u[:2] == 0.0) and np.all(state.u[-2:] == 0.0)
        assert np.array_equal(state.interior(state.h), interior_before)


class TestAnalyticTotals:
    def test_mass_total(self):
        c_h, c_uh, _ = sl.analytic_totals(base_config())
        assert c_h == pytest.approx(1400.0, rel=1e-14)
        assert c_uh == 0.0

    def test_mass_matches_trapezoid(self):
        # any grid with dx <= alpha / 4 integrates the tanh profile to 1e-10
        cfg = base_config(alpha=2.0, dx=0.5)
        grid = sl.Grid.from_config(cfg)
        edges = np.linspace(0.0, 1000.0, grid.n_cells + 1)
        trapz = np.trapezoid(sl.initial_depth(edges, cfg), edges)
        c_h, _, _ = sl.analytic_totals(cfg)
        assert abs(trapz - c_h) / c_h < 1e-10

    def test_energy_matches_quadrature(self):
        # closed-form energy total against direct integration of g h^2 / 2
        from scipy.integrate import quad
        cfg = base_config(alpha=2.0)
        val, _ = quad(lambda x: 0.5 * cfg.g * sl.initial_depth(x, cfg) ** 2,
                      0.0, 1000.0, limit=400)
        _, _, c_ham = sl.analytic_totals(cfg)
        assert c_ham == pytest.approx(val, rel=1e-12)

    def test_rejects_off_centre_dam(self):
        with pytest.raises(sl.ConfigError):
            sl.analytic_totals(base_config(x0=400.0))


class TestConfigFormat:
    def test_round_trip(self):
        cfg = base_config(t_end=30.0, snapshot_times=(3.0, 30.0))
        again = sl.parse_config_text(sl.format_config(cfg))
        for key in ("h0", "h1", "x0", "alpha", "domain_a", "domain_b", "dx",
                    "dt_factor", "t_end", "g", "scheme", "snapshot_times"):
            assert getattr(again, key) == getattr(cfg, key)

    def test_unknown_key_named(self):
        with pytest.raises(sl.ConfigError, match="viscosity"):
            sl.parse_config_text("viscosity = 1\n")

    def test_missing_key_named(self):
        text = sl.format_config(base_config())
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("alpha"))
        with pytest.raises(sl.ConfigError, match="alpha"):
            sl.parse_config_text(text)

    def test_duplicate_key_rejected(self):
        text = sl.format_config(base_config()) + "h0 = 2.0\n"
        with pytest.raises(sl.ConfigError, match="duplicate"):
            sl.parse_config_text(text)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n" + sl.format_config(base_config())
        sl.parse_config_text(text)

    def test_bad_float_rejected(self):
        text = sl.format_config(base_config()).replace(
            "t_end = 1.0", "t_end = soon")
        with pytest.raises(sl.ConfigError):
            sl.parse_config_text(text)

    def test_schema_and_text_pinned(self):
        assert core.CONFIG_KEYS == (
            "h0", "h1", "x0", "alpha", "domain_a", "domain_b", "dx",
            "dt_factor", "t_end", "g", "scheme", "snapshot_times")
        assert core.REQUIRED_KEYS == ("h0", "h1", "x0", "alpha", "domain_a",
                                      "domain_b", "dx", "t_end", "scheme")
        cfg = sl.SimConfig(h0=1.0, h1=1.8, x0=500.0, alpha=2.0, domain_a=0.0,
                           domain_b=1000.0, dx=0.625, dt_factor=0.02,
                           t_end=1.0, g=9.8, scheme="E",
                           snapshot_times=(0.5, 1.0))
        assert sl.format_config(cfg) == (
            "h0 = 1.0\nh1 = 1.8\nx0 = 500.0\nalpha = 2.0\ndomain_a = 0.0\n"
            "domain_b = 1000.0\ndx = 0.625\ndt_factor = 0.02\nt_end = 1.0\n"
            "g = 9.8\nscheme = E\nsnapshot_times = 0.5,1.0\n")

    def test_keywords_only(self):
        # valid values in the order of the required keys
        with pytest.raises(TypeError, match="positional"):
            sl.SimConfig(1.0, 1.8, 500.0, 2.0, 0.0, 1000.0, 0.625, 1.0, "D")


def test_make_config_centres_dam():
    cfg = make_config(0.4, 4, 3.0, domain=(400.0, 560.0))
    assert cfg.x0 == 480.0
    cfg.require_midpoint()
