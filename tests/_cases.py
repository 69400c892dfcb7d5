"""Shared, cached simulation runs used across test modules.

The expensive dam-break runs are keyed by their full parameter set so a
single run serves every test (and acceptance criterion) that needs it.
"""
import functools

import numpy as np

import serrelab as sl
from serrelab.solvers import Workspace, assemble_momentum_system


def make_config(alpha, k, t_end, scheme="D", domain=(0.0, 1000.0),
                h0=1.0, h1=1.8, **kw):
    a, b = domain
    return sl.SimConfig(h0=h0, h1=h1, x0=0.5 * (a + b), alpha=alpha,
                        domain_a=a, domain_b=b,
                        dx=10.0 / 2 ** k, t_end=t_end, scheme=scheme, **kw)


def collect(state, config):
    """Run to config.t_end through a list sink: (snapshots, log)."""
    snapshots = []
    log = sl.run_to(state, config, snapshots.append)
    return snapshots, log


@functools.lru_cache(maxsize=None)
def run_case(alpha, k, t_end, scheme="D", domain=(0.0, 1000.0),
             h0=1.0, h1=1.8, times=()):
    """Run one dam-break case; returns ({t: snapshot}, config)."""
    config = make_config(alpha, k, t_end, scheme, domain, h0, h1,
                         snapshot_times=times)
    snapshots, _ = collect(sl.smoothed_dambreak_ic(config), config)
    return {s.t: s for s in snapshots}, config


def momentum_system(state, config):
    """The state's momentum system, assembled into a Workspace, as the
    rows sub, diag, sup, rhs of one (4, n) array."""
    ng = state.grid.ghost_layers
    work = Workspace(config.n_cells, ng)
    assemble_momentum_system(state.h, state.u, state.u_prev, config.dx,
                             config.dt, config.g, ng, work)
    return np.array([work.sub, work.diag, work.sup, work.rhs])


SWWE = sl.solve_swwe_dambreak(1.0, 1.8, 9.81, x0=500.0)
WHITHAM = sl.whitham_leading_wave(1.0, 1.8, 9.81, x0=500.0)
