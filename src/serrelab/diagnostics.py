"""Conservation accounting, nested-grid difference measures, leading-wave
extraction, bore-mean statistics and the bore-structure classifier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Snapshot
from .reference import SwweSolution

# 3-point Gauss-Legendre rule on [-1, 1]
_GAUSS_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])

# thresholds of the structure classifier and the crest search
OSCILLATION_FLOOR = 5e-3   # metres; amplitudes below this count as flat
AMPLITUDE_RATIO = 0.5      # mid-vs-flank ratio separating node from growth
CREST_PROMINENCE = 1e-10   # metres; rejects round-off wiggles on plateaus
CREST_THRESHOLD = 0.01     # crests rise this share of h1 - h0 above h0

# cells per slice of totals: its (3, slice) temporaries fit in L2
TOTALS_CHUNK = 4096


@dataclass
class DiagnosticsRecord:
    """One row of per-snapshot diagnostics."""

    t: float
    C_star_h: float
    C_star_uh: float
    C_star_H: float
    C1_h: float | None = None
    C1_uh: float | None = None
    C1_H: float | None = None
    structure: str = "Unclassified"
    x_A: float | None = None
    A: float | None = None
    h_mean: float | None = None
    u_mean: float | None = None


def _lagrange_matrices(offsets0):
    """Value and slope weights of the quartic through the 5 cells from
    each offset in offsets0, evaluated at the 3 Gauss nodes of the cell at
    offset 0 (offsets in units of dx): two arrays of shape
    (len(offsets0), 3, 5).
    """
    pts = 0.5 * _GAUSS_NODES
    p_val = np.vander(pts, 5, increasing=True)
    p_der = np.zeros((3, 5))
    for k in range(1, 5):
        p_der[:, k] = k * pts ** (k - 1)
    # p(z_j) = q_j at the five offsets
    inv = [np.linalg.inv(np.vander(np.arange(off0, off0 + 5.0), 5,
                                   increasing=True)) for off0 in offsets0]
    return (np.stack([p_val @ m for m in inv]),
            np.stack([p_der @ m for m in inv]))


# first offsets of the one-sided stencils of cells 0, 1, n - 2 and n - 1;
# entry 0 of each table is the centred stencil
_EDGE_OFFSETS = (0, -1, -3, -4)
_VALUE, _SLOPE = _lagrange_matrices((-2, *_EDGE_OFFSETS))


def _gauss_samples(q, weights):
    """The interpolant of q sampled with one weight table (_VALUE or
    _SLOPE) at the 3 Gauss nodes of each cell: shape (3, n).

    Five-point centred stencils; one-sided at the first and last two cells.
    Slopes are per unit offset: divide them by dx for d/dx.
    """
    n = len(q)
    if n < 5:
        raise ValueError("need at least 5 cells for the quartic interpolant")
    out = np.empty((3, n))
    centre = weights[0]
    # each node's five products added left to right, from 0
    out[:, 2:n - 2] = sum(centre[:, j, None] * q[j:n - 4 + j]
                          for j in range(5))
    for m, cell, off0 in zip(weights[1:], (0, 1, n - 2, n - 1),
                             _EDGE_OFFSETS):
        out[:, cell] = m @ q[cell + off0:cell + off0 + 5]
    return out


def totals(snapshot: Snapshot, g: float = 9.81):
    """(mass, momentum, energy) totals of one snapshot: the integrals of
    h, uh and the energy density over the snapshot interval.

    Quartic interpolants of h and u per cell, 3-point Gauss quadrature,
    cells summed in fixed left-to-right order.  The cells are taken
    TOTALS_CHUNK at a time, each slice with a 2-cell halo so that every
    cell keeps its whole-array stencil, and the running sum is carried
    from slice to slice: the same additions in the same order as one pass
    over the whole array, with temporaries that stay in cache.
    """
    dx = snapshot.dx
    n = len(snapshot.h)
    # -0.0 is the exact identity of IEEE addition, so the first slice
    # keeps the bits of a plain cumsum, the sign of a -0 total included
    sums = [-0.0] * 3
    for start in range(0, n, TOTALS_CHUNK):
        stop = min(start + TOTALS_CHUNK, n)
        # a short last slice reaches back to hold the 5-cell stencil
        lo, hi = max(0, min(start - 2, n - 5)), min(n, stop + 2)
        keep = slice(start - lo, stop - lo)
        h_vals = _gauss_samples(snapshot.h[lo:hi], _VALUE)[:, keep]
        u_vals = _gauss_samples(snapshot.u[lo:hi], _VALUE)[:, keep]
        u_ders = _gauss_samples(snapshot.u[lo:hi], _SLOPE)[:, keep] / dx
        energy = 0.5 * (h_vals * u_vals ** 2
                        + (h_vals ** 3 / 3.0) * u_ders ** 2
                        + g * h_vals ** 2)
        cells = [(0.5 * dx) * (_GAUSS_WEIGHTS @ f)
                 for f in (h_vals, u_vals * h_vals, energy)]
        sums = [np.cumsum(np.concatenate(([s], c)))[-1]
                for s, c in zip(sums, cells)]
    return tuple(float(s) for s in sums)


def conservation_error(totals_0, snapshot: Snapshot, g: float, totals_t):
    """Conservation errors of `totals_t` vs the initial totals: C1_h and
    C1_H relative, C1_uh absolute.

    Momentum uses the absolute, boundary-flux-corrected form (its initial
    total is zero); boundary depths are taken from the outermost interior
    cells.
    """
    c_h0, c_uh0, c_ham0 = totals_0
    c_h, c_uh, c_ham = totals_t
    c1_h = abs(c_h0 - c_h) / abs(c_h0)
    flux = 0.5 * g * snapshot.t * (snapshot.h[-1] ** 2 - snapshot.h[0] ** 2)
    c1_uh = abs(c_uh0 - c_uh - flux)
    c1_ham = abs(c_ham0 - c_ham) / abs(c_ham0)
    return c1_h, c1_uh, c1_ham


def _fine_at_coarse_centers(coarse: Snapshot, fine: Snapshot, values):
    """Fine-grid values at the coarse cell centres.

    Cell-centred layouts do not share centres across a refinement, so each
    coarse centre sits on a fine-cell face: the two straddling fine cells
    are averaged (second order, consistent with the schemes).
    """
    nc, nf = len(coarse.x), len(fine.x)
    if nf % nc != 0:
        raise ValueError(f"fine grid size {nf} is not a multiple of {nc}")
    r = nf // nc
    if r & (r - 1):
        raise ValueError(f"refinement ratio {r} is not a power of two")
    a_c = coarse.x[0] - 0.5 * coarse.dx
    a_f = fine.x[0] - 0.5 * fine.dx
    if abs(a_c - a_f) > 1e-9 * max(1.0, abs(a_c)):
        raise ValueError(f"grids misaligned at left edge: {a_c} vs {a_f}")
    if r == 1:
        return np.asarray(values)
    idx = np.arange(nc) * r + r // 2
    values = np.asarray(values)
    return 0.5 * (values[idx - 1] + values[idx])


def l1_difference(coarse: Snapshot, fine: Snapshot, quantity: str,
                  exclude_window=None) -> float:
    """Relative nested-grid difference, evaluated on the coarse centres.

    exclude_window = (lo, hi) omits coarse centres inside [lo, hi] from
    both sums.
    """
    if quantity not in ("h", "u"):
        raise ValueError("quantity must be 'h' or 'u'")
    q_coarse = getattr(coarse, quantity)
    q_fine = _fine_at_coarse_centers(coarse, fine, getattr(fine, quantity))
    keep = np.ones(len(coarse.x), dtype=bool)
    if exclude_window is not None:
        lo, hi = exclude_window
        keep &= (coarse.x < lo) | (coarse.x > hi)
    num = np.abs(q_coarse[keep] - q_fine[keep]).sum()
    den = np.abs(q_fine[keep]).sum()
    # a fine solution at rest gives 0/0 = nan (or x/0 = inf): no warning
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(num / den)


def leading_wave(snapshot: Snapshot, sol: SwweSolution):
    """Rightmost crest of the bore: (position, crest depth), or None.

    Crests are local maxima of h above h0 + CREST_THRESHOLD (h1 - h0)
    that rise at least CREST_PROMINENCE above one neighbour; the position
    is refined sub-cell by the three-point parabola through the crest.
    """
    h = snapshot.h
    x = snapshot.x
    is_max = ((h[1:-1] >= h[:-2]) & (h[1:-1] >= h[2:])
              & ((h[1:-1] > h[:-2] + CREST_PROMINENCE)
                 | (h[1:-1] > h[2:] + CREST_PROMINENCE)))
    floor = sol.h0 + CREST_THRESHOLD * (sol.h1 - sol.h0)
    qualifying = np.flatnonzero(is_max & (h[1:-1] > floor)) + 1
    if len(qualifying) == 0:
        return None
    i = int(qualifying[-1])
    denom = h[i - 1] - 2.0 * h[i] + h[i + 1]
    if denom == 0.0:
        return float(x[i]), float(h[i])
    shift = 0.5 * (h[i - 1] - h[i + 1]) / denom
    x_a = x[i] + shift * snapshot.dx
    a = h[i] - 0.25 * (h[i - 1] - h[i + 1]) * shift
    return float(x_a), float(a)


def bore_means(snapshot: Snapshot, sol: SwweSolution):
    """Mean depth and velocity over the 100 m window centred on x_u2.

    Returns (h_mean, u_mean, clipped); clipped flags a window cut by the
    domain ends.  A window that has left the domain holds no cells and
    gives (None, None, True).
    """
    x_u2 = sol.x_u2(snapshot.t)
    lo, hi = x_u2 - 50.0, x_u2 + 50.0
    clipped = lo < snapshot.x[0] or hi > snapshot.x[-1]
    mask = (snapshot.x >= lo) & (snapshot.x <= hi)
    if not np.any(mask):
        return None, None, True
    return (float(snapshot.h[mask].mean()), float(snapshot.u[mask].mean()),
            clipped)


def _extrema_indices(h):
    """Indices of strict local maxima and minima of a sampled profile."""
    s = np.sign(np.diff(h))
    # carry the previous nonzero slope sign across flat runs; leading
    # flat slopes index the first one, which is zero, and stay zero
    last = np.maximum.accumulate(np.where(s != 0, np.arange(len(s)), 0))
    filled = s[last]
    changes = np.flatnonzero(filled[1:] * filled[:-1] < 0) + 1
    return changes


def _window_amplitude(x_ext, h_ext, lo: float, hi: float) -> float:
    """Half the crest-to-trough height of the extrema (x_ext, h_ext) inside
    [lo, hi]; zero when fewer than two fall inside."""
    vals = h_ext[(x_ext >= lo) & (x_ext <= hi)]
    if len(vals) < 2:
        return 0.0
    return 0.5 * float(vals.max() - vals.min())


def oscillation_amplitude(snapshot: Snapshot, lo: float, hi: float) -> float:
    """Half the crest-to-trough height of oscillations inside [lo, hi].

    Zero when fewer than two extrema fall inside the window.
    """
    idx = _extrema_indices(snapshot.h)
    return _window_amplitude(snapshot.x[idx], snapshot.h[idx], lo, hi)


def classify_structure(snapshot: Snapshot, sol: SwweSolution) -> str:
    """Label the bore interior as one of the four canonical structures.

    Oscillation amplitudes are measured in the 20 m window centred on
    x_u2 and on the two adjacent 20 m flank windows; the whole span
    between the rarefaction tail and the shock decides the non-oscillatory
    case.
    """
    t = snapshot.t
    if not t > 0:
        raise ValueError("classification needs t > 0")
    x_u2 = sol.x_u2(t)
    if not snapshot.x[0] <= x_u2 <= snapshot.x[-1]:
        return "Unclassified"
    c2 = math.sqrt(sol.g * sol.h2)
    x_tail = sol.x0 + t * (sol.u2 - c2)
    x_front = sol.x_shock(t)

    idx = _extrema_indices(snapshot.h)
    extrema = snapshot.x[idx], snapshot.h[idx]
    eps1, rho = OSCILLATION_FLOOR, AMPLITUDE_RATIO
    if _window_amplitude(*extrema, x_tail, x_front) < eps1:
        return "S1"
    amp_mid = _window_amplitude(*extrema, x_u2 - 10.0, x_u2 + 10.0)
    amp_lf = _window_amplitude(*extrema, x_u2 - 30.0, x_u2 - 10.0)
    amp_rf = _window_amplitude(*extrema, x_u2 + 10.0, x_u2 + 30.0)
    if amp_mid < eps1 and max(amp_lf, amp_rf) >= eps1:
        return "S2"
    if amp_mid < rho * min(amp_lf, amp_rf):
        return "S3"
    if amp_mid > max(amp_lf, amp_rf) / rho:
        return "S4"
    return "Unclassified"


def diagnose(snapshot: Snapshot, g: float, totals_0=None,
             sol: SwweSolution | None = None) -> DiagnosticsRecord:
    """Assemble the full diagnostics row for one snapshot."""
    c_star = totals(snapshot, g)
    record = DiagnosticsRecord(t=snapshot.t, C_star_h=c_star[0],
                               C_star_uh=c_star[1], C_star_H=c_star[2])
    if totals_0 is not None:
        record.C1_h, record.C1_uh, record.C1_H = conservation_error(
            totals_0, snapshot, g, c_star)
    if sol is not None and snapshot.t > 0:
        record.structure = classify_structure(snapshot, sol)
        crest = leading_wave(snapshot, sol)
        if crest is not None:
            record.x_A, record.A = crest
        record.h_mean, record.u_mean, _ = bore_means(snapshot, sol)
    return record
