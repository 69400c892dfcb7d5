"""Closed-form comparators: shallow-water dam-break solution and Whitham
modulation leading-wave prediction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BISECTION_TOL = 1e-13
BISECTION_MAX_ITER = 200

# standard dam site used throughout: transition centred at 500 m
DEFAULT_X0 = 500.0


class RootBracketError(ValueError):
    """The requested root lies outside the admissible bracket."""


def _bisect(f, lo, hi):
    """Guarded bisection; chosen over Newton for guaranteed bracketing."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RootBracketError(f"no sign change on [{lo}, {hi}]")
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= BISECTION_TOL:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SwweSolution:
    """Constants and profile of the shallow-water dam-break solution."""

    h0: float
    h1: float
    g: float
    x0: float
    h2: float
    u2: float
    S2: float

    def x_u2(self, t: float) -> float:
        return self.x0 + self.u2 * t

    def x_shock(self, t: float) -> float:
        return self.x0 + self.S2 * t


def _midstate_residual(h2, h0, h1):
    inner = 2.0 * h2 / (h2 - h0) * (math.sqrt(h1) - math.sqrt(h2)) / math.sqrt(h0)
    return h2 - 0.5 * h0 * (math.sqrt(1.0 + 8.0 * inner ** 2) - 1.0)


def solve_swwe_dambreak(h0: float, h1: float, g: float = 9.81,
                        x0: float = DEFAULT_X0) -> SwweSolution:
    """Solve the dam-break mid-state by bisection of the implicit relation."""
    if not h1 > h0 > 0:
        raise ValueError("need h1 > h0 > 0")
    h2 = _bisect(lambda h: _midstate_residual(h, h0, h1),
                 h0 * (1.0 + 1e-12), h1)
    u2 = 2.0 * (math.sqrt(g * h1) - math.sqrt(g * h2))
    s2 = h2 * u2 / (h2 - h0)
    return SwweSolution(h0=h0, h1=h1, g=g, x0=x0, h2=h2, u2=u2, S2=s2)


def swwe_profile(sol: SwweSolution, x, t: float):
    """Piecewise (h, u) profile at time t > 0.

    Left state, rarefaction fan, constant mid-state, right state; the fan
    joins its neighbours continuously, which the tests verify.
    """
    if not t > 0:
        raise ValueError("profile defined for t > 0")
    x = np.asarray(x, dtype=float)
    c1 = math.sqrt(sol.g * sol.h1)
    c2 = math.sqrt(sol.g * sol.h2)
    xi = (x - sol.x0) / t
    h = np.empty_like(x)
    u = np.empty_like(x)

    left = xi <= -c1
    fan = (~left) & (xi <= sol.u2 - c2)
    shock_xi = sol.S2
    mid = (~left) & (~fan) & (xi <= shock_xi)
    right = xi > shock_xi

    h[left] = sol.h1
    u[left] = 0.0
    h[fan] = (2.0 * c1 - xi[fan]) ** 2 / (9.0 * sol.g)
    u[fan] = (2.0 / 3.0) * (xi[fan] + c1)
    h[mid] = sol.h2
    u[mid] = sol.u2
    h[right] = sol.h0
    u[right] = 0.0
    return h, u


@dataclass(frozen=True)
class WhithamPrediction:
    """Leading-wave amplitude and speed of an undular bore."""

    h0: float
    h1: float
    g: float
    x0: float
    h_b: float          # bore height (m)
    delta: float        # h_b / h0
    a_plus_dimless: float
    A_plus: float       # crest depth h0 (a + 1), metres
    S_plus: float       # leading-wave speed, m/s

    def x_front(self, t: float) -> float:
        return self.x0 + self.S_plus * t


def _amplitude_residual(a, delta):
    s = math.sqrt(a + 1.0)
    return (delta / (a + 1.0) ** 0.25
            - (3.0 / (4.0 - s)) ** 2.1 * (2.0 / (1.0 + s)) ** 0.4)


def whitham_leading_wave(h0: float, h1: float, g: float = 9.81,
                         x0: float = DEFAULT_X0) -> WhithamPrediction:
    """Leading-wave prediction from the modulation-theory amplitude relation.

    The amplitude relation is solved for the dimensionless amplitude a on
    (0, 15); the reported crest depth is h0 (a + 1) and the speed
    sqrt(g h0 (a + 1)), so that S = sqrt(g A) holds for the pair.
    """
    if not h1 > h0 > 0:
        raise ValueError("need h1 > h0 > 0")
    h_b = 0.25 * h0 * (math.sqrt(h1 / h0) + 1.0) ** 2
    delta = h_b / h0
    if delta <= 1.0:
        a = 0.0
    else:
        hi = 15.0 - 1e-9
        if _amplitude_residual(hi, delta) > 0.0:
            raise RootBracketError(
                f"bore ratio {delta} beyond the singular amplitude bracket")
        a = _bisect(lambda s: _amplitude_residual(s, delta), 0.0, hi)
    a_plus = h0 * (a + 1.0)
    s_plus = math.sqrt(g * h0 * (a + 1.0))
    return WhithamPrediction(h0=h0, h1=h1, g=g, x0=x0, h_b=h_b, delta=delta,
                             a_plus_dimless=a, A_plus=a_plus, S_plus=s_plus)
