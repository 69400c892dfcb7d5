"""Physical configuration, uniform grids, state storage and the smoothed
dam-break initial conditions shared by both time-stepping schemes.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

GHOST_LAYERS = 2
SCHEMES = ("D", "E")


class ConfigError(ValueError):
    """Invalid, missing or unknown configuration data."""


def _whole(q: float, message: str, least: int = 0) -> int:
    """The whole number nearest q, which must be at least `least` and
    within 1e-9 max(1, q) of q, or ConfigError(message)."""
    if not math.isfinite(q):
        raise ConfigError(message)
    n = round(q)
    if n < least or abs(q - n) > 1e-9 * max(1.0, q):
        raise ConfigError(message)
    return n


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """All physical and numerical parameters of one simulation run; frozen,
    so the counts that validate() derives cannot go stale.  The settable
    fields are the config file's keys, in file order."""

    h0: float                    # right-state depth (m)
    h1: float                    # left-state depth (m)
    x0: float                    # transition centre (m)
    alpha: float                 # smoothing length (m)
    domain_a: float
    domain_b: float
    dx: float
    dt_factor: float = 0.01      # dt = dt_factor * dx
    t_end: float
    g: float = 9.81
    scheme: str                  # D: leapfrog mass update, E: Lax-Wendroff
    snapshot_times: tuple = ()
    # set by validate(); snapshot_steps includes n_steps
    n_cells: int = field(init=False, repr=False)
    n_steps: int = field(init=False, repr=False)
    snapshot_steps: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self.__dict__["snapshot_times"] = tuple(
            float(t) for t in self.snapshot_times)
        self.validate()

    def validate(self):
        for name in ("h0", "h1", "alpha", "dx", "dt_factor", "t_end", "g"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not self.domain_a < self.domain_b:
            raise ConfigError("domain_a must be less than domain_b")
        if not self.domain_a < self.x0 < self.domain_b:
            raise ConfigError("x0 must lie strictly inside the domain")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}")
        a, b, dt = self.domain_a, self.domain_b, self.dt
        # diagnostics.totals fits its quartic interpolants to five cells
        n_cells = _whole(
            (b - a) / self.dx, f"dx = {self.dx} does not tile [{a}, {b}] "
            f"with a whole number of at least 5 cells", least=5)
        n_steps = _whole(
            self.t_end / dt, f"t_end = {self.t_end} is not a positive whole "
            f"number of steps dt = {dt}", least=1)
        steps = {n_steps}
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.t_end:
                raise ConfigError(f"snapshot_times entry {t} lies outside "
                                  f"[0, t_end = {self.t_end}]")
            steps.add(_whole(t / dt, f"snapshot_times entry {t} is not a "
                             f"whole number of steps dt = {dt}"))
        self.__dict__.update(n_cells=n_cells, n_steps=n_steps,
                             snapshot_steps=frozenset(steps))

    @property
    def dt(self) -> float:
        return self.dt_factor * self.dx

    def require_midpoint(self):
        """The analytic conserved-total formulas need x0 at the domain centre."""
        mid = 0.5 * (self.domain_a + self.domain_b)
        if abs(self.x0 - mid) > 1e-9 * (self.domain_b - self.domain_a):
            raise ConfigError(
                f"x0 = {self.x0} is not the domain midpoint {mid}")


# keys of a config file, in file order; required = no default
CONFIG_KEYS = tuple(f.name for f in fields(SimConfig) if f.init)
REQUIRED_KEYS = tuple(f.name for f in fields(SimConfig)
                      if f.init and f.default is MISSING)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centred grid with two ghost cells at each end."""

    a: float
    dx: float
    n_cells: int
    ghost_layers: ClassVar[int] = GHOST_LAYERS

    @classmethod
    def from_config(cls, config: SimConfig) -> "Grid":
        return cls(config.domain_a, config.dx, config.n_cells)

    @property
    def n_total(self) -> int:
        return self.n_cells + 2 * self.ghost_layers

    @cached_property
    def x(self) -> np.ndarray:
        """Interior cell centres a + (i + 1/2) dx.

        Computed once and read-only: every snapshot of a run shares it.
        """
        i = np.arange(self.n_cells)
        x = self.a + (i + 0.5) * self.dx
        x.flags.writeable = False
        return x

    @property
    def x_all(self) -> np.ndarray:
        """Cell centres including ghost cells."""
        i = np.arange(-self.ghost_layers, self.n_cells + self.ghost_layers)
        return self.a + (i + 0.5) * self.dx

    @property
    def interior(self) -> slice:
        return slice(self.ghost_layers, self.ghost_layers + self.n_cells)


@dataclass
class State:
    """Two time levels of (h, u) on a grid, with ghost cells."""

    grid: Grid
    h: np.ndarray
    u: np.ndarray
    h_prev: np.ndarray
    u_prev: np.ndarray
    t: float = 0.0
    step: int = 0
    # the stepper's work arrays (solvers.Workspace): made by the first
    # step, freed with the state
    work: object = field(default=None, repr=False, compare=False)

    def interior(self, arr: np.ndarray) -> np.ndarray:
        return arr[self.grid.interior]


@dataclass(frozen=True)
class Snapshot:
    """Interior (h, u) profile at one output time."""

    t: float
    x: np.ndarray
    h: np.ndarray
    u: np.ndarray

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])


def take_snapshot(state: State) -> Snapshot:
    return Snapshot(t=state.t, x=state.grid.x,
                    h=state.interior(state.h).copy(),
                    u=state.interior(state.u).copy())


def initial_depth(x, config: SimConfig):
    """Smoothed dam-break depth profile at t = 0."""
    return config.h0 + 0.5 * (config.h1 - config.h0) * (
        1.0 + np.tanh((config.x0 - x) / config.alpha))


def apply_dirichlet(state: State, config: SimConfig) -> None:
    """Write the far-field Dirichlet data into the ghost cells.

    Idempotent; interior cells are never touched.
    """
    ng = state.grid.ghost_layers
    for arr, left, right in ((state.h, config.h1, config.h0),
                             (state.h_prev, config.h1, config.h0),
                             (state.u, 0.0, 0.0),
                             (state.u_prev, 0.0, 0.0)):
        arr[:ng] = left
        arr[-ng:] = right


def smoothed_dambreak_ic(config: SimConfig, grid: Grid | None = None) -> State:
    """Build the t = 0 state: tanh depth transition, fluid at rest.

    The previous time level is a copy of the initial data; u = 0 forces
    dh/dt = 0 at t = 0, so the copy is exact for h and O(dt) in u.  The
    stepping loop replaces it by the forward-Euler bootstrap.
    """
    if grid is None:
        grid = Grid.from_config(config)
    h = initial_depth(grid.x_all, config)
    u = np.zeros(grid.n_total)
    state = State(grid=grid, h=h, u=u, h_prev=h.copy(), u_prev=u.copy())
    apply_dirichlet(state, config)
    return state


def analytic_totals(config: SimConfig) -> tuple[float, float, float]:
    """Closed-form conserved totals (mass, momentum, energy) of the IC.

    Valid only when x0 is the domain midpoint.  The energy total is the
    direct integral of g h(x,0)^2 / 2 over the domain.
    """
    config.require_midpoint()
    a, b = config.domain_a, config.domain_b
    h0, h1, al, g = config.h0, config.h1, config.alpha, config.g
    c_h = 0.5 * (h1 + h0) * (b - a)
    c_uh = 0.0
    c_ham = (g / 4.0) * ((h0 ** 2 + h1 ** 2) * (b - a)
                         + al * (h1 - h0) ** 2 * math.tanh((a - b) / (2 * al)))
    return c_h, c_uh, c_ham


# comma-separated keys of config and manifest files, and their entry type
_LIST_KEYS = {"snapshot_times": float, "alphas": float,
              "exclude_window": float, "levels": int}


def _parse_value(key: str, raw: str):
    """Type one config or manifest value: `scheme` is text, a list key a
    tuple (`()` when blank), any other key a float."""
    raw = raw.strip()
    if key == "scheme":
        return raw
    try:
        if key in _LIST_KEYS:
            return tuple(map(_LIST_KEYS[key], raw.split(","))) if raw else ()
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_key_values(text: str, keys, required) -> dict:
    """Raw value text of each `key = value` line, by key.

    Blank lines and `#` comments are skipped.  A key outside `keys`, a
    repeated key or a missing `required` key is a hard error.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"unknown key: {key}")
        if key in values:
            raise ConfigError(f"duplicate key: {key}")
        values[key] = raw
    for key in required:
        if key not in values:
            raise ConfigError(f"missing key: {key}")
    return values


def parse_config_text(text: str) -> SimConfig:
    """Parse `key = value` lines into a SimConfig."""
    values = parse_key_values(text, CONFIG_KEYS, REQUIRED_KEYS)
    return SimConfig(**{key: _parse_value(key, raw)
                        for key, raw in values.items()})


def parse_config_file(path) -> SimConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


def format_config(config: SimConfig) -> str:
    """Render a SimConfig back to the plain-text `key = value` format."""
    lines = []
    for key in CONFIG_KEYS:
        val = getattr(config, key)
        if key == "snapshot_times":
            val = ",".join(repr(t) for t in val)
        elif key != "scheme":
            val = repr(float(val))
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
