"""The two second-order time-stepping schemes.

Both schemes share the implicit centred momentum update (a tridiagonal
solve per step).  Scheme D pairs it with a centred leapfrog mass update;
scheme E pairs it with a two-step Lax-Wendroff mass update that consumes
the freshly computed velocity.  No limiter, filtering or artificial
viscosity anywhere: the schemes' intrinsic dispersive/diffusive character
is the point.

When the host can build it, a C kernel (_step.c) does a step's array
work: the momentum assembly, the tridiagonal solve (a transcription of
LAPACK dgtsv) and the two mass updates, which share one signature,
writing into a Workspace owned by the State, so that a compiled step
allocates nothing.  The numpy layers are its references, plain
expressions written in _step.c's order of operations: the self-check and
the tests hold the kernel to their bits, and they are the fallback on a
host without the kernel, with SciPy's dgtsv for the solve.  Both paths
give the same bits until a subnormal appears; the x86-64 kernel flushes
it, the numpy fallback does not.  The numpy layers allocate temporaries;
only that path loads SciPy.  The same library holds io's CSV formatter
(_format.cc).
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
from importlib import resources

import numpy as np

from .core import SimConfig, State, take_snapshot


class SolverError(RuntimeError):
    """Fatal stepping failure (positivity loss, non-finite values,
    singular momentum system).

    run_to attaches the number of steps completed before the failure and
    the step log made by then, so that the caller can keep them; the
    snapshots taken by then have already gone to its sink.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.step = None
        self.log = np.empty((0, 5))


class Workspace:
    """Preallocated work arrays of one grid: the rows that a step writes.

    Interior-length rows hold the tridiagonal system (sub, diag, sup) and
    the new depths (h_next); u_full is the new velocity with ghosts, which
    scheme E reads, and rhs is its interior, so the solve writes the new
    velocities straight into it.  Nothing writes u_full's ghosts, so they
    stay zero.  The rows share one block, so that releasing the workspace
    returns it to the system whole instead of leaving holes in the heap.
    """

    def __init__(self, n_cells: int, ghost_layers: int):
        rows = np.zeros((5, n_cells + 2 * ghost_layers))
        self.sub, self.diag, self.sup, self.h_next = rows[:4, :n_cells]
        self.u_full = rows[4]
        self.rhs = self.u_full[ghost_layers:ghost_layers + n_cells]


def _workspace(state: State) -> Workspace:
    """The state's work arrays, made on first use."""
    if state.work is None:
        state.work = Workspace(state.grid.n_cells, state.grid.ghost_layers)
    return state.work


def assemble_momentum_system(h, u, u_prev, dx, dt, g, ng, work):
    """Tridiagonal system for the new interior velocities, written into
    work.sub/diag/sup/rhs by the C kernel or by numpy (the same bits until
    a subnormal appears; the x86-64 kernel flushes it, numpy does not).

    The implicit operator is the centred discretisation of
    h u_t - d/dx((h^3/3) du_t/dx), expanded so that row i reads
        (h^2 h_x/(2 dx) - h^3/(3 dx^2)) u_{i-1}
        + (h + 2 h^3/(3 dx^2))          u_i
        - (h^2 h_x/(2 dx) + h^3/(3 dx^2)) u_{i+1}  = -Y_i
    with Y built from the current and previous levels and all spatial
    derivatives second-order centred.  The velocity stencil reaches
    i +- 2, hence the two ghost layers.

    Returns whether every row is strictly diagonally dominant,
    |diag| > |sub| + |sup|.
    """
    kernel = _step_kernel()
    if kernel is not None:
        return _assemble_with_kernel(kernel, h, u, u_prev, dx, dt, g, ng,
                                     work)
    return _assemble_numpy(h, u, u_prev, dx, dt, g, ng, work)


def _assemble_numpy(h, u, u_prev, dx, dt, g, ng, work):
    """assemble_momentum_system(...) by numpy, in _step.c's order of
    operations."""
    c = slice(ng, -ng)
    hc, uc, upc = h[c], u[c], u_prev[c]
    up, um = u[ng + 1:-ng + 1], u[ng - 1:-ng - 1]
    upp1, upm1 = u_prev[ng + 1:-ng + 1], u_prev[ng - 1:-ng - 1]
    ux = (up - um) / (2.0 * dx)
    hx = (h[ng + 1:-ng + 1] - h[ng - 1:-ng - 1]) / (2.0 * dx)
    uxx = ((up - uc * 2.0) + um) / dx ** 2
    uxxx = ((((u[ng + 2:] - up * 2.0) + um * 2.0) - u[ng - 2:-ng - 2])
            / (2.0 * dx ** 3))
    h2 = hc * hc
    h3 = h2 * hc
    h2hx = h2 * hx
    h3_3 = h3 / 3.0
    x = (uc * hc * ux + hc * g * hx + h2hx * ux * ux + h3_3 * ux * uxx
         - h2hx * uc * uxx - h3_3 * uc * uxxx)
    y = (x * (2.0 * dt) - hc * upc + (upp1 - upm1) * h2hx / (2.0 * dx)
         + ((upp1 - upc * 2.0) + upm1) * h3_3 / dx ** 2)
    p = h2hx / (2.0 * dx)
    q = h3 / (3.0 * dx ** 2)
    sub, diag, sup, rhs = work.sub, work.diag, work.sup, work.rhs
    sub[:] = p - q
    diag[:] = h3 * 2.0 / (3.0 * dx ** 2) + hc
    sup[:] = -p - q
    rhs[:] = -y
    # fold the Dirichlet ghost velocities into the right-hand side
    rhs[0] -= sub[0] * u[ng - 1]
    rhs[-1] -= sup[-1] * u[-ng]
    return bool((np.abs(diag) > np.abs(sub) + np.abs(sup)).all())


def solve_tridiagonal(sub, diag, sup, rhs):
    """Solve sub[i] x[i-1] + diag[i] x[i] + sup[i] x[i+1] = rhs[i] in
    place: the four arrays, contiguous float64 rows of one length, are
    destroyed and the solution is written into rhs, which is returned.

    LAPACK dgtsv: Gaussian elimination with partial pivoting, run by its
    C transcription in _step.c, or by SciPy's LAPACK when the kernel is
    unavailable.  Both give the same bits until a subnormal appears; the
    x86-64 kernel flushes it, the numpy fallback does not, so that a
    subnormal pivot is a zero pivot there.  sub[0] and sup[-1] lie outside
    the matrix and are ignored.  A system of fewer than 2 rows raises
    ValueError; an exactly singular matrix (a zero pivot) raises
    SolverError.
    """
    if len(diag) < 2:
        raise ValueError("a tridiagonal system needs at least 2 rows")
    kernel = _step_kernel()
    if kernel is None:
        x, info = _gtsv_lapack(sub, diag, sup, rhs)
    else:
        x, info = _gtsv_with_kernel(kernel, sub, diag, sup, rhs)
    if info != 0:
        raise SolverError(f"singular tridiagonal system (dgtsv info = {info})")
    return x


def _gtsv_lapack(sub, diag, sup, rhs):
    """(x, info) of SciPy's dgtsv, in place.  SciPy is imported here, on
    the numpy path only, so that a process on the kernel path never loads
    it."""
    from scipy.linalg.lapack import dgtsv
    _, _, _, x, info = dgtsv(sub[1:], diag, sup[:-1], rhs, overwrite_dl=True,
                             overwrite_d=True, overwrite_du=True,
                             overwrite_b=True)
    return x, info


def _leapfrog_numpy(h, u, h_prev, dx, dt, ng, work):
    """The depths of mass_update_leapfrog by numpy, in _step.c's order of
    operations, into work.h_next."""
    c = slice(ng, -ng)
    a = (h[ng + 1:-ng + 1] - h[ng - 1:-ng - 1]) * u[c] / dx
    b = (u[ng + 1:-ng + 1] - u[ng - 1:-ng - 1]) * h[c] / dx
    work.h_next[:] = h_prev[c] - (a + b) * dt
    return work.h_next


def _lax_wendroff_numpy(h, u, un1, dx, dt, ng, work):
    """The depths of mass_update_lax_wendroff by numpy, in _step.c's order
    of operations, into work.h_next; un1 is the new velocity with ghosts."""
    # faces i+1/2, i = ng-1 .. n+ng-1: right (r) and left (l) neighbours
    h_r, h_l = h[ng:-ng + 1], h[ng - 1:-ng]
    u_r, u_l = u[ng:-ng + 1], u[ng - 1:-ng]
    # half-step depth times the four-point half-step velocity
    hf = (h_r + h_l) * 0.5 - (u_r * h_r - h_l * u_l) * (dt / (2.0 * dx))
    flux = (un1[ng:-ng + 1] + u_r + un1[ng - 1:-ng] + u_l) * 0.25 * hf
    work.h_next[:] = h[ng:-ng] - (flux[1:] - flux[:-1]) * (dt / dx)
    return work.h_next


_KERNEL_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC",
                 "-shared")
# the kernel's source files, each with the language c++ compiles it as
_KERNEL_SOURCES = {"_step.c": "c", "_format.cc": "c++"}


def _pointers(length, *arrays):
    """The data pointers of arrays; each must be `length` contiguous
    float64 cells, the extent that the kernel reads or writes."""
    for arr in arrays:
        if (arr.dtype != np.float64 or arr.shape != (length,)
                or not arr.flags.c_contiguous):
            raise ValueError("the C kernel needs contiguous float64 "
                             f"arrays of {length} cells")
    return [arr.ctypes.data for arr in arrays]


def _assemble_with_kernel(kernel, h, u, u_prev, dx, dt, g, ng, work):
    """_assemble_numpy(...) by the C kernel."""
    n = len(work.rhs)
    return bool(kernel.assemble_momentum(
        *_pointers(n + 2 * ng, h, u, u_prev), work.sub.ctypes.data,
        work.diag.ctypes.data, work.sup.ctypes.data, work.rhs.ctypes.data,
        n, ng, g, 2.0 * dx, dx ** 2, 2.0 * dx ** 3, 3.0 * dx ** 2, 2.0 * dt))


def _gtsv_with_kernel(kernel, sub, diag, sup, rhs):
    """(x, info) as _gtsv_lapack gives them, from the C dgtsv."""
    n = len(diag)
    dl, d, du, b = _pointers(n, sub, diag, sup, rhs)
    # dgtsv's sub-diagonal starts at sub[1]
    return rhs, kernel.gtsv(n, dl + sub.itemsize, d, du, b)


def _mass_with_kernel(function, h, u, third, dx, dt, ng, work):
    """_leapfrog_numpy(...) or _lax_wendroff_numpy(...) by its C function,
    kernel.mass_leapfrog or kernel.mass_lax_wendroff."""
    n = len(work.h_next)
    function(*_pointers(n + 2 * ng, h, u, third), work.h_next.ctypes.data,
             n, ng, dx, dt)
    return work.h_next


def _format_with_kernel(kernel, block, buf):
    """The CSV body of a 2-D float64 block, written by the C kernel into
    buf (a contiguous uint8 array): each value as "%.17g" % v, fields
    joined by "," and rows ended by CRLF.  Returns the view of buf that
    holds it."""
    if (block.dtype != np.float64 or block.ndim != 2
            or not block.flags.c_contiguous):
        raise ValueError("the C formatter needs a contiguous 2-D float64 "
                         "block")
    if buf.dtype != np.uint8 or buf.ndim != 1 or not buf.flags.c_contiguous:
        raise ValueError("the C formatter needs a contiguous uint8 buffer")
    size = kernel.format_rows(block.ctypes.data, *block.shape,
                              buf.ctypes.data, len(buf))
    if size < 0:
        raise ValueError(f"{len(block)} rows do not fit in {len(buf)} bytes")
    return buf[:size]


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _kernel_agrees(kernel) -> bool:
    """Whether every entry point of the kernel gives the numpy (or SciPy)
    result bit for bit on fixed data of 67 cells (an odd length reaches
    the vector tail): the assembly and its flag, the solve of a
    diagonally dominant system and of one that pivots (against SciPy's
    dgtsv), and both mass updates.  The values are seeded-random and dt
    is large, so that every term reaches the last bits: a smooth state
    with a small dt hides a reordered product.  exp and sinh spread the
    values over several binades; uniform draws share one binary grid, on
    which most sums are exact whatever their order.  Last, the formatter
    must write Python's "%.17g" bytes (see _format_agrees).  No value or
    intermediate is subnormal, so the x86-64 kernel's flush never acts."""
    n, ng = 67, 2
    rng = np.random.default_rng(67)
    h, h_prev = np.exp(rng.uniform(-1.0, 1.0, (2, n + 2 * ng)))
    u, u_prev = np.sinh(rng.uniform(-2.0, 2.0, (2, n + 2 * ng)))
    expected, got = Workspace(n, ng), Workspace(n, ng)
    args = (h, u, u_prev, 0.3, 0.7, 9.81, ng)
    rows = ("sub", "diag", "sup", "rhs")
    if not (_assemble_numpy(*args, expected)
            == _assemble_with_kernel(kernel, *args, got) and all(
                _same_bits(getattr(expected, r), getattr(got, r))
                for r in rows)):
        return False
    # |diag| > 2 > |sub| + |sup| never pivots; about half the rows of
    # the random system do
    pivoting = np.tanh(rng.uniform(-2.0, 2.0, (4, n)))
    dominant = pivoting.copy()
    dominant[1] += np.copysign(2.0, dominant[1])
    for system in (dominant, pivoting):
        x, info = _gtsv_lapack(*system.copy())
        y, got_info = _gtsv_with_kernel(kernel, *system.copy())
        if got_info != info or not _same_bits(x, y):
            return False
    for reference, function, third in (
            (_leapfrog_numpy, kernel.mass_leapfrog, h_prev),
            (_lax_wendroff_numpy, kernel.mass_lax_wendroff, u_prev)):
        args = (h, u, third, 0.3, 0.7, ng)
        if not _same_bits(reference(*args, expected),
                          _mass_with_kernel(function, *args, got)):
            return False
    return _format_agrees(kernel, rng)


# %.17g's edge cases: signed zeros, infinities and a NaN with the sign bit
# set; the subnormals; the switch from fixed to exponent notation at 1e17
# and below 1e-4, with values that round up across it; 2**53 + 2 and the
# two powers of ten on either side of the exact-double limit
_FORMAT_EDGES = (0.0, -0.0, math.inf, -math.inf, -math.nan, 5e-324, 1e-310,
                1e16, 1e17, 99999999999999999.0, 9.9999999999999999e-5, 1e-5,
                2.0 ** 53 + 2, 1e22, 1e23)


def _format_agrees(kernel, rng) -> bool:
    """Whether the kernel's CSV body of _FORMAT_EDGES and of 300 random bit
    patterns (both signs, every exponent, NaN payloads) is Python's
    "%.17g" % v per field, joined by "," and ended by CRLF per row of
    three; and whether a buffer one byte short is refused with nothing
    written past its end."""
    patterns = rng.integers(0, 2 ** 64, 300, dtype=np.uint64)
    block = np.concatenate((_FORMAT_EDGES, patterns.view(np.float64)))
    block = block.reshape(-1, 3)
    expected = "".join(",".join("%.17g" % v for v in row) + "\r\n"
                       for row in block.tolist()).encode()
    buf = np.empty(len(expected) + 1, np.uint8)
    if bytes(_format_with_kernel(kernel, block, buf)) != expected:
        return False
    buf[:] = 0
    short = kernel.format_rows(block.ctypes.data, *block.shape,
                               buf.ctypes.data, len(expected) - 1)
    return short == -1 and buf[-2:].tolist() == [0, 0]


def _load_kernel():
    """The library built from _step.c and _format.cc, with its five
    functions bound, or None.

    The kernel is built by one call of the host's `c++` with _KERNEL_FLAGS,
    which compiles _step.c as C and _format.cc as C++, and is cached under
    $XDG_CACHE_HOME/serrelab (default ~/.cache/serrelab).  The cache key
    hashes both sources, the flags, the compiler's real path, size and
    mtime, and the host name, since -march=native ties the binary to its
    host.  A cached kernel loads without starting a process.  A new build
    happens in a temporary directory in the cache and is moved into place
    only after _kernel_agrees, so concurrent builds are safe.  Any failure
    (no c++, a compile error, a mismatch, an unwritable cache, a library
    that does not load) returns None, with no message: the caller then
    takes the numpy path.
    """
    try:
        cxx = shutil.which("c++")
        if cxx is None:
            return None
        cxx = os.path.realpath(cxx)
        package = resources.files(__package__)
        sources = {name: package.joinpath(name).read_bytes()
                   for name in _KERNEL_SOURCES}
        stat = os.stat(cxx)
        key = hashlib.sha256(repr((
            sources, _KERNEL_FLAGS, cxx, stat.st_size, stat.st_mtime_ns,
            platform.node())).encode()).hexdigest()[:32]
        cache = os.path.join(os.path.expanduser(
            os.environ.get("XDG_CACHE_HOME") or "~/.cache"), "serrelab")
        path = os.path.join(cache, f"step-{key}.so")
        if os.path.exists(path):
            return _bind(path)
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as build:
            command = [cxx, *_KERNEL_FLAGS]
            for name, language in _KERNEL_SOURCES.items():
                source = os.path.join(build, name)
                with open(source, "wb") as fh:
                    fh.write(sources[name])
                command += ["-x", language, source]
            tmp = os.path.join(build, "step.so")
            subprocess.run([*command, "-o", tmp], capture_output=True,
                           check=True, timeout=120)
            if not _kernel_agrees(_bind(tmp)):
                return None
            os.replace(tmp, path)
        return _bind(path)
    except (OSError, subprocess.SubprocessError):
        return None


def _bind(path):
    kernel = ctypes.CDLL(path)
    ptr, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    mass = [ptr] * 4 + [size] * 2 + [real] * 2
    for name, argtypes, restype in (
            ("assemble_momentum", [ptr] * 7 + [size] * 2 + [real] * 6,
             ctypes.c_int),
            ("gtsv", [size] + [ptr] * 4, size),
            ("mass_leapfrog", mass, None), ("mass_lax_wendroff", mass, None),
            ("format_rows", [ptr] + [size] * 2 + [ptr, size], size)):
        function = getattr(kernel, name)
        function.argtypes = argtypes
        function.restype = restype
    return kernel


@functools.lru_cache(maxsize=None)
def _step_kernel():
    """_load_kernel(), once per process; None means the numpy path."""
    return _load_kernel()


def momentum_update(state: State, config: SimConfig):
    """New interior velocities by direct tridiagonal elimination.

    Returns (u_next, diag_dominant); u_next is the interior of the
    workspace's u_full.  Row i is strictly diagonally dominant iff
    h^2 |h_x| / dx < h + 2 h^3 / (3 dx^2); steep fronts on coarse grids
    break this, so it is checked on every solve, and the solve pivots.
    """
    work = _workspace(state)
    dominant = assemble_momentum_system(
        state.h, state.u, state.u_prev, state.grid.dx, config.dt, config.g,
        state.grid.ghost_layers, work)
    u_next = solve_tridiagonal(work.sub, work.diag, work.sup, work.rhs)
    if not (math.isfinite(u_next.min()) and math.isfinite(u_next.max())):
        raise SolverError("non-finite velocity after momentum solve")
    return u_next, dominant


def mass_update_leapfrog(state: State, config: SimConfig):
    """Centred mass update advancing from the previous level:
    h_prev - dt (u (hp - hm) / dx + h (up - um) / dx), into work.h_next.
    """
    return _mass_update(state, config, state.h_prev, _leapfrog_numpy,
                        "mass_leapfrog")


def mass_update_lax_wendroff(state: State, config: SimConfig):
    """Two-step Lax-Wendroff mass update, into work.h_next.

    Half-step depths come from the current level; half-step velocities are
    the four-point space-time average with the new velocities of the last
    momentum solve, read from the workspace's u_full (zero ghosts).
    """
    return _mass_update(state, config, _workspace(state).u_full,
                        _lax_wendroff_numpy, "mass_lax_wendroff")


def _mass_update(state, config, third, reference, name):
    """A mass update of (h, u, third) by kernel.<name> or by reference."""
    args = (state.h, state.u, third, state.grid.dx, config.dt,
            state.grid.ghost_layers, _workspace(state))
    kernel = _step_kernel()
    if kernel is not None:
        return _mass_with_kernel(getattr(kernel, name), *args)
    return reference(*args)


def apply_euler_bootstrap(state: State, config: SimConfig) -> None:
    """Replace the copied previous level by a backward extrapolation.

    At rest the momentum system applied to (u = 0, u_prev = 0) returns
    2 dt du/dt, so u(-dt) is minus half of that solve.  h(-dt) = h(0)
    exactly since u = 0 makes the depth stationary.
    """
    u_rate2dt, _ = momentum_update(state, config)
    c = state.grid.interior
    np.multiply(u_rate2dt, -0.5, out=state.u_prev[c])


def step(state: State, config: SimConfig):
    """Advance one step of config.dt with the configured scheme; rotates
    time levels.

    Returns the step's log row (step, t, min_h, max_abs_u, diag_dominant).

    Both mass updates are called as (state, config) by their module-level
    names.  Writes interiors only: the ghost cells keep the Dirichlet data
    of the initial condition.  On SolverError the state is left as it was.
    """
    c = state.grid.interior
    u_next, dominant = momentum_update(state, config)
    if config.scheme == "D":
        h_next = mass_update_leapfrog(state, config)
    else:
        h_next = mass_update_lax_wendroff(state, config)

    min_h = float(h_next.min())
    if not (math.isfinite(min_h) and math.isfinite(h_next.max())):
        raise SolverError("non-finite depth after mass update")
    if not min_h > 0.0:
        raise SolverError(f"depth positivity lost (min h = {min_h:.3e})")
    max_abs_u = float(max(abs(u_next.min()), abs(u_next.max())))

    # rotate levels n -> n-1
    state.h_prev, state.h = state.h, state.h_prev
    state.u_prev, state.u = state.u, state.u_prev
    state.h[c] = h_next
    state.u[c] = u_next

    state.step += 1
    # step counter, not accumulated t, to avoid drift over ~1e5 steps
    state.t = state.step * config.dt
    return state.step, state.t, min_h, max_abs_u, dominant


def run_to(state: State, config: SimConfig, sink):
    """Step the initial state to config.t_end, with a snapshot at each of
    config.snapshot_steps.

    Each snapshot goes to sink(snapshot) as soon as it is taken, in time
    order.

    Returns the log, whose row i is step i + 1's (step, t, min_h,
    max_abs_u, diag_dominant).  On solver failure the error carries the
    number of steps completed (its step, equal to the length of its log)
    and the log rows made so far.
    """
    log = np.empty((config.n_steps, 5))
    try:
        apply_euler_bootstrap(state, config)
        if 0 in config.snapshot_steps:
            sink(take_snapshot(state))
        for i in range(config.n_steps):
            log[i] = step(state, config)
            if state.step in config.snapshot_steps:
                sink(take_snapshot(state))
    except SolverError as exc:
        exc.step, exc.log = state.step, log[:state.step]
        raise
    return log
