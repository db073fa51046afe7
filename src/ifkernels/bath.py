"""Harmonic-bath input: spectral density, discretized influence-functional
coefficients eta, and influence-factor matrices.

Conventions
-----------
Spectral density (ohmic with exponential cutoff):

    J(w) = (pi/2) * alpha * w * exp(-w / omega_c)

Bath correlation function (coth -> 1 at infinite beta, so
C(0) = alpha * omega_c^2 / 2 at zero temperature):

    C(t) = (1/pi) * int_0^inf J(w) [coth(beta w / 2) cos(w t) - i sin(w t)] dw

The package never evaluates C(t) for the physical bath: ``eta_table``
integrates in the spectral form below.

Discretized coefficients are double integrals of C(t - t') over the time
windows owned by each pair of path points.  Window assignment per splitting:

* ``sym_sys`` and ``asym``: step k owns [k dt, (k+1) dt) uniformly, so all
  coefficients depend on the separation k - k' only.
* ``sym_env``: interior step k owns the centered window
  [k dt - dt/2, k dt + dt/2]; the step at the measured end N owns the half
  window [N dt - dt/2, N dt], which is what makes the k = N coefficients
  differ from interior ones of equal separation.  The initial step keeps the
  full centered window, so pairs with k' = 0 carry interior values; only
  the measured end is endpoint-corrected.  This is the assignment under
  which the one-step-memory matrix hierarchies truncate exactly (see the
  kernels module).

Self coefficients (k = k') integrate the triangular region t' < t within
one window.

Spectral route
--------------
For the physical bath, ``eta_table`` moves the window integrals inside the
frequency integral, so each coefficient is a single integral over w (the
QuAPI coefficient form of Makri & Makarov, J. Chem. Phys. 102, 4600 (1995)):

    eta = (1/pi) * int_0^inf J(w) [coth(beta w / 2) Re phi(w) + i Im phi(w)] dw

For windows A = [a0, a1] and B = [b0, b1] (widths wa, wb, centres ca, cb),
phi is the product of the window transforms
hat_[a0, a1](w) = int_a0^a1 exp(-i w t) dt:

    phi(w) = hat_A(w) * conj(hat_B(w))
           = wa wb sinc(w wa / 2) sinc(w wb / 2) exp(-i w (ca - cb)),

with sinc(x) = sin(x) / x.  For the triangle t' < t in one window of width
w0, with x = w w0:

    phi(w) = (1 - i x - exp(-i x)) / w^2
           = w0^2 [sinc(x / 2)^2 / 2 - i (x - sin x) / x^2].

Both forms stay accurate as w -> 0: the sinc and the phase never divide
small differences, and x - sin x comes from its Taylor series for |x| < 1
instead of a cancelling subtraction.  All coefficients of a table are
integrated together, as one (coefficients x nodes) array per Gauss-Legendre
level on [0, 40 omega_c]; the node count doubles from OMEGA_NODES_START
until the whole vector changes by at most rtol relative to its largest
entry, and QuadratureError is raised past OMEGA_NODES_MAX.  Zero and finite
temperature share this route (coth -> 1 at beta = inf); alpha = 0 gives an
all-zero table without quadrature.

``eta_table_from_correlation`` integrates an arbitrary C(t) over the same
windows in the time domain (nested Gauss-Legendre rules) for synthetic
correlation functions.  Both routes share one window layout and one table
assembly step and differ only in how they integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ValidationError
from .liouville import SystemSpec, TimeGrid

SPLITTINGS = ("sym_env", "sym_sys", "asym")

# Quadrature controls (pinned so golden values are reproducible).
OMEGA_CUTOFF_FACTOR = 40.0
OMEGA_NODES_START = 128
OMEGA_NODES_MAX = 32768
OMEGA_RTOL = 1e-11
WINDOW_GAUSS_ORDERS = (24, 32, 48, 64, 96, 128, 192)
WINDOW_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralDensity:
    """Bath spectral density; only the ohmic-exponential family is supported."""

    kind: str
    alpha: float
    omega_c: float

    def __post_init__(self):
        if self.kind != "ohmic_exponential":
            raise ValidationError(f"unsupported spectral density kind {self.kind!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.omega_c)):
            raise ValidationError("non_finite: alpha and omega_c must be finite")
        if self.alpha < 0:
            raise ValidationError("alpha must be >= 0")
        if not self.omega_c > 0:
            raise ValidationError("omega_c must be > 0")


@dataclass(frozen=True)
class BathSpec:
    """Spectral density plus inverse temperature (math.inf = zero temperature)."""

    spectral_density: SpectralDensity
    beta: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValidationError("beta must be positive (use math.inf for T = 0)")


def _legendre(order: int, x: np.ndarray):
    """P_order(x) and its derivative by the three-term recurrence (|x| < 1)."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, order):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=64)
def _leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_order from x_k = cos(pi (4k - 1) / (4 order + 2)),
    for the nonnegative half of the nodes, mirrored; the weights are
    2 / ((1 - x^2) P'(x)^2).  O(order) memory and O(order^2) work, where
    the companion-matrix eigensolve takes an order x order matrix and
    O(order^3) work.
    """
    k = np.arange(1, (order + 1) // 2 + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * order + 2))
    for _ in range(20):  # 3 to 5 steps from these guesses up to 32768 nodes
        p, dp = _legendre(order, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:  # rounding level: steps settle near 1e-16
            break
    else:
        raise QuadratureError(f"quadrature_failed: Gauss-Legendre nodes of order {order}")
    _, dp = _legendre(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    mid = order % 2  # odd orders: the last node of the half is the origin
    if mid:
        x[-1] = 0.0
    return (
        np.concatenate((-x, x[::-1][mid:])),
        np.concatenate((w, w[::-1][mid:])),
    )


def _gauss_nodes(order: int, a: float, b: float):
    x, w = _leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# Window integrals
# ---------------------------------------------------------------------------


def _window_pair_integral(corr, win_a, win_b):
    """Integral of C(t - t') over t in win_a, t' in win_b (disjoint windows)."""
    (a0, a1), (b0, b1) = win_a, win_b
    prev = None
    for order in WINDOW_GAUSS_ORDERS:
        x, wx = _gauss_nodes(order, a0, a1)
        y, wy = _gauss_nodes(order, b0, b1)
        c = corr(np.subtract.outer(x, y).ravel()).reshape(order, order)
        val = wx @ c @ wy
        if prev is not None and abs(val - prev) <= WINDOW_RTOL * max(1.0, abs(val)):
            return complex(val)
        prev = val
    raise QuadratureError("quadrature_failed: window integral did not converge")


def _window_self_integral(corr, win):
    """Integral of C(t - t') over the triangle t' < t within one window."""
    a0, a1 = win
    width = a1 - a0
    prev = None
    for order in WINDOW_GAUSS_ORDERS:
        u, wu = _gauss_nodes(order, 0.0, width)
        s, ws = _gauss_nodes(order, 0.0, 1.0)
        # t - t' = u * (1 - s), Jacobian u
        args = np.multiply.outer(u, 1.0 - s).ravel()
        c = corr(args).reshape(order, order)
        val = (wu * u) @ c @ ws
        if prev is not None and abs(val - prev) <= WINDOW_RTOL * max(1.0, abs(val)):
            return complex(val)
        prev = val
    raise QuadratureError("quadrature_failed: self-window integral did not converge")


# ---------------------------------------------------------------------------
# Eta tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EtaTable:
    """Discretized influence-functional coefficients for one splitting.

    ``interior[m]`` is eta(k, k') of two path points m = k - k' apart
    (m = 0: the self triangle), for m = 0..horizon; ``right[m]`` is the
    coefficient when the later point is the measured end N, which differs
    only under sym_env.  For sym_sys and asym ``right is interior``.  Both
    are read-only complex arrays of one length, horizon + 1 >= 2.
    """

    splitting: str
    dt: float
    interior: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.splitting not in SPLITTINGS:
            raise ValidationError(f"unknown splitting {self.splitting!r}")
        interior = np.array(self.interior, dtype=complex)
        right = interior if self.right is self.interior else np.array(self.right, dtype=complex)
        if interior.ndim != 1 or interior.shape != right.shape or len(interior) < 2:
            raise ValidationError(
                f"eta arrays need one length >= 2, got {interior.shape} and {right.shape}"
            )
        if self.splitting != "sym_env" and right is not interior:
            raise ValidationError(f"{self.splitting} tables have no endpoint coefficients")
        interior.flags.writeable = right.flags.writeable = False
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "right", right)

    @property
    def horizon(self) -> int:
        return len(self.interior) - 1


# ---------------------------------------------------------------------------
# Window layout and table assembly
# ---------------------------------------------------------------------------


def _window_layout(grid: TimeGrid, splitting: str):
    """The window integrals of one table, in assembly order.

    Returns (triangles, pairs): the windows of the self (t' < t) integrals
    and the (win_a, win_b) windows of the separations m = 1..N.  sym_env
    appends the measured-end half window to the triangles and the
    measured-end pairs m = 1..N to the pairs.
    """
    if splitting not in SPLITTINGS:
        raise ValidationError(f"unknown splitting {splitting!r}")
    dt = grid.dt
    seps = range(1, grid.n_steps + 1)
    if splitting in ("sym_sys", "asym"):
        # Uniform windows [k dt, (k+1) dt): one value per separation.
        return [(0.0, dt)], [((m * dt, m * dt + dt), (0.0, dt)) for m in seps]
    # sym_env: centered windows; the measured end owns the trailing half window.
    h = 0.5 * dt
    pairs = [((m * dt - h, m * dt + h), (-h, h)) for m in seps]
    pairs += [((m * dt - h, m * dt), (-h, h)) for m in seps]
    return [(-h, h), (-h, 0.0)], pairs


def _assemble(grid: TimeGrid, splitting: str, values) -> EtaTable:
    """An EtaTable from window integrals in ``_window_layout`` order."""
    values = np.asarray(values, dtype=complex)
    if splitting in ("sym_sys", "asym"):
        return EtaTable(splitting, grid.dt, values, values)
    n = grid.n_steps
    interior = np.concatenate((values[:1], values[2 : n + 2]))
    return EtaTable(splitting, grid.dt, interior, np.concatenate((values[1:2], values[n + 2 :])))


def eta_table_from_correlation(corr, grid: TimeGrid, splitting: str) -> EtaTable:
    """Build an EtaTable by integrating an arbitrary correlation function.

    ``corr`` must accept an ndarray of time differences >= 0 and return the
    complex correlation values.  ``eta_table`` wires in the physical bath;
    this entry point exists so synthetic correlation functions (finite
    memory, controlled smoothness) can drive the same table layout.
    """
    triangles, pairs = _window_layout(grid, splitting)
    values = [_window_self_integral(corr, win) for win in triangles]
    values += [_window_pair_integral(corr, win_a, win_b) for win_a, win_b in pairs]
    return _assemble(grid, splitting, values)


# ---------------------------------------------------------------------------
# Spectral-domain window integrals (physical bath)
# ---------------------------------------------------------------------------


def _sinc(x):
    """sin(x) / x, with the limit 1 at x = 0."""
    return np.sinc(x / np.pi)


def _x_minus_sin(x):
    """x - sin(x), from its Taylor series through x^17 where |x| < 1.

    The direct subtraction cancels to relative error ~eps / x^2 at small x.
    """
    small = np.abs(x) < 1.0
    xs = np.where(small, x, 0.0)
    x2 = xs * xs
    # x^3/3! (1 - x^2/(4*5) (1 - x^2/(6*7) (1 - ...)))
    acc = np.ones_like(xs)
    for j in range(7, 0, -1):
        acc = 1.0 - x2 * acc / ((2 * j + 2) * (2 * j + 3))
    return np.where(small, xs * x2 * acc / 6.0, x - np.sin(x))


def _spectral_window_integrals(bath: BathSpec, triangles, pairs, rtol: float):
    """Window integrals of C(t - t') for the physical bath, all in one frequency integral.

    Returns (values, nodes): the complex integrals (triangles, then pairs)
    and the Gauss-Legendre node count at which the whole vector converged
    (0 when alpha = 0 makes every value zero without quadrature).
    """
    sd = bath.spectral_density
    if sd.alpha == 0.0:
        return np.zeros(len(triangles) + len(pairs), dtype=complex), 0
    w0 = np.array([b - a for a, b in triangles], dtype=float)
    ends = np.array(pairs, dtype=float).reshape(-1, 4)  # a0, a1, b0, b1
    wa = ends[:, 1] - ends[:, 0]
    wb = ends[:, 3] - ends[:, 2]
    shift = 0.5 * (ends[:, 0] + ends[:, 1] - ends[:, 2] - ends[:, 3])

    prev = None
    n = OMEGA_NODES_START
    while n <= OMEGA_NODES_MAX:
        omega, w = _gauss_nodes(n, 0.0, OMEGA_CUTOFF_FACTOR * sd.omega_c)
        # J(w) / pi times the node weights; coth(beta w / 2) -> 1 at T = 0
        j_w = 0.5 * sd.alpha * omega * np.exp(-omega / sd.omega_c) * w
        j_coth = j_w if math.isinf(bath.beta) else j_w / np.tanh(0.5 * bath.beta * omega)
        x = np.multiply.outer(w0, omega)
        amp = (
            (wa * wb)[:, None]
            * _sinc(0.5 * np.multiply.outer(wa, omega))
            * _sinc(0.5 * np.multiply.outer(wb, omega))
        )
        phase = np.multiply.outer(shift, omega)
        re_phi = np.vstack([0.5 * (w0 * w0)[:, None] * _sinc(0.5 * x) ** 2, amp * np.cos(phase)])
        im_phi = np.vstack([-(w0 * w0)[:, None] * _x_minus_sin(x) / (x * x), -amp * np.sin(phase)])
        vals = re_phi @ j_coth + 1j * (im_phi @ j_w)
        if prev is not None:
            scale = max(np.max(np.abs(vals)), 1e-30)
            if np.max(np.abs(vals - prev)) <= rtol * scale:
                return vals, n
        prev = vals
        n *= 2
    raise QuadratureError("quadrature_failed: spectral eta integral did not converge")


def eta_table(
    bath: BathSpec, grid: TimeGrid, splitting: str, rtol: float = OMEGA_RTOL
) -> EtaTable:
    """Discretized influence coefficients for the physical bath (spectral route)."""
    triangles, pairs = _window_layout(grid, splitting)
    values, _ = _spectral_window_integrals(bath, triangles, pairs, rtol)
    return _assemble(grid, splitting, values)


# ---------------------------------------------------------------------------
# Influence-factor matrices
# ---------------------------------------------------------------------------


def _fb_coupling_values(sys: SystemSpec):
    s = np.asarray(sys.coupling_eigenvalues, dtype=float)
    s_fwd = np.repeat(s, sys.n)
    s_bwd = np.tile(s, sys.n)
    return s_fwd, s_bwd


def influence_self_weights(sys: SystemSpec, eta: complex) -> np.ndarray:
    """Length-n^2 vector of single-point influence weights exp(-ds(eta s+ - eta* s-))."""
    s_fwd, s_bwd = _fb_coupling_values(sys)
    ds = s_fwd - s_bwd
    return np.exp(-ds * (eta * s_fwd - np.conj(eta) * s_bwd))


def influence_pair_matrix(sys: SystemSpec, eta) -> np.ndarray:
    """(n^2, n^2) matrix of pairwise influence factors for each coefficient.

    I[a, a'] = exp(-ds_a (eta s+_a' - conj(eta) s-_a')) with ds_a = s+_a - s-_a,
    over forward-backward pairs in the flat order a = forward * n + backward.
    An array of coefficients gives one matrix per entry, in one broadcast:
    shape ``eta.shape + (n^2, n^2)``.
    """
    s_fwd, s_bwd = _fb_coupling_values(sys)
    ds = s_fwd - s_bwd
    eta = np.asarray(eta)[..., None, None]
    return np.exp(-(ds[:, None] * (eta * s_fwd - np.conj(eta) * s_bwd)))


# ---------------------------------------------------------------------------
# Synthetic correlation functions
# ---------------------------------------------------------------------------


def bump_correlation(re_amp: float, im_amp: float, support: float):
    """An infinitely smooth correlation function supported on [0, support].

    C(u) = (re_amp - i im_amp u / support) * exp(1 - 1 / (1 - (u/support)^2))
    for 0 <= u < support and 0 beyond; every derivative vanishes at the
    support edge and Im C(0) = 0.  Influence coefficients built from it
    vanish identically beyond a known separation, which makes truncated
    kernel propagation exact; used for discretization-order studies.
    """
    if not support > 0:
        raise ValidationError("support must be positive")

    def corr(tau):
        tau = np.asarray(tau, dtype=float)
        x = tau / support
        inside = (x >= 0.0) & (x < 1.0)
        xc = np.where(inside, x, 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            profile = np.where(inside, np.exp(1.0 - 1.0 / np.maximum(1.0 - xc * xc, 1e-300)), 0.0)
        out = (re_amp - 1j * im_amp * xc) * profile
        return out.astype(complex)

    return corr
