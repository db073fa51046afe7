"""Harmonic-bath input: spectral density, discretized influence-functional
coefficients eta, and influence-factor matrices.

Conventions
-----------
Spectral density (ohmic with exponential cutoff):

    J(w) = (pi/2) * alpha * w * exp(-w / omega_c)

Bath correlation function (coth -> 1 at infinite beta, so
C(0) = alpha * omega_c^2 / 2 at zero temperature):

    C(t) = (1/pi) * int_0^inf J(w) [coth(beta w / 2) cos(w t) - i sin(w t)] dw

The package never evaluates C(t): ``eta_table`` uses the closed form
below.

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

Closed form
-----------
For the physical bath every coefficient is a second difference of one
function Q with Q'' = C and Q(0) = Q'(0) = 0 (the QuAPI coefficient form
of Makri & Makarov, J. Chem. Phys. 102, 4600 (1995)).  With
kappa = 1 / (beta omega_c):

    Q(tau) = (alpha/4) ln(1 + omega_c^2 tau^2)
             + i (alpha/2) (arctan(omega_c tau) - omega_c tau)
             - alpha [Re lnGamma(1 + kappa + i tau / beta) - lnGamma(1 + kappa)]

The lnGamma term is absent at beta = inf.  The triangle t' < t in one window
of width w is Q(w); the windows A = [a0, a1] and B = [b0, b1], a0 >= b1, give

    eta = Q(a1 - b0) - Q(a0 - b0) - Q(a1 - b1) + Q(a0 - b1).

Every window edge above is a multiple of dt/2, so a table of horizon N
needs Q only on the half-step grid q[j] = Q(j dt / 2), j = 0..2N+2.  Two
whole windows m dt apart (every splitting) and, under sym_env, the measured
end's half window at separation m from a whole one give

    interior[0] = q[2],  interior[m] = q[2m+2] - 2 q[2m] + q[2m-2],
    right[0]    = q[1],  right[m]    = q[2m+1] - q[2m] - q[2m-1] + q[2m-2].

The linear term -i (alpha/2) omega_c tau has a second difference of exactly
0, so only the triangles carry it; the lnGamma difference is computed as one
difference, not as two lnGamma values that cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .liouville import SystemSpec, TimeGrid

SPLITTINGS = ("sym_env", "sym_sys", "asym")


@dataclass(frozen=True)
class SpectralDensity:
    """Bath spectral density; only the ohmic-exponential family is supported."""

    kind: str
    alpha: float
    omega_c: float

    def __post_init__(self):
        if self.kind != "ohmic_exponential":
            raise ValidationError(f"bath: unsupported spectral density kind {self.kind!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.omega_c)):
            raise ValidationError("non_finite: alpha and omega_c must be finite")
        if self.alpha < 0:
            raise ValidationError("bath: alpha must be >= 0")
        if not self.omega_c > 0:
            raise ValidationError("bath: omega_c must be > 0")


@dataclass(frozen=True)
class BathSpec:
    """Spectral density plus inverse temperature (math.inf = zero temperature)."""

    spectral_density: SpectralDensity
    beta: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValidationError("bath: beta must be positive (use math.inf for T = 0)")


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
            raise ValidationError(f"splitting: unknown splitting {self.splitting!r}")
        interior = np.array(self.interior, dtype=complex)
        right = interior if self.right is self.interior else np.array(self.right, dtype=complex)
        if interior.ndim != 1 or interior.shape != right.shape or len(interior) < 2:
            raise ValidationError(f"dim_mismatch: eta arrays need one length >= 2, got"
                                  f" {interior.shape} and {right.shape}")
        if self.splitting != "sym_env" and right is not interior:
            raise ValidationError(f"splitting_mismatch: {self.splitting} tables have"
                                  " no endpoint coefficients")
        interior.flags.writeable = right.flags.writeable = False
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "right", right)

    @property
    def horizon(self) -> int:
        return len(self.interior) - 1


# ---------------------------------------------------------------------------
# Closed-form window integrals (physical bath)
# ---------------------------------------------------------------------------

# B_2k / (2k (2k - 1)), k = 1..6: the Stirling series of lnGamma(z) in 1/z.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_GAMMA_SHIFT = 16  # |z| >= 17 after the shift: the first omitted term is below 1e-18


def _re_loggamma_shift(x, y):
    """Re lnGamma(x + i y) - lnGamma(x) for a scalar x >= 1, as one difference.

    Both lnGamma values are shifted to x + 16 by the recurrence, whose
    terms differ by -log1p((y / (x + j))^2) / 2; the Stirling series at
    x + 16 + i y and at x + 16 is then subtracted term by term.  No term
    subtracts two large values, and y = 0 gives exactly 0.
    """
    y = np.asarray(y, dtype=float)
    out = -0.5 * np.log1p((y[..., None] / (x + np.arange(_GAMMA_SHIFT))) ** 2).sum(axis=-1)
    x = x + _GAMMA_SHIFT
    # Re[(z - 1/2) ln z - z] at z = x + i y, minus its value at z = x
    out += (x - 0.5) * 0.5 * np.log1p((y / x) ** 2) - y * np.arctan2(y, x)
    inv_z, inv_x = 1.0 / (x + 1j * y), 1.0 / x
    series_z = series_x = 0.0
    for c in reversed(_STIRLING):
        series_z = c + inv_z * inv_z * series_z
        series_x = c + inv_x * inv_x * series_x
    return out + (inv_z * series_z).real - inv_x * series_x


def _q_less_linear(bath: BathSpec, tau):
    """Q(tau) less its linear term -i (alpha / 2) omega_c tau, for tau >= 0."""
    sd = bath.spectral_density
    x = sd.omega_c * tau
    q = 0.25 * sd.alpha * np.log1p(x * x) + 0.5j * sd.alpha * np.arctan(x)
    if math.isinf(bath.beta):
        return q
    kappa = 1.0 / (np.float64(bath.beta) * sd.omega_c)  # inf, not ZeroDivisionError
    return q - sd.alpha * _re_loggamma_shift(1.0 + kappa, tau / bath.beta)


def eta_table(bath: BathSpec, grid: TimeGrid, splitting: str) -> EtaTable:
    """Discretized influence coefficients for the physical bath, in closed form.

    Q is evaluated once, in one vectorised call on the 2N + 3 points of the
    half-step grid, and every coefficient is a second difference of those
    values (module docstring); ``interior`` is the same array under every
    splitting.  The largest error, relative to the largest coefficient,
    grows with the horizon: against a 40-digit reference (alpha = 0.1,
    omega_c = 5, dt = 0.1, beta in {0.5, 1, 5, 100, inf}) it is 4.7e-15 at
    horizon 11, 1.7e-13 at 100 and 7.7e-13 at 400.  Raises NumericalError
    ("non_finite") if any coefficient is not finite.
    """
    sd = bath.spectral_density
    slope = 0.5j * sd.alpha * sd.omega_c  # the linear term of Q, kept by the triangles only
    with np.errstate(all="ignore"):
        q = _q_less_linear(bath, 0.5 * grid.dt * np.arange(2 * grid.n_steps + 3))
        interior = np.concatenate(([q[2] - slope * grid.dt], np.diff(q[::2], 2)))
        right = interior if splitting != "sym_env" else np.concatenate(
            ([q[1] - slope * 0.5 * grid.dt], np.diff(np.diff(q)[::2])))
    if not (np.all(np.isfinite(interior)) and np.all(np.isfinite(right))):
        raise NumericalError(f"non_finite: eta coefficients are not finite (beta = {bath.beta!r})")
    return EtaTable(splitting, grid.dt, interior, right)


# ---------------------------------------------------------------------------
# Influence-factor matrices
# ---------------------------------------------------------------------------


def influence_pair_matrix(sys: SystemSpec, eta) -> np.ndarray:
    """(n^2, n^2) matrix of pairwise influence factors for each coefficient.

    I[a, a'] = exp(-ds_a (eta s+_a' - conj(eta) s-_a')) with ds_a = s+_a - s-_a,
    over forward-backward pairs in the flat order a = forward * n + backward.
    The diagonal of the matrix of ``interior[0]`` holds the single-point
    weights.  An array of coefficients gives one matrix per entry, in one
    broadcast: shape ``eta.shape + (n^2, n^2)``.
    """
    s = np.asarray(sys.coupling_eigenvalues, dtype=float)
    s_fwd, s_bwd = np.repeat(s, sys.n), np.tile(s, sys.n)
    ds = s_fwd - s_bwd
    eta = np.asarray(eta)[..., None, None]
    return np.exp(-ds[:, None] * (eta * s_fwd - np.conj(eta) * s_bwd))
