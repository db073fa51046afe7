"""Forward-backward (Liouville-space) primitives.

A state pair (forward, backward) of an n-state system indexes Liouville
space; pairs are flattened row-major, ``flat = forward * n + backward``, so
a vectorized density matrix is just ``rho.reshape(n * n)``.  Superoperators
("Liouville matrices") are plain complex ndarrays of shape (n^2, n^2) acting
on these flat indices.  All functions here are pure; arrays returned by them
should be treated as immutable.

The reduced Planck constant is fixed to 1 throughout the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SystemSpec:
    """An n-state system Hamiltonian plus diagonal coupling-operator eigenvalues.

    Parameters
    ----------
    hamiltonian : (n, n) complex array
        System Hamiltonian, finite and Hermitian to within 1e-12 (max
        elementwise).
    coupling_eigenvalues : sequence of n finite floats
        Eigenvalues s_a of the system-bath coupling operator, which is taken
        diagonal in the computational basis.
    """

    hamiltonian: np.ndarray
    coupling_eigenvalues: tuple

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValidationError("system: hamiltonian must be a square matrix")
        n = h.shape[0]
        if n < 2:
            raise ValidationError("system: need at least 2 system states (n >= 2)")
        check_finite(h, "hamiltonian")
        dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
        if dev > HERMITICITY_TOL:
            raise ValidationError(f"system: hamiltonian not Hermitian (max deviation {dev:.3e}"
                                  f" > {HERMITICITY_TOL:.0e})")
        s = tuple(float(x) for x in self.coupling_eigenvalues)
        check_finite(np.array(s), "coupling_eigenvalues")
        if len(s) != n:
            raise ValidationError(f"system: coupling_eigenvalues must have exactly n={n} entries,"
                                  f" got {len(s)}")
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "coupling_eigenvalues", s)

    @property
    def n(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def dim(self) -> int:
        """Liouville dimension n^2."""
        return self.n * self.n


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: finite step dt, integer horizon n_steps and memory truncation r_max."""

    dt: float
    n_steps: int
    r_max: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("grid: dt must be positive")
        if not math.isfinite(self.dt):
            raise ValidationError("grid: dt must be finite")
        if not all(isinstance(v, numbers.Integral) for v in (self.n_steps, self.r_max)):
            raise ValidationError("grid: n_steps and r_max must be integers")
        if self.n_steps < 1:
            raise ValidationError("grid: n_steps must be >= 1")
        if not (1 <= self.r_max <= self.n_steps):
            raise ValidationError("grid: r_max must satisfy 1 <= r_max <= n_steps")


def fb_propagators(sys: SystemSpec, *taus: float) -> list:
    """Forward-backward system propagators G(tau), one per ``tau``, from one eigendecomposition of H.

    G[(a,b),(c,d)] = <a|exp(-i H tau)|c> <d|exp(+i H tau)|b>, i.e. the
    superoperator of rho -> exp(-i H tau) rho exp(+i H tau).  Unitary in
    Liouville space.  tau = dt gives the whole-step propagator, tau = dt/2
    the half-step one.
    """
    if min(taus) < 0:
        raise ValidationError("tau: must be >= 0")
    w, v = np.linalg.eigh(np.asarray(sys.hamiltonian))
    out = []
    for tau in taus:
        u = (v * np.exp(-1j * w * tau)) @ v.conj().T
        out.append((u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(sys.dim, sys.dim))
        out[-1].setflags(write=False)
    return out


def liou_norm(a: np.ndarray) -> float:
    """Max elementwise absolute value; the decay metric used throughout."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def liou_norms(stack) -> list:
    """``liou_norm`` of each matrix in a stack; an empty list for None."""
    return [] if stack is None else [liou_norm(a) for a in stack]


def check_finite(a: np.ndarray, what: str, error=ValidationError) -> np.ndarray:
    """Raise ``error`` ("non_finite") if a contains NaN/Inf; returns a unchanged."""
    if not np.all(np.isfinite(np.asarray(a))):
        raise error(f"non_finite: {what} contains non-finite entries")
    return a
