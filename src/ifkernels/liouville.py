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

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, ValidationError

HERMITICITY_TOL = 1e-12

# Liouville matrices are bare ndarrays; the alias documents intent in signatures.
LiouvilleMatrix = np.ndarray


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
            raise ValidationError("hamiltonian must be a square matrix")
        n = h.shape[0]
        if n < 2:
            raise ValidationError("need at least 2 system states (n >= 2)")
        check_finite(h, "hamiltonian")
        dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
        if dev > HERMITICITY_TOL:
            raise ValidationError(
                f"hamiltonian not Hermitian (max deviation {dev:.3e} > {HERMITICITY_TOL:.0e})"
            )
        s = tuple(float(x) for x in self.coupling_eigenvalues)
        check_finite(np.array(s), "coupling_eigenvalues")
        if len(s) != n:
            raise ValidationError(
                f"coupling_eigenvalues must have exactly n={n} entries, got {len(s)}"
            )
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
    """Uniform time grid: step dt, horizon n_steps, memory truncation r_max."""

    dt: float
    n_steps: int
    r_max: int

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if not (1 <= self.r_max <= self.n_steps):
            raise ValidationError("r_max must satisfy 1 <= r_max <= n_steps")


def _expm_hermitian(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i h tau) for Hermitian h via eigendecomposition (exact at these sizes)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)) @ v.conj().T


def fb_propagator(sys: SystemSpec, tau: float) -> LiouvilleMatrix:
    """Forward-backward system propagator G(tau) on Liouville space.

    G[(a,b),(c,d)] = <a|exp(-i H tau)|c> <d|exp(+i H tau)|b>, i.e. the
    superoperator of rho -> exp(-i H tau) rho exp(+i H tau).  Unitary in
    Liouville space.  tau = dt gives the whole-step propagator, tau = dt/2
    the half-step one.
    """
    if tau < 0:
        raise ValidationError("tau must be >= 0")
    u = _expm_hermitian(np.asarray(sys.hamiltonian), tau)
    g = np.kron(u, u.conj())
    g.setflags(write=False)
    return g


def apply_map(u: LiouvilleMatrix, rho0: np.ndarray) -> np.ndarray:
    """Apply a Liouville-space map, or a stack of them, to a density matrix.

    Flattens rho0 row-major, multiplies by u and reshapes back: a (d, d) map
    gives an (n, n) matrix and a (..., d, d) stack an (..., n, n) stack,
    each entry the same product a single map would give.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    u = np.asarray(u)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise DimMismatchError("dim_mismatch: rho0 must be square")
    n = rho0.shape[0]
    if u.shape[-2:] != (n * n, n * n):
        raise DimMismatchError(
            f"dim_mismatch: map has shape {u.shape}, expected (..., {n * n}, {n * n})"
        )
    return (u @ rho0.reshape(n * n)).reshape(u.shape[:-2] + (n, n))


def liou_norm(a: np.ndarray) -> float:
    """Max elementwise absolute value; the decay metric used throughout."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def check_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Raise if a contains NaN/Inf; returns a unchanged."""
    if not np.all(np.isfinite(np.asarray(a))):
        raise ValidationError(f"{what} contains non-finite entries")
    return a
