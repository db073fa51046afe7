"""Extraction, propagation, and comparison of discrete memory-kernel
hierarchies.

Two decompositions of the step-indexed reduced-dynamics maps U_N are
supported:

* The small-matrix path-integral (SMatPI-style) split into translationally
  invariant midpoint matrices M_k propagating an auxiliary sequence,

      aux_k = sum_{r=1}^{k-1} M_r . aux_{k-r}  +  M_k . aux_0,

  plus distinct termination matrices T_k assembling the physical maps,

      U_N = sum_{r=1}^{N-1} T_r . aux_{N-r}  +  T_N . aux_0.

  The terminal aux_0 factor is the single-point influence matrix; passing
  ``aux0=None`` to the solvers drops it (terminal M_k / T_N standalone),
  which is the appropriate convention when aux_0 is the identity (asym
  splitting).  With the terminal-aux_0 convention and a one-step-memory
  bath both hierarchies vanish identically beyond k = 1.

* The transfer-tensor recursion (TTM / crudely discretized GQME), a single
  translationally invariant set

      U_N = sum_{r=1}^{N-1} T^C_r . U_{N-r} + T^C_N,

  whose matrices stay nonzero beyond the bath memory (spurious memory) even
  when the optimal decomposition truncates exactly.

The discretized master-equation kernel is K_k = T_{k+1} / dt^2; whether the
k = 1 element deserves the same formula is unresolved, so reports flag it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import EtaTable, influence_pair_matrix, influence_self_weights
from .errors import (
    Aux0SingularError,
    DimMismatchError,
    SeedShortError,
    SplittingMismatchError,
    ValidationError,
)
from .liouville import LiouvilleMatrix, SystemSpec, check_finite, fb_propagator, liou_norm

AUX0_CONVENTIONS = ("standalone_terminal", "terminal_times_I0")
COND_LIMIT = 1e12


@dataclass(frozen=True)
class TrajectorySeq:
    """Maps U_1..U_N on a uniform grid (U_0 = identity implicit)."""

    dt: float
    maps: tuple
    provenance: str = "oracle"

    def __post_init__(self):
        maps = tuple(np.asarray(m, dtype=complex) for m in self.maps)
        if maps:
            d = maps[0].shape[0]
            for m in maps:
                if m.shape != (d, d):
                    raise DimMismatchError("dim_mismatch: trajectory maps differ in shape")
        object.__setattr__(self, "maps", maps)

    def __len__(self):
        return len(self.maps)

    @property
    def dim(self):
        return self.maps[0].shape[0] if self.maps else 0


@dataclass(frozen=True)
class KernelSet:
    """An extracted kernel hierarchy with its splitting, step, and flavor.

    For flavor "ttm" the single matrix set lives in ``midpoint`` and
    ``termination`` is None.  ``aux0`` is the terminal auxiliary matrix
    used by the terminal_times_I0 convention (None for standalone).  Each
    stored set holds exactly r_max finite (dim, dim) matrices.
    """

    splitting: str
    dt: float
    r_max: int
    midpoint: tuple
    termination: tuple | None
    flavor: str
    aux_zero_convention: str | None = None
    aux0: np.ndarray | None = None

    def __post_init__(self):
        if self.flavor not in ("smatpi", "ttm"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "ttm" and self.termination is not None:
            raise ValidationError("ttm flavor carries a single matrix set")
        mids = tuple(np.asarray(m, dtype=complex) for m in self.midpoint)
        object.__setattr__(self, "midpoint", mids)
        sets = {"midpoint": mids}
        if self.termination is not None:
            terms = tuple(np.asarray(m, dtype=complex) for m in self.termination)
            object.__setattr__(self, "termination", terms)
            sets["termination"] = terms
        if self.aux0 is not None:
            sets["aux0"] = (np.asarray(self.aux0),)
        d = self.dim
        for name, mats in sets.items():
            if name != "aux0" and len(mats) != self.r_max:
                raise ValidationError(f"r_max {self.r_max} but {len(mats)} {name} matrices")
            for m in mats:
                if m.shape != (d, d):
                    raise DimMismatchError(f"dim_mismatch: {name} shape {m.shape}, expected {(d, d)}")
                check_finite(m, f"{name} matrix")
        if self.aux_zero_convention is not None and self.aux_zero_convention not in AUX0_CONVENTIONS:
            raise ValidationError(f"unknown aux_zero_convention {self.aux_zero_convention!r}")

    @property
    def dim(self):
        return self.midpoint[0].shape[0] if self.midpoint else 0


def _right_solve(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Solve X a = b for X with a condition-number guard on a."""
    if np.linalg.cond(a) > COND_LIMIT:
        raise Aux0SingularError("aux0_singular: terminal auxiliary matrix is ill conditioned")
    return np.linalg.solve(a.T, b.T).T


def solve_midpoint(aux, aux0: np.ndarray | None = None):
    """Midpoint matrices M_1..M_L from the auxiliary sequence aux_1..aux_L.

    With aux0 given, M_k solves aux_k = sum_{r<k} M_r aux_{k-r} + M_k aux0
    (terminal_times_I0 convention); otherwise the terminal is standalone.
    Back-substitution reproduces the inputs exactly up to roundoff.
    """
    aux = [np.asarray(a, dtype=complex) for a in aux]
    if not aux:
        raise ValidationError("need at least one auxiliary matrix")
    mids = []
    for k in range(1, len(aux) + 1):
        resid = aux[k - 1].copy()
        for r in range(1, k):
            resid -= mids[r - 1] @ aux[k - r - 1]
        mids.append(resid if aux0 is None else _right_solve(resid, np.asarray(aux0)))
    return [check_finite(m, "midpoint matrix") for m in mids]


def solve_termination(full, aux, aux0: np.ndarray | None = None):
    """Termination matrices T_1..T_N from the full and auxiliary sequences.

    T_N solves U_N = sum_{r<N} T_r aux_{N-r} + T_N (standalone) or
    ... + T_N aux0 when aux0 is given.
    """
    maps = list(full.maps) if isinstance(full, TrajectorySeq) else [np.asarray(m) for m in full]
    aux = [np.asarray(a, dtype=complex) for a in aux]
    if len(aux) < max(len(maps) - 1, 0):
        raise ValidationError("auxiliary sequence too short for termination solve")
    terms = []
    for n in range(1, len(maps) + 1):
        resid = maps[n - 1].astype(complex).copy()
        for r in range(1, n):
            resid -= terms[r - 1] @ aux[n - r - 1]
        terms.append(resid if aux0 is None else _right_solve(resid, np.asarray(aux0)))
    return [check_finite(t, "termination matrix") for t in terms]


def extract_ttm(full):
    """Transfer-tensor matrices T^C_1..T^C_N from a map sequence."""
    maps = list(full.maps) if isinstance(full, TrajectorySeq) else [np.asarray(m) for m in full]
    tensors = []
    for n in range(1, len(maps) + 1):
        resid = maps[n - 1].astype(complex).copy()
        for r in range(1, n):
            resid -= tensors[r - 1] @ maps[n - r - 1]
        tensors.append(check_finite(resid, "transfer tensor"))
    return tensors


def gqme_kernel(ttm, dt: float):
    """Discretized master-equation kernel elements K_k = T_{k+1} / dt^2.

    The index offset is exactly one: K_1 comes from T_2.  K_1 is computed by
    the same formula as the rest but is conventionally less trustworthy;
    reports emitted by the CLI flag it.
    """
    mats = [np.asarray(t, dtype=complex) for t in ttm]
    if len(mats) < 2:
        raise ValidationError("need at least two transfer matrices for a kernel")
    return [m / dt**2 for m in mats[1:]]


def dress(u_aux: LiouvilleMatrix, g_half: LiouvilleMatrix) -> LiouvilleMatrix:
    """Outer half-step dressing G . aux . G."""
    u_aux = np.asarray(u_aux)
    g_half = np.asarray(g_half)
    if u_aux.shape != g_half.shape:
        raise DimMismatchError("dim_mismatch: dressing operands differ in shape")
    return g_half @ u_aux @ g_half


def closed_form_asym(sys: SystemSpec, eta_asym: EtaTable, order: int) -> LiouvilleMatrix:
    """Closed-form asymmetric-splitting kernel matrices.

    order 1:  T_1[i, j] = I0_i G1[i, j]
    order 2:  T_2[i, j] = sum_k I0_i I0_k (I1[i, k] - 1) G1[i, k] G1[k, j]

    where I0 are single-point factors and I1 the separation-1 pair factors of
    the translationally invariant table.
    """
    if eta_asym.splitting != "asym":
        raise SplittingMismatchError(
            f"splitting_mismatch: expected asym table, got {eta_asym.splitting!r}"
        )
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    g1 = fb_propagator(sys, eta_asym.dt)
    i0 = influence_self_weights(sys, eta_asym.by_separation(0, "self"))
    if order == 1:
        return i0[:, None] * g1
    i1 = influence_pair_matrix(sys, eta_asym.by_separation(1, "interior"))
    weighted = (i0[:, None] * i0[None, :]) * (i1 - 1.0) * g1
    return weighted @ g1


def propagate(
    kernels: KernelSet,
    horizon: int,
    seed: TrajectorySeq,
    aux_seed: TrajectorySeq | None = None,
    g_half: np.ndarray | None = None,
) -> TrajectorySeq:
    """Iterate a kernel set out to ``horizon`` steps from oracle seeds.

    Within the seeded horizon the output reproduces the seed verbatim.
    Beyond it, sums truncate at r_max (terms are dropped; no renormalization).
    The smatpi flavor iterates the auxiliary hierarchy and assembles the
    physical maps from the termination matrices (sym_env, asym) or by
    half-step dressing (sym_sys, which requires ``g_half``).
    """
    r_max = kernels.r_max
    if len(seed.maps) < min(r_max, horizon):
        raise SeedShortError(
            f"seed_short: need {min(r_max, horizon)} seeded maps, got {len(seed.maps)}"
        )
    terminal = kernels.aux_zero_convention == "terminal_times_I0"
    if terminal and kernels.aux0 is None:
        raise ValidationError("terminal_times_I0 propagation needs the aux0 matrix")

    if kernels.flavor == "ttm":
        mats = kernels.midpoint
        maps = list(seed.maps[:horizon])
        for n in range(len(maps) + 1, horizon + 1):
            acc = np.zeros((kernels.dim, kernels.dim), dtype=complex)
            for r in range(1, min(n - 1, r_max) + 1):
                acc += mats[r - 1] @ maps[n - r - 1]
            if n <= r_max:
                acc += mats[n - 1]
            maps.append(acc)
        return TrajectorySeq(kernels.dt, tuple(maps), "propagated")

    if aux_seed is None:
        raise SeedShortError("seed_short: smatpi propagation needs an auxiliary seed")
    if kernels.splitting == "sym_sys" and g_half is None:
        raise ValidationError("sym_sys propagation needs the half-step propagator")

    mids = kernels.midpoint
    aux = list(aux_seed.maps)
    aux_horizon = horizon - 1 if kernels.splitting == "sym_sys" else horizon
    for k in range(len(aux) + 1, aux_horizon + 1):
        acc = np.zeros((kernels.dim, kernels.dim), dtype=complex)
        for r in range(1, min(k - 1, r_max) + 1):
            acc += mids[r - 1] @ aux[k - r - 1]
        if k <= r_max:
            acc = acc + (mids[k - 1] @ kernels.aux0 if terminal else mids[k - 1])
        aux.append(acc)

    maps = list(seed.maps[:horizon])
    if kernels.splitting == "sym_sys":
        for n in range(len(maps) + 1, horizon + 1):
            maps.append(dress(aux[n - 2] if n >= 2 else kernels.aux0, g_half))
        return TrajectorySeq(kernels.dt, tuple(maps), "propagated")

    terms = kernels.termination
    if terms is None:
        raise ValidationError("smatpi propagation for this splitting needs termination matrices")
    for n in range(len(maps) + 1, horizon + 1):
        acc = np.zeros((kernels.dim, kernels.dim), dtype=complex)
        for r in range(1, min(n - 1, r_max) + 1):
            acc += terms[r - 1] @ aux[n - r - 1]
        if n <= r_max:
            acc = acc + (terms[n - 1] @ kernels.aux0 if terminal else terms[n - 1])
        maps.append(acc)
    return TrajectorySeq(kernels.dt, tuple(maps), "propagated")


@dataclass(frozen=True)
class ComparisonReport:
    """Per-index norm table for two kernel sets plus first-decay indices."""

    threshold: float
    ks: tuple
    norms_a: tuple
    norms_b: tuple
    term_norms_a: tuple
    term_norms_b: tuple
    diffs: tuple
    first_below_a: int | None
    first_below_b: int | None

    def rows(self):
        for i, k in enumerate(self.ks):
            yield (
                k,
                self.norms_a[i],
                self.term_norms_a[i],
                self.norms_b[i],
                self.term_norms_b[i],
                self.diffs[i],
            )


def _first_below(norms, threshold):
    if not norms or norms[0] is None:
        return None
    ref = norms[0]
    if ref == 0.0:
        return None
    for k, v in enumerate(norms, start=1):
        if v is not None and v < threshold * ref:
            return k
    return None


def compare(set_a: KernelSet, set_b: KernelSet, threshold: float = 1e-3) -> ComparisonReport:
    """Tabulate per-k norms of two kernel sets and their normwise difference.

    ``threshold`` is relative to each set's own k = 1 propagation-matrix
    norm; the report records the first index falling below it for each set.
    """
    if abs(set_a.dt - set_b.dt) > 1e-15:
        raise ValidationError("kernel sets differ in dt")
    if set_a.dim != set_b.dim:
        raise DimMismatchError("dim_mismatch: kernel sets differ in dimension")
    la, lb = len(set_a.midpoint), len(set_b.midpoint)
    ks = tuple(range(1, max(la, lb) + 1))

    def norm_list(mats, length):
        return tuple(liou_norm(mats[k]) if k < len(mats) else None for k in range(length))

    norms_a = norm_list(set_a.midpoint, len(ks))
    norms_b = norm_list(set_b.midpoint, len(ks))
    term_a = norm_list(set_a.termination or (), len(ks)) if set_a.termination else (None,) * len(ks)
    term_b = norm_list(set_b.termination or (), len(ks)) if set_b.termination else (None,) * len(ks)
    diffs = tuple(
        liou_norm(set_a.midpoint[k] - set_b.midpoint[k]) if k < min(la, lb) else None
        for k in range(len(ks))
    )
    return ComparisonReport(
        threshold,
        ks,
        norms_a,
        norms_b,
        term_a,
        term_b,
        diffs,
        _first_below(norms_a, threshold),
        _first_below(norms_b, threshold),
    )


# ---------------------------------------------------------------------------
# Extraction pipeline
# ---------------------------------------------------------------------------

# Frozen conventions per splitting for smatpi extraction: the uniform-window
# splittings have a nontrivial single-point factor matrix as their index-0
# auxiliary, so their hierarchies terminate against it; the asym auxiliary
# starts at the identity, making the standalone terminal exact.
SMATPI_CONVENTION = {
    "sym_env": "terminal_times_I0",
    "sym_sys": "terminal_times_I0",
    "asym": "standalone_terminal",
}


def extract_kernels(
    sys: SystemSpec,
    grid,
    splitting: str,
    flavor: str,
    *,
    bath=None,
    eta: EtaTable | None = None,
    budget: int | None = None,
    aux_zero_convention: str | None = None,
):
    """Build seeds from the path-sum oracle and extract a kernel set.

    Returns (kernel_set, seed, aux_seed).  ``aux_zero_convention`` overrides
    the shipped default only for sym_sys; the other splittings are fixed.
    """
    from .pathsum import DEFAULT_BUDGET, oracle_trajectory

    budget = DEFAULT_BUDGET if budget is None else budget
    full, aux0, aux = oracle_trajectory(
        sys, grid, splitting, grid.r_max, bath=bath, eta=eta, budget=budget
    )
    seed = TrajectorySeq(grid.dt, tuple(full), "oracle")
    aux_seed = TrajectorySeq(grid.dt, tuple(aux), "oracle")

    if flavor == "ttm":
        tensors = extract_ttm(seed)
        kset = KernelSet(splitting, grid.dt, grid.r_max, tuple(tensors), None, "ttm")
        return kset, seed, aux_seed

    convention = SMATPI_CONVENTION[splitting]
    if splitting == "sym_sys" and aux_zero_convention is not None:
        convention = aux_zero_convention
    aux0_arg = aux0 if convention == "terminal_times_I0" else None
    mids = solve_midpoint(list(aux_seed.maps), aux0_arg)
    if splitting == "sym_sys":
        terms = None
    else:
        terms = tuple(solve_termination(seed, list(aux_seed.maps), aux0_arg))
    kset = KernelSet(
        splitting,
        grid.dt,
        grid.r_max,
        tuple(mids),
        terms,
        "smatpi",
        aux_zero_convention=convention,
        aux0=aux0 if convention == "terminal_times_I0" else None,
    )
    return kset, seed, aux_seed


def reconstruct_aux(mids, aux0, length: int):
    """Back-substitute midpoint matrices into an auxiliary sequence."""
    dim = np.asarray(mids[0]).shape[0]
    out = []
    for k in range(1, length + 1):
        acc = np.zeros((dim, dim), dtype=complex)
        for r in range(1, k):
            acc += mids[r - 1] @ out[k - r - 1]
        if k <= len(mids):
            acc = acc + (mids[k - 1] if aux0 is None else mids[k - 1] @ aux0)
        out.append(acc)
    return out


def reconstruct_full(terms, aux, aux0, length: int):
    """Back-substitute termination matrices into the physical map sequence."""
    dim = np.asarray(terms[0]).shape[0]
    out = []
    for n in range(1, length + 1):
        acc = np.zeros((dim, dim), dtype=complex)
        for r in range(1, n):
            acc += terms[r - 1] @ aux[n - r - 1]
        if n <= len(terms):
            acc = acc + (terms[n - 1] if aux0 is None else terms[n - 1] @ aux0)
        out.append(acc)
    return out
