"""Extraction, propagation, and comparison of discrete memory-kernel
hierarchies.

Every hierarchy here is one truncated discrete convolution,

    X_n = sum_{r=1}^{min(n-1, R)} A_r . B_{n-r}  +  [n <= R] A_n . tail,

over stacked (k, d, d) arrays, the one form of every matrix sequence here:
the solvers and ``propagate`` return them, and a KernelSet stores its sets
as read-only stacks.  Extraction solves the convolution for the kernels A
from known maps (``_inverse``); propagation runs it forward from the
kernels (``propagate_blocks``).  ``extract_kernels(sys, eta, r_max, flavor)``
solves the oracle maps of one eta table, whose splitting and dt the set
takes over.  The hierarchies differ only in what A, B and the tail are:

* The small-matrix path-integral (SMatPI-style) split: translationally
  invariant midpoint matrices M_k propagate the auxiliary sequence
  (A = M, B = aux, X = aux), and distinct termination matrices T_k assemble
  the physical maps from it (A = T, B = aux, X = U).  The tail is the
  index-0 auxiliary aux_0 under the ``terminal_times_I0`` convention and
  the identity under ``standalone_terminal``, which is exact when aux_0 is
  the identity (asym splitting).  With the terminal convention and a
  one-step-memory bath both hierarchies vanish identically beyond k = 1.
  The half-step-dressed splitting (sym_sys) needs no termination matrices:
  U_N = G_half . aux_{N-1} . G_half.

* The transfer-tensor recursion (TTM / crudely discretized GQME), a single
  translationally invariant set (A = T^C, B = X = U, identity tail), whose
  matrices stay nonzero beyond the bath memory (spurious memory) even when
  the optimal decomposition truncates exactly.

A kernel set therefore propagates on its own: within R steps the forward
recurrence rebuilds the maps it was extracted from, and beyond R the sums
truncate.  The discretized master-equation kernel is K_k = T_{k+1} / dt^2;
whether the k = 1 element deserves the same formula is unresolved, so
reports flag it.

Propagation is one linear, time-invariant recurrence X_n = sum_r A_r X_{n-r}
on the sequence X (aux for smatpi, U for ttm) started from X_0 = tail,
X_{<0} = 0, which covers the n <= R head too.  Its state, the newest-first
stack s_n = (X_n, ..., X_{n-R+1}), moves one step by the block companion
matrix C of size (R d) x (R d) with first block row [A_1 | ... | A_R], so
X_{n+k} = P_k s_n with P_k the first block row of C^k.  The maps are read
off the same state: U_{n+k} = Q_k s_n with Q_k = [T_1 | ... | T_R] C^(k-1)
(termination) or G_half [1 | 0 | ... | 0] C^(k-1), times G_half on the right
(dressing).  The rows P_k, Q_k for k = 1..CHUNK are built once by CHUNK
small products; each chunk of CHUNK maps is then one
(CHUNK m d) x (R d) @ (R d) x d product (m = 1 for ttm, 2 with Q rows), and
the next state is the newest R outputs.  Memory is O(CHUNK R d^2) whatever the horizon, and the number of
numpy calls per chunk does not depend on CHUNK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import SPLITTINGS, EtaTable, influence_pair_matrix, influence_self_weights
from .errors import (
    Aux0SingularError,
    DimMismatchError,
    PropagationDivergedError,
    SplittingMismatchError,
    ValidationError,
)
from .liouville import LiouvilleMatrix, SystemSpec, check_finite, fb_propagator

AUX0_CONVENTIONS = ("standalone_terminal", "terminal_times_I0")
COND_LIMIT = 1e12
# Maps per propagation chunk: each chunk is one (CHUNK d, R d) @ (R d, d)
# product, and the chunk rows take O(CHUNK R d^2) memory.
CHUNK = 256


def _stack(mats, what: str) -> np.ndarray:
    """Equal-shape matrices as one C-contiguous complex array (a copy)."""
    try:
        return np.array(mats, dtype=complex, order="C")
    except ValueError:
        raise DimMismatchError(f"dim_mismatch: {what} matrices differ in shape") from None


@dataclass(frozen=True, eq=False)
class KernelSet:
    """An extracted kernel hierarchy with its splitting, step, and flavor.

    ``midpoint`` and ``termination`` are read-only (r_max, dim, dim) complex
    stacks, copied on construction; for flavor "ttm" the single matrix set
    lives in ``midpoint`` and ``termination`` is None.  ``aux0`` is the
    read-only (dim, dim) index-0 auxiliary matrix: the tail factor of the
    terminal_times_I0 convention, and for smatpi sym_sys (either
    convention) the inner factor of U_1 = G_half aux_0 G_half.  A set
    carries everything ``propagate`` needs: termination matrices for smatpi
    sym_env/asym, aux0 where the convention or the dressing uses it.
    """

    splitting: str
    dt: float
    r_max: int
    midpoint: np.ndarray
    termination: np.ndarray | None
    flavor: str
    aux_zero_convention: str | None = None
    aux0: np.ndarray | None = None

    def __post_init__(self):
        if self.splitting not in SPLITTINGS:
            raise ValidationError(f"unknown splitting {self.splitting!r}")
        if self.r_max < 1:
            raise ValidationError("r_max must be >= 1")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt!r}")
        if self.flavor not in ("smatpi", "ttm"):
            raise ValidationError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "ttm" and self.termination is not None:
            raise ValidationError("ttm flavor carries a single matrix set")
        dressed = self.flavor == "smatpi" and self.splitting == "sym_sys"
        if self.flavor == "smatpi" and not dressed and self.termination is None:
            raise ValidationError(f"smatpi {self.splitting} kernels need termination matrices")
        if self.aux0 is None and (dressed or self.aux_zero_convention == "terminal_times_I0"):
            raise ValidationError("aux0 matrix missing: terminal_times_I0 and sym_sys need it")
        d = None
        for name in ("midpoint", "termination", "aux0"):
            mats = getattr(self, name)
            if mats is None:
                continue
            stack = _stack([mats] if name == "aux0" else mats, name)
            if len(stack) != self.r_max and name != "aux0":
                raise ValidationError(f"r_max {self.r_max} but {len(stack)} {name} matrices")
            d = stack.shape[-1] if d is None else d  # midpoint comes first
            if stack.shape[1:] != (d, d):
                raise DimMismatchError(f"dim_mismatch: {name} shape {stack.shape[1:]}, expected {(d, d)}")
            check_finite(stack, f"{name} matrix")
            stack.flags.writeable = False
            object.__setattr__(self, name, stack[0] if name == "aux0" else stack)
        if self.aux_zero_convention is not None and self.aux_zero_convention not in AUX0_CONVENTIONS:
            raise ValidationError(f"unknown aux_zero_convention {self.aux_zero_convention!r}")

    @property
    def dim(self):
        return self.midpoint.shape[1]


def _inverse(y, b=None, tail=None) -> np.ndarray:
    """X_1..X_L solving Y_n = sum_{r<n} X_r B_{n-r} + X_n tail, n = 1..L.

    B is Y itself unless ``b`` (B_1.., at least L - 1 of them) is given;
    ``tail=None`` is the identity, otherwise each X_n comes from a right
    solve against it, whose condition number is checked once.  Returns a
    (L, d, d) array.
    """
    y = _stack(y, "input")
    if y.ndim != 3 or not len(y):
        raise ValidationError("need a non-empty sequence of square matrices")
    length, d = y.shape[0], y.shape[1]
    # B_{L-1}..B_1, newest first, so each residual is one contiguous product
    hist = np.ascontiguousarray((y if b is None else _stack(b, "auxiliary"))[: length - 1][::-1])
    if len(hist) < length - 1:
        raise ValidationError("auxiliary sequence too short for the solve")
    if tail is not None and np.linalg.cond(tail) > COND_LIMIT:
        raise Aux0SingularError("aux0_singular: terminal auxiliary matrix is ill conditioned")
    wide = np.empty((d, length * d), dtype=complex)  # [X_1 | X_2 | ... | X_L]
    for n in range(1, length + 1):
        resid = y[n - 1] - wide[:, : (n - 1) * d] @ hist[length - n :].reshape((n - 1) * d, d)
        if tail is not None:
            resid = np.linalg.solve(tail.T, resid.T).T
        wide[:, (n - 1) * d : n * d] = resid
    return wide.reshape(d, length, d).transpose(1, 0, 2)


def solve_midpoint(aux, aux0: np.ndarray | None = None):
    """Midpoint matrices M_1..M_L from aux_k = sum_{r<k} M_r aux_{k-r} + M_k aux0."""
    return check_finite(_inverse(aux, tail=aux0), "midpoint matrix")


def solve_termination(full, aux, aux0: np.ndarray | None = None):
    """Termination matrices T_1..T_N from U_N = sum_{r<N} T_r aux_{N-r} + T_N aux0."""
    return check_finite(_inverse(full, b=aux, tail=aux0), "termination matrix")


def extract_ttm(full):
    """Transfer-tensor matrices T^C_1..T^C_N from U_N = sum_{r<N} T^C_r U_{N-r} + T^C_N."""
    return check_finite(_inverse(full), "transfer tensor")


def gqme_kernel(ttm, dt: float):
    """Discretized master-equation kernel elements K_k = T_{k+1} / dt^2.

    The index offset is exactly one: K_1 comes from T_2.  K_1 is computed by
    the same formula as the rest but is conventionally less trustworthy;
    reports emitted by the CLI flag it.
    """
    mats = _stack(ttm, "transfer")
    if len(mats) < 2:
        raise ValidationError("need at least two transfer matrices for a kernel")
    return mats[1:] / dt**2


def closed_form_asym(sys: SystemSpec, eta_asym: EtaTable, order: int) -> LiouvilleMatrix:
    """Closed-form asymmetric-splitting kernel matrices.

    order 1:  T_1[i, j] = I0_i G1[i, j]
    order 2:  T_2[i, j] = sum_k I0_i I0_k (I1[i, k] - 1) G1[i, k] G1[k, j]

    where I0 are the single-point factors of ``interior[0]`` and I1 the pair
    factors of ``interior[1]`` of the translationally invariant table.
    """
    if eta_asym.splitting != "asym":
        raise SplittingMismatchError(
            f"splitting_mismatch: expected asym table, got {eta_asym.splitting!r}"
        )
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    g1 = fb_propagator(sys, eta_asym.dt)
    i0 = influence_self_weights(sys, eta_asym.interior[0])
    if order == 1:
        return i0[:, None] * g1
    i1 = influence_pair_matrix(sys, eta_asym.interior[1])
    weighted = (i0[:, None] * i0[None, :]) * (i1 - 1.0) * g1
    return weighted @ g1


def _wide(mats) -> np.ndarray:
    """[A_1 | A_2 | ... | A_R] as one (d, R d) block row."""
    a = np.asarray(mats, dtype=complex)
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _companion_rows(first: np.ndarray, wide: np.ndarray, count: int) -> np.ndarray:
    """W C^0, W C^1, ..., W C^(count-1) for each block row W stacked in ``first``.

    C is the block companion matrix with first block row ``wide`` and
    identities below its diagonal, so W C = W_1 wide + (W moved one block
    left), where W_1 is the first block of W.  ``first`` is (m d, R d);
    returns a (count, m d, R d) array, one small product per power.
    """
    d = wide.shape[0]
    rows = np.empty((count,) + first.shape, dtype=complex)
    rows[0] = first
    for k in range(1, count):
        rows[k] = rows[k - 1][:, :d] @ wide
        rows[k][:, :-d] += rows[k - 1][:, d:]
    return rows


def _blocks(rows, state, horizon, g_half, u1):
    """Yield the maps of ``propagate_blocks`` one chunk of len(rows) at a time."""
    count, width = rows.shape[0], rows.shape[2]
    r_max, d = state.shape[0], state.shape[1]
    for start in range(0, horizon, count):
        k = min(count, horizon - start)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = (rows[:k].reshape(-1, width) @ state.reshape(width, d)).reshape(k, -1, d, d)
            state = np.concatenate((out[::-1, 0], state))[:r_max]
            maps = out[:, -1]
            if g_half is not None:
                maps = (maps.reshape(k * d, d) @ g_half).reshape(k, d, d)
        if start == 0 and u1 is not None:
            maps[0] = u1
        finite = np.isfinite(maps).reshape(k, -1).all(axis=1)
        if not finite.all():
            step = start + 1 + int(np.argmin(finite))
            raise PropagationDivergedError(
                f"propagation_diverged: U_{step} is not finite; the kernel set grows without bound"
            )
        yield maps


def propagate_blocks(kernels: KernelSet, horizon: int, g_half: np.ndarray | None = None):
    """U_1..U_horizon from a kernel set alone, as consecutive blocks.

    Returns an iterator of (k, d, d) arrays with k = CHUNK (the last block
    may be shorter); the arguments are checked and the chunk rows built
    before it is returned.  ttm runs the transfer tensors over U itself.
    smatpi runs the midpoint matrices over the auxiliary sequence, with the
    tail aux_0 under the terminal_times_I0 convention, and reads U off it
    through the termination matrices (sym_env, asym) or the half-step
    dressing U_n = G_half aux_{n-1} G_half with aux_0 from the set (sym_sys,
    which requires ``g_half``).  Within r_max steps the output rebuilds the
    maps the set was extracted from; beyond it the sums truncate at r_max
    (terms are dropped; no renormalization).  A block holding a non-finite
    map raises PropagationDivergedError instead of being yielded.
    """
    dressed = kernels.flavor == "smatpi" and kernels.splitting == "sym_sys"
    if dressed and g_half is None:
        raise ValidationError("sym_sys propagation needs the half-step propagator")
    wide = _wide(kernels.midpoint)
    r_max, d = kernels.r_max, kernels.dim
    state = np.zeros((r_max, d, d), dtype=complex)  # X_0, X_{-1}, ... = tail, 0, ...
    terminal = kernels.flavor == "smatpi" and kernels.aux_zero_convention == "terminal_times_I0"
    state[0] = kernels.aux0 if terminal else np.eye(d)
    first = wide  # P_1 = e_0 C: the recurrence itself
    if dressed:  # G_half e_0 C^(k-1) picks G_half X_{n+k-1}
        emit = np.zeros_like(wide)
        emit[:, :d] = g_half
        first = np.concatenate((wide, emit))
    elif kernels.flavor == "smatpi":  # [T_1 | ... | T_R] C^(k-1) gives U_{n+k}
        first = np.concatenate((wide, _wide(kernels.termination)))
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent set fails in _blocks
        rows = _companion_rows(first, wide, max(min(CHUNK, horizon), 1))
    if not dressed:
        return _blocks(rows, state, horizon, None, None)
    # U_1 is dressed from the stored aux_0 even where the recurrence starts from X_0 = 1
    return _blocks(rows, state, horizon, g_half, g_half @ kernels.aux0 @ g_half)


def propagate(kernels: KernelSet, horizon: int, g_half: np.ndarray | None = None) -> np.ndarray:
    """Maps U_1..U_horizon as one (horizon, d, d) array (see ``propagate_blocks``)."""
    maps = np.empty((max(horizon, 0), kernels.dim, kernels.dim), dtype=complex)
    start = 0
    for block in propagate_blocks(kernels, horizon, g_half):
        maps[start : start + len(block)] = block
        start += len(block)
    return maps


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
    """First k whose norm is below ``threshold`` times the k = 1 norm, else None."""
    below = (k for k, v in enumerate(norms, 1) if v is not None and v < threshold * norms[0])
    return next(below, None)


def compare(set_a: KernelSet, set_b: KernelSet, threshold: float = 1e-3) -> ComparisonReport:
    """Tabulate per-k norms of two kernel sets and their normwise difference.

    ``threshold`` (finite, > 0) is relative to each set's own k = 1
    midpoint norm; the report records the first index below it for each
    set.  The sets must share a splitting; their flavors may differ.
    """
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValidationError(f"threshold must be finite and > 0, got {threshold!r}")
    if set_a.splitting != set_b.splitting:
        raise SplittingMismatchError(
            f"splitting_mismatch: kernel sets are {set_a.splitting!r} and {set_b.splitting!r}"
        )
    if abs(set_a.dt - set_b.dt) > 1e-15:
        raise ValidationError("kernel sets differ in dt")
    if set_a.dim != set_b.dim:
        raise DimMismatchError("dim_mismatch: kernel sets differ in dimension")
    ks = tuple(range(1, max(set_a.r_max, set_b.r_max) + 1))

    def norms(stack):  # liou_norm of each matrix, None past the end
        vals = [] if stack is None else np.abs(stack).max(axis=(1, 2)).tolist()
        return tuple(vals + [None] * (len(ks) - len(vals)))

    common = min(set_a.r_max, set_b.r_max)
    norms_a, norms_b = norms(set_a.midpoint), norms(set_b.midpoint)
    return ComparisonReport(
        threshold,
        ks,
        norms_a,
        norms_b,
        norms(set_a.termination),
        norms(set_b.termination),
        norms(set_a.midpoint[:common] - set_b.midpoint[:common]),
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
    eta: EtaTable,
    r_max: int,
    flavor: str,
    *,
    budget: int | None = None,
    aux_zero_convention: str | None = None,
):
    """Sum the path-sum oracle for r_max steps and extract a kernel set.

    The splitting and dt of the set are those of ``eta``, whose horizon
    bounds r_max.  Returns (kernel_set, full, aux): the set and the
    (R, d, d) oracle maps U_1..U_R and aux_1..aux_R it was solved from.
    ``aux_zero_convention`` overrides the shipped default only for sym_sys;
    the other splittings are fixed.  sym_sys sets keep aux_0 under either
    convention, because the dressed U_1 needs it.
    """
    from .pathsum import DEFAULT_BUDGET, oracle_trajectory

    if flavor not in ("smatpi", "ttm"):
        raise ValidationError(f"unknown flavor {flavor!r}")
    if aux_zero_convention is not None and aux_zero_convention not in AUX0_CONVENTIONS:
        raise ValidationError(f"unknown aux_zero_convention {aux_zero_convention!r}")
    budget = DEFAULT_BUDGET if budget is None else budget
    splitting = eta.splitting
    full, aux0, aux = oracle_trajectory(sys, eta, r_max, budget=budget)
    if flavor == "ttm":
        return KernelSet(splitting, eta.dt, r_max, extract_ttm(full), None, "ttm"), full, aux

    convention = SMATPI_CONVENTION[splitting]
    if splitting == "sym_sys" and aux_zero_convention is not None:
        convention = aux_zero_convention
    tail = aux0 if convention == "terminal_times_I0" else None
    terms = None if splitting == "sym_sys" else solve_termination(full, aux, tail)
    kset = KernelSet(
        splitting,
        eta.dt,
        r_max,
        solve_midpoint(aux, tail),
        terms,
        "smatpi",
        aux_zero_convention=convention,
        aux0=aux0 if splitting == "sym_sys" else tail,
    )
    return kset, full, aux
