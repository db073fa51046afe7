"""Extraction, propagation, and comparison of discrete memory-kernel
hierarchies.

Every hierarchy here is one truncated discrete convolution,

    X_n = sum_{r=1}^{min(n-1, R)} A_r . B_{n-r}  +  [n <= R] A_n . tail,

over stacked (k, d, d) arrays, the one form of every matrix sequence here:
the solvers and ``propagate_blocks`` return them, and a KernelSet stores
its sets as read-only stacks.  Extraction solves the convolution for the
kernels A from known maps (``_inverse``); propagation runs it forward from
the kernels (``propagate_blocks``).
``extract_kernels(sys, eta, r_max, flavor)`` solves the oracle maps of one
eta table, whose splitting and dt the set takes over.  The hierarchies
differ only in what A, B and the tail are:

* The small-matrix path-integral (SMatPI-style) split: translationally
  invariant midpoint matrices M_k propagate the auxiliary sequence
  (A = M, B = aux, X = aux), and distinct termination matrices T_k assemble
  the physical maps from it (A = T, B = aux, X = U).  The tail is the
  index-0 auxiliary aux_0: the single-point factor matrix under the
  uniform-window splittings (sym_env, sym_sys), where a one-step-memory
  bath makes both hierarchies vanish identically beyond k = 1, and exactly
  the identity under asym.  The half-step-dressed splitting (sym_sys),
  U_N = G_half . aux_{N-1} . G_half, is stored as the same split over
  X_n = aux_n G_half: the same midpoint matrices, the tail aux_0 G_half,
  and the termination T_1 = G_half, T_k = 0 for k >= 2 exactly.

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
on the sequence X (aux_n, times G_half for sym_sys, for smatpi; U for ttm)
started from X_0 = tail, X_{<0} = 0, which covers the n <= R head too.
Being linear, it runs on X_n V for a right-hand block V (d x c) as well as
on X_n itself: V = identity gives the maps, and V = vec(rho_0) (c = 1)
gives the density matrices rho_n = U_n rho_0 without forming any map.  Its
state, the newest-first stack s_n = (X_n V, ..., X_{n-R+1} V), moves one
step by the block companion matrix C of size (R d) x (R d) with first block
row [A_1 | ... | A_R].  With P_k the first block row of C^k, the block rows
of C^k are P_k, ..., P_1 and then, for k < R, identity selectors.  The maps
are read off the same state: U_{n+k} V = P_k s_n for ttm and Q_k s_n with
Q_k = [T_1 | ... | T_R] C^(k-1) for smatpi.  These rows for k = 1..CHUNK
are built once per run by CHUNK small products; each chunk of CHUNK steps
is then two products, the read-out rows times the state for its outputs
and C^CHUNK times the state for the next.  A run takes one right-hand
block; the maps and rho are two runs.  Memory is O(CHUNK R d (d + c))
whatever the horizon, and the number of numpy calls per chunk does not
depend on CHUNK.

``compare`` sets two kernel sets side by side as plain rows of tuples, one
per index, each cell the max-abs norm of one matrix
(``liouville.liou_norms``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bath import SPLITTINGS, EtaTable, influence_pair_matrix
from .errors import NumericalError, ValidationError
from .liouville import SystemSpec, check_finite, fb_propagators, liou_norms
from .pathsum import DEFAULT_BUDGET, check_size

FLAVORS = ("smatpi", "ttm")  # the kernel hierarchies, as bath.SPLITTINGS names the splittings
COND_LIMIT = 1e12
# Steps per propagation chunk: each chunk is a (CHUNK d, R d) @ (R d, c)
# read-out and an (R d, R d) @ (R d, c) jump, and the chunk rows take
# O(CHUNK R d^2) memory.
CHUNK = 256


def _stack(mats, what: str) -> np.ndarray:
    """Equal-shape matrices as one C-contiguous complex array (a copy)."""
    try:
        return np.array(mats, dtype=complex, order="C")
    except ValueError:
        raise ValidationError(f"dim_mismatch: {what} matrices differ in shape") from None


@dataclass(frozen=True, eq=False)
class KernelSet:
    """An extracted kernel hierarchy: its splitting, step and matrices.

    ``midpoint`` and ``termination`` are read-only (r_max, dim, dim) complex
    stacks, copied on construction.  A set with a termination stack is
    smatpi; without one it is ttm, its single matrix set in ``midpoint``.
    ``aux0`` is the read-only (dim, dim) tail, given exactly for sym_env
    and sym_sys smatpi sets: the index-0 auxiliary matrix, times G_half for
    sym_sys.  None is the identity tail of asym smatpi and of every ttm
    set.  ``r_max``, ``flavor`` and ``dim`` are read off the stacks.
    """

    splitting: str
    dt: float
    midpoint: np.ndarray
    termination: np.ndarray | None = None
    aux0: np.ndarray | None = None

    def __post_init__(self):
        if self.splitting not in SPLITTINGS:
            raise ValidationError(f"splitting: unknown splitting {self.splitting!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt: must be finite and > 0, got {self.dt!r}")
        kind = f"{self.flavor} {self.splitting} kernels"
        if self.aux0 is None and self.flavor == "smatpi" and self.splitting != "asym":
            raise ValidationError(f"aux0: matrix missing: {kind} need it")
        if self.aux0 is not None and (self.flavor == "ttm" or self.splitting == "asym"):
            raise ValidationError(f"aux0: matrix given: {kind} have the identity tail")
        d = None
        for name in ("midpoint", "termination", "aux0"):
            mats = getattr(self, name)
            if mats is None:
                continue
            stack = _stack([mats] if name == "aux0" else mats, name)
            if name == "midpoint" and not len(stack):
                raise ValidationError("midpoint: r_max must be >= 1: no midpoint matrices")
            if name == "termination" and len(stack) != self.r_max:
                raise ValidationError(f"termination: r_max {self.r_max} but {len(stack)}"
                                      " termination matrices")
            d = stack.shape[-1] if d is None else d  # midpoint comes first
            if stack.shape[1:] != (d, d):
                raise ValidationError(f"dim_mismatch: {name} shape {stack.shape[1:]}, expected {(d, d)}")
            check_finite(stack, f"{name} matrix")
            stack.flags.writeable = False
            object.__setattr__(self, name, stack[0] if name == "aux0" else stack)

    @property
    def r_max(self):
        return len(self.midpoint)

    @property
    def flavor(self):
        return "ttm" if self.termination is None else "smatpi"

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
        raise ValidationError("dim_mismatch: need a non-empty sequence of square matrices")
    length, d = y.shape[0], y.shape[1]
    # B_{L-1}..B_1, newest first, so each residual is one contiguous product
    hist = np.ascontiguousarray((y if b is None else _stack(b, "auxiliary"))[: length - 1][::-1])
    if len(hist) < length - 1:
        raise ValidationError("dim_mismatch: auxiliary sequence too short for the solve")
    if tail is not None and np.linalg.cond(tail) > COND_LIMIT:
        raise NumericalError("aux0_singular: terminal auxiliary matrix is ill conditioned")
    wide = np.empty((d, length * d), dtype=complex)  # [X_1 | X_2 | ... | X_L]
    for n in range(1, length + 1):
        resid = y[n - 1] - wide[:, : (n - 1) * d] @ hist[length - n :].reshape((n - 1) * d, d)
        if tail is not None:
            resid = np.linalg.solve(tail.T, resid.T).T
        wide[:, (n - 1) * d : n * d] = resid
    return wide.reshape(d, length, d).transpose(1, 0, 2)


def solve_midpoint(aux, aux0: np.ndarray | None = None):
    """Midpoint matrices M_1..M_L from aux_k = sum_{r<k} M_r aux_{k-r} + M_k aux0."""
    return check_finite(_inverse(aux, tail=aux0), "midpoint matrix", NumericalError)


def solve_termination(full, aux, aux0: np.ndarray | None = None):
    """Termination matrices T_1..T_N from U_N = sum_{r<N} T_r aux_{N-r} + T_N aux0."""
    return check_finite(_inverse(full, b=aux, tail=aux0), "termination matrix", NumericalError)


def extract_ttm(full):
    """Transfer-tensor matrices T^C_1..T^C_N from U_N = sum_{r<N} T^C_r U_{N-r} + T^C_N."""
    return check_finite(_inverse(full), "transfer tensor", NumericalError)


def gqme_kernel(ttm, dt: float):
    """Discretized master-equation kernel elements K_k = T_{k+1} / dt^2.

    The index offset is exactly one: K_1 comes from T_2.  K_1 is computed by
    the same formula as the rest but is conventionally less trustworthy;
    reports emitted by the CLI flag it.
    """
    mats = _stack(ttm, "transfer")
    if len(mats) < 2:
        raise ValidationError("dim_mismatch: need at least two transfer matrices for a kernel")
    return mats[1:] / dt**2


def closed_form_asym(sys: SystemSpec, eta_asym: EtaTable, order: int) -> np.ndarray:
    """Closed-form asymmetric-splitting kernel matrices.

    order 1:  T_1[i, j] = I0_i G1[i, j]
    order 2:  T_2[i, j] = sum_k I0_i I0_k (I1[i, k] - 1) G1[i, k] G1[k, j]

    where I0 is the diagonal of the pair factors of ``interior[0]`` and I1
    the pair factors of ``interior[1]`` of the translationally invariant table.
    """
    if eta_asym.splitting != "asym":
        raise ValidationError(
            f"splitting_mismatch: expected asym table, got {eta_asym.splitting!r}"
        )
    if order not in (1, 2):
        raise ValidationError("order: must be 1 or 2")
    g1 = fb_propagators(sys, eta_asym.dt)[0]
    i0 = influence_pair_matrix(sys, eta_asym.interior[0]).diagonal()
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
    """W C^(count-1), ..., W C^1, W C^0, newest power first, for each block row W in ``first``.

    C is the block companion matrix with first block row ``wide`` and
    identities below its diagonal, so W C = W_1 wide + (W moved one block
    left), where W_1 is the first block of W.  ``first`` is an (m, d, R d)
    stack; returns an (m, count, d, R d) array, one small product per power.
    """
    d = wide.shape[0]
    rows = np.empty((len(first), count) + first.shape[1:], dtype=complex)
    rows[:, -1] = first
    for k in range(count - 1, 0, -1):
        np.matmul(rows[:, k, :, :d], wide, out=rows[:, k - 1])
        rows[:, k - 1, :, :-d] += rows[:, k, :, d:]
    return rows


def _blocks(rows, state, horizon):
    """Yield the outputs of ``propagate_blocks``, one block per chunk of rows.shape[1] steps.

    ``rows[0]`` holds P_CHUNK..P_1 and ``rows[-1]`` the read-out rows, both
    newest first.  C^CHUNK s is the first R of the P rows times s, over the
    newest R - CHUNK blocks of s themselves when CHUNK < R.
    """
    count, d, width = rows.shape[1:]
    r_max, c = len(state), state.shape[-1]
    readout, jump = rows[-1].reshape(-1, width), rows[0, :r_max].reshape(-1, width)
    for start in range(0, horizon, count):
        k = min(count, horizon - start)
        flat = state.reshape(width, c)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            block = (readout[(count - k) * d :] @ flat).reshape(k, d, c)[::-1]
            if start + count < horizon:
                state = np.concatenate(((jump @ flat).reshape(-1, d, c),
                                        state[: max(r_max - count, 0)]))
        if not np.isfinite(block).all():
            step = start + 1 + int(np.argmin(np.isfinite(block).reshape(k, -1).all(axis=1)))
            raise NumericalError(f"propagation_diverged: U_{step} is not finite;"
                                 " the kernel set grows without bound")
        yield block


def propagate_blocks(kernels: KernelSet, horizon: int, right: np.ndarray | None = None):
    """U_1 V..U_horizon V from a kernel set alone, as consecutive blocks.

    ``right`` is the right-hand block V, a (d, c) array; None is the
    identity, which gives the maps themselves, and a (d, 1) column
    vec(rho_0) gives the density matrices.  Returns an iterator of (k, d, c)
    arrays with k = CHUNK (the last block may be shorter).  The arguments
    are checked and the chunk rows built before the iterator is returned,
    so each call builds its own rows.  ttm runs the transfer
    tensors over U itself.  smatpi runs the midpoint matrices over the
    auxiliary sequence from the set's tail, and reads U off it through the
    termination matrices.  Within r_max steps the output rebuilds the maps
    the set was extracted from; beyond it the sums truncate at r_max
    (terms are dropped; no renormalization).  Each chunk is two products:
    its read-out rows (P_k for ttm, Q_k for smatpi) times the state, and
    C^CHUNK times the state for the next chunk.  A block holding a
    non-finite entry raises ``propagation_diverged`` instead of being
    yielded.  A set whose chunk rows, (CHUNK, d, R d) complex entries for
    ttm and twice that for smatpi, would exceed ``pathsum.SIZE_LIMIT``
    bytes is refused with ``size_limit`` before anything is allocated.
    """
    r_max, d = kernels.r_max, kernels.dim
    count = max(min(CHUNK, horizon), 1)
    stacks = 1 if kernels.termination is None else 2
    check_size(16 * count * stacks * d * r_max * d, f"r_max = {r_max} at dim {d} needs",
               "of companion rows")
    block = np.eye(d, dtype=complex) if right is None else np.asarray(right, dtype=complex)
    if block.ndim != 2 or block.shape[0] != d:
        raise ValidationError(f"dim_mismatch: right-hand block {block.shape}, expected ({d}, c)")
    state = np.zeros((r_max,) + block.shape, dtype=complex)  # X_0 V = tail V, X_{<0} V = 0
    state[0] = block if kernels.aux0 is None else kernels.aux0 @ block
    wide = _wide(kernels.midpoint)
    # P_1 = e_0 C, the recurrence itself; smatpi reads U off Q_1 = [T_1 | ... | T_R]
    first = [wide] if stacks == 1 else [wide, _wide(kernels.termination)]
    with np.errstate(over="ignore", invalid="ignore"):  # a divergent set fails in _blocks
        rows = _companion_rows(np.array(first), wide, count)
    return _blocks(rows, state, horizon)


def compare(set_a: KernelSet, set_b: KernelSet, threshold: float = 1e-3):
    """Tabulate per-k norms of two kernel sets and their normwise difference.

    Returns ``(rows, first_below_a, first_below_b)``.  ``rows`` holds
    ``(k, |M^a_k|, |T^a_k|, |M^b_k|, |T^b_k|, |M^a_k - M^b_k|)`` for
    k = 1..max r_max, a cell None past a set's end or where a set has no
    termination stack.  ``first_below_*`` is the first k whose midpoint
    norm is below ``threshold`` (finite, > 0) times the set's own k = 1
    norm, else None.  The sets must share a splitting and exactly the same
    dt; their flavors may differ.
    """
    if not (np.isfinite(threshold) and threshold > 0):
        raise ValidationError(f"threshold: must be finite and > 0, got {threshold!r}")
    if set_a.splitting != set_b.splitting:
        raise ValidationError(
            f"splitting_mismatch: kernel sets are {set_a.splitting!r} and {set_b.splitting!r}"
        )
    if set_a.dt != set_b.dt:
        raise ValidationError("dt_mismatch: kernel sets differ in dt")
    if set_a.dim != set_b.dim:
        raise ValidationError("dim_mismatch: kernel sets differ in dimension")
    common = min(set_a.r_max, set_b.r_max)
    stacks = (set_a.midpoint, set_a.termination, set_b.midpoint, set_b.termination,
              set_a.midpoint[:common] - set_b.midpoint[:common])
    cols = [liou_norms(stack) for stack in stacks]
    rows = list(itertools.zip_longest(range(1, max(set_a.r_max, set_b.r_max) + 1), *cols))
    first_a, first_b = (next((k for k, v in enumerate(norms, 1) if v < threshold * norms[0]), None)
                        for norms in (cols[0], cols[2]))
    return rows, first_a, first_b


# ---------------------------------------------------------------------------
# Extraction pipeline
# ---------------------------------------------------------------------------

def extract_kernels(sys: SystemSpec, eta: EtaTable, r_max: int, flavor: str, *,
                    budget: int = DEFAULT_BUDGET):
    """Sum the path-sum oracle for r_max steps and extract a kernel set.

    The splitting and dt of the set are those of ``eta``, whose horizon
    bounds r_max.  Returns (kernel_set, full, aux): the set and the
    (R, d, d) oracle maps U_1..U_R and aux_1..aux_R it was solved from.
    A smatpi set is solved against its tail aux_0 (none under asym, whose
    aux_0 is exactly the identity).  A smatpi sym_sys set is written over
    X_n = aux_n G_half: its tail is aux_0 G_half and its termination
    G_half, 0, ..., 0.
    """
    from .pathsum import oracle_trajectory  # at call time, so a replaced one is the one run

    if flavor not in FLAVORS:
        raise ValidationError(f"flavor: unknown flavor {flavor!r}")
    splitting = eta.splitting
    full, aux0, aux = oracle_trajectory(sys, eta, r_max, budget=budget)
    if flavor == "ttm":
        return KernelSet(splitting, eta.dt, extract_ttm(full)), full, aux

    tail = None if splitting == "asym" else aux0
    mids = solve_midpoint(aux, tail)
    if splitting == "sym_sys":  # U_N = G_half (aux_{N-1} G_half): T_1 = G_half, T_k = 0
        g_half = fb_propagators(sys, 0.5 * eta.dt)[0]
        terms = np.zeros_like(mids)
        terms[0] = g_half
        tail = aux0 @ g_half
    else:
        terms = solve_termination(full, aux, tail)
    return KernelSet(splitting, eta.dt, mids, terms, tail), full, aux
