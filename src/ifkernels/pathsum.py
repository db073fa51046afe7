"""Exact path-sum oracle for the discretized reduced dynamics.

The reduced-density-matrix map after N steps is summed over all
forward-backward paths:

    U_N[a_N, a_0] = sum over a_1..a_{N-1} of
        prod_j G1[a_j, a_{j-1}] * prod_{k >= k'} F(k, k')[a_k, a_{k'}]

where G1 is the whole-step system propagator and F(k, k') are influence
factors of the coefficient ``eta.interior[k - k']``, or ``eta.right[k - k']``
where k is the measured end N.  No path is filtered or approximated; the
oracle pins down every other object in the package at desk scale.
``oracle_trajectory(sys, eta, steps)`` is the one entry point: it returns
every full and auxiliary map up to ``steps``.  The eta table is the only
source of the splitting, the step dt and the horizon that bounds ``steps``.

Summation
---------
A path weight is a product of per-pair factor matrices (the QuAPI
construction), so weights are built by broadcasting, not per path.  Each
whole-step propagator is merged into the pair factor of its two neighbours.

Only half of the (a_N, a_0) columns are summed.  Swapping the forward and
backward value of every point maps a path to one with the conjugate weight
(H is Hermitian, G1 = kron(u, conj(u)) and the coupling eigenvalues are
real), so U[(f,b),(f',b')] = conj(U[(b,f),(b',f')]).  The sums run over the
canonical columns, the smaller flat index of each mirror pair: (d^2 + n^2)/2
of the d^2, with d = n^2 values per point.  The mirror columns are filled
by conjugation and the n^2 self-mirror entries (both values diagonal) keep
their real part.  The dressed asym and sym_sys maps are refilled so too, so
every map ``oracle_trajectory`` returns has the symmetry exactly.

The interior points 1..N-1 fall into three runs (``_split``): the
trailing m *column* points, the q *row* points before them, and the
leading p points, which run on an odometer.  A point's factors with the
measured end (by e, the measured-end factor set, and a_N) and with the
origin (by a_0) stay separable, d-wide tables by separation (``to_end``,
with the point's self weight, and ``sep``).  They meet on the canonical
columns (e, a_N, a_0) only where a table needs both: the column matrix
Z^T[column, key], the row table and each odometer point's end factors, so
memory grows as n^4 per point.

The column points sit 1..m steps and the row points m+1..m+q steps before
the measured end whatever N is, so their end tables (``col_ends``,
``ends``), the cross factors W[row, key] of the rows with the columns
(``row_col``) and a point's factors with the rows or columns after it
(``rows``, ``to_columns``, both by ``_cross``) are built once per call, each
the previous length's table extended by one point.  The origin is one more
point before the others, its factors taken from the same tables.  Where the
columns take every point (q = 0, N <= 5 at n = 2) a length is one product
(d x K) @ (K x ends d).  The factors of the two ends alone scale a length's
whole sum; they, the mirror fill and the finiteness check run once per
call, over all lengths.

The column points are summed by class.  The later point of a pair enters
its factor through Δs = s+ - s- alone (see ``bath.influence_pair_matrix``),
and every column point is the later point of its pairs with the row and
odometer points and the origin.  The one exception is G1, merged into the
factor of neighbours: it ties the point before the columns to the first
column point by both values.  So W and the factors of the origin and the
odometer points with the column points have the same columns, bit for bit,
for all column tuples that agree in the value of the first column point
and in the Δs class of every later one (classes compare Δs by exact float
equality).  The column end table sums the tuples of each key as it grows,
and the other factors are built on one value per class: the products
contract over K = d c^(m-1) keys, not d^m tuples, with c the number of Δs
classes (c = 3 at n = 2, where Δs is 0 or ±2, so K = 108 where d^4 = 256).

Each odometer prefix scales Z^T by its factors with the column points, and
the d values of the last odometer point are stacked, so one GEMM (d^q x K)
@ (K x d width) serves d prefixes (width = the canonical columns of every
end set).  Its output is weighted in place by the row table, and each
prefix's row and end factors contract and scale its own block.  Every one
of these matrices, stacked ones included, stays within _BATCH entries, or
within d x width entries where that is larger: one point's end factors on
the canonical columns have that size anyway, and the floor keeps at least
one row and one column point, so large n never falls back to one Python
call per path.  Where d stacked copies would not fit, the last point's
values go in near-equal groups, one GEMM each.  Columns are filled first,
then rows: for n = 2 under sym_env (width 2 x 10) the length N = 11 takes 4
GEMMs of (256 x 108) @ (108 x 80), and for n = 6 the length N = 4 takes 36
GEMMs of (36 x 36) @ (36 x 1332).  The odometer sums the d subtrees of each
level in order, so results are reproducible bit for bit, a length's maps do
not depend on the other lengths of the call, and the rounding grows with p,
not with the d^p prefixes.  Maps of one length that differ only at the
measured end are summed in the same pass, and ``oracle_trajectory`` sums
each length once.

Structure per splitting
-----------------------
sym_env
    Path points 0..N all carry influence factors; pairs touching the
    measured end N take the endpoint-flavored ``right`` coefficients,
    everything else ``interior``.  The auxiliary map takes ``interior`` at
    the measured end too (fully translation invariant), so a full map and
    its auxiliary share one pass.
sym_sys
    U_N = G_half . (auxiliary of length N-1) . G_half, where the auxiliary
    joins k+1 points with whole-step propagators and uniform-window factors.
    The length-0 auxiliary is the diagonal matrix of single-point factors.
asym
    The initial point carries no influence factors (I_{k,0} = 1) and enters
    through G1 alone: U_N = W_{N-1} . G1, with W the sum sym_sys sums (W_0
    the single-point factor matrix).  The auxiliary coincides with the full
    map, and aux_0 is the identity.
"""

from __future__ import annotations

import numpy as np

from .bath import EtaTable, influence_pair_matrix
from .errors import NumericalError, ValidationError
from .liouville import SystemSpec, check_finite, fb_propagators

DEFAULT_BUDGET = 10**8
SIZE_LIMIT = 1 << 29  # bytes of the largest dense array one path sum may ask for
_BATCH = 1 << 16


def check_budget(n: int, steps: int, budget: int):
    """Refuse a path sum of ``steps`` >= 1 steps before any table or enumeration.

    Every splitting counts n^(2 (steps-1)) configurations per map, so one
    budget refuses the same runs under each; asym sums n^2 times fewer.
    Since n^2 >= 4, a count of 2 (steps-1) bits or more exceeds the budget
    without being formed, so a huge ``steps`` costs nothing.
    """
    if steps >= 1 and (2 * (steps - 1) >= budget.bit_length() or (n * n) ** (steps - 1) > budget):
        raise NumericalError(
            f"pathsum_budget: {n * n}^{steps - 1} configurations exceed budget {budget}"
        )


def _influence(sys, eta, horizon, g1):
    """Pair factors by separation 0..horizon of coefficient arrays ``eta`` (..., L).

    ``pairs[..., s, a_k, a_k']`` is the factor of two points s = k - k' apart,
    a (..., horizon + 1, d, d) stack; the diagonal of separation 0 holds the
    self weights, and the whole-step propagator G1 linking neighbours is
    merged into separation 1.  Raises NumericalError ("non_finite") if a
    factor that is read overflows, before any path is summed.
    """
    with np.errstate(all="ignore"):
        pairs = influence_pair_matrix(sys, eta[..., : horizon + 1])
    if not (np.isfinite(pairs[..., 0, :, :].diagonal(0, -2, -1)).all()
            and np.isfinite(pairs[..., 1:, :, :]).all()):
        raise NumericalError("non_finite: influence factors are not finite")
    pairs[..., 1:2, :, :] *= g1  # empty at horizon 0
    return pairs


def check_size(size: int, need: str, what: str):
    """Refuse ``size`` bytes over SIZE_LIMIT: ``size_limit: <need> <GiB> GiB <what>, ...``."""
    if size > SIZE_LIMIT:
        raise ValidationError(f"size_limit: {need} {size / 2**30:.1f} GiB {what},"
                              f" over the {SIZE_LIMIT / 2**30:.1f} GiB limit")


def _check_size(n: int, steps: int, ends: int):
    """Refuse a path sum whose largest dense array would exceed SIZE_LIMIT, before any allocation.

    That is a (d, d) Liouville matrix, d = n^2, or d x width entries for
    each of the steps - 1 interior points, with width = ``ends`` x
    (d^2 + n^2)/2 canonical columns: the size of the odometer points' end
    and origin factors on the canonical columns.  Every other table that
    combines them holds at most one point's share or _BATCH entries (1 MiB).
    """
    d = n * n
    check_size(16 * d * max(d, (steps - 1) * ends * (d * d + d) // 2),
               f"n = {n} at {steps} steps needs a", "array")


def _split(n_int: int, d: int, width: int):
    """(odometer, row, column, stacked) counts for ``n_int`` interior points.

    Every chunk matrix stays within max(_BATCH, d x ``width``) entries: the
    column matrix (d^m x ``width``), the cross-factor matrix (d^q x d^m at most),
    the row table and the GEMM output (d^q x ``width``), and the same two
    matrices with ``stacked`` values of the last odometer point side by
    side in their columns.  Columns are filled first, while Z and a square
    cross-factor matrix fit; rows next.  The rest run on the odometer.  The
    d values of the last odometer point go in groups of ``stacked``, as
    even as the bound allows.
    """
    cap = max(_BATCH, d * width)
    m, cols = 0, 1  # cols = d^m
    while m < n_int and d * cols * max(width, d * cols) <= cap:
        m, cols = m + 1, cols * d
    q, rows = 0, 1  # rows = d^q
    while m + q < n_int and d * rows * max(width, cols) <= cap:
        q, rows = q + 1, rows * d
    groups = -(-d // (cap // (width * max(rows, cols))))
    return n_int - m - q, q, m, -(-d // groups)


def _cross(table, sep_t, r: int, reps=None) -> np.ndarray:
    """A point's factors with the run o, o+1, .. steps after it: ``table`` one point longer.

    ``[o - 1][a, (y_0, ..)]`` for every offset o the separations allow, y_0
    slowest; ``reps`` keeps one value per class of the new point (column keys).
    """
    mat = sep_t[r : r + len(table)]
    if reps is not None:
        mat = mat[:, :, reps]
    return (table[: len(mat), :, :, None] * mat[:, :, None, :]).reshape(len(mat), table.shape[1], -1)


class _PathSums:
    """The path sums of one ``oracle_trajectory`` call: every map length in one pass.

    The sums build their own factors up to ``horizon``: one pair-factor set
    per measured-end coefficient array in ``coeffs``, summed side by side
    (the last is the interior set), with ``g1`` merged into separation 1.
    ``aux0`` is the single-point factor matrix.  Only the ``canonical``
    flat (a_N, a_0) columns are summed; ``fill`` adds their ``mirror``.
    """

    def __init__(self, sys: SystemSpec, g1: np.ndarray, coeffs, horizon: int):
        n, d, ends = sys.n, sys.dim, len(coeffs)
        pairs = _influence(sys, np.stack(coeffs), horizon, g1)
        self.sep, self.sep_t = pairs[-1], pairs[-1].transpose(0, 2, 1)
        w = self.sep[0].diagonal()
        self.aux0 = np.diag(w)
        # ``reps``: the first value of each Δs class; class_of[c, a] = 1 where a is in class c
        s = np.asarray(sys.coupling_eigenvalues)
        ds = np.subtract.outer(s, s).ravel()
        first = (ds[:, None] == ds).argmax(axis=1)
        self.reps = np.flatnonzero(first == np.arange(d))
        self.class_of = (np.searchsorted(self.reps, first) == np.arange(len(self.reps))[:, None]) + 0j
        flat = np.arange(d * d)
        mirror = flat.reshape(n, n, n, n).transpose(1, 0, 3, 2).ravel()
        self.canonical = np.flatnonzero(flat <= mirror)
        self.mirror = mirror[self.canonical]
        self.self_mirror = np.flatnonzero(self.mirror == self.canonical)
        # a canonical column (e, a_N, a_0): its row in the (e, a_N) tables and in the a_0 ones
        columns = (np.arange(ends)[:, None] * d * d + self.canonical).ravel()
        self.col_end, self.col_0 = np.divmod(columns, d)
        # ``rows`` holds the offsets 1..p + 1 that ``_sum`` reads, p the longest length's odometer
        self.row_offsets = _split(horizon - 1, d, len(columns))[0] + 1
        # by separation s: base[s - 1], the two ends of a path of s steps alone;
        # to_end[s - 1][a, (e, a_N)], the self weight of a point s steps before
        # the measured end and its factors with it
        ends_w = (pairs[:, 0].diagonal(0, -2, -1)[:, :, None] * w).ravel()[columns]
        self.base = pairs[:, 1:].transpose(1, 0, 2, 3).reshape(horizon, ends * d * d)[:, columns]
        self.base *= ends_w
        self.to_end = (pairs[:, 1:-1].transpose(1, 3, 0, 2) * w[:, None, None]).reshape(
            -1, d, ends * d)
        self._tables = {}

    def _runs(self, key, run: int, first, extend, keep=True):
        """The table ``key`` of ``run`` points, built from the run before; ``keep`` holds every run."""
        tables = self._tables.setdefault(key, [])
        for r in range(len(tables), run + 1):
            tables.append(extend(tables[-1], r) if r else first())
            if r and not keep:  # held, runs nobody reads again slowed asym calls 3 %
                tables[r - 1] = None
        return tables[run]

    def rows(self, run: int) -> np.ndarray:
        """``_cross`` on every tuple of ``run`` row points: a new last point extends the run."""
        return self._runs("rows", run,
                          lambda: np.ones((self.row_offsets, self.class_of.shape[1], 1), dtype=complex),
                          lambda t, r: _cross(t, self.sep_t, r))

    def ends(self, offset: int, run: int) -> np.ndarray:
        """``[(y_0, ..), (e, a_N)]``: a run's self weights, mutual factors and end factors.

        Its last point is ``offset`` + 1 steps before the end; a new first point extends it.
        """

        def extend(table, r):
            mutual = self.rows(r - 1)[0][:, :, None] * table
            return (self.to_end[offset + r - 1][:, None, :] * mutual).reshape(-1, table.shape[1])

        return self._runs(("ends", offset), run,
                          lambda: np.ones((1, self.to_end.shape[2]), dtype=complex), extend, False)

    def to_columns(self, run: int) -> np.ndarray:
        """``_cross`` on the keys of ``run`` column points: a new last point extends the run."""
        return self._runs("to_columns", run,
                          lambda: np.ones((len(self.sep), self.class_of.shape[1], 1), dtype=complex),
                          lambda t, r: _cross(t, self.sep_t, r, self.reps if r > 1 else None))

    def row_col(self, q: int, m: int) -> np.ndarray:
        """W[row, key]: the factors of q row points with the column keys; a new first row extends it."""
        cols = self.to_columns(m)
        return self._runs(("row_col", m), q, lambda: np.ones((1, cols.shape[2]), dtype=complex),
                          lambda table, r: (cols[r - 1][:, None, :] * table).reshape(
                              -1, table.shape[1]), False)

    def col_ends(self, run: int) -> np.ndarray:
        """[key, (e, a_N)]: ``ends(0, run)`` summed over the tuples of each ``to_columns`` key.

        A new first point extends the run; the point after it is then summed by class.
        """
        d, width = self.class_of.shape[1], self.to_end.shape[2]

        def extend(table, r):
            table = self.to_columns(r - 1)[0][:, :, None] * table
            if r > 1:  # the old first point, no longer next to the rows, joins the key by class
                table = self.class_of @ table.reshape(d, d, -1)
            return (self.to_end[r - 1][:, None, :] * table.reshape(d, -1, width)).reshape(-1, width)

        return self._runs("col_ends", run, lambda: np.ones((1, width), dtype=complex), extend,
                          False)

    def _sum(self, steps: int) -> np.ndarray:
        """The sum over the interior points of one length, without the two ends alone."""
        d, width = self.class_of.shape[1], len(self.col_0)
        p, q, m, stacked = _split(steps - 1, d, width)
        if not q:
            return (self.to_columns(m)[0] @ self.col_ends(m))[self.col_0, self.col_end]
        # to_rows[k], to_cols[k]: point k's factors with the rows and with the
        # column keys, k = 0 the origin
        to_rows, to_cols = self.rows(q)[p::-1], self.to_columns(m)[p + q :: -1]
        col_mat = self.col_ends(m).T[self.col_end]
        col_mat *= to_cols[0][self.col_0]
        row_ends = self.ends(m, q)[:, self.col_end]
        row_ends *= to_rows[0].T[:, self.col_0]
        if not p:
            return _leaf((row_ends, self.row_col(q, m), col_mat.T, stacked))
        # odometer point k = 1..p: its end and origin factors on the canonical columns
        ends = (self.to_end[steps - 1 - p : steps - 1][::-1][:, :, self.col_end]
                * self.sep[1 : p + 1][:, :, self.col_0])
        tables = (ends, self.sep, to_rows[1:], to_cols[1:], row_ends,
                  self.row_col(q, m), col_mat.T, stacked)
        return _odometer_sum(tables, 1, np.ones(width, dtype=complex), np.ones(d**q, dtype=complex),
                             np.ones(col_mat.shape[1], dtype=complex), np.ones((p, d), dtype=complex))

    def maps(self) -> np.ndarray:
        """(ends, horizon, d, d): the maps of every length, one per measured-end factor set."""
        acc = np.array([self._sum(k) for k in range(1, len(self.base) + 1)], dtype=complex)
        acc = acc.reshape(self.base.shape) * self.base
        ends, columns = len(self.col_0) // len(self.canonical), len(self.canonical)
        acc = acc.reshape(len(acc), ends, columns).transpose(1, 0, 2)
        return check_finite(self.fill(acc), "path sum", NumericalError)

    def fill(self, acc: np.ndarray) -> np.ndarray:
        """(..., d, d) maps from their canonical columns ``acc[..., c]``."""
        d = self.class_of.shape[1]
        out = np.empty(acc.shape[:-1] + (d * d,), dtype=complex)
        out[..., self.mirror] = acc.conj()
        out[..., self.canonical] = acc
        # the self-mirror entries (both values diagonal) keep their real part
        out[..., self.canonical[self.self_mirror]] = acc[..., self.self_mirror].real
        return out.reshape(acc.shape[:-1] + (d, d))


def _odometer_sum(tables, k, ends_v, row_v, col_v, prior):
    """Sum over the paths with the odometer points 1..k-1 fixed.

    Their factors are folded into ``ends_v`` (with both ends, on the
    canonical columns), ``row_v`` (with the row points), ``col_v`` (with
    the column keys) and ``prior[j - k]`` (with odometer point j >= k).  The
    values of the last odometer point are stacked, so each group of them
    takes one GEMM.  Every level adds its d subtrees in order, so the
    rounding grows with p, not with the d^p prefixes.
    """
    ends, sep, to_rows, to_cols, *_, stacked = tables
    if len(prior) == 1:
        groups = (slice(lo, lo + stacked) for lo in range(0, prior.shape[1], stacked))
        return sum(_leaf(tables, (ends_v * ends[k - 1][g] * prior[0, g, None],
                                  row_v * to_rows[k - 1][g], col_v * to_cols[k - 1][g]))
                   for g in groups)
    return sum(
        _odometer_sum(tables, k + 1, ends_v * ends[k - 1][v] * prior[0, v], row_v * to_rows[k - 1][v],
                      col_v * to_cols[k - 1][v], prior[1:] * sep[1 : len(prior), :, v])
        for v in range(prior.shape[1])
    )


def _leaf(tables, prefixes=None):
    """Sum over the row and column points for s fixed odometer prefixes.

    ``prefixes`` holds the prefixes' factors (``_odometer_sum``): (s, width),
    (s, d^q) and (s, K), K the keys of Z; none where there is no odometer.
    Their scaled copies of Z^T are stacked, so one GEMM
    (d^q x K) @ (K x s width) serves all s; each prefix's row factors then
    contract its own block of the output, and the prefixes are added in order.
    """
    row_ends, row_col, col_mat, _ = tables[-4:]
    keys, width = col_mat.shape
    if prefixes is None:
        z = col_mat.T
    else:
        ends_v, row_v, col_v = prefixes
        z = (col_v[:, None, :] * col_mat.T).reshape(-1, keys)
    y = (row_col @ z.T).reshape(len(row_col), -1, width)
    y *= row_ends[:, None, :]
    if prefixes is None:
        return y[:, 0].sum(axis=0)
    sums = (row_v[:, None, :] @ y.transpose(1, 0, 2))[:, 0]
    sums *= ends_v
    return sums.sum(axis=0)


def oracle_trajectory(sys: SystemSpec, eta: EtaTable, steps: int, *, budget: int = DEFAULT_BUDGET):
    """Full and auxiliary map sequences U_1..U_steps, (aux0, Ũ_1..Ũ_steps).

    The splitting and the step dt are those of ``eta``, whose horizon bounds
    ``steps``.  The trailing element of the auxiliary information is the
    index-0 auxiliary (single-point factor matrix), needed as the terminal
    of the midpoint hierarchy.  Each map length is summed once; both
    sequences are (steps, n^2, n^2) arrays.
    """
    if steps < 0:
        raise ValidationError(f"steps: must be >= 0, got {steps}")
    if steps > eta.horizon:
        raise ValidationError(
            f"eta_missing: {steps} steps need separations up to {steps}, table has {eta.horizon}"
        )
    splitting = eta.splitting
    coeffs = (eta.interior,) if eta.right is eta.interior else (eta.right, eta.interior)
    horizon = max(steps - (splitting == "asym"), 0)  # asym dresses one length shorter
    _check_size(sys.n, horizon, len(coeffs))
    check_budget(sys.n, steps, budget)
    taus = (eta.dt, 0.5 * eta.dt) if splitting == "sym_sys" else (eta.dt,)
    g1, *g_half = fb_propagators(sys, *taus)  # one eigendecomposition of H
    sums = _PathSums(sys, g1, coeffs, horizon)
    maps = sums.maps()
    if splitting == "sym_env":
        return maps[0], sums.aux0, maps[-1].copy()
    inner = np.concatenate((sums.aux0[None], maps[0]))[:steps]
    full = inner @ g1 if splitting == "asym" else g_half[0] @ inner @ g_half[0]
    full = sums.fill(full.reshape(-1, sys.dim**2)[:, sums.canonical])
    full = check_finite(full, "dressed path sum", NumericalError)
    if splitting == "asym":
        return full, np.eye(sys.dim, dtype=complex), full.copy()
    return full, sums.aux0, maps[0]
