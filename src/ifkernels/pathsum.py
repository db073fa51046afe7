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
their real part, so every path-sum map has the symmetry exactly.

The interior points 1..N-1 fall into three runs (``_split``):

* the trailing m *column* points index the d^m rows of the column matrix
  Z[x, (e, a_N, a_0)]: their self weights, mutual factors and factors with
  both ends, for every measured-end factor set e;
* the q *row* points before them index the d^q rows of the cross-factor
  matrix W[row, x] of their factors with the column points, and of a row
  table of their own self weights, mutual factors and end factors;
* the leading p points run on an odometer.

Z and the row table hold end factors, so each map length builds its own,
one axis at a time, from the factors of a point with either end, which are
tabulated by separation once per call.  The factors of the two ends alone
scale a length's whole sum, so they are applied after it.  The tables that
depend on separations alone are built once per ``oracle_trajectory`` call
and shared by its map lengths: the stack of pair factors by separation,
the mutual factors of a run of consecutive points (by run length, each
extending the run one point shorter), the factors of one point with a later
run (by offset and run length) and W (by q and m).  Each length keeps the
shared tables it used and drops the rest.  The split only grows with N, so
a dropped table is seldom needed again, and one that is gets rebuilt with
the same bits.

The short lengths, where the columns take every point (q = 0, N <= 5 at
n = 2), need no odometer, W or GEMM: their sum is the mutual factors of the
points times Z's rows, one product per length.  Every length's result goes
into one array, so the end factors, the mirror fill and the finiteness
check run once per call, over all lengths.

The column points are summed by class.  The later point of a pair enters
its factor through Δs = s+ - s- alone (see ``bath.influence_pair_matrix``),
and every column point is the later point of its pairs with the row and
odometer points.  The one exception is G1, merged into the factor of
neighbours: it ties the last row point to the first column point by both
values.  So W, and the odometer points' factors with the column points,
have the same columns, bit for bit, for all column tuples that agree in the
value of the first column point and in the Δs class of every later one
(classes compare Δs by exact float equality).  Where rows exist (q >= 1),
the rows of Z that share such a key are summed first, by one index sum, and
W and those factors are built on one value per class: the GEMMs contract
over K = d c^(m-1) keys, not d^m tuples, with c the number of Δs classes
(c = 3 at n = 2, where Δs is 0 or ±2, so K = 108 where d^4 = 256).

Each odometer prefix scales the rows of Z by its factors with the column
points, and the d values of the last odometer point are stacked side by
side, so one GEMM (d^q x K) @ (K x d width) serves d prefixes (width = the
columns of Z).  The GEMM output Y is weighted in place by the row table,
and each prefix's factors with the row points sum its own strided slice of
Y, so no copy of Y is made; each prefix's own weight and end factors scale
its result.  Every one of these matrices, stacked ones included, stays
within _BATCH entries, or within d x width entries where that is larger:
one point's end-factor table has that size anyway, and the floor keeps at
least one row and one column point, so large n never falls back to one
Python call per path.  Where d stacked copies would not fit, the last
point's values go in near-equal groups, one GEMM each.
Columns are filled first, then rows: for n = 2 under sym_env (width 2 x 10)
the length N = 11 takes 4 GEMMs of (256 x 108) @ (108 x 80), and for n = 6
the length N = 4 takes 36 GEMMs of (36 x 36) @ (36 x 1332).  The odometer
sums the d subtrees of each level in order, so results are reproducible bit
for bit, a length's maps do not depend on the other lengths of the call,
and the rounding grows with p, not with the d^p prefixes.  Maps of one
length that differ only at the measured end are summed in the same pass,
and ``oracle_trajectory`` sums each length once.

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
    the single-point factor matrix), refilled from its canonical columns.
    The auxiliary coincides with the full map, and aux_0 is the identity.
"""

from __future__ import annotations

import numpy as np

from .bath import EtaTable, influence_pair_matrix
from .errors import EtaMissingError, NumericalError, PathSumBudgetError, ValidationError
from .liouville import SystemSpec, check_finite, fb_propagator

DEFAULT_BUDGET = 10**8
SIZE_LIMIT = 1 << 29  # bytes of the largest dense array one path sum may ask for
_BATCH = 1 << 16


def config_count(n: int, steps: int) -> int:
    """Number of summed interior configurations, n^(2 (steps-1)), exactly."""
    return (n * n) ** max(steps - 1, 0)


def _check_budget(n: int, steps: int, budget: int):
    """Refuse a path sum of ``steps`` >= 1 steps before any enumeration.

    Every splitting counts n^(2 (steps-1)) configurations per map, so one
    budget refuses the same runs under each; asym sums n^2 times fewer.
    """
    if steps < 1:
        return
    count = config_count(n, steps)
    if count > budget:
        raise PathSumBudgetError(
            f"pathsum_budget: {count} configurations exceed budget {budget}"
        )


def _influence(sys, eta, horizon, g1):
    """Pair factors by separation 0..horizon of one coefficient array.

    ``pairs[s][a_k, a_k']`` is the factor of two points s = k - k' apart, a
    (horizon + 1, d, d) stack; the diagonal of ``pairs[0]`` holds the self
    weights, and the whole-step propagator G1 linking neighbours is merged
    into ``pairs[1]``.  Raises NumericalError ("non_finite") if a factor
    that is read overflows, before any path is summed.
    """
    with np.errstate(all="ignore"):
        pairs = influence_pair_matrix(sys, eta[: horizon + 1])
    if not (np.isfinite(pairs[0].diagonal()).all() and np.isfinite(pairs[1:]).all()):
        raise NumericalError("non_finite: influence factors are not finite")
    pairs[1:2] *= g1  # empty at horizon 0
    return pairs


def _check_size(n: int, steps: int, ends: int):
    """Refuse a path sum whose largest dense array would exceed SIZE_LIMIT, before any allocation.

    That is a (d, d) Liouville matrix, d = n^2, or the end-factor table of the
    steps - 1 interior points, d x width entries each, with width = ``ends``
    x (d^2 + n^2)/2 canonical columns.  The chunk matrices stay within one
    point's share of that table or _BATCH entries (1 MiB).
    """
    d = n * n
    size = 16 * d * max(d, (steps - 1) * ends * (d * d + d) // 2)
    if size > SIZE_LIMIT:
        raise ValidationError(
            f"size_limit: n = {n} at {steps} steps needs a {size / 2**30:.1f} GiB array,"
            f" over the {SIZE_LIMIT / 2**30:.1f} GiB limit"
        )


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
    m = 0
    while m < n_int and d ** (m + 1) * max(width, d ** (m + 1)) <= cap:
        m += 1
    q = 0
    while m + q < n_int and d ** (q + 1) * max(width, d ** m) <= cap:
        q += 1
    groups = -(-d // (cap // (width * d ** max(q, m))))
    return n_int - m - q, q, m, -(-d // groups)


def _face(mats, width: int) -> np.ndarray:
    """Row-wise Kronecker product ``out[(y_0, .., y_g-1), z] = prod_i mats[i][y_i, z]``.

    One axis is added at a time, y_0 slowest; no matrices give one row of ones.
    """
    out = np.ones((1, width), dtype=complex)
    for mat in mats:
        out = (out[:, None, :] * mat).reshape(-1, width)
    return out


class _PathSums:
    """The path sums of one ``oracle_trajectory`` call: every map length in one pass.

    The sums build their own factors up to ``horizon``: G1 of the step ``dt``
    and one pair-factor set per measured-end coefficient array in ``coeffs``,
    summed side by side; the last is the interior set.  ``aux0`` is the
    single-point factor matrix.  Only the canonical (a_N, a_0) columns
    ``a_end``, ``a_0`` are summed; ``fill`` makes the others, their mirrors
    with both point values swapped (f, b) -> (b, f).  The factors of a point
    with either end are tabulated once, by separation.  The pair-factor
    tables of runs of consecutive points depend on separations alone, so the
    map lengths share them: each length keeps the ones it used and drops the
    rest, and a table lives as long as the lengths that share it.
    """

    def __init__(self, sys: SystemSpec, dt: float, coeffs, horizon: int):
        n, d = sys.n, sys.dim
        g1 = fb_propagator(sys, dt)
        ends = [_influence(sys, eta, horizon, g1) for eta in coeffs]
        self.sep = ends[-1]
        self.self_w = self.sep[0].diagonal()
        self.aux0 = np.diag(self.self_w)
        # the Δs class of each value of a point, and ``reps``: one value per class
        s = np.asarray(sys.coupling_eigenvalues)
        _, self.reps, self.classes = np.unique(np.subtract.outer(s, s).ravel(), return_index=True,
                                               return_inverse=True)
        self.n_ends = len(ends)
        swap = np.arange(d).reshape(n, n).T.ravel()
        a_end, a_0 = np.divmod(np.arange(d * d), d)
        canonical = a_end * d + a_0 <= swap[a_end] * d + swap[a_0]
        self.a_end, self.a_0 = a_end, a_0 = a_end[canonical], a_0[canonical]
        self.mirror = swap[a_end], swap[a_0]
        self.self_mirror = (self.mirror[0] == a_end) & (self.mirror[1] == a_0)
        self.width = self.n_ends * a_end.size
        # by separation s = 1..horizon (interior points sit at 1..horizon-1 from
        # both ends): base[s - 1] on the canonical columns, the two ends of a path
        # of s steps alone; to_end[s - 1][a, e, a_N], the factors of a point s steps
        # before the measured end with it; to_origin[s - 1][a, a_0], the self
        # weight of interior point s and its factor with the origin
        self.base = np.concatenate([pairs[0].diagonal()[a_end] * pairs[1:, a_end, a_0]
                                    * self.self_w[a_0] for pairs in ends], axis=1)
        self.to_end = np.stack([pairs[1:-1].transpose(0, 2, 1) for pairs in ends], axis=2)
        self.to_origin = self.sep[1:-1] * self.self_w[:, None]
        self._kept, self._used = {}, {}

    def _table(self, key, build):
        """The shared table ``key``: kept from the previous length, or ``build()``."""
        if key not in self._used:
            self._used[key] = self._kept.pop(key) if key in self._kept else build()
        return self._used[key]

    def mutual(self, run: int) -> np.ndarray:
        """Pair factors among ``run`` consecutive points, flat over their values.

        The last point's factors with the earlier ones extend the table of
        ``run - 1`` points.
        """

        def build():
            if not run:
                return np.ones(1, dtype=complex)
            later = _face(self.sep[run - 1 : 0 : -1].transpose(0, 2, 1), self.self_w.size)
            return (self.mutual(run - 1)[:, None] * later).ravel()

        return self._table(("mutual", run), build)

    def cross(self, offset: int, run: int, grouped: bool = False) -> np.ndarray:
        """``[a_k, (a_j for j = k+offset .. k+offset+run-1)]``: point k's factors with a later run.

        ``grouped`` keeps one value per class for every point of the run but
        the first: the column keys of the grouped Z.
        """

        def build():
            mats = list(self.sep[offset : offset + run])
            if grouped:
                mats[1:] = [mat[self.reps] for mat in mats[1:]]
            return np.ascontiguousarray(_face(mats, self.self_w.size).T)

        return self._table(("cross", offset, run, grouped), build)

    def row_col(self, q: int, m: int, keys: int) -> np.ndarray:
        """W[row, key]: the cross factors of q row points with the column keys after them."""
        return self._table(("row_col", q, m), lambda: _face(
            [self.cross(q - i, m, grouped=True) for i in range(q)], keys))

    def group(self, z: np.ndarray, m: int) -> np.ndarray:
        """Z summed over the column tuples that share a key, in one index sum.

        The key of a tuple of m column points is the first point's value and
        the classes of the others, in the order of the grouped ``cross``.
        """

        def build():
            key = np.arange(self.self_w.size)
            for _ in range(1, m):
                key = (key[:, None] * self.reps.size + self.classes).ravel()
            order = np.argsort(key, kind="stable")
            return order, np.searchsorted(key[order], np.arange(key.max() + 1))

        order, starts = self._table(("group", m), build)
        return np.add.reduceat(z[order], starts)

    def _sum(self, steps: int) -> np.ndarray:
        """The sum over the interior points of one length, without the two ends alone.

        Where the columns take every point the sum is one product with their
        mutual factors; otherwise Z, the row table and W of the module
        docstring go to the odometer.
        """
        d, width = self.self_w.size, self.width
        # link[k - 1][a_k, (e, a_N, a_0)]: interior point k's self weight and its
        # factors with both ends, on the canonical columns
        link = self.to_end[: steps - 1][::-1][..., self.a_end]
        link *= self.to_origin[: steps - 1][:, :, None, self.a_0]
        link = link.reshape(steps - 1, d, width)
        p, q, m, stacked = _split(steps - 1, d, width)
        if not q:
            return self.mutual(m) @ _face(link, width)
        col_mat = _face(link[p + q :], width)
        col_mat *= self.mutual(m)[:, None]
        if m > 1:  # a single column point is its own key
            col_mat = self.group(col_mat, m)
        keys = len(col_mat)
        row_ends = _face(link[p : p + q], width)
        row_ends *= self.mutual(q)[:, None]
        to_rows = [None] + [self.cross(p + 1 - k, q) for k in range(1, p + 1)]
        to_cols = [None] + [self.cross(p + q + 1 - k, m, grouped=True) for k in range(1, p + 1)]
        tables = (link, self.sep, to_rows, to_cols, row_ends, self.row_col(q, m, keys),
                  col_mat, stacked)
        return _odometer_sum(tables, 1, np.ones(width, dtype=complex), np.ones(d**q, dtype=complex),
                             np.ones(keys, dtype=complex), np.ones((p, d), dtype=complex))

    def maps(self) -> np.ndarray:
        """(ends, horizon, d, d): the maps of every length, one per measured-end factor set."""
        steps = len(self.base)
        acc = np.empty((steps, self.width), dtype=complex)
        for k in range(1, steps + 1):
            acc[k - 1] = self._sum(k)
            # drop every shared table this length did not use
            self._kept, self._used = self._used, {}
        acc *= self.base
        acc = acc.reshape(steps, self.n_ends, self.a_end.size).transpose(1, 0, 2)
        return check_finite(self.fill(acc), "path sum", NumericalError)

    def fill(self, acc: np.ndarray) -> np.ndarray:
        """(..., d, d) maps from their canonical columns ``acc[..., c]``, which it changes."""
        d = self.self_w.size
        acc[..., self.self_mirror] = acc[..., self.self_mirror].real
        out = np.empty(acc.shape[:-1] + (d, d), dtype=complex)
        out[..., self.mirror[0], self.mirror[1]] = acc.conj()
        out[..., self.a_end, self.a_0] = acc
        return out


def _odometer_sum(tables, k, ends_v, row_v, col_v, prior):
    """Sum over the paths with the odometer points 1..k-1 fixed.

    Their factors are folded into ``ends_v`` (with the ends), ``row_v`` (with
    the row points), ``col_v`` (with the column points) and ``prior[j - k]``
    (with odometer point j >= k).  The values of the last odometer point are
    stacked, so each group of them takes one GEMM.  Every level adds its d
    subtrees in order, so the rounding grows with p, not with the d^p
    prefixes.
    """
    link, sep, to_rows, to_cols, *_, stacked = tables
    if not len(prior):
        return _leaf(tables, ends_v[None], row_v[None], col_v[None])
    if len(prior) == 1:
        groups = (slice(lo, lo + stacked) for lo in range(0, prior.shape[1], stacked))
        return sum(_leaf(tables, ends_v * prior[0, g, None] * link[k - 1][g], row_v * to_rows[k][g],
                         col_v * to_cols[k][g])
                   for g in groups)
    return sum(
        _odometer_sum(tables, k + 1, ends_v * prior[0, v] * link[k - 1][v], row_v * to_rows[k][v],
                      col_v * to_cols[k][v], prior[1:] * sep[1 : len(prior), :, v])
        for v in range(prior.shape[1])
    )


def _leaf(tables, ends_v, row_v, col_v):
    """Sum over the row and column points for s fixed odometer prefixes.

    ``ends_v`` (s, width), ``row_v`` (s, d^q) and ``col_v`` (s, K) hold
    the prefixes' factors, K the rows of Z.  Their scaled copies of Z sit
    side by side, so one GEMM (d^q x K) @ (K x s width) serves all s; the
    prefixes are then added in order.
    """
    *_, row_ends, row_col, col_mat, _ = tables
    s, width = ends_v.shape
    z = (col_v.T[:, :, None] * col_mat[:, None, :]).reshape(-1, s * width)
    y = (row_col @ z).reshape(-1, s, width)
    y *= row_ends[:, None, :]
    # one product per prefix on its strided slice of Y, which BLAS reads in place
    return sum(ends_v[i] * (row_v[i] @ y[:, i]) for i in range(s))


def oracle_trajectory(sys: SystemSpec, eta: EtaTable, steps: int, *, budget: int = DEFAULT_BUDGET):
    """Full and auxiliary map sequences U_1..U_steps, (aux0, Ũ_1..Ũ_steps).

    The splitting and the step dt are those of ``eta``, whose horizon bounds
    ``steps``.  The trailing element of the auxiliary information is the
    index-0 auxiliary (single-point factor matrix), needed as the terminal
    of the midpoint hierarchy.  Each map length is summed once; both
    sequences are (steps, n^2, n^2) arrays.
    """
    if steps < 0:
        raise ValidationError(f"steps must be >= 0, got {steps}")
    if steps > eta.horizon:
        raise EtaMissingError(
            f"eta_missing: {steps} steps need separations up to {steps}, table has {eta.horizon}"
        )
    splitting = eta.splitting
    coeffs = (eta.interior,) if eta.right is eta.interior else (eta.right, eta.interior)
    horizon = max(steps - (splitting == "asym"), 0)  # asym dresses one length shorter
    _check_size(sys.n, horizon, len(coeffs))
    _check_budget(sys.n, steps, budget)
    sums = _PathSums(sys, eta.dt, coeffs, horizon)
    maps = sums.maps()
    if splitting == "sym_env":
        return maps[0], sums.aux0, maps[-1].copy()
    inner = np.concatenate((sums.aux0[None], maps[0]))[:steps]
    if splitting == "asym":  # U_N = W_{N-1} . G1, the bare origin's one link
        full = sums.fill((inner @ fb_propagator(sys, eta.dt))[:, sums.a_end, sums.a_0])
        full = check_finite(full, "dressed path sum", NumericalError)
        return full, np.eye(sys.dim, dtype=complex), full.copy()
    g_half = fb_propagator(sys, 0.5 * eta.dt)
    full = check_finite(g_half @ inner @ g_half, "dressed path sum", NumericalError)
    return full, sums.aux0, maps[0]
