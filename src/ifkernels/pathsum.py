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
  both ends, for every measured-end factor set e, times the factors of the
  two ends alone;
* the q *row* points before them index the d^q rows of the cross-factor
  matrix W[row, x] of their factors with the column points, and of a row
  table of their own self weights, mutual factors and end factors;
* the leading p points run on an odometer.

Z and the row table hold end factors, so each map length builds its own,
one axis at a time.  The tables that depend on separations alone are built
once per ``oracle_trajectory`` call and shared by its map lengths: the stack
of pair factors by separation, the mutual factors of a run of consecutive
points (by run length), the factors of one point with a later run (by
offset and run length) and W (by q and m).  Each length keeps the shared
tables it used and drops the rest.  The split only grows with N, so a
dropped table is seldom needed again, and one that is gets rebuilt with the
same bits.

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
columns of Z).  Y is summed over the rows, weighted by the row table
and by each prefix's factors with the row points; each prefix's own weight
and end factors scale its result.  Every one of these matrices, stacked
ones included, stays within _BATCH entries, or within d x width entries
where that is larger: one point's end-factor table has that size anyway,
and the floor keeps at least one row and one column point, so large n never
falls back to one Python call per path.  Where d stacked copies would not
fit, the last point's values go in near-equal groups, one GEMM each.
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
    The initial point carries no influence factors at all (I_{k,0} = 1); the
    auxiliary coincides with the full map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import EtaTable, influence_pair_matrix, influence_self_weights
from .errors import EtaMissingError, PathSumBudgetError, ValidationError
from .liouville import LiouvilleMatrix, SystemSpec, check_finite, fb_propagator

DEFAULT_BUDGET = 10**8
SIZE_LIMIT = 1 << 29  # bytes of the largest dense array one path sum may ask for
_BATCH = 1 << 16


def config_count(n: int, steps: int) -> int:
    """Number of summed interior configurations, n^(2 (steps-1)), exactly."""
    if steps <= 1:
        return 1
    return (n * n) ** (steps - 1)


def _check_budget(n: int, steps: int, budget: int):
    """Refuse a path sum of ``steps`` >= 1 steps before any enumeration."""
    if steps < 1:
        return
    count = config_count(n, steps)
    if count > budget:
        raise PathSumBudgetError(
            f"pathsum_budget: {count} configurations exceed budget {budget}"
        )


def _influence(sys, eta, horizon, g1):
    """(self weights, pair factors by separation 0..horizon) of one coefficient array.

    ``pairs[s][a_k, a_k']`` is the factor of two points s = k - k' apart, a
    (horizon + 1, d, d) stack with ones at s = 0; the whole-step propagator
    G1 linking neighbours is merged into ``pairs[1]``.
    """
    self_w = influence_self_weights(sys, eta[0])
    pairs = np.ones((horizon + 1, self_w.size, self_w.size), dtype=complex)
    pairs[1:] = influence_pair_matrix(sys, eta[1 : horizon + 1])
    if horizon >= 1:
        pairs[1] *= g1
    return self_w, pairs


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


@dataclass(frozen=True)
class _Factors:
    """Everything the path sums of one splitting need, up to a horizon.

    ``inner`` covers points 0..N-1 and their mutual pairs; ``end`` covers the
    measured end N of the full map and its pairs with 0..N-1 (endpoint
    flavored under sym_env, ``inner`` otherwise).  A bare origin (asym)
    carries no influence factors, only its link G1 to point 1.
    """

    g1: np.ndarray
    inner: tuple
    end: tuple
    bare_origin: bool


def _factors(sys: SystemSpec, table: EtaTable, horizon: int) -> _Factors:
    g1 = fb_propagator(sys, table.dt)
    inner = _influence(sys, table.interior, horizon, g1)
    end = inner if table.right is table.interior else _influence(sys, table.right, horizon, g1)
    return _Factors(g1, inner, end, table.splitting == "asym")


def _aux0(f: _Factors) -> LiouvilleMatrix:
    """Index-0 auxiliary: the single-point factor matrix (identity on a bare origin)."""
    self_w = f.inner[0]
    if f.bare_origin:
        return np.eye(self_w.size, dtype=complex)
    return np.diag(self_w.astype(complex))


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
    """The path sums of one ``oracle_trajectory`` call, one map length at a time.

    ``ends`` lists the measured-end factor sets summed side by side.  Only
    the canonical (a_N, a_0) columns ``a_end``, ``a_0`` are summed; the
    others are their mirrors, with both point values swapped (f, b) -> (b, f).
    The pair-factor tables of runs of consecutive points depend on
    separations alone, so the map lengths share them: each length keeps the
    ones it used and drops the rest, and a table lives as long as the
    lengths that share it.
    """

    def __init__(self, sys: SystemSpec, f: _Factors, ends):
        n, d = sys.n, sys.dim
        self.self_w, self.sep = f.inner
        # the Δs class of each value of a point, and ``reps``: one value per class
        s = np.asarray(sys.coupling_eigenvalues)
        _, self.reps, self.classes = np.unique(np.subtract.outer(s, s).ravel(), return_index=True,
                                               return_inverse=True)
        self.ends = ends
        swap = np.arange(d).reshape(n, n).T.ravel()
        a_end, a_0 = np.divmod(np.arange(d * d), d)
        canonical = a_end * d + a_0 <= swap[a_end] * d + swap[a_0]
        self.a_end, self.a_0 = a_end[canonical], a_0[canonical]
        self.mirror = swap[self.a_end], swap[self.a_0]
        self.self_mirror = (self.mirror[0] == self.a_end) & (self.mirror[1] == self.a_0)
        self.width = len(ends) * self.a_end.size
        # the origin's self weight and its factors with the later points
        if f.bare_origin:
            self.self0 = np.ones(d, dtype=complex)
            self.origin = np.ones_like(self.sep)
            self.origin[1:2] = f.g1  # G1 alone links a bare origin to point 1
        else:
            self.self0, self.origin = self.self_w, self.sep
        # the factors of the measured end with the origin, by separation
        self.corners = [self.origin if f.bare_origin else pairs for _, pairs in ends]
        self._kept, self._used = {}, {}

    def _table(self, key, build):
        """The shared table ``key``: kept from the previous length, or ``build()``."""
        if key not in self._used:
            self._used[key] = self._kept.pop(key) if key in self._kept else build()
        return self._used[key]

    def mutual(self, run: int) -> np.ndarray:
        """Pair factors among ``run`` consecutive points, flat over their values."""

        def build():
            w = np.ones(1, dtype=complex)
            for i in range(run):
                w = (w[:, None] * _face(self.sep[i:0:-1].transpose(0, 2, 1), self.self_w.size)).ravel()
            return w

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

    def maps(self, steps: int) -> list:
        """Maps of ``steps`` >= 1 steps, one per measured-end factor set, in one pass."""
        self_w, width, a_end, a_0 = self.self_w, self.width, self.a_end, self.a_0
        d = self_w.size
        # the two ends alone, and link[k][a_k, (e, a_N, a_0)]: the self weight of
        # interior point k and its factors with both ends, on canonical columns
        base = np.stack([end_self[a_end] * corner[steps][a_end, a_0] * self.self0[a_0]
                         for (end_self, _), corner in zip(self.ends, self.corners)])
        link = [None, *(np.stack([end_pairs[steps - 1 : 0 : -1][:, a_end].transpose(0, 2, 1)
                                  for _, end_pairs in self.ends], axis=2)
                        * (self.origin[1:steps, :, None, a_0] * self_w[:, None, None])
                        ).reshape(steps - 1, d, width)]
        p, q, m, stacked = _split(steps - 1, d, width)
        rows = range(p + 1, p + q + 1)
        cols = range(p + q + 1, steps)
        # Z, the row table and W of the module docstring
        col_mat = _face([link[k] for k in cols], width) * self.mutual(m)[:, None] * base.reshape(width)
        if q:  # without rows (so without an odometer too) W is one row of ones
            col_mat = self.group(col_mat, m)
        keys = len(col_mat)
        row_ends = _face([link[k] for k in rows], width) * self.mutual(q)[:, None]
        to_rows = [None] + [self.cross(p + 1 - k, q) for k in range(1, p + 1)]
        to_cols = [None] + [self.cross(p + q + 1 - k, m, grouped=True) for k in range(1, p + 1)]
        tables = (link, self.sep, to_rows, to_cols, row_ends, self.row_col(q, m, keys), col_mat,
                  stacked)
        # drop every shared table this length did not use
        self._kept, self._used = self._used, {}
        acc = _odometer_sum(tables, 1, np.ones(width, dtype=complex), np.ones(d**q, dtype=complex),
                            np.ones(keys, dtype=complex), np.ones((p, d), dtype=complex))
        # the mirror columns by conjugation; a self-mirror entry is its own conjugate
        acc = acc.reshape(len(self.ends), -1)
        acc[:, self.self_mirror] = acc[:, self.self_mirror].real
        out = np.empty((len(self.ends), d, d), dtype=complex)
        out[:, self.mirror[0], self.mirror[1]] = acc.conj()
        out[:, a_end, a_0] = acc
        return list(check_finite(out, "path sum"))


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
        return sum(_leaf(tables, ends_v * prior[0, g, None] * link[k][g], row_v * to_rows[k][g],
                         col_v * to_cols[k][g])
                   for g in groups)
    return sum(
        _odometer_sum(tables, k + 1, ends_v * prior[0, v] * link[k][v], row_v * to_rows[k][v],
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
    return (ends_v * np.matmul(row_v[:, None, :], y.transpose(1, 0, 2))[:, 0]).sum(axis=0)


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
    _check_size(sys.n, steps, 2 if splitting == "sym_env" else 1)
    _check_budget(sys.n, steps, budget)
    f = _factors(sys, eta, steps)
    sums = _PathSums(sys, f, [f.end, f.inner] if splitting == "sym_env" else [f.inner])
    g_half = fb_propagator(sys, 0.5 * eta.dt) if splitting == "sym_sys" else None
    aux0 = _aux0(f)
    full = np.empty((steps, sys.dim, sys.dim), dtype=complex)
    aux = np.empty_like(full)
    for k in range(1, steps + 1):
        if splitting == "sym_env":
            full[k - 1], aux[k - 1] = sums.maps(k)
        elif splitting == "asym":
            full[k - 1] = aux[k - 1] = sums.maps(k)[0]
        else:
            aux[k - 1] = sums.maps(k)[0]
            inner = aux[k - 2] if k > 1 else aux0
            full[k - 1] = check_finite(g_half @ inner @ g_half, "dressed path sum")
    return full, aux0, aux
