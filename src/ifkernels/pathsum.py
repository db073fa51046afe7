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
With d = n^2 values per point, the interior points 1..N-1 fall into three
runs (``_split``):

* the trailing m *column* points index the d^m rows of the column matrix
  Z[x, (e, a_N, a_0)]: their self weights, mutual factors and factors with
  both ends, for every measured-end factor set e, times the factors of the
  two ends alone;
* the q *row* points before them index the d^q rows of the cross-factor
  matrix W[row, x] of their factors with the column points, and of a row
  table of their own self weights, mutual factors and end factors;
* the leading p points run on an odometer.

Z, W and the row table are built once per map length, one axis at a time.
Each odometer prefix scales the rows of Z by its factors with the column
points, takes one GEMM Y = W Z, and sums Y over the rows, weighted by the
row table and by its factors with the row points; its own weight and end
factors scale the result.  Every one of these matrices stays within _BATCH
entries, or within d x width entries (width = the columns of Z) where that
is larger: one point's end-factor table has that size anyway, and the floor
keeps at least one row and one column point, so large n never falls back to
one Python call per path.  Columns are filled first, then rows: for n = 2
under sym_env the length N = 11 takes 16 GEMMs of (256 x 256) @ (256 x 32),
and for n = 6 the length N = 4 takes 36 GEMMs of (36 x 36) @ (36 x 2592).
The odometer sums the d subtrees of each level in order, so results are
reproducible bit for bit and the rounding grows with p, not with the d^p
prefixes.  Maps of one length that differ only at the measured end are
summed in the same pass, and ``oracle_trajectory`` sums each length once.

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

    ``pairs[s][a_k, a_k']`` is the factor of two points s = k - k' apart; the
    whole-step propagator G1 linking neighbours is merged into ``pairs[1]``.
    """
    self_w = influence_self_weights(sys, eta[0])
    pairs = [None] + [influence_pair_matrix(sys, eta[s]) for s in range(1, horizon + 1)]
    if horizon >= 1:
        pairs[1] = pairs[1] * g1
    return self_w, pairs


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
    """(odometer, row, column) point counts for ``n_int`` interior points.

    Every chunk matrix stays within max(_BATCH, d x ``width``) entries: the
    column matrix (d^m x ``width``), the cross-factor matrix (d^q x d^m),
    the row table and the GEMM output (d^q x ``width``).  Columns are filled
    first, while Z and a square cross-factor matrix fit; rows next.  The
    rest run on the odometer.
    """
    cap = max(_BATCH, d * width)
    m = 0
    while m < n_int and d ** (m + 1) * max(width, d ** (m + 1)) <= cap:
        m += 1
    q = 0
    while m + q < n_int and d ** (q + 1) * max(width, d ** m) <= cap:
        q += 1
    return n_int - m - q, q, m


def _face(mats, width: int) -> np.ndarray:
    """Row-wise Kronecker product ``out[(y_0, .., y_g-1), z] = prod_i mats[i][y_i, z]``.

    One axis is added at a time, y_0 slowest; no matrices give one row of ones.
    """
    out = np.ones((1, width), dtype=complex)
    for mat in mats:
        out = (out[:, None, :] * mat).reshape(-1, width)
    return out


def _path_sums(steps: int, f: _Factors, ends) -> list:
    """Maps of ``steps`` >= 1 steps, one per measured-end factor set, in one pass."""
    self_w, pairs = f.inner
    d = self_w.size
    ones = np.ones((d, d), dtype=complex)
    if f.bare_origin:
        self0 = np.ones(d, dtype=complex)
        origin = [None, f.g1] + [ones] * (steps - 1)
        corners = [f.g1 if steps == 1 else ones] * len(ends)
    else:
        self0 = self_w
        origin = pairs
        corners = [end_pairs[steps] for _, end_pairs in ends]
    width = len(ends) * d * d
    # the two ends alone, and link[k][a_k, (e, a_N, a_0)]: the self weight of
    # interior point k and its factors with both ends
    base = np.stack([end_self[:, None] * c * self0 for (end_self, _), c in zip(ends, corners)])
    link = [None] + [
        (np.stack([end_pairs[steps - k].T for _, end_pairs in ends], axis=1)[..., None]
         * origin[k][:, None, None, :]).reshape(d, width) * self_w[:, None]
        for k in range(1, steps)
    ]
    sep = np.stack([ones] + pairs[1:steps])  # sep[s]: factor of two points s apart

    def mutual(ks):
        """Pair factors among the points ``ks``, flat over their values."""
        w = np.ones(1, dtype=complex)
        for i, k in enumerate(ks):
            w = (w[:, None] * _face([sep[k - k2].T for k2 in ks[:i]], d)).ravel()
        return w

    def cross(k, ks):
        """``[a_k, (a_j for j in ks)]``: the pair factors of point k with the later points ``ks``."""
        return np.ascontiguousarray(_face(sep[ks - k], d).T)

    p, q, m = _split(steps - 1, d, width)
    rows = np.arange(p + 1, p + q + 1)
    cols = np.arange(p + q + 1, steps)
    # Z, the row table and W of the module docstring
    col_mat = _face([link[k] for k in cols], width) * mutual(cols)[:, None] * base.reshape(width)
    row_ends = _face([link[k] for k in rows], width) * mutual(rows)[:, None]
    row_col = _face([cross(k, cols) for k in rows], d**m)
    to_rows = [None] + [cross(k, rows) for k in range(1, p + 1)]
    to_cols = [None] + [cross(k, cols) for k in range(1, p + 1)]
    tables = (link, sep, to_rows, to_cols, row_ends, row_col, col_mat)
    acc = _odometer_sum(tables, 1, np.ones(width, dtype=complex), np.ones(d**q, dtype=complex),
                        np.ones(d**m, dtype=complex), np.ones((p, d), dtype=complex))
    return [check_finite(u, "path sum") for u in acc.reshape(len(ends), d, d)]


def _odometer_sum(tables, k, ends_v, row_v, col_v, prior):
    """Sum over the paths with the odometer points 1..k-1 fixed.

    Their factors are folded into ``ends_v`` (with the ends), ``row_v`` (with
    the row points), ``col_v`` (with the column points) and ``prior[j - k]``
    (with odometer point j >= k).  Each fixed prefix of all p odometer points
    takes one GEMM.  Every level adds its d subtrees in order, so the
    rounding grows with p, not with the d^p prefixes.
    """
    link, sep, to_rows, to_cols, row_ends, row_col, col_mat = tables
    if not len(prior):
        return ends_v * (row_v @ (row_ends * (row_col @ (col_v[:, None] * col_mat))))
    return sum(
        _odometer_sum(tables, k + 1, ends_v * prior[0, v] * link[k][v], row_v * to_rows[k][v],
                      col_v * to_cols[k][v], prior[1:] * sep[1 : len(prior), :, v])
        for v in range(prior.shape[1])
    )


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
    _check_budget(sys.n, steps, budget)
    f = _factors(sys, eta, steps)
    splitting = eta.splitting
    g_half = fb_propagator(sys, 0.5 * eta.dt) if splitting == "sym_sys" else None
    aux0 = _aux0(f)
    full = np.empty((steps, sys.dim, sys.dim), dtype=complex)
    aux = np.empty_like(full)
    for k in range(1, steps + 1):
        if splitting == "sym_env":
            full[k - 1], aux[k - 1] = _path_sums(k, f, [f.end, f.inner])
        elif splitting == "asym":
            full[k - 1] = aux[k - 1] = _path_sums(k, f, [f.inner])[0]
        else:
            aux[k - 1] = _path_sums(k, f, [f.inner])[0]
            inner = aux[k - 2] if k > 1 else aux0
            full[k - 1] = check_finite(g_half @ inner @ g_half, "dressed path sum")
    return full, aux0, aux
