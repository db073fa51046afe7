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
The trailing interior points are the axes of a block tensor of
n^(2 (m+1)) <= _BATCH entries per end; their mutual factors and their
factors with both ends are built once per map length, axis by axis.  The
leading interior points run on an odometer: each block folds their factors
into one scalar, one vector per tensor axis and one vector per end, and is
contracted with one matmul.  Blocks are added in odometer order, so results
are reproducible bit for bit.  Maps of one length that differ only at the
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
    The initial point carries no influence factors at all (I_{k,0} = 1); the
    auxiliary coincides with the full map.
"""

from __future__ import annotations

import itertools
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


def _on_axes(mat: np.ndarray, i: int, j: int, ndim: int) -> np.ndarray:
    """View of ``mat[x_i, x_j]`` (i < j) that broadcasts over ``ndim`` tensor axes."""
    shape = [1] * ndim
    shape[i] = shape[j] = mat.shape[0]
    return mat.reshape(shape)


def _path_sums(steps: int, f: _Factors, ends) -> list:
    """Maps of ``steps`` >= 1 steps, one per measured-end factor set, in one pass."""
    self_w, pairs = f.inner
    d = self_w.size
    ones = np.ones((d, d), dtype=complex)
    if f.bare_origin:
        self0 = np.ones(d, dtype=complex)
        origin = [None, f.g1] + [ones] * (steps - 1)
    else:
        self0 = self_w
        origin = pairs

    n_int = steps - 1
    m = 0
    while m < n_int and d ** (m + 2) <= _BATCH:
        m += 1
    p = n_int - m
    # Interior points 1..p run on the odometer; points p+1..N-1 are the block
    # tensor axes 0..m-1.  Factors among block axes and between block axes
    # and the ends are the same in every block, so they are built once here.
    inner_t = np.ones((), dtype=complex)
    left_t = self0
    right_t = [end_self for end_self, _ in ends]
    for i in range(m):
        k = p + 1 + i
        inner_t = inner_t[..., None] * self_w
        for i2 in range(i):
            inner_t *= _on_axes(pairs[i - i2].T, i2, i, i + 1)
        left_t = left_t[..., None] * _on_axes(origin[k].T, 0, i + 1, i + 2)
        right_t = [
            r[..., None] * _on_axes(end_pairs[steps - k], 0, i + 1, i + 2)
            for r, (_, end_pairs) in zip(right_t, ends)
        ]
    size = d**m
    right_block = np.concatenate([(r * inner_t).reshape(d, size) for r in right_t])
    left_block = left_t.reshape(d, size).T

    acc = np.zeros((len(ends) * d, d), dtype=complex)
    for prefix in itertools.product(range(d), repeat=p):
        a = (None,) + prefix  # a[k] is a_k for the odometer points k = 1..p
        weight = np.ones((), dtype=complex)
        left_v = np.ones(d, dtype=complex)
        right_v = np.ones((len(ends), d), dtype=complex)
        for k in range(1, p + 1):
            weight = weight * self_w[a[k]]
            for k2 in range(1, k):
                weight = weight * pairs[k - k2][a[k], a[k2]]
            left_v = left_v * origin[k][a[k]]
            right_v = right_v * [end_pairs[steps - k][:, a[k]] for _, end_pairs in ends]
        for j in range(p + 1, steps):
            axis_v = np.ones(d, dtype=complex)
            for k in range(1, p + 1):
                axis_v = axis_v * pairs[j - k][:, a[k]]
            weight = weight[..., None] * axis_v
        block = right_block @ (weight.reshape(size, 1) * left_block)
        acc += right_v.reshape(-1, 1) * block * left_v

    out = []
    for e, (_, end_pairs) in enumerate(ends):
        if f.bare_origin:
            corner = f.g1 if steps == 1 else ones
        else:
            corner = end_pairs[steps]
        out.append(check_finite(acc[e * d : (e + 1) * d] * corner, "path sum"))
    return out


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
