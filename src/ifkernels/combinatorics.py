"""Dyck-path enumeration, Catalan numbers, and the symbolic expansion of the
transfer-tensor recursion into signed products of map factors.

Results are plain values, valid by construction: a Dyck path is a tuple of
+-1 steps, an expansion term a ``(sign, factors)`` pair with ``factors`` a
composition of the order.  Everything here is exact integer / symbolic
arithmetic; the only floating point appears in ``numeric_check``, which
evaluates a symbolic expansion against a concrete trajectory.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RangeError, SeqShortError

CATALAN_MAX = 30
DYCK_MAX = 14
EXPAND_MAX = 12


def catalan(m: int) -> int:
    """The m-th Catalan number binom(2m, m) / (m + 1), exactly."""
    if m < 0 or m > CATALAN_MAX:
        raise RangeError(f"range: catalan supports 0 <= m <= {CATALAN_MAX}")
    return math.comb(2 * m, m) // (m + 1)


def enumerate_dyck(m: int):
    """All Dyck paths of semilength m as +-1 step tuples, in lexicographic order (-1 < +1)."""
    if m < 0 or m > DYCK_MAX:
        raise RangeError(f"range: enumerate_dyck supports 0 <= m <= {DYCK_MAX}")
    paths = []

    def grow(prefix, ups, downs):
        if ups == m and downs == m:
            paths.append(tuple(prefix))
            return
        # -1 first for lexicographic output order
        if downs < ups:
            prefix.append(-1)
            grow(prefix, ups, downs + 1)
            prefix.pop()
        if ups < m:
            prefix.append(1)
            grow(prefix, ups + 1, downs)
            prefix.pop()

    grow([], 0, 0)
    return paths


def expand_hierarchy(k: int):
    """Fully expanded transfer matrix T_k in the map basis.

    Expands T_k = U_k - sum_{r=1}^{k-1} T_r . U_{k-r}; the result is one
    (sign, factors) pair per composition ``factors`` of k, with sign
    (-1)^(parts - 1), 2^(k-1) terms in total.  Factor order matches the
    matrix-product order of the recursion.
    """
    if k < 1 or k > EXPAND_MAX:
        raise RangeError(f"range: expand_hierarchy supports 1 <= k <= {EXPAND_MAX}")
    expansions = {}
    for kk in range(1, k + 1):
        terms = [(1, (kk,))]
        for r in range(1, kk):
            terms += [(-sign, factors + (kk - r,)) for sign, factors in expansions[r]]
        expansions[kk] = terms
    return expansions[k]


def term_census(k: int):
    """Term counts of expand_hierarchy(k) grouped by number of factors."""
    census = {}
    for _, factors in expand_hierarchy(k):
        census[len(factors)] = census.get(len(factors), 0) + 1
    return dict(sorted(census.items()))


def numeric_check(terms, seq) -> np.ndarray:
    """Evaluate a signed symbolic expansion on a concrete trajectory.

    ``seq`` holds the maps U_1..U_N, a (N, d, d) array or a list of (d, d)
    matrices; every index appearing in ``terms`` must be covered.
    """
    maps = [np.asarray(m) for m in seq]
    if not maps:
        raise SeqShortError("seq_short: empty trajectory")
    need = max(max(factors) for _, factors in terms)
    if need > len(maps):
        raise SeqShortError(f"seq_short: need U_{need}, have {len(maps)} maps")
    dim = maps[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for sign, factors in terms:
        prod = maps[factors[0] - 1]
        for j in factors[1:]:
            prod = prod @ maps[j - 1]
        out = out + sign * prod
    return out
