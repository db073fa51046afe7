"""Dyck-path enumeration, Catalan numbers, and the symbolic expansion of the
transfer-tensor recursion into signed products of map factors.

Everything here is exact integer / symbolic arithmetic; the only floating
point appears in ``numeric_check``, which evaluates a symbolic expansion
against a concrete trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, SeqShortError, ValidationError

CATALAN_MAX = 30
DYCK_MAX = 14
EXPAND_MAX = 12


@dataclass(frozen=True)
class DyckPath:
    """A balanced +-1 step sequence with nonnegative prefix sums."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(int(s) for s in self.steps)
        if any(s not in (1, -1) for s in steps):
            raise ValidationError("steps must be +-1")
        if len(steps) % 2 != 0:
            raise ValidationError("a Dyck path has even length")
        total = 0
        for s in steps:
            total += s
            if total < 0:
                raise ValidationError("prefix sums must stay nonnegative")
        if total != 0:
            raise ValidationError("steps must balance to zero")
        object.__setattr__(self, "steps", steps)

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2


@dataclass(frozen=True)
class SymbolicTerm:
    """One signed product of map factors; ``factors`` is a composition of k."""

    sign: int
    factors: tuple

    def __post_init__(self):
        factors = tuple(int(f) for f in self.factors)
        if not factors or any(f < 1 for f in factors):
            raise ValidationError("factors must be positive integers")
        expected = -1 if (len(factors) - 1) % 2 else 1
        if self.sign != expected:
            raise ValidationError("sign must be (-1)^(number_of_factors - 1)")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return sum(self.factors)


def catalan(m: int) -> int:
    """The m-th Catalan number binom(2m, m) / (m + 1), exactly."""
    if m < 0 or m > CATALAN_MAX:
        raise RangeError(f"range: catalan supports 0 <= m <= {CATALAN_MAX}")
    return math.comb(2 * m, m) // (m + 1)


def enumerate_dyck(m: int):
    """All Dyck paths of semilength m, lexicographically ordered (-1 < +1)."""
    if m < 0 or m > DYCK_MAX:
        raise RangeError(f"range: enumerate_dyck supports 0 <= m <= {DYCK_MAX}")
    paths = []

    def grow(prefix, ups, downs):
        if ups == m and downs == m:
            paths.append(DyckPath(tuple(prefix)))
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


def expand_hierarchy(k: int, budget: int = EXPAND_MAX):
    """Fully expanded transfer matrix T_k in the map basis.

    Expands T_k = U_k - sum_{r=1}^{k-1} T_r . U_{k-r}; the result is one
    SymbolicTerm per composition of k, with sign (-1)^(parts - 1), 2^(k-1)
    terms in total.  Factor order matches the matrix-product order of the
    recursion.
    """
    if k < 1 or k > budget:
        raise RangeError(f"range: expand_hierarchy supports 1 <= k <= {budget}")
    expansions = {}
    for kk in range(1, k + 1):
        terms = [SymbolicTerm(1, (kk,))]
        for r in range(1, kk):
            for t in expansions[r]:
                terms.append(SymbolicTerm(-t.sign, t.factors + (kk - r,)))
        expansions[kk] = terms
    return expansions[k]


def term_census(k: int, budget: int = EXPAND_MAX):
    """Term counts of expand_hierarchy(k) grouped by number of factors."""
    census = {}
    for t in expand_hierarchy(k, budget):
        census[len(t.factors)] = census.get(len(t.factors), 0) + 1
    return dict(sorted(census.items()))


def numeric_check(terms, seq) -> np.ndarray:
    """Evaluate a signed symbolic expansion on a concrete trajectory.

    ``seq`` holds the maps U_1..U_N, a (N, d, d) array or a list of (d, d)
    matrices; every index appearing in ``terms`` must be covered.
    """
    maps = [np.asarray(m) for m in seq]
    if not maps:
        raise SeqShortError("seq_short: empty trajectory")
    need = max(max(t.factors) for t in terms)
    if need > len(maps):
        raise SeqShortError(f"seq_short: need U_{need}, have {len(maps)} maps")
    dim = maps[0].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        prod = maps[t.factors[0] - 1]
        for j in t.factors[1:]:
            prod = prod @ maps[j - 1]
        out = out + t.sign * prod
    return out
