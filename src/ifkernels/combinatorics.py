"""Dyck-path enumeration and Catalan numbers, the census of the ``dyck`` command.

A Dyck path is a tuple of +-1 steps; everything here is exact integer
arithmetic.  The expansion of the transfer tensors into 2^(k-1) signed
products of maps is a test oracle (``tests/_oracles.py``), not shipped.
"""

from __future__ import annotations

import math

from .errors import ValidationError

CATALAN_MAX = 30
DYCK_MAX = 14


def catalan(m: int) -> int:
    """The m-th Catalan number binom(2m, m) / (m + 1), exactly."""
    if m < 0 or m > CATALAN_MAX:
        raise ValidationError(f"range: catalan supports 0 <= m <= {CATALAN_MAX}")
    return math.comb(2 * m, m) // (m + 1)


def enumerate_dyck(m: int):
    """All Dyck paths of semilength m as +-1 step tuples, in lexicographic order (-1 < +1)."""
    if m < 0 or m > DYCK_MAX:
        raise ValidationError(f"range: enumerate_dyck supports 0 <= m <= {DYCK_MAX}")
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
