"""Dyck-path enumeration and Catalan numbers, the census of the ``dyck`` command.

A Dyck path is a tuple of +-1 steps; everything here is exact integer
arithmetic.  ``enumerate_dyck`` yields the paths one at a time, each the
lexicographic successor of the one before, and builds no list of them.
The expansion of the transfer tensors into 2^(k-1) signed products of
maps is a test oracle (``tests/_oracles.py``), not shipped.
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
    """All Dyck paths of semilength m as +-1 step tuples, in lexicographic order (-1 < +1).

    The range is checked on the call; the paths are then yielded one at a time.
    """
    if m < 0 or m > DYCK_MAX:
        raise ValidationError(f"range: enumerate_dyck supports 0 <= m <= {DYCK_MAX}")
    return _dyck_paths(m)


def _dyck_paths(m: int):
    steps = [1, -1] * m  # the first path
    while True:
        yield tuple(steps)
        j = 2 * m - 1  # the last +1 ...
        while j >= 0 and steps[j] < 0:
            j -= 1
        i = j - 1  # ... and the last -1 before it, which becomes +1
        while i >= 0 and steps[i] > 0:
            i -= 1
        if i < 0:
            return
        # the smallest completion: down to height 0, then (+1, -1) pairs
        steps[i:] = [1] + [-1] * (2 * m - 2 * j + i + 1) + [1, -1] * (j - i - 1)
