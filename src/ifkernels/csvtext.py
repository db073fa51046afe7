"""Exact vectorised ``%.17g`` text of float64 CSV rows.

``format_rows(arrays)`` takes an iterable of 2-D float64 row arrays and
yields, slice by slice, for each of their rows the line
``",".join("%.17g" % x for x in row) + "\\n"``, byte for byte, for every
float64 (subnormals, -0.0, infinities and NaNs included).  An
integer-valued float below 1e16 prints as ``%d`` prints it.

Digits.  For a finite nonzero x, k = floor(log10|x|) and p = 16 - k, the 17
significant digits are the integer nearest y = |x| 10^p.  y is formed as a
double-double: a Dekker two-product of |x| with the double nearest 10^p,
plus |x| times the double nearest the remainder (both built from Python
ints).  Its error is below 1e-14, so the integer part N0 of y and its
fraction f fix the rounding.  Where log10 was off by one, N0 falls outside
[10^16, 10^17) and the element is scaled again with k moved by one.

Fallback.  An element is printed by its own ``"%.17g" % x`` wherever the
rounding above is not proven: f within 1e-7 of 1/2 (exact ties included),
p outside [0, 299] (|x| >= 1e17 or |x| < 1e-283, where the table or the
two-product would leave the double range), a value that is not finite, or
a rounded N outside [10^16, 10^17).  A value in [1e-283, 1e17) falls back
only when its fraction is that close to 1/2, about once in 5 million.

Text.  Each field is a 32-byte record of four uint64 words, each gathered
from a table: bytes 0-7 hold the prefix (the sign, and the ``0.00`` of a
value in [1e-4, 1)) right-aligned against the lead digit and the point,
bytes 8-23 the other 16 digits, four at a time, cut after the last one
kept, and bytes 24-31 the exponent of a scientific value (``e-05`` ..
``e-283``) and the separator.  A value of 10 or more then moves its
integer digits one byte left over the point.  Unused bytes are 0, and one
boolean compress drops them.  ``format_rows`` regroups the rows of its
arrays into slices of at most ``SLICE`` floats and formats one slice at a
time, so its temporaries (about 90 bytes a float, in small integer types
where they fit, and freed as soon as they are used) do not grow with the
rows.
"""

from __future__ import annotations

import numpy as np

SLICE = 1 << 13  # floats formatted per pass
_P_MAX = 299  # largest scale 10^p: its Veltkamp split stays finite
_SPLIT = 134217729.0  # 2^27 + 1


def _powers():
    """(hi, hi split high, hi split low, lo) of 10^p = hi + lo, p = 0.._P_MAX."""
    hi = [float(10**p) for p in range(_P_MAX + 1)]
    lo = np.array([float(10**p - int(h)) for p, h in enumerate(hi)])
    hi = np.array(hi)
    c = hi * _SPLIT
    head = c - (c - hi)
    return hi, head, hi - head, lo


def _words(strings):
    """Each string of at most 8 ASCII characters as the bytes of one uint64, from byte 0."""
    buf = np.zeros((len(strings), 8), np.uint8)
    for i, s in enumerate(strings):
        buf[i, :len(s)] = np.frombuffer(s.encode(), np.uint8)
    return buf.view(np.uint64).ravel()


def _head(sign, kind, lead, point):
    """Bytes 0-7 of a record: the prefix right-aligned in bytes 0-5, then the
    lead digit and the point (kind 0), or, for a value of magnitude 10^-kind
    times [1, 10) (kind 1..4), a ``.`` or ``0`` and the lead digit."""
    if kind == 0:
        return sign.rjust(6, "\0") + str(lead) + ("." if point else "\0")
    return (sign + "0.00"[:kind]).rjust(6, "\0") + ("." if kind == 1 else "0") + str(lead)


def _digit_tables():
    """The 4 ASCII digits of each g < 10^4 as the low bytes of a uint64, and
    how many of the 16 digits after the lead run up to the last nonzero one
    of g as 4-digit group i: last[i, g], or 0 if g is 0."""
    chars = (np.arange(10000, dtype=np.int16)[:, None]
             // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    last = (np.arange(1, 5, dtype=np.int8) * (chars != 48)).max(axis=1)
    last = (np.arange(0, 16, 4, dtype=np.int8)[:, None] + last) * (last > 0)
    return chars.view(np.uint32).ravel().astype(np.uint64), last


_POW = _powers()
_DIGITS4, _LAST = _digit_tables()
# (kind, lead, point, sign) -> bytes 0-7, sign the fastest index
_HEAD = _words([_head(sign, kind, lead, point) for kind in range(5) for lead in range(10)
                for point in (0, 1) for sign in ("", "-")])
_SUFFIX = _words([("" if e < 5 else f"e-{e:02d}") + sep for e in range(_P_MAX - 15) for sep in ",\n"])
# bytes 8-15 and 16-23 with the first k of the 16 digits after the lead kept: _TAIL[:, k]
_TAIL = np.ascontiguousarray(
    ((np.arange(16) < np.arange(17)[:, None]) * np.uint8(0xFF)).view(np.uint64).T)


def _divide(v, unit):
    """Quotient and remainder of v by ``unit`` (two cheaper ufuncs than ``divmod``)."""
    top = v // unit
    return top, v - top * unit


def _scaled(a, p):
    """floor(a 10^p) as int64 and the fraction, from a double-double product.

    The error terms are summed in place, in the order
    ((a_head head - prod) + a_head tail + a_tail head) + a_tail tail + a lo.
    """
    hi, head, tail, lo = _POW
    prod = a * hi.take(p, mode="clip")
    a_head = a * _SPLIT
    a_head -= a_head - a
    a_tail = a - a_head
    head, tail = head.take(p, mode="clip"), tail.take(p, mode="clip")
    err = a_head * head
    err -= prod
    a_head *= tail
    err += a_head
    del a_head
    head *= a_tail
    err += head
    tail *= a_tail
    err += tail
    del head, tail, a_tail
    err += a * lo.take(p, mode="clip")
    whole = np.floor(err)
    err -= whole
    prod = prod.astype(np.int64)
    prod += whole.astype(np.int64)
    return prod, err


def _decimal(flat):
    """(17 significant digits as int64, decimal exponent as int16, proven) of each value.

    A value whose digits are not proven (zeros included) has digits 0 and
    exponent 0.
    """
    a = np.abs(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 16 - np.floor(np.log10(a))  # inf at 0, -inf at inf, nan at nan
        fast = (p >= 0) & (p <= _P_MAX)
        p = p.astype(np.intp)  # out of range where not fast: the gathers clip
    a = np.where(fast, a, 0.0)
    whole, frac = _scaled(a, p)
    off = np.flatnonzero(((whole - 10**16).view(np.uint64) >= 9 * 10**16) & fast)
    if off.size:  # log10 was off by one
        q = p[off] + np.where(whole[off] < 10**16, 1, -1)
        inside = (q >= 0) & (q <= _P_MAX)
        fast[off[~inside]] = False
        whole[off], frac[off] = _scaled(np.where(inside, a[off], 0.0), q)
        p[off] = q
    digits = whole + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) >= 1e-7) & ((digits - 10**16).view(np.uint64) < 9 * 10**16)
    digits *= fast
    return digits, (16 - p.astype(np.int16)) * fast, fast


def _per_element(values):
    """``"%.17g" % x`` of each value, as rows of 24 bytes padded with 0 bytes."""
    text = "".join([("%.17g" % x).ljust(24, "\0") for x in values.tolist()])
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)


def _records(x, last):
    """The 32-byte record of each field of the rows of ``x``, as an (n, 32) uint8 array."""
    flat = x.ravel()
    digits, exp, fast = _decimal(flat)
    top, low = _divide(digits, 10**8)
    del digits
    lead, high = _divide(top.astype(np.int32), 10**8)
    groups = _divide(high, 10**4) + _divide(low.astype(np.int32), 10**4)
    del top, high, low
    words = np.empty((flat.size, 4), np.uint64)

    # the 16 digits after the lead, cut after the last nonzero one and after
    # the integer digits
    kept = _LAST[0].take(groups[0])
    for i in (1, 2, 3):
        np.maximum(kept, _LAST[i].take(groups[i]), out=kept)
    whole_digits = np.maximum(exp, 0)
    point = kept > whole_digits
    cut = np.maximum(kept, whole_digits)
    for j, mask in zip((1, 2), _TAIL):
        words[:, j] = (_DIGITS4.take(groups[2 * j - 2])
                       | _DIGITS4.take(groups[2 * j - 1]) << np.uint64(32)) & mask.take(cut)
    del groups, kept, whole_digits, cut

    # prefix, lead digit and point; a value in [1e-4, 1) has its point in
    # the prefix (kind 1..4)
    index = -exp * ((exp < 0) & (exp >= -4))
    index *= 10
    index += lead
    index *= 2
    index += point
    index *= 2
    index += np.signbit(flat)
    words[:, 0] = _HEAD.take(index)
    scientific = -exp * (exp < -4)
    words[:, 3] = _SUFFIX.take((2 * scientific).reshape(x.shape) + last).ravel()
    rec = words.view(np.uint8)

    # a value of 10 or more moves the q integer digits after its lead one
    # byte left, over the point, and puts the point (if any) after them
    large = np.flatnonzero(exp > 0)
    qs = exp[large]
    for q in np.flatnonzero(np.bincount(qs)):  # np.unique would import numpy.ma
        rows = large[qs == q]
        text = rec[rows, :24]
        text[:, 7:7 + q] = text[:, 8:8 + q]
        text[:, 7 + q] = point[rows] * np.uint8(ord("."))
        rec[rows, :24] = text
    fallback = np.flatnonzero(~fast & (flat != 0))
    if fallback.size:
        rec[fallback, :24] = _per_element(flat[fallback])
    return rec


def _format_slice(x):
    """Text of the rows of ``x`` as bytes: their records with the 0 bytes dropped."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    rec = _records(x, np.arange(x.shape[1]) == x.shape[1] - 1)
    return rec[rec != 0].tobytes()


def format_rows(arrays):
    """CSV lines of the rows of consecutive 2-D arrays, one slice at a time.

    The arrays share one column count.  Their rows are regrouped into
    slices of ``SLICE`` floats (at least one row), only the last shorter,
    and the lines of each slice are yielded as one bytes object, each field
    ``"%.17g" % x``, comma-separated.  At most one slice plus one input
    array are held at a time.
    """
    held, count = [], 0
    for array in arrays:
        held.append(array)
        count += len(array)
        rows = max(1, SLICE // array.shape[1])
        if count >= rows:
            joined = np.concatenate(held)
            cut = count - count % rows
            for start in range(0, cut, rows):
                yield _format_slice(joined[start:start + rows])
            held, count = [joined[cut:]], count - cut
    if count:
        yield _format_slice(np.concatenate(held))
