"""Exact vectorised ``%.17g`` text of float64 CSV rows.

``format_rows(data)`` returns, for each row of a 2-D float64 array, the
line ``",".join("%.17g" % x for x in row) + "\\n"``, byte for byte, for
every float64 (subnormals, -0.0, infinities and NaNs included).  An
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

Text.  Each field is a 32-byte record, built one position at a time for
all fields of a slice: bytes 0-5 hold the prefix (the sign, and the
``0.00`` of a value in [1e-4, 1)) right-aligned, bytes 6-23 the 18 slots of
the 17 digits and the decimal point, and bytes 24-31 the exponent of a
scientific value (``e-05`` .. ``e-283``) and the separator; prefix and
exponent are each gathered as one uint64.  The digits come from a 4-digit
lookup table.  Digits after the last nonzero one of the fraction, and a
point with no digit after it, are 0 bytes, and one boolean compress drops
every 0 byte; the text of a field is mostly one run of bytes, which the
compress copies at once.  The work runs in slices of at most ``SLICE``
floats, so its temporaries (about 250 bytes a float) do not grow with the
rows.
"""

from __future__ import annotations

import numpy as np

SLICE = 1 << 12  # floats formatted per pass
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


def _words(strings, end=None):
    """Each ASCII string as the bytes of one uint64, from byte 0 or up to byte ``end``."""
    buf = np.zeros((len(strings), 8), np.uint8)
    for i, s in enumerate(strings):
        start = 0 if end is None else end - len(s)
        buf[i, start:start + len(s)] = np.frombuffer(s.encode(), np.uint8)
    return buf.view(np.uint64).ravel()


_POW = _powers()
_DIGITS4 = (np.arange(10000) // 10 ** np.arange(3, -1, -1)[:, None] % 10 + 48).astype(np.uint8)
# how many of the 17 digits run up to the last nonzero one of g as 4-digit
# group i (digits 4i+1..4i+4): _KEPT[i][g], or 0 if g is 0
_KEPT = ((np.arange(1, 5)[:, None] * (_DIGITS4 != 48)).max(axis=0)
         + np.arange(1, 17, 4)[:, None]) * np.any(_DIGITS4 != 48, axis=0)
_KEPT = _KEPT.astype(np.int8)
_PREFIX = _words([sign + lead for sign in ("", "-") for lead in ("", "0", "0.", "0.0", "0.00")], 6)
_SUFFIX = _words([("" if e < 5 else f"e-{e:02d}") + sep for e in range(_P_MAX - 15) for sep in ",\n"])
_SLOT17 = np.arange(17, dtype=np.int8)[:, None]


def _divide(v, unit):
    """Quotient and remainder of v by ``unit`` (two cheaper ufuncs than ``divmod``)."""
    top = v // unit
    return top, v - top * unit


def _scaled(a, p):
    """floor(a 10^p) as int64 and the fraction, from a double-double product."""
    hi, head, tail, lo = (t[p] for t in _POW)
    prod = a * hi
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    err = ((a_head * head - prod) + a_head * tail + a_tail * head) + a_tail * tail
    err += a * lo
    whole = np.floor(err)
    return prod.astype(np.int64) + whole.astype(np.int64), err - whole


def _per_element(values):
    """``"%.17g" % x`` of each value, as rows of 24 bytes padded with 0 bytes."""
    text = "".join([("%.17g" % x).ljust(24, "\0") for x in values.tolist()])
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)


def _format_slice(x, last):
    """Text of the rows of ``x``: one 32-byte record per field, 0 bytes dropped."""
    flat = x.ravel()
    n = flat.size
    a = np.abs(flat)
    usable = np.isfinite(a) & (a != 0)
    p = 16 - np.floor(np.log10(np.where(usable, a, 1.0))).astype(np.int64)
    fast = usable & (p >= 0) & (p <= _P_MAX)
    a = np.where(fast, a, 1.0)
    p = np.where(fast, p, 16)
    whole, frac = _scaled(a, p)
    off = np.flatnonzero((whole < 10**16) | (whole >= 10**17))
    if off.size:  # log10 was off by one
        q = p[off] + np.where(whole[off] < 10**16, 1, -1)
        inside = (q >= 0) & (q <= _P_MAX)
        fast[off[~inside]] = False
        q = np.where(inside, q, 16)
        whole[off], frac[off] = _scaled(np.where(inside, a[off], 1.0), q)
        p[off] = q
    digits = whole + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) >= 1e-7) & (digits >= 10**16) & (digits < 10**17)
    digits = np.where(fast, digits, 0)  # a zero prints as the digit 0
    exp = np.where(fast, 16 - p, 0).astype(np.int16)

    # the 17 digits, one row per position
    d = np.empty((17, n), np.uint8)
    lead, rest = _divide(digits, 10**16)
    d[0] = lead + 48
    high, low = _divide(rest, 10**8)
    groups = _divide(high.astype(np.int32), 10**4) + _divide(low.astype(np.int32), 10**4)

    # the point goes in slot ``point`` and the digits from there on move one
    # slot right; a value in [1e-4, 0.1) has its point in the prefix, and
    # slot 0 holds the last zero before its digits.  The digits kept are the
    # integer digits and all up to the last nonzero one.
    small = (exp < 0) & (exp >= -4)
    point = np.where(exp >= 0, exp + 1, 1).astype(np.int8)
    point[small] = 0
    kept = np.maximum(np.where(small, 0, point), lead != 0)
    for i, group in enumerate(groups):
        np.take(_DIGITS4, group, axis=1, out=d[1 + 4 * i:5 + 4 * i], mode="clip")
        np.maximum(kept, _KEPT[i].take(group), out=kept)
    d *= _SLOT17 < kept
    slots = np.empty((18, n), np.uint8)
    np.multiply(d, _SLOT17 < point, out=slots[:17])
    slots[17] = 0
    slots[1:] += d - slots[:17]
    at = point.astype(np.intp) * n + np.arange(n)
    slots.reshape(-1)[at] = np.where(small & (exp < -1), 48, 46) * (kept > point)

    rec = np.empty((n, 32), np.uint8)
    words = rec.view(np.uint64)
    words[:, 0] = _PREFIX[5 * np.signbit(flat) + np.where(small, -exp, 0)]
    rec[:, 6:24] = slots.T
    words[:, 3] = _SUFFIX[(2 * np.where(exp < -4, -exp, 0)).reshape(x.shape) + last].ravel()
    fallback = np.flatnonzero(~fast & (flat != 0))
    if fallback.size:
        rec[fallback, :24] = _per_element(flat[fallback])
    return rec[rec != 0].tobytes()


def format_rows(data):
    """CSV lines of a 2-D float64 array: each field ``"%.17g" % x``, comma-separated."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    rows, cols = data.shape
    last = np.arange(cols) == cols - 1
    step = max(1, SLICE // cols)
    return b"".join(_format_slice(data[i:i + step], last) for i in range(0, rows, step))
