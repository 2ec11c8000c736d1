"""``"%.17g" % x`` for whole float columns, byte for byte, with numpy.

:func:`format_column` lays out the text of every value of a column as a row
of bytes; :func:`join_rows` joins formatted columns into CSV rows with one
compress.  In CPython 3.11, ``%`` over a column's ``tolist()`` costs about
245 ns a value, more than the geometry the CSVs record; this kernel reaches
the same bytes in a few vectorized passes.

Digits.  For 1e-280 <= |x| <= 1e280 let E = floor(log10 |x|) and
y = |x| 10^(16-E).  The power 10^k is stored as a pair hi + lo of doubles,
off from 10^k by at most 2^-106 of it.  Dekker's two-product splits
|x| hi = p + e exactly, so y = p + r with r = e + |x| lo, and the computed r
is within 1e-14 of the exact one (|r| < 32, each of its roundings is below
2^-48).  y >= 10^16 > 2^53 makes p an integer, so floor(y) = p + floor(r) and
the 17 significant digits D are floor(y) plus one when the fraction of r
exceeds 1/2: the correctly rounded digits ``%.17g`` prints.  A fraction within
1e-6 of 1/2 (a tie, or too near one for that error bound) is not decided here.

Fallback.  A value goes to :func:`_format_exact`, one at a time, when its
rounding is not decided, when floor(y) is not in [10^16, 10^17) (log10 was
off by one near a power of ten) or D rounds up to 10^17, and when x is out of
range, NaN or infinite.  Zeros take the fast path: on a profile the collar's
h1 and h2 are exactly 0 on its plateau.

Layout.  Each ``%g`` layout is a template of source bytes, keyed by sign,
exponent class (fixed notation for E = -4..16, scientific with a 2- or 3-digit
exponent of either sign, or zero) and the number of significant digits.  A
value's source row holds its 17 digits, its exponent's digits and the
constant bytes.  The rows are sorted by key, so each layout present takes
one gather through its template.  The tables are built on first use.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

__all__ = ["format_column", "join_rows"]

WIDTH = 24            # the widest text: "-1.2345678901234567e-100"
E_MIN, E_MAX = -281, 280  # floor(log10 |x|) over the fast range
FAST_MIN, FAST_MAX = 1e-280, 1e280
HALF_MARGIN = 1e-6    # a fraction of y this near 1/2 goes to the fallback
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant

# A value's source row: 32 bytes, built as eight little-endian 32-bit words.
# Digits 1..16 of D fill bytes 0..15 (four 4-digit chunks), bytes 16..19 hold
# |E| as four digits, byte 20 the leading digit, then the constant bytes and
# NUL padding.  A template slot that reads byte 31 leaves its byte NUL.
_EXP, _LEAD, _DOT, _MINUS, _E, _PLUS, _ZERO, _NUL = 17, 20, 21, 22, 23, 24, 25, 31
_WORD5 = int.from_bytes(b"\0.-e", "little")  # plus the leading digit
_WORD6 = int.from_bytes(b"+0\0\0", "little")
_ZERO_CLASS = 25      # classes 0..20 fixed, 21..24 scientific, 25 zero
_CLASSES = 26
_KEYS = 2 * _CLASSES * 17


# The exact formatter the kernel falls back to, one value at a time.
_format_exact = "%.17g".__mod__


def _class_of(e: int) -> int:
    if -4 <= e <= 16:
        return e + 4
    if e > 16:
        return 21 if e < 100 else 22
    return 23 if e > -100 else 24


def _template(negative: bool, cls: int, nd: int) -> list:
    """Source bytes of the text of a value with this sign, class and number
    of significant digits."""
    def digits(lo, hi):
        return [_LEAD if j == 0 else j - 1 for j in range(lo, hi)]

    out = [_MINUS] if negative else []
    if cls == _ZERO_CLASS:
        return out + [_ZERO]
    if cls <= 20:
        e = cls - 4
        if e < 0:
            return out + [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits(0, nd)
        frac = digits(e + 1, nd)
        return out + digits(0, e + 1) + ([_DOT] + frac if frac else [])
    mantissa = digits(0, 1) + ([_DOT] + digits(1, nd) if nd > 1 else [])
    sign = _PLUS if cls in (21, 22) else _MINUS
    exponent = [_EXP, _EXP + 1, _EXP + 2] if cls in (22, 24) else [_EXP + 1, _EXP + 2]
    return out + mantissa + [_E, sign] + exponent


def _power(k: int) -> tuple:
    """10^k as hi + lo: hi is 10^k rounded to a double, lo the rest rounded.
    Python's int / int division rounds correctly."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    return hi, (num * h_den - h_num * den) / (den * h_den)


def _divmod(a, b: int) -> tuple:
    """``np.divmod`` by a constant, through numpy's faster floor division."""
    q = a // b
    return q, a - q * b


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, indexed by E - E_MIN where they depend on E:
    ``hi`` and ``lo`` (10^(16-E) rounded, and the rest rounded), ``hi_hi``
    and ``hi_lo`` (Veltkamp's halves of hi, for the two-product),
    ``layout_class`` (E's class among the layouts), ``digits4`` (the ASCII
    digits of 0000..9999, one little-endian word each), ``zeros4`` (their
    trailing zeros, 4 for 0000) and ``templates`` (the source bytes of each
    layout, by key)."""
    es = range(E_MIN, E_MAX + 1)
    hi, lo = map(np.array, zip(*(_power(16 - e) for e in es)))
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    chunks = np.arange(10000)
    digits = np.stack([chunks // 10 ** (3 - j) % 10 for j in range(4)], axis=1) + ord("0")
    layouts = [_template(neg, cls, nd)
               for neg in (False, True) for cls in range(_CLASSES) for nd in range(1, 18)]
    return SimpleNamespace(
        hi=hi, lo=lo, hi_hi=hi_hi, hi_lo=hi - hi_hi,
        layout_class=np.array([_class_of(e) for e in es], dtype=np.int16),
        digits4=digits.astype(np.uint8).view("<u4").ravel(),
        zeros4=sum(chunks % 10 ** j == 0 for j in range(1, 5)).astype(np.int16),
        templates=np.array([slots + [_NUL] * (WIDTH - len(slots)) for slots in layouts],
                           dtype=np.intp))


def format_column(col) -> np.ndarray:
    """The ``(n, WIDTH)`` uint8 array whose row i is the ASCII text of
    ``"%.17g" % col[i]`` for a 1-D float column, padded with NUL bytes."""
    t = _tables()
    x = np.asarray(col, dtype=np.float64)
    n = x.size
    a = np.abs(x)
    fast = (a >= FAST_MIN) & (a <= FAST_MAX)
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - E_MIN
    hi, hi_hi, hi_lo = t.hi[i], t.hi_hi[i], t.hi_lo[i]
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    r = ((((a_hi * hi_hi - p) + a_hi * hi_lo) + a_lo * hi_hi) + a_lo * hi_lo) + a * t.lo[i]
    whole = np.floor(r)
    frac = r - whole
    d = p.astype(np.int64) + whole.astype(np.int64)  # floor(y)
    fast &= (d >= 10 ** 16) & (np.abs(frac - 0.5) >= HALF_MARGIN)
    d += frac > 0.5
    fast &= d < 10 ** 17  # y at or past 10^17, or D rounded up to it
    d = np.where(fast, d, 10 ** 16)
    lead, rest = _divmod(d, 10 ** 16)
    upper, lower = _divmod(rest, 10 ** 8)
    chunks = (*_divmod(upper, 10 ** 4), *_divmod(lower, 10 ** 4))
    src = np.empty((n, 8), dtype="<u4")
    for j, chunk in enumerate(chunks):
        src[:, j] = t.digits4[chunk]
    src[:, 4] = t.digits4[np.abs(i + E_MIN)]
    src[:, 5] = lead + (_WORD5 + ord("0"))
    src[:, 6] = _WORD6
    src[:, 7] = 0
    zeros, run = t.zeros4[chunks[3]], chunks[3] == 0
    for chunk in chunks[2::-1]:
        zeros = zeros + run * t.zeros4[chunk]
        run &= chunk == 0
    cls = np.where(x == 0, _ZERO_CLASS, t.layout_class[i])
    key = ((np.signbit(x) * _CLASSES + cls) * 17 + (16 - zeros)).astype(np.int16)
    # One gather per layout present, over the rows sorted by layout.
    order = np.argsort(key, kind="stable")
    rows = np.take(src.view(np.uint8), order, axis=0)
    text = np.empty((n, WIDTH), dtype=np.uint8)
    counts = np.bincount(key, minlength=_KEYS)
    start = 0
    for k in np.flatnonzero(counts):
        stop = start + counts[k]
        np.take(rows[start:stop], t.templates[k], axis=1, out=text[start:stop], mode="clip")
        start = stop
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    chars = np.take(text, inverse, axis=0)
    for j in np.flatnonzero(~fast & (x != 0)):
        s = _format_exact(float(x[j])).encode("ascii")
        chars[j] = 0
        chars[j, :len(s)] = np.frombuffer(s, dtype=np.uint8)
    return chars


def join_rows(columns) -> str:
    """CSV rows of formatted columns: the fields of a row joined by commas,
    each row ended by a newline.  ``columns`` holds :func:`format_column`
    results of equal length, in column order."""
    n, k = columns[0].shape[0], len(columns)
    buf = np.empty((n, k, WIDTH + 1), dtype=np.uint8)
    for j, chars in enumerate(columns):
        buf[:, j, :WIDTH] = chars
    buf[:, :, WIDTH] = ord(",")
    buf[:, -1, WIDTH] = ord("\n")
    flat = buf.reshape(-1)
    return np.compress(flat != 0, flat).tobytes().decode("ascii")
