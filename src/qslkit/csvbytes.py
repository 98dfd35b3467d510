"""CSV rows built as byte arrays in numpy, byte for byte as Python formats them.

A chunk of rows becomes one uint8 matrix: each column contributes a
fixed-width field matrix, followed by one "," or "\n" column.  A field
fills the bytes a row does not use with 0xFF, a byte UTF-8 never contains,
so compacting the matrix to its other bytes and decoding it once gives the
rows' text.  Floats are written as '%.17g' % v, bools as true/false, and
ints and strs as the UTF-8 bytes of str(v), NULs included.

Floats.  A finite nonzero v = +-m * 2**q, with m a 53-bit integer, is
rounded to 17 significant digits D * 10**(E - 16) through one double-double
product y = m * P, P = 10**(16 - E) * 2**q.  E starts from floor(log10|v|).
P is split into doubles by exact integer arithmetic, once per (q, E) key;
m * P is Dekker's exact product of two doubles plus a correction term, so y
is within 2**-46 of its true value.  When y leaves [10**16, 10**17), E is
corrected from y itself (unrounded), once.  D is y rounded half to even, as
Python's correctly rounded formatting rounds; a D of 10**17 is 10**16 at
E + 1.  The digits are then laid out by %g's rules: fixed notation for
-4 <= E < 17, else d.ddde+-XX, trailing zeros stripped and integer digits
kept.  Python formats the elements this cannot decide (a remainder within
2**-40 of 1/2, which includes every exact tie, or an E not settled by one
correction) and zeros, NaN and infinities.
"""

from __future__ import annotations

import numpy as np

# Veltkamp's splitting constant 2**27 + 1: a double x splits into two doubles
# of 26 significant bits each, hi = c - (c - x) with c = _SPLIT * x.
_SPLIT = 134217729.0
_TIE = 2.0 ** -40  # a remainder this close to 1/2 is left to Python
# |v| = m * 2**q with 2**52 <= m < 2**53 for every finite nonzero double v.
_Q_MIN, _Q_MAX = -1126, 971
# Keys (q, E) for E from floor(log10(2**(q + 52))) - 1 to that + 2.
_SLOTS = 4

_FILL = 0xFF
_LE = np.dtype("<u8")  # words viewed as bytes, least significant byte first
_ZEROS8 = 0x3030303030303030  # eight ASCII "0"s

# A float field is six words, 48 bytes: a sign and "0.000" (fixed notation
# below one), a spare byte, then the 17 digits at bytes 7-23; a point at
# byte 24 followed by digits 1-16 again; "e", the exponent's sign and three
# digits at bytes 41-45.  Integer digits come from the first copy, fraction
# digits from the second.
_FIRST, _POINT, _EXP, _FLOAT_WIDTH = 7, 24, 41, 48
_SIGN_WORD = int.from_bytes(b"-0.000\xff\x00", "little")
# Float layouts: sign (2) x notation (fixed at E = -4..16, exponent of two
# or three digits: 23) x significant digits (17).
_NOTATIONS = 23
_N_LAYOUTS = 2 * _NOTATIONS * 17
# |E| <= 324 as three ASCII digits in the low bytes of a word, the first lowest.
_EXP_DIGITS = sum((np.arange(325, dtype=np.uint64) // 10**k % 10 + ord("0")) << 8 * (2 - k)
                  for k in range(3))

_BOOL_BYTES = np.frombuffer(b"falsetrue\xff", dtype=np.uint8).reshape(2, 5)
_COMMA, _NEWLINE = ord(","), ord("\n")


def _power_parts(q: int, e: int) -> tuple[float, float, float, float]:
    """10**(16 - e) * 2**q as hi + lo (each rounded to nearest) with hi's Veltkamp halves."""
    num, den = 1, 1
    s = 16 - e
    if s >= 0:
        num = 10**s
    else:
        den = 10**-s
    if q >= 0:
        num <<= q
    else:
        den <<= -q
    hi = num / den  # int / int is correctly rounded
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo


def _float_fills() -> np.ndarray:
    """Per float layout (sign, notation, significant digits), 0xFF in each byte it leaves out."""
    layout = np.arange(_N_LAYOUTS)
    notation = layout // 17 % _NOTATIONS
    n_sig = layout % 17 + 1
    fixed = notation < 21
    e = notation - 4
    below_one = fixed & (e < 0)
    # Digits taken from the first copy: the integer digits, all of them below one.
    n_first = np.where(below_one, n_sig, np.where(fixed, e + 1, 1))
    point = ~below_one & (n_sig > n_first)
    digit = np.arange(17)
    used = np.zeros((_N_LAYOUTS, _FLOAT_WIDTH), dtype=bool)
    used[:, 0] = layout >= _N_LAYOUTS // 2
    used[:, 1:3] = below_one[:, None]
    used[:, 3:6] = below_one[:, None] & (digit[:3] < -e[:, None] - 1)
    used[:, _FIRST:_POINT] = digit < n_first[:, None]
    used[:, _POINT] = point
    used[:, _POINT + 1:_EXP] = (point[:, None] & (digit[1:] >= n_first[:, None])
                                & (digit[1:] < n_sig[:, None]))
    used[:, _EXP:_EXP + 2] = ~fixed[:, None]
    used[:, _EXP + 2] = notation == 22
    used[:, _EXP + 3:_EXP + 5] = ~fixed[:, None]
    return np.where(used, np.uint8(0), np.uint8(_FILL)).view(_LE)


class _FloatTables:
    """The float layouts' fills, and the parts of 10**(16 - E) * 2**q computed per key on first use."""

    def __init__(self):
        n = (_Q_MAX - _Q_MIN + 1) * _SLOTS
        self.known = np.zeros(n, dtype=bool)
        self.parts = np.empty((n, 4))
        self.fills = _float_fills()

    def powers(self, q: np.ndarray, e: np.ndarray):
        """P's parts (hi, hi's halves, lo) per element, and where E lies outside the keys."""
        base = ((q + 52) * 78913) >> 18  # floor(log10(2**(q + 52))), exact for these q
        slot = e - base + 1
        outside = (slot < 0) | (slot >= _SLOTS)
        key = (q - _Q_MIN) * _SLOTS + np.clip(slot, 0, _SLOTS - 1)
        known = self.known[key]
        if not known.all():
            for k in set(key[~known].tolist()):
                q_k = k // _SLOTS + _Q_MIN
                self.parts[k] = _power_parts(q_k, ((q_k + 52) * 78913 >> 18) + k % _SLOTS - 1)
            self.known[key] = True
        return np.take(self.parts, key, axis=0).T, outside


def _scaled(m: np.ndarray, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m * P as an unevaluated sum y_hi + y_lo, P's parts (hi, hh, hl, lo) as powers gives them."""
    hi, hh, hl, lo = parts
    c = _SPLIT * m
    mh = c - (c - m)
    ml = m - mh
    p = m * hi
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl  # Dekker: p + err == m * hi
    t = err + m * lo
    y_hi = p + t
    return y_hi, t - (y_hi - p)


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each uint64 x < 10**8 as ASCII bytes of one word."""
    hi = x // 10000
    v = hi | (x - hi * 10000) << 32  # two four-digit lanes, the leading one lowest
    q = (v * 10486 >> 20) & 0x0000007F0000007F  # lane // 100
    v = q | (v - q * 100) << 16
    q = (v * 103 >> 10) & 0x000F000F000F000F  # lane // 10
    return (q | (v - q * 10) << 8) + _ZEROS8


def _last_nonzero(words: np.ndarray) -> np.ndarray:
    """Per _ascii8 word, the index of its last digit that is not 0, or -1."""
    # 0x80 in each byte whose digit is not 0; a sum of such bits is exact in a double.
    flags = ((words - _ZEROS8) + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080
    return np.frexp(flags.astype(float))[1] // 8 - 1


def _bytes_field(blobs: list[bytes]) -> np.ndarray:
    """Byte strings left-aligned in a field matrix."""
    lengths = np.fromiter(map(len, blobs), dtype=np.intp, count=len(blobs))
    used = np.arange(max(lengths.max(initial=0), 1)) < lengths[:, None]
    field = np.full(used.shape, _FILL, dtype=np.uint8)
    field[used] = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    return field


def _float_field(x: np.ndarray, tables: _FloatTables) -> np.ndarray:
    """x as '%.17g' % v per element."""
    regular = np.isfinite(x) & (x != 0.0)
    ax = np.where(regular, np.abs(x), 1.0)
    f, q = np.frexp(ax)
    m = f * 2.0**53
    q = q.astype(np.int64) - 53
    e = np.floor(np.log10(ax)).astype(np.int64)
    for correction in range(2):
        parts, outside = tables.powers(q, e)
        y_hi, y_lo = _scaled(m, parts)
        low = (y_hi < 1e16) | ((y_hi == 1e16) & (y_lo < 0.0))
        high = (y_hi > 1e17) | ((y_hi == 1e17) & (y_lo >= 0.0))
        if correction or not (low | high).any():
            break
        e += high.astype(np.int64) - low
    settled = ~(outside | low | high)
    whole = np.floor(y_lo)
    rem = y_lo - whole
    fallback = ~regular | ~settled | (np.abs(rem - 0.5) < _TIE)
    d = np.where(settled, y_hi, 1e16).astype(np.int64) + whole.astype(np.int64) + (rem > 0.5)
    up = d == 10**17
    d[up] = 10**16
    e = np.clip(e + up, -324, 324)

    # D as its leading digit and two words of eight ASCII digits.
    lead, rest = np.divmod(d.astype(np.uint64), 10**16)
    w1, w2 = _ascii8(np.concatenate(np.divmod(rest, 10**8))).reshape(2, -1)
    tail1, tail2 = _last_nonzero(np.stack((w1, w2)))
    n_sig = np.where(tail2 >= 0, 10 + tail2, np.where(tail1 >= 0, 2 + tail1, 1))
    notation = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    layout = (np.signbit(x) * _NOTATIONS + notation) * 17 + n_sig - 1

    words = np.take(tables.fills, layout, axis=0)
    words[:, 0] |= _SIGN_WORD | (lead + ord("0")) << 56
    words[:, 1] |= w1
    words[:, 2] |= w2
    words[:, 3] |= ord(".") | w1 << 8
    words[:, 4] |= w1 >> 56 | w2 << 8
    exp_sign = np.where(e < 0, ord("-"), ord("+")).astype(np.uint64)
    words[:, 5] |= w2 >> 56 | ord("e") << 8 | exp_sign << 16 | _EXP_DIGITS[np.abs(e)] << 24
    field = words.astype(_LE, copy=False).view(np.uint8)

    rows = np.flatnonzero(fallback)
    if rows.size:
        text = _bytes_field([b"%.17g" % v for v in x[rows].tolist()])
        field[rows] = _FILL
        field[rows, :text.shape[1]] = text
    return field


class RowWriter:
    """Formats chunks of typed columns (float, int, bool, str) as CSV rows."""

    def __init__(self):
        self._tables = None  # built on the first float column

    def rows(self, cols: list[np.ndarray], kinds: tuple[str, ...]) -> str:
        """The CSV text of the rows of cols, one numpy array per column."""
        n = len(cols[0])
        # The float columns are formatted together, one element per (row, column).
        floats = [col for col, kind in zip(cols, kinds) if kind == "float"]
        if floats:
            if self._tables is None:
                self._tables = _FloatTables()
            float_fields = iter(_float_field(np.stack(floats, axis=1).ravel(), self._tables)
                                .reshape(n, len(floats), _FLOAT_WIDTH).transpose(1, 0, 2))
        parts = []
        for c, (col, kind) in enumerate(zip(cols, kinds)):
            if kind == "float":
                field = next(float_fields)
            elif kind == "bool":
                field = _BOOL_BYTES[col.view(np.uint8)]
            else:
                field = _bytes_field([str(v).encode() for v in col.tolist()])
            sep = _NEWLINE if c == len(cols) - 1 else _COMMA
            parts += [field, np.full((n, 1), sep, dtype=np.uint8)]
        chunk = np.concatenate(parts, axis=1)
        return chunk[chunk != _FILL].tobytes().decode()
