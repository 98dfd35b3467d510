"""CSV rows built as byte arrays in numpy, byte for byte as Python formats them.

A chunk of rows becomes one matrix of 8-byte words: each column contributes
a field of whole words per row, and each field ends in its column's
separator, "," or "\n".  A field fills the bytes a row does not use with
0xFF, a byte UTF-8 never contains, so deleting those bytes from the matrix
(bytes.translate) and decoding the rest once gives the rows' text.  Floats
are written as '%.17g' % v, bools as true/false, and ints and strs as the
UTF-8 bytes of str(v), NULs included.

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

A float field is four words, 32 bytes; '%.17g' never needs more than 24.
D's 17 ASCII digits are placed twice, copy A at bytes 6-22 and copy B one
byte later.  A layout (sign, notation, significant digits) takes the
integer digits from copy A and the fraction digits from copy B, with the
point in the byte between them, so digits and point are contiguous.  The
sign and "0.000" (fixed notation below one) end at byte 5, "e", the
exponent's sign and its two or three digits start at byte 24, and byte 31
is the separator.  Per layout, three tables of words say which bytes come
from copy A and from copy B and hold the others, so each word of a field
is three ANDs and ORs of its digits.  The last word comes whole from one of
two tables per E, one per separator.  A field that falls back is Python's
text followed by its separator.

Every table holds one row per word and one column per layout, E or key, so
each gather gives a row per word and every pass over a chunk reads and
writes contiguous arrays.  A chunk's float columns are formatted as one
array, column after column, into words (4, columns, rows); each column's
block is copied once into the chunk's matrix.
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
_FILL_BYTE = bytes([_FILL])
_LE = np.dtype("<u8")  # words viewed as bytes, least significant byte first
_ZEROS8 = 0x3030303030303030  # eight ASCII "0"s

# A float field's copy A of the digits starts at byte _FIRST, its exponent at _EXP.
_FIRST, _EXP, _FLOAT_WIDTH = 6, 24, 32
# Float layouts: sign (2) x notation (fixed at E = -4..16, exponent of two
# or three digits: 23) x significant digits (17).
_NOTATIONS = 23
_N_LAYOUTS = 2 * _NOTATIONS * 17
_E_MAX = 324  # |E| of a double's 17-digit rounding

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


def _float_layouts() -> np.ndarray:
    """Per float layout (sign, notation, significant digits), eight words of
    its first 24 bytes, one row each: 0xFF in the bytes it takes from copy A
    (three words) and from copy B (the last two: the first word takes none),
    then its other bytes (sign, "0.000", point, and 0xFF in each byte it
    leaves out)."""
    # Axes (notation, significant digits, byte); the sign is a copy of each row.
    notation = np.arange(_NOTATIONS)[:, None, None]
    n_sig = np.arange(1, 18)[:, None]
    fixed = notation < 21
    e = notation - 4
    below_one = fixed & (e < 0)
    # Digits taken from copy A: the integer digits, all of them below one.
    n_first = np.where(below_one, n_sig, np.where(fixed, e + 1, 1))
    digit = np.arange(_EXP) - _FIRST  # copy A's digit in each byte; copy B's is one less
    take_a = (digit >= 0) & (digit < n_first)
    take_b = ~below_one & (digit > n_first) & (digit <= n_sig)
    other = ~(take_a | take_b) * np.uint8(_FILL)
    other[~below_one & (digit == n_first) & (n_sig > n_first)] = ord(".")
    # The sign and "0.000" end just before copy A: in the k-th byte before it,
    # below one, "0." and -E - 1 zeros take k = 1 .. 1 - E; the sign is the byte before them.
    k = -digit[:_FIRST]
    zeros = np.where(below_one, 1 - e, 0)
    other[:, :, :_FIRST] = np.where(k == zeros - 1, ord("."), np.where(k <= zeros, ord("0"), _FILL))
    signed = np.stack((other, other))
    signed[1, :, :, :_FIRST] = np.where(k == zeros + 1, ord("-"), other[:, :, :_FIRST])
    words = np.empty((8, 2, _NOTATIONS, 17), dtype=_LE)
    words[:3] = (take_a * np.uint8(_FILL)).view(_LE).transpose(2, 0, 1)[:, None]
    words[3:5] = (take_b * np.uint8(_FILL)).view(_LE)[:, :, 1:].transpose(2, 0, 1)[:, None]
    words[5:] = signed.view(_LE).transpose(3, 0, 1, 2)
    return words.reshape(8, _N_LAYOUTS)


def _exponent_words() -> np.ndarray:
    """Per E from -_E_MAX to _E_MAX, a float field's last word: 'e', the sign
    and two or three digits in exponent notation, else 0xFF only."""
    e = np.arange(-_E_MAX, _E_MAX + 1)
    digits = np.abs(e) // np.array([[100], [10], [1]]) % 10 + ord("0")
    three = np.abs(e) >= 100
    text = np.full((e.size, 8), _FILL, dtype=np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    # Two digits, or three where |E| >= 100: '%+03d'.
    text[:, 2:4] = np.where(three, digits[:2], digits[1:]).T
    text[three, 4] = digits[2, three]
    text[(e >= -4) & (e < 17)] = _FILL
    return text.view(_LE)[:, 0]


class _FloatTables:
    """The float layouts' words (8, layouts), four ASCII digits per number
    below 10**4, per E the layout's base index and, per separator, the
    field's last word, and the parts of 10**(16 - E) * 2**q (4, keys),
    computed per key on first use."""

    def __init__(self):
        n = (_Q_MAX - _Q_MIN + 1) * _SLOTS
        self.parts = np.full((4, n), np.nan)  # NaN until computed
        # Per q, the first key's E: floor(log10(2**(q + 52))) - 1, exact for these q.
        self.first_e = ((np.arange(_Q_MIN, _Q_MAX + 1) + 52) * 78913 >> 18) - 1
        self.layouts = _float_layouts()
        # g = 1000 a + 100 b + 10 c + d as the bytes a, b, c, d, the first lowest.
        ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
        self.digits = (ascii[:, None, None, None] | ascii[:, None, None] << 8
                       | ascii[:, None] << 16 | ascii << 24).ravel()
        e = np.arange(-_E_MAX, _E_MAX + 1)
        notation = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
        self.layout_base = notation * 17  # plus the significant digits, less one
        exponent = _exponent_words()
        # The separator replaces the 0xFF of the last byte, which no exponent uses.
        self.exponent = {sep: exponent ^ np.uint64((_FILL ^ sep) << 56)
                         for sep in (_COMMA, _NEWLINE)}

    def powers(self, row: np.ndarray, e: np.ndarray):
        """P's parts (hi, hi's halves, lo), one row each, and where E lies outside
        the keys; row is q - _Q_MIN."""
        slot = e - np.take(self.first_e, row, mode="clip")
        outside = slot.view(np.uint64) >= _SLOTS  # a negative slot too
        # Where E is outside, another key or, clipped, an end key: the row falls back.
        key = row * _SLOTS + slot
        parts = np.take(self.parts, key, axis=1, mode="clip")
        new = np.isnan(parts[0])
        if new.any():
            for k in set(np.clip(key[new], 0, self.parts.shape[1] - 1).tolist()):
                r, s = divmod(k, _SLOTS)
                self.parts[:, k] = _power_parts(r + _Q_MIN, int(self.first_e[r]) + s)
            parts = np.take(self.parts, key, axis=1, mode="clip")
        return parts, outside


def _scaled(m: np.ndarray, parts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m * P as an unevaluated sum y_hi + y_lo, P's parts (hi, hh, hl, lo) as powers gives them."""
    hi, hh, hl, lo = parts
    c = _SPLIT * m
    mh = c - m
    np.subtract(c, mh, out=mh)  # mh = c - (c - m)
    ml = m - mh
    p = m * hi
    # Dekker: p + err == m * hi, err = ((mh hh - p) + mh hl + ml hh) + ml hl; then t = err + m lo.
    t = mh * hh
    t -= p
    t += np.multiply(mh, hl, out=c)
    t += np.multiply(ml, hh, out=c)
    t += np.multiply(ml, hl, out=c)
    t += np.multiply(m, lo, out=c)
    y_hi = p + t
    y_lo = np.subtract(y_hi, p, out=p)
    return y_hi, np.subtract(t, y_lo, out=y_lo)


def _significant_digits(w12: np.ndarray) -> np.ndarray:
    """Per 17-digit string (a nonzero lead, then the words w1 and w2 of w12,
    eight ASCII digits each, the first lowest), its length without trailing
    zeros, less the lead."""
    # 1 in the low bit of each byte whose digit is not 0; a double's exponent finds the last.
    nonzero = w12 - _ZEROS8
    nonzero += 0x7F7F7F7F7F7F7F7F
    nonzero >>= 7
    nonzero &= 0x0101010101010101
    low, high = nonzero.view(np.int64)
    last = high * 2.0**64
    last += low
    return (np.frexp(last)[1] + 7) >> 3


def _bytes_field(blobs: list[bytes]) -> np.ndarray:
    """Byte strings left-aligned in a field matrix of whole words."""
    lengths = np.fromiter(map(len, blobs), dtype=np.intp, count=len(blobs))
    used = np.arange(-(-max(lengths.max(initial=0), 1) // 8) * 8) < lengths[:, None]
    field = np.full(used.shape, _FILL, dtype=np.uint8)
    field[used] = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    return field


def _float_fields(x: np.ndarray, seps: list[int], tables: _FloatTables) -> np.ndarray:
    """Each row of x, one column of floats, as '%.17g' % v followed by that
    column's separator: words (4, columns, rows)."""
    n = x.shape[1]
    x = x.ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Zeros, NaN and infinities, the values whose log10 is not finite, fall back;
        # their keys and digits are whatever the arithmetic gives, which the
        # gathers below clip or keep in range.
        ax = np.abs(x)
        f, q = np.frexp(ax)
        m = np.multiply(f, 2.0**53, out=f)
        row = q.astype(np.int64)
        row -= 53 + _Q_MIN  # the key row of q = frexp's exponent - 53
        e = np.log10(ax, out=ax)
        special = ~np.isfinite(e)
        e = np.floor(e, out=e).astype(np.int64)
        for correction in range(2):
            parts, outside = tables.powers(row, e)
            y_hi, y_lo = _scaled(m, parts)
            # y = y_hi + y_lo with |y_lo| <= ulp(y_hi) / 2, so y_hi - 10**k is exact
            # or larger than y_lo, and adding y_lo keeps the sign of y - 10**k.
            low = (y_hi - 1e16) + y_lo < 0.0
            high = (y_hi - 1e17) + y_lo >= 0.0
            unsettled = low | high
            unsettled &= ~special
            if correction or not unsettled.any():
                break
            e += high.astype(np.int64) - low
        unsettled |= outside
        unsettled |= special
        # Rows that fall back get D = 10**16, so D's digits stay in range.
        np.copyto(y_hi, 1e16, where=unsettled)
        np.copyto(y_lo, 0.0, where=unsettled)
    # D is y rounded to nearest; a remainder within _TIE of 1/2 (a tie among
    # them, which rint would round to even) falls back.
    whole = np.rint(y_lo)
    d = y_hi.astype(np.int64)
    d += whole.astype(np.int64)
    y_lo -= whole
    fallback = np.abs(y_lo, out=y_lo) > 0.5 - _TIE
    fallback |= unsettled
    up = d == 10**17
    if up.any():
        d[up] = 10**16
        e += up
    e += _E_MAX  # the index of the per-E tables; takes clip a row that falls back

    # D as its leading digit and two words of eight ASCII digits, the first lowest.
    d = d.view(np.uint64)
    lead = d // 10**16
    halves = np.empty((2, x.size), dtype=np.uint64)
    first8 = np.floor_divide(d, 10**8, out=halves[0])
    np.subtract(d, first8 * 10**8, out=halves[1])
    first8 -= lead * 10**8
    first4 = halves // 10**4
    halves -= first4 * 10**4
    w12 = np.take(tables.digits, halves.view(np.int64), mode="clip")
    w12 <<= 32
    w12 |= np.take(tables.digits, first4.view(np.int64), mode="clip")
    w1, w2 = w12
    # The layout, then the field's words: copy A is lead, w1 and w2 from byte 6,
    # copy B's digits after the lead are w1 and w2 from byte 8.
    layout = np.take(tables.layout_base, e, mode="clip")
    layout += _significant_digits(w12)
    layout += np.signbit(x) * (_N_LAYOUTS // 2)
    a0, a1, a2, b1, b2, o0, o1, o2 = np.take(tables.layouts, layout, axis=1, mode="clip")
    words = np.empty((4, x.size), dtype=_LE)
    np.bitwise_or((lead + ord("0") << 48 | w1 << 56) & a0, o0, out=words[0])
    np.bitwise_or((w1 >> 8 | w2 << 56) & a1 | w1 & b1, o1, out=words[1])
    np.bitwise_or(w2 >> 8 & a2 | w2 & b2, o2, out=words[2])
    for c, sep in enumerate(seps):
        np.take(tables.exponent[sep], e[c * n:(c + 1) * n], mode="clip",
                out=words[3, c * n:(c + 1) * n])

    rows = np.flatnonzero(fallback)
    if rows.size:
        text = [b"%.17g%c" % (v, seps[r // n]) for v, r in zip(x[rows].tolist(), rows.tolist())]
        text = _bytes_field(text).view(_LE)
        words[:, rows] = ~np.uint64(0)
        words[:text.shape[1], rows] = text.T
    return words.reshape(4, len(seps), n)


def _bool_words(sep: int) -> np.ndarray:
    """false and true, right-aligned before sep in a word."""
    return np.array([int.from_bytes(text.rjust(7, b"\xff") + bytes([sep]), "little")
                     for text in (b"false", b"true")], dtype=_LE)


class RowWriter:
    """Formats chunks of typed columns (float, int, bool, str) as CSV rows."""

    def __init__(self):
        self._tables = None  # built on the first float column

    def rows(self, cols: list[np.ndarray], kinds: tuple[str, ...]) -> str:
        """The CSV text of the rows of cols, one numpy array per column."""
        seps = [_COMMA] * (len(cols) - 1) + [_NEWLINE]
        # The float columns are formatted together, column after column, each
        # field ending in its column's separator.
        floats = [c for c, kind in enumerate(kinds) if kind == "float"]
        if floats:
            if self._tables is None:
                self._tables = _FloatTables()
            float_fields = iter(_float_fields(np.stack([cols[c] for c in floats]),
                                              [seps[c] for c in floats], self._tables)
                                .transpose(1, 2, 0))
        # Each column as words of its fields, separators included, copied once
        # into the chunk's row-major word matrix (given as out=, since concatenate
        # would lay it out column-major after the float blocks' transposed views).
        parts = []
        for col, kind, sep in zip(cols, kinds, seps):
            if kind == "float":
                parts.append(next(float_fields))
            elif kind == "bool":
                false, true = _bool_words(sep)
                parts.append(np.where(col, true, false)[:, None])
            else:
                parts.append(_bytes_field([str(v).encode() + bytes([sep]) for v in col.tolist()])
                             .view(_LE))
        words = np.empty((len(cols[0]), sum(part.shape[1] for part in parts)), dtype=_LE)
        np.concatenate(parts, axis=1, out=words)
        return words.tobytes().translate(None, _FILL_BYTE).decode()
