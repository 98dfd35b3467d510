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
is three ANDs and ORs of its digits.
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
    its first 24 bytes: 0xFF in the bytes it takes from copy A (three words)
    and from copy B (the last two: the first word takes none), then its
    other bytes (sign, "0.000", point, and 0xFF in each byte it leaves out)."""
    layout = np.arange(_N_LAYOUTS)
    notation = layout // 17 % _NOTATIONS
    n_sig = layout % 17 + 1
    fixed = notation < 21
    e = notation - 4
    below_one = fixed & (e < 0)
    # Digits taken from copy A: the integer digits, all of them below one.
    n_first = np.where(below_one, n_sig, np.where(fixed, e + 1, 1))
    digit = np.arange(_EXP) - _FIRST  # copy A's digit in each byte; copy B's is one less
    take_a = (digit >= 0) & (digit < n_first[:, None])
    take_b = ~below_one[:, None] & (digit > n_first[:, None]) & (digit <= n_sig[:, None])
    other = np.where(take_a | take_b, np.uint8(0), np.uint8(_FILL))
    # The sign and "0.000" end just before copy A: in the k-th byte before it,
    # below one, "0." and -E - 1 zeros take k = 1 .. 1 - E.
    k = -digit[:_FIRST]
    zeros = np.where(below_one, 1 - e, 0)[:, None]
    other[:, :_FIRST] = np.where(k == zeros - 1, ord("."), np.where(k <= zeros, ord("0"), _FILL))
    other[:, :_FIRST][(layout >= _N_LAYOUTS // 2)[:, None] & (k == zeros + 1)] = ord("-")
    point = np.flatnonzero(~below_one & (n_sig > n_first))
    other[point, _FIRST + n_first[point]] = ord(".")
    take_a, take_b = (np.where(take, np.uint8(_FILL), np.uint8(0)).view(_LE)
                      for take in (take_a, take_b))
    return np.concatenate((take_a, take_b[:, 1:], other.view(_LE)), axis=1)


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
    """The float layouts' words, per E the layout's base index and the
    exponent word, and the parts of 10**(16 - E) * 2**q computed per key on
    first use."""

    def __init__(self):
        n = (_Q_MAX - _Q_MIN + 1) * _SLOTS
        self.known = np.zeros(n, dtype=bool)
        self.parts = np.empty((n, 4))
        # Per q, the first key's E: floor(log10(2**(q + 52))) - 1, exact for these q.
        self.first_e = ((np.arange(_Q_MIN, _Q_MAX + 1) + 52) * 78913 >> 18) - 1
        self.layouts = _float_layouts()
        g = np.arange(10**4, dtype=np.uint64)  # four ASCII digits, the first lowest
        self.digits = sum((g // 10**k % 10 + ord("0")) << 8 * (3 - k) for k in range(4))
        e = np.arange(-_E_MAX, _E_MAX + 1)
        notation = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
        self.layout_base = notation * 17 - 1  # plus the significant digits
        self.exponent = _exponent_words()

    def powers(self, q: np.ndarray, e: np.ndarray):
        """P's parts (hi, hi's halves, lo), one row each, and where E lies outside the keys."""
        row = q - _Q_MIN
        slot = e - np.take(self.first_e, row)
        outside = slot.view(np.uint64) >= _SLOTS  # a negative slot too
        # Where E is outside, another key or, clipped, an end key: the row falls back.
        key = row * _SLOTS + slot
        known = np.take(self.known, key, mode="clip")
        if not known.all():
            key = np.clip(key, 0, self.known.size - 1)
            for k in set(key[~known].tolist()):
                row, slot = divmod(k, _SLOTS)
                self.parts[k] = _power_parts(row + _Q_MIN, int(self.first_e[row]) + slot)
            self.known[key] = True
        return np.take(self.parts, key, axis=0, mode="clip").T, outside


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


def _significant_digits(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Per 17-digit string (a nonzero lead, then words w1 and w2 of eight
    ASCII digits, the first lowest), its length without trailing zeros."""
    # 1 in the low bit of each byte whose digit is not 0; a double's exponent finds the last.
    low, high = (((w - _ZEROS8) + 0x7F7F7F7F7F7F7F7F) >> 7 & 0x0101010101010101 for w in (w1, w2))
    return (np.frexp(high.view(np.int64) * 2.0**64 + low.view(np.int64))[1] + 7) // 8 + 1


def _bytes_field(blobs: list[bytes]) -> np.ndarray:
    """Byte strings left-aligned in a field matrix of whole words."""
    lengths = np.fromiter(map(len, blobs), dtype=np.intp, count=len(blobs))
    used = np.arange(-(-max(lengths.max(initial=0), 1) // 8) * 8) < lengths[:, None]
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
    e += up + _E_MAX  # the index of the per-E tables; takes clip a row that falls back

    # D as its leading digit and two words of eight ASCII digits, the first lowest.
    d = d.astype(np.uint64)
    lead = d // 10**16
    rest = d - lead * 10**16
    first8 = rest // 10**8
    halves = np.concatenate((first8, rest - first8 * 10**8)).view(np.int64)
    first4 = halves // 10**4
    w1, w2 = (np.take(tables.digits, first4)
              | np.take(tables.digits, halves - first4 * 10**4) << 32).reshape(2, -1)
    # The layout, then the field's words: copy A is lead, w1 and w2 from byte 6,
    # copy B's digits after the lead are w1 and w2 from byte 8.
    layout = np.take(tables.layout_base, e, mode="clip") + _significant_digits(w1, w2)
    layout += np.signbit(x) * (_N_LAYOUTS // 2)
    a0, a1, a2, b1, b2, o0, o1, o2 = np.take(tables.layouts, layout, axis=0).T
    words = np.empty((x.size, _FLOAT_WIDTH // 8), dtype=_LE)
    words[:, 0] = (lead + ord("0") << 48 | w1 << 56) & a0 | o0
    words[:, 1] = (w1 >> 8 | w2 << 56) & a1 | w1 & b1 | o1
    words[:, 2] = w2 >> 8 & a2 | w2 & b2 | o2
    words[:, 3] = np.take(tables.exponent, e, mode="clip")

    rows = np.flatnonzero(fallback)
    if rows.size:
        text = _bytes_field([b"%.17g" % v for v in x[rows].tolist()]).view(_LE)
        words[rows] = ~np.uint64(0)
        words[rows, :text.shape[1]] = text
    return words


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
        n = len(cols[0])
        seps = [_COMMA] * (len(cols) - 1) + [_NEWLINE]
        # The float columns are formatted together, one element per (row, column),
        # each with its separator in the last byte, which every layout leaves out.
        floats = [c for c, kind in enumerate(kinds) if kind == "float"]
        if floats:
            if self._tables is None:
                self._tables = _FloatTables()
            words = _float_field(np.stack([cols[c] for c in floats], axis=1).ravel(),
                                 self._tables).reshape(n, len(floats), _FLOAT_WIDTH // 8)
            words[:, :, -1] ^= np.array([(_FILL ^ seps[c]) << 56 for c in floats], dtype=_LE)
            float_fields = iter(words.transpose(1, 0, 2))
        # Each column as words of its fields, separators included.
        parts = []
        for col, kind, sep in zip(cols, kinds, seps):
            if kind == "float":
                parts.append(next(float_fields))
            elif kind == "bool":
                parts.append(_bool_words(sep)[col.view(np.uint8), None])
            else:
                parts.append(_bytes_field([str(v).encode() + bytes([sep]) for v in col.tolist()])
                             .view(_LE))
        return np.concatenate(parts, axis=1).tobytes().translate(None, _FILL_BYTE).decode()
