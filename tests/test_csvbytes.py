"""The CSV byte-field writer against Python's own formatting, value by value."""

import math

import numpy as np
import pytest

import qslkit.csvbytes as csvbytes


def written(values, kind: str = "float") -> list[str]:
    """One formatted value per element, through the writer's one-column rows."""
    col = np.asarray(values, dtype={"float": float, "int": np.int64}[kind])
    writer = csvbytes.RowWriter()
    text = "".join(writer.rows([col[i:i + 4096]], (kind,)) for i in range(0, col.size, 4096))
    return text.split("\n")[:-1]


def percent_g(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def mismatches(values) -> list:
    got, want = written(values), percent_g(values)
    return [(v, g, w) for v, g, w in zip(np.asarray(values).tolist(), got, want) if g != w]


def ulps_around(x: np.ndarray, k: int) -> np.ndarray:
    """x and its k neighbouring doubles on either side."""
    out, up, down = [x], x, x
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def exact_ties(rng, per_exponent: int) -> np.ndarray:
    """Doubles whose exact decimal has 18 significant digits, the last a 5.

    m * 2**-k, m odd, is exactly m * 5**k / 10**k, so it is such a tie when
    m * 5**k has 18 digits; that needs 2 <= k <= 25.
    """
    ties = []
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        for m in rng.integers(lo, hi, per_exponent).tolist():
            m |= 1
            if len(str(m * 5**k)) == 18:
                ties.append(math.ldexp(m, -k))
    return np.array(ties)


class TestExactPercentG:
    def test_two_million_values(self):
        rng = np.random.default_rng(20261018)
        powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
        rounding_up = np.array(
            [float(f"9.9999999999999999{d}e{k}") for k in range(-324, 308) for d in range(10)]
        )
        switches = ulps_around(np.array([1e-5, 1e-4, 1e16, 1e17]), 1000)
        specials = np.array([5e-324, 1.7976931348623157e308, 0.0, -0.0, np.nan, np.inf, -np.inf])
        ties = exact_ties(rng, 500)
        sets = {
            "random bit patterns": rng.integers(0, 2**64, 2_000_000, dtype=np.uint64).view(float),
            "powers of ten, 3 ulps around": ulps_around(powers_of_ten, 3),
            "just below a power of ten": rounding_up,
            "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
            "notation switches": switches,
            "specials": specials,
            "exact ties": np.concatenate([ties, -ties]),
        }
        total = 0
        for name, values in sets.items():
            assert mismatches(values) == [], name
            total += values.size
        assert total >= 2_000_000
        assert ties.size > 10_000

    def test_forced_fallback_matches(self, monkeypatch):
        # Every remainder is then "near 1/2", so Python formats every element.
        monkeypatch.setattr(csvbytes, "_TIE", 1.0)
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.uniform(-25.0, 25.0, 5000), [1e-300, -3.5e17, 0.1]])
        assert mismatches(values) == []

    def test_ints(self):
        values = [0, 7, -7, 10, -10**8, 10**16, 2**63 - 1, -2**63, 12345678901234567]
        assert written(values, "int") == ["%d" % v for v in values]

    def test_any_float(self):
        hypothesis = pytest.importorskip("hypothesis")
        strategies = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(strategies.floats())
        def check(v):
            assert written([v]) == percent_g([v])

        check()


class TestRowAssembly:
    """Whole rows of mixed columns against a pure-Python reference."""

    @staticmethod
    def columns(n: int, order: tuple[str, ...]) -> list:
        rng = np.random.default_rng(n)
        pool = np.concatenate([
            [math.nan, math.inf, -math.inf, 0.0, -0.0, 0.1, -1.5, 100.0, 1e16, 1e17, 1.25e-5,
             -9.5e-5, 1e-300, -2.5e-310, 5e-324, 1.7976931348623157e308, -1.2345678901234567e200,
             0.5, 2.5e16],
            exact_ties(rng, 2)[:40],
            rng.integers(0, 2**64, 200, dtype=np.uint64).view(float),
        ])
        labels = ["speed_up", "", "é", "a b", "nul\x00", "%s", "no_speed_up"]
        make = {
            "float": lambda: rng.choice(pool, n),
            "bool": lambda: rng.integers(0, 2, n).astype(bool),
            "int": lambda: rng.integers(-2**63, 2**63 - 1, n, endpoint=True),
            "str": lambda: np.array([labels[k] for k in rng.integers(0, len(labels), n)],
                                    dtype=object),
        }
        return [make[kind]() for kind in order]

    @staticmethod
    def reference(cols: list, order: tuple[str, ...]) -> str:
        cell = {"float": lambda v: "%.17g" % v, "bool": lambda v: "true" if v else "false",
                "int": str, "str": str}
        return "".join(",".join(cell[kind](v) for kind, v in zip(order, row)) + "\n"
                       for row in zip(*(col.tolist() for col in cols)))

    @pytest.mark.parametrize("order", [("float", "bool", "float", "int", "str"),
                                       ("str", "int", "float", "bool", "float")])
    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_mixed_chunk_matches_join(self, n, order):
        cols = self.columns(n, order)
        assert csvbytes.RowWriter().rows(cols, order) == self.reference(cols, order)

    # Float columns side by side, and a float column last, whose fields end in "\n".
    @pytest.mark.parametrize("order", [("float", "float", "bool"), ("int", "float", "float"),
                                       ("float",)])
    @pytest.mark.parametrize("n", [1, 4095, 4096])
    def test_adjacent_and_last_float_columns(self, n, order):
        cols = self.columns(n, order)
        assert csvbytes.RowWriter().rows(cols, order) == self.reference(cols, order)

    @pytest.mark.parametrize("order", [("float", "float", "float"),
                                       ("bool", "float", "int", "float")])
    def test_forced_fallback_in_middle_and_last_columns(self, monkeypatch, order):
        # Every element falls back: Python's text and its column's separator.
        monkeypatch.setattr(csvbytes, "_TIE", 1.0)
        cols = self.columns(4096, order)
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0,
                    *exact_ties(np.random.default_rng(3), 1)]
        for c in (1, len(order) - 1):
            cols[c][:len(specials)] = specials
        assert csvbytes.RowWriter().rows(cols, order) == self.reference(cols, order)


def test_exponent_words():
    # Per E, 'e', the sign and two or three digits, padded with 0xFF, outside fixed
    # notation's -4..16, and 0xFF only inside it.
    for e, word in zip(range(-csvbytes._E_MAX, csvbytes._E_MAX + 1),
                       csvbytes._exponent_words().tolist()):
        text = b"" if -4 <= e <= 16 else b"e%+03d" % e
        assert word.to_bytes(8, "little") == text.ljust(8, b"\xff"), e


# References: the tables as first built, one row per layout or per number.
def first_float_layouts() -> np.ndarray:
    layout = np.arange(csvbytes._N_LAYOUTS)
    notation = layout // 17 % csvbytes._NOTATIONS
    n_sig = layout % 17 + 1
    fixed = notation < 21
    e = notation - 4
    below_one = fixed & (e < 0)
    n_first = np.where(below_one, n_sig, np.where(fixed, e + 1, 1))
    digit = np.arange(csvbytes._EXP) - csvbytes._FIRST
    take_a = (digit >= 0) & (digit < n_first[:, None])
    take_b = ~below_one[:, None] & (digit > n_first[:, None]) & (digit <= n_sig[:, None])
    other = np.where(take_a | take_b, np.uint8(0), np.uint8(0xFF))
    k = -digit[:csvbytes._FIRST]
    zeros = np.where(below_one, 1 - e, 0)[:, None]
    other[:, :csvbytes._FIRST] = np.where(k == zeros - 1, ord("."),
                                          np.where(k <= zeros, ord("0"), 0xFF))
    minus = (layout >= csvbytes._N_LAYOUTS // 2)[:, None] & (k == zeros + 1)
    other[:, :csvbytes._FIRST][minus] = ord("-")
    point = np.flatnonzero(~below_one & (n_sig > n_first))
    other[point, csvbytes._FIRST + n_first[point]] = ord(".")
    take_a, take_b = (np.where(take, np.uint8(0xFF), np.uint8(0)).view("<u8")
                      for take in (take_a, take_b))
    return np.concatenate((take_a, take_b[:, 1:], other.view("<u8")), axis=1)


def first_digits() -> np.ndarray:
    g = np.arange(10**4, dtype=np.uint64)
    return sum((g // 10**k % 10 + ord("0")) << 8 * (3 - k) for k in range(4))


class TestFloatTables:
    """Each table against its first construction, in its one-row-per-word layout."""

    def test_layouts(self):
        assert np.array_equal(csvbytes._float_layouts(), first_float_layouts().T)

    def test_digits_layout_base_and_first_e(self):
        tables = csvbytes._FloatTables()
        assert tables.digits.dtype == np.uint64
        assert np.array_equal(tables.digits, first_digits())
        e = np.arange(-csvbytes._E_MAX, csvbytes._E_MAX + 1)
        notation = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
        assert np.array_equal(tables.layout_base, notation * 17)
        q = np.arange(csvbytes._Q_MIN, csvbytes._Q_MAX + 1)
        assert tables.first_e.tolist() == [math.floor(math.log10(2.0 ** (v + 52))) - 1
                                           for v in q.tolist()]

    def test_exponent_word_per_separator(self):
        tables = csvbytes._FloatTables()
        words = csvbytes._exponent_words()
        for sep in (ord(","), ord("\n")):
            want = (words & ~np.uint64(0xFF << 56)) | np.uint64(sep << 56)
            assert np.array_equal(tables.exponent[sep], want)

    def test_parts_per_key(self):
        tables = csvbytes._FloatTables()
        q = np.array([-1126, -1074, -53, 0, 52, 971])
        row = q - csvbytes._Q_MIN
        for slot in range(csvbytes._SLOTS):
            e = tables.first_e[row] + slot
            parts, outside = tables.powers(row, e)
            assert not outside.any()
            want = [csvbytes._power_parts(a, b) for a, b in zip(q.tolist(), e.tolist())]
            assert np.array_equal(parts, np.array(want).T)
