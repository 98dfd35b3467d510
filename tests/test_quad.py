import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from qslkit.model import ModelParams, population_rate
import qslkit.quad as quad_mod
from qslkit.quad import (
    QuadratureError,
    QuadratureSpec,
    find_sign_changes,
    find_sign_changes_many,
    integrate,
    integrate_many,
    probe_count_for_period,
)


def _depth_first(f, a, b, spec, breakpoints=()):
    """Reference: left-first depth-first bisection with one call per node set."""
    def panel(lo, hi):
        mid, half = 0.5 * lo + 0.5 * hi, 0.5 * (hi - lo)
        values = []
        for n in (15, 7):
            nodes, weights = np.polynomial.legendre.leggauss(n)
            values.append(half * float(np.dot(weights, f(mid + half * nodes))))
        return values[0], abs(values[0] - values[1])

    edges = [a] + [bp for bp in breakpoints if a < bp < b] + [b]
    stack = [(lo, hi, 0, panel(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    # Left to right, as the engine sums: sum() is compensated from Python 3.12.
    tol = max(spec.rel_tol * reduce(add, (abs(first[0]) for *_, first in stack), 0.0),
              spec.abs_tol)
    total = err_total = 0.0
    stack.reverse()
    while stack:
        lo, hi, depth, first = stack.pop()
        value, err = first or panel(lo, hi)
        if err <= tol * (hi - lo) / (b - a) or err <= spec.abs_tol:
            total += value
            err_total += err
            continue
        if depth >= quad_mod._MAX_DEPTH:
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}] after depth {depth}",
                value=total + value, err_estimate=err_total + err,
            )
        mid = 0.5 * lo + 0.5 * hi
        stack += [(mid, hi, depth + 1, None), (lo, mid, depth + 1, None)]
    return total, err_total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except QuadratureError as exc:
        return str(exc), exc.value, exc.err_estimate


class TestIntegrate:
    def test_constant(self):
        value, err = integrate(lambda t: np.ones_like(t), 0.0, 0.2)
        assert value == pytest.approx(0.2, abs=1e-12)

    def test_polynomial_exactness(self):
        value, _ = integrate(lambda t: t**2, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_abs_sine_with_breakpoints(self):
        k = math.pi / 50.0
        value, err = integrate(lambda t: np.abs(np.sin(50.0 * t)), 0.0, 4 * k,
                               breakpoints=(k, 2 * k, 3 * k))
        assert value == pytest.approx(4.0 * 2.0 / 50.0, rel=1e-9)

    def test_breakpoints_do_not_worsen_error(self):
        k = math.pi / 50.0
        f = lambda t: np.abs(np.sin(50.0 * t))
        _, err_plain = integrate(f, 0.0, 4 * k)
        _, err_bp = integrate(f, 0.0, 4 * k, breakpoints=(k, 2 * k, 3 * k))
        assert err_bp <= err_plain

    def test_additive_over_subintervals(self):
        f = lambda t: np.exp(-t) * np.sin(3.0 * t)
        whole, err_whole = integrate(f, 0.0, 2.0)
        left, err_left = integrate(f, 0.0, 0.7)
        right, err_right = integrate(f, 0.7, 2.0)
        assert left + right == pytest.approx(whole, abs=err_whole + err_left + err_right + 1e-12)

    def test_empty_interval(self):
        assert integrate(lambda t: t, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda t: t, 1.0, 0.0)

    def test_max_depth_failure_carries_partial(self, monkeypatch):
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 3)
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0)
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda t: np.abs(np.sin(50.0 * t)), 0.0, 1.0, spec)
        assert math.isfinite(exc_info.value.value)
        assert exc_info.value.err_estimate > 0.0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_initial_panels_evaluated_once(self, k):
        # Gauss-Legendre 7 is exact for degree 13, so no panel is bisected and
        # the GL15 and GL7 nodes of all k+1 initial panels share one call.
        calls = []

        def f(t):
            calls.append(t.size)
            return t**13 - 2.0 * t**5 + 1.0

        value, _ = integrate(f, 0.0, 1.0, breakpoints=np.linspace(0.0, 1.0, k + 2)[1:-1])
        assert value == pytest.approx(1.0 / 14.0 - 1.0 / 3.0 + 1.0, rel=1e-13)
        assert calls == [22 * (k + 1)]

    @pytest.mark.parametrize("panels_per_round", [1, 16])
    @pytest.mark.parametrize(
        "spec, max_depth, breakpoints",
        [
            (QuadratureSpec(), quad_mod._MAX_DEPTH, ()),
            (QuadratureSpec(rel_tol=1e-12, abs_tol=0.0), quad_mod._MAX_DEPTH, (0.1, 0.5, 0.77)),
            (QuadratureSpec(rel_tol=1e-14, abs_tol=0.0), 3, ()),
            (QuadratureSpec(rel_tol=1e-13, abs_tol=0.0), 7, (0.3, 0.31)),
        ],
        ids=["spec0", "spec1", "spec2", "spec3"],
    )
    def test_matches_depth_first_bisection(self, monkeypatch, spec, max_depth, breakpoints,
                                           panels_per_round):
        # Same panels, same left-to-right sums, same first failure and partial value.
        monkeypatch.setattr(quad_mod, "_PANELS_PER_ROUND", panels_per_round)
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", max_depth)
        f = lambda t: np.abs(np.sin(50.0 * t)) * np.exp(-t)
        args = f, 0.0, 1.0, spec, breakpoints
        assert _outcome(integrate, *args) == _outcome(_depth_first, *args)

    def test_matches_depth_first_bisection_on_drawn_inputs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            freq=st.floats(1.0, 200.0),
            b=st.floats(0.0, 2.0, exclude_min=True),
            breakpoints=st.lists(st.floats(0.0, 2.0), max_size=4).map(lambda x: sorted(set(x))),
            rel_tol=st.sampled_from([1e-9, 1e-12, 1e-14]),
            abs_tol=st.sampled_from([0.0, 1e-12]),
            max_depth=st.integers(0, 8),
            panels_per_round=st.sampled_from([1, 2, 16]),
        )
        def check(freq, b, breakpoints, rel_tol, abs_tol, max_depth, panels_per_round):
            f = lambda t: np.abs(np.sin(freq * t)) * np.exp(-t)
            args = f, 0.0, b, QuadratureSpec(rel_tol, abs_tol), tuple(breakpoints)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(quad_mod, "_PANELS_PER_ROUND", panels_per_round)
                m.setattr(quad_mod, "_MAX_DEPTH", max_depth)
                assert _outcome(integrate, *args) == _outcome(_depth_first, *args)

        check()

    def test_many_windows_match_one_at_a_time(self, monkeypatch):
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 7)
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0)
        # Two windows with kinks inside, an empty one, and one between two kinks.
        k = math.pi / 50.0
        a, b = [0.0, 0.2, 0.5, k], [1.0, 0.9, 0.5, 2.0 * k]
        breakpoints = [(0.3,), (), (), (1.5 * k,)]
        bp_win = [i for i, bps in enumerate(breakpoints) for _ in bps]
        bp = [x for bps in breakpoints for x in bps]
        results = integrate_many(lambda rows, t: np.abs(np.sin(50.0 * t)), a, b, bp_win, bp, spec)
        assert [isinstance(r, QuadratureError) for r in results] == [True, True, False, False]
        for ai, bi, bps, result in zip(a, b, breakpoints, results):
            one = _outcome(integrate, lambda t: np.abs(np.sin(50.0 * t)), ai, bi, spec, bps)
            if isinstance(result, QuadratureError):
                result = str(result), result.value, result.err_estimate
            assert result == one

    def test_nan_end_takes_the_panel_path(self, monkeypatch):
        # b != a holds for NaN ends, so the window is refined until _MAX_DEPTH.
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 5)
        with pytest.raises(QuadratureError):
            integrate(lambda t: t, 0.0, math.nan)

    @pytest.mark.parametrize("a, b", [(math.nan, math.nan), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_non_finite_start_fails_at_once(self, a, b):
        # Such a panel never converges, so it fails at depth 0 instead of splitting.
        calls = []

        def f(t):
            calls.append(t.size)
            return t

        with pytest.raises(QuadratureError, match="after depth 0"), np.errstate(invalid="ignore"):
            integrate(f, a, b)
        assert len(calls) == 1

    @pytest.mark.filterwarnings("error")
    def test_window_too_wide_for_the_tolerance_product(self):
        # rel_tol * |value| * (hi - lo) overflows on a window 1e300 wide; each panel
        # must still get its fraction of the tolerance, not an infinite one.
        value, _ = integrate(lambda t: np.abs(np.sin(t * 1e-299)), 0.0, 1e300)
        assert value == pytest.approx(1e299 * (7.0 - math.cos(10.0 - 3.0 * math.pi)), rel=1e-9)

    def test_no_windows(self):
        unused = lambda rows, t: 1 / 0
        assert integrate_many(unused, [], [], [], [], QuadratureSpec()) == []
        root_win, roots, bits = find_sign_changes_many(unused, [], [], [])
        assert root_win.size == roots.size == bits.size == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=-1e-12)
        with pytest.raises(ValueError, match="rel_tol"):
            QuadratureSpec(rel_tol=math.nan)
        with pytest.raises(ValueError, match="abs_tol"):
            QuadratureSpec(abs_tol=math.nan)

    @pytest.mark.parametrize("breakpoints", [(0.2, 0.1), (0.3, 0.3)])
    def test_breakpoints_must_increase(self, breakpoints):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate(lambda t: t, 0.0, 1.0, breakpoints=breakpoints)


def _bisect_each_bracket(f, a, b, n_probe):
    """Reference: the one-bracket-at-a-time bisection with single-point calls.

    Brackets are decided by signs, so values whose product underflows still count.
    """
    grid = np.linspace(a, b, n_probe + 1)
    vals = f(grid)
    target = 1e-12 * (b - a)
    roots = []
    for i in range(n_probe):
        v1, v2 = vals[i], vals[i + 1]
        if v1 == 0.0:
            roots.append(float(grid[i]))
            continue
        if np.sign(v1) * np.sign(v2) >= 0.0:
            continue
        lo, hi, flo = float(grid[i]), float(grid[i + 1]), float(v1)
        while hi - lo > target:
            mid = 0.5 * (lo + hi)
            fmid = float(f(np.asarray([mid]))[0])
            if fmid == 0.0:
                lo = hi = mid
                break
            if np.sign(flo) * np.sign(fmid) < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    return [r for r in roots if a < r < b]


class TestFindSignChanges:
    @pytest.mark.parametrize(
        "f, a, b, n_probe",
        [
            (lambda t: np.cos(50.0 * t), 0.0, 1.0, 64),
            # flo * fmid would underflow to 0 near the roots; the signs do not.
            (lambda t: 1e-160 * np.cos(50.0 * t), 0.0, 1.0, 64),
            (lambda t: 1e-165 * np.cos(50.0 * t), 0.0, 1.0, 64),
            # An exact-zero probe at t = 1.5, and exact-zero midpoints on the plateaus.
            (lambda t: (t - 1.5) * np.round(np.sin(7.0 * t), 2), 0.0, 3.0, 40),
            (lambda t: population_rate(ModelParams(500.0, 50.0, 0.0), t), 0.0, 0.2, 300),
            (lambda t: population_rate(ModelParams(500.0, 50.0, 300.0), t), 0.05, 0.25, 400),
        ],
    )
    def test_matches_one_bracket_at_a_time_bisection(self, f, a, b, n_probe):
        # Bisecting all brackets as arrays does the same arithmetic per bracket.
        assert find_sign_changes(f, a, b, n_probe) == _bisect_each_bracket(f, a, b, n_probe)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-165])
    def test_tiny_values_give_the_unscaled_roots(self, scale):
        # Products of two such values underflow; their signs decide the brackets.
        unscaled = find_sign_changes(lambda t: np.cos(50.0 * t), 0.0, 1.0, 64)
        assert len(unscaled) == 16
        assert find_sign_changes(lambda t: scale * np.cos(50.0 * t), 0.0, 1.0, 64) == unscaled

    def test_cosine_single_root(self):
        roots = find_sign_changes(np.cos, 0.0, math.pi, 64)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(math.pi / 2.0, abs=1e-11)

    def test_no_sign_change(self):
        assert find_sign_changes(lambda t: t**2 + 1.0, 0.0, 1.0, 32) == []

    def test_population_rate_roots_strong_coupling(self):
        # At 10x critical coupling on resonance, dP/dt vanishes at 2*pi*k/|d0|.
        p = ModelParams(gamma0=500.0, lam=50.0, delta=0.0)
        d0 = abs(p.complex_root)
        n_probe = probe_count_for_period(p.complex_root.imag, 0.0, 0.1)
        roots = find_sign_changes(lambda t: population_rate(p, t), 0.0, 0.1, n_probe)
        for k in (1, 2, 3):
            target = 2.0 * math.pi * k / d0
            assert min(abs(r - target) for r in roots) < 1e-9

    def test_identically_zero_has_no_roots(self):
        assert find_sign_changes(np.zeros_like, 0.0, 1.0) == []

    def test_stacked_factors_give_union_of_rows(self):
        # n_probe = 4 puts a probe exactly on the root of t - 0.5; the
        # identically zero row contributes nothing.
        rows = (lambda t: np.cos(50.0 * t), lambda t: t - 0.5, np.zeros_like)
        stacked = find_sign_changes(lambda t: np.stack([r(t) for r in rows]), 0.0, 1.0, 4)
        single = [find_sign_changes(r, 0.0, 1.0, 4) for r in rows]
        assert 0.5 in single[1]
        assert single[2] == []
        assert stacked == sorted(set(single[0] + single[1]))

    def test_each_root_carries_the_bits_of_its_factors(self):
        # Bit k is set where factor k changes sign or is exactly zero (t - 0.5 on
        # the probe 0.5).  t - 0.3 and 2 (t - 0.3) are bisected alike, so their
        # roots are one root with both bits.  Each factor's roots are, bit for bit,
        # those of a search of that factor alone.
        def factors(rows, t):
            return np.stack((t - 0.3, t - 0.5, 2.0 * (t - 0.3), np.cos(50.0 * t)))

        root_win, roots, bits = find_sign_changes_many(factors, [0.0, 0.0], [1.0, 0.6],
                                                       [4, 64])
        assert [x for x in bits.tolist() if x != 0b1000] == [0b101, 0b010] * 2
        assert roots[bits == 0b010][0] == 0.5
        for k in range(4):
            alone = find_sign_changes_many(lambda rows, t: factors(rows, t)[k], [0.0, 0.0],
                                           [1.0, 0.6], [4, 64])
            mine = (bits >> k & 1).astype(bool)
            assert np.array_equal(alone[0], root_win[mine])
            assert alone[1].tobytes() == roots[mine].tobytes()
            assert np.all(alone[2] == 1)

    def test_many_windows_match_one_at_a_time(self, monkeypatch):
        # A normal window, an empty one, one with an exact-zero probe (t - 0.5
        # at t = 0.5 on 4 probes) and one whose second factor is identically zero.
        a, b = np.array([0.0, 0.5, 0.0, 0.2]), np.array([1.0, 0.5, 1.0, 0.9])
        n_probe = [64, 64, 4, 40]
        freq, slope = np.array([50.0, 50.0, 9.0, 30.0]), np.array([1.0, 1.0, 1.0, 0.0])

        def factors(rows, t):
            return np.stack((np.cos(freq[rows, None] * t), slope[rows, None] * (t - 0.5)))

        one = [find_sign_changes(lambda t: factors(np.full(t.size, i), t[:, None]),
                                 a[i], b[i], n_probe[i]) for i in range(a.size)]
        assert one[1] == [] and 0.5 in one[2] and 0.5 not in one[3]
        # At 7 nodes per call the probes and the bisection steps span several calls.
        monkeypatch.setattr(quad_mod, "_CHUNK_POINTS", 7)
        calls = []

        def counted(rows, t):
            calls.append(t.size)
            return factors(rows, t)

        root_win, roots, _ = find_sign_changes_many(counted, a, b, n_probe)
        assert max(calls) <= 7
        assert root_win.tolist() == [i for i, r in enumerate(one) for _ in r]
        assert roots.tolist() == [x for r in one for x in r]

    def test_brackets_end_where_no_double_lies_between(self):
        # Near t = 1e4 doubles are 1.8e-12 apart, more than the 1e-12 target.
        roots = find_sign_changes(lambda t: np.cos(50.0 * (t - 1e4)), 1e4, 1e4 + 1.0, 64)
        expected = [1e4 + (k + 0.5) * math.pi / 50.0 for k in range(16)]
        assert roots == pytest.approx(expected, abs=4e-12)

    def test_brackets_bisected_together(self):
        calls = []

        def f(t):
            calls.append(t.size)
            return np.cos(50.0 * t)

        roots = find_sign_changes(f, 0.0, 1.0, 64)
        expected = [(k + 0.5) * math.pi / 50.0 for k in range(16)]
        assert roots == pytest.approx(expected, abs=1e-11)
        assert len(calls) <= 41

    def test_probe_count_requirement(self):
        with pytest.raises(ValueError):
            find_sign_changes(np.cos, 0.0, 1.0, 1)

    @pytest.mark.filterwarnings("error")
    def test_root_near_the_largest_double(self):
        # lo + hi overflows to inf here; 0.5 * lo + 0.5 * hi does not.
        roots = find_sign_changes(lambda t: t / 1e308 - 1.5, 1e308, 1.7e308)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(1.5e308, rel=1e-12)


class TestCoarseThenFine:
    # Factors cos(w t) and t - 0.5 of windows with frequencies w; each factor's
    # curvature is bounded by w^2 and 0, and its values are exact to 1e-12.
    a, b = np.array([0.0, 0.5, 0.0, 0.2, 0.0]), np.array([1.0, 0.5, 1.0, 0.9, 3.0])
    freq = np.array([50.0, 50.0, 9.0, 300.0, 2.0])

    def factors(self, rows, t):
        return np.stack((np.cos(self.freq[rows, None] * t), t - 0.5))

    def bound(self, rows, t0, t1):
        curv = np.stack((self.freq[rows] ** 2, np.zeros(rows.size)))
        return np.stack((curv, np.full(curv.shape, 1e-12)))

    def test_same_roots_as_the_full_grid_from_fewer_probes(self):
        n_probe = [64, 64, 4, 2000, 300]
        calls = []

        def counted(rows, t):
            calls.append(t.size)
            return self.factors(rows, t)

        full = find_sign_changes_many(counted, self.a, self.b, n_probe)
        # Without a bound the coarse call and the fine call cover every probe:
        # 7 fine probes in each of the 8 + 1 + 250 + 38 coarse intervals, where
        # the last intervals of the 4- and 300-probe windows, 4 probes wide,
        # hold 3 and repeat their right end 4 times.
        full_probes = 65 + 5 + 2001 + 301
        assert calls[:2] == [9 + 2 + 251 + 39, 7 * (8 + 1 + 250 + 38)]
        assert sum(calls[:2]) == full_probes + 4 + 4
        for minimum in (quad_mod._CERTIFY_MIN, 0):
            calls.clear()
            with pytest.MonkeyPatch.context() as m:
                # Certifying at every size, as with many windows, and at the default.
                m.setattr(quad_mod, "_CERTIFY_MIN", minimum)
                coarse = find_sign_changes_many(counted, self.a, self.b, n_probe,
                                                bound=self.bound)
            for x, y in zip(full, coarse):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            # The coarse probes (ceil(n / 8) + 1 per window), then the uncertified fine ones.
            assert calls[0] == 9 + 2 + 251 + 39
            assert calls[0] + calls[1] < 0.5 * full_probes
        # An exact-zero fine probe (t - 0.5 at t = 0.5) is kept: its interval
        # holds a zero, so the bound cannot exclude it.
        assert 0.5 in coarse[1][coarse[0] == 4]

    def test_one_root_per_bracket_of_the_whole_grid(self):
        # Reference: each window's whole np.linspace grid in one call, its brackets
        # and its exact-zero probes taken factor by factor.  Factors cos(w t + phi)
        # and s (t - z), with z a fine probe (an exact zero there) or s = 0 (identically
        # zero); n_probe = 8m + 1 leaves a last coarse interval one probe wide.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        window = st.tuples(st.floats(0.0, 2.0), st.floats(0.01, 1.5),
                           st.integers(2, 40) | st.integers(1, 4).map(lambda m: 8 * m + 1),
                           st.floats(0.5, 60.0), st.floats(0.0, 2.0 * math.pi),
                           st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 1.0]))

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(windows=st.lists(window, min_size=1, max_size=4))
        def check(windows):
            a, width, n_probe, freq, phase, u, s = (np.array(x) for x in zip(*windows))
            b = a + width
            fine = [[i for i in range(1, n) if i % 8] for n in n_probe]
            z = np.array([np.linspace(lo, hi, n + 1)[f[int(x * len(f))]]
                          for lo, hi, n, f, x in zip(a, b, n_probe, fine, u)])

            def factors(rows, t):
                wave = np.cos(freq[rows, None] * t + phase[rows, None])
                line = s[rows, None] * (t - z[rows, None])
                return np.stack((wave, line))

            def bound(rows, t0, t1):
                curv = np.stack((freq[rows] ** 2, np.zeros(rows.size)))
                return np.stack((curv, np.full(curv.shape, 1e-12)))

            for i in range(a.size):
                grid = np.linspace(a[i], b[i], n_probe[i] + 1)
                items = []
                for k, v in enumerate(factors(np.array([i]), grid[None])[:, 0]):
                    if not np.any(v != 0.0):
                        continue
                    sign = np.sign(v)
                    items += [(grid[j], grid[j + 1], 1 << k)
                              for j in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]
                    items += [(t, t, 1 << k) for t in grid[1:-1][v[1:-1] == 0.0]]
                assert s[i] == 0.0 or (z[i], z[i], 2) in items
                items.sort()
                for with_bound, minimum in ((None, 0), (bound, quad_mod._CERTIFY_MIN), (bound, 0)):
                    with pytest.MonkeyPatch.context() as m:
                        m.setattr(quad_mod, "_CERTIFY_MIN", minimum)
                        root_win, roots, bits = find_sign_changes_many(factors, a, b, n_probe,
                                                                       with_bound)
                    got = zip(roots[root_win == i], bits[root_win == i])
                    assert np.sum(root_win == i) == len(items)
                    assert all(lo <= r <= hi and bit == k
                               for (r, bit), (lo, hi, k) in zip(got, items))

        check()

    @pytest.mark.parametrize("b", [1.0, 1e-322])
    def test_rows_hold_linspace_elements(self, b):
        # 67 probes: the coarse ones, then one row of 7 fine probes per coarse
        # interval, the last interval (64 to 66) holding probe 65 and its right
        # end 6 times.  At b = 1e-322 the step b / 66 underflows to 0.
        n = 66
        grid = np.linspace(0.0, b, n + 1)
        nodes = []

        def counted(rows, t):
            nodes.append(t.copy())
            return np.ones_like(t)

        assert find_sign_changes_many(counted, [0.0], [b], [n])[1].size == 0
        coarse, fine = nodes
        want = grid[np.minimum(np.arange(0, n, 8)[:, None] + np.arange(1, 8), n)]
        assert np.array_equal(coarse.ravel().view(np.uint64),
                              grid[np.append(np.arange(0, n, 8), n)].view(np.uint64))
        assert np.array_equal(fine.view(np.uint64), want.view(np.uint64))
        assert (b / n == 0.0) == (b < 1.0)

    def test_the_bound_is_trusted(self, monkeypatch):
        # Bounds of zero curvature and error certify every sign from the chords through
        # the coarse values: f is called on the coarse probes alone, each root of cos(50 t)
        # is where such a chord crosses zero, and the zero at 0.5 is a coarse probe.
        monkeypatch.setattr(quad_mod, "_CERTIFY_MIN", 0)
        calls = []

        def counted(rows, t):
            calls.append(t.size)
            return self.factors(rows, t)

        def exact(rows, t0, t1):
            return np.zeros((2, 2, rows.size))

        _, roots, bits = find_sign_changes_many(counted, [0.0], [1.0], [64], bound=exact)
        assert calls == [9]
        t = np.linspace(0.0, 1.0, 9)
        c = np.cos(50.0 * t)
        k = np.flatnonzero(np.sign(c[:-1]) * np.sign(c[1:]) < 0.0)
        chord = t[k] - c[k] * (t[k + 1] - t[k]) / (c[k + 1] - c[k])
        assert roots[bits == 1].tolist() == pytest.approx(chord.tolist(), abs=1e-11)
        assert roots[bits == 2].tolist() == [0.5]

    def test_large_window_is_probed_coarse_then_fine(self):
        # A window of 16,384 probes, with and without a bound: every 8th
        # and the last first, then the others, in calls of at most _CHUNK_POINTS nodes.
        n = 16383
        grid = np.linspace(0.0, 1.0, n + 1)
        # The 16 kinks of cos(50 t) in [0, 1] and the zero of t - 0.5.
        expected = sorted([(k + 0.5) * math.pi / 50.0 for k in range(16)] + [0.5])
        for bound in (None, self.bound):
            nodes = []

            def counted(rows, t):
                nodes.append(t.ravel().copy())
                return self.factors(rows, t)

            root_win, roots, bits = find_sign_changes_many(counted, [0.0], [1.0], [n],
                                                           bound=bound)
            assert np.array_equal(nodes[0], grid[np.append(np.arange(0, n, 8), n)])
            assert max(x.size for x in nodes) <= quad_mod._CHUNK_POINTS
            assert root_win.tolist() == [0] * 17
            assert roots.tolist() == pytest.approx(expected, abs=1e-11)
            assert bits.tolist() == [2 if r == 0.5 else 1 for r in roots.tolist()]


class TestEvaluate:
    @pytest.mark.parametrize("f, k", [(lambda rows, t: (t, t), 2), (lambda rows, t: t, 1)],
                             ids=["stacked", "unstacked"])
    def test_no_rows_call_f_once(self, f, k):
        # f is called once on the empty rows, and its values keep their dtype.
        calls = []

        def counted(rows, t):
            calls.append((rows.shape, t.shape))
            return f(rows, t.astype(np.float32))

        out = quad_mod.evaluate(counted, np.zeros(0, int), np.zeros((0, 2)))
        assert calls == [((0,), (0, 2))]
        assert out.shape == (k, 0, 2) and out.dtype == np.float32


class TestLinspaceElements:
    def test_elements_follow_one_formula(self):
        # Probe times formed segment by segment must equal np.linspace's elements
        # bit for bit: element i is i * step + a with step = (b - a) / n, or
        # (i / n) * (b - a) + a where step underflows to 0, and the last is b.
        rng = np.random.default_rng(7)

        def end():
            return (0.0, 10.0 ** rng.uniform(-323.5, -308.0), 10.0 ** rng.uniform(-300.0, 300.0),
                    rng.uniform(0.0, 100.0))[rng.integers(4)]

        def width():
            return (10.0 ** rng.uniform(-323.5, -308.0), 10.0 ** rng.uniform(-300.0, 307.0),
                    rng.uniform(0.0, 1.0))[rng.integers(3)]

        zero_steps = 0
        for _ in range(6000):
            a = end()
            b = a + width()
            n = int(rng.integers(1, 9000 if rng.integers(4) == 0 else 1000))
            i = np.arange(n + 1)
            step = (b - a) / n
            want = i * step + a if step else (i / n) * (b - a) + a
            want[-1] = b
            got = np.linspace(a, b, n + 1)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (a, b, n)
            zero_steps += step == 0
        # Both branches are drawn: subnormal widths over many probes give a zero step.
        assert 0 < zero_steps < 6000


class TestPanelSums:
    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_vecdot_is_the_per_row_dot(self, scale):
        # The panel sums take np.vecdot over the GL15 and GL7 columns of each
        # row; it sums each row as np.dot does, bit for bit.
        rng = np.random.default_rng(11)
        vals = scale * rng.standard_normal((20000, 22)) * rng.uniform(0.0, 2.0, (20000, 1))
        halves = ((slice(0, 15), quad_mod._WEIGHTS_HI), (slice(15, 22), quad_mod._WEIGHTS_LO))
        for cols, w in halves:
            got = np.vecdot(vals[:, cols], w)
            want = np.array([float(np.dot(w, v[cols])) for v in vals])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # Three panels [0, 1], [1, 2], [2, 3] of one window, valued 1, 1e-16 and
    # 1e-16.  Left to right, 1 + 1e-16 rounds to 1; a compensated sum (sum()
    # from Python 3.12) gives 1 + 2**-52.  Both per-window sums, the tolerance's
    # and the total's, must run left to right on every interpreter.
    VALUES = np.array([1.0, 1e-16, 1e-16])

    def test_tolerance_sums_left_to_right(self, monkeypatch):
        # The third panel's error fits its share of the compensated tolerance,
        # exact / 3, but not of the left-to-right one, 1 / 3: it is bisected.
        share = math.fsum(self.VALUES) * 1.0 / 3.0
        assert share > 1.0 / 3.0
        calls = []

        def panels(f, w, lo, hi):
            calls.append(lo.tolist())
            if len(calls) == 1:
                return self.VALUES, np.array([0.0, 0.0, share])
            return np.full(lo.size, 0.5), np.zeros(lo.size)

        monkeypatch.setattr(quad_mod, "_panels", panels)
        spec = QuadratureSpec(rel_tol=1.0, abs_tol=0.0)
        assert integrate_many(None, [0.0], [3.0], [0, 0], [1.0, 2.0], spec) == [(2.0, 0.0)]
        assert calls == [[0.0, 1.0, 2.0], [2.0, 2.5]]

    def test_window_total_sums_left_to_right(self, monkeypatch):
        # Errors of a quarter of each value: every panel is accepted, and the
        # error total too is 0.25 left to right and 0.25 + 2**-54 compensated.
        errs = self.VALUES / 4.0
        assert (math.fsum(self.VALUES), math.fsum(errs)) == (1.0 + 2.0**-52, 0.25 + 2.0**-54)
        monkeypatch.setattr(quad_mod, "_panels", lambda f, w, lo, hi: (self.VALUES, errs))
        spec = QuadratureSpec(rel_tol=1.0, abs_tol=0.0)
        assert integrate_many(None, [0.0], [3.0], [0, 0], [1.0, 2.0], spec) == [(1.0, 0.25)]
