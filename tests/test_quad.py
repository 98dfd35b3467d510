import math

import numpy as np
import pytest

from qslkit.model import ModelParams, population_rate
from qslkit.quad import (
    QuadratureError,
    QuadratureSpec,
    find_sign_changes,
    integrate,
    probe_count_for_period,
)


class TestIntegrate:
    def test_constant(self):
        value, err = integrate(lambda t: np.ones_like(t), 0.0, 0.2)
        assert value == pytest.approx(0.2, abs=1e-12)

    def test_polynomial_exactness(self):
        value, _ = integrate(lambda t: t**2, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_abs_sine_with_breakpoints(self):
        k = math.pi / 50.0
        spec = QuadratureSpec(breakpoints=(k, 2 * k, 3 * k))
        value, err = integrate(lambda t: np.abs(np.sin(50.0 * t)), 0.0, 4 * k, spec)
        assert value == pytest.approx(4.0 * 2.0 / 50.0, rel=1e-9)

    def test_breakpoints_do_not_worsen_error(self):
        k = math.pi / 50.0
        f = lambda t: np.abs(np.sin(50.0 * t))
        _, err_plain = integrate(f, 0.0, 4 * k)
        _, err_bp = integrate(f, 0.0, 4 * k, QuadratureSpec(breakpoints=(k, 2 * k, 3 * k)))
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

    def test_max_depth_failure_carries_partial(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=0.0, max_depth=3)
        with pytest.raises(QuadratureError) as exc_info:
            integrate(lambda t: np.abs(np.sin(50.0 * t)), 0.0, 1.0, spec)
        assert math.isfinite(exc_info.value.value)
        assert exc_info.value.err_estimate > 0.0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_initial_panels_evaluated_once(self, k):
        # Gauss-Legendre 7 is exact for degree 13, so no panel is bisected and
        # each of the k+1 initial panels costs one 15-node and one 7-node call.
        calls = []

        def f(t):
            calls.append(t.size)
            return t**13 - 2.0 * t**5 + 1.0

        spec = QuadratureSpec(breakpoints=tuple(np.linspace(0.0, 1.0, k + 2)[1:-1]))
        value, _ = integrate(f, 0.0, 1.0, spec)
        assert value == pytest.approx(1.0 / 14.0 - 1.0 / 3.0 + 1.0, rel=1e-13)
        assert len(calls) == 2 * (k + 1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(breakpoints=(0.2, 0.1))


def _bisect_each_bracket(f, a, b, n_probe):
    """Reference: the one-bracket-at-a-time bisection with single-point calls."""
    grid = np.linspace(a, b, n_probe + 1)
    vals = f(grid)
    target = 1e-12 * (b - a)
    roots = []
    for i in range(n_probe):
        v1, v2 = vals[i], vals[i + 1]
        if v1 == 0.0:
            roots.append(float(grid[i]))
            continue
        if v1 * v2 >= 0.0:
            continue
        lo, hi, flo = float(grid[i]), float(grid[i + 1]), float(v1)
        while hi - lo > target:
            mid = 0.5 * (lo + hi)
            fmid = float(f(np.asarray([mid]))[0])
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
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
            # flo * fmid underflows to 0 near the roots, so which flo is kept matters.
            (lambda t: 1e-160 * np.cos(50.0 * t), 0.0, 1.0, 64),
            # An exact-zero probe at t = 1.5, and exact-zero midpoints on the plateaus.
            (lambda t: (t - 1.5) * np.round(np.sin(7.0 * t), 2), 0.0, 3.0, 40),
            (lambda t: population_rate(ModelParams(500.0, 50.0, 0.0), t), 0.0, 0.2, 300),
            (lambda t: population_rate(ModelParams(500.0, 50.0, 300.0), t), 0.05, 0.25, 400),
        ],
    )
    def test_matches_one_bracket_at_a_time_bisection(self, f, a, b, n_probe):
        # Bisecting all brackets as arrays does the same arithmetic per bracket.
        assert find_sign_changes(f, a, b, n_probe) == _bisect_each_bracket(f, a, b, n_probe)

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
