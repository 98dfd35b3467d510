import cmath
import math
import re
import warnings

import numpy as np
import pytest

import qslkit.quad as quad_mod
from qslkit.model import (
    AMPLITUDE_SINGULAR_TOL,
    ModelParams,
    _MID,
    _SPLIT,
    _coefficients,
    _mid_form,
    _sinhc,
    _split_form,
    amplitude_bounds,
    amplitude_cells,
    amplitude_series,
    bound_rates,
    coefficient_table,
    decay_rate,
    excited_population,
    lamb_shift,
    markov_limit,
    memory_kernel,
    oracle_amplitude,
    population_rate,
    spectral_density,
)

from oracles import amplitude_cddot, on_resonance_decay_rate

LAM = 50.0
# lam of the resonant sweep of the trajectory benchmark at seed 1: gamma0 10 lam, tau_d
# 10 / lam, 200 windows starting from 0 to 100 / lam.
SEED1_LAM = 14.955877935285258


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(gamma0=-1.0, lam=LAM, delta=0.0)
        with pytest.raises(ValueError):
            ModelParams(gamma0=1.0, lam=0.0, delta=0.0)
        with pytest.raises(ValueError):
            ModelParams(gamma0=1.0, lam=LAM, delta=math.inf)

    @pytest.mark.parametrize("gamma0, delta", [(1e308, 0.0), (5.0, 1e200)])
    def test_non_finite_root_rejected(self, gamma0, delta):
        message = f"gamma0={gamma0}, lam=50.0 and delta={delta} give a complex root d that is not"
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelParams(gamma0, LAM, delta)


class TestSpectralDensity:
    def test_peak_value(self):
        p = ModelParams(5.0, LAM, 120.0, omega0=700.0)
        assert spectral_density(p, p.omega0 - p.delta) == pytest.approx(p.gamma0 / 2.0)

    def test_half_width_points(self):
        p = ModelParams(5.0, LAM, 120.0, omega0=700.0)
        center = p.omega0 - p.delta
        assert spectral_density(p, center + LAM) == pytest.approx(p.gamma0 / 4.0)
        assert spectral_density(p, center - LAM) == pytest.approx(p.gamma0 / 4.0)

    def test_direct_evaluation(self):
        # gamma0=5, lam=50, offset 50 from the center: (1/2)*5*2500/(2500+2500)
        p = ModelParams(5.0, LAM, 0.0)
        assert spectral_density(p, p.omega0 - p.delta + 50.0) == pytest.approx(1.25)


class TestMemoryKernel:
    def test_zero_lag(self):
        p = ModelParams(5.0, LAM, 120.0)
        assert memory_kernel(p, 0.0) == pytest.approx(p.gamma0 * LAM / 2.0)

    def test_on_resonance_real_decay(self):
        p = ModelParams(5.0, LAM, 0.0)
        value = memory_kernel(p, 1.0 / LAM)
        assert value.imag == 0.0
        assert value.real == pytest.approx(p.gamma0 * LAM / 2.0 * math.exp(-1.0))

    def test_phase_equals_detuning_times_lag(self):
        p = ModelParams(5.0, LAM, LAM)
        for tau in (0.003, 0.01, 0.02):
            phase = cmath.phase(memory_kernel(p, tau))
            assert phase % (2 * math.pi) == pytest.approx((LAM * tau) % (2 * math.pi), abs=1e-12)

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            memory_kernel(ModelParams(5.0, LAM, 0.0), -0.1)


class TestAmplitude:
    def test_initial_condition(self):
        assert amplitude_series(ModelParams(5.0, LAM, 0.0), 0.0) == (1.0 + 0.0j, 0.0j)

    def test_weak_coupling_real_monotone(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        t = np.linspace(0.0, 10.0 / LAM, 200)
        c, _ = amplitude_series(p, t)
        assert np.max(np.abs(c.imag)) < 1e-14
        assert np.all(np.diff(c.real) < 0.0)

    def test_branch_invariance(self):
        # The closed form is even in the root d, so both branches agree.
        for g0, delta in ((5.0, 0.0), (500.0, 300.0), (25.0, 0.0), (40.0, 70.0)):
            p = ModelParams(g0, LAM, delta)
            mu = 0.5 * (LAM - 1j * delta)
            for d in (p.complex_root, -p.complex_root):
                for t in (0.01, 0.1, 0.63):
                    if d == 0:
                        continue
                    x = d * t / 2.0
                    direct = cmath.exp(-mu * t) * (cmath.cosh(x) + 2 * mu / d * cmath.sinh(x))
                    assert amplitude_series(p, t)[0] == pytest.approx(direct, rel=1e-12)

    def test_critical_coupling_removable_root(self):
        # gamma0 = lam/2 on resonance makes d = 0 exactly.
        p = ModelParams(0.5 * LAM, LAM, 0.0)
        assert p.complex_root == 0.0
        c, _ = amplitude_series(p, 0.04)
        expected = math.exp(-0.5 * LAM * 0.04) * (1.0 + 0.5 * LAM * 0.04)
        assert c.real == pytest.approx(expected, rel=1e-12)

    def test_modulus_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = ModelParams(rng.uniform(0.5, 1000.0), LAM, rng.uniform(-500.0, 500.0))
            t = np.linspace(0.0, 1.0, 300)
            c, _ = amplitude_series(p, t)
            assert np.max(np.abs(c)) <= 1.0 + 1e-9

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            amplitude_series(ModelParams(5.0, LAM, 0.0), -1.0)

    def test_rejects_nan_time(self):
        # Rejected by name, in the check that rejects t < 0, and with no RuntimeWarning.
        p = ModelParams(5.0, LAM, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: amplitude_series(p, math.nan),
                         lambda: decay_rate(p, math.nan),
                         lambda: decay_rate(p, np.array([0.0, math.nan, 0.1]))):
                with pytest.raises(ValueError, match=r"requires t >= 0 and not NaN"):
                    call()

    def test_ode_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = ModelParams(rng.uniform(0.5, 1000.0), LAM, rng.uniform(-400.0, 400.0))
            t = np.linspace(0.0, 1.0, 500)
            c, cd = amplitude_series(p, t)
            cdd = amplitude_cddot(p, t)
            scale = 0.5 * p.gamma0 * p.lam
            res = np.abs(cdd + (p.lam - 1j * p.delta) * cd + scale * c) / scale
            assert np.max(res) < 1e-9

    @pytest.mark.parametrize("gamma0, delta", [(0.1 * LAM, 6.0 * LAM), (10.0 * LAM, 0.0),
                                               (0.1 * LAM, 0.8 * LAM)])
    @pytest.mark.parametrize("t", [np.linspace(0.0, 50.0 / LAM, 20001), 30.0 / LAM, 0.01 / LAM,
                                   np.linspace(30.0 / LAM, 50.0 / LAM, 1001),
                                   np.linspace(0.0, 50.0 / LAM, 20000),
                                   np.linspace(0.0, 1.0 / LAM, 101)])
    def test_split_form_selected_in_place_is_bit_identical(self, gamma0, delta, t):
        # A scalar t gives numpy scalars with the bits of the same node in an array call.
        p = ModelParams(gamma0, LAM, delta)
        t = np.asarray(t, dtype=float)
        for got, want in zip(amplitude_series(p, t), _both_forms(_coefficients(p), t.reshape(-1))):
            _assert_same_bits(got, want.reshape(t.shape)[()])

    def test_bit_identity_cases_cover_every_branch(self):
        def split(gamma0, delta, t):
            return np.abs(_coefficients(ModelParams(gamma0, LAM, delta)).half_d * t) > 25.0

        # Scalar times of each form, and 1-D calls with every node split or none.
        assert split(0.1 * LAM, 6.0 * LAM, 30.0 / LAM)
        assert not split(0.1 * LAM, 6.0 * LAM, 0.01 / LAM)
        assert not np.any(split(10.0 * LAM, 0.0, np.linspace(0.0, 1.0 / LAM, 101)))
        for gamma0, delta in ((0.1 * LAM, 6.0 * LAM), (10.0 * LAM, 0.0)):
            assert np.all(split(gamma0, delta, np.linspace(30.0 / LAM, 50.0 / LAM, 1001)))
            assert 0 < np.count_nonzero(split(gamma0, delta, np.linspace(0.0, 50.0 / LAM, 20001)))
        # The detuned calls of the chunk-size test hold both forms. The 40,000-node
        # one gives the cosh/sinhc form 16,384 nodes or more (256 KiB of complex
        # values), where numpy may evaluate a product into its temporary right
        # operand and so swap the operands of a complex multiply.
        for n, n_mid in ((20000, 15772), (40000, 31544)):
            big = split(0.1 * LAM, 0.8 * LAM, np.linspace(0.0, 50.0 / LAM, n))
            assert np.count_nonzero(big) and np.count_nonzero(~big) == n_mid

    def test_series_calls_hold_at_most_one_chunk(self, closed_form_calls):
        # 20,001 nodes of both forms, five chunks, each one row of a table call.
        decay_rate(ModelParams(500.0, 50.0, 0.0), np.linspace(0.0, 1.0, 20001))
        assert len(closed_form_calls) == 5
        assert all(len(s) == 2 and s[0] == 1 and s[1] <= quad_mod._CHUNK_POINTS
                   for s in closed_form_calls)

    def test_overflowing_times_warn_nothing(self):
        # d t / 2 overflows to inf at t = 1e308, which selects the split form.
        p = ModelParams(5.0, LAM, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c, cdot = amplitude_series(p, np.array([0.0, 1e308]))
            at_end = amplitude_series(p, 1e308)
        assert c.tolist() == [1.0, 0.0] and cdot[1] == 0.0 and at_end == (0.0, 0.0)

    def test_series_bits_do_not_depend_on_the_chunk_size(self, monkeypatch):
        # Chunks of 7 nodes and of the default size give the bits of one unchunked
        # call: a node's bits depend neither on its call's size nor on its other nodes.
        p = ModelParams(0.1 * LAM, LAM, 0.8 * LAM)
        default = quad_mod._CHUNK_POINTS
        for n in (20000, 40000):
            t = np.linspace(0.0, 50.0 / LAM, n)
            c, cdot = amplitude_cells(coefficient_table([p]), np.zeros(1, int), t[None])
            want = c[0], cdot[0]
            for chunk in (7, default):
                monkeypatch.setattr(quad_mod, "_CHUNK_POINTS", chunk)
                for got, w in zip(amplitude_series(p, t), want):
                    _assert_same_bits(got, w)

    @pytest.mark.parametrize("n", [50, 4000])
    @pytest.mark.parametrize("kept", [[0, 1, 2, 3, 4, 5], [0, 3], [1, 4], [2, 5], [1, 2, 3]])
    def test_cells_split_by_row_are_bit_identical(self, n, kept):
        # Rows with no split node, only split nodes, or both (t* = 8.2 and 11.5 / LAM).
        params = [ModelParams(0.1 * LAM, LAM, 6.0 * LAM), ModelParams(10.0 * LAM, LAM, 0.0)]
        windows = [(0, 0.0, 5.0), (0, 20.0, 30.0), (1, 5.0, 15.0), (1, 0.0, 5.0), (1, 20.0, 30.0),
                   (0, 5.0, 15.0)]
        rows = np.array([windows[i][0] for i in kept])
        t = np.array([np.linspace(lo, hi, n) / LAM for _, lo, hi in windows])[kept]
        # At n = 4000 a call holds up to 24,000 nodes, more than 16,384, and each row 4,000.
        table = coefficient_table(params)
        c, cdot = amplitude_cells(table, rows, t)
        for j, row in enumerate(rows.tolist()):
            want = _both_forms(_coefficients(params[row]), t[j])
            for got, w in zip((c[j], cdot[j]), want):
                _assert_same_bits(got, w)

    def test_one_node_rows_have_the_bits_of_seven_node_rows(self):
        # The probe pass evaluates coarse probes as an (m, 1) call and fine probes
        # as an (m, 7) call: a node's C and Cdot must have the same bits in both.
        # Cells from 1e-3 to 1e3 LAM, a fifth on resonance and one at critical
        # coupling; each row starts at 0.3 to 1.7 times its cell's switch time
        # 25 / |d / 2| and spans up to 0.6 of it, so rows hold either form or both.
        rng = np.random.default_rng(11)
        gamma0 = np.append(10.0 ** rng.uniform(-3.0, 3.0, 200), 0.5) * LAM
        delta = np.append(rng.uniform(0.0, 20.0, 200) * (rng.random(200) < 0.8), 0.0) * LAM
        table = coefficient_table([ModelParams(g, LAM, d) for g, d in zip(gamma0, delta)])
        rows = rng.integers(gamma0.size, size=3000)
        with np.errstate(divide="ignore"):
            switch = np.where(table[0] == 0, 1.0 / LAM, 25.0 / np.abs(table[0]))[rows]
        t = switch[:, None] * (rng.uniform(0.3, 1.7, (rows.size, 1))
                               + rng.uniform(0.0, 0.1, (rows.size, 1)) * np.arange(7))
        big = np.abs(table[0, rows, None] * t) > 25.0
        assert 0 < np.sum(big.all(axis=1)) and 0 < np.sum(~big.any(axis=1))
        assert 0 < np.sum(big.any(axis=1) & ~big.all(axis=1))
        seven = amplitude_cells(table, rows, t)
        one = amplitude_cells(table, np.repeat(rows, 7), t.reshape(-1, 1))
        for got, want in zip(one, seven):
            _assert_same_bits(got, want.reshape(-1, 1))

    def test_forms_agree_at_the_switch_within_their_rounding_bounds(self):
        # C and Cdot are continuous across |d t / 2| = 25, where the split form takes over.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(gamma0=st.floats(1e-3, 1e3), delta=st.floats(0.0, 20.0))
        # A subnormal d: rel overflows and e_sum underflows, once a NaN error bound.
        @hypothesis.example(gamma0=0.5, delta=5e-324)
        def check(gamma0, delta):
            p = ModelParams(gamma0 * LAM, LAM, delta * LAM)
            # At d = 0 every bound is inf and the split form does not exist.
            hypothesis.assume(p.complex_root != 0)
            k = _coefficients(p)
            t = np.asarray(50.0 / abs(p.complex_root))
            mid = _mid_form(k[_MID], t, k.half_d * t)
            split = _split_form(k[_SPLIT], t)
            rates = bound_rates(coefficient_table([p]))
            err = amplitude_bounds(rates, np.array([0]), t[None], t[None])[4:, 0]
            for a, b, e in zip(mid, split, err):
                assert abs(a - b) <= 2.0 * e

        check()


def _both_forms(k, t):
    """The closed form evaluating both forms on every node, as before each took its own nodes."""
    x = k.half_d * t
    big = np.abs(x) > 25.0
    with np.errstate(over="ignore", invalid="ignore"):
        env = np.exp(k.neg_mu * t)
        shc = _sinhc(x)
        inner = np.cosh(x) + k.mu * t * shc
        c_mid = env * inner
        cdot_mid = k.cdot_scale * t * shc * env
        e_plus = np.exp(k.s_plus * t)
        e_minus = np.exp(k.s_minus * t)
        c_big = k.a_plus * e_plus + k.a_minus * e_minus
        cdot_big = k.as_plus * e_plus + k.as_minus * e_minus
    if not np.any(big):
        return c_mid, cdot_mid
    return np.where(big, c_big, c_mid), np.where(big, cdot_big, cdot_mid)


def _assert_same_bits(got, want):
    # The type too: a scalar t gives numpy scalars, an array t arrays.
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(np.atleast_1d(got).view(np.uint64), np.atleast_1d(want).view(np.uint64))


def _exact(k, t):
    """C, Cdot, Pddot, P''' and P'' of the cosh/sinhc form at t, its scalars k taken as exact.

    Pddot and P''' are the first and second derivatives of Pdot's formula
    2 Re(conj(C) Cdot), P'' the second derivative of P = |C|^2; C's own derivative differs
    from Cdot by the table's rounding of cdot_scale.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        mu, h, scale, t = mp.mpc(k.mu), mp.mpc(k.half_d), mp.mpf(k.cdot_scale), mp.mpf(t)
        env = mp.exp(-mu * t)
        sh, ch = mp.sinh(h * t) / h, mp.cosh(h * t)
        c = env * (ch + mu * sh)
        c_prime = env * (h * h - mu * mu) * sh
        c_2prime = env * (h * h - mu * mu) * (ch - mu * sh)
        cdot = scale * env * sh
        cddot = scale * env * (ch - mu * sh)
        cdddot = scale * env * ((h * h + mu * mu) * sh - 2 * mu * ch)
        pddot = 2 * mp.re(mp.conj(c_prime) * cdot + mp.conj(c) * cddot)
        pdddot = 2 * mp.re(mp.conj(c_2prime) * cdot + 2 * mp.conj(c_prime) * cddot
                           + mp.conj(c) * cdddot)
        p2 = 2 * mp.re(mp.conj(c_prime) * c_prime + mp.conj(c) * c_2prime)
        return c, cdot, pddot, pdddot, p2


def _assert_bounds_hold(p, table, row, t0, t1, t):
    """amplitude_bounds of cell row over [t0, t1] bound the exact values at the times t there,
    and the errors of amplitude_series' C and Cdot.  The |Pddot| row bounds P'' too: it is
    the curvature of P - P_ref."""
    bound = amplitude_bounds(bound_rates(table), np.array([row]), np.array([t0]), np.array([t1]))
    sup, err = bound[:4, 0], bound[4:, 0]
    scalars = _coefficients(p)
    c, cdot = amplitude_series(p, t)
    for i, ti in enumerate(t.tolist()):
        *exact, p2 = _exact(scalars, ti)
        assert all(float(abs(x)) <= s for x, s in zip(exact, sup)), (ti, exact, sup)
        assert float(abs(p2)) <= sup[2], (ti, p2, sup)
        assert float(abs(c[i] - exact[0])) <= err[0]
        assert float(abs(cdot[i] - exact[1])) <= err[1]


class TestAmplitudeBounds:
    PARAMS = [
        ModelParams(g0, LAM, delta)
        for g0, delta in ((0.05, 0.0), (5.0, 0.0), (5.0, 1000.0), (0.05 * LAM, 20.0 * LAM),
                          (25.0 * (1 + 1e-9), 0.0), (25.0 * (1 - 1e-6), 0.0), (25.0, 1e-6),
                          (500.0, 0.0), (500.0, 300.0), (50000.0, 0.0), (50000.0, 1000.0))
    ]

    def test_table_cells_bit_identical_to_one_cell_calls(self):
        table = coefficient_table(self.PARAMS)
        # Fewer than 16,384 nodes in the call.
        t = np.linspace(0.0, 3.0, 1000)
        rows = np.arange(len(self.PARAMS))
        c, cdot = amplitude_cells(table, rows, np.broadcast_to(t, (rows.size, t.size)))
        for j, p in enumerate(self.PARAMS):
            for got, want in zip((c[j], cdot[j]), amplitude_series(p, t)):
                # Every bit, the sign of a zero included.
                _assert_same_bits(got, want)

    def test_bounds_hold_against_exact_values(self):
        # Sampled inside each interval, including both forms of the closed form.
        table = coefficient_table(self.PARAMS)
        rng = np.random.default_rng(5)
        for j, p in enumerate(self.PARAMS):
            for t0 in (0.0, 0.01, 0.3, 2.0):
                t1 = t0 + 10.0 ** rng.uniform(-3, 0)
                t = np.concatenate(([t0, t1], rng.uniform(t0, t1, 20)))
                _assert_bounds_hold(p, table, j, t0, t1, t)

    def test_p_bounds_hold_on_drawn_cells(self):
        # The P bounds where their rounding allowances matter: near critical coupling (a±
        # grow as 1/d), at couplings down to 1e-14 lam (the slow rate is below the
        # allowance), far detuned, and on windows out to t = 100 / lam.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        near_critical = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -3.0)).map(
            lambda x: 0.5 * (1.0 + x[0] * 10.0 ** x[1]))
        coupling = st.floats(-14.0, 3.0).map(lambda x: 10.0**x) | near_critical

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            gamma0=coupling,
            delta=st.floats(0.0, 200.0) | st.sampled_from([0.0, 1e-9]),
            start=st.floats(0.0, 100.0),
            width=st.floats(-4.0, 0.5).map(lambda x: 10.0**x),
            fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        )
        def check(gamma0, delta, start, width, fractions):
            p = ModelParams(gamma0 * LAM, LAM, delta * LAM)
            # At d = 0 every bound is inf.
            hypothesis.assume(p.complex_root != 0)
            t0 = start / LAM
            t1 = min(start + width, 100.0) / LAM
            hypothesis.assume(t1 > t0)
            t = np.concatenate(([t0, t1], t0 + (t1 - t0) * np.array(fractions)))
            _assert_bounds_hold(p, coefficient_table([p]), 0, t0, t1, np.minimum(t, t1))

        check()

    @pytest.mark.parametrize("lam, gamma0, delta, windows", [
        # Both sides of the switch |d t / 2| = 25 of each form, and windows across it.
        *((LAM, g, d, [(0.9 * s, s), (s, 1.1 * s), (0.98 * s, 1.02 * s)])
          for g, d in ((0.1 * LAM, 6.0 * LAM), (10.0 * LAM, 0.0), (20.0 * LAM, 4.0 * LAM))
          for s in [50.0 / abs(ModelParams(g, LAM, d).complex_root)]),
        # Near critical coupling, where a± grow as 1/d.
        *((LAM, 0.5 * LAM * (1.0 + e), d, [(0.0, 0.2), (1.0, 1.2), (1.8, 2.0)])
          for e in (1e-12, -1e-9, 1e-6, -1e-4) for d in (0.0, 1e-6 * LAM)),
        # The last three windows of the seed-1 resonant sweep.
        (SEED1_LAM, 10.0 * SEED1_LAM, 0.0,
         [(tau, tau + 10.0 / SEED1_LAM) for tau in np.linspace(0.0, 100.0 / SEED1_LAM, 200)[-3:]]),
    ])
    def test_bounds_hold_at_the_switch_near_critical_coupling_and_late(self, lam, gamma0, delta,
                                                                      windows):
        p = ModelParams(gamma0, lam, delta)
        table = coefficient_table([p])
        switch = 50.0 / abs(p.complex_root)
        rng = np.random.default_rng(29)
        for t0, t1 in windows:
            t = np.concatenate(([t0, t1], rng.uniform(t0, t1, 12)))
            if t0 < switch < t1:  # the nodes around the switch, either form
                t = np.concatenate((t, [np.nextafter(switch, 0.0), switch,
                                        np.nextafter(switch, math.inf)]))
            _assert_bounds_hold(p, table, 0, t0, t1, t)

    def test_critical_coupling_bounds_nothing(self):
        table = coefficient_table([ModelParams(0.5 * LAM, LAM, 0.0), ModelParams(5.0, LAM, 0.0)])
        bound = amplitude_bounds(bound_rates(table), np.array([0, 1]), np.zeros(2), np.full(2, 0.1))
        assert np.all(np.isinf(bound[:, 0])) and np.all(np.isfinite(bound[:, 1]))


class TestOracleAmplitude:
    def test_initial_grid_value(self):
        _, c = oracle_amplitude(ModelParams(5.0, LAM, 0.0), 0.1, 1e-3)
        assert c[0] == 1.0 + 0.0j

    def test_agrees_weak_coupling(self):
        p = ModelParams(5.0, LAM, 0.0)
        times, numeric = oracle_amplitude(p, 1.0, 2e-4)
        analytic, _ = amplitude_series(p, times)
        assert np.max(np.abs(numeric - analytic)) < 1e-6

    def test_agrees_strong_coupling_detuned(self):
        p = ModelParams(500.0, LAM, 300.0)
        times, numeric = oracle_amplitude(p, 1.0, 1e-4)
        analytic, _ = amplitude_series(p, times)
        assert np.max(np.abs(numeric - analytic)) < 1e-6

    def test_fourth_order_convergence(self):
        p = ModelParams(500.0, LAM, 300.0)
        errors = []
        for step in (8e-4, 4e-4, 2e-4):
            times, numeric = oracle_amplitude(p, 0.5, step)
            analytic, _ = amplitude_series(p, times)
            errors.append(np.max(np.abs(numeric - analytic)))
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.3)
        assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.3)

    def test_refuses_coarse_step(self):
        with pytest.raises(ValueError, match="step"):
            oracle_amplitude(ModelParams(5.0, LAM, 0.0), 1.0, 0.01)

    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError):
            oracle_amplitude(ModelParams(5.0, LAM, 0.0), 1e-5, 1e-3)


class TestPopulations:
    def test_initial_population(self):
        assert excited_population(ModelParams(5.0, LAM, 0.0), 0.0) == 1.0

    def test_strong_coupling_population_zeros(self):
        # On resonance at 10x critical coupling the population touches zero
        # where cos(|d0| t / 2) + (lam/|d0|) sin(|d0| t / 2) = 0.
        p = ModelParams(10.0 * LAM, LAM, 0.0)
        d0 = abs(p.complex_root)
        root = 2.0 / d0 * (math.pi - math.atan(d0 / LAM))
        assert excited_population(p, root) == pytest.approx(0.0, abs=1e-12)

    def test_long_time_decay(self):
        for g0, delta in ((5.0, 0.0), (500.0, 0.0), (5.0, 300.0)):
            p = ModelParams(g0, LAM, delta)
            # Horizon scaled by the exact asymptotic decay rate lam - Re d.
            horizon = max(50.0 / LAM, 60.0 / (LAM - p.complex_root.real))
            assert excited_population(p, horizon) < 1e-3

    def test_rate_zero_at_start(self):
        assert population_rate(ModelParams(5.0, LAM, 0.0), 0.0) == 0.0

    def test_rate_nonpositive_weak_on_resonance(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        t = np.linspace(0.0, 1.0, 500)
        assert np.all(np.asarray(population_rate(p, t)) <= 1e-14)

    def test_rate_matches_finite_difference(self):
        h = 1e-6 / LAM
        for g0, delta in ((5.0, 0.0), (500.0, 300.0)):
            p = ModelParams(g0, LAM, delta)
            for t in (0.01, 0.1, 0.5):
                fd = (excited_population(p, t + h) - excited_population(p, t - h)) / (2 * h)
                assert population_rate(p, t) == pytest.approx(fd, abs=1e-6)


class TestDecayRateAndLambShift:
    def test_zero_at_start(self):
        p = ModelParams(5.0, LAM, 120.0)
        assert decay_rate(p, 0.0) == 0.0
        assert lamb_shift(p, 0.0) == 0.0

    def test_on_resonance_identity(self):
        for g0 in (5.0, 25.0, 500.0):
            p = ModelParams(g0, LAM, 0.0)
            t = np.linspace(1e-3, 1.0, 300)
            c, _ = amplitude_series(p, t)
            mask = np.abs(c) > 1e-6
            got = np.asarray(decay_rate(p, t))[mask]
            want = np.asarray(on_resonance_decay_rate(p, t))[mask]
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    def test_singular_marker_at_amplitude_zero(self):
        p = ModelParams(10.0 * LAM, LAM, 0.0)
        d0 = abs(p.complex_root)
        root = 2.0 / d0 * (math.pi - math.atan(d0 / LAM))
        assert math.isnan(decay_rate(p, root))
        assert math.isnan(lamb_shift(p, root))

    def test_zeros_of_c_are_nan_and_warn_nothing(self):
        # Inside the mask |C| < AMPLITUDE_SINGULAR_TOL, C here is a root's rounding noise,
        # subnormal near t = 50 (Cdot / C overflows) and 0 at t = 1e308 (0 / 0).
        p = ModelParams(500.0, 50.0, 100.0)
        t = np.append(np.linspace(0.0, 50.0, 2001), 1e308)
        c, _ = amplitude_series(p, t)
        singular = np.abs(c) < AMPLITUDE_SINGULAR_TOL
        assert c[-1] == 0.0 and np.abs(c[singular]).min() < 1e-308 < np.abs(c[singular]).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rate in (decay_rate, lamb_shift):
                assert np.array_equal(np.isnan(rate(p, t)), singular)

    def test_lamb_shift_vanishes_on_resonance(self):
        p = ModelParams(5.0, LAM, 0.0)
        t = np.linspace(0.0, 1.0, 200)
        assert np.max(np.abs(np.asarray(lamb_shift(p, t)))) < 1e-12

    def test_lamb_shift_matches_phase_derivative(self):
        p = ModelParams(5.0, LAM, 300.0)
        h = 1e-7
        for t in (0.05, 0.2, 0.7):
            c_plus, _ = amplitude_series(p, t + h)
            c_minus, _ = amplitude_series(p, t - h)
            fd = (np.angle(complex(c_plus)) - np.angle(complex(c_minus))) / (2 * h)
            assert lamb_shift(p, t) == pytest.approx(-2.0 * fd, abs=1e-6)


class TestMarkovLimit:
    def test_on_resonance(self):
        assert markov_limit(ModelParams(5.0, LAM, 0.0)) == pytest.approx(5.0)

    def test_delta_equals_width(self):
        assert markov_limit(ModelParams(5.0, LAM, LAM)) == pytest.approx(2.5)

    def test_direct_evaluation(self):
        got = markov_limit(ModelParams(5.0, LAM, 300.0))
        assert got == pytest.approx(5.0 * 2500.0 / 92500.0, rel=1e-12)

    def test_long_time_rate_approaches_exact_asymptote(self):
        # The exact long-time rate is lam - Re d, which exceeds the lowest-order
        # Markovian value by O(gamma0/lam); compare against the exact asymptote.
        for g0, delta in ((5.0, 0.0), (5.0, 300.0)):
            p = ModelParams(g0, LAM, delta)
            asymptote = LAM - p.complex_root.real
            t = np.linspace(10.0 / LAM, 2.0, 300)
            rates = np.asarray(decay_rate(p, t))
            assert np.max(np.abs(rates - asymptote)) / asymptote < 0.01
