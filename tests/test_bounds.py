import functools
import math
import pickle
import re

import numpy as np
import pytest

import qslkit.quad as quad_mod
from qslkit.bounds import (
    SPEED_UP_TOL,
    _Cells,
    _PDOT,
    bures_comparator,
    excited_ratios_many,
    qsl_ratio,
    qsl_ratio_evolved,
    qsl_ratio_evolved_many,
    qsl_ratio_many,
)
from qslkit.model import (
    ModelParams,
    amplitude_series,
    excited_population,
    population_rate,
)
from qslkit.quad import (
    QuadratureError,
    QuadratureSpec,
    find_sign_changes,
    integrate,
    probe_count_for_period,
)
from qslkit.scan import default_delta_axis, default_gamma0_axis
from qslkit.smatrix import DensityMatrix2

from oracles import evolve, liouvillian, schatten_norm

LAM = 50.0
EXCITED = DensityMatrix2.excited()
NAN, INF = math.nan, math.inf

# (start, tau_d, message) of invalid windows [start, start + tau_d]; {name} is
# the start's input name.  The checks run in one order: tau_d finite, start
# finite, tau_d positive, start nonnegative, and the window has width.
INVALID_WINDOWS = [
    (0.2, NAN, "tau_d must be finite, got nan"),
    (0.2, INF, "tau_d must be finite, got inf"),
    (-1.0, -INF, "tau_d must be finite, got -inf"),
    (NAN, NAN, "tau_d must be finite, got nan"),
    (INF, -INF, "tau_d must be finite, got -inf"),
    (NAN, 0.2, "{name} must be finite, got nan"),
    (INF, 0.2, "{name} must be finite, got inf"),
    (-INF, 0.0, "{name} must be finite, got -inf"),
    (NAN, -1.0, "{name} must be finite, got nan"),
    (0.2, 0.0, "tau_d must be positive"),
    (0.0, -1.0, "tau_d must be positive"),
    (-1.0, 0.0, "tau_d must be positive"),
    (-1.0, 0.2, "{name} must be nonnegative"),
    (1e17, 0.2, "{name}=1e+17 and tau_d=0.2 give a window with no width"),
    (1e300, 0.2, "{name}=1e+300 and tau_d=0.2 give a window with no width"),
    (0.2, 1e-17, "{name}=0.2 and tau_d=1e-17 give a window with no width"),
]


class TestLambdaIntegrals:
    def test_three_versions_coincide_for_excited_state(self):
        # The generator is Hermitian and traceless, so its singular values are
        # equal and the prefactors make the three averages identical.
        p = ModelParams(500.0, LAM, 0.0)
        r = qsl_ratio(p, EXCITED, 0.2)
        assert r.lambda1 == r.lambda2 == r.lambda_inf
        assert r.lambda1 > 0.0

    def test_stationary_ground_state(self):
        p = ModelParams(5.0, LAM, 0.0)
        r = qsl_ratio(p, DensityMatrix2.ground(), 0.2)
        assert (r.lambda1, r.lambda2, r.lambda_inf) == (0.0, 0.0, 0.0)

    def test_closed_form_reduction_diagonal(self):
        # For the excited trajectory the trace-norm integral reduces to
        # (4 / tau_d) * int (1 - P_t) |Pdot_t| dt.
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        tau_d = 0.2
        l1 = qsl_ratio(p, EXCITED, tau_d).lambda1

        def integrand(t):
            pop = excited_population(p, t)
            return (1.0 - pop) * np.abs(population_rate(p, t))

        direct, _ = integrate(integrand, 0.0, tau_d)
        assert l1 == pytest.approx(4.0 * direct / tau_d, rel=1e-10)

    def test_integrand_matches_generic_norm_path(self):
        # The vectorized closed-form integrand must agree with the generic
        # matrix-norm route through evolve/liouvillian at sampled times.
        rho0 = DensityMatrix2([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        p = ModelParams(500.0, LAM, 300.0)
        tau_start = 0.05
        ref = evolve(p, rho0, tau_start).matrix
        for t in (0.06, 0.1, 0.2):
            disp = schatten_norm(evolve(p, rho0, t).matrix - ref, 1)
            gen = schatten_norm(liouvillian(p, rho0, t), math.inf)
            c, cdot = amplitude_series(p, np.asarray([t]))
            disp_pop = rho0.excited_population * abs(c[0]) ** 2 - rho0.excited_population * abs(
                amplitude_series(p, tau_start)[0]
            ) ** 2
            coh0 = rho0.coherence
            disp_coh = coh0 * c[0] - coh0 * complex(amplitude_series(p, tau_start)[0])
            pdot = rho0.excited_population * 2.0 * (np.conj(c[0]) * cdot[0]).real
            closed_disp = 2.0 * math.sqrt(abs(disp_pop) ** 2 + abs(disp_coh) ** 2)
            closed_gen = math.sqrt(pdot**2 + abs(coh0 * cdot[0]) ** 2)
            # The quadratic-formula singular values split degenerate pairs only
            # to sqrt(eps) relative accuracy, hence the 1e-7 tolerance here.
            assert closed_disp == pytest.approx(disp, rel=1e-7, abs=1e-12)
            assert closed_gen == pytest.approx(gen, rel=1e-7, abs=1e-12)

    def test_invalid_window(self):
        p = ModelParams(5.0, LAM, 0.0)
        with pytest.raises(ValueError):
            qsl_ratio(p, EXCITED, 0.0, 0.0)
        with pytest.raises(ValueError):
            qsl_ratio(p, EXCITED, 0.2, -0.1)


class TestWindowValidation:
    P = ModelParams(5.0, LAM, 0.0)

    @pytest.mark.parametrize("start, tau_d, message", INVALID_WINDOWS)
    def test_trace_path(self, start, tau_d, message):
        message = message.format(name="tau_start")
        with pytest.raises(ValueError) as info:
            qsl_ratio(self.P, EXCITED, tau_d, start)
        assert str(info.value) == message
        # Every cell of a many-cell call shares the window, which fails the call.
        with pytest.raises(ValueError) as info:
            qsl_ratio_many([self.P, self.P], EXCITED, tau_d, start)
        assert str(info.value) == message

    @pytest.mark.parametrize("start, tau_d, message", INVALID_WINDOWS)
    def test_evolved_path(self, start, tau_d, message):
        message = message.format(name="tau")
        with pytest.raises(ValueError) as info:
            qsl_ratio_evolved(self.P, start, tau_d)
        assert str(info.value) == message
        # The first invalid window in cell order fails the call: the one at
        # tau = 0 if its one-cell call raises, else the one at start.
        try:
            qsl_ratio_evolved(self.P, 0.0, tau_d)
        except ValueError as exc:
            message = str(exc)
        with pytest.raises(ValueError) as info:
            qsl_ratio_evolved_many([self.P, self.P], [0.0, start], tau_d)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "tau_d, message", [(t, m) for _, t, m in INVALID_WINDOWS if m.startswith("tau_d")]
    )
    def test_bures_path(self, tau_d, message):
        # The Bures window starts at 0, so only tau_d can make it invalid.
        with pytest.raises(ValueError) as info:
            bures_comparator(self.P, tau_d)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            excited_ratios_many([self.P, self.P], tau_d)
        assert str(info.value) == message


class TestQslRatio:
    def test_weak_coupling_plateau(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        report = qsl_ratio(p, EXCITED, 0.2)
        assert abs(report.ratio - 1.0) < 1e-6
        assert not report.stationary
        assert report.tau_qsl == pytest.approx(report.ratio * 0.2)

    def test_strong_coupling_speed_up_golden(self):
        # No published numeric value exists; frozen after the closed form
        # passed the memory-kernel oracle and the on-resonance rate identity.
        p = ModelParams(10.0 * LAM, LAM, 0.0)
        report = qsl_ratio(p, EXCITED, 0.2)
        assert report.ratio == pytest.approx(0.47146600298396024, abs=1e-9)

    def test_ground_state_stationary_flag(self):
        p = ModelParams(5.0, LAM, 0.0)
        report = qsl_ratio(p, DensityMatrix2.ground(), 0.2)
        assert report.stationary
        assert report.ratio == 1.0
        assert report.lambda1 == 0.0

    def test_ratio_bounded_random_parameters(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = ModelParams(rng.uniform(0.5, 1000.0), LAM, rng.uniform(-400.0, 400.0))
            report = qsl_ratio(p, EXCITED, rng.uniform(0.05, 0.5))
            assert 0.0 < report.ratio <= 1.0 + 1e-9

    def test_mixed_initial_state_with_coherence(self):
        rho0 = DensityMatrix2([[0.4, 0.25 + 0.2j], [0.25 - 0.2j, 0.6]])
        p = ModelParams(500.0, LAM, 300.0)
        report = qsl_ratio(p, rho0, 0.2)
        assert 0.0 < report.ratio <= 1.0 + 1e-9

    @pytest.mark.parametrize("scale", [1.0, 0.4])
    def test_displacement_vanishes_at_each_window_start(self, scale):
        # P_ref, P_end and P - P_ref at every node share one P formula, so
        # P - P_ref is exactly 0 at a window's start node and p_end - p_ref at
        # its end, whichever call holds the node.
        rng = np.random.default_rng(31)
        n = 3000
        params = [ModelParams(g * LAM, LAM, d * LAM)
                  for g, d in zip(10.0 ** rng.uniform(-2, 1.5, n), rng.uniform(0.5, 10.0, n))]
        starts = (10.0 ** rng.uniform(-3, 1, n) / LAM).tolist()
        cells = _Cells(params, starts, 0.2, "tau", scale=scale)
        t = np.linspace(cells.a, cells.b, 9, axis=1)
        disp = quad_mod.evaluate(lambda rows, x: cells.terms(rows, x)[2], np.arange(n), t)[1]
        assert np.all(disp[:, 0] == 0.0)
        assert np.array_equal(disp[:, -1], cells.p_ends[:, 1] - cells.p_ends[:, 0])

    def test_scaling_covariance(self):
        # Scaling all rates by s and times by 1/s leaves every ratio unchanged.
        s = 3.7
        p = ModelParams(500.0, LAM, 300.0)
        ps = ModelParams(500.0 * s, LAM * s, 300.0 * s)
        r = qsl_ratio(p, EXCITED, 0.2).ratio
        rs = qsl_ratio(ps, EXCITED, 0.2 / s).ratio
        assert r == pytest.approx(rs, abs=1e-9)
        e = qsl_ratio_evolved(p, 0.03, 0.2)
        es = qsl_ratio_evolved(ps, 0.03 / s, 0.2 / s)
        assert e == pytest.approx(es, abs=1e-9)

    @pytest.mark.parametrize("tau_d", [0.1, pytest.param(1e-5, marks=pytest.mark.xfail(
        strict=True, reason="FOUND in CHANGES.md: qsl_ratio cancels in 1 - d_measure"))])
    def test_excited_ratio_is_the_evolved_ratio(self, tau_d):
        # From the excited state the two ratios are one quantity.  qsl_ratio_many
        # forms d_measure = 1 - |disp|^2 / 4 and then 1 - d_measure, which loses
        # the digits of |disp|^2 as the window shrinks: at tau_d = 1e-5 it gives
        # 0.7108 against 1.0000000127, and 0 from tau_d = 1e-6 down.
        p = ModelParams(5.0, LAM, 0.0)
        ratio = qsl_ratio(p, EXCITED, tau_d).ratio
        assert ratio == pytest.approx(qsl_ratio_evolved(p, 0.0, tau_d), abs=1e-9)


class TestQslRatioEvolved:
    def test_cells_are_keyed_by_the_bits_of_their_model_point(self):
        # delta 0.0 and -0.0 are equal ModelParams whose complex roots have opposite signs:
        # each cell gets its own point's coefficients, and the bits of its one-cell result.
        params = [ModelParams(500.0, LAM, delta) for delta in (0.0, -0.0, 0.0)]
        assert params[0] == params[1] and params[0].complex_root == -params[1].complex_root
        taus = [0.0, 0.3, 0.3]
        cells = _Cells(params, taus, 0.2, "tau")
        for j, p in enumerate(params):
            alone = _Cells([p], [taus[j]], 0.2, "tau")
            assert cells.table[:, j].tobytes() == alone.table[:, 0].tobytes()
        many = qsl_ratio_evolved_many(params, taus, 0.2)
        for p, tau, r in zip(params, taus, many):
            assert r.hex() == qsl_ratio_evolved(p, tau, 0.2).hex()

    def test_monotone_window_gives_one(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        for tau in (0.0, 0.5, 1.3):
            assert qsl_ratio_evolved(p, tau, 0.2) == pytest.approx(1.0, abs=1e-9)

    def test_weak_coupling_constant_one(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        for tau in np.linspace(0.0, 2.0, 21):
            assert qsl_ratio_evolved(p, float(tau), 0.2) == pytest.approx(1.0, abs=1e-6)

    def test_strong_coupling_oscillates_below_one(self):
        p = ModelParams(10.0 * LAM, LAM, 0.0)
        taus = np.linspace(0.0, 0.15, 151)
        values = np.array([qsl_ratio_evolved(p, float(t), 0.2) for t in taus])
        assert np.min(values) < 1.0 - 1e-6
        minima = [
            i for i in range(1, len(values) - 1) if values[i] < values[i - 1] and values[i] < values[i + 1]
        ]
        spacing = np.diff(taus[minima])
        period = 2.0 * math.pi / abs(p.complex_root)
        assert np.mean(spacing) == pytest.approx(period, rel=0.05)

    def test_agrees_with_general_path(self):
        for g0, delta, tau in ((500.0, 0.0, 0.01), (5.0, 300.0, 0.0), (500.0, 300.0, 0.04)):
            p = ModelParams(g0, LAM, delta)
            general = qsl_ratio(p, EXCITED, 0.2, tau_start=tau).ratio
            closed = qsl_ratio_evolved(p, tau, 0.2)
            assert closed == pytest.approx(general, abs=1e-8)

    def test_one_amplitude_call_per_node_set(self, closed_form_calls):
        # Both factors share one closed-form call per probe pass and per
        # bisection step, and the integrand one per round of panels.
        ratio = qsl_ratio_evolved(ModelParams(500.0, LAM, 0.0), 0.0, 0.2)
        assert ratio < 1.0 - 1e-6
        assert len(closed_form_calls) <= 60

    @pytest.mark.parametrize("gamma0, delta, flow_backs", [
        (5.0, 0.0, 0), (5.0, 300.0, 2), (250.0, 100.0, 4),
        pytest.param(500.0, 0.0, 200, marks=pytest.mark.xfail(strict=True, reason=(
            "absolute-threshold FOUND: 130 windows with a kink fall under the 1e-30 "
            "stationary cut and get ratio exactly 1"))),
        pytest.param(1000.0, 200.0, 9, marks=pytest.mark.xfail(strict=True, reason=(
            "abs_tol-floor FOUND: 6 windows with no kink are speed_up, ratios up to "
            "1.0000477"))),
    ])
    def test_evolved_speeds_up_where_pdot_changes_sign(self, gamma0, delta, flow_backs):
        # The paper's mechanism on the evolved path: over 200 windows of a sweep,
        # the ratio is below 1 - SPEED_UP_TOL exactly where Pdot changes sign in the
        # window, read on a uniform grid 16 times finer than the engine's probes,
        # skipping the window's start.
        p = ModelParams(gamma0, LAM, delta)
        taus = np.linspace(0.0, 2.0, 200).tolist()
        ratios = qsl_ratio_evolved_many([p] * len(taus), taus, 0.2)
        mismatches, kinks = [], 0
        for tau, ratio in zip(taus, ratios):
            n = 16 * probe_count_for_period(p.complex_root.imag, tau, tau + 0.2)
            sign = np.sign(population_rate(p, np.linspace(tau, tau + 0.2, n + 1)[1:]))
            flow_back = bool(np.any(sign[1:] * sign[:-1] < 0.0))
            kinks += flow_back
            if (ratio < 1.0 - SPEED_UP_TOL) != flow_back:
                mismatches.append((tau, ratio))
        assert mismatches == []
        assert kinks == flow_backs

    def test_invalid_inputs(self):
        p = ModelParams(5.0, LAM, 0.0)
        with pytest.raises(ValueError):
            qsl_ratio_evolved(p, -0.1, 0.2)
        with pytest.raises(ValueError):
            qsl_ratio_evolved(p, 0.1, 0.0)


class TestBuresComparator:
    def test_short_window_limit(self):
        p = ModelParams(5.0, LAM, 0.0)
        assert bures_comparator(p, 1e-5) == pytest.approx(1.0, abs=1e-3)

    def test_weak_coupling_plateau(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        assert bures_comparator(p, 0.2) == pytest.approx(1.0, abs=1e-9)

    def test_speed_up_onsets_coincide_on_resonance(self):
        gamma0s = np.geomspace(0.02 * LAM, 20.0 * LAM, 25)
        trace_flags = []
        bures_flags = []
        for g0 in gamma0s:
            p = ModelParams(float(g0), LAM, 0.0)
            trace_flags.append(qsl_ratio(p, EXCITED, 0.2).ratio < 1.0 - 1e-6)
            bures_flags.append(bures_comparator(p, 0.2) < 1.0 - 1e-6)
        assert trace_flags.index(True) == bures_flags.index(True)

    def test_detuned_sweep_bounds_cross(self):
        # Off resonance the two bounds trade places: the trace-distance bound
        # is the tighter one (larger ratio) up to moderate coupling, while in
        # the deep strong-coupling regime the Bures bound overtakes it.
        for g0 in np.geomspace(0.02 * LAM, 6.0 * LAM, 9):
            p = ModelParams(float(g0), LAM, 4.0 * LAM)
            trace = qsl_ratio(p, EXCITED, 0.2).ratio
            bures = bures_comparator(p, 0.2)
            assert trace >= bures - 1e-9
        for g0 in (13.0 * LAM, 20.0 * LAM):
            p = ModelParams(float(g0), LAM, 4.0 * LAM)
            trace = qsl_ratio(p, EXCITED, 0.2).ratio
            bures = bures_comparator(p, 0.2)
            assert trace <= bures + 1e-9
            assert trace < 1.0 - 1e-6 and bures < 1.0 - 1e-6


class TestBreakpointMachinery:
    def test_probe_count_scales_with_oscillation(self):
        p = ModelParams(500.0, LAM, 0.0)
        n = probe_count_for_period(p.complex_root.imag, 0.0, 0.2)
        periods = abs(p.complex_root.imag) * 0.2 / (2.0 * math.pi)
        assert n >= 64 * periods

    def test_population_breakpoints_found_in_window(self):
        p = ModelParams(500.0, LAM, 0.0)
        n = probe_count_for_period(p.complex_root.imag, 0.0, 0.2)
        roots = find_sign_changes(lambda t: population_rate(p, t), 0.0, 0.2, n)
        assert len(roots) >= 6


def _kink_cells(params, start, tau_d, path):
    """The cell set one estimator path builds: its scale."""
    if path == "evolved":
        return _Cells(params, [start] * len(params), tau_d, "tau")
    # The trace path, which the Bures path shares from the excited state; ree0 is the
    # initial excited population (coherence does not enter).
    ree0 = {"excited": 1.0, "ground": 0.0, "coherent": 0.4}[path]
    return _Cells(params, [start] * len(params), tau_d, "tau_start", scale=ree0)


def _kink_roots(cells, bound, factors=slice(None)):
    """The (window, root, bits) of the sign changes of cells' factors, all or some."""
    def f(rows, t):
        return cells.terms(rows, t)[2][factors]

    return quad_mod.find_sign_changes_many(f, cells.a, cells.b, cells.n_probe, bound=bound)


class TestCertifiedProbing:
    """The certified kink search (_Cells.kinks, bound = kink_bounds) against the full grid."""

    def test_roots_are_the_full_grid_roots_bit_for_bit(self):
        # The roots the two-factor search tags as Pdot's are also, bit for bit, those
        # of a full-grid search of Pdot alone: the Bures integral's breakpoints.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        near_critical = st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-3]).map(
            lambda e: 0.5 * (1.0 + e))
        coupling = st.floats(1e-3, 1e3) | near_critical
        detuning = st.floats(0.0, 20.0) | st.sampled_from([0.0, 1e-9])

        @hypothesis.settings(max_examples=150, deadline=None)
        # A window of 20,372 probes, five chunks of quad._CHUNK_POINTS.
        @hypothesis.example(cells=[(0.1, 200.0)], start=0.0, tau_d=10.0, path="excited")
        # A window of the detuned sweep-tau request of the trajectory benchmark.
        @hypothesis.example(cells=[(20.0, 4.0)], start=50.0, tau_d=10.0, path="evolved")
        # gamma0 1e-14 and delta 200 at lam 50, tau_d 0.2: P - P_ref has noise roots.
        @hypothesis.example(cells=[(2e-16, 4.0)], start=0.0, tau_d=10.0, path="excited")
        @hypothesis.given(
            cells=st.lists(st.tuples(coupling, detuning), min_size=1, max_size=4),
            start=st.floats(0.0, 100.0) | st.just(0.0),
            tau_d=st.floats(0.05, 20.0),
            path=st.sampled_from(["excited", "ground", "coherent", "evolved"]),
        )
        def check(cells, start, tau_d, path):
            params = [ModelParams(g * LAM, LAM, d * LAM) for g, d in cells]
            kink_cells = _kink_cells(params, start / LAM, tau_d / LAM, path)
            full = _kink_roots(kink_cells, None)
            fast = kink_cells.kinks
            for x, y in zip(full, fast):
                assert x.tobytes() == y.tobytes()
            pdot = _kink_roots(kink_cells, None, factors=slice(0, 1))
            tagged = (fast[2] & _PDOT) != 0
            assert np.array_equal(pdot[0], fast[0][tagged])
            assert pdot[1].tobytes() == fast[1][tagged].tobytes()

        check()

    def test_every_certified_sign_is_the_computed_sign(self, monkeypatch):
        # With certifying at every size, each sign the search proves without calling the
        # closed form (every fine probe of a cleared interval, and each fine probe and
        # midpoint the chord certifies) is the sign of the factor computed there, and the
        # roots are bit for bit those of the search with no bound.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        monkeypatch.setattr(quad_mod, "_CERTIFY_MIN", 0)
        cleared, chords = [], []
        real_cleared, real_chord = quad_mod._cleared, quad_mod._chord_signs

        def record_cleared(*args):
            cleared.append((*args[:3], real_cleared(*args)))
            return cleared[-1][-1]

        def record_chord(*args):
            chords.append((args[0], args[1], args[-1], real_chord(*args)))
            return chords[-1][-1]

        monkeypatch.setattr(quad_mod, "_cleared", record_cleared)
        monkeypatch.setattr(quad_mod, "_chord_signs", record_chord)
        near_critical = st.sampled_from([0.0, 1e-15, -1e-9, 1e-6, -1e-4, 1e-4]).map(
            lambda e: 0.5 * (1.0 + e))

        @hypothesis.settings(max_examples=60, deadline=None)
        # Critical coupling, where the bounds are inf, and 1e-4 from it.
        @hypothesis.example(gamma0=0.5, delta=0.0, tau_d=10.0, start=0.0)
        @hypothesis.example(gamma0=0.50005, delta=0.0, tau_d=10.0, start=0.0)
        # gamma0 1e-14 and delta 200 at lam 50, tau_d 0.2: P - P_ref has noise roots.
        @hypothesis.example(gamma0=2e-16, delta=4.0, tau_d=10.0, start=0.0)
        # The last window of the seed-1 resonant sweep of the trajectory benchmark.
        @hypothesis.example(gamma0=10.0, delta=0.0, tau_d=10.0, start=100.0)
        # gamma0 118 and delta 75 at lam 50, tau_d 0.2: Pdot's roots at t = 0.037 and 0.040.
        @hypothesis.example(gamma0=2.36, delta=1.5, tau_d=10.0, start=0.0)
        @hypothesis.given(
            gamma0=st.floats(1e-3, 1e3) | near_critical,
            delta=st.floats(0.0, 20.0) | st.sampled_from([0.0, 1e-9]),
            tau_d=st.floats(0.05, 20.0),
            start=st.floats(0.0, 100.0) | st.just(0.0),
        )
        def check(gamma0, delta, tau_d, start):
            cleared.clear()
            chords.clear()
            cells = _Cells([ModelParams(gamma0 * LAM, LAM, delta * LAM)], [start / LAM],
                           tau_d / LAM, "tau")

            def factors(t):
                return quad_mod.evaluate(lambda rows, x: cells.terms(rows, x)[2],
                                         np.zeros(t.size, dtype=int), t.reshape(-1, 1))[:, :, 0]

            n = cells.n_probe[0]
            grid = np.linspace(cells.a[0], cells.b[0], n + 1)
            values = factors(grid)
            for t0, t1, fa, clear in cleared:
                for k, q in zip(*np.nonzero(clear)):
                    inside = values[k, (t0[q] < grid) & (grid < t1[q])]
                    assert np.all(np.sign(inside) == np.sign(fa[k, q]))
            for xa, fa, x, sign in chords:
                if fa.ndim == 3:
                    # Fine probes: sign is (factors, rows, fine probes).
                    got = factors(x.ravel()).reshape((-1, *x.shape))
                    assert np.all((sign == 0.0) | (sign == np.sign(got)))
                else:
                    # Midpoints: each bracket's factor is the one whose value at its anchor
                    # xa is fa.
                    at_x, at_xa = factors(x), factors(xa)
                    mine = at_xa == fa
                    assert np.all(mine.any(axis=0))
                    agree = (sign == 0.0) | np.all(~mine | (np.sign(at_x) == sign), axis=0)
                    assert np.all(agree)
            for x, y in zip(_kink_roots(cells, None), cells.kinks):
                assert x.tobytes() == y.tobytes()

        check()

    def test_each_integral_splits_at_the_roots_of_its_factors(self, monkeypatch):
        # At gamma0 1e-14 and delta 200, P - P_ref has noise roots: the trace integral
        # splits at every root of the one search, the Bures integral at Pdot's alone.
        breakpoints = []
        real = quad_mod.integrate_many

        def recorded(f, a, b, bp_win, bp, spec):
            breakpoints.append(bp)
            return real(f, a, b, bp_win, bp, spec)

        monkeypatch.setattr(quad_mod, "integrate_many", recorded)
        p = ModelParams(1e-14, LAM, 200.0)
        excited_ratios_many([p], 0.2)
        cells = _kink_cells([p], 0.0, 0.2, "excited")
        pdot = _kink_roots(cells, None, factors=slice(0, 1))[1]
        assert [bp.tobytes() for bp in breakpoints] == [cells.kinks[1].tobytes(), pdot.tobytes()]
        assert cells.kinks[1].size > pdot.size > 0

    def test_a_large_window_is_probed_in_chunks(self, closed_form_calls):
        # A window of 20,372 probes at delta = 200 lam, five chunks of quad._CHUNK_POINTS.
        assert 0.0 < qsl_ratio(ModelParams(5.0, LAM, 10000.0), EXCITED, 0.2).ratio <= 1.0
        assert max(map(math.prod, closed_form_calls)) <= quad_mod._CHUNK_POINTS

    def test_window_far_out_finds_its_kink(self):
        # At tau = 34.85 doubles are 7.1e-15 apart, more than 1e-12 * tau_d:
        # the bracket around the root of Pdot at 40 pi / sqrt(13) must still end.
        p = ModelParams(7.0, 1.0, 0.0)
        cells = _kink_cells([p], 34.85, 0.005, "evolved")
        _, roots, _ = cells.kinks
        assert roots.tolist() == pytest.approx([40.0 * math.pi / math.sqrt(13.0)], abs=1e-9)
        assert qsl_ratio_evolved(p, 34.85, 0.005) == 1.0

    def test_no_excluded_interval_of_the_default_scan_holds_a_kink(self):
        params = [ModelParams(g, LAM, d)
                  for d in default_delta_axis(LAM) for g in default_gamma0_axis(LAM)]
        cells = _kink_cells(params, 0.0, 0.2, "excited")
        # The full grids hold 364,029 probes; the Lipschitz exclusion evaluated 77,759, and
        # certifying at every size evaluates 50,702, with model._ROUNDING at 2^-40 or 2^-48.
        assert _checked_probe_count(cells) <= 50_702

    def test_no_excluded_interval_of_the_detuned_sweep_holds_a_kink(self):
        # The detuned sweep-tau request of the trajectory benchmark: 200 windows of 759
        # probes each.  Bounding |Pddot| by C's moduli excluded 51 of its 19,000 coarse
        # intervals, for 151,534 probes; P's two-mode form, with the Lipschitz exclusion,
        # evaluated 21,167, and the certificates leave 19,329, with model._ROUNDING at 2^-40
        # or 2^-48.
        taus = np.linspace(0.0, 2.0, 200).tolist()
        cells = _Cells([ModelParams(1000.0, LAM, 200.0)] * 200, taus, 0.2, "tau")
        assert _checked_probe_count(cells) <= 19_329


def _checked_probe_count(cells) -> int:
    """The probes that the kink search of cells evaluates when it certifies at every size,
    after checking on every full grid that each sign it certifies for a fine probe, in an
    interval that quad._cleared clears or by the chord through an open interval's coarse
    values, is the computed sign."""
    evaluated = 0
    for j, n in enumerate(cells.n_probe):
        t = np.linspace(cells.a[j], cells.b[j], n + 1)
        f = quad_mod.evaluate(lambda rows, x: cells.terms(rows, x)[2], np.full(t.size, j),
                              t[:, None])[:, :, 0]
        ends = np.unique(np.append(np.arange(0, n + 1, quad_mod._STRIDE), n))
        lo, hi = ends[:-1], ends[1:]
        curv, err = cells.kink_bounds(np.full(lo.size, j), t[lo], t[hi])
        clear = quad_mod._cleared(t[lo], t[hi], f[:, lo], f[:, hi], curv, err)
        # Every fine probe, with its coarse interval.
        fine = np.setdiff1d(np.arange(n + 1), ends)
        q = fine // quad_mod._STRIDE
        sign = np.where(clear[:, q], np.sign(f[:, lo[q]]), 0.0)
        chord = quad_mod._chord_signs(t[lo[q]], f[:, lo[q]], t[hi[q]], f[:, hi[q]], curv[:, q],
                                      err[:, q], t[fine])
        sign = np.where(clear[:, q].all(axis=0), sign, chord)
        assert np.all((sign == 0.0) | (sign == np.sign(f[:, fine])))
        evaluated += ends.size + int(np.sum(np.any(sign == 0.0, axis=0)))
    return evaluated


class TestQuadratureErrorContext:
    def test_error_names_model_point_and_window(self, monkeypatch):
        # Depth limit 0 forbids bisection, so the strong-coupling integrals cannot converge.
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 0)
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)
        p = ModelParams(500.0, LAM, 0.0)
        calls = (
            lambda: qsl_ratio(p, EXCITED, 0.2, spec=spec),
            lambda: qsl_ratio_evolved(p, 0.0, 0.2, spec=spec),
            lambda: bures_comparator(p, 0.2, spec=spec),
        )
        for call in calls:
            with pytest.raises(QuadratureError) as info:
                call()
            message = str(info.value)
            assert "gamma0=500.0" in message
            assert "delta=0.0" in message
            assert "window [0.0, 0.2]" in message

    def test_errors_survive_pickle(self, monkeypatch):
        # Worker processes send results back by pickle: a failed cell's error is the
        # engine's own, relabelled in place, so it must come back whole.
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 0)
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0)
        p = ModelParams(500.0, LAM, 0.0)
        for [error] in (qsl_ratio_many([p], EXCITED, 0.2, spec=spec),
                        qsl_ratio_evolved_many([p], [0.0], 0.2, spec),
                        excited_ratios_many([p], 0.2, spec)[1]):
            assert type(error) is QuadratureError and error.__cause__ is None
            message = str(error)
            panel = re.fullmatch(
                r"speed-limit integral failed for gamma0=500\.0, delta=0\.0, "
                r"window \[0\.0, 0\.2\]: quadrature did not converge on \[(\S+), (\S+)\] after depth 0", message)
            assert panel and 0.0 <= float(panel[1]) < float(panel[2]) <= 0.2
            copy = pickle.loads(pickle.dumps(error))
            assert (type(copy), str(copy), copy.value, copy.err_estimate) == (
                QuadratureError, message, error.value, error.err_estimate)


def _outcome(result):
    """repr of a result, or (type, str, repr(value), repr(err_estimate)) of an error."""
    if isinstance(result, Exception):
        return type(result), str(result), repr(result.value), repr(result.err_estimate)
    return repr(result)


def _one_cell_outcome(call):
    try:
        return _outcome(call())
    except QuadratureError as exc:
        return _outcome(exc)


class TestManyCells:
    def test_each_cell_gets_its_one_cell_outcome_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=30, deadline=None)
        # At depth limit 3 the first and last cells fail in all three estimators, the
        # second in none and the third in the trace-distance one only.
        @hypothesis.example(cells=[(2.0, 10.0, 0.0), (0.02, 0.0, 0.0), (5.0, 4.0, 1.0),
                                   (0.5, 10.0, 0.05)], max_depth=3)
        @hypothesis.given(
            cells=st.lists(st.tuples(st.floats(0.02, 20.0), st.floats(0.0, 10.0),
                                     st.floats(0.0, 2.0)), min_size=1, max_size=5),
            max_depth=st.sampled_from([3, 40]),
        )
        def check(cells, max_depth):
            params = [ModelParams(g * LAM, LAM, d * LAM) for g, d, _ in cells]
            taus = [tau for _, _, tau in cells]
            with pytest.MonkeyPatch.context() as m:
                m.setattr(quad_mod, "_MAX_DEPTH", max_depth)
                many = zip(qsl_ratio_many(params, EXCITED, 0.2),
                           qsl_ratio_evolved_many(params, taus, 0.2),
                           *excited_ratios_many(params, 0.2))
                for p, tau, results in zip(params, taus, many):
                    one = (lambda: qsl_ratio(p, EXCITED, 0.2),
                           lambda: qsl_ratio_evolved(p, tau, 0.2),
                           lambda: qsl_ratio(p, EXCITED, 0.2),
                           lambda: bures_comparator(p, 0.2))
                    assert [_outcome(r) for r in results] == [_one_cell_outcome(c) for c in one]

        check()

    def test_default_scan_matches_the_total_variation(self):
        # From the excited state each integrand is the absolute slope of a function
        # monotone between Pdot's sign changes: 2 |dP| |Pdot| = |(dP |dP|)'| with
        # dP = P - P(0) for the trace ratio, and |Pdot| = |P'| for the Bures one.
        # So each integral is a total variation over the window's start, Pdot's
        # roots and its end.  The roots are the engine's own, so this checks the
        # quadrature alone.
        params = [ModelParams(g, LAM, d) for g in default_gamma0_axis(LAM).tolist()
                  for d in default_delta_axis(LAM).tolist()]
        trace, bures = excited_ratios_many(params, 0.2)
        gaps = []
        for p, report, ratio_bures in zip(params, trace, bures):
            n = probe_count_for_period(p.complex_root.imag, 0.0, 0.2)
            roots = find_sign_changes(functools.partial(population_rate, p), 0.0, 0.2, n)
            pop = excited_population(p, np.array([0.0, *roots, 0.2]))
            dp = pop - pop[0]
            tv_trace = dp[-1] ** 2 / np.sum(np.abs(np.diff(dp * np.abs(dp))))
            tv_bures = (1.0 - pop[-1]) / np.sum(np.abs(np.diff(pop)))
            gaps.append((abs(report.ratio - tv_trace) / tv_trace,
                         abs(ratio_bures - tv_bures) / tv_bures))
        # Measured: at most 7.9e-12 (trace) and 1.3e-12 (Bures).
        worst = np.max(gaps, axis=0)
        assert np.all(worst <= 1e-10), worst

    def test_no_cells_give_no_results(self):
        assert qsl_ratio_many([], EXCITED, 0.2) == []
        assert qsl_ratio_evolved_many([], [], 0.2) == []
        assert excited_ratios_many([], 0.2) == ([], [])
