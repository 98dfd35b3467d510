import math
import pickle
import re

import numpy as np
import pytest

import qslkit.quad as quad_mod
from qslkit.bounds import (
    _Cells,
    bures_comparator,
    bures_comparator_many,
    lambda_integrals,
    qsl_ratio,
    qsl_ratio_evolved,
    qsl_ratio_evolved_many,
    qsl_ratio_many,
)
from qslkit.model import (
    ModelParams,
    amplitude_series,
    evolve,
    excited_population,
    liouvillian,
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
from qslkit.smatrix import DensityMatrix2, schatten_norm

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
        l1, l2, linf = lambda_integrals(p, EXCITED, 0.0, 0.2)
        assert l1 == l2 == linf
        assert l1 > 0.0

    def test_stationary_ground_state(self):
        p = ModelParams(5.0, LAM, 0.0)
        assert lambda_integrals(p, DensityMatrix2.ground(), 0.0, 0.2) == (0.0, 0.0, 0.0)

    def test_closed_form_reduction_diagonal(self):
        # For the excited trajectory the trace-norm integral reduces to
        # (4 / tau_d) * int (1 - P_t) |Pdot_t| dt.
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        tau_d = 0.2
        l1, _, _ = lambda_integrals(p, EXCITED, 0.0, tau_d)

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
            lambda_integrals(p, EXCITED, 0.0, 0.0)
        with pytest.raises(ValueError):
            lambda_integrals(p, EXCITED, -0.1, 0.2)


class TestWindowValidation:
    P = ModelParams(5.0, LAM, 0.0)

    @pytest.mark.parametrize("start, tau_d, message", INVALID_WINDOWS)
    def test_trace_path(self, start, tau_d, message):
        message = message.format(name="tau_start")
        for call in (lambda: qsl_ratio(self.P, EXCITED, tau_d, start),
                     lambda: lambda_integrals(self.P, EXCITED, start, tau_d)):
            with pytest.raises(ValueError) as info:
                call()
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
            bures_comparator_many([self.P, self.P], tau_d)
        assert str(info.value) == message


class TestQslRatio:
    def test_weak_coupling_plateau(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        report = qsl_ratio(p, EXCITED, 0.2)
        assert abs(report.ratio - 1.0) < 1e-6
        assert not report.stationary
        assert report.tau_qsl == pytest.approx(report.ratio * report.tau_d)

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

    def test_reference_expressions_pinned(self):
        # Each path forms P_ref from the same 0-d amplitude C(start) in its
        # own way: Python's abs on the trace path, np.abs on the evolved one.
        # The two differ in the last bit for some amplitudes, which moves
        # these values (to ...868 and 1.0 when the expressions are swapped).
        p = ModelParams(500.0, LAM, 100.0)
        assert qsl_ratio(p, EXCITED, 0.2, tau_start=0.1).ratio == 0.9999999999999865
        assert qsl_ratio_evolved(p, 0.1, 0.2) == 0.9999999999999999

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
    """The cell set one estimator path builds: its P_ref and scale."""
    if path == "bures":
        return _Cells(params, [start] * len(params), tau_d, "tau_start")
    if path == "evolved":
        return _Cells(params, [start] * len(params), tau_d, "tau",
                      p_ref=lambda c: float(np.abs(c) ** 2))
    # The trace path; ree0 is the initial excited population (coherence does not enter).
    ree0 = {"excited": 1.0, "ground": 0.0, "coherent": 0.4}[path]
    return _Cells(params, [start] * len(params), tau_d, "tau_start",
                  p_ref=lambda c: ree0 * abs(c) ** 2, scale=ree0)


def _kink_roots(cells, bound):
    def factors(rows, t):
        return cells.terms(rows, t)[2]

    return quad_mod.find_sign_changes_many(factors, cells.a, cells.b, cells.n_probe, bound=bound)


class TestCertifiedProbing:
    """Coarse-then-fine probing (bound = _Cells.thresholds) against the full grid (no bound)."""

    def test_roots_are_the_full_grid_roots_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        near_critical = st.sampled_from([0.0, 1e-15, -1e-12, 1e-9, -1e-6, 1e-3]).map(
            lambda e: 0.5 * (1.0 + e))
        coupling = st.floats(1e-3, 1e3) | near_critical
        detuning = st.floats(0.0, 20.0) | st.sampled_from([0.0, 1e-9])

        @hypothesis.settings(max_examples=150, deadline=None)
        # A window of 20,372 probes, more than model.REUSE_POINTS.
        @hypothesis.example(cells=[(0.1, 200.0)], start=0.0, tau_d=10.0, path="excited")
        @hypothesis.given(
            cells=st.lists(st.tuples(coupling, detuning), min_size=1, max_size=4),
            start=st.floats(0.0, 100.0) | st.just(0.0),
            tau_d=st.floats(0.05, 20.0),
            path=st.sampled_from(["excited", "ground", "coherent", "evolved", "bures"]),
        )
        def check(cells, start, tau_d, path):
            params = [ModelParams(g * LAM, LAM, d * LAM) for g, d in cells]
            kink_cells = _kink_cells(params, start / LAM, tau_d / LAM, path)
            full = _kink_roots(kink_cells, None)
            fast = _kink_roots(kink_cells, kink_cells.thresholds)
            assert np.array_equal(full[0], fast[0])
            assert full[1].tobytes() == fast[1].tobytes()

        check()

    def test_a_large_window_is_probed_in_chunks(self, closed_form_calls):
        # A window of 20,372 probes at delta = 200 lam, more than model.REUSE_POINTS.
        assert 0.0 < qsl_ratio(ModelParams(5.0, LAM, 10000.0), EXCITED, 0.2).ratio <= 1.0
        assert max(closed_form_calls) <= quad_mod._CHUNK_POINTS

    def test_window_far_out_finds_its_kink(self):
        # At tau = 34.85 doubles are 7.1e-15 apart, more than 1e-12 * tau_d:
        # the bracket around the root of Pdot at 40 pi / sqrt(13) must still end.
        p = ModelParams(7.0, 1.0, 0.0)
        cells = _kink_cells([p], 34.85, 0.005, "evolved")
        _, roots = _kink_roots(cells, cells.thresholds)
        assert roots.tolist() == pytest.approx([40.0 * math.pi / math.sqrt(13.0)], abs=1e-9)
        assert qsl_ratio_evolved(p, 34.85, 0.005) == 1.0

    def test_no_excluded_interval_of_the_default_scan_holds_a_kink(self):
        params = [ModelParams(g, LAM, d)
                  for d in default_delta_axis(LAM) for g in default_gamma0_axis(LAM)]
        cells = _kink_cells(params, 0.0, 0.2, "excited")
        evaluated = 0
        for j, n in enumerate(cells.n_probe):
            t = np.linspace(cells.a[j], cells.b[j], n + 1)
            f = quad_mod.evaluate(lambda rows, x: cells.terms(rows, x)[2], np.full(t.size, j),
                                  t[:, None])[:, :, 0]
            ends = np.unique(np.append(np.arange(0, n + 1, quad_mod._STRIDE), n))
            lo, hi = ends[:-1], ends[1:]
            excluded = np.all(np.abs(f[:, lo]) + np.abs(f[:, hi])
                              > cells.thresholds(np.full(lo.size, j), t[lo], t[hi]), axis=0)
            # A sign change or a zero between fine probes i and i + 1, of either factor.
            kink = np.any(np.sign(f[:, :-1]) * np.sign(f[:, 1:]) <= 0.0, axis=0)
            assert not np.any(kink & excluded[np.arange(n) // quad_mod._STRIDE])
            evaluated += ends.size + int(np.sum(hi - lo - 1, where=~excluded))
        # The full grids hold 364,029 probes.
        assert evaluated <= 110_000


class TestQuadratureErrorContext:
    def test_error_names_model_point_and_window(self):
        # max_depth=0 forbids bisection, so the strong-coupling integrals cannot converge.
        spec = QuadratureSpec(max_depth=0, rel_tol=1e-15, abs_tol=0.0)
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

    def test_errors_survive_pickle(self):
        # Worker processes send results back by pickle: a failed cell's error is the
        # engine's own, relabelled in place, so it must come back whole.
        spec = QuadratureSpec(max_depth=0, rel_tol=1e-15, abs_tol=0.0)
        p = ModelParams(500.0, LAM, 0.0)
        for [error] in (qsl_ratio_many([p], EXCITED, 0.2, spec=spec),
                        qsl_ratio_evolved_many([p], [0.0], 0.2, spec),
                        bures_comparator_many([p], 0.2, spec)):
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
        # At max_depth 3 the first and last cells fail in all three estimators, the
        # second in none and the third in the trace-distance one only.
        @hypothesis.example(cells=[(2.0, 10.0, 0.0), (0.02, 0.0, 0.0), (5.0, 4.0, 1.0),
                                   (0.5, 10.0, 0.05)], max_depth=3)
        @hypothesis.given(
            cells=st.lists(st.tuples(st.floats(0.02, 20.0), st.floats(0.0, 10.0),
                                     st.floats(0.0, 2.0)), min_size=1, max_size=5),
            max_depth=st.sampled_from([3, 40]),
        )
        def check(cells, max_depth):
            spec = QuadratureSpec(max_depth=max_depth)
            params = [ModelParams(g * LAM, LAM, d * LAM) for g, d, _ in cells]
            taus = [tau for _, _, tau in cells]
            many = zip(qsl_ratio_many(params, EXCITED, 0.2, spec=spec),
                       qsl_ratio_evolved_many(params, taus, 0.2, spec),
                       bures_comparator_many(params, 0.2, spec))
            for p, tau, results in zip(params, taus, many):
                one = (lambda: qsl_ratio(p, EXCITED, 0.2, spec=spec),
                       lambda: qsl_ratio_evolved(p, tau, 0.2, spec),
                       lambda: bures_comparator(p, 0.2, spec))
                assert [_outcome(r) for r in results] == [_one_cell_outcome(c) for c in one]

        check()
