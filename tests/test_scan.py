import dataclasses
import math

import numpy as np
import pytest

import qslkit.quad as quad_mod
from qslkit.bounds import BoundReport, qsl_ratio, qsl_ratio_evolved
from qslkit.model import ModelParams, decay_rate, markov_limit, population_rate
from qslkit.quad import QuadratureError, QuadratureSpec
from qslkit.scan import (
    DEFAULT_CLIP,
    classify,
    default_delta_axis,
    default_gamma0_axis,
    grid_scan,
    sweep_decay_rate,
    sweep_tau,
    transition_boundary,
)
from qslkit.smatrix import DensityMatrix2

LAM = 50.0
EXCITED = DensityMatrix2.excited()


def small_grid(spec=None):
    gamma0_axis = np.geomspace(0.1 * LAM, 20.0 * LAM, 7)
    delta_axis = np.array([0.0, 150.0, 300.0])
    return grid_scan(gamma0_axis, delta_axis, LAM, 0.2, spec=spec)


def one_chunk_per_cell(monkeypatch):
    """The smallest fan-out: every engine call covers one cell, one round one panel."""
    monkeypatch.setattr(quad_mod, "_CHUNK_POINTS", 1)
    monkeypatch.setattr(quad_mod, "_PANELS_PER_ROUND", 1)


def serial_boundary(grid, spec):
    """Reference: the flip-by-flip, step-by-step bisection with one-cell calls.

    A failed scan cell gets its own entry with its error, and a flip whose
    step raises QuadratureError gets it as its boundary.
    """
    out = []
    for j, delta in enumerate(grid.delta_axis):
        col = [grid.classification[i][j] for i in range(grid.gamma0_axis.size)]
        flip_index = 0
        for i in range(len(col)):
            if col[i] == "error":
                out.append((float(delta), grid.results[i][j], flip_index))
                flip_index += 1
                continue
            if i + 1 == len(col) or col[i + 1] in ("error", col[i]):
                continue
            lo, hi = float(grid.gamma0_axis[i]), float(grid.gamma0_axis[i + 1])
            try:
                while hi / lo > 1.0 + 1e-3:
                    mid = math.sqrt(lo * hi)
                    report = qsl_ratio(ModelParams(mid, grid.lam, float(delta)), EXCITED,
                                       grid.tau_d, spec=spec)
                    if (classify(report.ratio) == "speed_up") == (col[i] == "speed_up"):
                        lo = mid
                    else:
                        hi = mid
            except QuadratureError as exc:
                out.append((float(delta), exc, flip_index))
            else:
                out.append((float(delta), math.sqrt(lo * hi), flip_index))
            flip_index += 1
    return out


def outcome(v):
    """v, or for a QuadratureError its message, partial value and error estimate."""
    if isinstance(v, QuadratureError):
        return str(v), v.value, v.err_estimate
    return v


class TestGridScan:
    def test_weak_on_resonance_cell_is_plateau(self):
        grid = small_grid()
        assert grid.classification[0][0] == "no_speed_up"

    def test_strong_on_resonance_cell_speeds_up(self):
        grid = small_grid()
        assert grid.classification[-1][0] == "speed_up"

    def test_cells_complete(self):
        grid = small_grid()
        assert all(isinstance(r, BoundReport) for row in grid.results for r in row)

    def test_cell_failures_recorded_scan_continues(self, monkeypatch):
        # At depth limit 4 the quadrature fails on some detuned cells only: each
        # failure is recorded as the one-cell call raises it, and every other
        # cell completes with the one-cell report.
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 4)
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        grid = small_grid(spec)
        failed = set()
        for i, g0 in enumerate(grid.gamma0_axis.tolist()):
            for j, delta in enumerate(grid.delta_axis.tolist()):
                try:
                    report = qsl_ratio(ModelParams(g0, LAM, delta), EXCITED, 0.2, spec=spec)
                except QuadratureError as exc:
                    failed.add((i, j))
                    assert isinstance(grid.results[i][j], QuadratureError)
                    assert outcome(grid.results[i][j]) == outcome(exc)
                    assert grid.classification[i][j] == "error"
                else:
                    assert repr(grid.results[i][j]) == repr(report)
                    assert grid.classification[i][j] == classify(report.ratio)
        assert failed == {(0, 2), (1, 2), (4, 2), (5, 2), (6, 2)}

    def test_reports_independent_of_batch_size(self, monkeypatch):
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)

        def grids():
            # The default grid, and one at depth limit 4, where some cells fail.
            with monkeypatch.context() as m:
                m.setattr(quad_mod, "_MAX_DEPTH", 4)
                shallow = small_grid(spec)
            return [repr(g.results) for g in (small_grid(), shallow)]

        batched = grids()
        one_chunk_per_cell(monkeypatch)
        assert grids() == batched

    def test_default_scan_closed_form_calls(self, closed_form_calls):
        # 630 cells: one batched call for every window's end points plus 170
        # batches (49,400 calls when every cell was evaluated on its own): 46
        # probe calls, 34 bisection rounds and 90 calls of panels.
        grid = grid_scan(default_gamma0_axis(LAM), default_delta_axis(LAM), LAM, 0.2)
        assert all(isinstance(r, BoundReport) for row in grid.results for r in row)
        assert len(closed_form_calls) <= 171
        assert all(len(s) == 2 for s in closed_form_calls)
        assert max(map(math.prod, closed_form_calls)) <= quad_mod._CHUNK_POINTS

    def test_default_scan_speeds_up_where_pdot_changes_sign(self):
        # The paper's mechanism: speed-up needs energy flowing back, so a cell is
        # speed_up if and only if Pdot changes sign inside its window. The signs are
        # read on an independent uniform grid 16 times finer than the engine's
        # probes, skipping t = 0, where Pdot is 0.
        grid = grid_scan(default_gamma0_axis(LAM), default_delta_axis(LAM), LAM, 0.2)
        flat = 0.0
        for gamma0, cells, labels in zip(grid.gamma0_axis.tolist(), grid.results,
                                         grid.classification):
            for delta, cell, label in zip(grid.delta_axis.tolist(), cells, labels):
                p = ModelParams(gamma0, LAM, delta)
                n = 16 * quad_mod.probe_count_for_period(p.complex_root.imag, 0.0, 0.2)
                sign = np.sign(population_rate(p, np.linspace(0.0, 0.2, n + 1)[1:]))
                flow_back = bool(np.any(sign[1:] * sign[:-1] < 0.0))
                assert (label == "speed_up") == flow_back, (gamma0, delta, cell.ratio)
                if flow_back:
                    assert cell.ratio < 1.0
                else:
                    flat = max(flat, abs(cell.ratio - 1.0))
        assert sum(label == "speed_up" for row in grid.classification for label in row) == 486
        # Measured: 3.8e-13.
        assert flat <= 1e-11

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            grid_scan([], [0.0], LAM, 0.2)
        with pytest.raises(ValueError):
            grid_scan([2.0, 1.0], [0.0], LAM, 0.2)


class TestTransitionBoundary:
    def test_on_resonance_single_flip_location(self):
        grid = small_grid()
        points = transition_boundary(grid)
        on_res = [pt for pt in points if pt[0] == 0.0]
        assert len(on_res) == 1
        _, g_star, flip_index = on_res[0]
        assert flip_index == 0
        assert 0.1 * LAM < g_star < 10.0 * LAM

    def test_boundary_straddles_threshold(self):
        from qslkit.bounds import qsl_ratio
        from qslkit.smatrix import DensityMatrix2

        grid = small_grid()
        rho0 = DensityMatrix2.excited()
        for delta, g_star, _ in transition_boundary(grid):
            lo = qsl_ratio(ModelParams(g_star * 0.98, LAM, delta), rho0, 0.2).ratio
            hi = qsl_ratio(ModelParams(g_star * 1.02, LAM, delta), rho0, 0.2).ratio
            assert (lo < 1.0 - 1e-6) != (hi < 1.0 - 1e-6)

    def test_matches_flip_by_flip_bisection(self):
        grid = small_grid()
        assert transition_boundary(grid) == serial_boundary(grid, None)

    @pytest.mark.parametrize("max_depth", [3, 5])
    def test_failed_flips_recorded(self, monkeypatch, max_depth):
        # At depth limit 3 the second flip fails on its first step and the first
        # flip on its third; at depth limit 5 only the second flip fails.  Each
        # flip holds what the flip-by-flip loop gives it: its boundary, or the
        # error of its failed step.
        grid = small_grid()
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", max_depth)
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0)
        points = transition_boundary(grid, spec=spec)
        expected = serial_boundary(grid, spec)
        assert [tuple(map(outcome, pt)) for pt in points] == [
            tuple(map(outcome, pt)) for pt in expected]
        n_failed = sum(isinstance(g, QuadratureError) for _, g, _ in points)
        assert n_failed == (2 if max_depth == 3 else 1)

    def test_failed_cells_recorded(self, monkeypatch):
        # At depth limit 4 five cells of the delta = 300 row fail: each is its own
        # entry with the cell's error, in gamma0 order.
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 4)
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        grid = small_grid(spec)
        points = transition_boundary(grid, spec=spec)
        assert [tuple(map(outcome, pt)) for pt in points] == [
            tuple(map(outcome, pt)) for pt in serial_boundary(grid, spec)]
        assert [(d, outcome(g), k) for d, g, k in points if d == 300.0] == [
            (300.0, outcome(grid.results[i][2]), k) for k, i in enumerate((0, 1, 4, 5, 6))]

    @pytest.mark.parametrize("failed, n_flips", [(1, 1), (3, 0)])
    def test_failed_cell_next_to_flip(self, failed, n_flips):
        # The on-resonance row flips between cells 2 and 3.  A failed cell 1
        # takes flip_index 0 and the flip 1; a failed cell 3 leaves no flip.  Its
        # classification is derived from the replaced entry.
        grid = small_grid()
        labels = [row[0] for row in grid.classification]
        error = QuadratureError("cell failed", value=0.5, err_estimate=0.1)
        results = [list(row) for row in grid.results]
        results[failed][0] = error
        grid = dataclasses.replace(grid, results=results)
        labels[failed] = "error"
        assert [row[0] for row in grid.classification] == labels
        points = transition_boundary(grid)
        assert points == serial_boundary(grid, None)
        on_res = [pt for pt in points if pt[0] == 0.0]
        assert on_res[0] == (0.0, error, 0)
        assert [(g, k) for _, g, k in on_res[1:]] == [(pytest.approx(32.2, rel=0.02), 1)] * n_flips

    def test_large_detuning_speeds_up_whole_row(self):
        # At delta = 6*lam even the weakest sampled coupling accelerates, so
        # the row is uniformly speed-up and contributes no boundary point.
        grid = small_grid()
        assert all(c == "speed_up" for c in (grid.classification[i][2] for i in range(7)))
        points = transition_boundary(grid)
        assert all(pt[0] != 300.0 for pt in points)


def kink_search_points(monkeypatch, closed_form_calls, gamma0: float, delta: float = 0.0) -> int:
    """The closed-form points that the one kink search of a 200-window sweep-tau request at
    gamma0, delta and lam 50 evaluates."""
    spans = []
    real = quad_mod.find_sign_changes_many

    def search(*args, **kwargs):
        start = len(closed_form_calls)
        found = real(*args, **kwargs)
        spans.append((start, len(closed_form_calls)))
        return found

    monkeypatch.setattr(quad_mod, "find_sign_changes_many", search)
    sweep_tau(ModelParams(gamma0, LAM, delta), 2.0, 200, 0.2)
    [(start, end)] = spans
    return sum(math.prod(s) for s in closed_form_calls[start:end])


class TestSweepTau:
    def test_weak_coupling_constant_one(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        series = sweep_tau(p, 2.0, 21, 0.2)
        assert np.max(np.abs(series.values - 1.0)) < 1e-6

    def test_strong_detuned_dips_then_recovers(self):
        p = ModelParams(10.0 * LAM, LAM, 6.0 * LAM)
        series = sweep_tau(p, 1.0, 51, 0.2)
        assert np.min(series.values) < 1.0 - 1e-6
        assert abs(series.values[-1] - 1.0) < 1e-3

    def test_weak_detuned_speed_up_at_small_tau(self):
        p = ModelParams(0.1 * LAM, LAM, 6.0 * LAM)
        series = sweep_tau(p, 1.0, 51, 0.2)
        assert series.values[0] < 1.0 - 1e-6
        assert abs(series.values[-1] - 1.0) < 1e-3

    def test_point_count_validation(self):
        with pytest.raises(ValueError):
            sweep_tau(ModelParams(5.0, LAM, 0.0), 1.0, 1, 0.2)

    def test_matches_point_by_point(self, monkeypatch):
        p = ModelParams(20.0 * LAM, LAM, 4.0 * LAM)
        series = sweep_tau(p, 2.0, 21, 0.2)
        expected = [qsl_ratio_evolved(p, tau, 0.2) for tau in np.linspace(0.0, 2.0, 21).tolist()]
        assert series.values.tolist() == expected
        one_chunk_per_cell(monkeypatch)
        assert sweep_tau(p, 2.0, 21, 0.2).values.tolist() == expected

    def test_closed_form_calls(self, closed_form_calls):
        # 200 windows: one batched call for every window's end points, and the
        # batched probes, bisection steps and panels.  An extra per-window call
        # would exceed the bound.
        sweep_tau(ModelParams(500.0, LAM, 0.0), 2.0, 200, 0.2)
        assert len(closed_form_calls) <= 64
        assert all(len(s) == 2 for s in closed_form_calls)

    def test_kink_search_points(self, monkeypatch, closed_form_calls):
        # The default sweep-tau request (gamma0 5, delta 0 at lam 50): its one kink search
        # evaluated 3,200 closed-form points with the Lipschitz exclusion, and the
        # certificates leave 1,804.
        assert kink_search_points(monkeypatch, closed_form_calls, 5.0) <= 1_804

    @pytest.mark.parametrize("gamma0, delta, bound", [
        # The resonant sweep (gamma0 10 lam): the certificates left 52,958 points with
        # model._ROUNDING at 2^-40, and 31,013 at the derived 2^-48.
        (500.0, 0.0, 31_013),
        # The detuned sweep (gamma0 20 lam, delta 4 lam): 22,442 points in 51 calls at
        # the derived 2^-48.
        (1000.0, 200.0, 22_442),
    ], ids=["resonant", "detuned"])
    def test_trajectory_kink_search_points(self, monkeypatch, closed_form_calls, gamma0, delta,
                                           bound):
        # The sweeps of the trajectory benchmark.
        assert kink_search_points(monkeypatch, closed_form_calls, gamma0, delta) <= bound

    def test_failed_points_recorded(self, monkeypatch):
        # At depth limit 4 the windows at tau = 0.1 and 0.2 fail; every other point
        # gets its one-cell value, and a failed one NaN and its one-cell error.
        p = ModelParams(20.0 * LAM, LAM, 4.0 * LAM)
        monkeypatch.setattr(quad_mod, "_MAX_DEPTH", 4)
        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0)
        series = sweep_tau(p, 2.0, 21, 0.2, spec=spec)
        failed = []
        for k, tau in enumerate(np.linspace(0.0, 2.0, 21).tolist()):
            try:
                expected = qsl_ratio_evolved(p, tau, 0.2, spec=spec)
            except QuadratureError as exc:
                failed.append(k)
                assert math.isnan(series.values[k])
                assert outcome(series.errors[k]) == outcome(exc)
            else:
                assert series.errors[k] is None
                assert series.values[k] == expected
        assert failed == [1, 2]
        # A negative tau_max is invalid input: it fails the sweep by name before
        # any work, also where the point before it would not converge.
        for max_depth in (40, 0):
            monkeypatch.setattr(quad_mod, "_MAX_DEPTH", max_depth)
            with pytest.raises(ValueError, match="tau_max must be nonnegative, got -1.0"):
                sweep_tau(p, -1.0, 3, 0.2)


class TestSweepDecayRate:
    def test_weak_on_resonance_nonnegative_plateau(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        series = sweep_decay_rate(p, 1.0, 201)
        assert np.all(series.values >= -1e-12)
        # Tail sits at the exact asymptote, within a few percent of 1.
        assert series.values[-1] == pytest.approx(1.0, abs=0.1)
        assert not any(series.clipped)

    def test_strong_on_resonance_alternates_with_spikes(self):
        p = ModelParams(10.0 * LAM, LAM, 0.0)
        series = sweep_decay_rate(p, 0.5, 2001)
        assert np.any(series.values < 0.0)
        assert np.any(series.values > 0.0)
        assert any(series.clipped)
        assert np.max(np.abs(series.values)) <= DEFAULT_CLIP
        # Past t ~ 48/lam |C| drops below the singular threshold, so the longer
        # window also has NaN rows.
        for t_max in (0.5, 1.2):
            series = sweep_decay_rate(p, t_max, 2001)
            raw = decay_rate(p, series.times) / p.gamma0
            assert isinstance(series.clipped, np.ndarray)
            assert series.clipped.dtype == bool and series.clipped.shape == series.times.shape
            assert np.any(np.isnan(raw)) == (t_max > 1.0)
            for v, r, c in zip(series.values.tolist(), raw.tolist(), series.clipped.tolist()):
                assert type(c) is bool
                if math.isnan(r):
                    assert c and v == DEFAULT_CLIP
                elif abs(r) > DEFAULT_CLIP:
                    assert c and v == math.copysign(DEFAULT_CLIP, r)
                else:
                    assert not c and v == r

    def test_detuned_tail_hits_markov_limit(self):
        p = ModelParams(0.1 * LAM, LAM, 6.0 * LAM)
        series = sweep_decay_rate(p, 1.0, 400)
        expected = markov_limit(p) / p.gamma0
        assert expected == pytest.approx(1.0 / 37.0, rel=1e-12)
        assert series.values[-1] == pytest.approx(expected, rel=0.01)

    def test_clip_validation(self):
        with pytest.raises(ValueError):
            sweep_decay_rate(ModelParams(5.0, LAM, 0.0), 1.0, 10, clip=0.0)

