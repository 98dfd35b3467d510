import math

import numpy as np
import pytest

import qslkit.scan as scan_mod
from qslkit.model import ModelParams, decay_rate, markov_limit
from qslkit.quad import QuadratureError
from qslkit.scan import (
    grid_scan,
    sweep_decay_rate,
    sweep_tau,
    transition_boundary,
)

LAM = 50.0


def small_grid():
    gamma0_axis = np.geomspace(0.1 * LAM, 20.0 * LAM, 7)
    delta_axis = np.array([0.0, 150.0, 300.0])
    return grid_scan(gamma0_axis, delta_axis, LAM, 0.2)


class TestGridScan:
    def test_weak_on_resonance_cell_is_plateau(self):
        grid = small_grid()
        assert grid.classification[0][0] == "no_speed_up"

    def test_strong_on_resonance_cell_speeds_up(self):
        grid = small_grid()
        assert grid.classification[-1][0] == "speed_up"

    def test_cells_complete(self):
        grid = small_grid()
        assert all(cell is not None for row in grid.cells for cell in row)
        assert all(err is None for row in grid.errors for err in row)

    def test_cell_failures_recorded_scan_continues(self, monkeypatch):
        real = scan_mod.qsl_ratio
        target = {"count": 0}

        def flaky(p, rho0, tau_d, **kwargs):
            target["count"] += 1
            if target["count"] == 2:
                raise QuadratureError("synthetic failure", value=0.0, err_estimate=1.0)
            return real(p, rho0, tau_d, **kwargs)

        monkeypatch.setattr(scan_mod, "qsl_ratio", flaky)
        grid = small_grid()
        flat_errors = [e for row in grid.errors for e in row]
        assert sum(e is not None for e in flat_errors) == 1
        assert sum(c == "error" for row in grid.classification for c in row) == 1

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

    def test_large_detuning_speeds_up_whole_row(self):
        # At delta = 6*lam even the weakest sampled coupling accelerates, so
        # the row is uniformly speed-up and contributes no boundary point.
        grid = small_grid()
        assert all(c == "speed_up" for c in (grid.classification[i][2] for i in range(7)))
        points = transition_boundary(grid)
        assert all(pt[0] != 300.0 for pt in points)


class TestSweepTau:
    def test_weak_coupling_constant_one(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        series = sweep_tau(p, 2.0, 21, 0.2)
        assert series.kind == "ratio_vs_tau"
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
        assert np.max(np.abs(series.values)) <= series.clip
        # Past t ~ 48/lam |C| drops below the singular threshold, so the longer
        # window also has NaN rows.
        for t_max in (0.5, 1.2):
            series = sweep_decay_rate(p, t_max, 2001)
            raw = decay_rate(p, series.times) / p.gamma0
            assert isinstance(series.clipped, list)
            assert np.any(np.isnan(raw)) == (t_max > 1.0)
            for v, r, c in zip(series.values, raw, series.clipped):
                assert type(c) is bool
                if math.isnan(r):
                    assert c and v == series.clip
                elif abs(r) > series.clip:
                    assert c and v == math.copysign(series.clip, r)
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

