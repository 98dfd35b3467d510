"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the printed verdict
lines alongside the pytest result lines.  Two subcases are expected to fail
and are kept red on purpose:

* criterion 4 at delta = 0: the true long-time rate of this model is
  lam - Re(d), which sits 5.6% above the Markovian formula for
  gamma0 = 0.1*lam, so no tolerance of 1% can hold on resonance.  The
  detuned subcase (delta = 6*lam) passes.
* criterion 8a: the trace-distance and Bures-angle ratio curves cross on
  the detuned sweep (trace is larger up to moderate coupling, smaller in
  the deep strong-coupling regime), so neither bound dominates globally.
  The on-resonance onset agreement (8b) passes.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qslkit.bounds import bures_comparator, qsl_ratio, qsl_ratio_evolved
from qslkit.model import (
    ModelParams,
    amplitude_series,
    decay_rate,
    markov_limit,
    oracle_amplitude,
)
from qslkit.smatrix import DensityMatrix2

from oracles import amplitude_cddot, on_resonance_decay_rate

LAM = 50.0
GAMMA0S = (0.1 * LAM, 0.5 * LAM, 10.0 * LAM)
DELTAS = (0.0, 4.0 * LAM, 6.0 * LAM)
EXCITED = DensityMatrix2.excited()


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{label}: {detail}"


class TestCriterion1:
    def test_oracle_equivalence(self):
        start = time.time()
        worst = 0.0
        for g0 in GAMMA0S:
            for delta in DELTAS:
                p = ModelParams(g0, LAM, delta)
                times, numeric = oracle_amplitude(p, 1.0, 2e-4)
                analytic, _ = amplitude_series(p, times)
                worst = max(worst, float(np.max(np.abs(numeric - analytic))))
        elapsed = time.time() - start
        verdict(
            "1 oracle equivalence",
            worst < 1e-6 and elapsed < 10.0,
            f"max |dC| = {worst:.3g}, runtime {elapsed:.2f} s",
        )


class TestCriterion2:
    def test_ode_residual(self):
        worst = 0.0
        t = np.linspace(1e-6, 1.0, 1000)
        for g0 in GAMMA0S:
            for delta in DELTAS:
                p = ModelParams(g0, LAM, delta)
                c, cdot = amplitude_series(p, t)
                cddot = amplitude_cddot(p, t)
                half = 0.5 * p.gamma0 * p.lam
                res = np.abs(cddot + (p.lam - 1j * p.delta) * cdot + half * c) / half
                worst = max(worst, float(np.max(res)))
        verdict("2 ode residual", worst < 1e-9, f"max residual = {worst:.3g}")


class TestCriterion3:
    def test_on_resonance_rate_identity(self):
        worst = 0.0
        t = np.linspace(1e-6, 1.0, 1000)
        for g0 in GAMMA0S:
            p = ModelParams(g0, LAM, 0.0)
            c, _ = amplitude_series(p, t)
            mask = np.abs(c) > 1e-6
            general = np.asarray(decay_rate(p, t))[mask]
            closed = np.asarray(on_resonance_decay_rate(p, t))[mask]
            rel = np.abs(general - closed) / np.maximum(np.abs(closed), 1e-300)
            worst = max(worst, float(np.max(rel)))
        verdict("3 on-resonance rate identity", worst < 1e-10, f"max rel = {worst:.3g}")


class TestCriterion4:
    # The delta = 0 subcase cannot pass: the model's exact long-time rate is
    # lam - Re(d) = 5.2786 for gamma0 = 5, lam = 50, which differs from the
    # Markovian formula gamma_M = 5 by 5.6%, far outside the 1% tolerance.
    # It is kept red deliberately.  The detuned subcase converges to within
    # 0.5% and passes.
    @pytest.mark.parametrize("delta", [0.0, 6.0 * LAM])
    def test_markov_limit(self, delta):
        p = ModelParams(0.1 * LAM, LAM, delta)
        gm = markov_limit(p)
        t = np.linspace(10.0 / LAM, 2.0, 500)
        gamma = np.asarray(decay_rate(p, t))
        worst = float(np.max(np.abs(gamma - gm) / gm))
        verdict(
            f"4 markov limit (delta={delta:g})",
            worst < 0.01,
            f"max |gamma - gamma_M|/gamma_M = {worst:.3g}",
        )


class TestCriterion5:
    def test_weak_coupling_plateau(self):
        p = ModelParams(0.1 * LAM, LAM, 0.0)
        worst = abs(qsl_ratio(p, EXCITED, 0.2).ratio - 1.0)
        for tau in np.linspace(0.0, 2.0, 21):
            worst = max(worst, abs(qsl_ratio_evolved(p, float(tau), 0.2) - 1.0))
        verdict("5 weak-coupling plateau", worst < 1e-6, f"max |ratio - 1| = {worst:.3g}")


class TestCriterion6:
    def test_strong_coupling_speed_up(self):
        p = ModelParams(10.0 * LAM, LAM, 0.0)
        taus = np.linspace(0.0, 0.2, 201)
        values = np.array([qsl_ratio_evolved(p, float(t), 0.2) for t in taus])
        minima = [
            i
            for i in range(1, len(values) - 1)
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        ]
        period = float(np.mean(np.diff(taus[minima])))
        target = 2.0 * math.pi / abs(p.complex_root)
        golden = qsl_ratio(p, EXCITED, 0.2).ratio
        ok = (
            float(np.min(values)) < 1.0 - 1e-6
            and abs(period - target) / target < 0.05
            and golden == pytest.approx(0.47146600298396024, abs=1e-9)
        )
        verdict(
            "6 strong-coupling speed-up",
            ok,
            f"min ratio = {np.min(values):.6f}, period = {period:.5f} vs {target:.5f}, "
            f"golden ratio = {golden:.17g}",
        )


class TestCriterion7:
    def test_detuning_induced_transition(self):
        p = ModelParams(0.1 * LAM, LAM, 6.0 * LAM)
        early = qsl_ratio_evolved(p, 0.0, 0.2)
        late = max(
            abs(qsl_ratio_evolved(p, tau, 0.2) - 1.0) for tau in (0.5, 1.0, 1.5, 2.0)
        )
        verdict(
            "7 detuning-induced transition",
            early < 1.0 - 1e-6 and late < 1e-3,
            f"ratio(tau=0) = {early:.6f}, max late |ratio - 1| = {late:.3g}",
        )


class TestCriterion8:
    # 8a cannot pass as stated: the two ratio curves cross near
    # gamma0 ~ 9*lam on the delta = 4*lam sweep, so the trace-distance ratio
    # is not below the Bures ratio at every grid point.  Kept red on purpose;
    # see the module docstring.
    def test_8a_detuned_sweep_dominance(self):
        gamma0s = np.geomspace(0.02 * LAM, 20.0 * LAM, 15)
        worst = -math.inf
        for g0 in gamma0s:
            p = ModelParams(float(g0), LAM, 4.0 * LAM)
            trace = qsl_ratio(p, EXCITED, 0.2).ratio
            bures = bures_comparator(p, 0.2)
            worst = max(worst, trace - bures)
        verdict(
            "8a detuned sweep trace <= bures",
            worst <= 1e-9,
            f"max (trace - bures) = {worst:.3g}",
        )

    def test_8b_on_resonance_onsets_agree(self):
        gamma0s = np.geomspace(0.02 * LAM, 20.0 * LAM, 25)
        trace_flags = []
        bures_flags = []
        for g0 in gamma0s:
            p = ModelParams(float(g0), LAM, 0.0)
            trace_flags.append(qsl_ratio(p, EXCITED, 0.2).ratio < 1.0 - 1e-6)
            bures_flags.append(bures_comparator(p, 0.2) < 1.0 - 1e-6)
        i_trace = trace_flags.index(True)
        i_bures = bures_flags.index(True)
        verdict(
            "8b on-resonance onsets agree",
            abs(i_trace - i_bures) <= 1,
            f"first speed-up cells {i_trace} vs {i_bures}",
        )


class TestCriterion9:
    def test_ratio_path_consistency(self):
        tau, tau_d = 0.05, 0.2
        worst = 0.0
        for g0 in np.geomspace(0.02 * LAM, 20.0 * LAM, 10):
            for delta in np.linspace(0.0, 10.0 * LAM, 10):
                p = ModelParams(float(g0), LAM, float(delta))
                general = qsl_ratio(p, EXCITED, tau_d, tau_start=tau).ratio
                closed = qsl_ratio_evolved(p, tau, tau_d)
                worst = max(worst, abs(general - closed))
        verdict("9 ratio path consistency", worst < 1e-8, f"max |diff| = {worst:.3g}")


class TestCriterion10:
    def test_scan_determinism(self):
        def run_scan():
            return subprocess.run(
                [sys.executable, "-m", "qslkit.cli", "scan", "--n-gamma0", "8", "--n-delta", "5"],
                capture_output=True,
                check=True,
            ).stdout

        outputs = [run_scan(), run_scan(), run_scan()]
        ok = outputs[0] == outputs[1] == outputs[2]
        verdict("10 scan determinism", ok, f"{len(outputs[0])} bytes, 3 runs")
