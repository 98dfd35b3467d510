"""Quantum-speed-limit estimators built on the trace-distance measure.

For this model both the state displacement rho_t - rho_ref and the generator
rhod_t are Hermitian and traceless, so their two singular values coincide.
The three averaged integrals (trace-, Hilbert-Schmidt- and operator-norm
flavored, with the sqrt(n)/n prefactors, n = 2) are then equal exactly, and
a single quadrature serves all three.  Tests cross-check this reduction
against the generic matrix-norm path.

The trace-distance integral, its population-only closed form and the
Bures-angle comparator all integrate |displacement| * |rate| (or |rate|
alone), which has a kink wherever a factor changes sign; Pdot does so where
energy starts or stops flowing back from the reservoir.  One helper,
_kink_integral, locates those breakpoints and integrates for all three.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import quad
from .model import ModelParams, amplitude_series, excited_population, population_rate
from .smatrix import DensityMatrix2

# Ratios below 1 - SPEED_UP_TOL count as genuine speed-up; larger values are
# quadrature noise on the no-speed-up plateau.
SPEED_UP_TOL = 1e-6

_STATIONARY_TOL = 1e-30


@dataclass(frozen=True)
class BoundReport:
    """Speed-limit diagnostics for one parameter point and driving window."""

    lambda1: float
    lambda2: float
    lambda_inf: float
    d_measure: float
    tau_qsl: float
    ratio: float
    tau_d: float
    quadrature_err: float
    stationary: bool = False


def _trajectory(p: ModelParams, rho0: DensityMatrix2, tau_start: float):
    """Closed-form ingredients of the trajectory displaced from rho(tau_start)."""
    ree0 = rho0.excited_population
    coh0 = rho0.coherence
    c_ref, _ = amplitude_series(p, tau_start)
    pop_ref = ree0 * abs(c_ref) ** 2
    coh_ref = coh0 * complex(c_ref)

    def terms(t: np.ndarray):
        c, cdot = amplitude_series(p, t)
        disp_pop = ree0 * np.abs(c) ** 2 - pop_ref
        disp_coh = coh0 * c - coh_ref
        pdot = ree0 * 2.0 * (np.conj(c) * cdot).real
        cohdot = coh0 * cdot
        return disp_pop, disp_coh, pdot, cohdot

    return terms


def _kink_integral(
    p: ModelParams, integrand, factors, a: float, b: float, spec: quad.QuadratureSpec | None
) -> tuple[float, float]:
    """Adaptive integral of integrand over [a, b], pre-split at the sign changes of factors.

    factors returns the stacked factor values (one row per factor) and
    integrand a product of their absolute values, so it has a kink wherever
    one of them changes sign.  A QuadratureError is re-raised naming the
    model point and the window.
    """
    n_probe = quad.probe_count_for_period(p.complex_root.imag, a, b)
    roots = quad.find_sign_changes(factors, a, b, n_probe)
    panel_spec = replace(spec or quad.QuadratureSpec(), breakpoints=tuple(roots))
    try:
        return quad.integrate(integrand, a, b, panel_spec)
    except quad.QuadratureError as exc:
        raise quad.QuadratureError(
            f"speed-limit integral failed for gamma0={p.gamma0}, delta={p.delta}, "
            f"window [{a}, {b}]: {exc}",
            value=exc.value,
            err_estimate=exc.err_estimate,
        ) from exc


def lambda_integrals(
    p: ModelParams,
    rho0: DensityMatrix2,
    tau_start: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> tuple[float, float, float]:
    """Averaged displacement-times-generator integrals over [tau_start, tau_start + tau_d].

    Returns the trace-, Hilbert-Schmidt- and operator-norm versions (the
    latter two carry their sqrt(n) and n prefactors, n = 2).  rho0 is the
    global initial state; the reference state is the trajectory point at
    tau_start.
    """
    value = _lambda_core(p, rho0, tau_start, tau_d, spec)[0]
    return value, value, value


def _lambda_core(
    p: ModelParams,
    rho0: DensityMatrix2,
    tau_start: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None,
):
    """(averaged integral, quadrature error, trajectory terms) for the window."""
    if tau_d <= 0.0:
        raise ValueError("tau_d must be positive")
    if tau_start < 0.0:
        raise ValueError("tau_start must be nonnegative")
    terms = _trajectory(p, rho0, tau_start)

    def integrand(t):
        disp_pop, disp_coh, pdot, cohdot = terms(t)
        disp = 2.0 * np.sqrt(disp_pop**2 + np.abs(disp_coh) ** 2)
        rate = np.sqrt(pdot**2 + np.abs(cohdot) ** 2)
        return disp * rate

    def factors(t):
        disp_pop, _, pdot, _ = terms(t)
        return np.stack((pdot, disp_pop))

    integral, err = _kink_integral(p, integrand, factors, tau_start, tau_start + tau_d, spec)
    # 1, sqrt(2)*sqrt(2), 2x the operator-norm integrand all give 2*I/tau_d.
    return 2.0 * integral / tau_d, err, terms


def qsl_ratio(
    p: ModelParams,
    rho0: DensityMatrix2,
    tau_d: float,
    tau_start: float = 0.0,
    spec: quad.QuadratureSpec | None = None,
) -> BoundReport:
    """Speed-limit report for the window [tau_start, tau_start + tau_d].

    ratio = 2|1 - D| * max_p{1/Lambda_p} / tau_d, with D the trace-distance
    measure between the window's end state and its reference state.
    Stationary trajectories (all integrals zero) are reported with ratio 1
    and the stationary flag set, matching the no-speed-up semantics.
    """
    lam_val, err, terms = _lambda_core(p, rho0, tau_start, tau_d, spec)
    disp_pop, disp_coh, _, _ = terms(np.asarray([tau_start + tau_d]))
    disp_norm = 2.0 * math.sqrt(float(disp_pop[0]) ** 2 + abs(complex(disp_coh[0])) ** 2)
    d_measure = 1.0 - 0.25 * disp_norm**2

    stationary = lam_val < _STATIONARY_TOL
    if stationary:
        # ratio = tau_d / tau_d is exactly 1.
        lam_val, tau_qsl = 0.0, tau_d
    else:
        tau_qsl = 2.0 * abs(1.0 - d_measure) / lam_val
    return BoundReport(
        lambda1=lam_val,
        lambda2=lam_val,
        lambda_inf=lam_val,
        d_measure=d_measure,
        tau_qsl=tau_qsl,
        ratio=tau_qsl / tau_d,
        tau_d=tau_d,
        quadrature_err=err,
        stationary=stationary,
    )


def qsl_ratio_evolved(
    p: ModelParams,
    tau: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> float:
    """Population closed form of the ratio for the excited-state trajectory.

    (P_{tau+tau_d} - P_tau)^2 / (2 * int_tau^{tau+tau_d} |(P_t - P_tau) Pdot_t| dt);
    exactly 1 for windows where the population is monotone.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau_d <= 0.0:
        raise ValueError("tau_d must be positive")
    a, b = tau, tau + tau_d
    p_ref = excited_population(p, tau)

    def factors(t):
        # Pdot and P - P_ref, as in population_rate and excited_population.
        c, cdot = amplitude_series(p, t)
        return np.stack((2.0 * (np.conj(c) * cdot).real, np.abs(c) ** 2 - p_ref))

    def integrand(t):
        pdot, pdisp = factors(t)
        return np.abs(pdisp * pdot)

    integral, _ = _kink_integral(p, integrand, factors, a, b, spec)
    num = (excited_population(p, b) - p_ref) ** 2
    den = 2.0 * integral
    if den < _STATIONARY_TOL:
        return 1.0
    return num / den


def bures_comparator(
    p: ModelParams,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> float:
    """Bures-angle speed-limit ratio for decay from the excited state.

    With B = arccos(sqrt(P_{tau_d})) the bound reads
    tau >= sin^2(B) / Lambda_tilde, Lambda_tilde = (1/tau_d) int ||rhod_t||_inf dt.

    The operator norm is the sharpest of the three norms and the published
    form of the Bures-angle bound.  Using the trace-distance integrals'
    sqrt(n)/n prefactors instead, under which the three norms coincide for
    this model, doubles Lambda_tilde and so only halves the ratio.
    """
    if tau_d <= 0.0:
        raise ValueError("tau_d must be positive")
    pdot = functools.partial(population_rate, p)

    def abs_pdot(t):
        return np.abs(pdot(t))

    # For the excited trajectory rhod is diagonal, so ||rhod||_inf = |Pdot|.
    integral, _ = _kink_integral(p, abs_pdot, pdot, 0.0, tau_d, spec)
    sin2_b = 1.0 - excited_population(p, tau_d)
    if integral < _STATIONARY_TOL:
        return 1.0
    return sin2_b / integral
