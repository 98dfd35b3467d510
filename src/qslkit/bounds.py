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
_kink_integrals, locates those breakpoints and integrates for all three,
for many cells (model point plus window) at once.

Each estimator has a many-cell form (qsl_ratio_many, qsl_ratio_evolved_many,
bures_comparator_many) that returns one entry per cell: the result, or the
exception the one-cell form would raise for it.  The one-cell forms are the
single-cell case and raise that exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .model import (
    ModelParams,
    amplitude_cells,
    amplitude_series,
    coefficient_table,
    excited_population,
)
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


def raise_first(results: list) -> list:
    """results, after raising the first per-cell exception among them, in cell order."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def _not_finite(**values) -> ValueError | None:
    """A ValueError naming the first of values that is NaN or infinite, else None."""
    for name, v in values.items():
        if not math.isfinite(v):
            return ValueError(f"{name} must be finite, got {v}")
    return None


def _trajectories(params: list[ModelParams], rho0: DensityMatrix2, tau_start: float):
    """Closed-form ingredients of each cell's trajectory displaced from rho(tau_start).

    Returns terms(rows, t): the displacement and rate terms of cells rows at nodes t.
    """
    ree0 = rho0.excited_population
    coh0 = rho0.coherence
    table = coefficient_table(params)
    pop_ref, coh_ref = [], []
    for p in params:
        c_ref, _ = amplitude_series(p, tau_start)
        pop_ref.append(ree0 * abs(c_ref) ** 2)
        coh_ref.append(coh0 * complex(c_ref))
    pop_ref, coh_ref = np.array(pop_ref, dtype=float), np.array(coh_ref, dtype=complex)

    def terms(rows: np.ndarray, t: np.ndarray):
        c, cdot = amplitude_cells(table, rows, t)
        disp_pop = ree0 * np.abs(c) ** 2 - pop_ref[rows, None]
        disp_coh = coh0 * c - coh_ref[rows, None]
        pdot = ree0 * 2.0 * (np.conj(c) * cdot).real
        cohdot = coh0 * cdot
        return disp_pop, disp_coh, pdot, cohdot

    return terms


def _kink_integrals(
    params: list[ModelParams], integrand, factors, a: list[float], b: list[float],
    spec: quad.QuadratureSpec | None,
) -> list:
    """Adaptive integral of integrand over each window [a[i], b[i]], split at factor sign changes.

    Cell i is the model point params[i] with its window.  factors(rows, t)
    returns the stacked factor values (one row per factor) of cells rows at
    nodes t, and integrand a product of their absolute values, so it has a
    kink wherever one of them changes sign.  Returns per cell (value, err)
    or a QuadratureError naming the model point and the window.
    """
    n_probe = [quad.probe_count_for_period(p.complex_root.imag, lo, hi)
               for p, lo, hi in zip(params, a, b)]
    root_win, roots = quad.find_sign_changes_many(factors, a, b, n_probe)
    results = quad.integrate_many(integrand, a, b, root_win, roots, spec or quad.QuadratureSpec())
    for i, r in enumerate(results):
        if isinstance(r, quad.QuadratureError):
            p = params[i]
            results[i] = quad.QuadratureError(
                f"speed-limit integral failed for gamma0={p.gamma0}, delta={p.delta}, "
                f"window [{a[i]}, {b[i]}]: {r}",
                value=r.value,
                err_estimate=r.err_estimate,
            )
            results[i].__cause__ = r
    return results


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
    value = raise_first(_lambda_cores([p], rho0, tau_start, tau_d, spec)[0])[0][0]
    return value, value, value


def _lambda_cores(
    params: list[ModelParams], rho0: DensityMatrix2, tau_start: float, tau_d: float,
    spec: quad.QuadratureSpec | None,
):
    """Per cell (averaged integral, quadrature error) or its exception; the trajectory terms."""
    error = _not_finite(tau_d=tau_d, tau_start=tau_start)
    if error is not None:
        return [error] * len(params), None
    if tau_d <= 0.0:
        return [ValueError("tau_d must be positive")] * len(params), None
    if tau_start < 0.0:
        return [ValueError("tau_start must be nonnegative")] * len(params), None
    terms = _trajectories(params, rho0, tau_start)

    def integrand(rows, t):
        disp_pop, disp_coh, pdot, cohdot = terms(rows, t)
        disp = 2.0 * np.sqrt(disp_pop**2 + np.abs(disp_coh) ** 2)
        rate = np.sqrt(pdot**2 + np.abs(cohdot) ** 2)
        return disp * rate

    def factors(rows, t):
        disp_pop, _, pdot, _ = terms(rows, t)
        return np.stack((pdot, disp_pop))

    n = len(params)
    results = _kink_integrals(params, integrand, factors, [tau_start] * n,
                              [tau_start + tau_d] * n, spec)
    # 1, sqrt(2)*sqrt(2), 2x the operator-norm integrand all give 2*I/tau_d.
    return [r if isinstance(r, Exception) else (2.0 * r[0] / tau_d, r[1]) for r in results], terms


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
    return raise_first(qsl_ratio_many([p], rho0, tau_d, tau_start, spec))[0]


def qsl_ratio_many(
    params: list[ModelParams],
    rho0: DensityMatrix2,
    tau_d: float,
    tau_start: float = 0.0,
    spec: quad.QuadratureSpec | None = None,
) -> list:
    """qsl_ratio for every model point in params; a failed cell's entry is its exception."""
    cores, terms = _lambda_cores(params, rho0, tau_start, tau_d, spec)
    ok = [i for i, r in enumerate(cores) if not isinstance(r, Exception)]
    if ok:
        rows = np.array(ok)
        end = np.full((rows.size, 1), tau_start + tau_d)
        # disp_pop is real, so stacking it with disp_coh as complex loses nothing.
        disp = quad.evaluate(lambda r, t: np.stack(terms(r, t)[:2]), rows, end)[:, :, 0]
    out = list(cores)
    for j, i in enumerate(ok):
        lam_val, err = cores[i]
        disp_norm = 2.0 * math.sqrt(float(disp[0, j].real) ** 2 + abs(complex(disp[1, j])) ** 2)
        d_measure = 1.0 - 0.25 * disp_norm**2
        stationary = lam_val < _STATIONARY_TOL
        if stationary:
            # ratio = tau_d / tau_d is exactly 1.
            lam_val, tau_qsl = 0.0, tau_d
        else:
            tau_qsl = 2.0 * abs(1.0 - d_measure) / lam_val
        out[i] = BoundReport(
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
    return out


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
    return raise_first(qsl_ratio_evolved_many([p], [tau], tau_d, spec))[0]


def qsl_ratio_evolved_many(
    params: list[ModelParams],
    taus: list[float],
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> list:
    """qsl_ratio_evolved for cells (params[i], taus[i]); a failed cell's entry is its exception."""
    out: list = [
        _not_finite(tau=tau, tau_d=tau_d)
        or (ValueError("tau must be nonnegative") if tau < 0.0
            else ValueError("tau_d must be positive") if tau_d <= 0.0 else None)
        for tau in taus
    ]
    ok = [i for i, r in enumerate(out) if r is None]
    cells = [params[i] for i in ok]
    a = [taus[i] for i in ok]
    b = [tau + tau_d for tau in a]
    table = coefficient_table(cells)
    p_ref = [excited_population(p, tau) for p, tau in zip(cells, a)]
    p_ref_col = np.array(p_ref, dtype=float)

    def factors(rows, t):
        # Pdot and P - P_ref, as in population_rate and excited_population.
        c, cdot = amplitude_cells(table, rows, t)
        return np.stack((2.0 * (np.conj(c) * cdot).real, np.abs(c) ** 2 - p_ref_col[rows, None]))

    def integrand(rows, t):
        pdot, pdisp = factors(rows, t)
        return np.abs(pdisp * pdot)

    results = _kink_integrals(cells, integrand, factors, a, b, spec)
    for i, p, bi, ref, r in zip(ok, cells, b, p_ref, results):
        if isinstance(r, Exception):
            out[i] = r
            continue
        num = (excited_population(p, bi) - ref) ** 2
        den = 2.0 * r[0]
        out[i] = 1.0 if den < _STATIONARY_TOL else num / den
    return out


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
    return raise_first(bures_comparator_many([p], tau_d, spec))[0]


def bures_comparator_many(
    params: list[ModelParams], tau_d: float, spec: quad.QuadratureSpec | None = None
) -> list:
    """bures_comparator for every model point in params; a failed cell's entry is its exception."""
    error = _not_finite(tau_d=tau_d)
    if error is not None:
        return [error] * len(params)
    if tau_d <= 0.0:
        return [ValueError("tau_d must be positive")] * len(params)
    table = coefficient_table(params)

    def pdot(rows, t):
        # population_rate, for cells rows.
        c, cdot = amplitude_cells(table, rows, t)
        return 2.0 * (np.conj(c) * cdot).real

    def abs_pdot(rows, t):
        return np.abs(pdot(rows, t))

    # For the excited trajectory rhod is diagonal, so ||rhod||_inf = |Pdot|.
    n = len(params)
    results = _kink_integrals(params, abs_pdot, pdot, [0.0] * n, [tau_d] * n, spec)
    out: list = []
    for p, r in zip(params, results):
        if isinstance(r, Exception):
            out.append(r)
            continue
        sin2_b = 1.0 - excited_population(p, tau_d)
        out.append(1.0 if r[0] < _STATIONARY_TOL else sin2_b / r[0])
    return out
