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
energy starts or stops flowing back from the reservoir.  All three run on
one cell set, _Cells, for many cells (model point plus window) at once: it
validates each window once, builds one coefficient row per distinct model
point, evaluates C at every window's start and end in one batched call,
searches the sign changes of both kink factors (Pdot, P - P_ref) once and
integrates; an estimator adds
its integrand, the factors it holds, whose roots split it, and its epilogue.
P has one formula, so P - P_ref is exactly 0 at each window's start and each
numerator uses the P of its integrand.

The many-cell forms (qsl_ratio_many, qsl_ratio_evolved_many, and
excited_ratios_many: the excited state's trace and Bures ratios on one cell
set) raise the first invalid window, in cell order, before any work, and
return per cell the result or the engine's QuadratureError, relabelled to
name the cell.  The one-cell forms are the single-cell case and raise it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import model, quad
from .model import (
    MAX_GRID_POINTS, ModelParams, amplitude_bounds, bound_rates, coefficient_table,
)
from .smatrix import DensityMatrix2

# Ratios below 1 - SPEED_UP_TOL count as genuine speed-up; larger values are
# quadrature noise on the no-speed-up plateau.
SPEED_UP_TOL = 1e-6

_STATIONARY_TOL = 1e-30

# Masks of find_sign_changes_many's root bits: Pdot's roots; Pdot's and P - P_ref's.
_PDOT, _BOTH = 1, 3


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


def _check_window(name: str, start: float, tau_d: float) -> None:
    """Raise ValueError if the window [start, start + tau_d] is invalid; name is start's input."""
    if not math.isfinite(tau_d):
        raise ValueError(f"tau_d must be finite, got {tau_d}")
    if not math.isfinite(start):
        raise ValueError(f"{name} must be finite, got {start}")
    if tau_d <= 0.0:
        raise ValueError("tau_d must be positive")
    if start < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if start + tau_d == start:
        raise ValueError(f"{name}={start} and tau_d={tau_d} give a window with no width")
    if not math.isfinite(start + tau_d):
        raise ValueError(f"{name}={start} and tau_d={tau_d} give a window whose end is not finite")


class _Cells:
    """The cells (model point, window [start, start + tau_d]) of one request's estimators.

    Checks every window, in cell order, and its probe count, builds one
    coefficient row (and complex root) per distinct model point, keyed by the
    bits of its fields, indexes the cells' table and bound_rates from them
    once, and evaluates C at every window's start and end in one
    batched call: c_ends and p_ends, with P as terms forms it, are (cells, 2),
    so P_ref and P_end are columns 0 and 1.  kinks, (window, root, factor
    bits), holds the sign changes of both kink factors, searched once for
    every integral.  scale multiplies P and Pdot (the initial excited
    population).
    """

    def __init__(self, params, starts, tau_d: float, name: str, scale: float = 1.0):
        for s in starts:
            _check_window(name, s, tau_d)
        self.params, self.a = params, starts
        self.b = [s + tau_d for s in self.a]
        # One coefficient row per distinct model point, keyed by its bits: delta 0.0 and -0.0
        # are equal ModelParams with complex roots of opposite signs.
        keys = [struct.pack("<4d", p.gamma0, p.lam, p.delta, p.omega0) for p in params]
        points = dict(zip(keys, params))
        index = {key: i for i, key in enumerate(points)}
        point = [index[key] for key in keys]
        im_roots = [p.complex_root.imag for p in points.values()]
        self.n_probe = [quad.probe_count_for_period(im_roots[i], lo, hi)
                        for i, lo, hi in zip(point, self.a, self.b)]
        for p, lo, hi, n in zip(self.params, self.a, self.b, self.n_probe):
            if not n <= MAX_GRID_POINTS:
                raise ValueError(
                    f"gamma0={p.gamma0}, delta={p.delta} and window [{lo}, {hi}] ask for "
                    f"{n:.6g} probes, more than an array can hold"
                )
        self.table = coefficient_table(list(points.values()))[:, point]
        self.rates = bound_rates(self.table)
        self.scale = scale
        ends = np.column_stack((self.a, self.b))
        self.c_ends = quad.evaluate(lambda rows, t: model.amplitude_cells(self.table, rows, t)[0],
                                    np.arange(len(ends)), ends)[0]
        self.p_ends = self.scale * np.abs(self.c_ends) ** 2
        # Only the probes and midpoints whose signs kink_bounds cannot certify are evaluated.
        self.kinks = quad.find_sign_changes_many(lambda rows, t: self.terms(rows, t)[2], self.a,
                                                 self.b, self.n_probe, bound=self.kink_bounds)

    def terms(self, rows: np.ndarray, t: np.ndarray):
        """C, Cdot and the kink factors of cells rows at nodes t, stacked: Pdot and P - P_ref."""
        c, cdot = model.amplitude_cells(self.table, rows, t)
        # population_rate and excited_population, scaled.
        pdot = self.scale * 2.0 * (np.conj(c) * cdot).real
        return c, cdot, np.stack((pdot, self.scale * np.abs(c) ** 2 - self.p_ends[rows, :1]))

    def kink_bounds(self, rows: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Per factor of terms and interval [t0[i], t1[i]] of cell rows[i], the bounds that
        quad.find_sign_changes_many certifies signs with: (2, factors, len(rows)), on |f''| and
        on |f~ - f|, the rounding error of the f~ that terms computes.

        The curvatures are amplitude_bounds' |P'''| for Pdot and its |Pddot| for P - P_ref,
        from P's two-mode form, times scale.  Pdot's error follows from the bounds on |C| and
        |Cdot| and on their errors, which cover the product's own rounding; P_ref is one
        computed constant, and only the subtraction rounds it.
        """
        c, cdot, pddot, pdddot, err_c, err_cdot = amplitude_bounds(self.rates, rows, t0, t1)
        c_hat, cdot_hat = c + err_c, cdot + err_cdot
        s = self.scale
        # Infinite bounds (d = 0) certify nothing.
        with np.errstate(over="ignore", invalid="ignore"):
            err = (2.0 * s * (c_hat * cdot_hat - c * cdot),
                   s * (c_hat * c_hat - c * c) + 2.0**-52 * np.abs(self.p_ends[rows, 0]))
            return np.array(((s * pdddot, s * pddot), err))

    def integrate(self, integrand, factors: int, spec: quad.QuadratureSpec | None, epilogue):
        """Per cell j, epilogue(j, value, err) of the adaptive integral of integrand over
        its window, split at kinks, or the engine's QuadratureError for that window.

        integrand(rows, t) is a product of absolute values of the kink
        factors that the mask factors (_PDOT or _BOTH) selects, so it has a
        kink wherever one of them changes sign, and is split at their roots
        alone.  A failed cell's error is relabelled in place to name the
        model point and the window, so it pickles back whole.
        """
        root_win, roots, bits = self.kinks
        take = (bits & factors) != 0
        results = quad.integrate_many(integrand, self.a, self.b, root_win[take], roots[take],
                                      spec or quad.QuadratureSpec())
        for j, (p, r) in enumerate(zip(self.params, results)):
            if isinstance(r, quad.QuadratureError):
                r.args = (f"speed-limit integral failed for gamma0={p.gamma0}, delta={p.delta}, "
                          f"window [{self.a[j]}, {self.b[j]}]: {r}",)
            else:
                results[j] = epilogue(j, *r)
        return results


def _lambda_cores(params: list[ModelParams], rho0: DensityMatrix2, tau_start: float,
                  tau_d: float):
    """The cells; the integrand of cells rows at nodes t, whose window integral I gives every
    averaged integral as 2 * I / tau_d (1, sqrt(2)*sqrt(2) and 2x the operator-norm
    integrand); and the epilogue that turns it into cell j's BoundReport."""
    ree0 = rho0.excited_population
    coh0 = rho0.coherence
    cells = _Cells(params, [tau_start] * len(params), tau_d, "tau_start", scale=ree0)
    coh_ends = coh0 * cells.c_ends

    def integrand(rows, t):
        c, cdot, (pdot, disp_pop) = cells.terms(rows, t)
        disp = 2.0 * np.sqrt(disp_pop**2 + np.abs(coh0 * c - coh_ends[rows, :1]) ** 2)
        rate = np.sqrt(pdot**2 + np.abs(coh0 * cdot) ** 2)
        return disp * rate

    def report(j, value, err):
        lam_val = 2.0 * value / tau_d
        (p_ref, p_end), (coh_ref, coh_end) = cells.p_ends[j].tolist(), coh_ends[j]
        disp_norm = 2.0 * math.sqrt((p_end - p_ref) ** 2 + abs(complex(coh_end - coh_ref)) ** 2)
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

    return cells, integrand, report


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
    """qsl_ratio for every model point in params; a failed cell's entry is its error."""
    cells, integrand, report = _lambda_cores(params, rho0, tau_start, tau_d)
    return cells.integrate(integrand, _BOTH, spec, report)


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
    """qsl_ratio_evolved for cells (params[i], taus[i]); a failed cell's entry is its error."""
    cells = _Cells(params, taus, tau_d, "tau")

    def integrand(rows, t):
        pdot, pdisp = cells.terms(rows, t)[2]
        return np.abs(pdisp * pdot)

    def ratio(j, value, err):
        den = 2.0 * value
        if den < _STATIONARY_TOL:
            return 1.0
        p_ref, p_end = cells.p_ends[j].tolist()
        return (p_end - p_ref) ** 2 / den

    return cells.integrate(integrand, _BOTH, spec, ratio)


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
    return raise_first(excited_ratios_many([p], tau_d, spec)[1])[0]


def excited_ratios_many(
    params: list[ModelParams], tau_d: float, spec: quad.QuadratureSpec | None = None
) -> tuple[list, list]:
    """The excited state's qsl_ratio reports and bures_comparator ratios on [0, tau_d] for
    every model point in params, from one cell set; a failed cell's entry is its error."""
    cells, integrand, report = _lambda_cores(params, DensityMatrix2.excited(), 0.0, tau_d)

    def bures(j, value, err):
        if value < _STATIONARY_TOL:
            return 1.0
        return (1.0 - cells.p_ends[j, 1].item()) / value

    # For the excited trajectory rhod is diagonal, so ||rhod||_inf = |Pdot|.
    return (cells.integrate(integrand, _BOTH, spec, report),
            cells.integrate(lambda rows, t: np.abs(cells.terms(rows, t)[2][0]), _PDOT, spec, bures))
