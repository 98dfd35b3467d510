"""Parameter sweeps: ratio surfaces, transition maps, and time series.

Cells and sweep points are independent pure computations.  Each sweep
hands all of its cells to one batched kink integral (the many-cell forms
in bounds), which evaluates the closed form for many cells per call, in
chunks of fewer than 16,384 nodes and in a fixed order, so the result of
a cell does not depend on which cells share its batch.  Sweeps that stop
at an error raise the one a cell-by-cell loop would have met first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .bounds import (
    SPEED_UP_TOL,
    BoundReport,
    qsl_ratio_evolved_many,
    qsl_ratio_many,
    raise_first,
)
from .model import MAX_GRID_POINTS, ModelParams, decay_rate, markov_limit
from .smatrix import DensityMatrix2

DEFAULT_CLIP = 25.0


def classify(ratio: float) -> str:
    return "speed_up" if ratio < 1.0 - SPEED_UP_TOL else "no_speed_up"


def gamma0_range(lam: float) -> tuple[float, float]:
    """The figure's coupling range, 0.02*lam .. 20*lam."""
    return 0.02 * lam, 20.0 * lam


def default_gamma0_axis(lam: float, n: int = 30) -> np.ndarray:
    """Log-spaced couplings covering gamma0_range(lam)."""
    return np.geomspace(*gamma0_range(lam), n)


def default_delta_axis(lam: float, n: int = 21) -> np.ndarray:
    """Linear detunings covering 0 .. 10*lam."""
    return np.linspace(0.0, 10.0 * lam, n)


@dataclass
class ScanGrid:
    """Ratio surface over (gamma0, delta) with per-cell classification."""

    gamma0_axis: np.ndarray
    delta_axis: np.ndarray
    lam: float
    tau_d: float
    cells: list[list[BoundReport | None]]
    classification: list[list[str]]
    errors: list[list[str | None]]


@dataclass
class TimeSeries:
    """A sampled scalar time series with optional per-point clip markers."""

    times: np.ndarray
    values: np.ndarray
    kind: str
    params: ModelParams
    clip: float | None = None
    clipped: list[bool] | None = None


def grid_scan(
    gamma0_axis,
    delta_axis,
    lam: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> ScanGrid:
    """qsl_ratio over the (gamma0, delta) grid with the excited initial state.

    Individual cell failures are recorded and the scan continues.
    """
    gamma0_axis = np.asarray(gamma0_axis, dtype=float)
    delta_axis = np.asarray(delta_axis, dtype=float)
    if gamma0_axis.size == 0 or delta_axis.size == 0:
        raise ValueError("scan axes must be non-empty")
    if np.any(np.diff(gamma0_axis) <= 0.0) or np.any(np.diff(delta_axis) <= 0.0):
        raise ValueError("scan axes must be strictly increasing")
    if not math.isfinite(tau_d):
        raise ValueError(f"tau_d must be finite, got {tau_d}")
    if tau_d <= 0.0:
        raise ValueError("tau_d must be positive")
    rho0 = DensityMatrix2.excited()
    cells: list[list[BoundReport | None]] = [
        [None] * delta_axis.size for _ in range(gamma0_axis.size)
    ]
    classification = [["error"] * delta_axis.size for _ in range(gamma0_axis.size)]
    errors: list[list[str | None]] = [[None] * delta_axis.size for _ in range(gamma0_axis.size)]
    params = [
        ModelParams(gamma0=g0, lam=lam, delta=delta)
        for g0 in gamma0_axis.tolist() for delta in delta_axis.tolist()
    ]
    results = qsl_ratio_many(params, rho0, tau_d, spec=spec)
    for k, result in enumerate(results):
        i, j = divmod(k, delta_axis.size)
        if isinstance(result, quad.QuadratureError):
            errors[i][j] = str(result)
            continue
        cells[i][j] = result
        classification[i][j] = classify(result.ratio)
    return ScanGrid(
        gamma0_axis=gamma0_axis,
        delta_axis=delta_axis,
        lam=lam,
        tau_d=tau_d,
        cells=cells,
        classification=classification,
        errors=errors,
    )


def transition_boundary(
    grid: ScanGrid, spec: quad.QuadratureSpec | None = None
) -> list[tuple[float, float, int]]:
    """Classification flips per detuning row, refined by bisection on gamma0.

    Returns (delta, gamma0_boundary, flip_index) triples; flip_index counts
    flips within the row (rows can flip more than once in the
    strong-coupling regime).  Rows with uniform classification are omitted.
    """
    rho0 = DensityMatrix2.excited()
    # One entry per flip, in row order: [delta, lo, hi, lo is speed-up, flip_index].
    flips = []
    for j, delta in enumerate(grid.delta_axis.tolist()):
        col = [grid.classification[i][j] for i in range(grid.gamma0_axis.size)]
        flip_index = 0
        for i in range(len(col) - 1):
            if "error" in (col[i], col[i + 1]) or col[i] == col[i + 1]:
                continue
            lo, hi = float(grid.gamma0_axis[i]), float(grid.gamma0_axis[i + 1])
            flips.append([delta, lo, hi, col[i] == "speed_up", flip_index])
            flip_index += 1
    # Bisect every flip in log(gamma0) to 1e-3 relative width, one batch per step.
    # A failed flip stops the flips after it, as a flip-by-flip loop would.
    failed: dict[int, Exception] = {}
    active = [k for k, f in enumerate(flips) if f[2] / f[1] > 1.0 + 1e-3]
    while active:
        mids = [math.sqrt(flips[k][1] * flips[k][2]) for k in active]
        params = [ModelParams(gamma0=mid, lam=grid.lam, delta=flips[k][0])
                  for k, mid in zip(active, mids)]
        reports = qsl_ratio_many(params, rho0, grid.tau_d, spec=spec)
        for k, mid, report in zip(active, mids, reports):
            if isinstance(report, Exception):
                failed[k] = report
            elif (classify(report.ratio) == "speed_up") == flips[k][3]:
                flips[k][1] = mid
            else:
                flips[k][2] = mid
        stop = min(failed, default=len(flips))
        active = [k for k in active if k < stop and flips[k][2] / flips[k][1] > 1.0 + 1e-3]
    if failed:
        raise failed[min(failed)]
    return [(delta, math.sqrt(lo * hi), index) for delta, lo, hi, _, index in flips]


def sweep_tau(
    p: ModelParams,
    tau_max: float,
    n_points: int,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> TimeSeries:
    """Evolved-initial-state ratio on a uniform tau grid."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not math.isfinite(tau_max):
        raise ValueError(f"tau_max must be finite, got {tau_max}")
    taus = np.linspace(0.0, tau_max, n_points)
    values = raise_first(qsl_ratio_evolved_many([p] * n_points, taus.tolist(), tau_d, spec=spec))
    return TimeSeries(
        times=taus, values=np.asarray(values, dtype=float), kind="ratio_vs_tau", params=p
    )


def sweep_decay_rate(
    p: ModelParams, t_max: float, n_points: int, clip: float = DEFAULT_CLIP
) -> TimeSeries:
    """gamma(t)/gamma0 on a uniform grid, clipping singular spikes to +-clip.

    For detuned parameters the tail settles at markov_limit(p)/gamma0.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if n_points > MAX_GRID_POINTS:
        raise ValueError(f"n_points={n_points} asks for more points than an array can hold")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if not clip > 0.0:  # NaN fails too
        raise ValueError("clip must be positive")
    times = np.linspace(0.0, t_max, n_points)
    raw = np.asarray(decay_rate(p, times), dtype=float) / p.gamma0
    nan = np.isnan(raw)
    values = np.where(nan, clip, np.clip(raw, -clip, clip))
    clipped = (nan | (np.abs(raw) > clip)).tolist()
    return TimeSeries(
        times=times, values=values, kind="decay_rate", params=p, clip=clip, clipped=clipped
    )


def markov_tail(p: ModelParams) -> float:
    """Normalized Markovian plateau markov_limit(p)/gamma0 for decay-rate plots."""
    return markov_limit(p) / p.gamma0
