"""Parameter sweeps: ratio surfaces, transition maps, and time series.

Cells and sweep points are independent pure computations.  Each sweep
hands all of its cells to one batched kink integral (the many-cell forms
in bounds), which evaluates the closed form for many cells per call, in
chunks of quad._CHUNK_POINTS nodes and in a fixed order.  A node's bits do
not depend on its call, so a cell's result does not depend on its batch.  Invalid input (a
model point, an axis or a window) raises ValueError before any work.  A
point whose quadrature does not converge is recorded in its place, as its
QuadratureError, and the sweep carries on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .bounds import SPEED_UP_TOL, BoundReport, qsl_ratio_evolved_many, qsl_ratio_many
from .model import ModelParams, check_grid_size, decay_rate, markov_limit
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
    errors: list[list[quad.QuadratureError | None]]


@dataclass
class TimeSeries:
    """A sampled scalar time series with optional per-point clip markers and errors.

    clipped is a bool array like times and values.  A point whose value
    failed holds NaN, and its exception in errors.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    params: ModelParams
    clip: float | None = None
    clipped: np.ndarray | None = None
    errors: list[quad.QuadratureError | None] | None = None


def grid_scan(
    gamma0_axis,
    delta_axis,
    lam: float,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> ScanGrid:
    """qsl_ratio over the (gamma0, delta) grid with the excited initial state.

    A cell whose quadrature fails has no report, the classification "error"
    and its QuadratureError in errors; the scan carries on.
    """
    gamma0_axis = np.asarray(gamma0_axis, dtype=float)
    delta_axis = np.asarray(delta_axis, dtype=float)
    if gamma0_axis.size == 0 or delta_axis.size == 0:
        raise ValueError("scan axes must be non-empty")
    if np.any(np.diff(gamma0_axis) <= 0.0) or np.any(np.diff(delta_axis) <= 0.0):
        raise ValueError("scan axes must be strictly increasing")
    params = [
        ModelParams(gamma0=g0, lam=lam, delta=delta)
        for g0 in gamma0_axis.tolist() for delta in delta_axis.tolist()
    ]
    results = qsl_ratio_many(params, DensityMatrix2.excited(), tau_d, spec=spec)
    rows = [results[k:k + delta_axis.size] for k in range(0, len(results), delta_axis.size)]
    cells = [[r if isinstance(r, BoundReport) else None for r in row] for row in rows]
    return ScanGrid(
        gamma0_axis=gamma0_axis,
        delta_axis=delta_axis,
        lam=lam,
        tau_d=tau_d,
        cells=cells,
        classification=[[classify(r.ratio) if r else "error" for r in row] for row in cells],
        errors=[[None if isinstance(r, BoundReport) else r for r in row] for row in rows],
    )


def transition_boundary(
    grid: ScanGrid, spec: quad.QuadratureSpec | None = None
) -> list[tuple[float, float | quad.QuadratureError, int]]:
    """Classification flips per detuning row, refined by bisection on gamma0.

    Returns (delta, gamma0_boundary, flip_index) triples; flip_index counts
    the entries of the row (rows can flip more than once in the
    strong-coupling regime).  Rows with uniform classification are omitted.
    A failed scan cell has its own entry, in gamma0 order, with its
    QuadratureError as gamma0_boundary; no flip is searched across it.  A
    flip whose bisection fails has its QuadratureError as gamma0_boundary.
    """
    rho0 = DensityMatrix2.excited()
    # One entry per flip or failed cell, in row order:
    # [delta, lo, hi, lo is speed-up, flip_index, error].
    flips = []
    gamma0s = grid.gamma0_axis.tolist()
    for j, delta in enumerate(grid.delta_axis.tolist()):
        col = [grid.classification[i][j] for i in range(len(gamma0s))]
        flip_index = 0
        for i, g0 in enumerate(gamma0s):
            if col[i] == "error":
                flips.append([delta, g0, g0, False, flip_index, grid.errors[i][j]])
            elif i + 1 < len(col) and col[i + 1] not in ("error", col[i]):
                flips.append([delta, g0, gamma0s[i + 1], col[i] == "speed_up", flip_index, None])
            else:
                continue
            flip_index += 1
    # Bisect every flip in log(gamma0) to 1e-3 relative width, one batch per
    # step.  A flip whose step fails stops there, keeping the QuadratureError.
    active = [k for k, f in enumerate(flips) if f[5] is None and f[2] / f[1] > 1.0 + 1e-3]
    while active:
        mids = [math.sqrt(flips[k][1] * flips[k][2]) for k in active]
        params = [ModelParams(gamma0=mid, lam=grid.lam, delta=flips[k][0])
                  for k, mid in zip(active, mids)]
        reports = qsl_ratio_many(params, rho0, grid.tau_d, spec=spec)
        for k, mid, report in zip(active, mids, reports):
            if isinstance(report, Exception):
                flips[k][5] = report
            elif (classify(report.ratio) == "speed_up") == flips[k][3]:
                flips[k][1] = mid
            else:
                flips[k][2] = mid
        active = [k for k in active
                  if flips[k][5] is None and flips[k][2] / flips[k][1] > 1.0 + 1e-3]
    return [(delta, math.sqrt(lo * hi) if error is None else error, index)
            for delta, lo, hi, _, index, error in flips]


def _time_grid(name: str, end: float, n_points: int) -> np.ndarray:
    """n_points uniform times from 0 to end, the input name; at least 2, and end finite and
    nonnegative."""
    check_grid_size("n_points", n_points, 2)
    if not math.isfinite(end):
        raise ValueError(f"{name} must be finite, got {end}")
    if end < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {end}")
    return np.linspace(0.0, end + 0.0, n_points)  # a grid to -0.0 ends at +0.0


def sweep_tau(
    p: ModelParams,
    tau_max: float,
    n_points: int,
    tau_d: float,
    spec: quad.QuadratureSpec | None = None,
) -> TimeSeries:
    """Evolved-initial-state ratio on a uniform tau grid; a failed tau's value is NaN."""
    taus = _time_grid("tau_max", tau_max, n_points)
    results = qsl_ratio_evolved_many([p] * n_points, taus.tolist(), tau_d, spec=spec)
    errors = [r if isinstance(r, Exception) else None for r in results]
    values = np.array([r if e is None else math.nan for r, e in zip(results, errors)], dtype=float)
    return TimeSeries(times=taus, values=values, kind="ratio_vs_tau", params=p, errors=errors)


def sweep_decay_rate(
    p: ModelParams, t_max: float, n_points: int, clip: float = DEFAULT_CLIP
) -> TimeSeries:
    """gamma(t)/gamma0 on a uniform grid, clipping singular spikes to +-clip.

    For detuned parameters the tail settles at markov_limit(p)/gamma0.
    """
    times = _time_grid("t_max", t_max, n_points)
    if not clip > 0.0:  # NaN fails too
        raise ValueError("clip must be positive")
    raw = np.asarray(decay_rate(p, times), dtype=float) / p.gamma0
    nan = np.isnan(raw)
    values = np.where(nan, clip, np.clip(raw, -clip, clip))
    clipped = nan | (np.abs(raw) > clip)
    return TimeSeries(
        times=times, values=values, kind="decay_rate", params=p, clip=clip, clipped=clipped
    )


def markov_tail(p: ModelParams) -> float:
    """Normalized Markovian plateau markov_limit(p)/gamma0 for decay-rate plots."""
    return markov_limit(p) / p.gamma0
