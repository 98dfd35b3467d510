"""Adaptive 1-D quadrature with breakpoint support, plus sign-change location.

The integrand is called with a numpy array of nodes and must return an array
of the same shape; all callers in this package are vectorized closed forms.
The embedded pair is Gauss-Legendre 7 (low) vs 15 (high) per panel, with
adaptive bisection, which copes with the oscillatory strong-coupling
integrands whose period varies across the scan grid.

find_sign_changes locates the kinks to split at: it takes several factors
stacked as rows of one call, probes them all on one grid, and bisects every
bracket of every factor together, one array call per bisection step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, depth limit and interior non-smooth points for integrate()."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 40
    breakpoints: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be nonnegative")
        bp = tuple(float(b) for b in self.breakpoints)
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)


class QuadratureError(RuntimeError):
    """Adaptive refinement hit max_depth; carries the partial result."""

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


def _panel(f, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    hi = half * float(np.dot(_WEIGHTS_HI, np.asarray(f(mid + half * _NODES_HI), dtype=float)))
    lo = half * float(np.dot(_WEIGHTS_LO, np.asarray(f(mid + half * _NODES_LO), dtype=float)))
    return hi, abs(hi - lo)


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None) -> tuple[float, float]:
    """Adaptive integral of f over [a, b]; returns (value, err_estimate).

    The interval is pre-split at spec.breakpoints, then panels are bisected
    until each local error fits its width-proportional share of the global
    tolerance max(rel_tol * |rough value|, abs_tol).

    Raises QuadratureError (carrying the partial value) if any panel chain
    exceeds spec.max_depth.
    """
    spec = spec or QuadratureSpec()
    a = float(a)
    b = float(b)
    if b < a:
        raise ValueError("integrate requires a <= b")
    if b == a:
        return 0.0, 0.0
    width = b - a
    edges = [a] + [bp for bp in spec.breakpoints if a < bp < b] + [b]

    # Entries are (lo, hi, depth, (value, err) or None): the initial panels keep
    # the estimate already made for rough, bisected halves are evaluated on pop.
    panels = [(lo, hi, 0, _panel(f, lo, hi)) for lo, hi in zip(edges, edges[1:])]
    rough = sum(abs(first[0]) for *_, first in panels)
    tol = max(spec.rel_tol * rough, spec.abs_tol)

    total = 0.0
    err_total = 0.0
    # Deterministic LIFO order, left panels first.
    stack = panels[::-1]
    while stack:
        lo, hi, depth, first = stack.pop()
        value, err = first or _panel(f, lo, hi)
        if err <= tol * (hi - lo) / width or err <= spec.abs_tol:
            total += value
            err_total += err
            continue
        if depth >= spec.max_depth:
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}] after depth {depth}",
                value=total + value,
                err_estimate=err_total + err,
            )
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, depth + 1, None))
        stack.append((lo, mid, depth + 1, None))
    return total, err_total


def find_sign_changes(f, a: float, b: float, n_probe: int = 64) -> list[float]:
    """Sorted roots in (a, b) of one or more factors, by uniform probing plus bisection.

    f returns one row of values, or a stacked (k, n) array of k factors, for a
    1-d array of n times.  The probe grid is evaluated once, and every
    bracketed sign change of every factor is bisected in the same array
    passes, each to a width of 1e-12 * (b - a); exact-zero probes count as
    roots.  Roots closer together than (b - a) / n_probe can be missed;
    callers should size n_probe from the expected oscillation period.
    """
    if n_probe < 2:
        raise ValueError("n_probe must be at least 2")
    a = float(a)
    b = float(b)
    if b <= a:
        return []
    grid = np.linspace(a, b, n_probe + 1)
    vals = np.atleast_2d(np.array(f(grid), dtype=float))
    # An identically zero factor has no kinks, not one root per probe.
    vals[~vals.any(axis=1)] = 1.0
    rows, cols = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
    lo, hi, flo = grid[cols], grid[cols + 1], vals[rows, cols]
    target = 1e-12 * (b - a)
    live = np.flatnonzero(hi - lo > target)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        fmid = np.atleast_2d(f(mid))[rows[live], np.arange(live.size)]
        # fmid == 0 closes the bracket on mid; otherwise keep the sign change.
        left = flo[live] * fmid < 0.0
        hi[live] = np.where(left | (fmid == 0.0), mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
        flo[live] = np.where(left, flo[live], fmid)
        live = live[hi[live] - lo[live] > target]
    roots = np.union1d(grid[np.nonzero(vals == 0.0)[1]], 0.5 * (lo + hi))
    return roots[(a < roots) & (roots < b)].tolist()


def probe_count_for_period(im_root: float, a: float, b: float, per_period: int = 64) -> int:
    """Probe count giving per_period samples per oscillation of the model family.

    The model oscillates with angular frequency |Im d|, i.e. period
    2*pi/|Im d|; weak-coupling (non-oscillatory) windows fall back to the
    base count.
    """
    periods = abs(im_root) * (b - a) / (2.0 * math.pi)
    return max(per_period, int(math.ceil(per_period * periods)))
