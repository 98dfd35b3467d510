"""Adaptive 1-D quadrature with breakpoint support, plus sign-change location.

The integrand is called with a numpy array of nodes and must return an array
of the same shape; all callers in this package are vectorized closed forms.
The embedded pair is Gauss-Legendre 7 (low) vs 15 (high) per panel, with
adaptive bisection, which copes with the oscillatory strong-coupling
integrands whose period varies across the scan grid.
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
    """Roots of f in (a, b) located by uniform probing plus bisection.

    Each bracketed sign change is bisected to a width of 1e-12 * (b - a).
    Roots closer together than (b - a) / n_probe can be missed; callers
    should size n_probe from the expected oscillation period.
    """
    if n_probe < 2:
        raise ValueError("n_probe must be at least 2")
    a = float(a)
    b = float(b)
    if b <= a:
        return []
    grid = np.linspace(a, b, n_probe + 1)
    vals = np.asarray(f(grid), dtype=float)
    if not vals.any():
        # An identically zero factor has no kinks, not one root per probe.
        return []
    roots: list[float] = []
    target = 1e-12 * (b - a)
    for i in range(n_probe):
        v1, v2 = vals[i], vals[i + 1]
        if v1 == 0.0:
            if not roots or abs(grid[i] - roots[-1]) > target:
                roots.append(float(grid[i]))
            continue
        if v1 * v2 >= 0.0:
            continue
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo = float(v1)
        while hi - lo > target:
            mid = 0.5 * (lo + hi)
            fmid = float(f(np.asarray([mid]))[0])
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0 and b > a:
        roots.append(b)
    return [r for r in roots if a < r < b]


def probe_count_for_period(im_root: float, a: float, b: float, per_period: int = 64) -> int:
    """Probe count giving per_period samples per oscillation of the model family.

    The model oscillates with angular frequency |Im d|, i.e. period
    2*pi/|Im d|; weak-coupling (non-oscillatory) windows fall back to the
    base count.
    """
    periods = abs(im_root) * (b - a) / (2.0 * math.pi)
    return max(per_period, int(math.ceil(per_period * periods)))
