"""Independent reference for the checks: numpy only, no qslkit imports.

The excited-state amplitude obeys the memory-kernel system

    C' = -B,    B' = (gamma0*lam/2) C - (lam - i*delta) B,    C(0)=1, B(0)=0,

a 2x2 linear ODE with constant coefficients.  Its solution is taken from the
eigen-decomposition of the system matrix, so no closed form, quadrature or
root-finding routine of the program is reused.  The speed-limit ratios are
written as total variations, which need only the extrema of P = |C|^2:

    excited-state ratio  = dP_end^2 / TV(dP^2)   with dP = P - P(window start)
    Bures ratio          = (1 - P(tau_d)) / TV(P) over [0, tau_d]

TV of dP^2 over a piece where P is monotone is |h(end) - h(start)| with
h = dP*|dP|, so both totals are sums over the extrema of P.
"""

from __future__ import annotations

import math

import numpy as np

# Samples per oscillation period of P when bracketing its extrema, and the
# least number of samples in any window.
_PER_PERIOD = 96
_MIN_SAMPLES = 2048
_BISECTIONS = 60


class Reference:
    """C(t), C'(t) and the derived quantities for one (gamma0, lam, delta)."""

    def __init__(self, gamma0: float, lam: float, delta: float):
        self.gamma0 = float(gamma0)
        self.lam = float(lam)
        self.delta = float(delta)
        m = np.array(
            [[0.0, -1.0], [0.5 * gamma0 * lam, -(lam - 1j * delta)]], dtype=complex
        )
        w, v = np.linalg.eig(m)
        coef = np.linalg.solve(v, np.array([1.0, 0.0], dtype=complex))
        self._w = w
        self._c_rows = v[0] * coef
        self._b_rows = v[1] * coef
        # P oscillates at most at the beat frequency of the two modes.
        self.beat = abs((w[0] - w[1]).imag)

    def amplitude(self, t):
        """C(t) and C'(t) = -B(t) on an array of times."""
        t = np.asarray(t, dtype=float)
        e = np.exp(np.multiply.outer(t, self._w))
        return e @ self._c_rows, -(e @ self._b_rows)

    def population(self, t):
        c, _ = self.amplitude(t)
        return np.abs(c) ** 2

    def _pdot(self, t):
        c, cdot = self.amplitude(t)
        return 2.0 * (np.conj(c) * cdot).real

    def _pddot(self, t):
        # C'' = -B' = -(k C + (lam - i delta) C') from the system above.
        c, cdot = self.amplitude(t)
        cddot = -(0.5 * self.gamma0 * self.lam * c + (self.lam - 1j * self.delta) * cdot)
        return 2.0 * (np.abs(cdot) ** 2 + (np.conj(c) * cddot).real)

    @staticmethod
    def _bisect(f, lo, hi):
        s_lo = np.sign(f(lo))
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            same = np.sign(f(mid)) == s_lo
            lo = np.where(same, mid, lo)
            hi = np.where(same, hi, mid)
        return 0.5 * (lo + hi)

    def extrema(self, a: float, b: float) -> np.ndarray:
        """a, the interior extrema of P in (a, b) in order, and b.

        A sample step holding a sign change of P' holds one extremum.  A step
        where P' keeps its sign but P'' changes sign holds a turning point of
        P'; if P' changes sign there, the step holds a close pair of extrema,
        each bracketed on its own side of the turning point.
        """
        periods = self.beat * (b - a) / (2.0 * math.pi)
        n = max(_MIN_SAMPLES, int(math.ceil(_PER_PERIOD * periods)))
        grid = np.linspace(a, b, n + 1)
        s = np.sign(self._pdot(grid))
        q = np.sign(self._pddot(grid))
        left, right = grid[:-1], grid[1:]
        single = s[:-1] * s[1:] < 0.0
        bend = (s[:-1] == s[1:]) & (s[:-1] != 0.0) & (q[:-1] * q[1:] < 0.0)
        turn = self._bisect(self._pddot, left[bend], right[bend])
        pair = np.sign(self._pdot(turn)) == -s[:-1][bend]
        lo = np.concatenate((left[single], left[bend][pair], turn[pair]))
        hi = np.concatenate((right[single], turn[pair], right[bend][pair]))
        roots = np.sort(self._bisect(self._pdot, lo, hi))
        return np.concatenate(([a], roots, [b]))

    def excited_ratio(self, tau: float, tau_d: float) -> tuple[float, float]:
        """(dP_end^2 / TV(dP^2), TV(dP^2)) over [tau, tau + tau_d].

        The ratio is 1 for a window where P is monotone.
        """
        pts = self.extrema(tau, tau + tau_d)
        dp = self.population(pts) - self.population(pts[:1])[0]
        h = dp * np.abs(dp)
        tv = float(np.sum(np.abs(np.diff(h))))
        return float(dp[-1] ** 2) / tv, tv

    def bures_ratio(self, tau_d: float) -> float:
        """(1 - P(tau_d)) / TV(P) over [0, tau_d] (operator-norm variant)."""
        pts = self.extrema(0.0, tau_d)
        pop = self.population(pts)
        return float(1.0 - pop[-1]) / float(np.sum(np.abs(np.diff(pop))))

    def decay_rate(self, t) -> np.ndarray:
        """-2 Re(C'/C)."""
        c, cdot = self.amplitude(t)
        return -2.0 * (cdot / c).real

    def long_time_rate(self) -> float:
        """Decay rate of the slowest mode, the limit of decay_rate at large t."""
        return -2.0 * float(np.max(self._w.real))
