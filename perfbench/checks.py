"""Output checks against the independent reference, run outside the timed section.

Every row a request returns is one operation.  A row fails when it disagrees
with the reference or breaks a property the program promises; a request whose
output cannot be parsed at all is a problem that makes the run incorrect.

Two conventions of the program are part of what it promises, and the checks
expect them rather than the bare mathematics:

* a window whose TV(dP^2) = 2 * int |dP * P'| dt is below STATIONARY_TV is
  reported as stationary, ratio exactly 1 (`bounds._STATIONARY_TOL`);
* a time where |C| is below SINGULAR_C is a zero of C, so its decay rate is
  NaN and the series clips it to +clip (`model.AMPLITUDE_SINGULAR_TOL`).
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field

import numpy as np

from reference import Reference

# The program integrates to rel_tol 1e-9; ratios lie in (0, 1].
RATIO_TOL = 1e-8
# The program's classification threshold (bounds.SPEED_UP_TOL).
SPEED_UP_TOL = 1e-6
STATIONARY_TV = 1e-30
SINGULAR_C = 1e-12
# Decay rates are compared relative to max(1, |reference|).
RATE_TOL = 1e-8
# Echoed axes and grids are compared relative to their own scale.
GRID_TOL = 1e-12
ORACLE_TOL = 1e-6
# The detuned long-time rate settles within 1% of the Markovian formula
# (acceptance criterion 4) and equals the slowest mode's rate exactly.
MARKOV_TOL = 0.01
TAIL_TOL = 1e-8
# Boundary points are bracketed by reference ratios this factor away.
BOUNDARY_STEP = 1.002
# Decay-rate rows checked against the reference, drawn with the run's seed.
# Every row of the other outputs is checked, so their failed counts are exact.
SAMPLE_ROWS = 4096

HEADERS = {
    "scan": "gamma0,delta,lambda,tau_d,ratio,classification,quad_err",
    "boundary": "delta,gamma0_boundary,flip_index",
    "compare-bounds": "gamma0,ratio_trace,ratio_bures",
    "sweep-tau": "tau,ratio",
    "decay-rate": "t,gamma_over_gamma0,clipped",
    "oracle-check": "gamma0,delta,lambda,t_max,step,max_abs_error",
}


@dataclass
class Outcome:
    """Rows attempted, indices of rows that failed, and unparsable-output problems."""

    attempted: int = 0
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, row: int, why: str) -> None:
        if row not in self.failed and len(self.notes) < 5:
            self.notes.append(f"row {row}: {why}")
        self.failed.add(row)


class Checker:
    """Checks the requests of one round; later requests may use earlier outputs."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.scan_classes = None

    def check(self, request, text: str) -> Outcome:
        out = Outcome()
        lines = text.splitlines()
        header = HEADERS[request.kind]
        if not lines or lines[0] != header:
            out.problems.append(f"{request.kind}: header {lines[:1]!r}, expected {header!r}")
            return out
        out.attempted = len(lines) - 1
        try:
            if request.kind == "decay-rate":
                del lines
                self._decay_rate(request.params, text, out)
            else:
                rows = [line.split(",") for line in lines[1:]]
                getattr(self, "_" + request.kind.replace("-", "_"))(request.params, rows, out)
        except (ValueError, IndexError) as exc:
            out.problems.append(f"{request.kind}: unparsable output ({exc})")
        return out

    @staticmethod
    def _ratio_ok(value: float, expected: float) -> bool:
        return 0.0 < value <= 1.0 + SPEED_UP_TOL and abs(value - expected) <= RATIO_TOL

    @staticmethod
    def _close(a: float, b: float) -> bool:
        return abs(a - b) <= GRID_TOL * max(abs(a), abs(b), 1e-300)

    def _scan(self, p, rows, out):
        lam, tau_d = p["lam"], p["tau_d"]
        g_axis = np.geomspace(0.02 * lam, 20.0 * lam, p["n_gamma0"])
        d_axis = np.linspace(0.0, 10.0 * lam, p["n_delta"])
        if len(rows) != g_axis.size * d_axis.size:
            out.problems.append(f"scan: {len(rows)} rows, expected {g_axis.size * d_axis.size}")
            return
        classes = []
        for k, row in enumerate(rows):
            g, d, ratio = float(row[0]), float(row[1]), float(row[4])
            i, j = divmod(k, d_axis.size)
            classes.append(row[5])
            if not (self._close(g, g_axis[i]) and self._close(d, d_axis[j])):
                out.fail(k, f"axes ({g}, {d}) off the grid")
            elif not 0.0 < ratio <= 1.0 + SPEED_UP_TOL:
                out.fail(k, f"ratio {ratio} outside (0, 1 + tol]")
            elif row[5] != _classify(ratio):
                out.fail(k, f"classification {row[5]} for ratio {ratio}")
            elif not float(row[6]) >= 0.0:
                out.fail(k, f"quad_err {row[6]}")
            else:
                expected = _excited_expected(Reference(g, lam, d), 0.0, tau_d)
                if not self._ratio_ok(ratio, expected):
                    out.fail(k, f"ratio {ratio!r}, reference {expected!r}")
        self.scan_classes = np.array(classes).reshape(g_axis.size, d_axis.size)

    def _boundary(self, p, rows, out):
        lam, tau_d = p["lam"], p["tau_d"]
        d_axis = np.linspace(0.0, 10.0 * lam, p["n_delta"])
        by_column = {}
        for k, row in enumerate(rows):
            d, g, flip = float(row[0]), float(row[1]), int(row[2])
            column = [j for j, x in enumerate(d_axis) if self._close(d, x)]
            if not column:
                out.fail(k, f"delta {d!r} not on the scan axis")
                continue
            by_column.setdefault(column[0], []).append((k, flip))
            below = _excited_expected(Reference(g / BOUNDARY_STEP, lam, d), 0.0, tau_d)
            above = _excited_expected(Reference(g * BOUNDARY_STEP, lam, d), 0.0, tau_d)
            if _classify(below) == _classify(above):
                out.fail(k, f"reference ratios {below!r}, {above!r} on both sides of gamma0 {g!r}")
        if self.scan_classes is None:
            return
        # The boundary lists one point per classification flip of the scan.
        for j, col in enumerate(self.scan_classes.T):
            flips = sum(1 for a, b in zip(col, col[1:]) if a != b and "error" not in (a, b))
            listed = by_column.get(j, [])
            if [f for _, f in listed] == list(range(flips)):
                continue
            if not listed:
                out.problems.append(f"boundary: no points for delta {d_axis[j]!r}, scan has {flips}")
            for k, _ in listed:
                out.fail(k, f"delta {d_axis[j]!r} lists {len(listed)} flips, scan has {flips}")

    def _compare_bounds(self, p, rows, out):
        lam, delta, tau_d = p["lam"], p["delta"], p["tau_d"]
        g_axis = np.geomspace(0.02 * lam, 20.0 * lam, p["n_points"])
        if len(rows) != g_axis.size:
            out.problems.append(f"compare-bounds: {len(rows)} rows, expected {g_axis.size}")
            return
        for k in range(len(rows)):
            g, trace, bures = (float(x) for x in rows[k])
            ref = Reference(g, lam, delta)
            exp_trace = _excited_expected(ref, 0.0, tau_d)
            exp_bures = ref.bures_ratio(tau_d)
            if not self._close(g, g_axis[k]):
                out.fail(k, f"gamma0 {g!r} off the axis")
            elif not self._ratio_ok(trace, exp_trace):
                out.fail(k, f"trace ratio {trace!r}, reference {exp_trace!r}")
            elif not self._ratio_ok(bures, exp_bures):
                out.fail(k, f"Bures ratio {bures!r}, reference {exp_bures!r}")

    def _sweep_tau(self, p, rows, out):
        taus = np.linspace(0.0, p["tau_max"], p["n_points"])
        if len(rows) != taus.size:
            out.problems.append(f"sweep-tau: {len(rows)} rows, expected {taus.size}")
            return
        ref = Reference(p["gamma0"], p["lam"], p["delta"])
        for k in range(len(rows)):
            tau, ratio = float(rows[k][0]), float(rows[k][1])
            expected = _excited_expected(ref, tau, p["tau_d"])
            if abs(tau - taus[k]) > GRID_TOL * p["tau_max"]:
                out.fail(k, f"tau {tau!r} off the grid")
            elif not self._ratio_ok(ratio, expected):
                out.fail(k, f"tau {tau!r}: ratio {ratio!r}, reference {expected!r}")

    def _decay_rate(self, p, text, out):
        body = text.split("\n", 1)[1].replace("true", "1").replace("false", "0")
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        del body
        clip, t_max = p["clip"], p["t_max"]
        if data.shape != (p["n_points"], 3):
            out.problems.append(f"decay-rate: shape {data.shape}, expected ({p['n_points']}, 3)")
            return
        t, v, clipped = data[:, 0], data[:, 1], data[:, 2] == 1.0
        # Properties of every row.
        bad = np.abs(t - np.linspace(0.0, t_max, t.size)) > GRID_TOL * t_max
        bad |= clipped & (np.abs(v) != clip)
        bad |= ~clipped & ~(np.abs(v) <= clip)
        for k in np.nonzero(bad)[0]:
            out.fail(int(k), f"t {t[k]!r}, value {v[k]!r}, clipped {clipped[k]}")
        # Reference values on a sample.
        ref = Reference(p["gamma0"], p["lam"], p["delta"])
        idx = np.array(sorted(self.rng.sample(range(t.size), min(t.size, SAMPLE_ROWS))))
        c, _ = ref.amplitude(t[idx])
        raw = ref.decay_rate(t[idx]) / p["gamma0"]
        singular = np.abs(c) < SINGULAR_C
        exp_clipped = singular | (np.abs(raw) > clip)
        exp_v = np.where(singular, clip, np.where(exp_clipped, np.copysign(clip, raw), raw))
        wrong = (clipped[idx] != exp_clipped) | (
            np.abs(v[idx] - exp_v) > RATE_TOL * np.maximum(1.0, np.abs(exp_v))
        )
        for k in np.nonzero(wrong)[0]:
            out.fail(int(idx[k]), f"value {v[idx[k]]!r} clipped {clipped[idx[k]]}, "
                     f"reference {exp_v[k]!r} clipped {exp_clipped[k]}")
        if p["delta"] != 0.0:
            last = t.size - 1
            exact = ref.long_time_rate() / p["gamma0"]
            markov = p["lam"] ** 2 / (p["lam"] ** 2 + p["delta"] ** 2)
            if abs(v[last] - exact) > TAIL_TOL * exact:
                out.fail(last, f"tail {v[last]!r}, slowest-mode rate {exact!r}")
            elif abs(v[last] - markov) > MARKOV_TOL * markov:
                out.fail(last, f"tail {v[last]!r}, Markovian limit {markov!r}")

    def _oracle_check(self, p, rows, out):
        if len(rows) != 1:
            out.problems.append(f"oracle-check: {len(rows)} rows, expected 1")
            return
        values = [float(x) for x in rows[0]]
        echoed = [p["gamma0"], p["delta"], p["lam"], p["t_max"], p["step"]]
        if values[:5] != echoed:
            out.fail(0, f"echoed inputs {values[:5]} differ from {echoed}")
        elif not 0.0 <= values[5] < ORACLE_TOL:
            out.fail(0, f"max_abs_error {values[5]!r}")


def _classify(ratio: float) -> str:
    return "speed_up" if ratio < 1.0 - SPEED_UP_TOL else "no_speed_up"


def _excited_expected(ref: Reference, tau: float, tau_d: float) -> float:
    ratio, tv = ref.excited_ratio(tau, tau_d)
    return 1.0 if tv < STATIONARY_TV else ratio
