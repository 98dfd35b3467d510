"""Workload definitions: the seed draws lam, every other input scales with it.

Each workload is a fixed batch of `qslkit` CLI requests.  Times are given as
multiples of 1/lam and rates as multiples of lam, so the program does the same
work (the same probe counts, bisections and panels) at every seed while every
float it is given changes.  The one exception is the detuned sweep of
`trajectory`, which runs at the CLI's default lam = 50 whatever the seed: its
rows that hit the quadrature's absolute-tolerance floor are counted as failed,
and that count must not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("surface", "trajectory", "series")

# lam is drawn log-uniformly from [LAM_MIN, LAM_MAX].
LAM_MIN = 10.0
LAM_MAX = 200.0

# The driving window and the sweep lengths, in units of 1/lam (the CLI
# defaults at lam = 50: tau_d 0.2, tau_max 2, t_max 1).
TAU_D = 10.0
TAU_MAX = 100.0
T_MAX = 50.0
DECAY_POINTS = 1_000_000
CLIP = 25.0
ORACLE_STEP = 0.005
COMPARE_POINTS = 30
SWEEP_POINTS = 200

# Inputs of the detuned sweep whose failing rows are kept (see module docstring).
FAULT_LAM = 50.0


@dataclass(frozen=True)
class Request:
    """One CLI request: its argv and the inputs the checks need."""

    kind: str
    argv: tuple[str, ...]
    params: dict


def _f(x: float) -> str:
    return repr(float(x))


def draw_lam(seed: int) -> float:
    rng = random.Random(seed)
    return LAM_MIN * (LAM_MAX / LAM_MIN) ** rng.random()


def _sweep(gamma0: float, lam: float, delta: float) -> Request:
    params = dict(
        gamma0=gamma0, lam=lam, delta=delta, tau_d=TAU_D / lam, tau_max=TAU_MAX / lam,
        n_points=SWEEP_POINTS,
    )
    argv = (
        "sweep-tau", "--gamma0", _f(gamma0), "--lambda", _f(lam), "--delta", _f(delta),
        "--tau-d", _f(params["tau_d"]), "--tau-max", _f(params["tau_max"]),
        "--n-points", str(SWEEP_POINTS),
    )
    return Request("sweep-tau", argv, params)


def _decay(gamma0: float, lam: float, delta: float) -> Request:
    params = dict(
        gamma0=gamma0, lam=lam, delta=delta, t_max=T_MAX / lam, n_points=DECAY_POINTS, clip=CLIP
    )
    argv = (
        "decay-rate", "--gamma0", _f(gamma0), "--lambda", _f(lam), "--delta", _f(delta),
        "--t-max", _f(params["t_max"]), "--n-points", str(DECAY_POINTS), "--clip", _f(CLIP),
    )
    return Request("decay-rate", argv, params)


def requests(workload: str, seed: int) -> list[Request]:
    """The batch of requests one round of `workload` sends, in order."""
    lam = draw_lam(seed)
    tau_d = TAU_D / lam
    if workload == "surface":
        grid = dict(lam=lam, tau_d=tau_d, n_gamma0=30, n_delta=21)
        grid_argv = ("--lambda", _f(lam), "--tau-d", _f(tau_d))
        out = [
            Request("scan", ("scan",) + grid_argv, grid),
            Request("boundary", ("boundary",) + grid_argv, grid),
        ]
        for delta in (0.0, 4.0 * lam, 10.0 * lam):
            params = dict(lam=lam, delta=delta, tau_d=tau_d, n_points=COMPARE_POINTS)
            argv = (
                "compare-bounds", "--lambda", _f(lam), "--delta", _f(delta),
                "--tau-d", _f(tau_d), "--n-points", str(COMPARE_POINTS),
            )
            out.append(Request("compare-bounds", argv, params))
        return out
    if workload == "trajectory":
        return [
            _sweep(10.0 * lam, lam, 0.0),
            _sweep(20.0 * FAULT_LAM, FAULT_LAM, 4.0 * FAULT_LAM),
        ]
    if workload == "series":
        params = dict(gamma0=10.0 * lam, lam=lam, delta=6.0 * lam, t_max=T_MAX / lam,
                      step=ORACLE_STEP / lam)
        oracle = (
            "oracle-check", "--gamma0", _f(params["gamma0"]), "--lambda", _f(lam),
            "--delta", _f(params["delta"]), "--t-max", _f(params["t_max"]),
            "--step", _f(params["step"]),
        )
        return [
            _decay(10.0 * lam, lam, 0.0),
            _decay(0.1 * lam, lam, 6.0 * lam),
            Request("oracle-check", oracle, params),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def threads_probe(seed: int) -> tuple[str, ...]:
    """A small scan whose bytes must not depend on QSLKIT_THREADS."""
    lam = draw_lam(seed)
    return (
        "scan", "--lambda", _f(lam), "--tau-d", _f(TAU_D / lam), "--n-gamma0", "6",
        "--n-delta", "4",
    )
