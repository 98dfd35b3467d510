"""Time-dependent decay rate: memory effects and the Markovian tail.

Plots gamma(t)/gamma0 for three regimes.  Weak coupling on resonance rises
monotonically to a plateau slightly above the Markovian value; strong
coupling alternates sign with clipped spikes at the population zeros
(negative stretches mark photon reabsorption); weak coupling with large
detuning oscillates before settling on the suppressed Markovian tail
gamma_M/gamma0 = lam^2/(lam^2 + delta^2).  Saves decay_rate.png when
matplotlib is available.
"""

import pathlib

import numpy as np

from qslkit import ModelParams, markov_tail, sweep_decay_rate

LAM = 50.0

CASES = (
    ("weak, on resonance", ModelParams(0.1 * LAM, LAM, 0.0), 1.0, 401),
    ("strong, on resonance", ModelParams(10.0 * LAM, LAM, 0.0), 0.4, 2001),
    ("weak, detuned 6*lam", ModelParams(0.1 * LAM, LAM, 6.0 * LAM), 1.0, 801),
)


def main():
    series_by_case = []
    for label, p, t_max, n in CASES:
        series = sweep_decay_rate(p, t_max, n, clip=10.0)
        series_by_case.append((label, p, series))
        n_clip = np.count_nonzero(series.clipped)
        print(
            f"{label:>24}: tail {series.values[-1]:>8.4f}, "
            f"markov tail {markov_tail(p):>8.4f}, clipped points {n_clip}"
        )

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping plot")
        return
    fig, axes = plt.subplots(1, 3, figsize=(11, 3.2))
    for ax, (label, p, series) in zip(axes, series_by_case):
        ax.plot(series.times, series.values)
        ax.axhline(markov_tail(p), color="gray", ls=":", lw=1)
        ax.set_title(label, fontsize=9)
        ax.set_xlabel(r"$t$")
    axes[0].set_ylabel(r"$\gamma(t)/\gamma_0$")
    out = pathlib.Path(__file__).with_name("decay_rate.png")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"saved {out}")


if __name__ == "__main__":
    main()
