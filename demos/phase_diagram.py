"""Speed-up phase diagram over the (coupling, detuning) plane.

Scans the speed-limit ratio on a log-linear grid and prints a character map
of the two phases: '#' where the bound drops below one (capacity for
accelerated evolution) and '.' where the ratio stays pinned at one.  Strong
coupling and large detuning both open the speed-up phase.  Saves
phase_diagram.png when matplotlib is available.
"""

import pathlib

import numpy as np

from qslkit import default_delta_axis, default_gamma0_axis, grid_scan

LAM = 50.0
TAU_D = 0.2


def main():
    gamma0_axis = default_gamma0_axis(LAM, 24)
    delta_axis = default_delta_axis(LAM, 16)
    grid = grid_scan(gamma0_axis, delta_axis, LAM, TAU_D)

    print(f"rows: gamma0/lam (log), cols: delta/lam (linear), tau_D = {TAU_D}")
    print("legend: '#' speed-up, '.' no speed-up\n")
    header = "".join(f"{d / LAM:>4.0f}" for d in delta_axis)
    print(f"{'g0/lam':>8} {header}")
    for i in range(gamma0_axis.size - 1, -1, -1):
        row = "".join(
            "   #" if grid.classification[i][j] == "speed_up" else "   ."
            for j in range(delta_axis.size)
        )
        print(f"{gamma0_axis[i] / LAM:>8.3f} {row}")

    ratios = np.array([[c.ratio for c in row] for row in grid.results])
    print(f"\nminimum ratio on grid: {ratios.min():.6f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping plot")
        return
    fig, ax = plt.subplots(figsize=(6, 4))
    mesh = ax.pcolormesh(delta_axis / LAM, gamma0_axis / LAM, ratios, shading="nearest")
    ax.set_yscale("log")
    ax.set_xlabel(r"$\Delta/\lambda$")
    ax.set_ylabel(r"$\gamma_0/\lambda$")
    fig.colorbar(mesh, ax=ax, label=r"$\tau_{QSL}/\tau_D$")
    out = pathlib.Path(__file__).with_name("phase_diagram.png")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"saved {out}")


if __name__ == "__main__":
    main()
