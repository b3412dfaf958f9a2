"""Momentum distribution of the two-particle molecule across repulsion powers.

Steeper repulsion localizes the particles harder, suppresses coherence
between the two sites, and therefore broadens the momentum distribution.
All curves integrate to one; their variance grows monotonically with d.
"""

import numpy as np

from wigmol import Interaction, SystemSpec, momentum_distribution, pipeline

D_VALUES = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)


def two_particle_momentum(d, grid):
    return momentum_distribution(pipeline(SystemSpec(2, Interaction.power_law(d))).kernels, grid)


def main():
    grid = np.linspace(-8.0, 8.0, 801)
    curves = []
    print(f"{'d':>5}  {'n(0)':>9}  {'variance':>9}  {'integral':>9}")
    for d in D_VALUES:
        dist = two_particle_momentum(d, grid)
        variance = np.trapezoid(grid**2 * dist.values, grid)
        print(f"{d:>5g}  {dist.values[len(grid)//2]:9.5f}  {variance:9.5f}  {dist.integral():9.6f}")
        curves.append((d, dist))

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(6, 4.5))
    for d, dist in curves:
        ax.plot(dist.abscissae, dist.values, label=f"d={d:g}")
    ax.set_xlabel("k")
    ax.set_ylabel("n(k)")
    ax.set_xlim(-6, 6)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("momentum_broadening.png", dpi=150)
    print("wrote momentum_broadening.png")


if __name__ == "__main__":
    main()
