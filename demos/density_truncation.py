"""Exact density peaks versus their leading-orbital reconstruction.

Each site of the molecule contributes a Gaussian density peak.  Keeping
only the l = 0 natural orbital per site reproduces those peaks well while
delta_K = (K - N)/N stays small and visibly underestimates them once
delta_K reaches about 0.2.  This script draws the comparison for six
(N, d) pairs straddling that threshold, with the peaks placed on a
fictitious lattice so that all of them fit on one axis.
"""

import dataclasses

import numpy as np

from wigmol import (
    Interaction,
    SystemSpec,
    all_site_kernels,
    compute_modes,
    density_profile,
    fictitious_spacing,
    lattice_guess,
    occupancy_spectrum,
    rank_n_density_approximation,
    solve_equilibrium,
)

CASES = [(2, 2.0), (2, 10.0), (3, 2.0), (3, 6.0), (4, 2.0), (4, 4.0)]


def molecule(n, d):
    spec = SystemSpec(n, Interaction.power_law(d))
    config = solve_equilibrium(spec)
    kernels = all_site_kernels(compute_modes(spec, config), config)
    return spec, kernels, occupancy_spectrum(kernels)


def profiles(spec, kernels, spectrum):
    spacing = fictitious_spacing(kernels)
    centers = spacing * lattice_guess(len(kernels)).positions
    pad = 4.0 * max(k.width for k in kernels)
    xs = np.linspace(centers[0] - pad, centers[-1] + pad, 1200)
    exact = density_profile(kernels, spec, xs, spacing=spacing).values
    relocated = dataclasses.replace(kernels, center=centers)
    return xs, exact, rank_n_density_approximation(relocated, spectrum, xs)


def main():
    rows = []
    for n, d in CASES:
        spec, kernels, spectrum = molecule(n, d)
        xs, exact, truncated = profiles(spec, kernels, spectrum)
        gap = np.max(exact - truncated) / np.max(exact)
        rows.append((n, d, spectrum.delta_k, gap, xs, exact, truncated))
        print(f"N={n} d={d:<4g} delta_K={spectrum.delta_k:.3f}  peak-relative truncation gap {gap:.3%}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return

    fig, axes = plt.subplots(3, 2, figsize=(9, 9))
    for ax, (n, d, delta_k, _, xs, exact, truncated) in zip(axes.ravel(), rows):
        ax.plot(xs, exact, label="exact")
        ax.plot(xs, truncated, "--", label="N orbitals")
        ax.set_title(f"N={n}, d={d:g} (delta_K={delta_k:.2f})", fontsize=9)
        ax.set_yticks([])
    axes[0, 0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("density_truncation.png", dpi=150)
    print("wrote density_truncation.png")


if __name__ == "__main__":
    main()
