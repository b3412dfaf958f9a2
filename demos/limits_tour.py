"""The two edges of the repulsion family: d -> 0 and d -> infinity.

Small d: the power law flattens into a logarithmic repulsion with its own
scaled coordinates.  This script compares the dedicated log-limit solver
against small-d power-law solves (the scaled positions approach each
other only after mapping to physical coordinates at matching coupling),
and reports the correlation numbers of both routes.

Large d: the equilibrium converges to the unit lattice, the kernel's
diagonal decay -2a + b approaches -N, the occupancy ratio y approaches 1
(occupancies cluster toward zero), and the density tends to N identical
peaks exp(-N (x - c)^2)/sqrt(pi N).
"""

import numpy as np

from wigmol import (
    Interaction,
    SystemSpec,
    hardcore_density,
    lattice_guess,
    occupancy_spectrum,
    physical_centers,
    pipeline,
    site_density,
)


def small_d_side(n=4, g=1e6):
    print(f"== small-d limit, N={n}, physical centers at g={g:g} ==")
    log_molecule = pipeline(SystemSpec(n, Interaction.log_limit()))
    log_k = occupancy_spectrum(log_molecule.kernels).degree_of_correlation
    print(f"{'route':>12}  {'outer center':>13}  {'K':>8}")
    for d in (0.2, 0.1, 0.05, 0.02):
        molecule = pipeline(SystemSpec(n, Interaction.power_law(d)))
        centers = physical_centers(molecule.config, molecule.spec, g)
        k_value = occupancy_spectrum(molecule.kernels).degree_of_correlation
        print(f"{'d=' + format(d, 'g'):>12}  {centers[-1]:13.5f}  {k_value:8.4f}")
        log_centers = physical_centers(log_molecule.config, log_molecule.spec, g, d_aux=d)
        print(f"{'log @ ' + format(d, 'g'):>12}  {log_centers[-1]:13.5f}  {log_k:8.4f}")
    print("(the log route reuses one solve; its centers rescale with the d it is paired with)\n")


def large_d_side(n=3):
    print(f"== hard-core limit, N={n} ==")
    lattice = lattice_guess(n).positions
    print(f"{'d':>8}  {'max|pos - lattice|':>18}  {'-2a+b (outer)':>14}  {'y (outer)':>10}")
    for d in (1e2, 1e4, 1e6):
        molecule = pipeline(SystemSpec(n, Interaction.power_law(d)))
        gap = np.max(np.abs(molecule.config.positions - lattice))
        outer = molecule.kernels[0]
        print(f"{d:>8g}  {gap:18.2e}  {outer.b - 2 * outer.a:14.6f}  {outer.y:10.6f}")
    profile = hardcore_density(n)
    peak = np.max(profile.values)
    print(f"limiting density: peak {peak:.6f} (isolated-peak height 1/sqrt(pi N) = "
          f"{1 / np.sqrt(np.pi * n):.6f} plus neighbor tails), integral {profile.integral():.8f}\n")


def main():
    small_d_side()
    large_d_side()

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the figure")
        return

    n = 3
    profile = hardcore_density(n)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(profile.abscissae, profile.values, label="hard-core limit")
    for d in (10.0, 100.0):
        total = np.zeros_like(profile.abscissae)
        for kernel in pipeline(SystemSpec(n, Interaction.power_law(d))).kernels:
            total += site_density(kernel, profile.abscissae)
        ax.plot(profile.abscissae, total, "--", label=f"d={d:g}")
    ax.set_xlabel("x (scaled)")
    ax.set_ylabel("n(x)")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("limits_tour.png", dpi=150)
    print("wrote limits_tour.png")


if __name__ == "__main__":
    main()
