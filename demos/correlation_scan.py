"""How many natural orbitals does an N-particle Wigner molecule really use?

The inverse purity K of the one-body density matrix counts the actively
occupied natural orbitals; for a perfectly condensed-per-site molecule it
would equal N exactly.  This script scans K over particle number for a
few repulsion exponents (including the logarithmic d -> 0 limit), plots
the curves against the K = N line, and reports where the relative excess
delta_K = (K - N)/N crosses 0.2, the usual threshold beyond which the
N-orbital truncation of the density matrix stops being trustworthy.
"""

import numpy as np

from wigmol import Interaction, SystemSpec, occupancy_spectrum, pipeline

TOKENS = [("log", Interaction.log_limit())] + [(f"d={d:g}", Interaction.power_law(d)) for d in (0.5, 1.0, 2.0, 6.0)]
N_RANGE = range(2, 31)


def correlation_K(n, interaction):
    return occupancy_spectrum(pipeline(SystemSpec(n, interaction)).kernels).degree_of_correlation


def main():
    curves = {}
    for label, interaction in TOKENS:
        curves[label] = np.array([correlation_K(n, interaction) for n in N_RANGE])

    print(f"{'N':>3}  " + "  ".join(f"{label:>9}" for label, _ in TOKENS))
    for i, n in enumerate(N_RANGE):
        print(f"{n:>3}  " + "  ".join(f"{curves[label][i]:9.4f}" for label, _ in TOKENS))

    print("\nsmallest N with delta_K > 0.2 (the N-orbital truncation threshold):")
    for label, _ in TOKENS:
        excess = (curves[label] - np.array(N_RANGE)) / np.array(N_RANGE)
        above = [n for n, dk in zip(N_RANGE, excess) if dk > 0.2]
        if above:
            print(f"  {label:>9}: N_cr = {above[0]}")
        else:
            print(f"  {label:>9}: not reached up to N = {N_RANGE[-1]} (delta_K = {excess[-1]:.3f} there)")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed, skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(6, 4.5))
    ns = np.array(N_RANGE)
    for label, _ in TOKENS:
        ax.plot(ns, curves[label], marker=".", label=label)
    ax.plot(ns, ns, "k--", lw=1, label="K = N")
    ax.set_xlabel("particle number N")
    ax.set_ylabel("degree of correlation K")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("correlation_scan.png", dpi=150)
    print("\nwrote correlation_scan.png")


if __name__ == "__main__":
    main()
