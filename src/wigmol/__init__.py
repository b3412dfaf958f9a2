"""Harmonic-approximation toolkit for one-dimensional Wigner molecules.

Pick an interaction (a power-law exponent d, its logarithmic small-d
limit, or the hard-core limit); :func:`pipeline` solves the classical
equilibrium in scaled coordinates, expands harmonically into normal modes
and marginalizes the ground-state wavepacket into per-site Gaussian
kernels, all kept in one :class:`Molecule`.  Natural orbitals, occupancy
ladders, correlation measures, densities and momentum distributions
follow in closed form.  The hard core has no normal modes, only its
lattice and :func:`hardcore_density`.  Everything closed-form is backed
by brute-force validators in :mod:`wigmol.oracle`.
"""

from . import errors
from .equilibrium import (
    Configuration,
    coordinate_scale,
    lattice_guess,
    physical_centers,
    solve_equilibrium,
)
from .modes import NormalModes, compute_modes, ground_state_precision
from .observables import (
    SampledFunction,
    default_k_grid,
    default_x_grid,
    density_profile,
    fictitious_spacing,
    hardcore_density,
    momentum_distribution,
)
from .oracle import (
    QuadratureSpec,
    independent_minimum,
    momentum_quadrature,
    nystrom_grid,
    nystrom_occupancies,
    quadrature_kernel,
)
from .potential import (
    Interaction,
    SystemSpec,
    potential_gradient,
    potential_hessian,
    potential_value,
)
from .rdm import (
    KernelSet,
    Molecule,
    OccupancySpectrum,
    SiteKernel,
    all_site_kernels,
    kernel_value,
    leading_occupancy,
    natural_orbital,
    occupancy,
    occupancy_spectrum,
    pipeline,
    rank_n_density_approximation,
    site_density,
    site_kernel,
    site_purity,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "Interaction",
    "KernelSet",
    "Molecule",
    "NormalModes",
    "OccupancySpectrum",
    "QuadratureSpec",
    "SampledFunction",
    "SiteKernel",
    "SystemSpec",
    "all_site_kernels",
    "compute_modes",
    "coordinate_scale",
    "default_k_grid",
    "default_x_grid",
    "density_profile",
    "errors",
    "fictitious_spacing",
    "ground_state_precision",
    "hardcore_density",
    "independent_minimum",
    "kernel_value",
    "lattice_guess",
    "leading_occupancy",
    "momentum_distribution",
    "momentum_quadrature",
    "natural_orbital",
    "nystrom_grid",
    "nystrom_occupancies",
    "occupancy",
    "occupancy_spectrum",
    "physical_centers",
    "pipeline",
    "potential_gradient",
    "potential_hessian",
    "potential_value",
    "quadrature_kernel",
    "rank_n_density_approximation",
    "site_density",
    "site_kernel",
    "site_purity",
    "solve_equilibrium",
]
