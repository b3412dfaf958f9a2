"""Momentum distributions and assembled real-space density profiles.

Each is a sum of per-site Gaussians over the :class:`~wigmol.rdm.KernelSet`
arrays, a block of sites at a time, bitwise the site-by-site sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import coordinate_scale, lattice_guess
from .potential import SystemSpec
from .rdm import KernelSet, _scalar_power, _site_sum


@dataclass(frozen=True)
class SampledFunction:
    """A finite, non-negative function tabulated on a strictly increasing finite grid."""

    abscissae: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.array(self.abscissae, dtype=float)
        vals = np.array(self.values, dtype=float)
        if grid.shape != vals.shape or grid.ndim != 1:
            raise ValueError("abscissae and values must be 1-d arrays of equal length")
        if not (np.isfinite(grid).all() and np.isfinite(vals).all()):
            raise ValueError("abscissae and values must be finite")
        if (np.diff(grid) <= 0).any():
            raise ValueError("abscissae must be strictly increasing")
        if (vals < 0).any():
            raise ValueError("values must be non-negative")
        grid.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "abscissae", grid)
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        """Trapezoid integral over the grid."""
        return float(np.trapezoid(self.values, self.abscissae))


def default_k_grid(points: int = 801, halfwidth: float = 8.0) -> np.ndarray:
    return np.linspace(-halfwidth, halfwidth, points)


def default_x_grid(kernels, centers=None, points: int = 2001, pad: float = 6.0) -> np.ndarray:
    """Grid spanning all centers plus ``pad`` site widths on each side."""
    kernels = KernelSet.from_kernels(kernels)
    if centers is None:
        centers = kernels.center
    margin = pad * _scalar_power(kernels.eta, -0.5).max()  # the widest SiteKernel.width
    return np.linspace(np.min(centers) - margin, np.max(centers) + margin, points)


def momentum_distribution(kernels, k_grid=None) -> SampledFunction:
    """Momentum density of the kernel sum.

    Every site kernel Fourier-transforms to a centered Gaussian
    (A/eta) * exp(-(2a - b) k**2 / eta**2); the site centers drop out
    because only the coordinate difference carries the phase.  The total
    integrates to one.
    """
    kernels = KernelSet.from_kernels(kernels)
    k = default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    decay = (2.0 * kernels.a - kernels.b) / _scalar_power(kernels.eta, 2)
    values = _site_sum(lambda k, scale, decay: scale * np.exp(-decay * k**2), k, kernels.amplitude / kernels.eta, decay)
    return SampledFunction(k, values)


def fictitious_spacing(kernels) -> float:
    """Default plotting spacing: six times the widest site orbital."""
    return float(6.0 * _scalar_power(KernelSet.from_kernels(kernels).eta, -0.5).max())


def placement_factor(spec: SystemSpec, g: float | None = None, spacing: float | None = None,
                     d_aux: float | None = None) -> float | None:
    """The checked placement of :func:`density_profile`'s peaks.

    The factor that maps scaled centers to physical ones at coupling
    ``g``, else the lattice ``spacing``, else None (the default spacing).
    Raises unless at most one of ``g`` and ``spacing`` is given and it
    (with ``d_aux`` in the log limit) is positive and finite.
    """
    if g is not None and spacing is not None:
        raise ValueError("give either g or spacing, not both")
    if g is not None:
        return coordinate_scale(spec, g, d_aux)
    if spacing is not None and not 0 < spacing < np.inf:
        raise ValueError(f"the lattice spacing must be positive and finite, got {spacing!r}")
    return spacing


def density_profile(
    kernels,
    spec: SystemSpec,
    x_grid=None,
    g: float | None = None,
    spacing: float | None = None,
    d_aux: float | None = None,
) -> SampledFunction:
    """Sum of site densities with relocated centers.

    Centers are placed either at the physical equilibrium positions for
    coupling ``g`` (pass ``d_aux`` as well for the log limit) or on an
    equispaced fictitious lattice with the given ``spacing``, the usual
    device for drawing the infinite-coupling profile on one axis.  With
    neither given, :func:`fictitious_spacing` is used.  ``g``, ``d_aux``
    and ``spacing`` must be positive and finite.  Peak shapes stay
    in scaled coordinates, so the profile integrates to one regardless of
    placement.
    """
    kernels = KernelSet.from_kernels(kernels)
    factor = placement_factor(spec, g, spacing, d_aux)
    if g is not None:
        centers = kernels.center * factor
    else:
        spacing = fictitious_spacing(kernels) if factor is None else factor
        centers = spacing * lattice_guess(len(kernels)).positions
    x = default_x_grid(kernels, centers) if x_grid is None else np.asarray(x_grid, dtype=float)
    exponent = -(2.0 * kernels.a - kernels.b)  # rdm.site_density, at the relocated centers

    def term(x, amplitude, exponent, center):
        return amplitude * np.exp(exponent * (x - center) ** 2)

    return SampledFunction(x, _site_sum(term, x, kernels.amplitude, exponent, centers))


def hardcore_density(n: int, x_grid=None) -> SampledFunction:
    """Limiting density for an impenetrable repulsion.

    All N peaks share one profile, exp(-N (x - c_i)**2) / sqrt(pi N), on
    the unit lattice c_i = (2i - N - 1)/2.
    """
    centers = lattice_guess(n).positions
    if x_grid is None:
        width = 1.0 / np.sqrt(n)
        x = np.linspace(centers[0] - 6.0 * width, centers[-1] + 6.0 * width, 2001)
    else:
        x = np.asarray(x_grid, dtype=float)
    norm = np.sqrt(np.pi * n)
    return SampledFunction(x, _site_sum(lambda x, center: np.exp(-n * (x - center) ** 2) / norm, x, centers))
