"""The array observables against the per-site loops they replace, bit for bit.

The references below add one site at a time to a running total, reading
each site as a :class:`SiteKernel` whose parameters are Python floats, as
the observables did before they summed blocks of sites over the
:class:`KernelSet` arrays.
"""

import numpy as np
import pytest

from conftest import kernel_set
from wigmol import (
    SiteKernel,
    coordinate_scale,
    default_k_grid,
    default_x_grid,
    density_profile,
    fictitious_spacing,
    hardcore_density,
    lattice_guess,
    momentum_distribution,
    natural_orbital,
    occupancy_spectrum,
    rank_n_density_approximation,
    site_density,
)
from wigmol.errors import InvalidScale

FINE_K = -20.0 + np.arange(8001) * 0.005  # the CLI's -20:20:0.005


def reference_x_grid(kernels, centers=None, points=2001, pad=6.0):
    kernels = tuple(kernels)
    if centers is None:
        centers = np.array([k.center for k in kernels])
    margin = pad * max(k.width for k in kernels)
    return np.linspace(np.min(centers) - margin, np.max(centers) + margin, points)


def reference_momentum(kernels, k_grid=None):
    k = default_k_grid() if k_grid is None else np.asarray(k_grid, dtype=float)
    total = np.zeros_like(k)
    for kernel in kernels:
        decay = (2.0 * kernel.a - kernel.b) / kernel.eta**2
        total = total + (kernel.amplitude / kernel.eta) * np.exp(-decay * k**2)
    return k, total


def reference_spacing(kernels):
    return 6.0 * max(k.width for k in kernels)


def reference_density(kernels, spec, x_grid=None, g=None, spacing=None, d_aux=None):
    kernels = tuple(kernels)
    if g is not None:
        centers = np.array([k.center for k in kernels]) * coordinate_scale(spec, g, d_aux)
    else:
        if spacing is None:
            spacing = reference_spacing(kernels)
        centers = spacing * lattice_guess(len(kernels)).positions
    x = reference_x_grid(kernels, centers) if x_grid is None else np.asarray(x_grid, dtype=float)
    total = np.zeros_like(x)
    for kernel, center in zip(kernels, centers):
        shifted = SiteKernel(kernel.site, float(center), kernel.amplitude, kernel.a, kernel.b, kernel.eta, kernel.y)
        total = total + site_density(shifted, x)
    return x, total


def reference_hardcore(n, x_grid=None):
    centers = lattice_guess(n).positions
    if x_grid is None:
        width = 1.0 / np.sqrt(n)
        x = np.linspace(centers[0] - 6.0 * width, centers[-1] + 6.0 * width, 2001)
    else:
        x = np.asarray(x_grid, dtype=float)
    total = np.zeros_like(x)
    for center in centers:
        total = total + np.exp(-n * (x - center) ** 2) / np.sqrt(np.pi * n)
    return x, total


def reference_rank_n(kernels, spectrum, x):
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x, dtype=float)
    for kernel, ladder in zip(kernels, spectrum.ladders):
        total = total + ladder[0] * natural_orbital(kernel, 0, x) ** 2
    return total


def same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return actual.dtype == expected.dtype and actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


def assert_sampled(result, reference):
    abscissae, values = reference
    assert same_bits(result.abscissae, abscissae)
    assert same_bits(result.values, values)


@pytest.fixture(params=[2, 3, 20, 61], ids=lambda n: f"n{n}")
def case(request):
    return request.param


@pytest.fixture(params=["log", 1.0], ids=["log", "d1"])
def token(request):
    return request.param


@pytest.fixture(params=["set", "tuple"])
def kernels_and_spec(request, case, token):
    spec, _, _, kernels = kernel_set(case, token)
    return spec, (kernels if request.param == "set" else tuple(kernels))


@pytest.mark.parametrize("grid", [None, [0.7], FINE_K], ids=["default", "one_k", "fine"])
def test_momentum_distribution(kernels_and_spec, grid):
    _, kernels = kernels_and_spec
    assert_sampled(momentum_distribution(kernels, grid), reference_momentum(kernels, grid))


def test_default_x_grid_and_spacing(kernels_and_spec):
    _, kernels = kernels_and_spec
    assert same_bits(default_x_grid(kernels), reference_x_grid(kernels))
    centers = np.linspace(-3.0, 5.0, len(kernels))
    assert same_bits(default_x_grid(kernels, centers, points=11, pad=2.5), reference_x_grid(kernels, centers, 11, 2.5))
    spacing = fictitious_spacing(kernels)
    assert type(spacing) is float
    assert spacing == reference_spacing(kernels)


@pytest.mark.parametrize(
    "placement",
    [{}, {"spacing": 2.5}, {"g": 100.0}, {"g": 37.0, "d_aux": 0.1}, {"spacing": 1.5, "x_grid": FINE_K}],
    ids=["default", "spacing", "g", "g_d_aux", "fine_grid"],
)
def test_density_profile(kernels_and_spec, token, placement):
    spec, kernels = kernels_and_spec
    if token == "log" and "g" in placement and "d_aux" not in placement:
        with pytest.raises(InvalidScale):
            density_profile(kernels, spec, **placement)
        return
    assert_sampled(density_profile(kernels, spec, **placement), reference_density(kernels, spec, **placement))


@pytest.mark.parametrize("grid", [None, FINE_K], ids=["default", "fine"])
def test_hardcore_density(case, grid):
    assert_sampled(hardcore_density(case, grid), reference_hardcore(case, grid))


def test_rank_n_density_approximation(kernels_and_spec):
    _, kernels = kernels_and_spec
    spectrum = occupancy_spectrum(kernels)
    for x in (reference_x_grid(kernels), FINE_K, np.float64(0.25), FINE_K[:12].reshape(3, 4)):
        assert same_bits(rank_n_density_approximation(kernels, spectrum, x), reference_rank_n(kernels, spectrum, x))


def test_rank_n_density_takes_the_shorter_of_kernels_and_ladders():
    _, _, _, kernels = kernel_set(20, 1.0)
    spectrum = occupancy_spectrum(kernels)
    x = np.linspace(-4.0, 4.0, 33)
    for some, ladders in ((tuple(kernels)[:7], spectrum), (kernels, occupancy_spectrum(tuple(kernels)[:5]))):
        assert same_bits(rank_n_density_approximation(some, ladders, x), reference_rank_n(some, ladders, x))
