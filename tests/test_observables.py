import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kernel_set
from wigmol import (
    SampledFunction,
    default_k_grid,
    density_profile,
    fictitious_spacing,
    hardcore_density,
    momentum_distribution,
    momentum_quadrature,
)


def two_particle_momentum_reference(d, k):
    """Independent closed form for the two-particle momentum density."""
    root = np.sqrt(d + 2.0)
    return np.sqrt(2.0 / np.pi) * np.exp(-2.0 * (root - 1.0) * k**2 / (d + 1.0)) / np.sqrt(root + 1.0)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, np.nan, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [1.0, np.inf])


def test_momentum_value_at_origin():
    _, _, _, kernels = kernel_set(2, 2.0)
    value = momentum_distribution(kernels, [0.0]).values[0]
    assert_allclose(value, np.sqrt(2.0 / np.pi) / np.sqrt(3.0), atol=1e-10)
    assert_allclose(value, 0.46066, atol=1e-5)


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 10.0])
def test_two_particle_momentum_closed_form(d):
    _, _, _, kernels = kernel_set(2, d)
    grid = np.linspace(-5.0, 5.0, 501)
    result = momentum_distribution(kernels, grid)
    assert_allclose(result.values, two_particle_momentum_reference(d, grid), atol=1e-10)


@pytest.mark.parametrize("token", [0.5, 2.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_momentum_normalization(token, n):
    _, _, _, kernels = kernel_set(n, token)
    result = momentum_distribution(kernels, default_k_grid())
    assert abs(result.integral() - 1.0) <= 1e-6


def test_momentum_broadens_with_d():
    variances = []
    for d in (1.0, 10.0):
        _, _, _, kernels = kernel_set(2, d)
        result = momentum_distribution(kernels, default_k_grid())
        variances.append(np.trapezoid(result.abscissae**2 * result.values, result.abscissae))
    assert variances[1] > variances[0]


@pytest.mark.parametrize("n", [2, 3])
def test_momentum_matches_quadrature(n):
    for d in (1.0, 2.0):
        _, _, _, kernels = kernel_set(n, d)
        for k in np.linspace(-6.0, 6.0, 13):
            analytic = momentum_distribution(kernels, [k]).values[0]
            assert abs(analytic - momentum_quadrature(kernels, k)) <= 1e-6


def test_kernel_coherence_length_shrinks_with_d():
    for n in (2, 3):
        _, _, _, narrow = kernel_set(n, 100.0)
        _, _, _, wide = kernel_set(n, 1.0)
        for sharp, soft in zip(narrow, wide):
            assert sharp.a > soft.a


def test_density_profile_isolated_peaks():
    spec, _, _, kernels = kernel_set(3, 1.0)
    spacing = 60.0 * max(k.width for k in kernels)
    centers = spacing * np.array([-1.0, 0.0, 1.0])
    at_centers = density_profile(kernels, spec, x_grid=centers, spacing=spacing)
    for kernel, value in zip(kernels, at_centers.values):
        assert abs(value - kernel.amplitude) < 1e-10
    profile = density_profile(kernels, spec, spacing=spacing)
    assert abs(profile.integral() - 1.0) <= 1e-6


def test_density_profile_three_peaks_mirror():
    spec, _, _, kernels = kernel_set(3, 1.0)
    profile = density_profile(kernels, spec, spacing=fictitious_spacing(kernels))
    values = profile.values
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    peaks = np.flatnonzero(interior) + 1
    assert peaks.size == 3
    assert_allclose(values[peaks[0]], values[peaks[2]], rtol=1e-10)


def test_density_profile_at_physical_centers():
    spec, config, _, kernels = kernel_set(2, 2.0)
    profile = density_profile(kernels, spec, g=16.0)
    top = profile.abscissae[np.argmax(profile.values)]
    # 16**(1/4) = 2, so the left peak sits at -sqrt(2)
    assert abs(abs(top) - np.sqrt(2.0)) < 0.01
    assert abs(profile.integral() - 1.0) <= 1e-6


def test_density_profile_argument_validation():
    spec, _, _, kernels = kernel_set(2, 2.0)
    with pytest.raises(ValueError):
        density_profile(kernels, spec, g=1.0, spacing=1.0)


@pytest.mark.parametrize("spacing", [0.0, -1.0, np.nan, np.inf])
def test_density_profile_needs_a_finite_positive_spacing(spacing):
    spec, _, _, kernels = kernel_set(2, 2.0)
    with pytest.raises(ValueError, match="spacing"):
        density_profile(kernels, spec, spacing=spacing)


def test_hardcore_density_values():
    profile = hardcore_density(2, [-0.5, 0.0, 0.5])
    base = 1.0 / np.sqrt(2.0 * np.pi)
    assert_allclose(profile.values[0], base * (1.0 + np.exp(-2.0)), rtol=1e-12)
    assert_allclose(profile.values[2], profile.values[0], rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_hardcore_density_normalization_and_peaks(n):
    profile = hardcore_density(n)
    assert abs(profile.integral() - 1.0) <= 1e-8
    # an isolated peak reaches 1/sqrt(pi n) (neighbor tails are exp(-n) small)
    idx = np.argmin(np.abs(profile.abscissae - (n - 1) / 2.0))
    assert abs(profile.values[idx] - 1.0 / np.sqrt(np.pi * n)) < 2.0 * np.exp(-n) / np.sqrt(np.pi * n) + 1e-6
