import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kernel_set, solved
from wigmol import (
    Interaction,
    QuadratureSpec,
    SystemSpec,
    independent_minimum,
    kernel_value,
    natural_orbital,
    nystrom_grid,
    nystrom_occupancies,
    occupancy,
    potential_gradient,
    quadrature_kernel,
    site_density,
)
from wigmol.errors import DimensionTooLarge, UnsupportedLimit
from wigmol.oracle import random_admissible_positions


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_dim=1)
    with pytest.raises(ValueError):
        QuadratureSpec(grid_halfwidth=0.0)


def test_quadrature_matches_density_at_center():
    _, config, modes, kernels = kernel_set(2, 2.0)
    kernel = kernels[0]
    direct = quadrature_kernel(modes, config, 1, kernel.center, kernel.center, QuadratureSpec(40))
    assert abs(direct - float(site_density(kernel, kernel.center))) <= 1e-8


def test_quadrature_matches_middle_site_amplitude():
    _, config, modes, kernels = kernel_set(3, 1.0)
    direct = quadrature_kernel(modes, config, 2, 0.0, 0.0)
    assert abs(direct - kernels[1].amplitude) <= 1e-6


def test_quadrature_decays_off_support():
    _, config, modes, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]
    far = kernel.center + 10.0 / np.sqrt(kernel.eta)
    assert quadrature_kernel(modes, config, 1, far, far) < 1e-12


@pytest.mark.parametrize("n,d", [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)])
def test_quadrature_matches_closed_form_on_grid(n, d):
    _, config, modes, kernels = kernel_set(n, d)
    for kernel in kernels:
        reach = 3.0 * kernel.width
        grid = np.linspace(kernel.center - reach, kernel.center + reach, 9)
        for x in grid:
            for xp in grid:
                direct = quadrature_kernel(modes, config, kernel.site, x, xp)
                assert abs(direct - float(kernel_value(kernel, x, xp))) <= 1e-6


def test_quadrature_order_convergence():
    _, config, modes, _ = kernel_set(3, 2.0)
    coarse = quadrature_kernel(modes, config, 2, 0.1, -0.2, QuadratureSpec(20))
    fine = quadrature_kernel(modes, config, 2, 0.1, -0.2, QuadratureSpec(40))
    assert abs(fine - coarse) < 1e-8


def test_quadrature_dimension_limit():
    _, config, modes, _ = kernel_set(5, 2.0)
    with pytest.raises(DimensionTooLarge):
        quadrature_kernel(modes, config, 1, 0.0, 0.0)


def test_nystrom_recovers_the_ladder():
    _, _, _, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]
    grid = nystrom_grid(kernel)
    top = nystrom_occupancies(lambda x, xp: kernel_value(kernel, x, xp), grid, 5)
    ladder = np.array([occupancy(kernel, l) for l in range(5)])
    assert np.max(np.abs(top - ladder)) <= 1e-5
    assert_allclose(top[1] / top[0], kernel.y, atol=1e-4)


def test_nystrom_spectrum_of_assembled_kernel_sum():
    # with sites pushed far apart the summed kernel's eigenvalues are the
    # two site ladders interleaved, each rung two-fold degenerate
    _, _, _, kernels = kernel_set(2, 2.0)
    shift = 14.0 * max(k.width for k in kernels)
    moved = [
        kernels[0].__class__(k.site, c, k.amplitude, k.a, k.b, k.eta, k.y)
        for k, c in zip(kernels, (-shift, shift))
    ]

    def total(x, xp):
        return kernel_value(moved[0], x, xp) + kernel_value(moved[1], x, xp)

    grid = np.linspace(-shift - 8.0 * moved[0].width, shift + 8.0 * moved[0].width, 1200)
    eigenvalues = nystrom_occupancies(total, grid, 6)
    expected = np.sort(np.repeat([occupancy(kernels[0], l) for l in range(3)], 2))[::-1]
    assert np.max(np.abs(eigenvalues - expected)) <= 1e-6


def test_nystrom_rank_one_projector():
    _, _, _, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]
    grid = nystrom_grid(kernel)

    def projector(x, xp):
        return natural_orbital(kernel, 0, x) * natural_orbital(kernel, 0, xp)

    eigenvalues = nystrom_occupancies(projector, grid, 3)
    assert_allclose(eigenvalues[0], 1.0, atol=1e-10)
    assert np.all(np.abs(eigenvalues[1:]) < 1e-10)


def test_independent_minimum_two_particles():
    spec = SystemSpec(2, Interaction.from_token(1.0))
    config = independent_minimum(spec)
    separation = config.positions[1] - config.positions[0]
    assert abs(separation - 2.0 ** (1.0 / 3.0)) <= 1e-8


def test_independent_minimum_log_parity():
    spec = SystemSpec(3, Interaction.from_token("log"))
    config = independent_minimum(spec)
    assert abs(config.positions[1]) <= 1e-10


@pytest.mark.parametrize("token", [2.0, "log"])
@pytest.mark.parametrize("n", [2, 5])
def test_independent_minimum_matches_newton(token, n):
    spec, newton = solved(n, token)
    derivative_free = independent_minimum(spec)
    assert np.max(np.abs(derivative_free.positions - newton.positions)) <= 1e-8


@pytest.mark.parametrize("n", [4, 5])
def test_independent_minimum_is_mirrored_with_full_residual(n):
    spec = SystemSpec(n, Interaction.from_token(1.0))
    config = independent_minimum(spec)
    assert np.array_equal(config.positions, -config.positions[::-1])
    assert config.residual == np.max(np.abs(potential_gradient(spec, config.positions)))


def test_independent_minimum_rejects_hard_core():
    spec = SystemSpec(3, Interaction.from_token("inf"))
    with pytest.raises(UnsupportedLimit):
        independent_minimum(spec)


def test_random_positions_are_admissible():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        pos = random_admissible_positions(rng, n)
        assert np.all(np.diff(pos) >= 0.4)
