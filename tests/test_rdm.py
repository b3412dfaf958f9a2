import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kernel_set, solved
from wigmol import (
    NormalModes,
    SiteKernel,
    all_site_kernels,
    compute_modes,
    ground_state_precision,
    kernel_value,
    leading_occupancy,
    natural_orbital,
    occupancy,
    occupancy_spectrum,
    rank_n_density_approximation,
    site_density,
    site_kernel,
    site_purity,
)
from wigmol.errors import SingularBlock


def _grid(kernel, half_widths=10.0, points=4001):
    reach = half_widths * kernel.width
    return np.linspace(kernel.center - reach, kernel.center + reach, points)


def _quadrature_weights(grid):
    weights = np.full_like(grid, grid[1] - grid[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_kernel_parameter_relations(token, n):
    _, _, _, kernels = kernel_set(n, token)
    for k in kernels:
        assert 0.0 < k.b < 2.0 * k.a
        assert_allclose(k.eta, np.sqrt(4.0 * k.a**2 - k.b**2), rtol=1e-13)
        expected_y = (np.sqrt(2 * k.a + k.b) - np.sqrt(2 * k.a - k.b)) / (
            np.sqrt(2 * k.a + k.b) + np.sqrt(2 * k.a - k.b)
        )
        assert 0.0 < k.y < 1.0
        assert_allclose(k.y, expected_y, rtol=1e-13)
        assert_allclose(k.amplitude, np.sqrt((2 * k.a - k.b) / np.pi) / n, rtol=1e-13)


@pytest.mark.parametrize("token", [1.0, 2.0, "log"])
@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_mirror_symmetry_of_directly_built_kernels(token, n):
    spec, config = solved(n, token)
    modes = compute_modes(spec, config)
    for site in range(1, n // 2 + 1):
        left = site_kernel(modes, config, site)
        right = site_kernel(modes, config, n - site + 1)
        assert_allclose(left.amplitude, right.amplitude, atol=1e-10)
        assert_allclose(left.a, right.a, atol=1e-10)
        assert_allclose(left.b, right.b, atol=1e-10)
        assert_allclose(left.center, -right.center, atol=1e-10)


def _schur_reference(modes, n):
    """(A, a, b, eta, y) per site from one Schur-complement solve per site."""
    precision = ground_state_precision(modes)
    rows = []
    for idx in range(n):
        rest = [j for j in range(n) if j != idx]
        column = precision[rest, idx]
        block = precision[np.ix_(rest, rest)]
        schur_weight = column @ np.linalg.solve(block, column)
        a = 0.5 * precision[idx, idx] - 0.25 * schur_weight
        b = 0.5 * schur_weight
        sum_root, diff_root = np.sqrt(2 * a + b), np.sqrt(2 * a - b)
        amplitude = diff_root / np.sqrt(np.pi) / n
        rows.append((amplitude, a, b, sum_root * diff_root, (sum_root - diff_root) / (sum_root + diff_root)))
    return np.array(rows)


def _parameters(kernel):
    return (kernel.amplitude, kernel.a, kernel.b, kernel.eta, kernel.y)


@pytest.mark.parametrize("token", ["log", 0.5, 2.0])
@pytest.mark.parametrize("n", [2, 3, 8, 40, 150])
def test_closed_form_kernels_match_schur_solve(token, n):
    # the default tolerance sits below the gradient's floating-point floor at N = 150, d = 2
    spec, config = solved(n, token, 1e-12 if n <= 40 else 1e-11)
    modes = compute_modes(spec, config)
    reference = _schur_reference(modes, n)
    kernels = all_site_kernels(modes, config)
    assert_allclose([_parameters(k) for k in kernels], reference, rtol=1e-11, atol=0)
    direct = [site_kernel(modes, config, site) for site in range(1, n + 1)]
    assert_allclose([_parameters(k) for k in direct], reference, rtol=1e-11, atol=0)
    for i in range(n):
        assert _parameters(kernels[i]) == _parameters(kernels[n - 1 - i])
        assert kernels[i].center == config.positions[i]


def test_uncoupled_sites_raise_singular_block():
    # identity modes leave every site uncoupled, so b = 0 and no kernel exists;
    # the frequencies are mirror symmetric like those of a solved chain, and
    # 1/(1/v) - v is -1 ulp at 0.9 and +1 ulp at 1.9, so b comes out as a
    # roundoff-sized positive number at the outer sites and negative in the middle
    n = 3
    modes = NormalModes(np.array([0.9, 1.9, 0.9]), np.eye(n))
    _, config = solved(n, 1.0)
    with pytest.raises(SingularBlock, match="site 1"):
        all_site_kernels(modes, config)
    for site in range(1, n + 1):
        with pytest.raises(SingularBlock, match=f"site {site}"):
            site_kernel(modes, config, site)


def test_site_index_validation():
    spec, config = solved(3, 1.0)
    modes = compute_modes(spec, config)
    with pytest.raises(ValueError):
        site_kernel(modes, config, 0)
    with pytest.raises(ValueError):
        site_kernel(modes, config, 4)


def test_three_particle_leading_occupancies():
    _, _, _, kernels = kernel_set(3, 1.0)
    lam0 = [leading_occupancy(k) for k in kernels]
    assert_allclose(lam0[0], 0.3249, atol=5e-4)
    assert_allclose(lam0[2], 0.3249, atol=5e-4)
    assert_allclose(lam0[1], 0.3193, atol=5e-4)


def test_two_particle_log_leading_occupancy_closed_form():
    _, _, _, kernels = kernel_set(2, "log")
    expected = 2.0 ** 1.25 / (1.0 + 2.0 ** 0.25) ** 2
    assert_allclose(leading_occupancy(kernels[0]), expected, atol=1e-8)


def test_hard_core_trend_of_kernel_parameters():
    # the diagonal decay -2a + b approaches -N and A approaches 1/sqrt(2 pi N / 2)
    decays, amplitudes = [], []
    for d in (1e2, 1e4, 1e6):
        _, _, _, kernels = kernel_set(2, d, tol=1e-9)
        decays.append(kernels[0].b - 2.0 * kernels[0].a)
        amplitudes.append(kernels[0].amplitude)
    target = 1.0 / np.sqrt(2.0 * np.pi)
    assert abs(decays[0] + 2.0) > abs(decays[1] + 2.0) > abs(decays[2] + 2.0)
    assert abs(amplitudes[0] - target) > abs(amplitudes[1] - target) > abs(amplitudes[2] - target)
    assert_allclose(decays[2], -2.0, atol=1e-2)


def test_natural_orbital_center_values():
    _, _, _, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]
    assert_allclose(natural_orbital(kernel, 0, kernel.center), (kernel.eta / np.pi) ** 0.25, rtol=1e-13)
    assert abs(natural_orbital(kernel, 1, kernel.center)) < 1e-14
    with pytest.raises(ValueError):
        natural_orbital(kernel, -1, 0.0)


def test_natural_orbitals_orthonormal():
    _, _, _, kernels = kernel_set(3, 2.0)
    kernel = kernels[1]
    grid = _grid(kernel)
    weights = _quadrature_weights(grid)
    table = [natural_orbital(kernel, l, grid) for l in range(6)]
    for l in range(6):
        for m in range(6):
            overlap = float(np.sum(weights * table[l] * table[m]))
            assert abs(overlap - (1.0 if l == m else 0.0)) < 1e-8


def test_natural_orbital_recurrence_stable_at_high_index():
    _, _, _, kernels = kernel_set(2, 2.0)
    kernel = kernels[0]
    # classical turning point sits at sqrt(2l+1) scaled units, keep margin
    reach = 22.0 * kernel.width
    grid = np.linspace(kernel.center - reach, kernel.center + reach, 20001)
    weights = _quadrature_weights(grid)
    values = natural_orbital(kernel, 150, grid)
    assert np.all(np.isfinite(values))
    assert abs(float(np.sum(weights * values**2)) - 1.0) < 1e-8


def test_kernel_reconstruction_from_orbitals():
    # truncated spectral sum rebuilds the Gaussian kernel pointwise
    _, _, _, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]
    xs = np.linspace(kernel.center - 2, kernel.center + 2, 7)
    rebuilt = np.zeros((7, 7))
    for l in range(60):
        u = natural_orbital(kernel, l, xs)
        rebuilt += occupancy(kernel, l) * np.outer(u, u)
    assert_allclose(rebuilt, kernel_value(kernel, xs[:, None], xs[None, :]), atol=1e-12)


@pytest.mark.parametrize("token", [0.5, 2.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_spectrum_invariants(token, n):
    _, _, _, kernels = kernel_set(n, token)
    spectrum = occupancy_spectrum(kernels, tail_tol=1e-12)
    # exactly geometric ladders
    for kernel, ladder in zip(kernels, spectrum.ladders):
        assert np.array_equal(ladder[1:], ladder[:-1] * kernel.y)
    # unit trace including the analytic tails
    total = sum(float(np.sum(ladder)) for ladder in spectrum.ladders) + spectrum.tail_bound
    assert abs(total - 1.0) <= 1e-10
    # every site carries 1/N
    for ladder, tail in zip(spectrum.ladders, spectrum.tail_bounds):
        assert abs(float(np.sum(ladder)) + tail - 1.0 / n) <= 1e-10
    # mirror degeneracy of the ladders
    for i in range(n // 2):
        assert_allclose(spectrum.ladders[i], spectrum.ladders[n - 1 - i], atol=1e-10)
    assert spectrum.degree_of_correlation > n
    assert spectrum.delta_k > 0


def test_closed_form_purity_matches_truncated_sum():
    _, _, _, kernels = kernel_set(4, 2.0)
    spectrum = occupancy_spectrum(kernels, tail_tol=1e-12)
    truncated = sum(float(np.sum(ladder**2)) for ladder in spectrum.ladders)
    # the analytic tail contribution is below tail_tol**2; roundoff dominates
    assert abs(spectrum.purity - truncated) <= max(1e-12**2, 64 * np.finfo(float).eps)


def test_two_particle_log_correlation_numbers():
    _, _, _, kernels = kernel_set(2, "log")
    spectrum = occupancy_spectrum(kernels)
    assert_allclose(spectrum.degree_of_correlation, 2.03, atol=0.01)
    residual = 1.0 - 2.0 * leading_occupancy(kernels[0])
    assert_allclose(residual, 0.007, atol=0.001)


def test_delta_k_grows_with_d_and_n():
    tokens = ["log", 0.5, 1.0, 2.0, 6.0]
    by_n = {}
    for n in (2, 4, 6, 10):
        deltas = []
        for token in tokens:
            _, _, _, kernels = kernel_set(n, token)
            deltas.append(occupancy_spectrum(kernels).delta_k)
        assert np.all(np.diff(deltas) > 0)
        by_n[n] = deltas
    for i in range(len(tokens)):
        column = [by_n[n][i] for n in (2, 4, 6, 10)]
        assert np.all(np.diff(column) > 0)


def test_two_particle_occupancy_asymptote():
    # lambda0 * d**0.25 / 2 climbs toward 1 from below, order d**-0.25;
    # the gradient noise floor grows like d * eps, hence the loose tol
    ratios = []
    for d in (1e4, 1e6, 1e8):
        _, _, _, kernels = kernel_set(2, d, tol=1e-7)
        ratios.append(leading_occupancy(kernels[0]) * d**0.25 / 2.0)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    assert ratios[1] > 0.9


def test_site_density_matches_kernel_diagonal():
    _, _, _, kernels = kernel_set(3, 1.0)
    kernel = kernels[0]
    xs = np.linspace(kernel.center - 3, kernel.center + 3, 11)
    assert_allclose(site_density(kernel, xs), kernel_value(kernel, xs, xs), rtol=1e-13)
    assert_allclose(site_density(kernel, kernel.center), kernel.amplitude, rtol=1e-13)
    weights_grid = _grid(kernel)
    integral = np.trapezoid(site_density(kernel, weights_grid), weights_grid)
    assert abs(integral - 1.0 / 3.0) < 1e-10


def test_rank_one_kernel_makes_leading_orbital_exact():
    # with no off-diagonal coupling the ladder collapses onto l = 0
    a = 0.8
    b = 1e-13
    amplitude = np.sqrt((2 * a - b) / np.pi)
    eta = np.sqrt((2 * a - b) * (2 * a + b))
    y = (np.sqrt(2 * a + b) - np.sqrt(2 * a - b)) / (np.sqrt(2 * a + b) + np.sqrt(2 * a - b))
    kernel = SiteKernel(1, 0.0, amplitude, a, b, eta, y)
    assert_allclose(leading_occupancy(kernel), 1.0, atol=1e-12)
    spectrum = occupancy_spectrum([kernel])
    xs = np.linspace(-4, 4, 101)
    approx = rank_n_density_approximation([kernel], spectrum, xs)
    assert_allclose(approx, site_density(kernel, xs), atol=1e-12)


def test_leading_orbital_truncation_quality_tracks_delta_k():
    # weak correlation: the N-orbital density is accurate to a fraction of a percent
    _, _, _, kernels = kernel_set(2, "log")
    spectrum = occupancy_spectrum(kernels)
    kernel = kernels[0]
    xs = _grid(kernel, half_widths=6.0, points=801)
    exact = site_density(kernel, xs)
    approx = spectrum.ladders[0][0] * natural_orbital(kernel, 0, xs) ** 2
    assert np.max(np.abs(exact - approx)) < 0.01 * kernel.amplitude
    # strong correlation: the same truncation visibly underestimates the peak region
    _, _, _, kernels = kernel_set(2, 10.0)
    spectrum = occupancy_spectrum(kernels)
    kernel = kernels[0]
    xs = _grid(kernel, half_widths=6.0, points=801)
    exact = site_density(kernel, xs)
    approx = spectrum.ladders[0][0] * natural_orbital(kernel, 0, xs) ** 2
    assert np.all(approx <= exact + 1e-12)
    assert np.max(exact - approx) > 0.01 * kernel.amplitude


def test_site_purity_closed_form():
    _, _, _, kernels = kernel_set(3, 2.0)
    for kernel in kernels:
        ladder = np.array([occupancy(kernel, l) for l in range(200)])
        assert_allclose(site_purity(kernel), float(np.sum(ladder**2)), rtol=1e-12)


def test_ladders_are_running_products_per_site():
    # sites with several distinct ladder lengths, one of them a bare l_max = 0
    _, _, _, kernels = kernel_set(6, 1.0)
    kernels = list(kernels) + [
        dataclasses.replace(kernels[0], site=7, y=1e-14),
        dataclasses.replace(kernels[1], site=8, y=0.6),
        dataclasses.replace(kernels[2], site=9, y=0.01),
    ]
    spectrum = occupancy_spectrum(kernels)
    amplitude, eta, y = np.array([(k.amplitude, k.eta, k.y) for k in kernels]).T
    lam0 = amplitude * np.sqrt(np.pi * (1.0 - y**2) / eta)
    sizes = [ladder.size for ladder in spectrum.ladders]
    assert 1 in sizes and len(set(sizes)) >= 4
    for ladder, first, ratio in zip(spectrum.ladders, lam0, y):
        reference = np.cumprod(np.concatenate(([first], np.full(ladder.size - 1, ratio))))
        assert np.array_equal(ladder, reference)
        assert not ladder.flags.writeable
    last = np.array([ladder[-1] for ladder in spectrum.ladders])
    assert np.array_equal(spectrum.tail_bounds, last * y / (1.0 - y))
