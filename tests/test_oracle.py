import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kernel_set, solved
from wigmol import (
    Configuration,
    Interaction,
    QuadratureSpec,
    SystemSpec,
    ground_state_precision,
    independent_minimum,
    kernel_value,
    momentum_quadrature,
    natural_orbital,
    nystrom_grid,
    nystrom_occupancies,
    occupancy,
    oracle,
    potential,
    potential_gradient,
    potential_value,
    quadrature_kernel,
    site_density,
    verification,
)
from wigmol.errors import DimensionTooLarge, UnsupportedLimit
from wigmol.oracle import random_admissible_positions


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points_per_dim=1)


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


@pytest.fixture
def hermgauss_builds(monkeypatch):
    """Counts of Gauss-Hermite rules built per order, starting from empty rule caches."""
    oracle._hermite_rule.cache_clear()
    oracle._tensor_rule.cache_clear()
    builds = collections.Counter()
    build = np.polynomial.hermite.hermgauss

    def counted(order):
        builds[order] += 1
        return build(order)

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
    yield builds
    oracle._hermite_rule.cache_clear()
    oracle._tensor_rule.cache_clear()


def test_each_gauss_hermite_rule_is_built_once(hermgauss_builds):
    _, config, modes, kernels = kernel_set(3, 1.0)
    _, config_2, modes_2, _ = kernel_set(2, 1.0)
    for x in np.linspace(-0.5, 0.5, 5):
        quadrature_kernel(modes, config, 2, x, -x)
        quadrature_kernel(modes, config, 1, x, x, QuadratureSpec(20))
        quadrature_kernel(modes_2, config_2, 1, x, x)
        momentum_quadrature(kernels, x)
    assert hermgauss_builds == {40: 1, 20: 1, 60: 1}


def test_cached_rules_and_pair_mask_are_read_only():
    arrays = [*oracle._hermite_rule(40), *oracle._tensor_rule(40, 2), potential._pair_mask(5)]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


def _uncached_quadrature_kernel(modes, config, site, x, x_prime, order=40):
    """The site-kernel integral with its tensor Gauss-Hermite rule built inline."""
    n = config.n_particles
    idx = site - 1
    rest = [j for j in range(n) if j != idx]
    block_eigs, block_vecs = np.linalg.eigh(ground_state_precision(modes)[np.ix_(rest, rest)])
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    t = np.stack([g.ravel() for g in np.meshgrid(*([nodes] * (n - 1)), indexing="ij")], axis=1)
    weight = np.ones(t.shape[0])
    for g in np.meshgrid(*([weights] * (n - 1)), indexing="ij"):
        weight = weight * g.ravel()
    freqs, rows = modes.frequencies, modes.mode_matrix

    def log_amplitude(points):
        return 0.25 * np.sum(np.log(freqs / np.pi)) - 0.5 * ((points @ rows.T) ** 2) @ freqs

    z = np.empty((t.shape[0], n))
    z[:, rest] = (t / np.sqrt(block_eigs)) @ block_vecs.T
    z[:, idx] = x - config.positions[idx]
    z_prime = z.copy()
    z_prime[:, idx] = x_prime - config.positions[idx]
    exponent = log_amplitude(z) + log_amplitude(z_prime) + np.sum(t**2, axis=1)
    return float(weight @ np.exp(exponent)) * float(np.prod(1.0 / np.sqrt(block_eigs))) / n


def test_quadrature_kernel_is_bitwise_the_uncached_integral():
    _, config, modes, kernels = kernel_set(3, 1.0)
    grid = np.linspace(-2.0, 2.0, 5) * kernels[1].width
    for x in grid:
        for x_prime in grid:
            direct = quadrature_kernel(modes, config, 2, x, x_prime)
            assert direct == _uncached_quadrature_kernel(modes, config, 2, x, x_prime)


@pytest.mark.parametrize("token", [1.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 7, 100])
def test_potential_value_is_bitwise_the_tri_gather(n, token):
    spec = SystemSpec(n, Interaction.from_token(token))
    rng = np.random.default_rng(n)
    for pos in (np.sort(rng.uniform(-n, n, size=n)), rng.permutation(np.linspace(-n, n, n))):
        pairs = np.abs((pos[:, None] - pos[None, :])[~np.tri(n, dtype=bool)])
        if spec.interaction.is_log_limit:
            expected = float((pos**2).sum() - np.log(pairs**2).sum())
        else:
            expected = float(0.5 * (pos**2).sum() + (pairs ** (-spec.interaction.d)).sum())
        assert potential_value(spec, pos) == expected
    assert np.array_equal(potential._pair_mask(n), ~np.tri(n, dtype=bool))


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


def _dense_nystrom_occupancies(kernel_evaluator, grid, top_k):
    """The whole weighted kernel matrix and all its eigenvalues: the reference for the pivoted Cholesky."""
    grid = np.asarray(grid, dtype=float)
    mesh_x, mesh_xp = np.meshgrid(grid, grid, indexing="ij")
    matrix = np.asarray(kernel_evaluator(mesh_x, mesh_xp), dtype=float)
    root_w = np.sqrt(oracle._trapezoid_weights(grid))
    scaled = root_w[:, None] * matrix * root_w[None, :]
    scaled = 0.5 * (scaled + scaled.T)
    eigenvalues = np.linalg.eigvalsh(scaled)[::-1]
    return eigenvalues[:top_k], float(np.trace(scaled))


def _assert_matches_dense(kernel_evaluator, grid, top_k):
    # trace(R) <= eps * trace(S) bounds the gap in exact arithmetic; each
    # side adds its own roundoff of a few eps * ||S||_2 <= eps * trace(S)
    # (the dense eigenvalues alone sit up to 2.2 eps * trace(S) from the
    # closed-form ladder)
    dense, trace = _dense_nystrom_occupancies(kernel_evaluator, grid, top_k)
    pivoted = nystrom_occupancies(kernel_evaluator, grid, top_k)
    assert np.max(np.abs(pivoted - dense)) <= 8.0 * np.finfo(float).eps * trace


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 4.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 20, 40])
def test_nystrom_matches_the_dense_spectrum(n, token):
    _, _, _, kernels = kernel_set(n, token)
    for site in sorted({1, n // 4 + 1, (n + 1) // 2}):
        kernel = kernels[site - 1]
        _assert_matches_dense(lambda x, xp: kernel_value(kernel, x, xp), nystrom_grid(kernel), 5)


def test_nystrom_matches_the_dense_spectrum_of_a_kernel_sum():
    _, _, _, kernels = kernel_set(2, 2.0)
    shift = 14.0 * max(k.width for k in kernels)
    moved = [
        kernels[0].__class__(k.site, c, k.amplitude, k.a, k.b, k.eta, k.y)
        for k, c in zip(kernels, (-shift, shift))
    ]
    grid = np.linspace(-shift - 8.0 * moved[0].width, shift + 8.0 * moved[0].width, 1200)
    _assert_matches_dense(lambda x, xp: kernel_value(moved[0], x, xp) + kernel_value(moved[1], x, xp), grid, 6)


def test_nystrom_evaluates_a_few_columns():
    _, _, _, kernels = kernel_set(3, 2.0)
    kernel = kernels[0]
    grid = nystrom_grid(kernel)
    sizes = []

    def counted(x, xp):
        values = kernel_value(kernel, x, xp)
        sizes.append(values.size)
        return values

    nystrom_occupancies(counted, grid, 5)
    # the diagonal, then both halves of one symmetrized column per rank step
    rank = (len(sizes) - 1) // 2
    assert sizes == [grid.size] * (2 * rank + 1)
    assert rank <= 20  # so at most 41 n points, against n**2 for the whole matrix


def test_nystrom_pads_past_the_rank_with_zeros():
    _, _, _, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]

    def projector(x, xp):
        return natural_orbital(kernel, 0, x) * natural_orbital(kernel, 0, xp)

    eigenvalues = nystrom_occupancies(projector, nystrom_grid(kernel), 3)
    assert eigenvalues.shape == (3,) and np.array_equal(eigenvalues[1:], [0.0, 0.0])
    assert nystrom_occupancies(projector, nystrom_grid(kernel, points=3), 5).shape == (3,)
    assert np.array_equal(nystrom_occupancies(lambda x, xp: 0.0 * (x - xp), nystrom_grid(kernel), 2), [0.0, 0.0])


def test_nystrom_rejects_bad_grids_and_kernels():
    _, _, _, kernels = kernel_set(2, 1.0)
    kernel = kernels[0]

    def rho(x, xp):
        return kernel_value(kernel, x, xp)

    grid = nystrom_grid(kernel)
    with pytest.raises(ValueError, match="at least two points"):
        nystrom_occupancies(rho, grid[:1], 5)
    for bad in (grid[::-1], np.r_[grid[:5], np.nan, grid[6:]], np.r_[grid[:5], grid[4:]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            nystrom_occupancies(rho, bad, 5)
    with pytest.raises(ValueError, match="not finite"):
        nystrom_occupancies(lambda x, xp: np.where(x == xp, np.inf, rho(x, xp)), grid, 5)
    for not_psd in (lambda x, xp: -rho(x, xp), lambda x, xp: 1.0 - rho(x, xp)):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            nystrom_occupancies(not_psd, grid, 5)


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


def _mirrored(half, n):
    return np.concatenate((-half[::-1], np.zeros(n % 2), half))


@pytest.mark.parametrize("token", [0.5, 1.0, 6.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_line_energy_moves_like_the_whole_landscape(n, token):
    spec = SystemSpec(n, Interaction.from_token(token))
    m = n // 2
    rng = np.random.default_rng(10 * n + m)
    for _ in range(5):
        half = np.cumsum(rng.uniform(0.4, 1.2, size=m)) - (0.2 if n % 2 else 0.0)
        for k in range(m):
            lo = half[k - 1] if k > 0 else 0.0
            hi = half[k + 1] if k < m - 1 else half[k] + 1.0
            c_1, c_2 = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=2)
            line = oracle._line_energy(spec, half, k)
            chains = []
            for c in (c_1, c_2):
                trial = half.copy()
                trial[k] = c
                chains.append(potential_value(spec, _mirrored(trial, n)))
            scale = max(abs(value) for value in chains)
            assert abs((line(c_1) - line(c_2)) - (chains[0] - chains[1])) <= 1e-12 * scale


def test_independent_minimum_evaluates_no_whole_landscape(monkeypatch):
    def whole_landscape(spec, positions):
        raise AssertionError("the golden-section search evaluated the whole landscape")

    monkeypatch.setattr(potential, "potential_value", whole_landscape)
    monkeypatch.setattr(oracle, "potential_value", whole_landscape, raising=False)
    spec, newton = solved(5, 1.0)
    derivative_free = independent_minimum(spec)
    assert np.max(np.abs(derivative_free.positions - newton.positions)) <= 1e-8


# right halves of the golden-section minimum as found by the whole-landscape search
_LARGE_D_HALVES = {
    (3, 50.0): [1.078133399134444],
    (4, 300.0): [0.5083641522404057, 1.5260641242088127],
    (6, 300.0): [0.5070007058888649, 1.5213987226125831, 2.5373810762094466],
}


@pytest.mark.parametrize("n,d", sorted(_LARGE_D_HALVES))
def test_independent_minimum_at_large_d_raises_nothing(n, d):
    spec = SystemSpec(n, Interaction.power_law(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = independent_minimum(spec)
    assert np.max(np.abs(config.positions[n - n // 2 :] - _LARGE_D_HALVES[n, d])) <= 1e-8


def test_overflowing_probe_is_infinite():
    spec = SystemSpec(3, Interaction.power_law(400.0))
    assert oracle._line_energy(spec, np.array([1.0]), 0)(1e-9) == np.inf


def test_quadrature_rule_memo_is_bitwise_the_uncached_integral():
    _, config_3, modes_3, _ = kernel_set(3, 1.0)
    _, config_2, modes_2, _ = kernel_set(2, 1.0)
    calls = [
        (modes, config, site, order)
        for modes, config, sites in ((modes_2, config_2, (1, 2)), (modes_3, config_3, (1, 2)))
        for site in sites
        for order in (20, 40)
    ]
    for x, x_prime in ((0.3, -0.1), (-0.4, 0.2), (0.0, 0.5)):
        for modes, config, site, order in calls:
            x_site = config.positions[site - 1] + x
            xp_site = config.positions[site - 1] + x_prime
            direct = quadrature_kernel(modes, config, site, x_site, xp_site, QuadratureSpec(order))
            assert direct == _uncached_quadrature_kernel(modes, config, site, x_site, xp_site, order)


def test_amplitude_memo_is_bitwise_on_the_verify_grid():
    for n in (2, 3):
        _, config, modes, kernels = kernel_set(n, 1.0)
        for kernel in kernels:
            grid = np.linspace(kernel.center - 3 * kernel.width, kernel.center + 3 * kernel.width, 9)
            for order in (20, 40):
                for x in grid:
                    for x_prime in grid:
                        direct = quadrature_kernel(modes, config, kernel.site, x, x_prime, QuadratureSpec(order))
                        assert direct == _uncached_quadrature_kernel(modes, config, kernel.site, x, x_prime, order)
                # one node pass per grid value: the rule was rebuilt, so its memo started empty
                assert len(oracle._last_site_rule.amplitudes) == grid.size


def test_amplitude_memo_is_keyed_on_the_offset_from_the_center():
    _, config, modes, _ = kernel_set(3, 1.0)
    shifted = Configuration(config.positions + 0.25, config.residual)
    values = []
    for positions in (config, shifted, config):
        values.append(quadrature_kernel(modes, positions, 2, 0.1, -0.2))
        assert values[-1] == _uncached_quadrature_kernel(modes, positions, 2, 0.1, -0.2)
    assert values[0] == values[2] != values[1]


def test_amplitude_memo_stays_bitwise_after_eviction():
    _, config, modes, kernels = kernel_set(4, 1.0)
    width = kernels[1].width
    offsets = [0.0, 0.5, -0.5, 1.0, 0.0, 0.5]
    for x, x_prime in zip(offsets, offsets[::-1]):
        x_site, xp_site = config.positions[1] + x * width, config.positions[1] + x_prime * width
        direct = quadrature_kernel(modes, config, 2, x_site, xp_site)
        assert direct == _uncached_quadrature_kernel(modes, config, 2, x_site, xp_site)
        memo = oracle._last_site_rule.amplitudes
        assert sum(vector.nbytes for vector in memo.values()) <= oracle._AMPLITUDE_MEMO_BYTES
    assert len(memo) < len(set(offsets))


def meshgrid_momentum_quadrature(kernels, k, points=60):
    """The momentum integral with the cosine of the node difference taken on the whole node mesh."""
    nodes, weights = np.polynomial.hermite.hermgauss(points)
    mesh_s, mesh_sp = np.meshgrid(nodes, nodes, indexing="ij")
    weight = np.outer(weights, weights)
    total = 0.0
    for kernel in kernels:
        scale = np.sqrt(kernel.a)
        integrand = np.exp((kernel.b / kernel.a) * mesh_s * mesh_sp) * np.cos(k * (mesh_s - mesh_sp) / scale)
        total += kernel.amplitude / (2.0 * np.pi * kernel.a) * float(np.sum(weight * integrand))
    return total


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 5, 20])
def test_split_cosine_momentum_matches_the_meshgrid_integral(n, token):
    _, _, _, kernels = kernel_set(n, token)
    for k in np.linspace(-8.0, 8.0, 33):
        assert abs(momentum_quadrature(kernels, k) - meshgrid_momentum_quadrature(kernels, k)) <= 1e-14
    for k in (0.0, 1.5, -7.25):
        assert momentum_quadrature(list(kernels), k) == momentum_quadrature(kernels, k)


@pytest.mark.parametrize(
    "func, lo, hi, minimum",
    [
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.3),
        (lambda x: math.cosh(x - 2.0) + (x - 2.0) ** 4, -1.0, 5.0, 2.0),
        (lambda x: math.inf if x < 0.2 else x + 1.0 / x, 0.0, 3.0, 1.0),
        (lambda x: x, 0.0, 1.0, 0.0),
    ],
    ids=["parabola", "smooth", "infinite-part", "monotone"],
)
def test_brent_minimum_lands_within_half_xtol(func, lo, hi, minimum):
    for xtol in (1e-3, 1e-7):
        assert abs(oracle._brent_minimum(func, lo, hi, xtol) - minimum) <= xtol / 2


def test_brent_minimum_interpolates_where_golden_section_would_not():
    # golden section needs about 34 probes to shrink [0, 1] to 1e-7
    probes = []

    def smooth(x):
        probes.append(x)
        return (x - 0.3) ** 2 + (x - 0.3) ** 4

    assert abs(oracle._brent_minimum(smooth, 0.0, 1.0, 1e-7) - 0.3) <= 5e-8
    assert len(probes) <= 15


@pytest.mark.parametrize("n, d", [(4, 0.7), (5, 1.9), (6, 2.0), (7, 0.5)])
def test_polish_phases_stop_at_their_noise_floor(monkeypatch, n, d):
    # here a phase that stops on a 1e-11 move alone can sweep on in the rounding noise of its probes
    calls = [0]
    line_energy = oracle._line_energy

    def counted(*args):
        calls[0] += 1
        return line_energy(*args)

    phases = []
    parabolic_sweeps = oracle._parabolic_sweeps

    def phase(spec, half, step, max_sweeps, move_tol):
        before = calls[0]
        result = parabolic_sweeps(spec, half, step, max_sweeps, move_tol)
        # one line per coordinate per sweep
        phases.append(((calls[0] - before) // half.size, max_sweeps))
        return result

    monkeypatch.setattr(oracle, "_line_energy", counted)
    monkeypatch.setattr(oracle, "_parabolic_sweeps", phase)
    spec, newton = solved(n, d)
    derivative_free = independent_minimum(spec)
    assert len(phases) == 2
    assert all(sweeps < budget for sweeps, budget in phases)
    assert np.max(np.abs(derivative_free.positions - newton.positions)) <= 1e-9


def test_cross_solver_checks_spend_few_probes(monkeypatch):
    # about 6,000 probes; golden-section searches from the unscaled lattice, polished until
    # no move exceeds 1e-11, take about 24,000
    probes = [0]
    line_energy = oracle._line_energy

    def counted(*args):
        line = line_energy(*args)

        def probe(c):
            probes[0] += 1
            return line(c)

        return probe

    monkeypatch.setattr(oracle, "_line_energy", counted)
    checks = verification.cross_solver_checks()
    assert all(check.metric <= 1e-9 for check in checks)
    assert probes[0] <= 8000


def test_momentum_pair_matrices_are_built_once_per_kernel_set(monkeypatch):
    built = []
    node_pair_matrix = oracle._node_pair_matrix

    def counted(a, b):
        built.append((a, b))
        return node_pair_matrix(a, b)

    monkeypatch.setattr(oracle, "_node_pair_matrix", counted)
    monkeypatch.setattr(oracle, "_last_pair_matrices", None)
    checks = verification.kernel_checks()
    assert all(check.passed for check in checks)
    # 17 values of k at each of (2, 1), (2, 2), (3, 1) and (3, 2): one matrix per site
    assert len(built) == 2 + 2 + 3 + 3

    _, _, _, kernels = kernel_set(3, 1.0)
    built.clear()
    values = [momentum_quadrature(kernels, k) for k in (1.5, -2.0, 1.5)]
    assert len(built) == 3 and values[0] == values[2]
    # equal values in a new set: its matrices are built anew, bitwise the same
    copy = dataclasses.replace(kernels)
    assert copy is not kernels
    assert momentum_quadrature(copy, 1.5) == values[0]
    assert len(built) == 6
    held, matrices = oracle._last_pair_matrices
    assert held is copy and len(matrices) == 3
