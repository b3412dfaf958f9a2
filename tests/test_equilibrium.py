import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import solved
from wigmol import (
    Interaction,
    SystemSpec,
    all_site_kernels,
    compute_modes,
    equilibrium,
    lattice_guess,
    physical_centers,
    potential_value,
    solve_equilibrium,
)
from wigmol import _parity, potential
from wigmol.equilibrium import ALPHA, BETA, LATTICE
from wigmol.errors import InvalidScale, NoConvergence


def test_lattice_guess_values():
    assert_allclose(lattice_guess(2).positions, [-0.5, 0.5])
    assert_allclose(lattice_guess(3).positions, [-1.0, 0.0, 1.0])
    assert_allclose(lattice_guess(5).positions, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert lattice_guess(3).coordinate_kind == LATTICE
    assert lattice_guess(3).residual == 0.0


def test_two_particle_power_law_closed_form():
    _, config = solved(2, 1.0)
    assert_allclose(config.positions, [-(2.0 ** (-2.0 / 3.0)), 2.0 ** (-2.0 / 3.0)], atol=1e-12)


def test_two_particle_log_closed_form():
    _, config = solved(2, "log")
    assert_allclose(config.positions, [-np.sqrt(2.0) / 2.0, np.sqrt(2.0) / 2.0], atol=1e-12)
    assert config.coordinate_kind == ALPHA


@pytest.mark.parametrize("d", [0.3, 0.5, 1.0, 2.0, 4.5, 6.0, 25.0])
def test_two_particle_separation_closed_form(d):
    spec = SystemSpec(2, Interaction.power_law(d))
    config = solve_equilibrium(spec)
    separation = config.positions[1] - config.positions[0]
    assert_allclose(separation, (2.0 * d) ** (1.0 / (2.0 + d)), atol=1e-10)


def test_three_particle_parity():
    _, config = solved(3, 1.0)
    assert abs(config.positions[1]) < 1e-14
    assert_allclose(config.positions[0], -config.positions[2], atol=1e-14)


@pytest.mark.parametrize("token", [2.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_solution_independent_of_start(token, n):
    spec = SystemSpec(n, Interaction.from_token(token))
    reference = solve_equilibrium(spec)
    lattice = lattice_guess(n).positions
    rng = np.random.default_rng(n)
    starts = [lattice, 2.0 * lattice]
    spread = np.sort(rng.uniform(0.2, 2.0, size=n // 2))
    symmetric = np.concatenate([-spread[::-1], [0.0] * (n % 2), spread])
    starts.append(symmetric)
    for start in starts:
        config = solve_equilibrium(spec, initial_positions=start)
        assert_allclose(config.positions, reference.positions, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_lattice_approach_as_d_grows(n):
    deviations = []
    lattice = lattice_guess(n).positions
    for d in (10.0, 50.0, 200.0):
        _, config = solved(n, d)
        deviations.append(np.max(np.abs(config.positions - lattice)))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 0.1


@pytest.mark.parametrize("token", [1.0, "log"])
def test_solution_is_local_minimum(token):
    spec, config = solved(4, token)
    base = potential_value(spec, config.positions)
    rng = np.random.default_rng(42)
    for _ in range(20):
        perturbed = config.positions + 1e-3 * rng.standard_normal(4)
        assert potential_value(spec, perturbed) > base


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
@pytest.mark.parametrize("n", [2, 5, 13, 20])
def test_invariants_of_solution(token, n):
    spec, config = solved(n, token)
    assert config.residual <= 1e-12
    assert np.all(np.diff(config.positions) > 0)
    assert_allclose(config.positions, -config.positions[::-1], atol=1e-10)
    if n % 2:
        assert abs(config.positions[n // 2]) < 1e-10
    assert config.coordinate_kind == (ALPHA if token == "log" else BETA)


def test_hard_core_returns_lattice():
    spec = SystemSpec(7, Interaction.hard_core())
    config = solve_equilibrium(spec)
    assert_allclose(config.positions, lattice_guess(7).positions)
    assert config.coordinate_kind == LATTICE


def test_no_convergence_raises():
    spec = SystemSpec(6, Interaction.power_law(6.0))
    with pytest.raises(NoConvergence):
        solve_equilibrium(spec, max_iter=1)


# The log-limit minimum is exactly the zeros of H_N (Stieltjes 1885) and its
# squared mode frequencies are exactly 1..N (Calogero 1977).  N >= 500 is left
# out because the default tol sits below the floating-point floor there:
# the solve raises NoConvergence from every start, so the N = 1000 oracle
# waits for a scale-aware stopping rule.
@pytest.mark.parametrize("n", [2, 3, 10, 50, 100, 250, 400])
def test_log_limit_is_hermite_zeros(n):
    spec = SystemSpec(n, Interaction.log_limit())
    # the start is the closed form, so two iterations leave room for one polish step
    config = solve_equilibrium(spec, max_iter=2)
    with np.errstate(all="ignore"):  # the quadrature weights overflow at large n
        zeros, _ = np.polynomial.hermite.hermgauss(n)
    assert_allclose(config.positions, zeros, rtol=0.0, atol=1e-12)
    squared = compute_modes(spec, config).frequencies ** 2
    assert_allclose(squared, np.arange(1.0, n + 1.0), rtol=1e-10)


def test_physical_centers_power_law():
    spec, config = solved(2, 2.0)
    # 16**(1/4) = 2 doubles the scaled coordinates
    assert_allclose(physical_centers(config, spec, g=16.0), [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-12)
    assert_allclose(physical_centers(config, spec, g=1.0), config.positions)


def test_physical_centers_log_and_hard_core():
    spec, config = solved(2, "log")
    scaled = physical_centers(config, spec, g=8.0, d_aux=0.5)
    assert_allclose(scaled, config.positions * 2.0)
    hard_spec = SystemSpec(3, Interaction.hard_core())
    config = solve_equilibrium(hard_spec)
    assert_allclose(physical_centers(config, hard_spec, g=1e6), [-1.0, 0.0, 1.0])


def test_physical_centers_invalid_scale():
    spec, config = solved(2, 2.0)
    with pytest.raises(InvalidScale):
        physical_centers(config, spec, g=0.0)
    log_spec, log_config = solved(2, "log")
    with pytest.raises(InvalidScale):
        physical_centers(log_config, log_spec, g=1.0)
    with pytest.raises(InvalidScale):
        physical_centers(log_config, log_spec, g=1.0, d_aux=-0.1)


# d = 2 is Calogero's chain: its minimum is the zeros of H_N in beta
# coordinates too, its mode frequencies are exactly 1..N, and the Hermite-zero
# sum rule sum_{j != i} (z_i - z_j)**-2 = (2N - 2 - z_i**2)/3 gives every site
# 2a + b = M_ii = (2N + 1 - z_i**2)/3 in closed form.
@pytest.mark.parametrize("n", [5, 20, 40, 60])
def test_inverse_square_chain_is_exact(n):
    spec = SystemSpec(n, Interaction.power_law(2.0))
    config = solve_equilibrium(spec)
    zeros, _ = np.polynomial.hermite.hermgauss(n)
    assert_allclose(config.positions, zeros, rtol=0.0, atol=1e-12)
    modes = compute_modes(spec, config)
    assert_allclose(modes.frequencies, np.arange(1.0, n + 1.0), rtol=1e-12)
    kernels = all_site_kernels(modes, config)
    sums = np.array([2.0 * k.a + k.b for k in kernels])
    assert_allclose(sums, (2.0 * n + 1.0 - zeros**2) / 3.0, rtol=1e-12)


@pytest.mark.parametrize("token", [1.0, "log"])
@pytest.mark.parametrize("n", [2, 7, 12])
def test_solution_is_exactly_antisymmetric(token, n):
    _, config = solved(n, token)
    assert np.array_equal(config.positions, -config.positions[::-1])
    if n % 2:
        assert config.positions[n // 2] == 0.0


def test_start_of_wrong_length_rejected():
    # a 5-vector has the same right half size as a 4-particle chain
    spec = SystemSpec(4, Interaction.power_law(1.0))
    with pytest.raises(ValueError, match="expected 4 starting positions"):
        solve_equilibrium(spec, initial_positions=np.arange(5.0))


@pytest.mark.parametrize("n", [10, 100, 250])
def test_hermite_start_needs_no_landscape_value(n, monkeypatch):
    # N = 10 and 100 stop at the start; N = 250 takes one Newton step, which
    # the line search accepts on the gradient alone
    def refuse(*args):
        raise AssertionError("potential_value was called")

    monkeypatch.setattr(potential, "potential_value", refuse)
    config = solve_equilibrium(SystemSpec(n, Interaction.log_limit()))
    assert config.residual <= 1e-12


def test_overflowing_line_search_candidates_are_silent():
    # at d = 1000 the first full Newton steps overflow the pair terms of the
    # candidate's pass; such candidates are rejected without a RuntimeWarning
    spec = SystemSpec(60, Interaction.power_law(1000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = solve_equilibrium(spec, tol=1e-8)
    assert config.residual <= 1e-8


def test_exhausted_budget_reports_the_last_residual():
    spec = SystemSpec(6, Interaction.power_law(6.0))
    with pytest.raises(NoConvergence, match=r"gradient max-norm \S+ still above tol 1e-12 after 3 Newton"):
        solve_equilibrium(spec, max_iter=3)


def test_overflowing_candidates_from_a_lattice_start_are_silent():
    # the scaled unit lattice is far enough from the d = 1000 minimum that
    # full Newton steps overflow sep**(-d - 2); the line search halves them
    n, d = 60, 1000.0
    start = lattice_guess(n).positions * (2.0 * d) ** (1.0 / (2.0 + d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = solve_equilibrium(SystemSpec(n, Interaction.power_law(d)), tol=1e-8, initial_positions=start)
    assert config.residual <= 1e-8
    assert config.line_search_halvings > 0


def test_unsolved_configurations_record_no_work():
    assert lattice_guess(5).iterations == 0
    assert lattice_guess(5).line_search_halvings == 0
    config = solve_equilibrium(SystemSpec(7, Interaction.hard_core()))
    assert (config.iterations, config.line_search_halvings) == (0, 0)


def _start(n, d):
    return _parity.unfold(equilibrium._initial_half(SystemSpec(n, Interaction.power_law(d))), n)


@pytest.mark.parametrize("d", [0.3, 1.0, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("n", [2, 3, 10, 51, 400])
def test_start_is_ordered_antisymmetric_and_virial_stationary(n, d):
    # V(s x) is stationary in s at s = 1 exactly when d * sum sep**-d = sum x**2
    x = _start(n, d)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    sep = (x[None, :] - x[:, None])[np.triu_indices(n, 1)]
    assert abs(np.log(d * np.sum(sep**-d)) - np.log(np.sum(x**2))) <= 1e-12


@pytest.mark.parametrize("d", [1e2, 1e4, 1e6])
@pytest.mark.parametrize("n", [5, 50, 400])
def test_start_at_large_d_is_finite_and_silent(n, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _start(n, d)
    assert np.all(np.isfinite(x))
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    if d >= 1e4:
        # the virial scale sets the closest pair near the hard-core spacing 1
        assert abs(np.diff(x).min() - 1.0) < 1e-3


@pytest.mark.parametrize("d", [0.3, 1.0, 6.0, 1e4])
@pytest.mark.parametrize("n", [2, 3])
def test_few_particle_start_is_the_minimum(n, d):
    # one free coordinate: the virial scale is the minimum along it
    config = solve_equilibrium(SystemSpec(n, Interaction.power_law(d)))
    assert config.iterations == 0


@pytest.mark.parametrize(("n", "d"), [(10, 0.3), (31, 0.3), (150, 0.3), (10, 1.0), (31, 1.0), (10, 3.0), (31, 3.0)])
def test_continuum_start_needs_few_newton_steps(n, d):
    config = solve_equilibrium(SystemSpec(n, Interaction.power_law(d)))
    assert config.iterations <= 5


@pytest.mark.parametrize("n", [5, 20, 40, 60])
def test_inverse_square_chain_starts_at_its_minimum(n):
    config = solve_equilibrium(SystemSpec(n, Interaction.power_law(2.0)))
    assert config.iterations <= 1


def _profile_cdf(d):
    """The Riesz-gas profile (1 - t**2)**gamma on [-1, 1], its CDF and its second moment."""
    gamma = (1.0 + d) / 2.0 if d < 1.0 else 1.0 / d
    t = np.linspace(-1.0, 1.0, 200_001)
    density = (1.0 - t**2) ** gamma
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]))))
    return t, cdf / cdf[-1], 1.0 / (2.0 * gamma + 3.0)


@pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
def test_solved_chain_approaches_the_continuum_profile(d):
    # the largest gap between the profile's CDF at the solved sites (scaled to
    # the profile's second moment) and the site fractions i/(N + 1) shrinks with N
    t, cdf, second_moment = _profile_cdf(d)
    distances = []
    for n in (10, 40, 160):
        x = solve_equilibrium(SystemSpec(n, Interaction.power_law(d)), tol=1e-9).positions
        edge = np.sqrt(np.mean(x**2) / second_moment)
        fractions = np.arange(1, n + 1) / (n + 1.0)
        distance = np.max(np.abs(np.interp(x / edge, t, cdf) - fractions))
        assert distance <= 0.6 / n**0.75
        distances.append(distance)
    assert distances[0] > distances[1] > distances[2]
