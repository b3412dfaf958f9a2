import numpy as np
import pytest
from numpy.testing import assert_allclose

from wigmol import Interaction, SystemSpec, _parity, potential_gradient, potential_hessian, potential_value
from wigmol.errors import CoincidentPositions, UnsupportedLimit
from wigmol.oracle import fd_gradient, fd_jacobian, random_admissible_positions
from wigmol.potential import _gradient_and_hessian

ROOT_HALF = np.sqrt(2.0) / 2.0


def test_interaction_validation():
    with pytest.raises(ValueError):
        Interaction.power_law(0.0)
    with pytest.raises(ValueError):
        Interaction.power_law(-1.0)
    with pytest.raises(ValueError):
        Interaction.power_law(float("inf"))
    with pytest.raises(ValueError):
        SystemSpec(1, Interaction.power_law(1.0))
    assert Interaction.log_limit().is_log_limit
    assert Interaction.hard_core().is_hard_core


def test_interaction_from_token():
    assert Interaction.from_token("log") == Interaction.log_limit()
    assert Interaction.from_token("inf") == Interaction.hard_core()
    assert Interaction.from_token("2") == Interaction.from_token(2.0) == Interaction.power_law(2.0)
    with pytest.raises(ValueError):
        Interaction.from_token("infinity")


def test_power_law_value_at_two_particle_minimum():
    # separation (2d)**(1/(2+d)) = sqrt(2) at d = 2, where the value is exactly 1
    spec = SystemSpec(2, Interaction.power_law(2.0))
    assert_allclose(potential_value(spec, [-ROOT_HALF, ROOT_HALF]), 1.0, rtol=1e-14)


def test_log_value_at_two_particle_minimum():
    spec = SystemSpec(2, Interaction.log_limit())
    assert_allclose(potential_value(spec, [-ROOT_HALF, ROOT_HALF]), 1.0 - np.log(2.0), rtol=1e-14)


def test_coincident_positions_rejected():
    spec = SystemSpec(2, Interaction.power_law(1.0))
    with pytest.raises(CoincidentPositions):
        potential_value(spec, [0.0, 0.0])
    with pytest.raises(CoincidentPositions):
        potential_gradient(spec, [0.3, 0.3])


@pytest.mark.parametrize("token", [1.0, "log"])
@pytest.mark.parametrize("positions", [[0.3, -1.0, 0.3], [1.0, 0.2, -0.5, 0.2]])
def test_unsorted_coincident_positions_rejected(token, positions):
    spec = SystemSpec(len(positions), Interaction.from_token(token))
    for func in (potential_value, potential_gradient, potential_hessian):
        with pytest.raises(CoincidentPositions):
            func(spec, positions)


def test_hard_core_rejected_everywhere():
    spec = SystemSpec(2, Interaction.hard_core())
    for func in (potential_value, potential_gradient, potential_hessian):
        with pytest.raises(UnsupportedLimit):
            func(spec, [-0.5, 0.5])


def test_gradient_vanishes_at_known_minima():
    spec = SystemSpec(2, Interaction.power_law(2.0))
    assert np.max(np.abs(potential_gradient(spec, [-ROOT_HALF, ROOT_HALF]))) < 1e-12
    spec = SystemSpec(2, Interaction.log_limit())
    assert np.max(np.abs(potential_gradient(spec, [-ROOT_HALF, ROOT_HALF]))) < 1e-12


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
def test_gradient_antisymmetric_for_symmetric_positions(token):
    spec = SystemSpec(3, Interaction.from_token(token))
    grad = potential_gradient(spec, [-1.3, 0.0, 1.3])
    assert_allclose(grad[0], -grad[2], rtol=1e-13)
    assert abs(grad[1]) < 1e-13


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 6.0])
def test_two_particle_hessian_eigenvalues(d):
    spec = SystemSpec(2, Interaction.power_law(d))
    half = 0.5 * (2.0 * d) ** (1.0 / (2.0 + d))
    eigenvalues = np.linalg.eigvalsh(potential_hessian(spec, [-half, half]))
    assert_allclose(eigenvalues, [1.0, d + 2.0], rtol=1e-12)


def test_log_hessian_uniform_direction():
    spec = SystemSpec(2, Interaction.log_limit())
    hess = potential_hessian(spec, [-ROOT_HALF, ROOT_HALF])
    uniform = np.ones(2) / np.sqrt(2.0)
    assert_allclose(hess @ uniform, uniform, atol=1e-14)


@pytest.mark.parametrize("token", [0.5, 2.0, "log"])
def test_hessian_exactly_symmetric(token):
    rng = np.random.default_rng(7)
    spec = SystemSpec(5, Interaction.from_token(token))
    pos = random_admissible_positions(rng, 5)
    hess = potential_hessian(spec, pos)
    assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
def test_parity_invariance(token):
    rng = np.random.default_rng(11)
    for n in (2, 4, 5):
        spec = SystemSpec(n, Interaction.from_token(token))
        pos = random_admissible_positions(rng, n)
        mirrored = -pos[::-1]
        assert_allclose(potential_value(spec, pos), potential_value(spec, mirrored), rtol=1e-13)


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
def test_uniform_vector_is_unit_eigenvector_anywhere(token):
    # trap curvature is 1 and the repulsion is translation invariant
    rng = np.random.default_rng(13)
    for n in (2, 3, 6):
        spec = SystemSpec(n, Interaction.from_token(token))
        pos = random_admissible_positions(rng, n)
        hess = potential_hessian(spec, pos)
        uniform = np.ones(n) / np.sqrt(n)
        scale = max(1.0, np.max(np.abs(hess)))
        assert_allclose(hess @ uniform, uniform, atol=1e-13 * scale)


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_derivatives_match_finite_differences(token, n):
    # light per-module check; the acceptance suite runs the full 100-point sweep
    rng = np.random.default_rng(100 * n + hash(str(token)) % 50)
    spec = SystemSpec(n, Interaction.from_token(token))
    for _ in range(10):
        pos = random_admissible_positions(rng, n)
        grad = potential_gradient(spec, pos)
        grad_fd = fd_gradient(lambda p: potential_value(spec, p), pos)
        assert np.max(np.abs(grad - grad_fd)) / max(1.0, np.max(np.abs(grad))) <= 1e-6
        hess = potential_hessian(spec, pos)
        hess_fd = fd_jacobian(lambda p: potential_gradient(spec, p), pos)
        if spec.interaction.is_log_limit:
            hess_fd = 0.5 * hess_fd
        assert np.max(np.abs(hess - hess_fd)) / max(1.0, np.max(np.abs(hess))) <= 1e-5


@pytest.mark.parametrize("token", [1.0, 6.0, "log"])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 100])
def test_row_pass_is_the_tail_of_the_full_pass(token, n):
    # the solver and the mode analysis read only rows N//2.. of the landscape
    spec = SystemSpec(n, Interaction.from_token(token))
    rng = np.random.default_rng(n)
    m = n // 2
    unordered = rng.permutation(np.cumsum(rng.uniform(0.3, 1.0, n)) - 0.4 * n)
    grad, rows = _gradient_and_hessian(spec, unordered)
    assert np.array_equal(grad, potential_gradient(spec, unordered)[m:])
    assert np.array_equal(rows, potential_hessian(spec, unordered)[m:])
    chain = _parity.unfold(np.cumsum(rng.uniform(0.3, 1.0, m)), n)
    rows = _gradient_and_hessian(spec, chain)[1]
    full = potential_hessian(spec, chain)
    assert np.array_equal(_parity.odd_block(rows), _parity.odd_block(full))
    assert np.array_equal(_parity.even_block(rows), _parity.even_block(full))
