import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import solved
from wigmol import (
    Interaction,
    SystemSpec,
    compute_modes,
    ground_state_precision,
    physical_centers,
    potential_hessian,
    solve_equilibrium,
)
from wigmol import _parity
from wigmol import modes as modes_module
from wigmol.errors import DegenerateHessian, NegativeEigenvalue, UnsupportedLimit
from wigmol.oracle import fd_jacobian


def _modes(n, token):
    spec, config = solved(n, token)
    return spec, config, compute_modes(spec, config)


def test_two_particle_frequencies():
    _, _, modes = _modes(2, 2.0)
    assert_allclose(modes.frequencies, [1.0, 2.0], atol=1e-12)
    _, _, modes = _modes(2, 1.0)
    assert_allclose(modes.frequencies, [1.0, np.sqrt(3.0)], atol=1e-12)
    _, _, modes = _modes(2, "log")
    assert_allclose(modes.frequencies, [1.0, np.sqrt(2.0)], atol=1e-12)


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
@pytest.mark.parametrize("n", [2, 5, 11, 20])
def test_structural_invariants(token, n):
    spec, config, modes = _modes(n, token)
    freqs, rows = modes.frequencies, modes.mode_matrix
    assert np.all(np.diff(freqs) >= 0)
    assert_allclose(rows @ rows.T, np.eye(n), atol=1e-12)
    hess = potential_hessian(spec, config.positions)
    assert_allclose(rows.T @ np.diag(freqs**2) @ rows, hess, atol=1e-10 * np.linalg.norm(hess))
    # uniform-displacement mode at the bare trap frequency
    assert_allclose(freqs[0], 1.0, atol=1e-10)
    assert_allclose(np.abs(rows[0]), np.ones(n) / np.sqrt(n), atol=1e-10)
    # repulsion only stiffens modes
    assert np.all(freqs >= 1.0 - 1e-12)


@pytest.mark.parametrize("token", [0.5, 1.0, 2.0, 6.0, "log"])
def test_com_eigenpair_across_sizes(token):
    for n in range(2, 21):
        _, _, modes = _modes(n, token)
        assert abs(modes.frequencies[0] - 1.0) <= 1e-10
        assert np.max(np.abs(np.abs(modes.mode_matrix[0]) - 1.0 / np.sqrt(n))) <= 1e-10


def test_sign_convention_and_determinism():
    spec, config, modes = _modes(6, 1.0)
    for row in modes.mode_matrix:
        assert row[np.argmax(np.abs(row))] > 0
    again = compute_modes(spec, config)
    assert np.array_equal(modes.frequencies, again.frequencies)
    assert np.array_equal(modes.mode_matrix, again.mode_matrix)


@pytest.mark.parametrize("n, token", [(12, 1.0), (11, 1.0), (12, "log"), (7, 2.0)])
def test_modes_are_exactly_even_or_odd(n, token):
    # mirror entries are exact copies, so the sign convention never rests on a roundoff tie
    _, _, modes = _modes(n, token)
    rows = modes.mode_matrix
    odd = [row for row in rows if np.allclose(row, -row[::-1], atol=1e-8)]
    even = [row for row in rows if np.allclose(row, row[::-1], atol=1e-8)]
    assert len(odd) == n // 2
    assert len(even) == n - n // 2
    for row in odd:
        assert np.array_equal(row, -row[::-1])
        peak = np.argmax(np.abs(row))
        assert peak < n // 2
        assert row[peak] > 0
    for row in even:
        assert np.array_equal(row, row[::-1])
        assert row[np.argmax(np.abs(row))] > 0


@pytest.mark.parametrize("n", [2, 5, 8, 9])
def test_parity_blocks_carry_the_full_spectrum(n):
    rng = np.random.default_rng(n)
    sym = rng.standard_normal((n, n))
    sym = sym + sym.T
    persym = sym + sym[::-1, ::-1]
    even, odd = _parity.even_block(persym), _parity.odd_block(persym)
    assert even.shape == (n - n // 2,) * 2
    assert odd.shape == (n // 2,) * 2
    merged = np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd))))
    assert_allclose(merged, np.linalg.eigvalsh(persym), atol=1e-12 * np.linalg.norm(persym))
    rows = _parity.unfold_rows(np.linalg.eigh(even)[1], np.linalg.eigh(odd)[1])
    assert_allclose(rows @ rows.T, np.eye(n), atol=1e-13)
    half = rng.standard_normal(n // 2)
    assert np.array_equal(_parity.fold(_parity.unfold(half, n)), half)


@pytest.mark.parametrize("n,token,label", [(4, 1.0, "N=4, d=1"), (5, "log", "N=5, log limit")])
def test_negative_curvature_names_its_point_and_block(monkeypatch, n, token, label):
    spec, config = solved(n, token)
    grad, hess = modes_module._gradient_and_hessian(spec, config.positions)
    # negated, the block holding the largest curvature eigenvalue has the lowest one
    tops = {
        "even": np.linalg.eigvalsh(_parity.even_block(hess))[-1],
        "odd": np.linalg.eigvalsh(_parity.odd_block(hess))[-1],
    }
    block = max(tops, key=tops.get)
    monkeypatch.setattr(modes_module, "_gradient_and_hessian", lambda spec, positions: (grad, -hess))
    with pytest.raises(NegativeEigenvalue) as failure:
        compute_modes(spec, config)
    message = str(failure.value)
    assert message.startswith(f"smallest curvature eigenvalue is {-tops[block]:g}")
    assert f"{block} parity block at {label}" in message
    # the CLI exits 3 on a DegenerateHessian, so this error must be one
    assert isinstance(failure.value, DegenerateHessian)


def test_hard_core_has_no_modes():
    spec = SystemSpec(3, Interaction.hard_core())
    config = solve_equilibrium(spec)
    with pytest.raises(UnsupportedLimit):
        compute_modes(spec, config)


def test_precision_matrix_reconstruction():
    _, _, modes = _modes(4, 2.0)
    precision = ground_state_precision(modes)
    assert_allclose(precision, precision.T, atol=1e-14)
    eigenvalues = np.linalg.eigvalsh(precision)
    assert_allclose(np.sort(eigenvalues), modes.frequencies, atol=1e-12)


def _physical_value_factory(spec, g, d_aux=None):
    interaction = spec.interaction
    if interaction.is_log_limit:

        def value(x):
            diff = x[:, None] - x[None, :]
            seps = np.abs(diff[np.triu_indices(len(x), k=1)])
            return 0.5 * np.sum(x**2) - g * d_aux * np.sum(np.log(seps))

    else:

        def value(x):
            diff = x[:, None] - x[None, :]
            seps = np.abs(diff[np.triu_indices(len(x), k=1)])
            return 0.5 * np.sum(x**2) + g * np.sum(seps ** (-interaction.d))

    return value


@pytest.mark.parametrize("token", [0.5, 2.0, "log"])
@pytest.mark.parametrize("g", [1.0, 10.0, 1000.0])
def test_hessian_is_coupling_independent(token, g):
    # the coordinate scaling absorbs g exactly, so curvature in physical
    # coordinates must match the scaled-coordinate curvature
    d_aux = 0.05 if token == "log" else None
    spec, config = solved(3, token)
    centers = physical_centers(config, spec, g, d_aux=d_aux)
    value = _physical_value_factory(spec, g, d_aux)
    scale = max(1.0, np.max(np.abs(centers)))
    step = 1e-5 * scale

    def gradient(x):
        return fd_jacobian(lambda p: np.array([value(p)]), x, step=step)[0]

    hess_fd = fd_jacobian(gradient, centers, step=step)
    hess_scaled = potential_hessian(spec, config.positions)
    assert np.max(np.abs(hess_fd - hess_scaled)) / max(1.0, np.max(np.abs(hess_scaled))) <= 1e-5
