import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import solved
from wigmol import (
    Configuration,
    Interaction,
    SystemSpec,
    all_site_kernels,
    compute_modes,
    ground_state_precision,
    occupancy_spectrum,
    physical_centers,
    pipeline,
    potential_hessian,
    solve_equilibrium,
)
from wigmol import _parity, equilibrium, potential
from wigmol import modes as modes_module
from wigmol.errors import DegenerateHessian, UnsupportedLimit
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


@pytest.mark.parametrize(
    "n,token,label", [(4, 1.0, "N=4, d=1"), (5, "log", "N=5, log limit"), (64, "log", "N=64, log limit")]
)
def test_negative_curvature_names_its_point(monkeypatch, n, token, label):
    spec, config = solved(n, token)
    # a hand-built copy keeps no curvature rows from the solve, so compute_modes makes the patched pass
    config = Configuration(config.positions, config.residual)
    grad, hess = modes_module._gradient_and_hessian(spec, config.positions)

    def refuse(*args):
        raise AssertionError("the blocks were diagonalized before the certificate")

    # the certificate comes before eigh and before the closed form
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(modes_module, "_hermite_block_eigenpairs", refuse)
    for rows, reason in ((-hess, "curvature is not certified positive definite"),
                         (np.full_like(hess, np.nan), "curvature is not finite")):
        monkeypatch.setattr(modes_module, "_gradient_and_hessian", lambda spec, positions, rows=rows: (grad, rows))
        with pytest.raises(DegenerateHessian) as failure:
            compute_modes(spec, config)
        assert str(failure.value).startswith(f"{label}: {reason} at the candidate minimum")


FLOOR = modes_module._CLOSED_FORM_MIN_N


def _eigh_modes(monkeypatch, spec, config):
    with monkeypatch.context() as patch:
        patch.setattr(modes_module, "_CLOSED_FORM_MIN_N", config.n_particles + 1)
        return compute_modes(spec, config)


def _hermite_levels(n, token):
    # the closed form's frequencies, which eigh never reproduces exactly at every level
    levels = np.arange(1.0, n + 1.0)
    return np.sqrt(levels) if token == "log" else levels


def _degree_of_correlation(modes, config):
    return occupancy_spectrum(all_site_kernels(modes, config)).degree_of_correlation


@pytest.mark.parametrize(
    "n, token",
    [(FLOOR, "log"), (100, "log"), (200, "log"), (250, "log"), (300, "log"), (400, "log"), (460, "log"),
     (FLOOR, 2.0), (60, 2.0), (78, 2.0)],
)
def test_closed_form_modes_agree_with_eigh(monkeypatch, n, token):
    spec, config = solved(n, token)
    closed = compute_modes(spec, config)
    assert np.array_equal(closed.frequencies, _hermite_levels(n, token))
    reference = _eigh_modes(monkeypatch, spec, config)
    assert_allclose(closed.frequencies, reference.frequencies, rtol=1e-12, atol=0)
    assert np.abs(closed.mode_matrix - reference.mode_matrix).max() <= 1e-12
    k_closed = _degree_of_correlation(closed, config)
    assert_allclose(k_closed, _degree_of_correlation(reference, config), rtol=1e-13, atol=0)


def test_closed_form_modes_at_a_thousand_sites():
    # the default solve does not reach N = 1000, but the Hermite zeros are its minimum
    n = 1000
    zeros = equilibrium._hermite_zeros(n)
    config = Configuration(np.concatenate((-zeros[::-1], zeros)), 0.0)
    spec = SystemSpec(n, Interaction.log_limit())
    modes = compute_modes(spec, config)
    rows, freqs = modes.mode_matrix, modes.frequencies
    assert np.array_equal(freqs, _hermite_levels(n, "log"))
    assert np.isfinite(rows).all()
    assert np.abs(rows @ rows.T - np.eye(n)).max() <= 1e-13
    hess = potential_hessian(spec, config.positions)
    residual = np.abs(hess @ rows.T - rows.T * freqs**2).max()
    assert residual <= 4 * n * np.finfo(float).eps * np.abs(hess).max()


@pytest.mark.parametrize("n, token", [(FLOOR, "log"), (101, "log"), (70, 2.0)])
def test_a_displaced_chain_falls_back_to_eigh(monkeypatch, n, token):
    spec, config = solved(n, token)
    half = np.random.default_rng(n).standard_normal(n // 2)
    moved = Configuration(config.positions + 1e-9 * _parity.unfold(half, n), 0.0)
    modes = compute_modes(spec, moved)
    reference = _eigh_modes(monkeypatch, spec, moved)
    assert np.array_equal(modes.frequencies, reference.frequencies)
    assert np.array_equal(modes.mode_matrix, reference.mode_matrix)


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


def _count_landscape_passes(monkeypatch):
    calls = []
    original = potential._landscape_rows

    def counted(spec, positions, first):
        calls.append(first)
        return original(spec, positions, first)

    monkeypatch.setattr(potential, "_landscape_rows", counted)
    return calls


def _hand_built(config):
    return Configuration(config.positions, config.residual)


# d = 6 is left out from N = 39 on, where the default solve stops at the rounding floor
# after one more pass, that of the refused full step
@pytest.mark.parametrize(
    "n, token",
    [(n, token) for n in (2, 7, 12, 31) for token in ("log", "0.5", "2", "6")]
    + [(n, token) for n in (48, 49, 64, 65) for token in ("log", "0.5", "2")],
)
def test_one_curvature_pass_per_newton_point(monkeypatch, n, token):
    calls = _count_landscape_passes(monkeypatch)
    molecule = pipeline(SystemSpec(n, Interaction.from_token(token)))
    config = molecule.config
    # the start, then one pass per candidate the line search tried; compute_modes reads the last one
    assert len(calls) == config.iterations + config.line_search_halvings + 1
    monkeypatch.undo()
    again = compute_modes(molecule.spec, _hand_built(config))
    for got, expected in ((molecule.modes.frequencies, again.frequencies), (molecule.modes.mode_matrix, again.mode_matrix)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [6, 7, 64])
def test_kept_curvature_serves_only_its_own_spec_and_positions(monkeypatch, n):
    spec, config = solved(n, "log")
    other = SystemSpec(n, Interaction.power_law(0.5))
    moved = dataclasses.replace(config, positions=1.01 * config.positions)
    calls = _count_landscape_passes(monkeypatch)
    compute_modes(spec, config)
    assert calls == []
    for target_spec, target in ((other, config), (spec, moved)):
        fresh = compute_modes(target_spec, target)
        assert len(calls) == 1
        reference = compute_modes(target_spec, _hand_built(target))
        assert fresh.mode_matrix.tobytes() == reference.mode_matrix.tobytes()
        calls.clear()
    # the kept rows stay out of the repr and cannot be written
    assert "_curvature" not in repr(config)
    assert not config._curvature[1].flags.writeable
