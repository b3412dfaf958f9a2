"""Properties of the whole pipeline over the K-table and the documented domains, by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wigmol import (
    Interaction,
    SystemSpec,
    all_site_kernels,
    compute_modes,
    occupancy_spectrum,
    pipeline,
    solve_equilibrium,
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n=st.integers(min_value=2, max_value=31), d=st.floats(min_value=0.25, max_value=4.0))
def test_pipeline_properties_on_the_scan_domain(n, d):
    spec = SystemSpec(n, Interaction.power_law(d))
    config = solve_equilibrium(spec)
    assert config.iterations <= 6
    positions = config.positions
    assert np.all(np.diff(positions) > 0)
    assert np.array_equal(positions, -positions[::-1])
    modes = compute_modes(spec, config)
    # the centre-of-mass mode oscillates at the trap frequency whatever the repulsion
    assert np.min(np.abs(modes.frequencies - 1.0)) <= 1e-10
    spectrum = occupancy_spectrum(all_site_kernels(modes, config))
    assert spectrum.degree_of_correlation >= n


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(min_value=2, max_value=300),
    token=st.one_of(st.just("log"), st.floats(min_value=0.05, max_value=1e4)),
)
def test_pipeline_properties_on_the_documented_domain(n, token):
    spec = SystemSpec(n, Interaction.from_token(token))
    config = solve_equilibrium(spec)
    positions = config.positions
    assert np.all(np.diff(positions) > 0)
    assert np.array_equal(positions, -positions[::-1])
    modes = compute_modes(spec, config)
    # eigh finds the trap mode only up to its backward error, eps times the curvature norm
    _, rows = config._curvature
    window = n * np.finfo(float).eps * np.abs(rows).sum(axis=1).max()
    assert np.min(np.abs(modes.frequencies**2 - 1.0)) <= window
    spectrum = occupancy_spectrum(all_site_kernels(modes, config))
    assert spectrum.degree_of_correlation >= n


def test_delta_k_rises_strictly_in_n_and_in_d():
    # the log limit is the d -> 0 end of each row
    sizes = (2, 3, 5, 10, 20, 40, 80, 120)
    exponents = ("log", 0.05, 0.3, 1.0, 3.0, 10.0, 1e2, 1e3, 1e4)
    table = np.array([
        [occupancy_spectrum(pipeline(SystemSpec(n, Interaction.from_token(d))).kernels).delta_k for d in exponents]
        for n in sizes
    ])
    assert np.all(np.diff(table, axis=0) > 0)
    assert np.all(np.diff(table, axis=1) > 0)
