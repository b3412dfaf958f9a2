"""Properties of the whole pipeline over the K-table domain, by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wigmol import (
    Interaction,
    SystemSpec,
    all_site_kernels,
    compute_modes,
    occupancy_spectrum,
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
