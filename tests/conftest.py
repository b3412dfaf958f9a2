"""Shared helpers: cached pipeline runs keyed by (n, interaction token)."""

import functools

from wigmol import (
    Interaction,
    SystemSpec,
    all_site_kernels,
    compute_modes,
    solve_equilibrium,
)


@functools.lru_cache(maxsize=None)
def solved(n, token, tol=1e-12):
    spec = SystemSpec(n, Interaction.from_token(token))
    return spec, solve_equilibrium(spec, tol=tol)


@functools.lru_cache(maxsize=None)
def kernel_set(n, token, tol=1e-12):
    spec, config = solved(n, token, tol)
    normal_modes = compute_modes(spec, config)
    kernels = all_site_kernels(normal_modes, config)
    return spec, config, normal_modes, kernels
