"""Brute-force verification suite: each closed form against an independent oracle.

Every check is deterministic and returns a :class:`Check` record.  The
command line (``wigmol verify``) prints :func:`all_checks`; the acceptance
tests assert the same functions, so each check and its threshold exist once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equilibrium, observables, oracle, rdm
from .potential import Interaction, SystemSpec, potential_gradient, potential_hessian, potential_value

_SEED = 20240817


@dataclass(frozen=True)
class Check:
    """One verification result: the worst error seen (``metric``) against its bound.

    ``measure`` names what ``metric`` is ("max rel", "max abs" or "drift").
    """

    name: str
    passed: bool
    metric: float
    threshold: float
    measure: str = "max abs"

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name} ({self.measure} {self.metric:.2e})"


def _bounded(name: str, metric: float, threshold: float, measure: str = "max abs") -> Check:
    return Check(name, metric <= threshold, metric, threshold, measure)


def derivative_checks() -> list[Check]:
    """Analytic gradient and Hessian against central differences, 100 random points per variant."""
    rng = np.random.default_rng(_SEED)
    checks = []
    for token in ("0.5", "1", "2", "6", "log"):
        interaction = Interaction.from_token(token)
        worst_grad = 0.0
        worst_hess = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            spec = SystemSpec(n, interaction)
            pos = oracle.random_admissible_positions(rng, n)
            grad = potential_gradient(spec, pos)
            grad_fd = oracle.fd_gradient(lambda p: potential_value(spec, p), pos)
            worst_grad = max(worst_grad, np.max(np.abs(grad - grad_fd)) / max(1.0, np.max(np.abs(grad))))
            hess = potential_hessian(spec, pos)
            hess_fd = oracle.fd_jacobian(lambda p: potential_gradient(spec, p), pos)
            if interaction.is_log_limit:
                hess_fd = 0.5 * hess_fd
            worst_hess = max(worst_hess, np.max(np.abs(hess - hess_fd)) / max(1.0, np.max(np.abs(hess))))
        label = token if interaction.is_log_limit else f"d={token}"
        checks.append(_bounded(f"gradient vs finite differences [{label}]", float(worst_grad), 1e-6, "max rel"))
        checks.append(_bounded(f"hessian vs finite differences [{label}]", float(worst_hess), 1e-5, "max rel"))
    return checks


def kernel_checks() -> list[Check]:
    """Site kernels, their occupancy ladders and n(k) against quadrature and Nystrom oracles."""
    checks = []
    for n, d in [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)]:
        molecule = rdm.pipeline(SystemSpec(n, Interaction.power_law(d)))
        worst = 0.0
        for kernel in molecule.kernels:
            grid = np.linspace(kernel.center - 3 * kernel.width, kernel.center + 3 * kernel.width, 9)
            direct = [[oracle.quadrature_kernel(molecule.modes, molecule.config, kernel.site, x, xp) for xp in grid]
                      for x in grid]
            closed_form = rdm.kernel_value(kernel, grid[:, None], grid[None, :])
            worst = max(worst, float(np.abs(np.array(direct) - closed_form).max()))
        checks.append(_bounded(f"kernel quadrature N={n} d={d:g}", worst, 1e-6))

        worst_nystrom = 0.0
        for kernel in molecule.kernels:
            grid = oracle.nystrom_grid(kernel)
            top = oracle.nystrom_occupancies(lambda x, xp, k=kernel: rdm.kernel_value(k, x, xp), grid, 5)
            ladder = np.array([rdm.occupancy(kernel, l) for l in range(5)])
            worst_nystrom = max(worst_nystrom, float(np.max(np.abs(top - ladder))))
        checks.append(_bounded(f"nystrom ladder N={n} d={d:g}", worst_nystrom, 1e-5))

        momenta = np.linspace(-8.0, 8.0, 17)
        analytic = observables.momentum_distribution(molecule.kernels, momenta).values
        quadrature = np.array([oracle.momentum_quadrature(molecule.kernels, k) for k in momenta])
        worst_momentum = float(np.abs(analytic - quadrature).max())
        checks.append(_bounded(f"momentum quadrature N={n} d={d:g}", worst_momentum, 1e-6))
    return checks


def doubling_check() -> Check:
    """The quadrature oracle itself: doubling its order must not move a kernel value."""
    molecule = rdm.pipeline(SystemSpec(3, Interaction.power_law(2.0)))
    coarse = oracle.quadrature_kernel(molecule.modes, molecule.config, 2, 0.1, -0.2, oracle.QuadratureSpec(20))
    fine = oracle.quadrature_kernel(molecule.modes, molecule.config, 2, 0.1, -0.2, oracle.QuadratureSpec(40))
    drift = abs(fine - coarse)
    return Check("quadrature order doubling", drift < 1e-8, drift, 1e-8, "drift")


def cross_solver_checks() -> list[Check]:
    """Newton's equilibrium against the derivative-free minimum, N = 2..8.

    The derivative-free side (:func:`~wigmol.oracle.independent_minimum`)
    runs Brent line searches and parabolic polish on function values
    only.  It starts from the unit lattice scaled onto the landscape's
    minimum along its own ray, which sets only where the search begins.
    """
    checks = []
    for token in ("1", "2", "log"):
        worst = 0.0
        for n in range(2, 9):
            spec = SystemSpec(n, Interaction.from_token(token))
            newton = equilibrium.solve_equilibrium(spec)
            derivative_free = oracle.independent_minimum(spec)
            worst = max(worst, float(np.max(np.abs(newton.positions - derivative_free.positions))))
        checks.append(_bounded(f"cross-solver agreement d={token}", worst, 1e-8))
    return checks


def all_checks() -> list[Check]:
    """The whole suite in its printed order."""
    return [*derivative_checks(), *kernel_checks(), doubling_check(), *cross_solver_checks()]
