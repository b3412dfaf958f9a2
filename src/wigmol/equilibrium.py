"""Ordered classical minima of the scaled landscapes.

The landscape has N! equivalent minima; this module always returns the
one with strictly increasing positions, which is antisymmetric under
reflection (middle particle pinned at zero for odd N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHessian, InvalidScale, NoConvergence
from .potential import SystemSpec, potential_gradient, potential_hessian, potential_value

BETA = "beta"
ALPHA = "alpha"
LATTICE = "lattice"


@dataclass(frozen=True)
class Configuration:
    """Ordered equilibrium positions in scaled coordinates.

    ``residual`` is the max-norm of the gradient at the solution; it is
    zero by definition for the hard-core lattice.
    """

    positions: np.ndarray
    coordinate_kind: str
    residual: float

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n_particles(self) -> int:
        return self.positions.size


def lattice_guess(n: int) -> Configuration:
    """Unit lattice (2i - N - 1)/2, the exact hard-core equilibrium."""
    if n < 2:
        raise ValueError("need at least two particles")
    positions = (2.0 * np.arange(1, n + 1) - n - 1) / 2.0
    return Configuration(positions, LATTICE, 0.0)


def _symmetrized(pos: np.ndarray) -> np.ndarray:
    # projects onto the reflection-antisymmetric subspace the minimum lives in
    return (pos - pos[::-1]) / 2.0


def _ordered(pos: np.ndarray) -> bool:
    return bool(np.all(np.diff(pos) > 0.0))


def _hermite_zeros(n: int) -> np.ndarray:
    # eigenvalues of the Jacobi matrix of the Hermite recurrence (Golub-Welsch)
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def _initial_guess(spec: SystemSpec) -> np.ndarray:
    if spec.interaction.is_log_limit:
        # the log-limit minimum is exactly the zeros of H_N (Stieltjes)
        return _symmetrized(_hermite_zeros(spec.n_particles))
    lattice = lattice_guess(spec.n_particles).positions
    d = spec.interaction.d
    # (2d)**(1/(2+d)) is the exact two-particle separation
    return lattice * (2.0 * d) ** (1.0 / (2.0 + d))


def _newton_hessian(spec: SystemSpec, pos: np.ndarray) -> np.ndarray:
    hess = potential_hessian(spec, pos)
    if spec.interaction.is_log_limit:
        hess = 2.0 * hess  # Newton pairs the gradient with the raw curvature
    return hess


def _descend(
    spec: SystemSpec, pos: np.ndarray, value: float, step: np.ndarray, grad_norm: float
) -> tuple[np.ndarray, float]:
    """Backtracking step: accept once the value or the gradient norm drops.

    ``value`` is the landscape value at ``pos``; the accepted candidate is
    returned with its own value, so the next step need not recompute it.
    """
    scale = 1.0
    for _ in range(60):
        candidate = _symmetrized(pos + scale * step)
        if _ordered(candidate):
            candidate_value = potential_value(spec, candidate)
            if candidate_value < value:
                return candidate, candidate_value
            if np.max(np.abs(potential_gradient(spec, candidate))) < grad_norm:
                return candidate, candidate_value
        scale *= 0.5
    raise NoConvergence("Newton line search found no acceptable step")


def _check_minimum(spec: SystemSpec, pos: np.ndarray):
    try:
        np.linalg.cholesky(potential_hessian(spec, pos))
    except np.linalg.LinAlgError:
        raise DegenerateHessian("curvature is not positive definite at the candidate minimum")


def solve_equilibrium(
    spec: SystemSpec,
    tol: float = 1e-12,
    max_iter: int = 200,
    initial_positions=None,
) -> Configuration:
    """Find the ordered minimum of the scaled landscape.

    Damped Newton iteration on the analytic gradient with the analytic
    curvature matrix; every iterate is projected back onto the
    antisymmetric subspace.  For the hard-core variant the exact unit
    lattice is returned unchanged.

    Parameters
    ----------
    spec : SystemSpec
    tol : float
        Convergence threshold on the gradient max-norm.  Around 1e-12 is
        reachable for moderate d; for very large exponents (d >~ 1e4) the
        power-law terms cannot be evaluated much better than d times
        machine epsilon, so a looser tol is required there.
    max_iter : int
        Newton iteration budget.
    initial_positions : array_like, optional
        Starting point override.  The default is the zeros of the Hermite
        polynomial H_N for the log limit, which are its exact minimum, and
        the unit lattice scaled to the exact two-particle separation for a
        power law.

    Raises
    ------
    NoConvergence
        If the budget runs out or no descent step exists.
    DegenerateHessian
        If the curvature is not positive definite at the solution.
    """
    if spec.interaction.is_hard_core:
        return lattice_guess(spec.n_particles)
    if initial_positions is None:
        pos = _initial_guess(spec)
    else:
        pos = _symmetrized(np.asarray(initial_positions, dtype=float))
    kind = ALPHA if spec.interaction.is_log_limit else BETA
    value = None
    for _ in range(max_iter):
        grad = potential_gradient(spec, pos)
        residual = float(np.max(np.abs(grad)))
        if residual <= tol:
            _check_minimum(spec, pos)
            return Configuration(pos, kind, residual)
        step = np.linalg.solve(_newton_hessian(spec, pos), -grad)
        if value is None:
            value = potential_value(spec, pos)
        pos, value = _descend(spec, pos, value, step, residual)
    raise NoConvergence(f"gradient max-norm still above {tol:g} after {max_iter} Newton iterations")


def coordinate_scale(spec: SystemSpec, g: float, d_aux: float | None = None) -> float:
    """Factor mapping scaled coordinates to physical ones at coupling g."""
    if not g > 0:
        raise InvalidScale("the coupling strength g must be positive")
    interaction = spec.interaction
    if interaction.is_hard_core:
        # g**(1/(2+d)) -> 1 as d -> infinity
        return 1.0
    if interaction.is_log_limit:
        if d_aux is None or not d_aux > 0:
            raise InvalidScale("the log limit needs a positive auxiliary exponent d_aux")
        return float(np.sqrt(d_aux * g))
    return float(g ** (1.0 / (2.0 + interaction.d)))


def physical_centers(config: Configuration, spec: SystemSpec, g: float, d_aux: float | None = None) -> np.ndarray:
    """Physical equilibrium positions at coupling strength g.

    Power law: beta * g**(1/(2+d)).  Log limit: alpha * sqrt(d_aux * g),
    where d_aux is the small exponent used jointly with the limit.  Hard
    core: the lattice unchanged.
    """
    return config.positions * coordinate_scale(spec, g, d_aux)
