"""Ordered classical minima of the scaled landscapes.

The landscape has N! equivalent minima; this module always returns the
one with strictly increasing positions, which is antisymmetric under
reflection (middle particle pinned at zero for odd N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parity
from .errors import DegenerateHessian, InvalidScale, NoConvergence
from .potential import SystemSpec, _gradient_and_hessian, potential_gradient, potential_value

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


def _ordered(half: np.ndarray) -> bool:
    # the chain (-J h, 0, h) increases strictly exactly when h does and h[0] > 0
    return bool(half[0] > 0.0 and (half[1:] > half[:-1]).all())


def _hermite_zeros(n: int) -> np.ndarray:
    """Positive zeros of H_N, ascending (the right half of the log-limit minimum).

    The zeros are the eigenvalues of the Jacobi matrix of the Hermite
    recurrence (Golub-Welsch), whose off-diagonal is sqrt(k/2).  That
    matrix has a zero diagonal, so it is bipartite between even and odd
    sites: its eigenvalues are plus and minus the singular values of the
    bidiagonal block coupling the two, which has N - N//2 rows, N//2
    columns, sqrt(i + 1/2) on the diagonal and sqrt(i) below it.
    """
    rows, cols = n - n // 2, n // 2
    coupling = np.zeros((rows, cols))
    k = np.arange(cols)
    coupling[k, k] = np.sqrt(k + 0.5)
    i = np.arange(1, rows)
    coupling[i, i - 1] = np.sqrt(i)
    return np.linalg.svd(coupling, compute_uv=False)[::-1]


def _initial_half(spec: SystemSpec) -> np.ndarray:
    if spec.interaction.is_log_limit:
        # the log-limit minimum is exactly the zeros of H_N (Stieltjes)
        return _hermite_zeros(spec.n_particles)
    lattice = _parity.fold(lattice_guess(spec.n_particles).positions)
    d = spec.interaction.d
    # (2d)**(1/(2+d)) is the exact two-particle separation
    return lattice * (2.0 * d) ** (1.0 / (2.0 + d))


def _point(spec: SystemSpec) -> str:
    interaction = spec.interaction
    label = "log limit" if interaction.is_log_limit else f"d={interaction.d:g}"
    return f"N={spec.n_particles}, {label}"


def _descend(spec: SystemSpec, half: np.ndarray, value: float, step: np.ndarray, grad_norm: float):
    """Backtracking step on the right-half coordinates, or None if none is found.

    Accepts once the value or the gradient max-norm drops.  ``value`` is
    the landscape value at ``half``.  Returns the accepted candidate, its
    value and, when the gradient test accepted it, the (gradient,
    curvature) pair already computed there, so the next Newton point
    reuses both instead of recomputing them.
    """
    n = spec.n_particles
    scale = 1.0
    for _ in range(60):
        candidate = half + scale * step
        if _ordered(candidate):
            pos = _parity.unfold(candidate, n)
            candidate_value = potential_value(spec, pos)
            if candidate_value < value:
                return candidate, candidate_value, None
            landscape = _gradient_and_hessian(spec, pos)
            if np.abs(landscape[0]).max() < grad_norm:
                return candidate, candidate_value, landscape
        scale *= 0.5
    return None


def _check_minimum(spec: SystemSpec, even: np.ndarray, odd: np.ndarray):
    # H is orthogonally similar to diag(E, O), so both blocks positive definite means H is
    try:
        np.linalg.cholesky(even)
        np.linalg.cholesky(odd)
    except np.linalg.LinAlgError:
        raise DegenerateHessian(f"{_point(spec)}: curvature is not positive definite at the candidate minimum")


def solve_equilibrium(
    spec: SystemSpec,
    tol: float = 1e-12,
    max_iter: int = 200,
    initial_positions=None,
) -> Configuration:
    """Find the ordered minimum of the scaled landscape.

    Damped Newton iteration on the N//2 right-half coordinates of the
    antisymmetric subspace, with the middle site pinned at zero for odd
    N.  Gradient and curvature come from one pair pass per iterate; the
    step solves only the odd parity block of the curvature, which is the
    whole curvature on that subspace.  For the hard-core variant the
    exact unit lattice is returned unchanged.

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
        Starting point override; its antisymmetric part is used.  The
        default is the zeros of the Hermite polynomial H_N for the log
        limit, which are its exact minimum, and the unit lattice scaled to
        the exact two-particle separation for a power law.

    Raises
    ------
    NoConvergence
        If the budget runs out or no descent step exists; the message
        names N, the interaction, the last residual and the iterations.
    DegenerateHessian
        If the curvature is not positive definite at the solution.
    """
    if spec.interaction.is_hard_core:
        return lattice_guess(spec.n_particles)
    n = spec.n_particles
    if initial_positions is None:
        half = _initial_half(spec)
    else:
        start = np.asarray(initial_positions, dtype=float)
        if start.shape != (n,):
            raise ValueError(f"expected {n} starting positions, got shape {start.shape}")
        half = _parity.fold(start)
    kind = ALPHA if spec.interaction.is_log_limit else BETA
    # Newton pairs the gradient with the raw curvature, twice the log-limit convention
    grad_scale = 0.5 if spec.interaction.is_log_limit else 1.0
    value = landscape = None
    for iteration in range(1, max_iter + 1):
        pos = _parity.unfold(half, n)
        grad, hess = landscape or _gradient_and_hessian(spec, pos)
        residual = float(np.abs(grad).max())
        odd = _parity.odd_block(hess)
        if residual <= tol:
            _check_minimum(spec, _parity.even_block(hess), odd)
            return Configuration(pos, kind, residual)
        step = np.linalg.solve(odd, -grad_scale * _parity.fold(grad))
        if value is None:
            value = potential_value(spec, pos)
        accepted = _descend(spec, half, value, step, residual)
        if accepted is None:
            raise NoConvergence(
                f"{_point(spec)}: Newton line search found no acceptable step "
                f"in iteration {iteration} (gradient max-norm {residual:.3g}, tol {tol:g})"
            )
        half, value, landscape = accepted
    residual = float(np.abs(potential_gradient(spec, _parity.unfold(half, n))).max())
    raise NoConvergence(
        f"{_point(spec)}: gradient max-norm {residual:.3g} still above tol {tol:g} "
        f"after {max_iter} Newton iterations"
    )


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
