"""Ordered classical minima of the scaled landscapes.

The landscape has N! equivalent minima; this module always returns the
one with strictly increasing positions, which is antisymmetric under
reflection (middle particle pinned at zero for odd N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _parity
from .errors import DegenerateHessian, InvalidScale, NoConvergence
from .potential import SystemSpec, _gradient_and_hessian, _pair_mask

BETA = "beta"
ALPHA = "alpha"
LATTICE = "lattice"

# the solver defaults, which rdm.pipeline and the command line read too
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200


@dataclass(frozen=True)
class Configuration:
    """Ordered equilibrium positions in scaled coordinates.

    ``residual`` is the max-norm of the gradient over the middle and
    right-half sites at the solution (the left half mirrors them up to
    roundoff); it is zero by definition for the hard-core lattice.
    ``iterations`` counts the Newton steps the solve took and
    ``line_search_halvings`` the step halvings over all of them; both are
    zero for a configuration no solve produced.

    A configuration that :func:`solve_equilibrium` returns also keeps,
    privately and read-only, the curvature rows of the solve's final pass
    together with the spec it solved, so that
    :func:`~wigmol.modes.compute_modes` forms its parity blocks from them
    instead of making the pass again.  A configuration built by hand or
    by ``dataclasses.replace`` keeps none; neither equality nor the repr
    reads them.
    """

    positions: np.ndarray
    coordinate_kind: str
    residual: float
    iterations: int = 0
    line_search_halvings: int = 0
    _curvature: tuple[SystemSpec, np.ndarray] | None = field(default=None, init=False, compare=False, repr=False)

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


# nodes of the trapezoid CDF of the continuum profile, over theta in [0, pi/2]
_PROFILE_NODES = 129


def _continuum_quantiles(n: int, d: float) -> np.ndarray:
    """Right half of the quantiles i/(N + 1) of the Riesz-gas profile on [-1, 1].

    The harmonically trapped Riesz gas has the large-N density
    (1 - t**2)**gamma, with gamma = (1 + d)/2 for d < 1 and 1/d for d >= 1
    (Agarwal et al., PRL 123 (2019) 100603).  Under t = sin(theta) the
    integrand becomes cos(theta)**(2 gamma + 1), smooth up to the edge, so
    a trapezoid CDF on a fixed grid of the half profile is accurate enough
    for a start.  The quantile i/(N + 1) of the whole profile is the
    quantile (2i - N - 1)/(N + 1) of its right half.
    """
    gamma = (1.0 + d) / 2.0 if d < 1.0 else 1.0 / d
    theta = np.linspace(0.0, 0.5 * np.pi, _PROFILE_NODES)
    weight = np.cos(theta) ** (2.0 * gamma + 1.0)
    cdf = np.concatenate(([0.0], np.cumsum(weight[1:] + weight[:-1])))
    sites = np.arange(n - n // 2 + 1, n + 1)
    return np.sin(np.interp((2.0 * sites - n - 1.0) / (n + 1.0), cdf / cdf[-1], theta))


def _virial_scaled(half: np.ndarray, n: int, d: float) -> np.ndarray:
    """``half`` scaled onto the minimum of the landscape along its own ray.

    V(s x) = s**2 X / 2 + s**-d S with X = sum x**2 and S = sum_{i<j}
    sep**-d is stationary at s**(d + 2) = d S / X.  The factor is taken in
    logs, so that sep**-d cannot overflow at large d.
    """
    pos = _parity.unfold(half, n)
    log_terms = -d * np.log((pos[None, :] - pos[:, None])[_pair_mask(n)])
    peak = log_terms.max()
    log_pairs = peak + np.log(np.exp(log_terms - peak).sum())
    log_scale = (np.log(d) + log_pairs - np.log(2.0 * (half**2).sum())) / (d + 2.0)
    return half * np.exp(log_scale)


def _minimum_is_hermite_zeros(interaction) -> bool:
    """Whether the zeros of H_N are the exact minimum: the log limit (Stieltjes)
    and the inverse-square chain at scale 1 (Calogero)."""
    return interaction.is_log_limit or interaction.d == 2.0


def _initial_half(spec: SystemSpec) -> np.ndarray:
    n = spec.n_particles
    interaction = spec.interaction
    if _minimum_is_hermite_zeros(interaction):
        return _hermite_zeros(n)
    return _virial_scaled(_continuum_quantiles(n, interaction.d), n, interaction.d)


def _point(spec: SystemSpec) -> str:
    interaction = spec.interaction
    label = "log limit" if interaction.is_log_limit else f"d={interaction.d:g}"
    return f"N={spec.n_particles}, {label}"


def _descend(spec: SystemSpec, half: np.ndarray, step: np.ndarray, grad_norm: float):
    """Backtracking step on the right-half coordinates, or None if none is found.

    Accepts the first ordered candidate at which the gradient max-norm
    drops below ``grad_norm``.  The Newton step solves H step = -g, so to
    first order every gradient component shrinks as (1 - t) g along it,
    and this one test suffices everywhere above the floating-point floor.
    Returns the accepted candidate, its (gradient, curvature) pass, which
    the next Newton point reads, and the number of step halvings before
    it.  A candidate may overflow the pair powers; a non-finite gradient
    fails the test, so it is rejected without a warning.
    """
    n = spec.n_particles
    scale = 1.0
    for halvings in range(60):
        candidate = half + scale * step
        if _ordered(candidate):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                landscape = _gradient_and_hessian(spec, _parity.unfold(candidate, n))
                if np.abs(landscape[0]).max() < grad_norm:
                    return candidate, landscape, halvings
        scale *= 0.5
    return None


def _check_minimum(spec: SystemSpec, rows: np.ndarray):
    """Certify the curvature with these middle and right-half rows positive definite.

    The curvature is the identity (the trap) plus a graph Laplacian whose
    weights, the pair couplings, are non-negative.  So in exact arithmetic
    every row's diagonal-dominance margin, 2 diag - sum|row|, is exactly 1,
    and by Gershgorin's theorem no eigenvalue lies below the smallest
    margin.  The left-half rows mirror these, so these rows carry every
    margin of the whole matrix.  The even and odd parity blocks are the
    curvature in an orthogonal basis of its two invariant subspaces, so
    their eigenvalues are the curvature's, bounded below alike.

    In floating point the certificate asks that every row be finite and
    that the smallest computed margin, less (N + 2) eps max sum|row|, be at
    least 1/2.  That bound covers the rounding of the row sums and of the
    margins (at most (N/2 + 1) eps sum|row| on a row) and of forming
    the blocks (each entry one sum, or one product by sqrt 2, so at most
    (3/2) eps max sum|row| in norm), so every eigenvalue of both blocks as
    formed is at least 1/2.  A NaN row, which a Cholesky factorization
    accepts without raising, fails it.
    """
    if not np.isfinite(rows).all():
        raise DegenerateHessian(f"{_point(spec)}: curvature is not finite at the candidate minimum")
    n = spec.n_particles
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(rows).sum(axis=1)
        margin = float((2.0 * np.diagonal(rows[:, n // 2 :]) - size).min())
        bound = (n + 2) * np.finfo(float).eps * float(size.max())
    if not margin - bound >= 0.5:
        raise DegenerateHessian(
            f"{_point(spec)}: curvature is not certified positive definite at the candidate minimum "
            f"(smallest diagonal-dominance margin {margin:.3g}, rounding bound {bound:.3g})"
        )


def solve_equilibrium(
    spec: SystemSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    initial_positions=None,
) -> Configuration:
    """Find the ordered minimum of the scaled landscape.

    Damped Newton iteration on the N//2 right-half coordinates of the
    antisymmetric subspace, with the middle site pinned at zero for odd
    N.  Each iterate takes one pair pass over the middle and right-half
    rows, which gives the gradient there and the curvature rows that the
    parity blocks read; the step solves only the odd block, which is the
    whole curvature on that subspace.  A backtracking line search accepts
    the first candidate whose gradient max-norm drops; its pass is the
    next iterate's, and no landscape value is ever computed.  For the
    hard-core variant the exact unit lattice is returned unchanged.

    Parameters
    ----------
    spec : SystemSpec
    tol : float
        Convergence threshold on the gradient max-norm over the middle and
        right-half sites.  Around 1e-12 is reachable for moderate d and N;
        for very large exponents (d >~ 1e4) the power-law terms cannot be
        evaluated much better than d times machine epsilon, so a looser
        tol is required there.
    max_iter : int
        Newton iteration budget.
    initial_positions : array_like, optional
        Starting point override; its antisymmetric part is used.  The
        default is the zeros of the Hermite polynomial H_N for the log
        limit and for d = 2, which are their exact minima.  Any other power
        law starts at the quantiles i/(N + 1) of the large-N density of
        the trapped Riesz gas, (1 - t**2)**((1 + d)/2) for d < 1 and
        (1 - t**2)**(1/d) for d >= 1, scaled by the exact virial factor
        onto the landscape's minimum along that ray.  For N = 2 and 3 this
        ray is the whole antisymmetric subspace, so the start is the
        minimum itself.

    Raises
    ------
    ValueError
        Unless ``tol >= 0`` and ``max_iter >= 1``.
    NoConvergence
        If the budget runs out or no descent step exists; the message
        names N, the interaction, the last residual and the iterations.
    DegenerateHessian
        Unless the curvature at the solution is certified positive
        definite: every curvature row finite, and its diagonal-dominance
        margin at least 1/2 beyond a bound on the rounding (see
        ``_check_minimum``).  Non-finite curvature, and curvature whose
        margin drowns in rounding (couplings of order d, so from d around
        1e12 at N = 40), fail it.
    numpy.linalg.LinAlgError
        If a Newton step meets an exactly singular odd block.

    The returned configuration keeps the curvature rows of the final pass,
    which :func:`~wigmol.modes.compute_modes` reads for the same spec.
    """
    if not (tol >= 0 and max_iter >= 1):
        raise ValueError(f"the solver needs tol >= 0 and max_iter >= 1, got tol={tol!r}, max_iter={max_iter!r}")
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
    # a start may overflow the pair powers like any candidate; its infinite residual then fails the line search
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        landscape = _gradient_and_hessian(spec, _parity.unfold(half, n))
    halvings = 0
    for iteration in range(1, max_iter + 1):
        grad, hess = landscape
        residual = float(np.abs(grad).max())
        if residual <= tol:
            _check_minimum(spec, hess)
            config = Configuration(_parity.unfold(half, n), kind, residual, iteration - 1, halvings)
            hess.flags.writeable = False
            object.__setattr__(config, "_curvature", (spec, hess))
            return config
        # the entries run from the middle out; for odd N the first is the middle
        # site's, zero by symmetry up to roundoff, and the step leaves it out
        step = np.linalg.solve(_parity.odd_block(hess), -grad_scale * grad[n % 2 :])
        accepted = _descend(spec, half, step, residual)
        if accepted is None:
            raise NoConvergence(
                f"{_point(spec)}: Newton line search found no acceptable step "
                f"in iteration {iteration} (gradient max-norm {residual:.3g}, tol {tol:g})"
            )
        half, landscape, step_halvings = accepted
        halvings += step_halvings
    residual = float(np.abs(landscape[0]).max())
    raise NoConvergence(
        f"{_point(spec)}: gradient max-norm {residual:.3g} still above tol {tol:g} "
        f"after {max_iter} Newton iterations"
    )


def coordinate_scale(spec: SystemSpec, g: float, d_aux: float | None = None) -> float:
    """Factor mapping scaled coordinates to physical ones at coupling g."""
    if not 0 < g < np.inf:
        raise InvalidScale("the coupling strength g must be positive and finite")
    interaction = spec.interaction
    if interaction.is_hard_core:
        # g**(1/(2+d)) -> 1 as d -> infinity
        return 1.0
    if interaction.is_log_limit:
        if d_aux is None or not 0 < d_aux < np.inf:
            raise InvalidScale("the log limit needs a positive and finite auxiliary exponent d_aux")
        return float(np.sqrt(d_aux * g))
    return float(g ** (1.0 / (2.0 + interaction.d)))


def physical_centers(config: Configuration, spec: SystemSpec, g: float, d_aux: float | None = None) -> np.ndarray:
    """Physical equilibrium positions at coupling strength g.

    Power law: beta * g**(1/(2+d)).  Log limit: alpha * sqrt(d_aux * g),
    where d_aux is the small exponent used jointly with the limit.  Hard
    core: the lattice unchanged.
    """
    return config.positions * coordinate_scale(spec, g, d_aux)
