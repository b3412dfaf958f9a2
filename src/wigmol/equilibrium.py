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
from .potential import SystemSpec, _gradient_and_hessian, _pair_indices

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
    return Configuration(positions, 0.0)


def _ordered(half: np.ndarray) -> bool:
    # the chain (-J h, 0, h) increases strictly exactly when h does and h[0] > 0
    return bool(half[0] > 0.0 and (half[1:] > half[:-1]).all())


def _golub_welsch_zeros(n: int) -> np.ndarray:
    """Positive zeros of H_N, ascending, from a dense SVD in O(N**3).

    The zeros are the eigenvalues of the Jacobi matrix of the Hermite
    recurrence (Golub-Welsch), whose off-diagonal is sqrt(k/2).  That
    matrix has a zero diagonal, so it is bipartite between even and odd
    sites: its eigenvalues are plus and minus the singular values of the
    bidiagonal block coupling the two, which has N - N//2 rows, N//2
    columns, sqrt(i + 1/2) on the diagonal and sqrt(i) below it.  They
    come out a few ulp off the true zeros (up to ~4 ulp of the largest).
    """
    rows, cols = n - n // 2, n // 2
    coupling = np.zeros((rows, cols))
    k = np.arange(cols)
    coupling[k, k] = np.sqrt(k + 0.5)
    i = np.arange(1, rows)
    coupling[i, i - 1] = np.sqrt(i)
    return np.linalg.svd(coupling, compute_uv=False)[::-1]


# columns of the recurrence are divided down once an entry passes this size,
# checked every _RESCALE_EVERY steps, so that p_k cannot overflow
_RESCALE_ABOVE = 1e100
_RESCALE_EVERY = 32


def _hermite_values(z: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` orthonormal Hermite polynomials p_0, p_1, ... at z, one row per degree.

    Runs the three-term recurrence
    z p_k = sqrt((k+1)/2) p_{k+1} + sqrt(k/2) p_{k-1} on q_k = s_k p_k,
    with s_{k+1} = s_{k-1} sqrt((k+1)/k), which makes it two array
    operations per degree: q_{k+1} = (c_k z) q_k - q_{k-1}.  Row k + 1
    holds c_k z until step k overwrites it.  Each column (one point)
    carries a free positive scale: a column is divided by its largest
    magnitude whenever that passes _RESCALE_ABOVE, so entries it leaves
    far below its peak may underflow to zero.
    """
    degree = np.arange(1, n)
    ratio = np.sqrt(degree[1:] / degree[:-1])  # s_{k+1} / s_{k-1} for k = 1 .. N-2
    scale = np.ones(n)
    scale[2::2] = np.cumprod(ratio[0::2])
    scale[3::2] = np.cumprod(ratio[1::2])
    values = np.empty((n, z.size))
    values[0] = 1.0
    np.multiply.outer(np.sqrt(2.0 / degree) * scale[1:] / scale[:-1], z, out=values[1:])
    rows = list(values)
    for k in range(1, n - 1):
        nxt = rows[k + 1]
        nxt *= rows[k]
        nxt -= rows[k - 1]
        if k % _RESCALE_EVERY == 0:
            peak = np.maximum(np.abs(rows[k]), np.abs(nxt))
            big = peak > _RESCALE_ABOVE
            if big.any():
                values[: k + 2, big] /= peak[big]
    values /= scale[:, None]
    return values


# the first ten zeros of the Airy function Ai, DLMF Table 9.9.1
_AIRY_ZEROS = np.array([
    -2.338107410459767, -4.087949444130971, -5.520559828095551, -6.786708090071759, -7.944133587120853,
    -9.022650853340980, -10.040174341558086, -11.008524303733293, -11.936015563236163, -12.828776752865757,
])


def _airy_zeros(count: int) -> np.ndarray:
    """The first ``count`` zeros a_1 > a_2 > ... of Ai: the table, then a_k = -T(3 pi (4k - 1) / 8).

    T(t) = t**(2/3) (1 + 5/48 t**-2 - 5/36 t**-4 + 77125/82944 t**-6
    - 108056875/6967296 t**-8 + ...) (DLMF 9.9.6, 9.9.18); from k = 11 on
    (t >= 50) the truncation sits below an ulp.
    """
    k = np.arange(_AIRY_ZEROS.size + 1, count + 1)
    t = 3.0 * np.pi / 8.0 * (4.0 * k - 1.0)
    s = t**-2.0
    series = 1.0 + s * (5.0 / 48.0 + s * (-5.0 / 36.0 + s * (77125.0 / 82944.0 + s * (-108056875.0 / 6967296.0))))
    return np.concatenate((_AIRY_ZEROS, -(t ** (2.0 / 3.0)) * series))[:count]


def _asymptotic_zeros(n: int) -> np.ndarray:
    """Asymptotic guesses of the positive zeros of H_N, ascending, in O(N).

    Tricomi's guesses in the bulk and Gatteschi's Airy-zero guesses near the
    edge sqrt(2N + 1), switched at the index round(0.49082003 N - 4.37859653)
    (Townsend, Trogdon, Olver, IMA J. Numer. Anal. 36 (2016) 337, lemmas
    3.1-3.2).  From N = 200 on they are off by less than 1e-6 (7e-7 at
    N = 200, 5e-8 at N = 1000).  Tricomi's tau_k solve tau - sin tau = c_k
    by five Newton steps from pi/2.
    """
    m = n // 2
    nu = 2.0 * n + 1.0
    turnover = int(round(0.49082003 * n - 4.37859653))
    c = (4.0 * m - 4.0 * np.arange(1, turnover + 2) + 3.0) * np.pi / nu
    tau = np.full(c.size, 0.5 * np.pi)
    for _ in range(5):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    sigma = np.cos(0.5 * tau) ** 2
    bulk = nu * sigma - (1.25 / (1.0 - sigma) ** 2 - 1.0 / (1.0 - sigma) - 0.25) / (3.0 * nu)
    a = _airy_zeros(m - turnover - 1)[::-1]
    edge = (
        nu
        + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0)
        + 0.2 * 2.0 ** (4.0 / 3.0) * a**2 * nu ** (-1.0 / 3.0)
        + (9.0 / 140.0 - 12.0 / 175.0 * a**3) / nu
        + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a**4) * 2.0 ** (2.0 / 3.0) * nu ** (-5.0 / 3.0)
        - (15152.0 / 3031875.0 * a**5 + 1088.0 / 121275.0 * a**2) * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0)
    )
    return np.sqrt(np.concatenate((bulk, edge)))


# From this N on the Hermite zeros are asymptotic guesses polished by one
# Halley step, O(N**2) time and memory, instead of the O(N**3) SVD, whose
# zeros also miss the default tol at most odd N from 193 and at every N
# from 241 on, where the solve paid a Newton step for them.  Measured on a
# 2-core host over whole log-limit solves: the new start took 1.15x the time
# at N = 160, broke even at N = 200 and took 0.87x at N = 240 and 0.61x at
# N = 250.
_ASYMPTOTIC_MIN_N = 200


def _hermite_zeros(n: int) -> np.ndarray:
    """Positive zeros of H_N, ascending (the right half of the log-limit and d = 2 minimum).

    Below _ASYMPTOTIC_MIN_N they are :func:`_golub_welsch_zeros`.  From it
    on they are :func:`_asymptotic_zeros` moved by one Halley step on p_N,
    which needs only u = p_N / p_N' from the last two rows of
    :func:`_hermite_values`, because p_N' = sqrt(2N) p_{N-1} and
    p_N'' = 2 z p_N' - 2 N p_N: z - u / (1 - u (z - N u)).  A Halley step
    is cubic, so a guess error of about 1e-7 leaves one of order 1e-21, far
    below the rounding of p_N, and the zeros come out within about an ulp
    of the true ones.  The table of p_0 .. p_N takes O(N**2) memory, which
    is what compute_modes builds at the same size.
    """
    if n < _ASYMPTOTIC_MIN_N:
        return _golub_welsch_zeros(n)
    z = _asymptotic_zeros(n)
    values = _hermite_values(z, n + 1)
    u = values[n] / (np.sqrt(2.0 * n) * values[n - 1])
    return z - u / (1.0 - u * (z - n * u))


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
    first, second = _pair_indices(n)
    log_terms = -d * np.log(pos[second] - pos[first])
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


def _descend(spec: SystemSpec, half: np.ndarray, step: np.ndarray, grad_norm: float, halvings: range):
    """Backtracking step on the right-half coordinates, or None if none is found.

    Tries the candidates ``half + step / 2**h`` for h in ``halvings`` and
    accepts the first ordered one at which the gradient max-norm drops
    below ``grad_norm``.  The Newton step solves H step = -g, so to first
    order every gradient component shrinks as (1 - t) g along it, and
    this one test suffices everywhere above the floating-point floor.
    Returns the accepted candidate, its (gradient, curvature) pass, which
    the next Newton point reads, and h.  A candidate may overflow the
    pair powers; a non-finite gradient fails the test, so it is rejected
    without a warning.
    """
    n = spec.n_particles
    for halving in halvings:
        candidate = half + 0.5**halving * step
        if _ordered(candidate):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                landscape = _gradient_and_hessian(spec, _parity.unfold(candidate, n))
                if np.abs(landscape[0]).max() < grad_norm:
                    return candidate, landscape, halving
    return None


def _at_rounding_floor(spec: SystemSpec, half: np.ndarray, hess: np.ndarray, residual: float, grad_scale: float):
    """Whether the gradient max-norm ``residual`` is finite and within the rounding of its sums.

    Each gradient entry sums the trap term and N - 1 pair forces, so it
    rounds by up to about N eps times the largest of their magnitudes.
    |H_ij| |x_i - x_j| is (1 + d) times the pair force, a factor that also
    covers the relative error of about d eps in each sep**(-d - 1).  So
    the floor is N eps max_i(|x_i| + sum_j |H_ij| |x_i - x_j|), over the
    middle and right-half curvature rows the iterate already holds (the
    diagonal meets a zero separation and drops out).  In the log limit
    the raw gradient is twice its rows, hence the division by
    ``grad_scale``.
    """
    if not np.isfinite(residual):
        return False
    n = spec.n_particles
    pos = _parity.unfold(half, n)
    right = pos[n // 2 :]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(right) + (np.abs(hess) * np.abs(right[:, None] - pos[None, :])).sum(axis=1)
    return residual <= n * np.finfo(float).eps * float(terms.max()) / grad_scale


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
    next iterate's, and no landscape value is ever computed.  The solve
    stops when the gradient max-norm is at most ``tol``, or when the full
    Newton step fails to lower it while it is finite and no larger than
    its own rounding floor (see ``_at_rounding_floor``); either stop
    passes the same curvature certificate.  For the hard-core variant the
    exact unit lattice is returned unchanged.

    Parameters
    ----------
    spec : SystemSpec
    tol : float
        Convergence threshold on the gradient max-norm over the middle and
        right-half sites.  Where it lies below the floating-point floor of
        the force sums (large N, large d) the solve stops at that floor
        instead, so a returned ``residual > tol`` marks a floor stop.
    max_iter : int
        Newton iteration budget.
    initial_positions : array_like, optional
        Starting point override; its antisymmetric part is used.  The
        default for the log limit and for d = 2 is their exact minimum, the
        zeros of the Hermite polynomial H_N from :func:`_hermite_zeros`:
        the dense SVD below N = _ASYMPTOTIC_MIN_N, and from there on
        asymptotic guesses polished by one Halley step to within an ulp, so
        that the log-limit solve mostly stops at the start (0 iterations at
        every N from 200 to 460 but 429, 441, 452 and 458, where the
        gradient at the zeros rounds to just above 1e-12).  Any other power
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
        If the budget runs out, no descent step exists or a Newton step
        meets an exactly singular odd block; the message names N, the
        interaction, the last residual and the iterations.
    DegenerateHessian
        Unless the curvature at the solution is certified positive
        definite: every curvature row finite, and its diagonal-dominance
        margin at least 1/2 beyond a bound on the rounding (see
        ``_check_minimum``).  Non-finite curvature, and curvature whose
        margin drowns in rounding (couplings of order d, so from d around
        1e12 at N = 40), fail it.

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
    # Newton pairs the gradient with the raw curvature, twice the log-limit convention
    grad_scale = 0.5 if spec.interaction.is_log_limit else 1.0
    # a start may overflow the pair powers like any candidate; its infinite residual then fails the line search
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        landscape = _gradient_and_hessian(spec, _parity.unfold(half, n))
    halvings = 0
    for iteration in range(1, max_iter + 1):
        grad, hess = landscape
        residual = float(np.abs(grad).max())
        if residual > tol:
            # the entries run from the middle out; for odd N the first is the middle
            # site's, zero by symmetry up to roundoff, and the step leaves it out
            try:
                step = np.linalg.solve(_parity.odd_block(hess), -grad_scale * grad[n % 2 :])
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(
                    f"{_point(spec)}: Newton step met a singular curvature block in iteration {iteration} "
                    f"(gradient max-norm {residual:.3g}, tol {tol:g})"
                ) from exc
            # a refused full step at the rounding floor stops the solve here; otherwise the step is halved
            accepted = _descend(spec, half, step, residual, range(1))
            if accepted is None and not _at_rounding_floor(spec, half, hess, residual, grad_scale):
                accepted = _descend(spec, half, step, residual, range(1, 60))
                if accepted is None:
                    raise NoConvergence(
                        f"{_point(spec)}: Newton line search found no acceptable step "
                        f"in iteration {iteration} (gradient max-norm {residual:.3g}, tol {tol:g})"
                    )
            if accepted is not None:
                half, landscape, step_halvings = accepted
                halvings += step_halvings
                continue
        _check_minimum(spec, hess)
        config = Configuration(_parity.unfold(half, n), residual, iteration - 1, halvings)
        hess.flags.writeable = False
        object.__setattr__(config, "_curvature", (spec, hess))
        return config
    residual = float(np.abs(landscape[0]).max())
    raise NoConvergence(
        f"{_point(spec)}: gradient max-norm {residual:.3g} still above tol {tol:g} "
        f"after {max_iter} Newton iterations"
    )


def coordinate_scale(spec: SystemSpec, g: float, d_aux: float | None = None) -> float:
    """Factor mapping scaled coordinates to physical ones at coupling g (1 at the hard core)."""
    if not 0 < g < np.inf:
        raise InvalidScale("the coupling strength g must be positive and finite")
    interaction = spec.interaction
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
