"""Independent brute-force validators for the closed-form pipeline.

Nothing here reuses the marginalization formulas it is meant to check:
the kernel integral is done by Gauss-Hermite quadrature on the raw
wavepacket product, occupancies are recovered as eigenvalues of the
grid-discretized kernel, derivatives are checked by central differences,
and the equilibrium is re-found by a derivative-free coordinate search
over the right-half coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _parity
from .equilibrium import Configuration, _virial_scaled, lattice_guess
from .errors import DimensionTooLarge, NoConvergence, UnsupportedLimit
from .modes import NormalModes, ground_state_precision
from .potential import SystemSpec, potential_gradient
from .rdm import KernelSet

# the golden-section fraction (3 - sqrt 5)/2 of Brent's method
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite order per dimension of the tensor rule."""

    points_per_dim: int = 40

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be at least 2")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights of one order, built once and read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return _read_only(nodes), _read_only(weights)


@functools.lru_cache(maxsize=4)
def _tensor_rule(order: int, dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes (one row per point, first coordinate slowest) and weights, read-only."""
    nodes, weights = _hermite_rule(order)
    grids = np.meshgrid(*([nodes] * dims), indexing="ij")
    t = np.stack([g.ravel() for g in grids], axis=1)
    weight = np.ones(t.shape[0])
    for g in np.meshgrid(*([weights] * dims), indexing="ij"):
        weight = weight * g.ravel()
    return _read_only(t), _read_only(weight)


# the bytes of on-site amplitude vectors one rule keeps
_AMPLITUDE_MEMO_BYTES = 1 << 20


@dataclass(frozen=True)
class _SiteRule:
    """The parts of one site's quadrature that do not depend on (x, x'), for one (modes, site, order).

    ``nodes`` holds the off-site node coordinates; each amplitude pass
    overwrites its on-site column in place.  ``amplitudes`` maps an
    on-site offset ``x - center`` to its log-amplitude over the nodes, at
    most ``_AMPLITUDE_MEMO_BYTES`` of them, oldest evicted first.
    """

    modes: NormalModes
    site: int
    order: int
    nodes: np.ndarray
    log_norm: float
    t_squared: np.ndarray
    weight: np.ndarray
    jacobian: float
    amplitudes: dict = field(default_factory=dict, compare=False, repr=False)

    def log_amplitude(self, offset: float) -> np.ndarray:
        """Log of the wavepacket at every node with the on-site coordinate at ``offset``, memoized."""
        vector = self.amplitudes.get(offset)
        if vector is None:
            self.nodes[:, self.site - 1] = offset
            mode_coords = self.nodes @ self.modes.mode_matrix.T
            vector = self.log_norm - 0.5 * (mode_coords**2) @ self.modes.frequencies
            capacity = _AMPLITUDE_MEMO_BYTES // vector.nbytes
            if capacity:
                if len(self.amplitudes) >= capacity:
                    del self.amplitudes[next(iter(self.amplitudes))]
                self.amplitudes[offset] = vector
        return vector


# the last rule built; it holds its modes, so no later object can reuse their id
_last_site_rule: _SiteRule | None = None


def _site_rule(modes: NormalModes, site: int, order: int) -> _SiteRule:
    """The off-site rule of ``quadrature_kernel``, rebuilt only when (modes, site, order) changes."""
    global _last_site_rule
    rule = _last_site_rule
    if rule is not None and rule.modes is modes and rule.site == site and rule.order == order:
        return rule
    n = modes.n_particles
    idx = site - 1
    rest = [j for j in range(n) if j != idx]
    block = ground_state_precision(modes)[np.ix_(rest, rest)]
    block_eigs, block_vecs = np.linalg.eigh(block)
    t, weight = _tensor_rule(order, n - 1)
    nodes = np.empty((t.shape[0], n))
    nodes[:, rest] = (t / np.sqrt(block_eigs)) @ block_vecs.T
    _last_site_rule = _SiteRule(
        modes,
        site,
        order,
        nodes,
        0.25 * np.sum(np.log(modes.frequencies / np.pi)),
        np.sum(t**2, axis=1),
        weight,
        float(np.prod(1.0 / np.sqrt(block_eigs))),
    )
    return _last_site_rule


def quadrature_kernel(
    modes: NormalModes,
    config: Configuration,
    site: int,
    x: float,
    x_prime: float,
    quad: QuadratureSpec | None = None,
) -> float:
    """Direct (N-1)-dimensional integral defining the site kernel.

    The two wavepacket factors are evaluated pointwise from the mode data
    and integrated over the off-site coordinates on a tensor Gauss-Hermite
    grid.  Nodes are placed in the eigenbasis of the off-site precision
    block, which makes the weight function exactly the Gauss-Hermite one,
    so convergence in ``points_per_dim`` is superexponential.  The nodes,
    weights and Jacobian of the last (modes, site, order) are kept, so a
    run of calls at one site builds them once.  That rule also keeps the
    log-amplitude over its nodes of each on-site offset ``x - center``
    (up to about 1 MB of them), so a grid of g values at one site costs
    g node passes, not 2 g**2.

    Raises DimensionTooLarge beyond four particles (cost grows as
    points**(N-1)).
    """
    quad = QuadratureSpec() if quad is None else quad
    n = config.n_particles
    if n > 4:
        raise DimensionTooLarge("direct quadrature is limited to four particles")
    if not 1 <= site <= n:
        raise ValueError(f"site must lie in 1..{n}")
    rule = _site_rule(modes, site, quad.points_per_dim)
    center = config.positions[site - 1]
    # the Gauss-Hermite weight exp(-|t|^2) is divided back out of the integrand
    exponent = rule.log_amplitude(x - center) + rule.log_amplitude(x_prime - center) + rule.t_squared
    return float(rule.weight @ np.exp(exponent)) * rule.jacobian / n


def nystrom_grid(kernel, points: int = 400, halfwidth: float = 8.0) -> np.ndarray:
    """Uniform grid covering ``halfwidth`` site widths around the center."""
    reach = halfwidth * kernel.width
    return np.linspace(kernel.center - reach, kernel.center + reach, points)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    weights = np.empty_like(grid)
    weights[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    weights[0] = 0.5 * (grid[1] - grid[0])
    weights[-1] = 0.5 * (grid[-1] - grid[-2])
    return weights


def nystrom_occupancies(kernel_evaluator, grid, top_k: int) -> np.ndarray:
    """Leading eigenvalues of a symmetric positive semidefinite kernel discretized on a grid.

    ``kernel_evaluator(x, x_prime)`` must broadcast over arrays.  The
    kernel matrix is symmetrized and scaled by sqrt of the trapezoid
    weights on both sides, ``S = W^1/2 (K + K^T)/2 W^1/2``, which
    preserves the spectrum of the integral operator.  ``S`` is never
    formed: a diagonally pivoted Cholesky factorization ``S ~ L L^T``
    evaluates the diagonal once and then one column per step, at the
    largest residual diagonal entry, until the residual diagonal sums to
    at most ``eps * trace(S)`` (eps the float epsilon).  The residual
    ``R = S - L L^T`` is positive semidefinite, so each returned value,
    an eigenvalue of ``L L^T``, satisfies
    ``lambda_k(L L^T) <= lambda_k(S) <= lambda_k(L L^T) + trace(R)``.
    A low-rank kernel costs ``(2 rank + 1) n`` kernel evaluations on an
    n-point grid.

    Returns ``min(top_k, n)`` values, largest first; those past the
    rank are 0.0.  Raises ValueError for a grid of fewer than two
    points, with a non-finite entry or not strictly increasing, for a
    non-finite kernel diagonal, and when a residual diagonal entry falls
    below ``-n * eps * trace(S)``, beyond its roundoff, which proves the
    kernel is not positive semidefinite.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("the Nystrom grid must be one-dimensional with at least two points")
    if not np.all(np.isfinite(grid)) or not np.all(np.diff(grid) > 0):
        raise ValueError("the Nystrom grid must be finite and strictly increasing")
    n = grid.size
    root_w = np.sqrt(_trapezoid_weights(grid))
    residual = root_w**2 * np.asarray(kernel_evaluator(grid, grid), dtype=float)
    if not np.all(np.isfinite(residual)):
        raise ValueError("the kernel is not finite on the grid diagonal")
    tol = np.finfo(float).eps * abs(float(residual.sum()))
    factor = np.empty((min(n, 16), n))  # one row per step, doubled when full
    rank = 0
    while rank < n:
        if residual.min() < -n * tol:
            raise ValueError("the kernel is not positive semidefinite on the grid")
        if residual.sum() <= tol:
            break
        if rank == factor.shape[0]:
            factor = np.concatenate((factor, np.empty((min(rank, n - rank), n))))
        p = int(np.argmax(residual))
        column = np.asarray(kernel_evaluator(grid, grid[p]), dtype=float) + kernel_evaluator(grid[p], grid)
        column = root_w * (0.5 * column) * root_w[p] - factor[:rank, p] @ factor[:rank]
        factor[rank] = column / np.sqrt(residual[p])
        residual -= factor[rank] ** 2
        residual[p] = 0.0
        rank += 1
    occupancies = np.zeros(min(top_k, n))
    values = np.linalg.svd(factor[:rank], compute_uv=False)[: occupancies.size] ** 2
    occupancies[: values.size] = values
    return occupancies


def _brent_minimum(func, lo: float, hi: float, xtol: float) -> float:
    """Minimum of a unimodal ``func`` on [lo, hi] by Brent's method, to within ``xtol / 2``.

    Each step fits a parabola through the three best points and takes its
    vertex when it falls inside the bracket and moves less than half the
    step before last; otherwise it takes a golden-section step into the
    larger part of the bracket (R. P. Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 5).  No probe lies within ``xtol / 4``
    of the best point or of a bracket end, and the search stops once the
    best point lies within ``xtol / 2`` of both ends.  An infinite value
    makes the parabola NaN, which fails its tests, so such steps are
    golden.
    """
    a, b = lo, hi
    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = func(x)
    step = previous = 0.0
    tol = 0.25 * xtol
    while max(x - a, b - x) > 2.0 * tol:
        golden = True
        if abs(previous) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * previous) and q * (a - x) < p < q * (b - x):
                previous, step = step, p / q
                golden = False
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if x < 0.5 * (a + b) else -tol
        if golden:
            previous = a - x if x >= 0.5 * (a + b) else b - x
            step = _GOLDEN_STEP * previous
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = func(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def _line_energy(spec: SystemSpec, half: np.ndarray, k: int):
    """The landscape terms that move with right-half site ``k``, as a function of its coordinate.

    The site moves to ``c`` and its mirror to ``-c``; every other site of
    the mirrored chain stays put.  The terms that involve either are the
    trap and the pair between them, plus twice the pairs of ``c`` with
    the others (the others are symmetric, so ``-c`` sees the same
    distances).  So the result differs from the whole landscape by a
    constant, in O(N) Python float work per call.  A coincident pair,
    ``c <= 0`` or an overflowing power gives ``+inf``.
    """
    rest = [float(h) for j, h in enumerate(half) if j != k]
    others = rest + [-h for h in rest] + [0.0] * (spec.n_particles % 2)
    log_limit = spec.interaction.is_log_limit
    d = spec.interaction.d

    def energy(c) -> float:
        c = float(c)
        if c <= 0.0 or c in others:
            return math.inf
        try:
            if log_limit:
                return 2.0 * c * c - math.log(4.0 * c * c) - 2.0 * sum(math.log((c - s) ** 2) for s in others)
            return c * c + (2.0 * c) ** -d + 2.0 * sum(abs(c - s) ** -d for s in others)
        except OverflowError:  # float ** float raises where numpy returns inf
            return math.inf

    return energy


def _parabolic_sweeps(spec, half, step, max_sweeps, move_tol):
    """Cyclic parabolic-fit moves, ``-step (f+ - f-) / (2 (f+ - 2 f0 + f-))`` per coordinate.

    A phase stops once no coordinate moves by more than the larger of
    ``move_tol`` and its move's noise floor.  Each probe sums O(N) terms,
    so it rounds by about N eps max(|f0|, |f+|, |f-|); that rounding in
    ``f+ - f-`` resolves the move only to ``step N eps max|f| / denom``,
    and sweeping on below it only stirs the noise.
    """
    noise = spec.n_particles * np.finfo(float).eps * step
    for _ in range(max_sweeps):
        settled = True
        for k in range(half.size):
            line = _line_energy(spec, half, k)
            f0 = line(half[k])
            f_plus = line(half[k] + step)
            f_minus = line(half[k] - step)
            denom = f_plus - 2.0 * f0 + f_minus
            if denom > 0:
                delta = -0.5 * step * (f_plus - f_minus) / denom
                half[k] += delta
                floor = noise * max(abs(f0), abs(f_plus), abs(f_minus)) / denom
                settled = settled and abs(delta) <= max(move_tol, floor)
        if settled:
            break
    return half


def independent_minimum(spec: SystemSpec) -> Configuration:
    """Re-find the ordered minimum without derivatives.

    Starts from the unit lattice scaled along its own ray onto the
    landscape's minimum: ``s**(d + 2) = d S / X`` for a power law, with X
    the sum of squared positions and S that of ``sep**-d``, and
    ``s**2 = N (N - 1) / (2 X)`` in the log limit.  Then cyclic Brent line
    searches per coordinate (:func:`_brent_minimum`, to 1e-7 per
    coordinate) until no coordinate moves by 1e-6, followed by
    parabolic-fit polish sweeps that settle once no coordinate moves by
    more than 1e-11 or the noise floor of its move, despite working from
    function values only (:func:`_parabolic_sweeps`).  Meant for
    cross-checking the Newton solver at small N.

    Only the N//2 right-half coordinates are searched; the left half is
    their mirror image and the middle site of an odd chain sits at zero.
    That loses nothing: on the ordered sector the landscape is strictly
    convex (the trap is, and each pair term is a convex function of a
    positive separation), so its unique minimum is invariant under the
    reflection x -> -J x, that is, antisymmetric.  Each probe evaluates
    only the O(N) terms that move with the probed coordinate
    (:func:`_line_energy`).  The returned residual is the max-norm of the
    full gradient.
    """
    if spec.interaction.is_hard_core:
        raise UnsupportedLimit("the hard-core equilibrium is the lattice itself")
    n = spec.n_particles
    m = n // 2

    half = lattice_guess(n).positions[n - m :]
    if spec.interaction.is_log_limit:
        half = half * math.sqrt(n * (n - 1) / (4.0 * float((half**2).sum())))
    else:
        half = _virial_scaled(half, n, spec.interaction.d)
    for sweep in range(400):
        moved = 0.0
        for k in range(m):
            # the first right-half site only has to stay right of its mirror (or the middle site)
            lo = half[k - 1] + 1e-9 if k > 0 else 1e-9
            hi = half[k + 1] - 1e-9 if k < m - 1 else half[k] + 3.0
            best = _brent_minimum(_line_energy(spec, half, k), lo, hi, 1e-7)
            moved = max(moved, abs(best - half[k]))
            half[k] = best
        if moved < 1e-6:
            break
    else:
        raise NoConvergence("coordinate descent did not settle within 400 sweeps")
    half = _parabolic_sweeps(spec, half, 1e-5, 300, 1e-11)
    half = _parabolic_sweeps(spec, half, 3e-6, 100, 1e-11)
    positions = _parity.unfold(half, n)
    return Configuration(positions, float(np.max(np.abs(potential_gradient(spec, positions)))))


def _node_pair_matrix(a: float, b: float) -> np.ndarray:
    """One site's weighted node-pair exponential ``w w' exp((b/a) s s')`` on the 60-point rule."""
    nodes, weights = _hermite_rule(60)
    return np.outer(weights, weights) * np.exp((b / a) * np.outer(nodes, nodes))


# the last kernel set and its node-pair matrices; it holds the set, so no later object can reuse its id
_last_pair_matrices: tuple[KernelSet, list[np.ndarray]] | None = None


def _pair_matrices(kernels: KernelSet) -> list[np.ndarray]:
    """The node-pair matrix of every site, built once per kernel set."""
    global _last_pair_matrices
    if _last_pair_matrices is None or _last_pair_matrices[0] is not kernels:
        _last_pair_matrices = kernels, [_node_pair_matrix(a, b) for a, b in zip(kernels.a.tolist(), kernels.b.tolist())]
    return _last_pair_matrices[1]


def momentum_quadrature(kernels, k: float) -> float:
    """Two-dimensional quadrature of the momentum integral at one k.

    Integrates (1/2pi) * kernel(x, x') * cos(k (x - x')) per site with a
    60x60 tensor Gauss-Hermite rule, as an independent check of the analytic
    per-site Fourier transform.  The cosine is split as
    ``cos(u)cos(u') + sin(u)sin(u')``, so each site costs one node-pair
    exponential and two node vectors of trigonometric values.  The
    exponentials of the last :class:`~wigmol.rdm.KernelSet` are kept, so a
    run of k values over one set builds them once; any other iterable of
    kernels is packed into a new set per call.
    """
    nodes, _ = _hermite_rule(60)
    kernels = KernelSet.from_kernels(kernels)
    total = 0.0
    for kernel, pair in zip(kernels, _pair_matrices(kernels)):
        phase = (k / np.sqrt(kernel.a)) * nodes
        cos, sin = np.cos(phase), np.sin(phase)
        total += kernel.amplitude / (2.0 * np.pi * kernel.a) * float(cos @ pair @ cos + sin @ pair @ sin)
    return total


def fd_gradient(func, positions: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function: the one row of its Jacobian."""
    return fd_jacobian(lambda p: np.array([func(p)]), positions, step)[0]


def fd_jacobian(vector_func, positions: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function (columns vary one coordinate)."""
    positions = np.asarray(positions, dtype=float)
    columns = []
    for k in range(positions.size):
        bump = np.zeros_like(positions)
        bump[k] = step
        columns.append((vector_func(positions + bump) - vector_func(positions - bump)) / (2.0 * step))
    return np.stack(columns, axis=1)


def random_admissible_positions(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted random positions in [-3, 3] with every pair at least 0.4 apart."""
    for _ in range(1000):
        candidate = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if np.all(np.diff(candidate) >= 0.4):
            return candidate
    raise NoConvergence(f"could not draw {n} positions in [-3, 3] with every pair at least 0.4 apart")
