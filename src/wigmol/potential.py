"""Classical trap-plus-repulsion energy landscape in scaled coordinates.

N particles sit in a unit harmonic trap and repel each other through an
inverse power law 1/|x|**d.  Pulling the coupling strength out of the
coordinates leaves a one-parameter family of landscapes,

    V(beta) = 0.5*sum(beta**2) + sum_{i<j} 1/|beta_i - beta_j|**d,

and, for the logarithmic small-d limit (separate alpha coordinates),

    V(alpha) = sum(alpha**2) - sum_{i<j} log((alpha_i - alpha_j)**2).

Both variants get analytic values, gradients and curvature matrices here;
gradient and curvature share one pass over the particle pairs, which the
Newton solver takes once per iterate.
The hard-core d -> infinity limit has no smooth landscape and is rejected;
callers special-case it (its equilibrium is the unit lattice).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPositions, UnsupportedLimit

_POWER_LAW = "power_law"
_LOG_LIMIT = "log_limit"
_HARD_CORE = "hard_core"


@dataclass(frozen=True)
class Interaction:
    """Repulsion variant: a finite power d, the log limit, or the hard core.

    Build instances through :meth:`power_law`, :meth:`log_limit`,
    :meth:`hard_core` or :meth:`from_token` rather than the raw constructor.
    """

    kind: str
    d: float | None = None

    def __post_init__(self):
        if self.kind not in (_POWER_LAW, _LOG_LIMIT, _HARD_CORE):
            raise ValueError(f"unknown interaction kind {self.kind!r}")
        if self.kind == _POWER_LAW:
            if self.d is None or not 0 < self.d < math.inf:
                raise ValueError("the power-law exponent d must be positive and finite")
        elif self.d is not None:
            raise ValueError(f"{self.kind} carries no exponent")

    @classmethod
    def power_law(cls, d: float) -> "Interaction":
        return cls(_POWER_LAW, float(d))

    @classmethod
    def from_token(cls, token) -> "Interaction":
        """``"log"`` for the log limit, ``"inf"`` for the hard core, else a power-law exponent."""
        if token == "log":
            return cls.log_limit()
        if token == "inf":
            return cls.hard_core()
        return cls.power_law(float(token))

    @classmethod
    def log_limit(cls) -> "Interaction":
        return cls(_LOG_LIMIT)

    @classmethod
    def hard_core(cls) -> "Interaction":
        return cls(_HARD_CORE)

    @property
    def is_log_limit(self) -> bool:
        return self.kind == _LOG_LIMIT

    @property
    def is_hard_core(self) -> bool:
        return self.kind == _HARD_CORE


@dataclass(frozen=True)
class SystemSpec:
    """Particle number plus repulsion variant."""

    n_particles: int
    interaction: Interaction

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("at least two particles are needed for a pair repulsion")


def _reject_hard_core(spec: SystemSpec):
    if spec.interaction.is_hard_core:
        raise UnsupportedLimit("the hard-core limit has no smooth potential")


def _checked(spec: SystemSpec, positions) -> np.ndarray:
    """Positions as a float vector, rejecting the hard core, a wrong shape and coincident pairs."""
    _reject_hard_core(spec)
    pos = np.atleast_1d(np.asarray(positions, dtype=float))
    n = spec.n_particles
    if pos.shape != (n,):
        raise ValueError(f"expected {n} positions, got shape {pos.shape}")
    # strictly increasing input is distinct as it stands; anything else
    # (unordered, NaN, repeated infinities) is sorted and its neighbours compared
    if not (pos[1:] > pos[:-1]).all():
        ordered = np.sort(pos)
        if (ordered[1:] == ordered[:-1]).any():
            raise CoincidentPositions("two particles share the same position")
    return pos


@functools.lru_cache(maxsize=32)
def _pair_mask(n: int) -> np.ndarray:
    """Read-only i < j mask of an n-by-n pair matrix, built once per size.

    ``~tri`` keeps the row-major pair order of ``triu_indices(n, k=1)``.
    """
    mask = ~np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


def _landscape_rows(spec: SystemSpec, positions, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient entries and curvature rows ``first:`` from one pair pass.

    Both come from one difference matrix and one power of the
    separations, ``sep**(-d - 2)`` (``1/diff`` in the log limit): the pair
    forces sum row-wise to the repulsive part of the gradient, and the
    pair couplings are minus the off-diagonal curvature.  Each row is
    computed and summed on its own, so it is bitwise the same whatever
    ``first`` is.
    """
    pos = _checked(spec, positions)
    diff = pos[first:, None] - pos[None, :]
    # the pair matrices are fresh, so they are overwritten in place; their
    # columns first: form a square block whose diagonal is the self-pair
    np.fill_diagonal(diff[:, first:], 1.0)
    if spec.interaction.is_log_limit:
        inv = np.divide(1.0, diff, out=diff)
        np.fill_diagonal(inv[:, first:], 0.0)
        grad = 2.0 * pos[first:] - 2.0 * inv.sum(axis=1)
        coupling = np.multiply(inv, inv, out=inv)
    else:
        d = spec.interaction.d
        sep = np.abs(diff)
        power = np.power(sep, -d - 2.0, out=sep)
        np.fill_diagonal(power[:, first:], 0.0)
        grad = pos[first:] - d * np.multiply(diff, power, out=diff).sum(axis=1)
        coupling = np.multiply(power, d * (d + 1.0), out=power)
    diagonal = 1.0 + coupling.sum(axis=1)
    hess = np.negative(coupling, out=coupling)
    np.fill_diagonal(hess[:, first:], diagonal)
    return grad, hess


def _gradient_and_hessian(spec: SystemSpec, positions) -> tuple[np.ndarray, np.ndarray]:
    """Gradient entries and curvature rows of the middle and right-half sites.

    Rows N//2 .. N - 1 of the full pass, bitwise: the middle site first
    for odd N, then the right half.  At an antisymmetric configuration the
    left half mirrors them, so these rows carry the whole landscape.
    """
    return _landscape_rows(spec, positions, spec.n_particles // 2)


def potential_value(spec: SystemSpec, positions) -> float:
    """Scalar landscape value at the given scaled positions.

    Parameters
    ----------
    spec : SystemSpec
        Particle number and repulsion variant.
    positions : array_like, shape (N,)
        Scaled coordinates, pairwise distinct.

    Raises
    ------
    CoincidentPositions
        If two positions coincide exactly.
    UnsupportedLimit
        For the hard-core variant.
    """
    pos = _checked(spec, positions)
    pairs = np.abs((pos[:, None] - pos[None, :])[_pair_mask(spec.n_particles)])
    if spec.interaction.is_log_limit:
        return float((pos**2).sum() - np.log(pairs**2).sum())
    return float(0.5 * (pos**2).sum() + (pairs ** (-spec.interaction.d)).sum())


def potential_gradient(spec: SystemSpec, positions) -> np.ndarray:
    """Analytic first derivatives of :func:`potential_value`.

    At a solved equilibrium the max-norm of the result sits below the
    solver tolerance.  Raises like :func:`potential_value`.
    """
    return _landscape_rows(spec, positions, 0)[0]


def potential_hessian(spec: SystemSpec, positions) -> np.ndarray:
    """Analytic curvature matrix at the given scaled positions.

    For the log-limit variant the returned matrix is half the raw second
    derivative of the alpha landscape.  That convention makes it the
    curvature of the physical-coordinate potential, which is what the
    normal-mode analysis needs; it also fixes the uniform vector as an
    exact eigenvector with eigenvalue 1 for every variant.
    """
    return _landscape_rows(spec, positions, 0)[1]
