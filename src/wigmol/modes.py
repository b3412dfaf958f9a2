"""Normal modes of the harmonic expansion about the classical minimum.

The curvature matrix H decomposes as H = U.T @ diag(v**2) @ U with U
orthogonal; row i of U maps a displacement vector to mode coordinate i,
and v_i are the mode frequencies.  The uniform displacement is always a
mode with frequency exactly 1 (the bare trap), because the repulsion is
translation invariant.

At a solved chain the curvature commutes with site reversal, so
:func:`compute_modes` diagonalizes its even and odd parity blocks
separately, each about half the size of the whole matrix.  Where the
minimum is the zeros of H_N (the log limit and d = 2) the block
eigenpairs are known in closed form and are taken from the Hermite
recurrence instead, once they pass a residual check against the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _parity
from .equilibrium import Configuration, _check_minimum, _hermite_values, _minimum_is_hermite_zeros
from .errors import UnsupportedLimit
from .potential import SystemSpec, _gradient_and_hessian


@dataclass(frozen=True)
class NormalModes:
    """Ascending mode frequencies and the orthogonal mode matrix."""

    frequencies: np.ndarray
    mode_matrix: np.ndarray
    # set only by compute_modes, whose rows are exactly even or odd under
    # reflection, so that mirror columns of mode_matrix**2 are equal
    _mirrored: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        freqs = np.array(self.frequencies, dtype=float)
        matrix = np.array(self.mode_matrix, dtype=float)
        freqs.flags.writeable = False
        matrix.flags.writeable = False
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "mode_matrix", matrix)

    @property
    def n_particles(self) -> int:
        return self.frequencies.size


def _fix_signs(rows: np.ndarray, width: int) -> np.ndarray:
    """Flip rows in place so that the largest-magnitude entry among the first ``width`` is positive.

    Reproducibility convention; ``argmax`` takes the first of tied entries.
    """
    head = rows[:, :width]
    peak = head[np.arange(rows.shape[0]), np.argmax(np.abs(head), axis=1)]
    rows[peak < 0] *= -1.0
    return rows


# Below this N the recurrence's N-step Python loop costs more than the two
# block eigh calls it replaces.  Measured on a 2-core host over whole
# compute_modes calls: the closed form took 1.25x the time of eigh at N = 32,
# broke even at N = 48 and was 1.2-1.4x faster at N = 64, for both exponents.
_CLOSED_FORM_MIN_N = 48


def _hermite_block_eigenpairs(z: np.ndarray, n: int, power: int):
    """Closed-form (values, vectors) of the even and odd blocks at the Hermite zeros.

    ``z`` holds the middle-out positions.  Mode l = 1..N is the
    displacement H_{N-l}(z_i) / H_N'(z_i) with curvature l**power
    (Ahmed, Bruschi, Calogero, Olshanetsky, Perelomov, Nuovo Cimento B 49
    (1979) 173; Calogero, J. Math. Phys. 12 (1971) 419); as a unit row it
    is p_j(z_i) sqrt(w_i) sign(p_{N-1}(z_i)) with j = N - l and w_i the
    Gauss-Hermite weight 1 / sum_k p_k(z_i)**2.  Odd l are the even modes.

    The rows are taken at ``z`` as given, so they are orthogonal only as
    far as ``z`` are zeros of p_N.  At the solve's default start for both
    exponents, :func:`~wigmol.equilibrium._hermite_zeros`, they are
    orthonormal to within 5.1e-14 below N = 200 (the SVD zeros; worst at
    N = 134) and 1.2e-14 from there to N = 2000.
    """
    values = _hermite_values(z, n)
    values *= np.sign(values[n - 1]) / np.sqrt(np.einsum("ki,ki->i", values, values))
    values[:, n % 2 :] *= np.sqrt(2.0)  # right-half sites of a block vector
    levels = np.arange(1, n + 1, dtype=float) ** power
    even = (levels[0::2], values[n - 1 :: -2].T)
    odd = (levels[1::2], values[n - 2 :: -2, n % 2 :].T)
    return even, odd


def _solves(block: np.ndarray, pair, n: int) -> bool:
    # the eigen-residual of pairs that are exact up to rounding at this block
    values, vectors = pair
    residual = block @ vectors
    residual -= vectors * values
    return bool(np.abs(residual).max() <= 4.0 * n * np.finfo(float).eps * np.abs(block).max())


def _block_eigenpairs(spec: SystemSpec, config: Configuration):
    """(values, vectors) of the even and odd curvature blocks, the closed form where it applies and passes."""
    n = config.n_particles
    kept = config._curvature
    if kept is not None and kept[0] == spec:
        hess = kept[1]
    else:
        hess = _gradient_and_hessian(spec, config.positions)[1]
        _check_minimum(spec, hess)
    blocks = _parity.even_block(hess), _parity.odd_block(hess)
    if n >= _CLOSED_FORM_MIN_N and _minimum_is_hermite_zeros(spec.interaction):
        power = 1 if spec.interaction.is_log_limit else 2
        pairs = _hermite_block_eigenpairs(config.positions[n // 2 :], n, power)
        if all(_solves(block, pair, n) for block, pair in zip(blocks, pairs)):
            return pairs
    return tuple(np.linalg.eigh(block) for block in blocks)


def compute_modes(spec: SystemSpec, config: Configuration) -> NormalModes:
    """Normal modes at a solved configuration of the given system.

    The curvature at the antisymmetric minimum is persymmetric, so only
    its middle and right-half rows are read, and it is diagonalized as its
    even and odd parity blocks, each half the size.  A configuration that
    :func:`~wigmol.equilibrium.solve_equilibrium` returned for this same
    spec carries those rows from the solve's final pass, bitwise what a
    new pass would give, and they are used as they are; any other
    configuration (built by hand, a ``dataclasses.replace`` copy, or one
    solved for another spec) gets a new pass.  In the log
    limit and at d = 2, from N = _CLOSED_FORM_MIN_N on, the blocks take
    the closed-form eigenpairs at the positions as given (by default both
    exponents' solves start at the zeros of H_N) if both pass the check
    max|B V - V diag(values)| <= 4 N eps max|B|, and eigh otherwise.
    Every mode row is exactly symmetric or antisymmetric under site
    reversal; its sign makes the largest entry positive, and because
    mirror entries are exact copies that entry always lies in the first
    half (or at the middle site).  Frequencies are merged in ascending
    order.

    The rows of a new pass go through the solve's positivity test,
    :func:`~wigmol.equilibrium._check_minimum`, before any eigh or closed
    form; kept rows passed it when the solve returned them.  It certifies
    every eigenvalue of both blocks as formed to be at least 1/2, so no
    frequency needs a sign test: the closed-form values are 1..N or their
    squares, and eigh is backward stable, exact for the block perturbed by
    p(n) eps ||B|| in norm (p modest in the block size n; LAPACK Users'
    Guide, section 4.7).  The certificate also gives eps ||B|| <=
    sqrt(2) / (N + 2), so by Weyl's inequality no computed eigenvalue
    falls below 1/2 - sqrt(2) p(n) / (N + 2), which is positive for any
    p(n) < (N + 2) / (2 sqrt 2).

    Raises
    ------
    UnsupportedLimit
        For the hard-core limit, which has no harmonic expansion.
    DegenerateHessian
        If the rows of a new pass fail the certificate: non-finite, or a
        diagonal-dominance margin that drowns in rounding.  The message
        names N and the interaction.
    """
    if spec.interaction.is_hard_core:
        raise UnsupportedLimit("the hard-core limit has no harmonic expansion; only its "
                               "unit-lattice equilibrium and hardcore_density exist there")
    (even_values, even_vectors), (odd_values, odd_vectors) = _block_eigenpairs(spec, config)
    frequencies = np.sqrt(np.concatenate((even_values, odd_values)))
    order = np.argsort(frequencies, kind="stable")
    rows = _parity.unfold_rows(even_vectors, odd_vectors)[order]
    n = config.n_particles
    modes = NormalModes(frequencies[order], _fix_signs(rows, n - n // 2))
    object.__setattr__(modes, "_mirrored", True)
    return modes


def ground_state_precision(modes: NormalModes) -> np.ndarray:
    """Precision matrix M of the ground-state wavepacket amplitude.

    The lowest oscillator product state is exp(-0.5 * z.T @ M @ z) up to
    normalization, with M = U.T @ diag(v) @ U (note v, not v**2).
    """
    rows = modes.mode_matrix
    return rows.T @ (modes.frequencies[:, None] * rows)
