"""Normal modes of the harmonic expansion about the classical minimum.

The curvature matrix H decomposes as H = U.T @ diag(v**2) @ U with U
orthogonal; row i of U maps a displacement vector to mode coordinate i,
and v_i are the mode frequencies.  The uniform displacement is always a
mode with frequency exactly 1 (the bare trap), because the repulsion is
translation invariant.

At a solved chain the curvature commutes with site reversal, so
:func:`compute_modes` diagonalizes its even and odd parity blocks
separately; :func:`modes_from_hessian` is the path for a general
symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parity
from .equilibrium import Configuration, _point
from .errors import NegativeEigenvalue, UnsupportedLimit
from .potential import SystemSpec, _gradient_and_hessian

_DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class NormalModes:
    """Ascending mode frequencies and the orthogonal mode matrix."""

    frequencies: np.ndarray
    mode_matrix: np.ndarray

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


def _fix_signs(rows: np.ndarray, width: int | None = None) -> np.ndarray:
    """Flip rows in place so that the largest-magnitude entry among the first ``width`` is positive.

    Reproducibility convention; ``argmax`` takes the first of tied entries.
    """
    head = rows[:, :width]
    peak = head[np.arange(rows.shape[0]), np.argmax(np.abs(head), axis=1)]
    rows[peak < 0] *= -1.0
    return rows


def _order_degenerate(freqs: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort mode vectors lexicographically inside degenerate frequency groups."""
    order = list(range(freqs.size))
    start = 0
    while start < freqs.size:
        stop = start
        while stop + 1 < freqs.size and freqs[stop + 1] - freqs[start] <= _DEGENERACY_RTOL * max(1.0, freqs[start]):
            stop += 1
        if stop > start:
            group = sorted(order[start : stop + 1], key=lambda idx: tuple(rows[idx]))
            order[start : stop + 1] = group
        start = stop + 1
    return freqs[order], rows[order]


def modes_from_hessian(hessian: np.ndarray) -> NormalModes:
    """Diagonalize a general symmetric curvature matrix into normal modes.

    Exactly degenerate frequencies get their mode vectors in lexicographic
    order.  Raises NegativeEigenvalue (a DegenerateHessian) if any eigenvalue is
    not positive, which signals a saddle rather than a minimum; its message
    names the matrix size and how many eigenvalues are not positive.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(hessian)
    if eigenvalues[0] <= 0:
        size = eigenvalues.size
        count = int(np.count_nonzero(eigenvalues <= 0))
        raise NegativeEigenvalue(
            f"smallest curvature eigenvalue is {eigenvalues[0]:g}; "
            f"{count} of the {size} eigenvalues of the {size}x{size} matrix are not positive"
        )
    frequencies = np.sqrt(eigenvalues)
    rows = _fix_signs(eigenvectors.T)
    frequencies, rows = _order_degenerate(frequencies, rows)
    return NormalModes(frequencies, rows)


def compute_modes(spec: SystemSpec, config: Configuration) -> NormalModes:
    """Normal modes at a solved configuration of the given system.

    The curvature at the antisymmetric minimum is persymmetric, so only
    its middle and right-half rows are computed, and it is diagonalized
    as its even and odd parity blocks, each half the size.
    Every mode row is exactly symmetric or antisymmetric under site
    reversal; its sign makes the largest entry positive, and because
    mirror entries are exact copies that entry always lies in the first
    half (or at the middle site).  Frequencies are merged in ascending
    order.  Raises NegativeEigenvalue if either block has a non-positive
    eigenvalue; its message names N, the interaction and the block.
    """
    if spec.interaction.is_hard_core:
        raise UnsupportedLimit("the hard-core limit has no harmonic expansion")
    hess = _gradient_and_hessian(spec, config.positions)[1]
    even_values, even_vectors = np.linalg.eigh(_parity.even_block(hess))
    odd_values, odd_vectors = np.linalg.eigh(_parity.odd_block(hess))
    lowest, block = min((even_values[0], "even"), (odd_values[0], "odd"))
    if lowest <= 0:
        raise NegativeEigenvalue(
            f"smallest curvature eigenvalue is {lowest:g}, in the {block} parity block at {_point(spec)}"
        )
    frequencies = np.sqrt(np.concatenate((even_values, odd_values)))
    order = np.argsort(frequencies, kind="stable")
    rows = _parity.unfold_rows(even_vectors, odd_vectors)[order]
    n = config.n_particles
    return NormalModes(frequencies[order], _fix_signs(rows, n - n // 2))


def ground_state_precision(modes: NormalModes) -> np.ndarray:
    """Precision matrix M of the ground-state wavepacket amplitude.

    The lowest oscillator product state is exp(-0.5 * z.T @ M @ z) up to
    normalization, with M = U.T @ diag(v) @ U (note v, not v**2).
    """
    rows = modes.mode_matrix
    return rows.T @ (modes.frequencies[:, None] * rows)
