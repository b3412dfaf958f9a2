"""Normal modes of the harmonic expansion about the classical minimum.

The curvature matrix H decomposes as H = U.T @ diag(v**2) @ U with U
orthogonal; row i of U maps a displacement vector to mode coordinate i,
and v_i are the mode frequencies.  The uniform displacement is always a
mode with frequency exactly 1 (the bare trap), because the repulsion is
translation invariant.

At a solved chain the curvature commutes with site reversal, so
:func:`compute_modes` diagonalizes its even and odd parity blocks
separately, each about half the size of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parity
from .equilibrium import Configuration, _point
from .errors import NegativeEigenvalue, UnsupportedLimit
from .potential import SystemSpec, _gradient_and_hessian


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


def _fix_signs(rows: np.ndarray, width: int) -> np.ndarray:
    """Flip rows in place so that the largest-magnitude entry among the first ``width`` is positive.

    Reproducibility convention; ``argmax`` takes the first of tied entries.
    """
    head = rows[:, :width]
    peak = head[np.arange(rows.shape[0]), np.argmax(np.abs(head), axis=1)]
    rows[peak < 0] *= -1.0
    return rows


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
