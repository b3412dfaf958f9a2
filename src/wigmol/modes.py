"""Normal modes of the harmonic expansion about the classical minimum.

The curvature matrix H decomposes as H = U.T @ diag(v**2) @ U with U
orthogonal; row i of U maps a displacement vector to mode coordinate i,
and v_i are the mode frequencies.  The uniform displacement is always a
mode with frequency exactly 1 (the bare trap), because the repulsion is
translation invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import Configuration
from .errors import NegativeEigenvalue, UnsupportedLimit
from .potential import SystemSpec, potential_hessian

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


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of every mode vector made positive, for reproducibility
    peak = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    return np.where((peak < 0)[:, None], -rows, rows)


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
    """Diagonalize a symmetric curvature matrix into normal modes.

    Raises NegativeEigenvalue (a DegenerateHessian) if any eigenvalue is
    not positive, which signals a saddle rather than a minimum.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(hessian)
    if eigenvalues[0] <= 0:
        raise NegativeEigenvalue(f"smallest curvature eigenvalue is {eigenvalues[0]:g}")
    frequencies = np.sqrt(eigenvalues)
    rows = _fix_signs(eigenvectors.T)
    frequencies, rows = _order_degenerate(frequencies, rows)
    return NormalModes(frequencies, rows)


def compute_modes(spec: SystemSpec, config: Configuration) -> NormalModes:
    """Normal modes at a solved configuration of the given system."""
    if spec.interaction.is_hard_core:
        raise UnsupportedLimit("the hard-core limit has no harmonic expansion")
    return modes_from_hessian(potential_hessian(spec, config.positions))


def ground_state_precision(modes: NormalModes) -> np.ndarray:
    """Precision matrix M of the ground-state wavepacket amplitude.

    The lowest oscillator product state is exp(-0.5 * z.T @ M @ z) up to
    normalization, with M = U.T @ diag(v) @ U (note v, not v**2).
    """
    rows = modes.mode_matrix
    return rows.T @ (modes.frequencies[:, None] * rows)
