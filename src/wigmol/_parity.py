"""Reflection parity of an ordered chain: half-vectors and parity blocks.

The reversal J maps site i to site N + 1 - i.  The ordered minimum is
J-antisymmetric (J x = -x, with the middle site at 0 for odd N), and the
curvature matrix at any antisymmetric point is persymmetric (J H J = H).
With m = N // 2, A the block of H on the m right-half sites and B the
block coupling them to the left half, H is orthogonally similar to
diag(E, O):

* the odd block O = A - B J acts on antisymmetric vectors (-J h, 0, h) / sqrt 2;
* the even block E = A + B J acts on symmetric vectors (J h, sqrt 2 c, h) / sqrt 2;
  for odd N it is bordered by the middle site c, whose row and column
  carry a factor sqrt 2.

Every block formula of the package lives here.  The blocks read only the
right-half rows of H (and, for odd N, the middle row), so they come out
exactly symmetric for an exactly antisymmetric configuration, and they
accept those N - m rows alone as well as the full matrix.
"""

from __future__ import annotations

import numpy as np

_ROOT2 = np.sqrt(2.0)


def fold(x: np.ndarray) -> np.ndarray:
    """Right-half coordinates of the antisymmetric part of a full vector.

    Returns (x_R - J x_L) / 2 for the m right-half sites, which is the
    right half itself, bitwise, when x is exactly antisymmetric.
    """
    n = x.size
    m = n // 2
    return 0.5 * (x[n - m :] - x[m - 1 :: -1])


def unfold(half: np.ndarray, n: int) -> np.ndarray:
    """The antisymmetric full vector (-J h, 0, h) with right half ``half``."""
    m = n // 2
    full = np.zeros(n)
    full[n - m :] = half
    full[:m] = -half[::-1]
    return full


def _right_and_mirrored(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # A and B J: the right-half rows against the right half and against its mirror image
    n = rows.shape[1]
    m = n // 2
    right_rows = rows[rows.shape[0] - m :]
    return right_rows[:, n - m :], right_rows[:, m - 1 :: -1]


def odd_block(rows: np.ndarray) -> np.ndarray:
    """The m x m odd block O = A - B J of a persymmetric curvature matrix.

    ``rows`` is the full matrix or just its last N - m rows (the middle
    row for odd N, then the right half); only those rows are read.  Rows
    and columns follow the right-half sites from the middle out.
    """
    right, mirrored = _right_and_mirrored(rows)
    return right - mirrored


def even_block(rows: np.ndarray) -> np.ndarray:
    """The (N - m) x (N - m) even block of a persymmetric curvature matrix.

    A + B J, bordered for odd N by the middle site, which comes first and
    whose off-diagonal row and column carry a factor sqrt 2.  Reads the
    same rows as :func:`odd_block`.
    """
    right, mirrored = _right_and_mirrored(rows)
    n = rows.shape[1]
    if n % 2 == 0:
        return right + mirrored
    m = n // 2
    middle_out = rows[m - n :]
    even = np.empty((m + 1, m + 1))
    even[1:, 1:] = right + mirrored
    even[0, 0] = middle_out[0, m]
    even[1:, 0] = even[0, 1:] = _ROOT2 * middle_out[1:, m]
    return even


def unfold_rows(even_vectors: np.ndarray, odd_vectors: np.ndarray) -> np.ndarray:
    """Full unit mode rows from the block eigenvectors (one per column).

    The N - m symmetric rows (J h, sqrt 2 c, h) / sqrt 2 come first, then
    the m antisymmetric rows (-J h, 0, h) / sqrt 2, so mirror entries are
    exact copies or exact negatives of each other.  The division by
    sqrt 2 rounds like the normalization of a full eigenvector, so a pair
    (1, 1) comes out as the same 1/sqrt 2 as from a full eigensolver.
    """
    m = odd_vectors.shape[0]
    n = even_vectors.shape[0] + m
    rows = np.zeros((n, n))
    even, odd = rows[: n - m], rows[n - m :]
    right_even = even_vectors[n % 2 :].T / _ROOT2
    right_odd = odd_vectors.T / _ROOT2
    even[:, n - m :] = right_even
    even[:, :m] = right_even[:, ::-1]
    if n % 2:
        even[:, m] = even_vectors[0]
    odd[:, n - m :] = right_odd
    odd[:, :m] = -right_odd[:, ::-1]
    return rows
