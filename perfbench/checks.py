"""Output checks that the benchmark applies to every op, outside the timed region.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  None of them reuses the code path it checks: the log-limit
minimum is compared with the Hermite zeros from numpy, and the degree of
correlation with a closed form built from the returned normal modes.
"""

from __future__ import annotations

import numpy as np

# thresholds of ``wigmol verify``
VERIFY_THRESHOLDS = {
    "quadrature": 1e-6,
    "nystrom": 1e-5,
    "momentum": 1e-6,
    "cross_solver": 1e-8,
    "fd_gradient": 1e-6,
    "fd_hessian": 1e-5,
}


def log_limit_minimum(positions, frequencies) -> str | None:
    """Stieltjes: the minimum is the zeros of H_N.  Calogero: v**2 = 1..N."""
    n = positions.size
    with np.errstate(all="ignore"):  # the weights overflow for large N; only the nodes are used
        zeros, _ = np.polynomial.hermite.hermgauss(n)
    position_error = float(np.max(np.abs(positions - zeros)))
    if not position_error <= 1e-9:
        return f"log-limit positions differ from the Hermite zeros by {position_error:.2e}"
    levels = np.arange(1, n + 1)
    level_error = float(np.max(np.abs(frequencies**2 - levels) / levels))
    if not level_error <= 1e-9:
        return f"log-limit squared frequencies differ from 1..N by {level_error:.2e} relative"
    return None


def closed_form_k(frequencies, mode_matrix) -> float:
    """K = N**2 / sum_i (M_ii * (M^-1)_ii)**-0.5 with M = U.T diag(v) U."""
    squares = mode_matrix**2
    diag_m = frequencies @ squares
    diag_m_inv = (1.0 / frequencies) @ squares
    return frequencies.size**2 / float(np.sum((diag_m * diag_m_inv) ** -0.5))


def harmonic_point(frequencies, mode_matrix, degree_of_correlation) -> str | None:
    """Uniform mode at frequency 1, K >= N, and K equal to its closed form."""
    n = frequencies.size
    trap_gap = float(np.min(np.abs(frequencies - 1.0)))
    if not trap_gap <= 1e-10:
        return f"no mode at frequency 1 (closest is {trap_gap:.2e} away)"
    if not degree_of_correlation >= n:
        return f"K = {degree_of_correlation!r} is below N = {n}"
    expected = closed_form_k(frequencies, mode_matrix)
    relative = abs(degree_of_correlation - expected) / expected
    if not relative <= 1e-10:
        return f"K = {degree_of_correlation!r} differs from its closed form {expected!r} by {relative:.2e} relative"
    return None


def table_rows(text: str) -> list[list[str]]:
    """Data rows of a CSV table, header dropped."""
    return [line.split(",") for line in text.splitlines()[1:]]


def sampled_unit_integral(rows) -> str | None:
    """Trapezoid integral of an (abscissa, value) table within 1e-3 of one."""
    table = np.array(rows, dtype=float)
    integral = float(np.trapezoid(table[:, 1], table[:, 0]))
    if not abs(integral - 1.0) <= 1e-3:
        return f"trapezoid integral {integral!r} is not within 1e-3 of 1"
    return None


def within(kind: str, value: float) -> str | None:
    """A ``verify`` metric against its threshold."""
    if not value <= VERIFY_THRESHOLDS[kind]:
        return f"{kind} error {value:.2e} above {VERIFY_THRESHOLDS[kind]:g}"
    return None
