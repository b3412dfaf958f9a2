"""Per-site Gaussian kernels of the one-body density matrix and their spectra.

In the strongly localized regime each particle contributes a Gaussian
kernel to the one-body reduced density matrix,

    rho_i(x, x') = A * exp(-a*(u**2 + u'**2) + b*u*u'),   u = x - center_i,

obtained by integrating the ground-state wavepacket over every other
coordinate.  With M = U.T @ diag(v) @ U the wavepacket precision matrix,
the marginalization gives 2a + b = M_ii and 2a - b = 1/inv(M)_ii, while A
follows from the per-site trace 1/N.  Both diagonals are weighted column
sums of U**2, diag M = v @ U**2 and diag inv(M) = (1/v) @ U**2, so every
site follows in O(N**2) from the normal modes with no linear solve.
Reflection symmetry makes sites i and N - i + 1 equivalent: the modes of a
solved chain are exactly even or odd, so mirror columns of U**2 are equal
and the column sums, taken row by row, give mirror sites bitwise
identical kernels.

:func:`all_site_kernels` returns all sites as one :class:`KernelSet`, one
read-only site-ordered array per parameter, whose items are
:class:`SiteKernel` views built on demand; :func:`occupancy_spectrum`
reads its arrays directly.

Such a kernel diagonalizes in closed form: its eigenfunctions are
Hermite-Gaussian orbitals of width parameter eta = sqrt(4a**2 - b**2)
about the site center, and the occupancies form a geometric ladder
lambda_l = lambda_0 * y**l with

    y = (sqrt(2a + b) - sqrt(2a - b)) / (sqrt(2a + b) + sqrt(2a - b)).

The inverse purity of the assembled spectrum counts how many orbitals
carry significant weight; its relative excess over N measures how far
the state is from an N-orbital description.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import DEFAULT_MAX_ITER, DEFAULT_TOL, Configuration, solve_equilibrium
from .errors import SingularBlock
from .modes import NormalModes, compute_modes
from .potential import SystemSpec

DEFAULT_TAIL_TOL = 1e-12
_LADDER_CAP = 200_000
_BLOCK_ELEMENTS = 1 << 15  # float64 entries in one block of site terms, 256 KB


@dataclass(frozen=True)
class SiteKernel:
    """Gaussian kernel parameters for one site (1-based site index)."""

    site: int
    center: float
    amplitude: float
    a: float
    b: float
    eta: float
    y: float

    @property
    def width(self) -> float:
        """Length scale 1/sqrt(eta) of the site orbitals."""
        return self.eta**-0.5


_KERNEL_ARRAYS = ("center", "amplitude", "a", "b", "eta", "y")


@dataclass(frozen=True, eq=False)
class KernelSet(Sequence):
    """Kernel parameters of every site as read-only site-ordered arrays.

    Entry k of each array belongs to site k + 1.  As a sequence it yields
    :class:`SiteKernel` views, built only when an item is asked for, so
    code written for per-site kernels reads a set unchanged.
    """

    center: np.ndarray
    amplitude: np.ndarray
    a: np.ndarray
    b: np.ndarray
    eta: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        arrays = [np.array(getattr(self, name), dtype=float) for name in _KERNEL_ARRAYS]
        if any(arr.ndim != 1 or arr.shape != arrays[0].shape for arr in arrays):
            raise ValueError("kernel parameters must be 1-d arrays of equal length")
        for name, arr in zip(_KERNEL_ARRAYS, arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_kernels(cls, kernels) -> KernelSet:
        """Pack an iterable of kernels as sites 1, 2, ... in iteration order."""
        if isinstance(kernels, cls):
            return kernels
        rows = [(k.center, k.amplitude, k.a, k.b, k.eta, k.y) for k in kernels]
        return cls(*np.array(rows, dtype=float).reshape(-1, len(_KERNEL_ARRAYS)).T)

    def __len__(self) -> int:
        return self.center.size

    def __getitem__(self, index) -> SiteKernel:
        k = range(len(self))[operator.index(index)]
        return SiteKernel(k + 1, *(float(getattr(self, name)[k]) for name in _KERNEL_ARRAYS))


def _scalar_power(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values**exponent`` in Python floats, as per-site formulas take it; numpy's array power
    (its square too) rounds some entries differently."""
    return np.array([v**exponent for v in values.tolist()])


def _precision_diagonals(modes: NormalModes, columns: slice) -> tuple[np.ndarray, np.ndarray]:
    """diag M = v @ U**2 and diag inv(M) = (1/v) @ U**2 on the given sites.

    Each column is summed in row order rather than by a matrix-vector
    product, so equal columns of U**2 give bitwise equal sums whatever
    their position, and one site's sums are bitwise those it gets among
    all sites.  The two weighted matrices are made one after the other,
    so only one of them is alive at a time.
    """
    weights = modes.mode_matrix[:, columns] ** 2
    freqs = modes.frequencies[:, None]
    return _column_sums(freqs * weights), _column_sums((1.0 / freqs) * weights)


def _column_sums(terms: np.ndarray) -> np.ndarray:
    # numpy sums axis 0 of a 2-d array row by row but a single column
    # pairwise, so a single column takes the running sum, which is row by row
    if terms.shape[1] == 1:
        return terms.cumsum(axis=0)[-1]
    return terms.sum(axis=0)


def _site_sum(term, grid: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    """sum_i term(grid, *column_i) over sites, bitwise the loop ``total = total + term_i`` from zeros.

    Each column holds one parameter per site.  ``term`` gets the flattened
    grid and a block of sites of every column as (sites, 1) arrays, and
    returns a fresh (sites, grid) array.  Each 256 KB block's first row
    takes the running total, and its column sums add row by row in site order.
    """
    flat = grid.reshape(-1)
    total = np.zeros(flat.shape)
    step = max(1, _BLOCK_ELEMENTS // max(flat.size, 1))
    for first in range(0, len(columns[0]), step):
        block = term(flat, *(column[first : first + step, None] for column in columns))
        block[0] += total
        total = _column_sums(block)
    return total.reshape(grid.shape)


def _kernel_parameters(diag_m: np.ndarray, diag_m_inv: np.ndarray, n: int, first_site: int):
    """Kernel (A, a, b, eta, y) arrays from the diagonals of M and inv(M).

    Entry k belongs to site ``first_site + k``.  The coupling
    b = (M_ii - 1/inv(M)_ii) / 2 is a difference that carries roundoff of
    order N * eps * M_ii; a b inside that floor is no resolved coupling, so
    it raises like a non-positive one.
    """
    with np.errstate(divide="ignore"):
        diff_term = 1.0 / diag_m_inv  # 2a - b; diag_m is 2a + b
    a = 0.25 * (diag_m + diff_term)
    b = 0.5 * (diag_m - diff_term)
    bad = ~((diag_m_inv > 0.0) & (b > n * np.finfo(float).eps * diag_m) & (b < 2.0 * a))
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularBlock(f"kernel parameters out of range for site {first_site + k}: a={a[k]:g}, b={b[k]:g}")
    amplitude = np.sqrt(diff_term / np.pi) / n
    sum_root = np.sqrt(diag_m)
    diff_root = np.sqrt(diff_term)
    eta = sum_root * diff_root
    y = (sum_root - diff_root) / (sum_root + diff_root)
    return amplitude, a, b, eta, y


def site_kernel(modes: NormalModes, config: Configuration, site: int) -> SiteKernel:
    """Marginalize the ground-state wavepacket down to one site.

    Reads only column ``site`` of the mode matrix, so it costs O(N).

    Parameters
    ----------
    modes : NormalModes
        Modes of the solved configuration.
    config : Configuration
        The solved configuration itself (provides the site centers).
    site : int
        Site index in 1..N.

    Raises
    ------
    SingularBlock
        If the site has no resolvable coupling to the rest (b not in (0, 2a)).
    """
    n = config.n_particles
    if not 1 <= site <= n:
        raise ValueError(f"site must lie in 1..{n}")
    idx = site - 1
    params = _kernel_parameters(*_precision_diagonals(modes, slice(idx, idx + 1)), n, site)
    amplitude, a, b, eta, y = (float(p[0]) for p in params)
    return SiteKernel(site, float(config.positions[idx]), amplitude, a, b, eta, y)


def all_site_kernels(modes: NormalModes, config: Configuration) -> KernelSet:
    """Kernels for every site from two weighted column sums of the modes.

    The modes of a solved chain are exactly even or odd under reflection,
    so mirror columns of U**2 are equal and mirror sites i and N - i + 1
    carry bitwise identical (A, a, b, eta, y) with no averaging.  For modes
    that :func:`~wigmol.modes.compute_modes` returned, the sums run over
    the middle and right-half columns only, half the O(N**2) work, and are
    mirrored onto the left half before the kernels are formed.  Modes
    built any other way take the sums over every column.  Either way the
    set, and any SingularBlock message, is bitwise what the sums over
    every column give.

    Raises
    ------
    SingularBlock
        Naming the first site whose b falls outside (0, 2a).
    """
    n = config.n_particles
    if modes._mirrored:
        half = _precision_diagonals(modes, slice(n // 2, None))
        # the middle-out sums without the middle site, reversed, are the left half's
        diagonals = [np.concatenate((sums[n % 2 :][::-1], sums)) for sums in half]
    else:
        diagonals = _precision_diagonals(modes, slice(None))
    params = _kernel_parameters(*diagonals, n, 1)
    return KernelSet(config.positions, *params)


@dataclass(frozen=True)
class Molecule:
    """One solved (N, d) point: its equilibrium, normal modes and site kernels."""

    spec: SystemSpec
    config: Configuration
    modes: NormalModes
    kernels: KernelSet


def pipeline(spec: SystemSpec, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> Molecule:
    """Solve ``spec`` with ``tol`` and ``max_iter``, then take its normal modes and site kernels.

    Each stage raises as it does alone; :func:`~wigmol.modes.compute_modes` refuses the hard core.
    """
    config = solve_equilibrium(spec, tol=tol, max_iter=max_iter)
    modes = compute_modes(spec, config)
    return Molecule(spec, config, modes, all_site_kernels(modes, config))


def kernel_value(kernel: SiteKernel, x, x_prime) -> np.ndarray:
    """Evaluate the kernel rho_i(x, x'); broadcasts over array input."""
    u = np.asarray(x, dtype=float) - kernel.center
    u_prime = np.asarray(x_prime, dtype=float) - kernel.center
    return kernel.amplitude * np.exp(-kernel.a * (u**2 + u_prime**2) + kernel.b * u * u_prime)


def site_density(kernel: SiteKernel, x) -> np.ndarray:
    """Diagonal of the kernel: A * exp(-(2a - b) * (x - center)**2)."""
    u = np.asarray(x, dtype=float) - kernel.center
    return kernel.amplitude * np.exp(-(2.0 * kernel.a - kernel.b) * u**2)


def natural_orbital(kernel: SiteKernel, l: int, x) -> np.ndarray:
    """Hermite-Gaussian eigenfunction u_l of the kernel, evaluated at x.

    Uses the stable two-term recurrence for orthonormal oscillator
    functions, so large l does not overflow.
    """
    if l < 0:
        raise ValueError("the orbital index l must be non-negative")
    xi = np.sqrt(kernel.eta) * (np.asarray(x, dtype=float) - kernel.center)
    previous = np.pi**-0.25 * np.exp(-0.5 * xi**2)
    if l == 0:
        return kernel.eta**0.25 * previous
    current = np.sqrt(2.0) * xi * previous
    for k in range(1, l):
        current, previous = xi * np.sqrt(2.0 / (k + 1)) * current - np.sqrt(k / (k + 1)) * previous, current
    return kernel.eta**0.25 * current


def leading_occupancy(kernel: SiteKernel | KernelSet) -> float | np.ndarray:
    """lambda_0 = A * sqrt(pi * (1 - y**2) / eta); an array of all sites for a :class:`KernelSet`."""
    if isinstance(kernel, KernelSet):
        return kernel.amplitude * np.sqrt(np.pi * (1.0 - _scalar_power(kernel.y, 2)) / kernel.eta)
    return float(kernel.amplitude * np.sqrt(np.pi * (1.0 - kernel.y**2) / kernel.eta))


def occupancy(kernel: SiteKernel, l: int) -> float:
    """l-th rung of the geometric occupancy ladder of one site."""
    return leading_occupancy(kernel) * kernel.y**l


def site_purity(kernel: SiteKernel) -> float:
    """Closed-form sum of squared occupancies of one site: A**2 * pi / eta."""
    return float(kernel.amplitude**2 * np.pi / kernel.eta)


@dataclass(frozen=True, eq=False)
class OccupancySpectrum:
    """Occupancy ladders of a kernel set plus the derived correlation numbers.

    ``degree_of_correlation`` is the inverse purity and ``delta_k`` its
    relative excess over N; these three numbers are computed with the
    spectrum.  ``ladders[i]`` holds lambda_0 .. lambda_lmax for site i + 1,
    truncated where the analytic geometric tail drops below the requested
    tolerance, and ``tail_bounds[i]`` is that remaining tail.  The ladders,
    the tail bounds and ``l_max`` are built when one of them is first read
    and then kept, read-only, so a caller that reads only K or delta_K
    never builds them.  Build spectra with :func:`occupancy_spectrum`.
    """

    purity: float
    degree_of_correlation: float
    delta_k: float
    _kernels: KernelSet = field(repr=False)
    _tail_tol: float = field(repr=False)

    @functools.cached_property
    def _truncated(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        y = self._kernels.y
        lam0 = leading_occupancy(self._kernels)
        target = self._tail_tol * (1.0 - y) / lam0
        with np.errstate(divide="ignore", invalid="ignore"):
            rungs = np.ceil(np.log(target) / np.log(y)) - 1.0
        l_max = np.where(y < target, 0, np.clip(rungs, 0, _LADDER_CAP)).astype(int)
        # each ladder is the running product of lam0 and l_max copies of y, one
        # block per distinct l_max; the product runs along each row in turn, so
        # every rung is exactly the previous one times y, even in floating point
        ladders = [None] * y.size
        last = np.empty(y.size)
        # a set, not np.unique, whose first call imports numpy.ma (about 15 ms and 1 MB)
        for length in set(l_max.tolist()):
            sites = np.flatnonzero(l_max == length)
            block = np.empty((sites.size, length + 1))
            block[:, 0] = lam0[sites]
            block[:, 1:] = y[sites, None]
            np.cumprod(block, axis=1, out=block)
            block.flags.writeable = False
            last[sites] = block[:, -1]
            for site, ladder in zip(sites.tolist(), block):
                ladders[site] = ladder
        tails = last * y / (1.0 - y)
        tails.flags.writeable = False
        return tuple(ladders), tails

    @property
    def ladders(self) -> tuple[np.ndarray, ...]:
        return self._truncated[0]

    @property
    def tail_bounds(self) -> np.ndarray:
        return self._truncated[1]

    @property
    def l_max(self) -> int:
        return max(ladder.size for ladder in self.ladders) - 1

    @property
    def tail_bound(self) -> float:
        return float(np.sum(self.tail_bounds))


def occupancy_spectrum(kernels, tail_tol: float = DEFAULT_TAIL_TOL) -> OccupancySpectrum:
    """The occupancy spectrum of a full kernel set.

    The purity, K and delta_K are computed at once, the purity summed in
    closed form over the sites.  Each ladder is truncated at the smallest
    l_max whose analytic geometric tail lambda_0 * y**(l_max + 1) / (1 - y)
    drops below ``tail_tol``, capped at ``_LADDER_CAP`` rungs, when the
    spectrum's ladders are first read.  ``kernels`` is a :class:`KernelSet`, whose arrays are read
    directly, or any iterable of kernels, which is packed into one first.
    Raises ValueError unless ``tail_tol >= 0``.
    """
    if not tail_tol >= 0:
        raise ValueError(f"tail_tol must be non-negative, got {tail_tol!r}")
    kernels = KernelSet.from_kernels(kernels)
    n = len(kernels)
    purity = sum((kernels.amplitude**2 * np.pi / kernels.eta).tolist())
    degree = 1.0 / purity
    return OccupancySpectrum(purity, degree, (degree - n) / n, kernels, tail_tol)


def rank_n_density_approximation(kernels, spectrum: OccupancySpectrum, x) -> np.ndarray:
    """Density rebuilt from the leading orbital of every site.

    Keeping only the l = 0 rung of each ladder gives the N-orbital
    approximation sum_i lambda_0_i * u_0_i(x)**2; it is accurate exactly
    when the correlation excess delta_k is small.  lambda_0 is read from
    the spectrum's kernels by :func:`leading_occupancy`, so no ladder is
    built.
    """
    kernels = KernelSet.from_kernels(kernels)
    lam0 = leading_occupancy(spectrum._kernels)[: len(kernels)]
    center, eta = kernels.center[: lam0.size], kernels.eta[: lam0.size]

    def term(x, lam0, center, root, quarter):  # lambda_0 * natural_orbital(kernel, 0, x)**2, step by step
        return lam0 * (quarter * (np.pi**-0.25 * np.exp(-0.5 * (root * (x - center)) ** 2))) ** 2

    return _site_sum(term, np.asarray(x, dtype=float), lam0, center, np.sqrt(eta), _scalar_power(eta, 0.25))
