"""Exception types raised across the package."""


class WigmolError(Exception):
    """Base class for all package-specific errors."""


class CoincidentPositions(WigmolError):
    """Two particles share a position, so the repulsion diverges."""


class UnsupportedLimit(WigmolError):
    """The requested quantity does not exist in the hard-core limit."""


class NoConvergence(WigmolError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateHessian(WigmolError):
    """The curvature matrix is not positive definite at a candidate minimum."""


class InvalidScale(WigmolError):
    """A coordinate-scaling parameter (g or d_aux) is not positive and finite."""


class SingularBlock(WigmolError):
    """A site's marginal of the wavepacket precision matrix gives no valid kernel.

    Raised when b falls outside (0, 2a), for instance when the site has no
    coupling to the others that survives roundoff.
    """


class DimensionTooLarge(WigmolError):
    """Brute-force quadrature was requested for too many particles."""
