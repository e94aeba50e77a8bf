"""Exception types shared across the package."""


class BranchCSError(Exception):
    """Base class for all branchcs errors."""


class IntegrationFailure(BranchCSError):
    """The adaptive ODE integrator could not meet its tolerance."""


class MTooLarge(BranchCSError, ValueError):
    """Requested more sample indices than grid points (a usage error)."""


class NonSquareGrid(BranchCSError):
    """A square matrix was required."""


class ShapeMismatch(BranchCSError):
    """Array shapes are inconsistent."""


class NonFinite(BranchCSError):
    """An iterate contains NaN or Inf (divergent solver configuration)."""


class NonConvergent(BranchCSError):
    """Uniformization needed more terms than the step cap allows."""
