"""Exception types shared across the package."""


class FiberspecError(Exception):
    """Base class for every error raised by this package."""


class ExpressionSyntaxError(FiberspecError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """Identifier outside the allowed variables, constants, and builtins."""


class MissingBinding(FiberspecError):
    """Evaluation reached a variable that has no bound value."""


class DomainError(FiberspecError):
    """Evaluation left the real domain (log of a non-positive number,
    square root of a negative number, division by zero, negative base with
    a non-integer exponent) or produced a non-finite value."""


class InvalidCount(FiberspecError):
    """Node count too small for the requested grid or quadrature rule."""


class InvalidQuadratureRule(FiberspecError):
    """Quadrature rule name is not one of the supported rules."""


class GridMismatch(FiberspecError):
    """Operands live on different grids."""


class InvalidKernel(FiberspecError):
    """Kernel declaration violates its variable constraints."""


class NotSymmetric(FiberspecError):
    """Matrix or sampled kernel is asymmetric beyond tolerance."""


class NoConvergence(FiberspecError):
    """Eigensolver did not converge (LAPACK, or the Jacobi sweep budget)."""


class RankTooLarge(FiberspecError):
    """Requested rank exceeds the retained rank of the decomposition."""


class InvalidMesh(FiberspecError):
    """Non-positive partition mesh."""


class UnknownCurveLabel(FiberspecError):
    """Partition references an eigenvalue curve that does not exist."""


class IncompletePartition(FiberspecError):
    """Partition sets fail to cover the parameter grid exactly once."""


class ConfigError(FiberspecError):
    """Configuration file is missing, malformed, or inconsistent."""
