"""Exception hierarchy shared by all modules."""


class MaassJacobiError(Exception):
    """Base class for all toolkit errors."""


class MalformedElementError(MaassJacobiError):
    """A group or algebra element violates its defining invariants."""


class DomainError(MaassJacobiError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """A special-function parameter hits a pole of the defining series."""


class PrecisionError(MaassJacobiError):
    """A computation could not reach the requested precision."""


class NotSemiHolomorphicError(MaassJacobiError):
    """An expansion does not satisfy the (D, r mod L) dependence required
    by the theta decomposition."""


class DegreeError(MaassJacobiError):
    """A jet has too low a truncation degree for the requested operator."""


class UsageError(MaassJacobiError):
    """Bad command-line or configuration input."""
