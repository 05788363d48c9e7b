"""Exception types shared across the package.

Every failure mode that a caller can react to gets its own class; generic
ValueError/RuntimeError is reserved for programming errors.
"""


class QPRenormError(Exception):
    """Base class for all package errors."""


class DomainError(QPRenormError):
    """A point or a map left the admissible real domain."""

    def __init__(self, msg, where=None):
        super().__init__(msg)
        self.where = where


class CompositionDomainError(DomainError):
    """Composition sampled an inner value outside the outer domain.

    Carries the offending (theta, x) sample in .where.
    """


class DegenerateScalingError(QPRenormError):
    """The rescaling constant a (or a-hat) is too close to zero, or a
    slope quotient has nothing to divide by: a denominator slope or a
    chain's final direction is 0, as for a zero coupling."""


class NoConvergenceError(QPRenormError):
    """An iterative solver ran out of iterations."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class SearchError(QPRenormError):
    """A bracket or sign change was not found."""


class InconsistencyError(QPRenormError):
    """Two independent routes to the same quantity disagree."""


class MeshError(QPRenormError):
    """A growth mesh was exhausted before the target crossing, or a level
    read off the growth walk misses its superstable set."""


class TruncationError(QPRenormError):
    """Requested Fourier mode exceeds the stored truncation."""


class NoSectionError(QPRenormError):
    """The mode-1 component vanishes, no section representative exists."""


class DegeneratePointError(QPRenormError):
    """The section point (and all fallbacks) evaluate to zero amplitude."""


class PrecisionExhaustedError(QPRenormError):
    """A request deeper than float64 resolves: more doublings than the
    fixed-point fraction keeps, or a level past renorm1d.MAX_LEVEL."""


class EscapeError(QPRenormError):
    """An orbit left the working interval; .step is the first bad index."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class BasinError(QPRenormError):
    """Invariant-curve iteration did not converge from the given guess."""


class ExistenceError(QPRenormError):
    """A required orbit (e.g. a real 2-cycle) does not exist."""


class ConsistencyError(QPRenormError):
    """Mismatched grids, rotation numbers or metadata between inputs."""


class DiophantineError(QPRenormError):
    """Rotation number rejected by the Diophantine gate."""


class ForcingParseError(QPRenormError):
    """Bad forcing expression; .pos is the character position."""

    def __init__(self, msg, pos=None):
        super().__init__(msg)
        self.pos = pos
