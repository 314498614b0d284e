"""Exception types shared across the package."""


class CdlabError(Exception):
    """Base class for cdlab-specific failures."""


class RankDeficientError(CdlabError):
    """The measure cannot carry the requested weighted polynomial space.

    Raised when the measure supports no polynomial of the requested
    degree, a recurrence norm below 1e-13 of the largest: too few atoms,
    or atoms in degenerate position.  Also raised when the measure has no
    mass under the metric weight, and when the metric scale exp(-k phi)
    leaves the double range at a node.
    """


class NotHermitianError(CdlabError):
    """A matrix required to be Hermitian exceeds the asymmetry tolerance."""
