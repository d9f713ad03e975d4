"""Exception types shared across the package."""


class DisconnectedGraphError(ValueError):
    """An operation that assumes a connected metric graph got a disconnected one."""


class DisconnectedCoverError(ValueError):
    """A cover-level operation requires the derived graph to be connected."""


class EnumerationOverflow(RuntimeError):
    """Coset enumeration exceeded its live-coset budget or a multiple of it in definitions.

    The presented group may be infinite, or the budget may simply be too
    small; the two cases are indistinguishable to the enumerator.
    """

    def __init__(self, max_cosets: int, message: str | None = None):
        self.max_cosets = max_cosets
        super().__init__(message or f"live-coset budget of {max_cosets} exhausted")


class NotGeneratingError(ValueError):
    """The chosen generator subset does not generate the whole group."""


class PathNotLongEnough(ValueError):
    """The route is within the diameter bound already; there is nothing to shorten."""


class CoverNotCovering(RuntimeError):
    """Some sample point lies outside every ball of the would-be cover.

    Signals that the ball radius is too tight for the sampling mesh.
    """


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""
