"""Exception hierarchy shared by all memaccel modules."""


class MemaccelError(Exception):
    """Base class for all domain errors raised by this package."""


class DegreeZeroError(MemaccelError):
    """Root finding requested on a constant polynomial."""


class NoConvergenceError(MemaccelError):
    """An iterative numerical routine exhausted its budget."""


class EmptyRootSetError(MemaccelError):
    """An operation requiring at least one root got an empty set."""


class ParseError(MemaccelError):
    """Malformed text input; carries the offending line."""

    def __init__(self, line_no, text):
        self.line_no = line_no
        self.text = text
        super().__init__(f"line {line_no}: cannot parse {text!r}")


class DuplicateEdgeError(MemaccelError):
    def __init__(self, i, j):
        self.edge = (i, j)
        super().__init__(f"edge ({i}, {j}) given more than once")


class NegativeWeightError(MemaccelError):
    def __init__(self, i, j, w):
        self.edge = (i, j)
        self.weight = w
        super().__init__(f"edge ({i}, {j}) has negative weight {w}")


class AllZeroError(MemaccelError):
    """No positive eigenvalue, as for a graph without a positive-weight
    edge; spectral interval undefined."""


class OutOfIntervalError(MemaccelError):
    """Eigenvalue query outside the spectral interval."""


class IncompatibleBiasError(MemaccelError):
    """The bias has a component in the kernel of A; no fixed point exists."""


class DropOnNonLaplacianError(MemaccelError):
    """A drop schedule was supplied but the system matrix is not the
    Laplacian of the schedule's graph."""


class NoDecayError(MemaccelError):
    """Residual trace unusable for rate estimation (zeros or too short)."""


class AlphaZeroError(MemaccelError):
    """alpha = 0 makes every state stationary; rejected everywhere."""


class BetaTildeMinusOneError(MemaccelError):
    """Normalized leading coefficient hit -1; only possible for
    inconsistent input (would need infinite alpha)."""
