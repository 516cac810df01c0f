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
    """Malformed text input; carries the text and where it was read, the
    line_no of a file's line or the command-line option."""

    def __init__(self, text, *, line_no=None, option=None):
        self.text = text
        self.line_no = line_no
        self.option = option
        where = option if option is not None else f"line {line_no}"
        super().__init__(f"{where}: cannot parse {text!r}")


# The two readers of a number written as text, for every number the CLI
# and an edge-list file read. Python's int() and float() would also read
# "1_0" as 10, " 2 " as 2 and "\u0663" as 3.

def integer(text: str) -> int:
    """An integer written -?[0-9]+ in ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def decimal(text: str) -> float:
    """A float written as float() reads it, inf and nan included, but
    in ASCII, without underscores and without blanks around it."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"{text!r} is not a decimal number")
    return float(text)


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
    """Normalized leading coefficient hit -1: alpha*/alpha is below 1e-12
    in magnitude, as for finite gains whose alpha is 1e13 times alpha*."""
