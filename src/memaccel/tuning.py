"""Scalar layer: spectral sets, gains and the closed-form optimal tunings.

Everything here is a square root away from the answer, so this module
imports only ``math`` and :mod:`memaccel.errors`; the CLI's ``tune`` and
its argument errors run on it alone. :class:`Record`, the base of every
record in the package, lives here for the same reason.
"""

from __future__ import annotations

import math
import operator

from .errors import AlphaZeroError, MemaccelError


def _is_index(v) -> bool:
    """v is an integer, a numpy one included, and not a bool: what
    operator.index takes, less True and False."""
    try:
        operator.index(v)
    except TypeError:
        return False
    return not isinstance(v, bool)


def _check_index(name: str, v, least: int):
    """ValueError unless v is an integer (_is_index) >= least: a float
    would be truncated or fail deep in list or numpy code, True read as
    1, and a count below its floor would check nothing."""
    if not (_is_index(v) and v >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def _real(name: str, v) -> float:
    """float(v) for a real number v, a numpy one included, and inf for
    an integer too large for a float; a bool, a string, None or any
    other value raises ValueError naming name. Floats, numpy's float64
    among them, and plain ints skip the numbers import."""
    if not isinstance(v, float) and type(v) is not int:
        import numbers

        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{name} must be real, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        return math.inf


class Record:
    """Immutable value object, the base of every record in the package.

    A subclass declares its fields as class annotations, in order, with
    class-level defaults for the optional ones, and may check and
    normalise them in ``__post_init__`` (through ``object.__setattr__``).
    The base reads the annotations once per class and gives every record
    one shared ``__init__`` (positional or keyword arguments), equality
    and hash by field, a ``Name(field=value, ...)`` repr, and assignment
    and deletion that raise AttributeError; to change a field, build a
    new record.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, "
                            f"got {len(args)} positional")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            values[name] = value
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if not hasattr(cls, name):
                        raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                    values[name] = getattr(cls, name)
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class SpectralInterval(Record):
    """Closed interval [lo, hi] of admissible nonzero eigenvalues."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", _real("lo", self.lo))
        object.__setattr__(self, "hi", _real("hi", self.hi))
        if not (0 < self.lo <= self.hi < math.inf):
            raise ValueError(f"need 0 < lo <= hi < inf, got [{self.lo}, {self.hi}]")

    def contains(self, lam: float) -> bool:
        return self.lo <= lam <= self.hi


class SpectralSet(Record):
    """Union of closed intervals and isolated points in (0, inf).

    Canonical form: intervals sorted and merged, degenerate intervals
    demoted to points, points inside intervals dropped.
    """

    intervals: tuple[SpectralInterval, ...] = ()
    points: tuple[float, ...] = ()

    def __post_init__(self):
        ivs = sorted(self.intervals, key=lambda iv: (iv.lo, iv.hi))
        merged: list[list[float]] = []
        pts = [_real("points", p) for p in self.points]
        for iv in ivs:
            if iv.lo == iv.hi:
                pts.append(iv.lo)
                continue
            if merged and iv.lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], iv.hi)
            else:
                merged.append([iv.lo, iv.hi])
        for p in pts:
            if not 0 < p < math.inf:
                raise ValueError(f"spectral point {p} not strictly positive and finite")
        keep = tuple(
            sorted(p for p in set(pts) if not any(lo <= p <= hi for lo, hi in merged))
        )
        object.__setattr__(
            self, "intervals", tuple(SpectralInterval(lo, hi) for lo, hi in merged)
        )
        object.__setattr__(self, "points", keep)

    @property
    def empty(self) -> bool:
        return not self.intervals and not self.points

    def hull(self) -> SpectralInterval:
        """Smallest interval containing the whole set."""
        if self.empty:
            raise ValueError("empty spectral set has no hull")
        los = [iv.lo for iv in self.intervals] + list(self.points)
        his = [iv.hi for iv in self.intervals] + list(self.points)
        return SpectralInterval(min(los), max(his))

    @classmethod
    def from_interval(cls, iv: SpectralInterval) -> "SpectralSet":
        return cls(intervals=(iv,))


class Gains(Record):
    """Free parameters of the accelerated iteration.

    M is the memory order: M=1 is the memoryless scheme, M-1 memory slots
    otherwise. ``betas`` holds beta_1 .. beta_{M-1}. Each gain is a
    finite real number, stored as a float: a bool, a string, None or any
    other value raises ValueError.
    """

    M: int
    alpha: float
    betas: tuple[float, ...] = ()

    def __post_init__(self):
        _check_index("memory order M", self.M, 1)
        if len(self.betas) != self.M - 1:
            raise ValueError(
                f"need {self.M - 1} beta gains for M={self.M}, got {len(self.betas)}"
            )
        object.__setattr__(self, "alpha", _real("alpha", self.alpha))
        object.__setattr__(self, "betas", tuple(_real("betas", b) for b in self.betas))
        if not all(math.isfinite(v) for v in (self.alpha, *self.betas)):
            raise ValueError(f"gains must be finite: alpha={self.alpha}, betas={self.betas}")
        if self.alpha == 0:
            raise AlphaZeroError("alpha = 0 makes every state stationary")


class TuningResult(Record):
    """Closed-form single-memory tuning for a spectral interval."""

    gains: Gains
    mu: float
    nu_star: float
    alpha_star: float
    beta1_star: float
    degenerate: bool = False


def check_guarantee_args(s: SpectralSet | SpectralInterval, grid: int | None = None,
                         refine_tol: float | None = None) -> SpectralSet:
    """The set ``accel.guarantee`` evaluates, once its arguments pass: s
    is not empty, grid is an integer >= 2 and refine_tol is finite and
    > 0. None stands for guarantee's own default, which passes."""
    if isinstance(s, SpectralInterval):
        s = SpectralSet.from_interval(s)
    if s.empty:
        raise ValueError("empty spectral set")
    if grid is not None:
        _check_index("grid", grid, 2)
    if refine_tol is not None and not 0 < refine_tol < math.inf:
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")
    return s


def tune_memoryless(iv: SpectralInterval) -> tuple[float, float]:
    """Optimal memoryless gain: alpha balancing the interval endpoints,
    with worst contraction factor mu; :func:`tune_theorem3` at M = 1."""
    t = tune_theorem3(iv, M=1)
    return t.alpha_star, t.mu


def tune_theorem3(iv: SpectralInterval, M: int = 2) -> TuningResult:
    """Optimal single-memory tuning for the interval at an integer M >= 1;
    memory slots beyond the first get zero gain, and M = 1, without one,
    gives the memoryless optimum nu* = mu. At lo == hi the formulas give
    the deadbeat limit alpha = 1 / lo, flagged. MemaccelError if lo + hi
    or alpha overflows."""
    _check_index("memory order M", M, 1)
    mu = (iv.hi - iv.lo) / (iv.hi + iv.lo)
    nu_star, beta1 = mu, 0.0
    if M > 1:
        # Stable form of 1/mu - sqrt(1/mu^2 - 1); the direct expression
        # cancels catastrophically for small mu. 0.0 - nu^2 is +0.0 at mu = 0.
        nu_star = mu / (1.0 + math.sqrt(1.0 - mu**2))
        beta1 = 0.0 - nu_star**2
    alpha = 2.0 * (1.0 - beta1) / (iv.hi + iv.lo)
    # Where lo + hi overflows, mu would read 0 and the tuning would claim
    # a deadbeat rate the interval cannot have.
    if not (math.isfinite(iv.hi + iv.lo) and math.isfinite(alpha)):
        raise MemaccelError(f"lo + hi or alpha overflows for [{iv.lo}, {iv.hi}]")
    gains = Gains(M=M, alpha=alpha, betas=((beta1,) + (0.0,) * (M - 2))[:M - 1])
    return TuningResult(gains, mu, nu_star, alpha, beta1, degenerate=mu == 0.0)
