"""Numerical apparatus behind the optimality proof.

Maps arbitrary gains to the normalized coefficient vector whose zero
vector characterizes the optimal tuning, builds the scaled test
polynomial, detects the special cases with immediate unstable roots,
decides exactly whether some angle gives a certificate root of modulus
>= 1, and emits the complex-plane fields (magnitude partition, phase
match) for inspection.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from . import polyroots
from .errors import BetaTildeMinusOneError, MemaccelError
from .polyroots import RealPolynomial
from .tuning import Gains, Record, SpectralInterval, _beta_sum, _check_index, _real, tune_theorem3

WITNESS_TOL = 1e-8
UNIT_CIRCLE_TOL = 1e-9
ANGLE_TOL = 0.02
TIE_TOL = 1e-12


class ClaimCoeffs(Record):
    """Normalized coefficients a_0 .. a_{M-1} of the perturbation
    polynomial, together with the reference modulus nu in (0, 1).
    The all-zero vector corresponds to the optimal tuning."""

    M: int
    nu: float
    a: tuple[float, ...]

    def __post_init__(self):
        _check_index("memory order M", self.M, 2)
        object.__setattr__(self, "nu", _real("nu", self.nu))
        if not (0 < self.nu < 1):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if len(self.a) != self.M:
            raise ValueError(f"need {self.M} coefficients, got {len(self.a)}")
        a = tuple(_real("a", v) for v in self.a)
        for k, v in enumerate(a):
            if not math.isfinite(v):
                raise MemaccelError(f"coefficient a_{k} = {v} is not finite")
        if a[-1] == -1.0:
            raise ValueError("leading coefficient a_{M-1} = -1 is inadmissible")
        object.__setattr__(self, "a", a)


class Prop8Result(Record):
    """Special-case detection: either the perturbation polynomial has a
    root on the unit circle (witness angle constructible directly), or
    its leading coefficient lies below -1 (every angle is a witness)."""

    kind: str  # "unit_circle_root" | "leading_below_minus_one" | "none"
    root: complex | None = None


class WitnessReport(Record):
    """Angle theta with the largest test-polynomial root evaluated, that
    root and the angles scanned; found when |root| >= 1 - WITNESS_TOL."""

    theta: float
    root: complex
    scanned: int

    @property
    def found(self) -> bool:
        return abs(self.root) >= 1.0 - WITNESS_TOL


class PartitionField(Record):
    """Complex-plane sampling of sign(|P1| - |P2|) and of phase match,
    with root overlays; P1 is the unperturbed factor, P2 the (negated)
    perturbation."""

    re: np.ndarray            # (nx,)
    im: np.ndarray            # (ny,)
    type_mask: np.ndarray     # (ny, nx) ints: +1 type 1, -1 type 2, 0 tie
    phase_match: np.ndarray   # (ny, nx) bools
    roots_p1: tuple[complex, ...]
    roots_p2: tuple[complex, ...]
    theta: float

    def to_json(self) -> str:
        payload = {
            "theta": self.theta,
            "re_range": [float(self.re[0]), float(self.re[-1]), int(self.re.size)],
            "im_range": [float(self.im[0]), float(self.im[-1]), int(self.im.size)],
            "type_mask": self.type_mask.astype(int).ravel().tolist(),
            "phase_match": self.phase_match.astype(int).ravel().tolist(),
            "roots_p1": [[z.real, z.imag] for z in self.roots_p1],
            "roots_p2": [[z.real, z.imag] for z in self.roots_p2],
        }
        return json.dumps(payload)


def gains_to_claim_coeffs(g: Gains, iv: SpectralInterval) -> ClaimCoeffs:
    """Normalized coefficient vector of the gains relative to the optimal
    tuning of the interval; the optimal tuning itself maps to zero. M < 2
    raises ValueError; a single-point interval or overflowing beta sums, MemaccelError."""
    _check_index("memory order M", g.M, 2)
    t = tune_theorem3(iv, M=g.M)
    if t.degenerate:
        raise MemaccelError(f"interval [{iv.lo}, {iv.hi}] is a single point, where nu* = 0")
    ratio = t.gains.alpha / g.alpha
    M = g.M
    bt = np.zeros(M)
    # Cumulative sums of beta_{M-1}, beta_{M-2}, ... from the top index,
    # added in sequence.
    tops = list(itertools.accumulate(g.betas[::-1]))
    bt[M - 2] = ratio * _beta_sum(g, *tops) - t.gains.betas[0]
    bt[:M - 2] = ratio * np.array(tops[:M - 2])
    bt[M - 1] = ratio - 1.0
    if abs(bt[M - 1] + 1.0) < 1e-12:
        raise BetaTildeMinusOneError(f"normalized leading coefficient hit -1: alpha*/alpha = "
                                     f"{ratio} is below the 1e-12 bound for alpha={g.alpha}, "
                                     f"alpha*={t.gains.alpha}")
    nu = t.nu_star
    a = tuple(bt[m] * nu ** (m - M + 1) for m in range(M))
    return ClaimCoeffs(M=M, nu=nu, a=a)


def _p_tilde_q(c: ClaimCoeffs) -> np.ndarray:
    """Low-to-high coefficients of the test polynomial
    P1 - P2 = (y^2 - 2 cos(theta) y + 1) y^{M-2} + (y - 1/nu) sum_k a_k y^k
    at cos(theta) = 0; the y^{M-1} coefficient moves by -2 cos(theta)."""
    q = -_p2_coeffs(c)
    q[c.M] += 1.0
    q[c.M - 2] += 1.0
    return q


def _check_theta(theta: float):
    """ValueError unless the certificate angle theta lies in [0, pi]."""
    if not (0.0 <= theta <= np.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")


def p_tilde(c: ClaimCoeffs, theta: float) -> RealPolynomial:
    """The degree-M test polynomial at angle theta in [0, pi]."""
    _check_theta(theta)
    q = _p_tilde_q(c)
    q[c.M - 1] -= 2.0 * np.cos(theta)
    return RealPolynomial(tuple(q))


def prop8_check(c: ClaimCoeffs) -> Prop8Result:
    """Detect the two short-circuit cases: a root of the perturbation
    polynomial on the unit circle, or leading coefficient below -1.
    The zero vector (optimal tuning) is 'none' by convention."""
    if c.a[-1] < -1.0:
        return Prop8Result(kind="leading_below_minus_one")
    pert = _perturbation(c)
    if pert.degree == 0:
        return Prop8Result(kind="none")
    for r in polyroots.roots(pert).roots:
        if abs(abs(r) - 1.0) <= UNIT_CIRCLE_TOL:
            return Prop8Result(kind="unit_circle_root", root=r)
    return Prop8Result(kind="none")


def claim6_witness(c: ClaimCoeffs) -> WitnessReport:
    """Find theta in [0, pi] whose test polynomial has a root of modulus
    >= 1 - WITNESS_TOL; found=False means no such theta exists.

    One exact crossing test (:func:`polyroots.affine_crossing`) over
    cos(theta) in [-1, 1], where only the y^{M-1} coefficient moves,
    decides the question and returns the angle with the largest root it
    evaluated. A unit-circle root of the perturbation (Prop. 8) needs no
    shortcut: the test polynomial has that root at its angle, so the
    crossing test finds a witness there or at a larger root.
    ``scanned`` counts the angles whose roots were computed."""
    cos_t, root, scanned = polyroots.affine_crossing(_p_tilde_q(c), c.M - 1, -2.0, -1.0, 1.0,
                                                     1.0 - WITNESS_TOL)
    return WitnessReport(theta=float(np.arccos(cos_t)), root=root, scanned=scanned)


def p1_eval(c: ClaimCoeffs, y, theta):
    """(y - e^{i theta})(y - e^{-i theta}) y^{M-2}; theta may be an array."""
    y = np.asarray(y, dtype=complex)
    return (y * y - 2.0 * np.cos(theta) * y + 1.0) * y ** (c.M - 2)


def p2_eval(c: ClaimCoeffs, y):
    """-(y - 1/nu) * perturbation polynomial."""
    y = np.asarray(y, dtype=complex)
    return -(y - 1.0 / c.nu) * np.polyval(c.a[::-1], y)


def p1_roots(c: ClaimCoeffs, theta: float) -> tuple[complex, ...]:
    return (np.exp(1j * theta), np.exp(-1j * theta)) + (0j,) * (c.M - 2)


def p2_roots(c: ClaimCoeffs) -> tuple[complex, ...]:
    """1/nu and the roots of the perturbation prop8_check inspects."""
    pert = _perturbation(c)
    return (complex(1.0 / c.nu),) + (polyroots.roots(pert).roots if pert.degree else ())


def _perturbation(c: ClaimCoeffs) -> RealPolynomial:
    """sum_k a_k y^k with the coefficients below rounding of the largest
    dropped (:func:`polyroots.trim_noise`)."""
    return RealPolynomial(tuple(polyroots.trim_noise(c.a)))


def partition_field(
    c: ClaimCoeffs,
    theta: float,
    re_range: tuple[float, float] = (-2.0, 2.0),
    im_range: tuple[float, float] = (-2.0, 2.0),
    resolution: int = 256,
) -> PartitionField:
    """Sample sign(|P1| - |P2|) and the phase-match locus on a window of
    the complex plane, with root overlays. Tie cells (difference below
    TIE_TOL) are marked 0. A non-finite theta or window bound, a theta
    outside [0, pi] and a resolution not an integer >= 32 raise ValueError."""
    _check_index("resolution", resolution, 32)
    if not np.isfinite([theta, *re_range, *im_range]).all():
        raise ValueError(f"theta and window bounds must be finite, got theta={theta}, "
                         f"re_range={re_range}, im_range={im_range}")
    _check_theta(theta)
    re = np.linspace(re_range[0], re_range[1], resolution)
    im = np.linspace(im_range[0], im_range[1], resolution)
    y = re[None, :] + 1j * im[:, None]
    v1 = p1_eval(c, y, theta)
    v2 = p2_eval(c, y)
    diff = np.abs(v1) - np.abs(v2)
    mask = np.where(np.abs(diff) <= TIE_TOL, 0, np.sign(diff)).astype(int)
    dphi = np.angle(v1) - np.angle(v2)
    wrapped = np.abs((dphi + np.pi) % (2.0 * np.pi) - np.pi)
    return PartitionField(
        re=re, im=im, type_mask=mask, phase_match=wrapped <= ANGLE_TOL,
        roots_p1=p1_roots(c, theta), roots_p2=p2_roots(c), theta=theta,
    )


def large_radius_phase_check(c: ClaimCoeffs) -> tuple[bool, tuple[float, float] | None]:
    """Verify that Real(P1/P2) stays negative on the circle |y| = R at
    512 phases for each of 512 angles theta from 0 to pi, both included,
    so no phase match exists at large radius; R = 10 (1 + b) for b the
    larger of the Cauchy root bounds of P1 and P2. Requires a positive
    leading coefficient. Returns (ok, violating (theta, phase) sample or None)."""
    if c.a[-1] <= 0:
        raise ValueError("check requires a_{M-1} > 0")
    bound1 = 3.0  # Cauchy bound of P1: coefficients within [-2, 2]
    p2c = _p2_coeffs(c)
    bound2 = 1.0 + max(abs(v) for v in p2c[:-1]) / abs(p2c[-1])
    R = 10.0 * (1.0 + max(bound1, bound2))
    phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    y = R * np.exp(1j * phis)
    thetas = np.linspace(0.0, np.pi, 512)
    bad = np.argwhere((p1_eval(c, y, thetas[:, None]) / p2_eval(c, y)).real >= 0)
    if bad.size:
        return False, (float(thetas[bad[0, 0]]), float(phis[bad[0, 1]]))
    return True, None


def _p2_coeffs(c: ClaimCoeffs) -> np.ndarray:
    """Low-to-high coefficients of P2 = -(y - 1/nu) sum_k a_k y^k."""
    return np.convolve(c.a, [1.0 / c.nu, -1.0])
