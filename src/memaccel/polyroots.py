"""Real-coefficient polynomials and a robust complex root solver.

Coefficients are stored low-to-high: ``coeffs[i]`` multiplies ``z**i``.
:func:`companion_eigvals` is the package's one companion-matrix solve,
batched over a stack of polynomials. :func:`affine_max_roots` and
:func:`affine_crossing` serve the guarantee and the certificate, whose
polynomials q(z) + slope*s*z^k move affinely in one coefficient.
:func:`roots` starts from its eigenvalues and
applies Aberth-Ehrlich simultaneous correction to any root that misses
the residual contract ``|p(root)| <= ROOT_RESIDUAL_TOL * (1 + max|c_i|)``
(widened by :func:`residual_tolerance` outside the unit disk). A
non-finite residual never meets the contract.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeZeroError, NoConvergenceError
from .tuning import Record, _real

ROOT_RESIDUAL_TOL = 1e-9
MAX_POLISH_ITERS = 500


class RealPolynomial(Record):
    """Normalized real polynomial: trailing zeros trimmed, degree = index
    of the last nonzero coefficient. The zero polynomial normalizes to
    degree 0 with coeffs (0.0,)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = [_real("coeffs", v) for v in self.coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        if not c:
            c = [0.0]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class ComplexRootSet(Record):
    """Root multiset with per-root residuals |p(root)| as quality metric.

    Roots are sorted by (real, imag) so output order is deterministic."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]

    def __len__(self):
        return len(self.roots)


def trim_noise(coeffs) -> np.ndarray:
    """coeffs with every coefficient at or below rounding of the largest,
    eps * max|c_i|, set to 0. Such a coefficient is noise; at the top it
    adds a root near infinity that no solver reaches, and dividing by it
    overflows."""
    c = np.asarray(coeffs, dtype=float)
    return np.where(np.abs(c) > np.finfo(float).eps * np.abs(c).max(initial=0.0), c, 0.0)


def _eval_and_derivative(coeffs, z):
    # Horner for p and p' simultaneously; coeffs low-to-high.
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def companion_eigvals(coeffs) -> np.ndarray:
    """(K, d) eigenvalues of the companion matrices of a (K, d+1) stack of
    low-to-high coefficient rows, each with a nonzero leading coefficient,
    in one batched eigenvalue call."""
    coeffs = np.asarray(coeffs, dtype=float)
    k, d = coeffs.shape[0], coeffs.shape[1] - 1
    comp = np.zeros((k, d, d))
    idx = np.arange(d - 1)
    comp[:, idx + 1, idx] = 1.0
    comp[:, :, d - 1] = -coeffs[:, :d] / coeffs[:, d:]
    return np.linalg.eigvals(comp)


def affine_max_roots(q, k: int, slope: float, s):
    """(moduli, roots): the largest-modulus root of q(z) + slope*s*z^k at
    each s, in one batched companion-eigenvalue call. q is low-to-high
    with a nonzero leading coefficient above z^k."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    coeffs = np.tile(np.asarray(q, dtype=float), (s.size, 1))
    coeffs[:, k] += slope * s
    eigs = companion_eigvals(coeffs)
    top = eigs[np.arange(s.size), np.abs(eigs).argmax(axis=1)]
    return np.abs(top), top


def affine_crossing(q, k: int, slope: float, lo: float, hi: float, r: float):
    """Whether some s in [lo, hi] gives q(z) + slope*s*z^k, of degree k+1,
    a root above r > 0: (s, root, n), the evaluated s with the largest
    root, that root and the count of s evaluated; yes iff abs(root) > r.
    A root meets |z| = r only where s = -q(rw) / (slope (rw)^k) is real,
    |w| = 1: at w = +-1 and the roots of P_r(w) = sum_j q_j r^(j-k)
    (w^(K+j-k) - w^(K-j+k)), K = max(k, 1), projected onto the circle.
    Between neighbouring such s, max|root| - r keeps its sign, so ends,
    candidates and midpoints decide (edge theorem; Bartlett, Hollot &
    Huang 1988). P_r vanishes only for q = z^(k-1) times a quadratic with
    a stretch of roots on |z| = r, which w = +-1 bound."""
    q = np.asarray(q, dtype=float)
    K = max(k, 1)
    j = np.arange(q.size)
    c = q * r ** (j - k)
    p = np.bincount(np.concatenate((K + j - k, K - j + k)), np.concatenate((c, -c)),
                    minlength=2 * K + 1)
    w = np.array([1.0 + 0j, -1.0])
    # Noise at the low end adds only a root near 0, off the circle too.
    p = trim_noise(p)
    nz = np.flatnonzero(p)
    if nz.size and nz[-1] > nz[0]:
        w = np.concatenate((w, companion_eigvals(p[None, nz[0]:nz[-1] + 1])[0]))
    w = w[w != 0]  # a root that rounds to 0 has no angle to project
    z = r * w / np.abs(w)
    qz = np.zeros_like(z)  # q(z) by Horner's rule, as np.polyval evaluates it
    for qj in q[::-1]:
        qz = qz * z + qj
    cand = -(qz / z**k).real / slope
    cand = cand[(cand > lo) & (cand < hi)]
    s = np.sort(np.concatenate(([lo], cand, [hi])))
    s = np.concatenate((s, 0.5 * s[:-1] + 0.5 * s[1:]))
    moduli, top = affine_max_roots(q, k, slope, s)
    i = int(moduli.argmax())
    return float(s[i]), complex(top[i]), s.size


def residual_tolerance(coeffs, z):
    """Attainable residual bound at z: the base contract
    ROOT_RESIDUAL_TOL * (1 + max|c_i|), widened by the evaluation scale
    sum |c_i| |z|^i for roots outside the unit disk, where float64
    evaluation noise alone exceeds the base bound."""
    coeffs = np.abs(np.asarray(coeffs, dtype=float))
    base = 1.0 + coeffs.max()
    scale = np.polyval(coeffs[::-1], np.abs(z))
    return ROOT_RESIDUAL_TOL * np.maximum(base, scale)


# An overflow surfaces as a contract miss or a non-finite root, both
# raised, so numpy's floating-point warnings would only repeat them.
@np.errstate(all="ignore")
def roots(p: RealPolynomial) -> ComplexRootSet:
    """All complex roots of p, with multiplicity.

    Raises DegreeZeroError for constant polynomials and NoConvergenceError
    if the monic form c / c[-1] is not finite (a leading coefficient
    below rounding of the others: see :func:`trim_noise`) or the residual
    contract cannot be met within the polish budget; a non-finite
    residual counts as a miss, and a root the polish drives to a
    non-finite value ends it at once.
    """
    if p.degree < 1:
        raise DegreeZeroError("constant polynomial has no roots")
    # Normalize to monic to condition the iteration.
    c = np.asarray(p.coeffs, dtype=float)
    monic = c / c[-1]
    if not np.isfinite(monic).all():
        raise NoConvergenceError(f"monic form of {p.coeffs} is not finite")

    # Companion-matrix eigenvalues as deterministic starting points.
    z = companion_eigvals(monic[None, :])[0].astype(complex)

    # Aberth-Ehrlich polish of any root violating the residual contract,
    # measured against the original (unnormalized) coefficients. An
    # overflowing |p(z)| also overflows the tolerance, so test finiteness.
    cc = c.astype(complex)

    def check_contract(z):
        res = np.abs(_eval_and_derivative(cc, z)[0])
        return res, ~(np.isfinite(res) & (res <= residual_tolerance(c, z)))

    for i in range(MAX_POLISH_ITERS + 1):
        res, bad = check_contract(z)
        if not np.any(bad):
            break
        if i == MAX_POLISH_ITERS:
            raise NoConvergenceError(
                f"residual contract unreachable in {MAX_POLISH_ITERS} iterations"
            )
        pv_m, dp_m = _eval_and_derivative(monic.astype(complex), z)
        newton = np.where(dp_m != 0, pv_m / np.where(dp_m != 0, dp_m, 1.0), 0.0)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        # Clustered roots give near-zero pairwise gaps; those corrections
        # are unreliable, so guard the denominator.
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * s
        step = np.where(np.abs(denom) > 1e-12, newton / np.where(denom != 0, denom, 1.0), newton)
        z = np.where(bad, z - step, z)
        # A non-finite root poisons every later Aberth step.
        if not np.isfinite(z).all():
            raise NoConvergenceError("polish produced a non-finite root")

    # The last check measured the final roots: sort its residuals with them.
    order = np.lexsort((z.imag, z.real))
    z, res = z[order], res[order]
    return ComplexRootSet(tuple(complex(v) for v in z), tuple(float(r) for r in res))

