import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memaccel import certify
from memaccel.accel import Gains, tune_theorem3
from memaccel.certify import (
    WITNESS_TOL,
    ClaimCoeffs,
    WitnessReport,
    claim6_witness,
    gains_to_claim_coeffs,
    large_radius_phase_check,
    p1_eval,
    p1_roots,
    p2_eval,
    p2_roots,
    p_tilde,
    partition_field,
    prop8_check,
)
from memaccel.errors import BetaTildeMinusOneError, MemaccelError
from memaccel.polyroots import RealPolynomial, residual_tolerance, trim_noise
from memaccel.polyroots import roots as proots
from memaccel.spectral import SpectralInterval

REF_IV = SpectralInterval(0.0122, 0.9878)


def random_claim(rng, M=None, scale=0.5):
    M = M or int(rng.integers(2, 7))
    nu = float(rng.uniform(0.2, 0.95))
    a = rng.uniform(-scale, scale, M)
    if a[-1] == -1.0:
        a[-1] = 0.0
    return ClaimCoeffs(M=M, nu=nu, a=tuple(a))


@st.composite
def unit_circle_perturbations(draw):
    """ClaimCoeffs whose perturbation sum_k a_k y^k has an exact root on
    the unit circle: y^2 - 2 cos(phi) y + 1, y - 1 or y + 1 times a random
    cofactor."""
    factor = draw(st.sampled_from(["pair", "minus", "plus"]))
    if factor == "pair":
        f = [1.0, -2.0 * np.cos(draw(st.floats(0.0, np.pi))), 1.0]
    else:
        f = [-1.0 if factor == "minus" else 1.0, 1.0]
    cofactor = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4))
    a = np.convolve(f, cofactor)
    assume(a[-1] != -1.0)
    return ClaimCoeffs(M=len(a), nu=draw(st.floats(0.05, 0.95)), a=tuple(a))


class TestClaimCoeffs:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClaimCoeffs(M=1, nu=0.5, a=(0.0,))
        with pytest.raises(ValueError):
            ClaimCoeffs(M=2, nu=1.0, a=(0.0, 0.0))
        with pytest.raises(ValueError):
            ClaimCoeffs(M=2, nu=0.5, a=(0.0,))
        with pytest.raises(ValueError):
            ClaimCoeffs(M=2, nu=0.5, a=(0.3, -1.0))

    # prop8_check's noise trimming read the NaN as zero and returned
    # "none"; claim6_witness on inf warned and raised numpy's LinAlgError.
    @pytest.mark.parametrize("call, a, name", [
        (prop8_check, (float("nan"), 1.0), "a_0 = nan"),
        (claim6_witness, (1.0, float("inf")), "a_1 = inf"),
    ])
    def test_non_finite_coefficient_rejected(self, call, a, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MemaccelError, match=name):
                call(ClaimCoeffs(M=2, nu=0.5, a=a))


class TestGainsToClaimCoeffs:
    def test_optimal_tuning_maps_to_zero(self):
        for M in (2, 3, 5):
            t = tune_theorem3(REF_IV, M=M)
            c = gains_to_claim_coeffs(t.gains, REF_IV)
            assert c.M == M
            assert c.nu == pytest.approx(t.nu_star, abs=1e-15)
            np.testing.assert_allclose(c.a, 0.0, atol=1e-14)

    def test_alpha_scaling_only_shifts_leading(self):
        t = tune_theorem3(REF_IV, M=2)
        g = Gains(M=2, alpha=t.gains.alpha * 2.0, betas=t.gains.betas)
        c = gains_to_claim_coeffs(g, REF_IV)
        # beta identical: a_0 reflects the rescaled cumulative sum
        assert c.a[-1] == pytest.approx(0.5 - 1.0, abs=1e-14)

    def test_scaling_identity_random(self):
        # char poly of gains equals the (scaled) reconstruction implied by
        # the normalized vector: check via root moduli of the test poly at
        # the modal angle versus direct root computation.
        rng = np.random.default_rng(8)
        from memaccel.accel import char_poly
        for _ in range(30):
            M = int(rng.integers(2, 6))
            t = tune_theorem3(REF_IV, M=M)
            alpha = t.gains.alpha * float(rng.uniform(0.5, 1.5))
            betas = tuple(np.array(t.gains.betas) + rng.uniform(-0.2, 0.2, M - 1))
            g = Gains(M=M, alpha=alpha, betas=betas)
            c = gains_to_claim_coeffs(g, REF_IV)
            # reconstruct lambda from any theta via the angle bijection and
            # confirm y = z/nu maps roots of one polynomial to the other
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            lam = (1.0 - t.gains.betas[0] - 2.0 * t.nu_star * np.cos(theta)) / t.gains.alpha
            scale = g.alpha / t.gains.alpha
            pz = char_poly(g, lam)
            pt = p_tilde(c, theta)
            for z in proots(pz).roots:
                val = np.polyval(pt.coeffs[::-1], z / c.nu)
                # p_tilde(z/nu) = char_poly(z) / (scale * nu^{M-1}) up to sign
                assert abs(val) <= 1e-7 * max(
                    1.0, abs(np.polyval(pz.coeffs[::-1], z)) / (abs(scale) * c.nu ** (M - 1))
                ) + 1e-7

    @staticmethod
    def _nested_sum_coeffs(g, iv):
        """gains_to_claim_coeffs' a with each cumulative beta sum taken
        afresh by a nested loop, the reference for its running sums."""
        t = tune_theorem3(iv, M=g.M)
        ratio, M, betas = t.gains.alpha / g.alpha, g.M, g.betas
        bt = np.zeros(M)
        for k in range(M - 2):
            bt[k] = ratio * sum(betas[M - m - 2] for m in range(k + 1))
        bt[M - 2] = ratio * sum(betas) - t.gains.betas[0]
        bt[M - 1] = ratio - 1.0
        return tuple(bt[m] * t.nu_star ** (m - M + 1) for m in range(M))

    @pytest.mark.parametrize("M", range(2, 7))
    def test_cumsum_bit_identical_to_nested_sum(self, M):
        # Betas over nine decades, so that adding them in another order
        # rounds differently.
        rng = np.random.default_rng(M)
        for _ in range(100):
            iv = SpectralInterval(float(rng.uniform(1e-3, 0.5)), float(rng.uniform(0.6, 10.0)))
            t = tune_theorem3(iv, M=M)
            betas = (np.array(t.gains.betas)
                     + rng.choice([-1.0, 1.0], M - 1) * 10.0 ** rng.uniform(-9, 0, M - 1))
            g = Gains(M=M, alpha=t.gains.alpha * float(rng.uniform(0.5, 1.5)),
                      betas=tuple(betas.tolist()))
            assert gains_to_claim_coeffs(g, iv).a == self._nested_sum_coeffs(g, iv)

    def test_beta_tilde_minus_one_rejected(self):
        t = tune_theorem3(REF_IV, M=2)
        g = Gains(M=2, alpha=-t.gains.alpha, betas=t.gains.betas)
        # alpha*/alpha = -1 makes the leading normalized coefficient
        # alpha*/alpha - 1 = -2. It reads -1 once alpha*/alpha is below
        # 1e-12, which finite gains reach: alpha = 1e14 alpha* below.
        c = gains_to_claim_coeffs(g, REF_IV)
        assert c.a[-1] == pytest.approx(
            (-1.0 - 1.0) * t.nu_star ** (2 - 2), abs=1e-12
        )
        with pytest.raises(BetaTildeMinusOneError):
            gains_to_claim_coeffs(
                Gains(M=2, alpha=t.gains.alpha * 1e14, betas=t.gains.betas), REF_IV
            )

    def test_beta_tilde_minus_one_names_its_cause(self):
        # alpha* = 2.309 on [0.1, 1], so alpha = 1e13 is past the bound and
        # 1e12 is not; the message read "(inconsistent input)".
        iv = SpectralInterval(0.1, 1.0)
        alpha_star = tune_theorem3(iv).gains.alpha
        message = (f"normalized leading coefficient hit -1: alpha*/alpha = {alpha_star / 1e13} "
                   f"is below the 1e-12 bound for alpha={1e13}, alpha*={alpha_star}")
        with pytest.raises(BetaTildeMinusOneError, match=f"^{re.escape(message)}$"):
            gains_to_claim_coeffs(Gains(2, 1e13, (-0.5,)), iv)
        assert gains_to_claim_coeffs(Gains(2, 1e12, (-0.5,)), iv).a[-1] > -1.0

    @pytest.mark.parametrize("betas", [(1e308, 1e308), (-1e308, 1e308, 1e308)],
                             ids=["from-beta1", "from-top"])
    def test_overflowing_beta_sums_raise(self, betas):
        # The sum from beta_1 overflows in the first case, only the one from
        # beta_{M-1} down in the second; each leaked numpy's "overflow
        # encountered in accumulate".
        message = f"the sum of the betas overflows for betas={betas}"
        with pytest.raises(MemaccelError, match=f"^{re.escape(message)}$"):
            gains_to_claim_coeffs(Gains(len(betas) + 1, 1.0, betas), SpectralInterval(1.0, 10.0))


class TestDegenerateInterval:
    @pytest.mark.parametrize("M", [2, 3])
    def test_single_point_interval_raises(self, M):
        # nu* = 0 on [1, 1]; normalizing by nu ** (m - M + 1) divided by zero.
        g = Gains(M=M, alpha=0.9, betas=(-0.1,) + (0.0,) * (M - 2))
        with pytest.raises(MemaccelError, match="single point"):
            gains_to_claim_coeffs(g, SpectralInterval(1.0, 1.0))


class TestPTilde:
    def test_zero_vector_roots_on_unit_circle(self):
        c = ClaimCoeffs(M=4, nu=0.8, a=(0.0,) * 4)
        for theta in (0.3, 1.1, 2.5):
            p = p_tilde(c, theta)
            r = [z for z in proots(p).roots if abs(z) > 1e-9]
            assert len(r) == 2
            for z in r:
                assert abs(z) == pytest.approx(1.0, abs=1e-9)

    def test_theta_zero_double_root_at_one(self):
        c = ClaimCoeffs(M=3, nu=0.7, a=(0.0, 0.0, 0.0))
        p = p_tilde(c, 0.0)
        # (y - 1)^2 y^{M-2}
        np.testing.assert_allclose(p.coeffs, (0.0, 1.0, -2.0, 1.0), atol=1e-15)

    def test_matches_p1_minus_p2(self):
        rng = np.random.default_rng(4)
        c = random_claim(rng, M=4)
        theta = 0.9
        p = p_tilde(c, theta)
        for y in rng.standard_normal(5) + 1j * rng.standard_normal(5):
            expect = p1_eval(c, y, theta) - p2_eval(c, y)
            assert np.polyval(p.coeffs[::-1], y) == pytest.approx(expect, abs=1e-10)

    def test_theta_out_of_range(self):
        c = ClaimCoeffs(M=2, nu=0.5, a=(0.0, 0.0))
        with pytest.raises(ValueError):
            p_tilde(c, -0.1)
        with pytest.raises(ValueError):
            p_tilde(c, 3.5)


class TestProp8:
    def test_zero_vector_is_none(self):
        c = ClaimCoeffs(M=3, nu=0.5, a=(0.0, 0.0, 0.0))
        assert prop8_check(c).kind == "none"

    def test_unit_circle_root(self):
        # a(y) = y^2 - 1 has roots at +-1
        c = ClaimCoeffs(M=3, nu=0.5, a=(-1.0, 0.0, 1.0))
        res = prop8_check(c)
        assert res.kind == "unit_circle_root"
        assert abs(abs(res.root) - 1.0) <= 1e-9

    def test_leading_below_minus_one(self):
        c = ClaimCoeffs(M=2, nu=0.5, a=(0.0, -2.0))
        assert prop8_check(c).kind == "leading_below_minus_one"

    def test_generic_none(self):
        c = ClaimCoeffs(M=2, nu=0.5, a=(0.1, 0.2))
        assert prop8_check(c).kind == "none"


class TestWitness:
    @pytest.mark.parametrize("modulus, found", [
        (1.0 - WITNESS_TOL, True), (np.nextafter(1.0 - WITNESS_TOL, 0.0), False),
        (1.5, True), (0.5, False),
    ], ids=["at-tol", "below-tol", "outside", "inside"])
    def test_found_follows_root(self, modulus, found):
        # A stored flag could contradict the root, as found=True at |root| = 0.5.
        assert WitnessReport(theta=0.5, root=complex(0.0, modulus), scanned=3).found is found

    def test_zero_vector_boundary_modulus(self):
        c = ClaimCoeffs(M=2, nu=0.8, a=(0.0, 0.0))
        w = claim6_witness(c)
        assert w.found
        assert abs(w.root) == pytest.approx(1.0, abs=1e-8)

    def test_unit_circle_root_witnessed(self):
        # The perturbation y^2 - 1 has roots +-1 on the unit circle; the
        # crossing test finds the larger root 1.618 at theta = 0.
        c = ClaimCoeffs(M=3, nu=0.5, a=(-1.0, 0.0, 1.0))
        w = claim6_witness(c)
        assert w.found
        assert abs(w.root) >= 1.0 - 1e-8

    @settings(max_examples=300, deadline=None)
    @given(unit_circle_perturbations())
    def test_unit_circle_root_always_witnessed(self, c):
        # Prop. 8: at the angle of a unit-circle root of the perturbation
        # that root is a root of the test polynomial, of modulus 1.
        w = claim6_witness(c)
        assert w.found
        assert abs(w.root) >= 1.0 - WITNESS_TOL

    def test_leading_below_minus_one_case(self):
        c = ClaimCoeffs(M=2, nu=0.5, a=(0.0, -2.0))
        w = claim6_witness(c)
        assert w.found
        assert abs(w.root) >= 1.0 - 1e-8

    def test_random_nonzero_vectors_all_witnessed(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = random_claim(rng)
            if not any(c.a):
                continue
            w = claim6_witness(c)
            assert w.found, f"no witness for {c}"
            assert abs(w.root) >= 1.0 - 1e-8
            assert 0.0 <= w.theta <= np.pi
            # the reported root really is a root of the test polynomial
            p = p_tilde(c, w.theta)
            assert abs(np.polyval(p.coeffs[::-1], w.root)) <= residual_tolerance(
                p.coeffs, abs(w.root)
            ) * 1e3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 6), st.floats(0.05, 0.99), st.data())
    def test_every_admissible_vector_has_a_witness(self, M, nu, data):
        a = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=M, max_size=M)
                      .filter(lambda v: v[-1] != -1.0))
        c = ClaimCoeffs(M=M, nu=nu, a=tuple(a))
        w = claim6_witness(c)
        assert w.found
        assert abs(w.root) >= 1.0 - WITNESS_TOL
        assert 0.0 <= w.theta <= np.pi
        p = p_tilde(c, w.theta)
        assert abs(np.polyval(p.coeffs[::-1], w.root)) <= residual_tolerance(
            p.coeffs, abs(w.root)) * 1e3


class TestPartitionField:
    def test_shapes_and_roots(self):
        c = ClaimCoeffs(M=3, nu=0.6, a=(0.2, -0.1, 0.3))
        f = partition_field(c, theta=1.0, resolution=64)
        assert f.type_mask.shape == (64, 64)
        assert f.phase_match.shape == (64, 64)
        assert len(f.roots_p1) == 3
        assert f.roots_p2[0] == pytest.approx(1.0 / 0.6)

    def test_cells_near_p1_root_are_type2(self):
        # close to a root of P1, |P1| < |P2| (P2 nonzero there)
        c = ClaimCoeffs(M=2, nu=0.6, a=(0.3, 0.4))
        theta = 1.2
        z = np.exp(1j * theta)
        v1 = abs(p1_eval(c, z + 1e-6, theta))
        v2 = abs(p2_eval(c, z + 1e-6))
        assert v1 < v2

    def test_resolution_floor(self):
        c = ClaimCoeffs(M=2, nu=0.6, a=(0.0, 0.0))
        with pytest.raises(ValueError):
            partition_field(c, theta=0.5, resolution=8)

    @pytest.mark.parametrize("theta, re_range, im_range", [
        (np.nan, (-2.0, 2.0), (-2.0, 2.0)),
        (np.inf, (-2.0, 2.0), (-2.0, 2.0)),
        (0.5, (-2.0, np.inf), (-2.0, 2.0)),
        (0.5, (-2.0, 2.0), (np.nan, 2.0)),
    ])
    def test_non_finite_input_rejected(self, theta, re_range, im_range):
        c = ClaimCoeffs(M=2, nu=0.6, a=(0.1, 0.2))
        with pytest.raises(ValueError, match="finite"):
            partition_field(c, theta, re_range=re_range, im_range=im_range, resolution=32)

    @pytest.mark.parametrize("theta", [5.0, -1.0, np.nextafter(np.pi, 4.0)])
    def test_theta_outside_zero_pi_rejected_as_by_p_tilde(self, theta):
        # partition_field sampled a field at any finite theta.
        c = ClaimCoeffs(M=2, nu=0.6, a=(0.1, 0.2))
        message = f"theta must lie in [0, pi], got {theta}"
        for call in (lambda: p_tilde(c, theta),
                     lambda: partition_field(c, theta, resolution=32)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("M, a", [(2, (1.0, 2.2e-309)), (4, (1.0, 0.0, 1.0, 9.4e-291))])
    def test_top_coefficient_below_rounding(self, M, a):
        # A leading a_k below rounding of the others is noise: P2's roots
        # are those of the trimmed perturbation prop8_check inspects.
        c = ClaimCoeffs(M=M, nu=0.5, a=a)
        f = partition_field(c, theta=0.5, resolution=32)
        pert = RealPolynomial(tuple(trim_noise(a)))
        assert f.roots_p2 == p2_roots(c) == (2.0,) + (proots(pert).roots if pert.degree else ())
        special = prop8_check(c)
        assert special.root is None or special.root in f.roots_p2

    def test_json_payload(self):
        import json
        c = ClaimCoeffs(M=2, nu=0.6, a=(0.1, 0.2))
        f = partition_field(c, theta=0.7, resolution=32)
        d = json.loads(f.to_json())
        assert d["re_range"][2] == 32
        assert len(d["type_mask"]) == 32 * 32


class TestLargeRadiusPhase:
    def test_positive_leading_passes(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            M = int(rng.integers(2, 6))
            a = rng.uniform(-0.5, 0.5, M)
            a[-1] = float(rng.uniform(0.1, 1.0))
            c = ClaimCoeffs(M=M, nu=float(rng.uniform(0.3, 0.9)), a=tuple(a))
            ok, bad = large_radius_phase_check(c)
            assert ok and bad is None

    def test_nonpositive_leading_rejected(self):
        c = ClaimCoeffs(M=2, nu=0.5, a=(0.3, -0.2))
        with pytest.raises(ValueError):
            large_radius_phase_check(c)

    def test_first_violation_in_theta_then_phase_order(self, monkeypatch):
        # Flip P1's sign from the 300th angle on at phases 40 and 7: the
        # check passes without the flip, so those are its only violations,
        # and it reports the first angle's first phase.
        c = ClaimCoeffs(M=3, nu=0.5, a=(0.1, -0.2, 0.5))
        assert large_radius_phase_check(c) == (True, None)
        thetas = np.linspace(0.0, np.pi, 512)
        phis = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

        def flipped(c, y, theta, p1=certify.p1_eval):
            v = p1(c, y, theta)
            return np.where((np.asarray(theta) >= thetas[300]) & np.isin(np.arange(512), (40, 7)),
                            -v, v)

        monkeypatch.setattr(certify, "p1_eval", flipped)
        assert large_radius_phase_check(c) == (False, (thetas[300], phis[7]))
