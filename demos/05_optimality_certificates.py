"""
Certifying that the closed-form tuning cannot be beaten
=======================================================

Any candidate gain vector maps to a normalized coefficient vector a;
the closed-form optimum maps to a = 0. For every nonzero a the witness
search produces an angle theta whose scaled test polynomial has a root
of modulus at least 1 -- which translates back to a mode of the original
iteration contracting no faster than nu*. The demo also exports the
complex-plane partition field that makes the argument visual.

Writes partition_field.json.
"""

import numpy as np

from memaccel import (
    Gains,
    SpectralInterval,
    claim6_witness,
    gains_to_claim_coeffs,
    large_radius_phase_check,
    partition_field,
    tune_theorem3,
)

iv = SpectralInterval(0.0122, 0.9878)
t = tune_theorem3(iv)

# The optimum itself maps to the zero vector and sits on the boundary:
# the witness root has modulus exactly 1.
c_opt = gains_to_claim_coeffs(t.gains, iv)
w = claim6_witness(c_opt)
print(f"optimal tuning -> a = {tuple(round(v, 12) for v in c_opt.a)}")
print(f"  boundary witness: modulus {abs(w.root):.9f} at theta = {w.theta:.4f}")

# Perturb the gains and the witness certifies they are no better.
rng = np.random.default_rng(0)
print("\nperturbed candidates:")
for _ in range(5):
    g = Gains(M=2, alpha=t.gains.alpha * float(rng.uniform(0.7, 1.3)),
              betas=(t.gains.betas[0] + float(rng.uniform(-0.3, 0.3)),))
    c = gains_to_claim_coeffs(g, iv)
    w = claim6_witness(c)
    print(f"  alpha={g.alpha:7.4f} beta1={g.betas[0]:7.4f} -> "
          f"witness theta={w.theta:.4f}, root modulus={abs(w.root):.6f}")

# No witness can hide at large radius: the two polynomial factors stay
# out of phase far from the origin.
c = gains_to_claim_coeffs(
    Gains(M=3, alpha=t.gains.alpha * 0.9, betas=(t.gains.betas[0] + 0.1, 0.05)), iv
)
ok, _ = large_radius_phase_check(c)
print(f"\nlarge-radius phase check: {'passed' if ok else 'FAILED'}")

field = partition_field(c, theta=w.theta, resolution=128)
with open("partition_field.json", "w") as fh:
    fh.write(field.to_json() + "\n")
frac = (field.type_mask < 0).mean()
print(f"wrote partition_field.json ({frac:.0%} of the window is type 2, "
      "where the perturbation dominates)")
