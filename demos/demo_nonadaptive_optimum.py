"""The exact nonadaptive optimum: candidate offsets, ties, and oracle cross-checks.

Run:  python demos/demo_nonadaptive_optimum.py
"""

import numpy as np

from brcomp import (brute_force_nonadaptive, candidate_points, delta_hom_fixed_t,
                    delta_opt_nonadaptive_hom, dp_optcomp_hom)

eps, k, eps_g = 1.0, 2, 0.0

print("=== loss at a fixed offset, swept over t ===")
for t in np.linspace(0.1, 0.9, 9):
    print(f"  t={t:4.2f}: delta = {delta_hom_fixed_t(eps, k, eps_g, float(t)):.6f}")

print("\n=== the finitely many candidate offsets ===")
for c in candidate_points(eps, k, eps_g):
    print(f"  ell={c.ell}: t* = {c.t:.6f} -> {delta_hom_fixed_t(eps, k, eps_g, c.t):.9f}")

res = delta_opt_nonadaptive_hom(eps, k, eps_g)
print(f"\noptimum delta = {res.delta:.9f} at t = {res.t:.6f}")
print(f"tied maximizers: {[round(t, 6) for t in res.maximizers]} (an exact tie)")

print("\n=== brute-force grid oracle agrees ===")
bf = brute_force_nonadaptive([eps] * k, eps_g, grid_points=300)
print(f"grid + refinement: {bf.delta:.9f} at t = {np.round(bf.t, 5)}")
print(f"difference from closed form: {abs(bf.delta - res.delta):.2e}")

print("\n=== sandwiched between the plain-DP optima ===")
for g in (-1.0, 0.0, 0.7, 1.5):
    half = dp_optcomp_hom(eps / 2, k, g)
    br = delta_opt_nonadaptive_hom(eps, k, g).delta
    full = dp_optcomp_hom(eps, k, g)
    print(f"  eps_g={g:+.1f}:  {half:.6f} (eps/2-DP)  <=  {br:.6f} (BR)  "
          f"<=  {full:.6f} (eps-DP)")

print("\n=== scaling: the optimum costs O(k^1.5) ===")
import time
for n in (100, 1000, 10000):
    t0 = time.time()
    v = delta_opt_nonadaptive_hom(0.01, n, 0.1 * n * 0.01).delta
    print(f"  k={n:5d}: delta = {v:.6e}   ({1000 * (time.time() - t0):6.1f} ms)")
