"""Norm profiles of the spin and finite-Heisenberg commutators.

Every fourth dimension (n = 2, 6, 10, ...) pins the norm at exactly 1/2;
the other residues climb toward 1/2 from below, each mod-4 class along its
own curve.  Both families show the same pattern.
"""

import numpy as np

from speclab import heisenberg_commutator, su2_commutator

print(f"{'n':>4} {'n%4':>4} {'spin norm':>12} {'heisenberg':>12}")
for n in range(2, 41):
    s = su2_commutator(n).norm
    h = heisenberg_commutator(n).norm
    tag = "  <- exact 1/2" if n % 4 == 2 else ""
    print(f"{n:>4} {n % 4:>4} {s:>12.8f} {h:>12.8f}{tag}")

ladder = [su2_commutator(n).norm for n in range(2, 103, 4)]
print("\nmax |norm - 1/2| on the n = 2 mod 4 ladder up to 102:",
      f"{max(abs(v - 0.5) for v in ladder):.2e}")

# the distance to 1/2 on the 0 mod 4 class shrinks slowly, and its local
# slope against log n drifts toward 0 (-0.295, -0.253, -0.219 over
# n = 8..512), so no one power of n describes it
ns = np.array([8, 32, 128, 512])
gaps = np.array([0.5 - su2_commutator(int(n)).norm for n in ns])
slopes = np.diff(np.log(gaps)) / np.diff(np.log(ns))
print("local slopes of log(1/2 - norm) vs log(n) on n = 0 mod 4:",
      np.round(slopes, 3))
