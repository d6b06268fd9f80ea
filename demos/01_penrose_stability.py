"""Stability margins of homogeneous velocity profiles on a periodic box.

Walks through the Penrose check: project the profile along each lattice
direction, locate the critical points of the marginal, evaluate the
principal-value integral there, and compare against |k|^2 for every
lattice vector up to the closed-form truncation bound B.  A Maxwellian
is stable on every box; a well-separated double bump loses stability once
the box is long enough to admit a small wave vector.
"""

import numpy as np

from vplab.penrose import DualLattice, penrose_check, pv_integral
from vplab.profiles import VelocityGrid, make_builtin, project

# --- the textbook stable case ------------------------------------------------

maxwellian = make_builtin("maxwellian", VelocityGrid(2, 8.0, 256))
report = penrose_check(maxwellian, DualLattice((2 * np.pi, 2 * np.pi)),
                       s=1.6, b=0.3)
print("Maxwellian on the (2pi, 2pi) box")
print(f"  stable: {report.stable}   truncation bound B = {report.bound:.3f}")
for entry in report.entries[:4]:
    print(f"  k = {entry.k}: margin = {entry.margin:.6f} (= |k|^2 + 1)")

# --- a two-stream profile turns unstable on a long box -----------------------

double_bump = make_builtin("double_bump", VelocityGrid(2, 12.0, 512), v0=3.0)
fp = project(double_bump, (1.0, 0.0))
pv_at_dip = pv_integral(fp, 0.0)
print(f"\nDouble bump (v0 = 3): PV at the central dip = {pv_at_dip:.4f}")

for T in (6.0, 12.0, 24.0):
    rep = penrose_check(double_bump, DualLattice((T, T)), s=1.6, b=0.3)
    if rep.entries:
        detail = f"worst margin = {min(e.margin for e in rep.entries):+.4f}"
    else:
        detail = f"no lattice vector lies at or below B = {rep.bound:.3f}"
    print(f"  box T = {T:5.1f}: stable = {rep.stable}, {detail}")

print("\nThe instability threshold sits where (2 pi / T)^2 crosses the PV value:")
print(f"  T_crit = {2 * np.pi / np.sqrt(pv_at_dip):.2f}")
