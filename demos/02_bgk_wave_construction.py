"""Constructing a small travelling wave near a Maxwellian.

The homogeneous Maxwellian cannot support a wave on its own (the origin
of the reduced potential equation is not a center), so a narrow even
feature is planted at +-v0 in velocity; its strength gamma and scale
delta tune the curvature of the reduced equation until periodic orbits of
the prescribed spatial period exist.  The orbit's potential beta(x1)
closes the distribution through the particle energy invariant.
"""

import numpy as np

from vplab.bgk import build_modified, build_wave, make_h, periodic_orbit, select_case
from vplab.container import wave_to_csv
from vplab.profiles import VelocityGrid, make_builtin

maxwellian = make_builtin("maxwellian", VelocityGrid(2, 8.0, 256))
T1 = 2 * np.pi

sel = select_case(maxwellian, T1)
print(f"case selection: case {sel.case}, PV integral {sel.d_integral:+.3f} "
      f"vs (2pi/T1)^2 = {sel.omega1_sq:.3f}")

# --- the reduced ODE at a resolvable feature size -----------------------------

mp = build_modified(maxwellian, gamma=0.1, delta=1.0, case=1, v0=3.0)
h = make_h(mp)
print(f"h'(0) = {h.hprime0():+.4f}  (negative: the origin is a center)")

for r in (1e-2, 1e-3, 1e-4):
    orb = periodic_orbit(h, r)
    print(f"  amplitude r = {r:.0e}: period T = {orb.period:.6f}, "
          f"(2pi/T)^2 -> {-h.hprime0():.4f} as r -> 0")

# --- full build against a distance budget -------------------------------------

for eps in (0.5, 0.1):
    wave, rep = build_wave(maxwellian, T1, eps=eps)
    print(f"\ndistance budget eps = {eps}:")
    print(f"  gamma = {wave.provenance['gamma']:.3e}, "
          f"delta = {wave.provenance['delta']:.4f}, r = {wave.amplitude:.3e}")
    print(f"  certified distance bound = {rep.total:.4f}")
    print(f"  field amplitude max|E| = {np.max(np.abs(wave.efield)):.3e}, "
          f"residual of the reduced field equation = {wave.poisson_residual():.1e}")

wave_to_csv("demo_wave.csv", wave)
print("\nwrote demo_wave.csv with columns (x1, beta, E)")
