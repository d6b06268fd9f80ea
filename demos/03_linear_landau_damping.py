"""Per-mode linear field evolution and the Landau damping rate.

The field mode is evaluated from its explicit representation integral
(Gauss-Legendre panels on a real window, exact contour-rotated rays).  The
late-time envelope is fitted with a matrix pencil and compared against
the root of the analytically continued dispersion relation.
"""

import numpy as np

from vplab.container import write_csv
from vplab.linear import Datum1D, FieldHistory, efield_mode, find_damping_root
from vplab.profiles import VelocityGrid, make_builtin, project

fp = project(make_builtin("maxwellian", VelocityGrid(1, 8.0, 512)), (1.0,))
datum = Datum1D(fp.alphas, fp.values.copy())

print("mode |k| = 0.5 on the unit Maxwellian")
series = efield_mode(0.5, fp, datum, t_end=60.0, kvec=(0.5,))
print(f"  t = 0 field vs direct Poisson solve: rel. err {series.poisson_relerr:.1e}")
print(f"  window self-check: {series.truncation_error:.1e}")

rate, freq = series.envelope_fit(5.0, 40.0)
z, orate, ofreq = find_damping_root(fp, 0.5)
print(f"  fitted   damping rate {rate:.6f}, frequency {freq:.6f}")
print(f"  root oracle (z = {z:.6f}): rate {orate:.6f}, frequency {ofreq:.6f}")

write_csv("demo_mode_k05.csv", ["t", "re_E", "im_E", "abs_E"],
          [series.t, series.values.real, series.values.imag,
           np.abs(series.values)])
print("wrote demo_mode_k05.csv")

# --- weighted space-time decay norm across wavenumbers ------------------------

hist = FieldHistory()
for k in (1.0, 2.0):
    hist.add(efield_mode(k, fp, datum, t_end=40.0, kvec=(k,)))
value = hist.decay_norm(s_x=0.0, s_v=1.6)
print(f"\nweighted decay norm ||t^1.6 E|| over two modes: {value:.4e}")
