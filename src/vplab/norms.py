"""Weighted and fractional Sobolev norms on velocity and phase-space grids.

Conventions
-----------
* ``weighted_hsb_norm`` realises ||(1+|v|^2)^b (1-Lap)^(s/2) f||_L2 with the
  fractional operator applied as the Fourier multiplier (1+|xi|^2)^(s/2) on
  the periodic extension of the truncated grid (``profiles.fourier_multiplier``).
  The symbol is real and even, so a complex field's smoothed square is the
  sum of the squares of its smoothed real and imaginary parts.  The
  boundary-decay precondition keeps the periodisation error below 1e-10.
* ``fractional_wsp_norm`` is ``closeness.wsp_pow_separable`` on one fully
  periodic factor: axis-split Gagliardo seminorms (every offset, no wrap)
  for non-integer orders and spectral-derivative L^p norms at integer
  orders; pieces combine in the l^p sense, so for p = 2 and integer s the
  value matches the Fourier norm up to quadrature error.

Each norm checks the parameters it reads before any work, through
``errors.require``, and names the one it refuses.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import fft as sfft

from .closeness import Axis1D, wsp_pow_separable
from .errors import BoundaryDecayError, ValidationError, require
from .profiles import fourier_multiplier


def check_boundary_decay(values, grid):
    scale = max(1.0, float(np.max(np.abs(values))))
    res = grid.boundary_residual(values)
    if res > 1e-12 * scale:
        raise BoundaryDecayError(res, 1e-12 * scale)


def weighted_hsb_norm(values, grid, s, b):
    """Velocity-weighted fractional Sobolev norm of a (possibly complex) field."""
    require("finite", (("s", s), ("b", b)))
    require("nonnegative", (("order s", s),))
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValidationError("field shape does not match grid")
    check_boundary_decay(values, grid)
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    sq = sum(fourier_multiplier(part, (grid.h,) * grid.dim, range(grid.dim),
                                lambda *xi: (1.0 + sum(x ** 2 for x in xi)) ** (s / 2.0)) ** 2
             for part in parts)
    w2 = (1.0 + functools.reduce(np.add.outer, [grid.axis() ** 2] * grid.dim)) ** (2.0 * b)
    return math.sqrt(float(np.sum(w2 * sq)) * grid.cell)


def mixed_norm(h, x_periods, vgrid, s_x, s_v, b):
    """Fourier-sum phase-space norm: per-mode weighted norms with |k|^(2 s_x) weights.

    ``h`` is sampled on the tensor grid (x-axes..., v-axes...); the number of
    leading x-axes equals len(x_periods).  The x-FFT gives the modes of
    ``mixed_norm_modes``.
    """
    h = np.asarray(h)
    nx_axes = len(x_periods)
    if h.ndim != nx_axes + vgrid.dim:
        raise ValidationError("field rank does not match x_periods + velocity grid")
    nxs = h.shape[:nx_axes]
    modes = sfft.fftn(h, axes=tuple(range(nx_axes))) / np.prod(nxs)
    return mixed_norm_modes({
        tuple(2.0 * np.pi * (j if j <= n // 2 else j - n) / T
              for j, n, T in zip(idx, nxs, x_periods)): modes[idx]
        for idx in np.ndindex(*nxs)}, vgrid, s_x, s_v, b)


def mixed_norm_modes(modes, vgrid, s_x, s_v, b):
    """Same norm from an explicit {k-tuple: h_k(v)} mode dictionary.

    The weight needs b > (d - 1)/4 in velocity dimension d.
    """
    require("finite", (("s_x", s_x), ("s_v", s_v), ("b", b)))
    if min(s_x, s_v) < 0:  # one message names both orders
        raise ValidationError(f"orders must be nonnegative, got s_x = {s_x}, s_v = {s_v}")
    if not b > (vgrid.dim - 1) / 4.0:
        raise ValidationError(f"mixed norm needs b > (d - 1)/4 = {(vgrid.dim - 1) / 4.0:g} "
                              f"in d = {vgrid.dim}, got b = {b}")
    total = 0.0
    for k, hk in modes.items():
        k2 = float(sum(ki ** 2 for ki in k))
        weight = 1.0 if k2 == 0.0 else k2 ** s_x
        total += weight * weighted_hsb_norm(np.asarray(hk), vgrid, s_v, b) ** 2
    return math.sqrt(total)


def fractional_wsp_norm(values, grid, s, p):
    """W^{s,p} norm for 0 <= s < 2: one ``wsp_pow_separable`` call on a periodic factor."""
    require("finite", (("s", s), ("p", p)))
    if not p > 1.0:
        raise ValidationError(f"fractional norm needs p > 1, got p = {p}")
    return wsp_pow_separable([Axis1D(values, grid.h, periodic=True)], s, p) ** (1.0 / p)


def check_norm_equivalence(values, grid, s, b):
    """Ratios between the three realisations of the weighted H^{s,b} norm.

    The equivalence constants are not pinned by theory here; reports flag
    the acceptance brackets as engineering surrogates.
    """
    if not 0.0 <= s <= 2.0:
        raise ValidationError("equivalence check covers 0 <= s <= 2")
    base = weighted_hsb_norm(values, grid, s, b)
    mesh = grid.mesh()
    w_iso = (1.0 + sum(m ** 2 for m in mesh)) ** b
    w_split = 1.0 + sum(np.abs(m) ** (2 * b) for m in mesh)
    smooth_first = weighted_hsb_norm(w_iso * values, grid, s, 0.0)
    smooth_split = weighted_hsb_norm(w_split * values, grid, s, 0.0)
    return {
        "definition": base,
        "weight_then_smooth_iso": smooth_first,
        "weight_then_smooth_split": smooth_split,
        "ratio_iso": smooth_first / base if base else 1.0,
        "ratio_split": smooth_split / base if base else 1.0,
        "bracket_is_engineering_surrogate": True,
    }


def hardy_quotient(u, alphas, v0):
    """Integral of |u(v)/(v - v0)| with the singular cell replaced by |u'(v0)|.

    Requires |u(v0)| < 1e-10; otherwise the integral genuinely diverges.
    """
    u = np.asarray(u, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    h = alphas[1] - alphas[0]
    j = int(np.argmin(np.abs(alphas - v0)))
    u_at = np.interp(v0, alphas, u)
    if abs(u_at) >= 1e-10:
        raise ValidationError(
            f"u(v0) = {u_at:.3e} is not ~0; Hardy integral diverges"
        )
    integrand = np.empty_like(u)
    mask = np.ones(len(u), dtype=bool)
    mask[j] = False
    integrand[mask] = np.abs(u[mask] / (alphas[mask] - v0))
    jl, jr = max(j - 1, 0), min(j + 1, len(u) - 1)
    integrand[j] = abs((u[jr] - u[jl]) / (alphas[jr] - alphas[jl]))
    return float(np.sum(integrand) * h)

