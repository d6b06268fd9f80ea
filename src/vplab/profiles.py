"""Homogeneous velocity-space profiles in d = 1, 2, 3.

Profiles are nonnegative unit-mass distributions f(v) on a uniform tensor
grid, each carrying its analytic closure, a ``GaussianMixture`` of
``GaussianTerm``s (weight, d means, d widths); a projection's closure is
the same type in d = 1.  The closure keeps projections, the singular
v1-integral and the even continuation in the energy variable exact:
``GaussianMixture.cauchy`` gives the Cauchy transform of the v1 marginal's
derivative, the dispersion function F and its PV, in closed form through
the Faddeeva function, and ``even_part`` is the one mixture, one term per
even pair in v1, that the BGK route reads.  ``project_field`` projects sampled fields by the
Fourier slice theorem, on one path for every d >= 2.  Sampled
1D data (the per-mode datum) have one interpolant, the sinc interpolant,
and one Cauchy transform, ``linear._sinc_cauchy``, on the real axis and
below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sfft
from scipy.special import wofz

from .errors import QuadratureConvergenceError, ValidationError, require

SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# velocity grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityGrid:
    """Uniform tensor-product velocity grid on [-vmax, vmax)^dim.

    The grid is FFT-friendly: points v_i = -vmax + i*h with h = 2*vmax/n,
    n a power of two.  Plain sums times h**dim are spectrally accurate for
    smooth integrands decaying below roundoff at the boundary.
    """

    dim: int
    vmax: float
    n: int

    def __post_init__(self):
        require("an integer", (("dim", self.dim),))
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim}")
        require("finite and positive", (("vmax", self.vmax),))
        require("a power of two >= 4", (("n", self.n),))

    @property
    def h(self):
        return 2.0 * self.vmax / self.n

    @property
    def cell(self):
        return self.h ** self.dim

    def axis(self):
        return -self.vmax + self.h * np.arange(self.n)

    def axes(self):
        return [self.axis() for _ in range(self.dim)]

    def mesh(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    @property
    def shape(self):
        return (self.n,) * self.dim

    def integrate(self, values):
        return float(np.sum(values) * self.cell)

    def coarsened(self):
        """Every-second-point subgrid, used for refinement checks."""
        return VelocityGrid(self.dim, self.vmax, self.n // 2)

    def boundary_residual(self, values):
        """Largest |value| on the outermost grid shell."""
        return max(float(np.max(np.abs(np.take(values, (0, -1), axis=ax))))
                   for ax in range(self.dim))


# ---------------------------------------------------------------------------
# analytic closures: Gaussian mixtures
# ---------------------------------------------------------------------------

def _normal(x, mu, s):
    """The 1D normal density N(mu, s^2) at x, real or complex."""
    return np.exp(-((x - mu) ** 2) / (2 * s ** 2)) / (s * SQRT2PI)


@dataclass(frozen=True)
class GaussianTerm:
    """weight times the axis-aligned Gaussian with d ``mean``s and d ``widths`` (tuples).

    ``even_val``/``even_dval`` read its even part in v1, the pair
    [N(v0, w1) + N(-v0, w1)]/2 with v0 = |mean[0]|, w1 = widths[0], which
    the term shares with its mirror.
    """

    weight: float
    mean: tuple
    widths: tuple

    def even_val(self, y):
        """The pair A(y) at y = v1^2, the root i sqrt(-y) continuing it to y < 0 (real there)."""
        y = np.asarray(y, dtype=float)
        v0, w2 = abs(self.mean[0]), 2 * self.widths[0] ** 2
        c = 1.0 / (2.0 * self.widths[0] * SQRT2PI)

        def pair(s):
            return c * (np.exp(-((s - v0) ** 2) / w2) + np.exp(-((s + v0) ** 2) / w2))

        out = pair(np.sqrt(np.abs(y)))
        neg = y < 0.0
        if np.any(neg):
            out[neg] = pair(1j * np.sqrt(-y[neg])).real
        return out

    def even_dval(self, y):
        """A'(y) = d/dy even_val for real or complex y; real y stays real.

        Where |y| >= w1^2/4 (for real y: y >= w1^2/4) it is the branch form
        pair'(s)/(2 s), s = sqrt(y): two Gaussians and no cosh, so it cannot
        overflow however large |y| is, and being even in s it is the same
        function on either root.  Elsewhere, where the branch form would
        divide by s near 0, it is the entire form

            e^{-(y + v0^2)/(2 w1^2)} [v0^2 sinh(z)/(2 z w1^4) - cosh(z)/(2 w1^2)]
            / (w1 sqrt(2 pi)),   z = sqrt(y) v0 / w1^2,

        in complex arithmetic; there |Re z| <= v0/(2 w1), so cosh stays tame.
        """
        v0, w1 = abs(self.mean[0]), self.widths[0]
        cplx = np.iscomplexobj(y)
        y = np.asarray(y, dtype=complex if cplx else float)
        out = np.empty_like(y)
        branch = (np.abs(y) if cplx else y) >= 0.25 * w1 ** 2
        if np.any(branch):
            s = np.sqrt(y[branch])
            c = 1.0 / (2.0 * w1 * SQRT2PI)
            w2 = 2.0 * w1 ** 2
            out[branch] = c * (
                np.exp(-((s - v0) ** 2) / w2) * (-(s - v0) / (w2 * s))
                + np.exp(-((s + v0) ** 2) / w2) * (-(s + v0) / (w2 * s))
            )
        rest = ~branch
        if np.any(rest):
            yr = y[rest].astype(complex)
            z = np.sqrt(yr) * (v0 / w1 ** 2)
            # sinh(z)/(2z) with the removable point at z = 0 by its series
            ratio = 0.5 + z ** 2 / 12.0
            big = np.abs(z) >= 1e-8
            ratio[big] = np.sinh(z[big]) / (2.0 * z[big])
            c = 1.0 / (w1 * SQRT2PI)
            val = c * np.exp(-(yr + v0 ** 2) / (2 * w1 ** 2)) * (
                -np.cosh(z) / (2 * w1 ** 2) + (v0 ** 2 / w1 ** 4) * ratio)
            out[rest] = val if cplx else val.real
        return out

    def transverse_val(self, *axes):
        """Product of the transverse Gaussians on the given axes (1.0 in d = 1)."""
        normals = [_normal(np.asarray(ax), m, w)
                   for m, w, ax in zip(self.mean[1:], self.widths[1:], axes)]
        return functools.reduce(np.multiply.outer, normals, 1.0)


def even_pair(weight, v0, widths):
    """Mass ``weight`` on the pair at +-v0 in v1, centred transversely: two
    mirror terms, or one term when v0 = 0."""
    signs = (1.0,) if v0 == 0.0 else (1.0, -1.0)
    return [GaussianTerm(weight / len(signs), (s * v0,) + (0.0,) * (len(widths) - 1),
                         tuple(widths)) for s in signs]


class GaussianMixture:
    """Sum of GaussianTerm components in d dimensions; the analytic closure of a
    Profile.  ``val``, ``dval`` and ``cauchy`` act on the v1 marginal (in
    d = 1, a projection, the whole mixture)."""

    def __init__(self, dim, terms):
        self.dim = int(dim)
        self.terms = tuple(terms)
        for t in self.terms:
            if len(t.mean) != self.dim or len(t.widths) != self.dim:
                raise ValidationError("term mean and width counts must equal dim")

    def values_on(self, grid):
        v1, *trans = grid.axes()
        return sum(t.weight * np.multiply.outer(_normal(v1, t.mean[0], t.widths[0]),
                                                t.transverse_val(*trans)) for t in self.terms)

    def project_unit(self, e):
        """Exact marginal along unit direction e, a 1D mixture: term means mean.e."""
        e = np.asarray(e, dtype=float)
        return GaussianMixture(1, [
            GaussianTerm(t.weight, (sum(m * ei for m, ei in zip(t.mean, e)),),
                         (math.sqrt(sum((ei * w) ** 2 for ei, w in zip(e, t.widths))),))
            for t in self.terms])

    def _v1(self):
        return [(t.weight, t.mean[0], t.widths[0]) for t in self.terms]

    def val(self, a):
        a = np.asarray(a)
        return sum(w * _normal(a, mu, s) for w, mu, s in self._v1())

    def dval(self, a):
        a = np.asarray(a)
        return sum(w * _normal(a, mu, s) * (-(a - mu) / s ** 2) for w, mu, s in self._v1())

    def cauchy(self, z):
        """int dval(alpha)/(alpha - z) dalpha = -sum (w/s^2)(1 + zeta Z(zeta)).

        zeta = (z - mu)/(sqrt(2) s) and Z is the plasma dispersion function
        (Fried & Conte, 1961).  On and above the real axis Z = i sqrt(pi)
        wofz(zeta), so a real z gives the boundary value PV + i pi dval(z);
        below it Z = -i sqrt(pi) wofz(-zeta), the Cauchy integral itself.
        Both are i sqrt(pi) wofz of the argument folded into the upper
        half-plane, so wofz never sees the sheet where it overflows.
        Returns complex, shaped like z.
        """
        z = np.asarray(z, dtype=complex)
        sheet = np.where(z.imag < 0.0, -1.0, 1.0)
        out = np.zeros(z.shape, dtype=complex)
        for w, mu, s in self._v1():
            zeta = sheet * (z - mu) / (math.sqrt(2.0) * s)
            out -= (w / s ** 2) * (1.0 + 1j * math.sqrt(math.pi) * zeta * wofz(zeta))
        return out

    def pv_d_integral(self):
        """Exact integral of d_v1 f / v1 over all of velocity space: cauchy(0)'s PV."""
        return float(self.cauchy(0.0).real)

    def even_part(self):
        """The mixture the BGK route reads: terms sharing |mean[0]|, the other
        means and the widths share one even part, so they merge into one term,
        mean[0] = |mean[0]|, weights summed; one term per even pair."""
        merged = {}
        for t in self.terms:
            key = replace(t, weight=0.0, mean=(abs(t.mean[0]),) + t.mean[1:])
            merged[key] = merged.get(key, 0.0) + t.weight
        return GaussianMixture(self.dim, [replace(k, weight=w) for k, w in merged.items()])

    def unpaired_means(self):
        """Means whose mirror v1 -> -v1 carries another weight: none iff even in v1."""
        weights = {}
        for t in self.terms:
            weights[t.mean, t.widths] = weights.get((t.mean, t.widths), 0.0) + t.weight
        return [m for (m, ws), w in weights.items()
                if w != weights.get(((-m[0],) + m[1:], ws), 0.0)]

    def scaled_v1(self, delta):
        """The family (1/delta) f(v1/delta, w): same weights, stretched v1."""
        return GaussianMixture(self.dim, [
            replace(t, mean=(delta * t.mean[0],) + t.mean[1:],
                    widths=(delta * t.widths[0],) + t.widths[1:])
            for t in self.terms])

    def reweighted(self, factor):
        return GaussianMixture(self.dim,
                               [replace(t, weight=factor * t.weight) for t in self.terms])

    def plus(self, other):
        return GaussianMixture(self.dim, self.terms + tuple(other.terms))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass
class Profile:
    """Velocity distribution on a grid with its analytic closure."""

    grid: VelocityGrid
    values: np.ndarray
    closure: GaussianMixture
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_closure(cls, grid, closure, meta=None):
        vals = closure.values_on(grid)
        return cls(grid, vals, closure, dict(meta or {}))

    @property
    def mass_grid(self):
        return self.grid.integrate(self.values)


# the parameters each builtin reads, and each kind of product factor
BUILTIN_PARAMS = {"maxwellian": (), "double_bump": ("v0", "width"), "product": ("factors",)}
FACTOR_PARAMS = {"gaussian": ("width",), "double_bump": ("v0", "width")}


def make_builtin(name, grid, **params):
    """Construct a built-in unit-mass profile with analytic closure.

    Supported names:
      maxwellian            -- (2*pi)^(-d/2) exp(-|v|^2/2)
      double_bump           -- even pair at +-v0 (width optional) times a
                               centred transverse Maxwellian; requires v0 > 0
      product               -- f1(v1) x f2(v2) [x f3(v3)] from factor specs
                               ("gaussian", {"width": w}) or
                               ("double_bump", {"v0": v0, "width": w})
    A parameter that the builtin, or a product's factor, does not read
    (``BUILTIN_PARAMS``, ``FACTOR_PARAMS``) is refused by name.
    """
    if name not in BUILTIN_PARAMS:
        raise ValidationError(f"unknown builtin {name!r}")
    unread = sorted(set(params) - set(BUILTIN_PARAMS[name])) + [
        f"{kind}.{key}" for kind, p in params.get("factors", ()) if kind in FACTOR_PARAMS
        for key in sorted(set(p) - set(FACTOR_PARAMS[kind]))]
    if unread:
        raise ValidationError(f"parameters not read by builtin {name!r}: {unread}")
    # every builtin is a product: a Gaussian or a double bump in v1, Gaussians across
    trans = [("gaussian", {})] * (grid.dim - 1)
    factors = {"maxwellian": [("gaussian", {})] + trans,
               "double_bump": [("double_bump", params)] + trans}.get(name) or params["factors"]
    if len(factors) != grid.dim:
        raise ValidationError("product needs one factor per axis")
    kind0, p0 = factors[0]
    if kind0 not in FACTOR_PARAMS:
        raise ValidationError(f"unknown factor kind {kind0!r}")
    if any(kind != "gaussian" for kind, _ in factors[1:]):
        raise ValidationError("transverse factors must be gaussian")
    v0 = float(p0.get("v0", 0.0)) if kind0 == "double_bump" else 0.0
    require("finite", (("double_bump v0", v0),))
    if kind0 == "double_bump" and v0 <= 0:
        raise ValidationError("double_bump requires v0 > 0")
    widths = tuple(float(p.get("width", 1.0)) for _, p in factors)
    require("finite and positive", (("profile width", w) for w in widths))

    clo = GaussianMixture(grid.dim, even_pair(1.0, v0, widths))
    prof = Profile.from_closure(grid, clo, meta={"provenance": "raw", "name": name,
                                                 "params": dict(params)})
    tail = grid.boundary_residual(prof.values)
    if not tail < 1e-14:
        raise ValidationError(f"builtin tail {tail:.2e} not below 1e-14 at vmax; enlarge the grid")
    prof.meta["truncated_mass"] = max(0.0, 1.0 - prof.mass_grid)
    return prof


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

@dataclass
class ProjectedProfile:
    """Marginal f_e(alpha) of a profile along a unit direction, with its closure."""

    alphas: np.ndarray
    values: np.ndarray
    closure1d: GaussianMixture

    @property
    def h(self):
        return float(self.alphas[1] - self.alphas[0])


def fourier_multiplier(values, h, axes, symbol):
    """Apply the Fourier multiplier ``symbol`` to real periodic samples along ``axes``.

    ``symbol`` receives one angular wavenumber array per axis in ``axes``
    (spacing ``h[i]``): 2 pi fftfreq, and 2 pi rfftfreq on the last axis,
    each shaped to broadcast against the rfftn half spectrum, so a symbol
    may also vary along an axis that is not transformed.  Returns the real
    irfftn of rfftn(values) times the symbol.
    """
    axes = tuple(axes)
    ks = []
    for i, (ax, hi) in enumerate(zip(axes, h)):
        freq = sfft.rfftfreq if i == len(axes) - 1 else sfft.fftfreq
        k = 2.0 * np.pi * freq(values.shape[ax], d=hi)
        shape = [1] * values.ndim
        shape[ax] = len(k)
        ks.append(k.reshape(shape))
    return sfft.irfftn(sfft.rfftn(values, axes=axes) * symbol(*ks),
                       s=[values.shape[ax] for ax in axes], axes=axes)


def _unit_direction(e, dim):
    """``e`` as a float vector, refused unless it has ``dim`` finite entries and unit norm."""
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != dim:
        raise ValidationError("direction dimension mismatch")
    if not np.all(np.isfinite(e)):
        raise ValidationError(f"direction must be finite, got {tuple(e.tolist())}")
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise ValidationError("direction must be a unit vector (within 1e-12)")
    return e


def project(p, e):
    """Marginal of the profile along unit vector e.

    The values are the exact projected mixture of the closure, sampled on
    the profile's axis; the mixture itself rides along as ``closure1d``.
    """
    e = _unit_direction(e, p.grid.dim)
    alphas = p.grid.axis()
    closure1d = p.closure.project_unit(e)
    vals = closure1d.val(alphas)
    pp = ProjectedProfile(alphas, vals, closure1d)
    m, parent = float(np.sum(vals) * pp.h), p.mass_grid
    if abs(m - parent) > 1e-8 * max(1.0, abs(parent)):
        raise QuadratureConvergenceError(
            f"projected mass {m:.10f} != parent mass {parent:.10f}"
        )
    return pp


def project_field(values, grid, e):
    """Marginal of a real sampled field along a unit direction, on the grid's axis.

    No mass or positivity is required (the per-mode initial data are
    signed).  In d = 1 it is the field or its exact mirror v1 -> -v1.  For
    d >= 2 it is the Fourier slice theorem: the marginal's transform at xi
    is the field's at xi e.  The Riemann sum sum_v f(v) e^{-i xi e.v} is one
    matrix product over v1 and one contraction per further axis; times
    e^{-i xi vmax}, which puts alpha_0 = -vmax at index 0, it is the symbol
    of ``fourier_multiplier`` on the unit impulse at index 0, and h^(d-1)
    scales the result.
    """
    e = _unit_direction(e, grid.dim)
    values = np.asarray(values)
    if np.iscomplexobj(values) or values.shape != grid.shape:
        raise ValidationError(f"project_field needs a real field of shape {grid.shape}, "
                              f"got {values.dtype} {values.shape}")
    if grid.dim == 1:
        # v1 -> -v1 via the periodic index map i -> (n-i) mod n
        return values if e[0] > 0 else np.roll(values[::-1], 1)
    n, v = grid.n, grid.axis()

    def symbol(xi):
        acc = np.exp(-1j * np.multiply.outer(xi * e[0], v)) @ values.reshape(n, -1)
        for ei in e[1:]:
            acc = np.einsum("mj,mjr->mr", np.exp(-1j * np.multiply.outer(xi * ei, v)),
                            acc.reshape(len(xi), n, -1))
        return acc[:, 0] * np.exp(-1j * xi * grid.vmax)

    impulse = np.zeros(n)
    impulse[0] = 1.0
    return fourier_multiplier(impulse, (grid.h,), (0,), symbol) * grid.h ** (grid.dim - 1)
