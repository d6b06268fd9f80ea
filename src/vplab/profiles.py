"""Homogeneous velocity-space profiles in d = 1, 2, 3.

Profiles are nonnegative unit-mass distributions f(v) on a uniform tensor
grid, each carrying its analytic closure (a Gaussian mixture whose
components are even pairs in v1).  The closure keeps projections, the
singular v1-integral and the even continuation in the energy variable
exact; ``project_field`` projects sampled fields.  Sampled 1D data have one
interpolant, the sinc interpolant, and one boundary value, ``_sinc_cauchy``:
its Cauchy integral PV + i pi s(y) along the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sfft
from scipy.special import dawsn

from .errors import QuadratureConvergenceError, ValidationError

SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# smooth cut-off machinery
# ---------------------------------------------------------------------------

def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


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
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.vmax <= 0:
            raise ValidationError("vmax must be positive")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValidationError(f"n must be a power of two >= 4, got {self.n}")

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

    def freqs(self):
        """Angular FFT frequencies for one axis (period 2*vmax)."""
        return 2.0 * np.pi * sfft.fftfreq(self.n, d=self.h)

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
        res = 0.0
        for ax in range(self.dim):
            sl0 = [slice(None)] * self.dim
            sl0[ax] = 0
            sl1 = [slice(None)] * self.dim
            sl1[ax] = -1
            res = max(res, float(np.max(np.abs(values[tuple(sl0)]))),
                      float(np.max(np.abs(values[tuple(sl1)]))))
        return res


# ---------------------------------------------------------------------------
# analytic closures: mixtures of even Gaussian pairs
# ---------------------------------------------------------------------------

def _coshc(t):
    """cosh(sqrt(t)) continued through t=0: cos(sqrt(-t)) for t < 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = np.cosh(np.sqrt(t[pos]))
    out[~pos] = np.cos(np.sqrt(-t[~pos]))
    return out


def _coshc_prime(t):
    """d/dt cosh(sqrt(t)), continued; equals 1/2 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-12
    out[small] = 0.5 + t[small] / 12.0
    pos = (~small) & (t > 0)
    st = np.sqrt(t[pos])
    out[pos] = np.sinh(st) / (2.0 * st)
    neg = (~small) & (t < 0)
    sn = np.sqrt(-t[neg])
    out[neg] = np.sin(sn) / (2.0 * sn)
    return out


@dataclass(frozen=True)
class GaussianPairTerm:
    """Even pair [N(v0,w1) + N(-v0,w1)]/2 in v1 times centred Gaussians transversely.

    weight is the total mass of the term; wt holds the transverse widths
    (empty tuple in d = 1).
    """

    weight: float
    v0: float
    w1: float
    wt: tuple = ()

    def pair_1d(self, v1):
        """Unit-mass even pair density evaluated at v1."""
        c = 1.0 / (2.0 * self.w1 * SQRT2PI)
        return c * (np.exp(-((v1 - self.v0) ** 2) / (2 * self.w1 ** 2))
                    + np.exp(-((v1 + self.v0) ** 2) / (2 * self.w1 ** 2)))

    def even_val(self, y):
        """Pair density as a function of y = v1^2, continued to y < 0."""
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        pos = y >= 0.0
        if np.any(pos):
            out[pos] = self.pair_1d(np.sqrt(y[pos]))
        if np.any(~pos):
            yn = y[~pos]
            c = 1.0 / (self.w1 * SQRT2PI)
            t = yn * self.v0 ** 2 / self.w1 ** 4
            out[~pos] = c * np.exp(-(yn + self.v0 ** 2) / (2 * self.w1 ** 2)) * _coshc(t)
        return out

    def even_dval_complex(self, y):
        """d/dy of even_val for complex y (entire continuation form).

        Used by Cauchy-integral Taylor extraction; callers keep |y| within a
        few w1^2 so the exponential factor stays tame.
        """
        y = np.asarray(y, dtype=complex)
        c = 1.0 / (self.w1 * SQRT2PI)
        z = np.sqrt(y * self.v0 ** 2 / self.w1 ** 4)
        cosh_z = np.cosh(z)
        # sinh(z)/(2z) with the removable point handled by series
        small = np.abs(z) < 1e-8
        ratio = np.empty_like(z)
        ratio[~small] = np.sinh(z[~small]) / (2.0 * z[~small])
        ratio[small] = 0.5 + z[small] ** 2 / 12.0
        e = np.exp(-(y + self.v0 ** 2) / (2 * self.w1 ** 2))
        return c * e * (-cosh_z / (2 * self.w1 ** 2)
                        + (self.v0 ** 2 / self.w1 ** 4) * ratio)

    def even_dval(self, y):
        """d/dy of even_val; the continued form is used near y = 0."""
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        y_sw = 0.25 * self.w1 ** 2
        direct = y >= y_sw
        if np.any(direct):
            yd = y[direct]
            s = np.sqrt(yd)
            c = 1.0 / (2.0 * self.w1 * SQRT2PI)
            w2 = 2.0 * self.w1 ** 2
            out[direct] = c * (
                np.exp(-((s - self.v0) ** 2) / w2) * (-(s - self.v0) / (w2 * s))
                + np.exp(-((s + self.v0) ** 2) / w2) * (-(s + self.v0) / (w2 * s))
            )
        rest = ~direct
        if np.any(rest):
            yr = y[rest]
            c = 1.0 / (self.w1 * SQRT2PI)
            t = yr * self.v0 ** 2 / self.w1 ** 4
            e = np.exp(-(yr + self.v0 ** 2) / (2 * self.w1 ** 2))
            out[rest] = c * e * (-_coshc(t) / (2 * self.w1 ** 2)
                                 + (self.v0 ** 2 / self.w1 ** 4) * _coshc_prime(t))
        return out

    def transverse_val(self, *axes):
        """Product of centred transverse Gaussians on the given axes."""
        if not self.wt:
            return 1.0
        out = None
        for w, ax in zip(self.wt, axes):
            g = np.exp(-np.asarray(ax) ** 2 / (2 * w ** 2)) / (w * SQRT2PI)
            out = g if out is None else np.multiply.outer(out, g)
        return out

    def pv_d_integral(self):
        """Exact value of the v1-marginal principal-value integral at 0."""
        a = self.v0 / self.w1
        return (math.sqrt(2.0) * a * float(dawsn(a / math.sqrt(2.0))) - 1.0) / self.w1 ** 2


@dataclass(frozen=True)
class Mixture1D:
    """1D Gaussian mixture: components (weight, mu, sigma).

    Used for projected profiles.  Evaluation accepts complex arguments,
    which is what the analytically continued dispersion function needs.
    """

    comps: tuple

    @staticmethod
    def _coerce(a):
        a = np.asarray(a)
        if not np.iscomplexobj(a):
            a = a.astype(float)
        return a

    def val(self, a):
        a = self._coerce(a)
        out = np.zeros(a.shape, dtype=a.dtype)
        for w, mu, s in self.comps:
            out = out + w * np.exp(-((a - mu) ** 2) / (2 * s ** 2)) / (s * SQRT2PI)
        return out

    def dval(self, a):
        a = self._coerce(a)
        out = np.zeros(a.shape, dtype=a.dtype)
        for w, mu, s in self.comps:
            g = np.exp(-((a - mu) ** 2) / (2 * s ** 2)) / (s * SQRT2PI)
            out = out + w * g * (-(a - mu) / s ** 2)
        return out

    def mass(self):
        return sum(w for w, _, _ in self.comps)

    def pv_exact(self, ap):
        """Closed-form PV integral of dval/(alpha - ap) via the Dawson function.

        The test oracle for ``_sinc_cauchy``; the pipeline does not read it.
        """
        total = 0.0
        for w, mu, s in self.comps:
            yh = (ap - mu) / s
            total += w * (math.sqrt(2.0) * yh * float(dawsn(yh / math.sqrt(2.0))) - 1.0) / s ** 2
        return total


class GaussianMixture:
    """Sum of GaussianPairTerm components; the analytic closure of a Profile."""

    def __init__(self, dim, terms):
        self.dim = int(dim)
        self.terms = tuple(terms)
        for t in self.terms:
            if len(t.wt) != self.dim - 1:
                raise ValidationError("transverse width count must be dim-1")

    def mass(self):
        return sum(t.weight for t in self.terms)

    def values_on(self, grid):
        axes = grid.axes()
        out = np.zeros(grid.shape)
        v1 = axes[0]
        for t in self.terms:
            a = t.weight * t.pair_1d(v1)
            tr = t.transverse_val(*axes[1:])
            out += np.multiply.outer(a, tr) if self.dim > 1 else a * tr
        return out

    def project_unit(self, e):
        """Exact marginal along unit direction e as a 1D mixture."""
        e = np.asarray(e, dtype=float)
        comps = []
        for t in self.terms:
            widths = (t.w1,) + t.wt
            var = sum((e[i] * widths[i]) ** 2 for i in range(self.dim))
            s = math.sqrt(var)
            if t.v0 == 0.0:
                comps.append((t.weight, 0.0, s))
            else:
                mu = t.v0 * e[0]
                comps.append((0.5 * t.weight, mu, s))
                comps.append((0.5 * t.weight, -mu, s))
        return Mixture1D(tuple(comps))

    def pv_d_integral(self):
        """Exact integral of d_v1 f / v1 over all of velocity space."""
        return sum(t.weight * t.pv_d_integral() for t in self.terms)

    def scaled_v1(self, delta):
        """The family (1/delta) f(v1/delta, w): same weights, stretched v1."""
        return GaussianMixture(
            self.dim,
            [replace(t, v0=delta * t.v0, w1=delta * t.w1) for t in self.terms],
        )

    def reweighted(self, factor):
        return GaussianMixture(
            self.dim, [replace(t, weight=factor * t.weight) for t in self.terms]
        )

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


def _width(params):
    """The ``width`` entry of a builtin's parameters (default 1), finite and positive."""
    w = float(params.get("width", 1.0))
    if not (math.isfinite(w) and w > 0.0):
        raise ValidationError(f"profile width must be finite and positive, got {w}")
    return w


def make_builtin(name, grid, **params):
    """Construct a built-in unit-mass profile with analytic closure.

    Supported names:
      maxwellian            -- (2*pi)^(-d/2) exp(-|v|^2/2)
      double_bump           -- even pair at +-v0 (width optional) times a
                               centred transverse Maxwellian; requires v0 > 0
      product               -- f1(v1) x f2(v2) [x f3(v3)] from factor specs
                               ("gaussian", {"width": w}) or
                               ("double_bump", {"v0": v0, "width": w})
    """
    trans = (1.0,) * (grid.dim - 1)
    if name == "maxwellian":
        clo = GaussianMixture(grid.dim, [GaussianPairTerm(1.0, 0.0, 1.0, trans)])
    elif name == "double_bump":
        v0 = float(params.get("v0", 0.0))
        if v0 <= 0:
            raise ValidationError("double_bump requires v0 > 0")
        clo = GaussianMixture(grid.dim, [GaussianPairTerm(1.0, v0, _width(params), trans)])
    elif name == "product":
        factors = params["factors"]
        if len(factors) != grid.dim:
            raise ValidationError("product needs one factor per axis")
        kind0, p0 = factors[0]
        if kind0 == "gaussian":
            v0 = 0.0
        elif kind0 == "double_bump":
            v0 = float(p0["v0"])
        else:
            raise ValidationError(f"unknown factor kind {kind0!r}")
        wt = []
        for kind, p in factors[1:]:
            if kind != "gaussian":
                raise ValidationError("transverse factors must be gaussian")
            wt.append(_width(p))
        clo = GaussianMixture(grid.dim, [GaussianPairTerm(1.0, v0, _width(p0), tuple(wt))])
    else:
        raise ValidationError(f"unknown builtin {name!r}")

    prof = Profile.from_closure(grid, clo, meta={"provenance": "raw", "name": name,
                                                 "params": dict(params)})
    tail = grid.boundary_residual(prof.values)
    if tail >= 1e-14:
        raise ValidationError(
            f"builtin tail {tail:.2e} not below 1e-14 at vmax; enlarge the grid"
        )
    prof.meta["truncated_mass"] = max(0.0, 1.0 - prof.mass_grid)
    return prof


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

@dataclass
class ProjectedProfile:
    """Marginal f_e(alpha) of a profile along a unit direction."""

    direction: np.ndarray
    alphas: np.ndarray
    values: np.ndarray
    derivative: np.ndarray
    closure1d: Mixture1D | None
    parent_mass: float

    @property
    def h(self):
        return float(self.alphas[1] - self.alphas[0])

    def dval(self, a):
        """f_e'(a): the closure, or the sinc interpolant of the derivative samples."""
        if self.closure1d is not None:
            return self.closure1d.dval(a)
        a = np.asarray(a, dtype=float)
        out = _sinc_cauchy(self.derivative, self.alphas, a.ravel()).imag / math.pi
        return out.reshape(a.shape)


_BLOCK = 1 << 16  # kernel entries per Cauchy-transform block: 1 MiB of complex128


def _sinc_cauchy(samples, alphas, ys):
    """Boundary value int s(alpha)/(alpha - y - i0) dalpha = PV + i pi s(y).

    s is the sinc interpolant of the uniform samples, the one interpolant
    of sampled 1D data in the package.  With u = (y - alpha_0)/h the value
    is sum_j s_j K(u - j) for the kernel K(t) = (e^{i pi t} - 1)/t,
    K(0) = i pi: Re K = -2 sin^2(pi t/2)/t is the Hilbert transform of sinc
    (Weideman, Math. Comp. 64, 1995) and Im K = pi sinc(t) the interpolant
    itself.  sin^2(pi (u - j)/2) is sin^2 or cos^2 of pi u/2 and
    sin(pi (u - j)) is +-sin(pi u) by the parity of j, so the sines are
    taken once per y, and each row block of about ``_BLOCK`` kernel entries
    is one real matrix product over the real and imaginary columns split by
    parity.  An exact node adds i pi s_j.  Returns complex.
    """
    samples = np.asarray(samples, dtype=complex)
    cols = samples.view(float).reshape(-1, 2)
    j = np.arange(len(alphas), dtype=float)
    odd = (j % 2)[:, None]
    weights = np.hstack([cols * (1.0 - odd), cols * odd])
    u = (np.asarray(ys, dtype=float) - alphas[0]) / (alphas[1] - alphas[0])
    r = u - 2.0 * np.round(0.5 * u)  # |r| <= 1 keeps the sines exact at the nodes
    sin2 = np.sin(0.5 * math.pi * np.stack([r, 1.0 - np.abs(r)], axis=1)) ** 2
    sin1 = np.sin(math.pi * r)[:, None]
    pv = np.empty((len(u), 2))
    sinc = np.empty((len(u), 2))  # pi s(y)
    rows = max(1, _BLOCK // len(alphas))
    for i0 in range(0, len(u), rows):
        d = u[i0:i0 + rows, None] - j[None, :]
        d[d == 0.0] = np.inf  # the node term is added below
        acc = np.reciprocal(d, out=d) @ weights
        s = sin2[i0:i0 + rows]
        pv[i0:i0 + rows] = -2.0 * (s[:, :1] * acc[:, :2] + s[:, 1:] * acc[:, 2:])
        sinc[i0:i0 + rows] = sin1[i0:i0 + rows] * (acc[:, :2] - acc[:, 2:])
    out = pv.view(complex).ravel() + 1j * sinc.view(complex).ravel()
    node = (u == np.round(u)) & (u >= 0) & (u <= len(alphas) - 1)
    out[node] += 1j * math.pi * samples[u[node].astype(int)]
    return out


def _shear(values, ax_moving, ax_fixed, s, coords):
    """Apply f(v) -> f(v + s * v_fixed * e_moving) spectrally along ax_moving."""
    n = values.shape[ax_moving]
    h = coords[1] - coords[0]
    xi = 2.0 * np.pi * sfft.fftfreq(n, d=h)
    fhat = sfft.fft(values, axis=ax_moving)
    shape_xi = [1] * values.ndim
    shape_xi[ax_moving] = n
    shape_y = [1] * values.ndim
    shape_y[ax_fixed] = values.shape[ax_fixed]
    phase = np.exp(1j * xi.reshape(shape_xi) * (s * coords).reshape(shape_y))
    return sfft.ifft(fhat * phase, axis=ax_moving).real


def rotate_plane(values, coords, theta, ax_a=0, ax_b=1):
    """Rotate samples in the (ax_a, ax_b) plane by angle theta via three shears.

    Returns g with g(v) = f(R_theta v); accurate for fields decaying below
    roundoff at the domain boundary.  |theta| is reduced to <= pi/4 with
    exact quarter-turn index operations first.
    """
    quarter = int(np.round(theta / (np.pi / 2.0)))
    theta = theta - quarter * np.pi / 2.0
    out = values
    for _ in range(quarter % 4):
        # quarter turn: (a, b) -> (b, -a) sample map, exact on the grid
        out = np.flip(np.swapaxes(out, ax_a, ax_b), axis=ax_b)
        out = np.roll(out, 1, axis=ax_b)
    if abs(theta) > 1e-15:
        t = -np.tan(theta / 2.0)
        s = np.sin(theta)
        out = _shear(out, ax_a, ax_b, t, coords)
        out = _shear(out, ax_b, ax_a, s, coords)
        out = _shear(out, ax_a, ax_b, t, coords)
    return out


def project(p, e):
    """Marginal of the profile along unit vector e, with its derivative.

    The values and derivative are the exact projected mixture of the
    closure, sampled on the profile's axis.
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.size != p.grid.dim:
        raise ValidationError("direction dimension mismatch")
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise ValidationError("direction must be a unit vector (within 1e-12)")

    alphas = p.grid.axis()
    closure1d = p.closure.project_unit(e)
    vals = closure1d.val(alphas)
    pp = ProjectedProfile(e, alphas, vals, closure1d.dval(alphas), closure1d, p.mass_grid)
    m = float(np.sum(vals) * pp.h)
    if abs(m - pp.parent_mass) > 1e-8 * max(1.0, abs(pp.parent_mass)):
        raise QuadratureConvergenceError(
            f"projected mass {m:.10f} != parent mass {pp.parent_mass:.10f}"
        )
    return pp


def project_field(values, grid, e):
    """Marginal of an arbitrary sampled field along a unit direction.

    Spectral shear rotations of the samples, without any mass or
    positivity requirements (used for per-mode initial data).
    """
    e = np.asarray(e, dtype=float)
    d = grid.dim
    cell_t = grid.h ** (d - 1)
    if d == 1:
        # v1 -> -v1 via the periodic index map i -> (n-i) mod n
        return values if e[0] > 0 else np.roll(values[::-1, ...], 1, axis=0)
    coords = grid.axis()
    if d == 2:
        theta = math.atan2(e[1], e[0])
        rot = rotate_plane(values, coords, theta, 0, 1)
        return rot.sum(axis=1) * cell_t
    # d == 3: rotate e into +e1 by two planar rotations
    phi = math.atan2(e[1], e[0])
    rot = rotate_plane(values, coords, phi, 0, 1)
    theta = math.atan2(e[2], math.hypot(e[0], e[1]))
    rot = rotate_plane(rot, coords, theta, 0, 2)
    return rot.sum(axis=(1, 2)) * cell_t
