"""Linearised field evolution per Fourier mode and its weighted decay norm.

Each lattice mode reduces to a 1D problem for the profile projected along
the mode direction.  The field mode is the Landau contour integral

    E_k(t) = (|k|/2pi) int G_k(y+i0) / (|k|^2 - F_e(y+i0)) e^{-i|k| y t} dy

along the real axis from above, taken as one contour: Gauss-Legendre
panels on a compact window and two rays rotated into the lower half-plane
off its ends (the boundary data decay only like 1/y).  F comes in closed
form from the projection's closure, ``GaussianMixture.cauchy`` (the
Faddeeva form of the plasma dispersion function), on the axis and along
the rays alike; the sampled datum G from the package's one Cauchy
transform of sampled data, ``_sinc_cauchy``, exact for the sinc
interpolant of the samples, on the axis and below it.  The stability
refusal in ``dispersion`` reads the same Penrose margin as
``penrose.penrose_check``.  The damping-rate oracle finds the
lower-half-plane root of |k|^2 - F by analytic continuation (residue term
added below the axis); it is validation plumbing, independent of the
contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PenroseUnstableError, RefinementCapError, ValidationError, require
from .penrose import critical_pv, margin_ok

# window panels of 16 Gauss-Legendre nodes, each spanning at most _PANEL_RAD of
# e^{-i|k| y t_end}, in tens (four at least) so that +-_NARROW y_max are panel edges
_GL16 = np.polynomial.legendre.leggauss(16)
_PANEL_RAD, _PANEL_GROUP, _MIN_GROUPS = 8.0, 10, 4
_GL96 = np.polynomial.legendre.leggauss(96)  # nodes of each ray
# the window self-check: closed at y_max and at _NARROW y_max, the contour agrees to this
WINDOW_TOL = 1e-8  # share of the peak
_NARROW = 0.8
_BLOCK = 1 << 16  # kernel entries per Cauchy-transform block: 1 MiB of complex128


@dataclass
class Datum1D:
    """Per-mode initial datum f_k(alpha, 0), real or complex, on a uniform alpha grid."""

    alphas: np.ndarray
    values: np.ndarray

    def mass(self):
        return complex(np.trapezoid(self.values, self.alphas))


def dispersion(fp, ygrid, k2_min):
    """Complex boundary values F(y+i0) on the grid, for a profile stable at |k|^2 = k2_min.

    F = PV + i pi f'(y) is the closed-form boundary value of the projection's
    closure.  Stability refusal: the boundary minimum c0 of |k2_min - F|^2 / k2_min
    alone cannot see roots off the real axis, so the check also evaluates the
    stability margin |k|^2 - max PV over the critical points of the
    projection and raises PenroseUnstableError when either fails.
    """
    F = fp.closure1d.cauchy(np.asarray(ygrid, dtype=float))
    c0 = float(np.min(np.abs(k2_min - F) ** 2) / k2_min)
    margin = k2_min - max(critical_pv(fp)[1], default=-math.inf)
    if c0 <= 1e-14 or not margin_ok(margin, k2_min):
        raise PenroseUnstableError(
            f"margin {margin:.3e}, c0 {c0:.3e}: profile not "
            f"Penrose-stable at |k|^2 = {k2_min}")
    return F


def _sinc_cauchy(samples, alphas, z):
    """int s(alpha)/(alpha - z) dalpha for the sinc interpolant s of uniform samples.

    A real z gives the boundary value PV + i pi s(z) from above; Im z < 0
    the Cauchy integral, which decays there (the continuation is what grows).
    With u = (z - alpha_0)/h it is sum_j s_j expm1(i sigma pi (u - j))/(u - j),
    sigma = -1 below the axis and +1 elsewhere; on the axis the real part is the
    Hilbert transform of sinc (Weideman, Math. Comp. 64, 1995).  By parity of
    j the expm1 factor is expm1(i sigma pi r) or expm1(i sigma pi q), with
    r = u mod 2 in |Re r| <= 1 and q = r -+ 1, each exact near its own nodes;
    the even and odd sums of s_j/(u - j) take one real matrix product per
    block of ``_BLOCK`` kernel entries.  An exact node adds i pi s_j.
    """
    samples = np.asarray(samples, dtype=complex)
    j = np.arange(len(alphas), dtype=float)
    w = np.stack([samples * (1.0 - j % 2), samples * (j % 2)], axis=1)
    u = (np.asarray(z) - alphas[0]) / (alphas[1] - alphas[0])
    if np.iscomplexobj(u):
        # the kernel's interleaved real and imaginary parts meet w and i w
        w = np.stack([w, 1j * w], axis=1).reshape(-1, 2)
    w = w.view(float)
    r = u - 2.0 * np.round(0.5 * u.real)
    rq = np.stack([r, r - np.copysign(1.0, r.real)], axis=1)
    parity = np.expm1(np.where(u.imag < 0.0, -1j, 1j)[:, None] * math.pi * rq)
    out = np.empty(len(u), dtype=complex)
    rows = max(1, _BLOCK // len(alphas))
    for i0 in range(0, len(u), rows):
        d = u[i0:i0 + rows, None] - j[None, :]
        d[d == 0.0] = np.inf  # the node term is added below
        acc = (np.reciprocal(d, out=d).view(float) @ w).view(complex)
        out[i0:i0 + rows] = np.sum(parity[i0:i0 + rows] * acc, axis=1)
    node = (u == np.round(u.real)) & (u.real >= 0) & (u.real <= len(alphas) - 1)
    out[node] += 1j * math.pi * samples[u[node].real.astype(int)]
    return out


def initial_transform(datum, z):
    """G_k(z) of the sinc interpolant: PV + i pi datum(z) on the axis, the integral below."""
    return _sinc_cauchy(datum.values, datum.alphas, z)


@dataclass
class ModeSeries:
    """Complex field mode on its time grid t_j = pi j/(|k| y_max) <= t_end.

    ``n_y`` counts the window's Gauss-Legendre nodes in the accepted round;
    ``truncation_error`` is the window self-check's gap relative to the peak."""

    kvec: tuple
    kmag: float
    t: np.ndarray
    values: np.ndarray
    y_max: float
    n_y: int
    truncation_error: float
    poisson_relerr: float

    def envelope_fit(self, t_lo, t_hi):
        return fit_damped_mode(self.t, self.values, t_lo, t_hi)


def _rays(ym):
    """Nodes z = +-ym - i s and weights -+i ds, s = ym tan(phi), of the rays off +-ym.

    The |y| > ym tails rotate into the lower half-plane, where the integrand
    decays like e^{-|k| s t}; no dispersion root lies beyond the projected
    support, so the deformation crosses nothing.
    """
    x, w = _GL96
    phi = 0.25 * math.pi * (x + 1.0)
    s = ym * np.tan(phi)
    ds = ym / np.cos(phi) ** 2 * 0.25 * math.pi * w
    return np.concatenate([ym - 1j * s, -ym - 1j * s]), np.concatenate([-1j * ds, 1j * ds])


def _fourier_sum(n, kz, wH):
    """sum_j wH_j e^{-i kz_j m} for m < n, as one product of a fine and a coarse table:
    e^{-i kz m} = e^{-i kz b q} e^{-i kz r} with m = b q + r and b = ceil(sqrt(n)), so
    each node costs 2 sqrt(n) exponentials and the sum runs in BLAS.
    """
    b = math.isqrt(n - 1) + 1
    fine = np.exp(np.outer(np.arange(b), -1j * kz))
    coarse = np.exp(np.outer(b * np.arange(-(-n // b)), -1j * kz)) * wH
    return (coarse @ fine.T).ravel()[:n]


def efield_mode(kmag, fp, datum, t_end, kvec=None):
    """Field mode series at t_j = pi j/(|k| y_max) <= t_end: panels on the window plus rays.

    The window [-y_max, y_max] reaches beyond the projected support and
    every dispersion root, and ``_rays`` closes the contour below it.  The
    self-check closes the same contour at _NARROW y_max on the window's own
    nodes; below WINDOW_TOL of the peak it accepts, else it doubles the
    panels, up to three times, then raises RefinementCapError.
    """
    require("finite and positive", (("mode wavenumber", kmag),))
    require("finite and nonnegative", (("t_end", t_end),))
    bad = datum.values[~np.isfinite(datum.values)]
    if bad.size:
        raise ValidationError(f"mode datum must be finite, got {bad[0]} at {bad.size} "
                              f"of {datum.values.size} samples")
    # rays must stay beyond the projected support and beyond every
    # dispersion root (phase velocities scale like 1/k)
    y_max = max(float(fp.alphas[-1]) + 4.0, 2.0 + 2.0 / kmag)
    t = np.pi * np.arange(int(t_end * kmag * y_max / np.pi) + 2) / (kmag * y_max)
    t = t[t <= t_end]
    n_t, step = len(t), np.pi / y_max  # |k| z t_m = step z m
    k2, c = kmag ** 2, kmag / (2.0 * np.pi)
    rz, rdz = map(np.concatenate, zip(_rays(y_max), _rays(_NARROW * y_max)))
    rH = rdz * initial_transform(datum, rz) / (k2 - fp.closure1d.cauchy(rz))
    half = len(rz) // 2
    panels = _PANEL_GROUP * max(_MIN_GROUPS, math.ceil(
        2.0 * kmag * y_max * t_end / (_PANEL_GROUP * _PANEL_RAD)))
    x, w = _GL16
    for _ in range(4):
        h = y_max / panels
        y = (-y_max + h * (2.0 * np.arange(panels)[:, None] + 1.0 + x)).ravel()
        yH = np.tile(h * w, panels) * initial_transform(datum, y) / (k2 - dispersion(fp, y, k2))
        core = np.abs(y) < _NARROW * y_max
        inner = _fourier_sum(n_t, step * y[core], yH[core])
        vals = c * (inner + _fourier_sum(n_t, step * np.concatenate([y[~core], rz[:half]]),
                                         np.concatenate([yH[~core], rH[:half]])))
        narrow = c * (inner + _fourier_sum(n_t, step * rz[half:], rH[half:]))
        err = float(np.max(np.abs(vals - narrow))) / max(float(np.max(np.abs(vals))), 1e-300)
        if err <= WINDOW_TOL:
            e0 = -datum.mass() / (1j * kmag)
            pois = abs(vals[0] - e0) / max(abs(e0), 1e-300)
            return ModeSeries(tuple(kvec) if kvec is not None else (kmag,), kmag, t, vals,
                              y_max, len(y), err, pois)
        panels *= 2
    raise RefinementCapError(
        f"window truncation error {err:.2e} of the peak above {WINDOW_TOL} after 3 refinements")


@dataclass
class FieldHistory:
    """Per-mode field series plus the weighted space-time decay norm.

    One representative of each +-k pair is stored; the conjugate partner
    (real initial data) is implied, so norms carry a pair factor of two.
    """

    modes: dict = field(default_factory=dict)  # kvec tuple -> ModeSeries

    def add(self, series):
        for stored in (series.kvec, tuple(-c for c in series.kvec)):
            if stored in self.modes:
                raise ValidationError(
                    f"mode {series.kvec} conflicts with stored representative {stored}")
        self.modes[series.kvec] = series

    def decay_norm(self, s_x, s_v):
        """|| t^{s_v} E ||_{L^2_t H_x^{3/2+s_x+s_v}} from the mode series."""
        require("finite", (("s_x", s_x), ("s_v", s_v)))
        total = 0.0
        suggestions = []
        for kvec, series in self.modes.items():
            k2 = float(sum(c * c for c in kvec))
            t, v = series.t, series.values
            integrand = t ** (2.0 * s_v) * np.abs(v) ** 2
            integral = float(np.trapezoid(integrand, t))
            # tail estimate from the decay slope over the last fifth
            n5 = max(len(t) // 5, 8)
            tt, vv = t[-n5:], np.abs(v[-n5:])
            good = vv > 0
            lam = 1e-3
            if np.sum(good) > 4:
                slope = np.polyfit(tt[good], np.log(vv[good]), 1)[0]
                if slope < 0:
                    lam = -2.0 * slope
                    tail = integrand[-1] / lam
                else:
                    tail = math.inf
            else:
                tail = 0.0
            # oscillatory series defeat slope fits on short windows; the
            # recent contribution level itself must already be negligible
            recent = float(np.max(integrand[-n5:]))
            tail = max(tail, 0.5 * recent * max(t[-1], 1.0))
            # a mode already at the roundoff floor has nothing left to damp
            if recent < 1e-12 * float(np.max(integrand)):
                tail = 0.0
            if tail > 0.01 * max(integral, 1e-300):
                suggestions.append(t[-1] + (6.0 / max(lam, 1e-3)))
            total += (1.0 if k2 == 0 else k2 ** (1.5 + s_x + s_v)) * \
                (integral * 2.0)  # +-k pair
        if suggestions:
            raise ValidationError(
                f"time grid too short for the weighted integral; extend to "
                f"T_end ~ {max(suggestions):.1f}")
        return math.sqrt(total)


def fit_damped_mode(t, values, t_lo, t_hi):
    """Damping rate and frequency by a matrix-pencil fit on a time window.

    Returns (rate, freq) of the least-damped pole with positive frequency.
    The rank-2 pencil needs at least six samples in [t_lo, t_hi].
    """
    sel = (t >= t_lo) & (t <= t_hi)
    ts, vs = t[sel], np.asarray(values)[sel]
    n = len(vs)
    if n < 6:
        raise ValidationError(f"fit window [{t_lo:g}, {t_hi:g}] holds {n} samples; "
                              "the rank-2 pencil needs at least 6")
    dt = ts[1] - ts[0]
    L = n // 3
    Y = np.array([vs[i:i + L] for i in range(n - L)])
    Y0, Y1 = Y[:-1], Y[1:]
    u, sv, vh = np.linalg.svd(Y0, full_matrices=False)
    rank = min(2, int(np.sum(sv > 1e-12 * sv[0])))
    u, sv, vh = u[:, :rank], sv[:rank], vh[:rank]
    A = np.diag(1.0 / sv) @ u.conj().T @ Y1 @ vh.conj().T
    z = np.linalg.eigvals(A)
    s = np.log(z) / dt
    cands = [(si.real, abs(si.imag)) for si in s if si.real < 0]
    if not cands:
        raise ValidationError("no damped pole found in the fit window")
    rate, freq = max(cands, key=lambda c: c[0])
    return -rate, freq


# ---------------------------------------------------------------------------
# analytic-continuation root oracle (validation plumbing)
# ---------------------------------------------------------------------------

def continued_dispersion(fp, z):
    """F continued to Im z < 0 (scalar or array z): the closed-form Cauchy
    transform plus the residue 2 pi i f'(z) below the axis."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag == 0):
        raise ValidationError("use the boundary-value path on the real axis")
    base = fp.closure1d.cauchy(z)
    below = z.imag < 0
    base[below] += 2j * math.pi * fp.closure1d.dval(z[below])
    return complex(base) if base.ndim == 0 else base


def find_damping_root(fp, kmag):
    """Lower-half-plane root of |k|^2 - F(z): scan for a seed, then Newton.

    The phase-velocity root z maps to a field mode ~ e^{-i |k| z t}, so the
    damping rate is |k| |Im z| and the oscillation frequency |k| |Re z|.
    Raises ValidationError when 60 Newton steps miss |k^2 - F| < 1e-12.
    """
    k2 = kmag ** 2
    res = np.linspace(0.2, 8.0, 80)
    ims = np.linspace(-1.5, -0.02, 50)
    grid = res[None, :] + 1j * ims[:, None]
    z = complex(grid.flat[np.argmin(np.abs(k2 - continued_dispersion(fp, grid)))])
    for _ in range(60):
        dz = 1e-7 * (1.0 + abs(z))
        f, f_plus, f_minus = k2 - continued_dispersion(fp, np.array([z, z + dz, z - dz]))
        if abs(f) < 1e-12:
            break
        z = z + f / ((f_minus - f_plus) / (2 * dz))
        if z.imag >= 0:
            z = complex(z.real, -abs(z.imag) - 1e-3)
    else:
        resid = abs(k2 - continued_dispersion(fp, z))
        raise ValidationError(
            f"no damping root: Newton ends at z = {z:.6g} with "
            f"|k^2 - F(z)| = {resid:.3e} after 60 steps")
    rate = kmag * abs(z.imag)
    freq = kmag * abs(z.real)
    return z, rate, freq
