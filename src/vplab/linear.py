"""Linearised field evolution per Fourier mode and its weighted decay norm.

Each lattice mode reduces to a 1D problem for the profile projected along
the mode direction.  The field mode is the oscillatory integral

    E_k(t) = (|k|/2pi) int G_k(y+i0) / (|k|^2 - F_e(y+i0)) e^{-i|k| y t} dy

evaluated by tapered FFT on a compact window plus one off-window sum over
the taper's shoulders and the exact contour-rotated tails (the boundary
data decay only like 1/y, which no taper can absorb); grid refinement
covers the t-resolution.  F comes in closed form from the projection's
closure, ``GaussianMixture.cauchy`` (the Faddeeva form of the plasma
dispersion function), on the axis and along the rotated rays alike; the
sampled datum G from the package's one Cauchy transform of sampled data,
``_sinc_cauchy``, exact for the sinc interpolant of the samples, on the
axis and below it.  The stability refusal in ``dispersion`` reads the
same Penrose margin as ``penrose.penrose_check``.  The damping-rate
oracle finds the lower-half-plane root of |k|^2 - F by analytic
continuation (residue term added below the axis); it is validation
plumbing, independent of the FFT pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .errors import PenroseUnstableError, RefinementCapError, ValidationError
from .penrose import critical_pv, margin_ok
from .profiles import smooth_step

# nodes of the off-window sum, on the taper shoulders and the rays
_GL96 = np.polynomial.legendre.leggauss(96)
# the window self-check: full and 20%-narrower core agree to WINDOW_TOL of the peak
WINDOW_TOL = 1e-8
# share of the window's half-width over which the taper falls to zero
_TAPER_FRAC = 0.1
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
    """Complex field mode on its conjugate FFT time grid."""

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


def _taper(y, y_max):
    out = np.ones_like(y)
    edge = np.abs(y) > (1.0 - _TAPER_FRAC) * y_max
    out[edge] = smooth_step((y_max - np.abs(y[edge])) / (_TAPER_FRAC * y_max))
    return out


def _off_window(kmag, ym, t, fp, datum):
    """sum dz H(z) e^{-i |k| z t}, H = G/(|k|^2 - F), over what the tapered window leaves out.

    Gauss-Legendre nodes on the two taper shoulders carry (1 - taper) dy;
    their spacing stays well below 1/(k t_end) for the runs this serves.
    The |y| > ym tails rotate into the lower half-plane, z = +-ym - i s with
    weights -+i ds, where the integrand decays like e^{-k s t}; no
    dispersion root lies beyond the projected support, so the deformation
    crosses nothing, and the paired rays converge down to t = 0.
    """
    x, w = _GL96
    lo = (1.0 - _TAPER_FRAC) * ym
    ys = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * x for a, b in ((lo, ym), (-ym, -lo))])
    dy = np.tile(0.5 * (ym - lo) * w, 2) * (1.0 - _taper(ys, ym))
    phi = 0.25 * math.pi * (x + 1.0)
    s = ym * np.tan(phi)
    ds = ym / np.cos(phi) ** 2 * 0.25 * math.pi * w
    z = np.concatenate([ys, ym - 1j * s, -ym - 1j * s])
    dz = np.concatenate([dy, -1j * ds, 1j * ds])
    H = initial_transform(datum, z) / (kmag ** 2 - fp.closure1d.cauchy(z))
    return np.exp(-1j * kmag * np.outer(t, z)) @ (dz * H)


def efield_mode(kmag, fp, datum, t_end, kvec=None):
    """Field mode series: tapered FFT over the core window plus the off-window sum.

    The Cauchy tails of the boundary data decay only like 1/y, so a taper
    alone cannot reach tolerance; ``_off_window`` restores the shoulders and
    completes the two tails exactly.  The window reaches beyond the
    projected support and every dispersion root; it starts at 4096 points,
    more when t_end needs them.  The window self-check (against a 20%
    narrower core, to WINDOW_TOL) then verifies quadrature convergence and
    doubles the grid up to three times; RefinementCapError if the cap is hit.
    """
    if not (math.isfinite(kmag) and kmag > 0):
        raise ValidationError(f"mode wavenumber must be finite and positive, got {kmag}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValidationError(f"t_end must be finite and nonnegative, got {t_end}")
    # rays must stay beyond the projected support and beyond every
    # dispersion root (phase velocities scale like 1/k)
    y_max = max(float(fp.alphas[-1]) + 4.0, 2.0 + 2.0 / kmag)
    n_y = 4096
    for _ in range(4):
        # keep the oscillation resolved out to t_end: k * t * dy <= 1/2
        n_min = int(2.0 * y_max * kmag * t_end / 0.5) + 2
        if n_y < n_min:
            n_y = 2 ** int(math.ceil(math.log2(n_min)))
        dy = 2.0 * y_max / n_y
        y = -y_max + dy * np.arange(n_y)
        H = initial_transform(datum, y) / (kmag ** 2 - dispersion(fp, y, kmag ** 2))

        def series(window_scale):
            ym = window_scale * y_max
            t = 2.0 * np.pi * np.arange(n_y) / (kmag * n_y * dy)
            keep = t <= t_end
            t = t[keep]
            window = dy * np.exp(1j * kmag * y_max * t) * sfft.fft(
                H * _taper(y, ym) * (np.abs(y) <= ym))[keep]
            return t, (kmag / (2.0 * np.pi)) * (window + _off_window(kmag, ym, t, fp, datum))

        t, vals = series(1.0)
        _, vals_narrow = series(0.8)
        err = float(np.max(np.abs(vals - vals_narrow)))
        scale = float(np.max(np.abs(vals)))
        if err <= WINDOW_TOL * max(scale, 1e-300):
            e0 = -datum.mass() / (1j * kmag)
            pois = abs(vals[0] - e0) / max(abs(e0), 1e-300)
            return ModeSeries(tuple(kvec) if kvec is not None else (kmag,), kmag, t, vals,
                              y_max, n_y, err / max(scale, 1e-300), pois)
        n_y *= 2
    raise RefinementCapError(
        f"window truncation error {err:.2e} above {WINDOW_TOL} after 3 refinements")


@dataclass
class FieldHistory:
    """Per-mode field series plus the weighted space-time decay norm.

    One representative of each +-k pair is stored; the conjugate partner
    (real initial data) is implied, so norms carry a pair factor of two.
    """

    modes: dict = field(default_factory=dict)  # kvec tuple -> ModeSeries

    def add(self, series):
        minus = tuple(-c for c in series.kvec)
        if minus in self.modes:
            raise ValidationError(
                f"mode {series.kvec} conflicts with stored representative {minus}")
        self.modes[series.kvec] = series

    def decay_norm(self, s_x, s_v):
        """|| t^{s_v} E ||_{L^2_t H_x^{3/2+s_x+s_v}} from the mode series."""
        for name, val in (("s_x", s_x), ("s_v", s_v)):
            if not math.isfinite(val):
                raise ValidationError(f"{name} must be finite, got {val}")
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
