"""Linearised field evolution per Fourier mode and its weighted decay norm.

Each lattice mode reduces to a 1D problem for the profile projected along
the mode direction.  The field mode is the Landau contour integral

    E_k(t) = (|k|/2pi) int G_k(y+i0) / (|k|^2 - F_e(y+i0)) e^{-i|k| y t} dy

along the real axis from above, taken as one contour: Gauss-Legendre
panels on a compact window and two rays rotated into the lower half-plane
off its ends (the boundary data decay only like 1/y), their panels graded
toward the axis.  The contour's one error estimate is the gap between two
successive rounds, the second with every panel cut in two.  F comes in
closed form from the projection's closure, ``GaussianMixture.cauchy`` (the
Faddeeva form of the plasma dispersion function), on every node; the
sampled datum G from the package's one Cauchy transform of sampled data,
``_sinc_cauchy``, exact for the sinc interpolant of the samples, on the
axis and below it.  The stability refusal reads the same Penrose margin as
``penrose.penrose_check``, once per mode.  The damping-rate oracle finds
the lower-half-plane root of |k|^2 - F by analytic continuation (residue
term added below the axis); it is validation plumbing, independent of the
contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PenroseUnstableError, RefinementCapError, ValidationError, require
from .penrose import critical_pv, margin_ok

# every panel of the contour, window and rays alike, takes 16 Gauss-Legendre
# nodes; a window panel spans at most _PANEL_RAD of e^{-i|k| y t_end}, at least
# _MIN_PANELS of them, and the first ray panel at most _PANEL_RAD of e^{-|k| s t_end}
_GL16 = np.polynomial.legendre.leggauss(16)
_PANEL_RAD, _MIN_PANELS = 8.0, 40
# two successive rounds of the contour, the second with every panel cut in two,
# agree to this share of the peak
WINDOW_TOL = 1e-8
_BLOCK = 1 << 16  # kernel entries per Cauchy-transform block: 1 MiB of complex128


@dataclass
class Datum1D:
    """Per-mode initial datum f_k(alpha, 0), real or complex, on a uniform alpha grid."""

    alphas: np.ndarray
    values: np.ndarray

    def mass(self):
        return complex(np.trapezoid(self.values, self.alphas))


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
    ``truncation_error`` is the gap between the last two rounds relative to the peak."""

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


def _panel_nodes(edges):
    """Nodes and weights of the 16-node Gauss-Legendre rule on each panel between edges."""
    x, w = _GL16
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _rays(ym, edges):
    """Nodes z = +-ym - i s and weights -+i ds, s = ym tan(phi), of the rays off +-ym,
    on the panels in phi between ``edges`` (0 to pi/2).

    The |y| > ym tails rotate into the lower half-plane, where the integrand
    decays like e^{-|k| s t}; no dispersion root lies beyond the projected
    support, so the deformation crosses nothing.
    """
    phi, dphi = _panel_nodes(edges)
    s = ym * np.tan(phi)
    ds = ym / np.cos(phi) ** 2 * dphi
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
    ray panels in phi have edges 0, phi0, 2 phi0, 4 phi0, ..., pi/2, with
    e^{-|k| s t_end} fallen by e^{-_PANEL_RAD} at phi0, so the layer at the
    ray's foot is resolved at every t.  Each round evaluates the whole
    contour; the next cuts every panel in two.  When two successive rounds
    agree to WINDOW_TOL of the peak the later is accepted; after three
    refinements RefinementCapError is raised.  A profile that is not
    Penrose-stable at |k|^2 is refused before any transform.
    """
    require("finite and positive", (("mode wavenumber", kmag),))
    require("finite and nonnegative", (("t_end", t_end),))
    bad = datum.values[~np.isfinite(datum.values)]
    if bad.size:
        raise ValidationError(f"mode datum must be finite, got {bad[0]} at {bad.size} "
                              f"of {datum.values.size} samples")
    k2 = kmag ** 2
    margin = k2 - max(critical_pv(fp)[1], default=-math.inf)
    if not margin_ok(margin, k2):
        raise PenroseUnstableError(
            f"margin {margin:.3e}: profile not Penrose-stable at |k|^2 = {k2}")
    # rays must stay beyond the projected support and beyond every
    # dispersion root (phase velocities scale like 1/k)
    y_max = max(float(fp.alphas[-1]) + 4.0, 2.0 + 2.0 / kmag)
    t = np.pi * np.arange(int(t_end * kmag * y_max / np.pi) + 2) / (kmag * y_max)
    t = t[t <= t_end]
    n_t, step, c = len(t), np.pi / y_max, kmag / (2.0 * np.pi)  # |k| z t_m = step z m
    y_edges = np.linspace(-y_max, y_max, 1 + max(
        _MIN_PANELS, math.ceil(2.0 * kmag * y_max * t_end / _PANEL_RAD)))
    phi0 = math.atan2(_PANEL_RAD, kmag * y_max * t_end)
    phi_edges = np.concatenate([[0.0], phi0 * 2.0 ** np.arange(
        math.ceil(math.log2(0.5 * math.pi / phi0))), [0.5 * math.pi]])
    previous = None
    for _ in range(4):
        y, wy = _panel_nodes(y_edges)
        rz, rdz = _rays(y_max, phi_edges)
        z = np.concatenate([y, rz])
        G = np.concatenate([initial_transform(datum, y), initial_transform(datum, rz)])
        H = np.concatenate([wy, rdz]) * G / (k2 - fp.closure1d.cauchy(z))
        vals = c * _fourier_sum(n_t, step * z, H)
        if previous is not None:
            err = float(np.max(np.abs(vals - previous))) / max(
                float(np.max(np.abs(vals))), 1e-300)
            if err <= WINDOW_TOL:
                e0 = -datum.mass() / (1j * kmag)
                pois = abs(vals[0] - e0) / max(abs(e0), 1e-300)
                return ModeSeries(tuple(kvec) if kvec is not None else (kmag,), kmag, t, vals,
                                  y_max, len(y), err, pois)
        previous = vals
        y_edges, phi_edges = (np.sort(np.concatenate([e, 0.5 * (e[1:] + e[:-1])]))
                              for e in (y_edges, phi_edges))
    raise RefinementCapError(
        f"contour truncation error {err:.2e} of the peak above {WINDOW_TOL} after 3 refinements")


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
        """|| t^{s_v} E ||_{L^2_t H_x^{3/2+s_x+s_v}} from the mode series' trapezoids.

        A mode is refused when its tail, half its recent level times its end
        time, exceeds 1 % of its integral, unless that level is at roundoff."""
        require("finite", (("s_x", s_x), ("s_v", s_v)))
        total = 0.0
        for kvec, series in self.modes.items():
            k2 = float(sum(c * c for c in kvec))
            t = series.t
            integrand = t ** (2.0 * s_v) * np.abs(series.values) ** 2
            integral = float(np.trapezoid(integrand, t))
            # the recent level rather than a fitted decay slope, which
            # oscillatory series defeat on short windows
            recent = float(np.max(integrand[-max(len(t) // 5, 8):]))
            share = 0.5 * recent * max(t[-1], 1.0) / max(integral, 1e-300)
            if recent >= 1e-12 * float(np.max(integrand)) and share > 0.01:
                raise ValidationError(
                    f"time grid too short for the weighted integral of mode {kvec}: "
                    f"the tail after its end t = {t[-1]:.4g} is about {share:.1%} of it, above 1%")
            total += (1.0 if k2 == 0 else k2 ** (1.5 + s_x + s_v)) * 2.0 * integral  # +-k pair
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
        raise ValidationError("on the real axis use fp.closure1d.cauchy, the boundary value "
                              "from above")
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
