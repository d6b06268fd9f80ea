"""Reference values computed with numpy and scipy alone, apart from vplab.

Every function here follows a closed form or a definition stated in the
vplab docstrings, so a rewrite of the program is checked against an
independent computation and not against the program's own earlier output.
"""

import math

import numpy as np
from scipy.special import dawsn, wofz

SQRT2 = math.sqrt(2.0)


def plasma_z(zeta):
    """Plasma dispersion function Z(zeta) = i sqrt(pi) w(zeta)."""
    return 1j * math.sqrt(math.pi) * wofz(zeta)


def maxwellian_landau_root(k, tol=1e-14, max_iter=50):
    """Least-damped Landau root of the unit Maxwellian at wavenumber k.

    Solves k^2 + 1 + zeta Z(zeta) = 0 with zeta = omega / (sqrt(2) k): a
    vectorised scan of the lower half plane seeds a complex Newton solve
    (Z' = -2 (1 + zeta Z)).  Returns (rate, freq) = (-Im omega, Re omega).
    """
    re = np.linspace(0.1, 6.0, 240)
    im = np.linspace(-3.0, -0.005, 240)
    grid = re[None, :] + 1j * im[:, None]
    resid = np.abs(k * k + 1.0 + grid * plasma_z(grid))
    # |g| of an analytic g has interior local minima only at its zeros; the
    # least-damped root is the one nearest the real axis
    inner = resid[1:-1, 1:-1]
    is_min = inner < 0.5
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            is_min &= inner <= resid[1 + di:resid.shape[0] - 1 + di,
                                     1 + dj:resid.shape[1] - 1 + dj]
    cands = grid[1:-1, 1:-1][is_min]
    zeta = complex(cands[np.argmax(cands.imag)])
    for _ in range(max_iter):
        z = plasma_z(zeta)
        g = k * k + 1.0 + zeta * z
        dg = z - 2.0 * zeta * (1.0 + zeta * z)
        step = g / dg
        zeta -= step
        if abs(step) < tol * abs(zeta):
            break
    else:
        raise RuntimeError(f"Newton did not converge for k = {k}")
    omega = SQRT2 * k * zeta
    return -omega.imag, omega.real


def gaussian_pv(x):
    """PV int phi'(u) / (u - x) du for the unit normal phi: sqrt(2) x D(x/sqrt2) - 1."""
    return SQRT2 * x * dawsn(x / SQRT2) - 1.0


def pair_dip_pv(v0, width):
    """PV of the projected derivative at the centre of the pair [N(v0,w) + N(-v0,w)]/2."""
    return 0.5 * (gaussian_pv(-v0 / width) + gaussian_pv(v0 / width)) / width ** 2


def double_bump_verdict(v0, width, period):
    """Penrose verdict of the 2D double bump (pair in v1, unit normal in v2)
    on the square box of side ``period``; returns (stable, worst margin).

    Along e = (cos t, sin t) the marginal is the pair at +-v0 cos t with
    width sqrt(width^2 cos^2 t + sin^2 t).  Its worst critical point is the
    centre (the PV at the two peaks is negative), so the profile is stable
    when every lattice vector has |k|^2 above that centre PV.  Every PV is
    below 0.285 / sigma^2 (sup of 2x D(x) - 1), which bounds the lattice
    vectors that need checking.
    """
    base = 2.0 * math.pi / period
    k2_max = 0.3 / min(width, 1.0) ** 2
    reach = int(math.ceil(math.sqrt(k2_max) / base))
    worst = math.inf
    for j1 in range(0, reach + 1):
        for j2 in range(-reach, reach + 1):
            if (j1, j2) <= (0, 0):
                continue
            k2 = base * base * (j1 * j1 + j2 * j2)
            cos_t = base * j1 / math.sqrt(k2)
            sigma = math.sqrt(width ** 2 * cos_t ** 2 + 1.0 - cos_t ** 2)
            worst = min(worst, k2 - pair_dip_pv(v0 * cos_t, sigma))
    return worst > 0.0, worst


def gagliardo_direct(vals, h, order, p):
    """Axis Gagliardo seminorm (p-th power) by the direct O(n^2) double sum.

    sum over i != j of |f_j - f_i|^p / |(j - i) h|^(1 + order p) times the
    cell h of x and the offset step h of t, without periodic wrap-around;
    leading axis only, summed over the remaining axes.
    """
    v = np.asarray(vals, dtype=float)
    n = v.shape[0]
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :]) * h
    np.fill_diagonal(dist, 1.0)
    weight = 1.0 / dist ** (1.0 + order * p)
    np.fill_diagonal(weight, 0.0)
    flat = v.reshape(n, -1)
    total = 0.0
    for col in flat.T:
        total += float(np.sum(np.abs(col[:, None] - col[None, :]) ** p * weight))
    return total * h * h


def fractional_norm_direct(vals, h, order, p):
    """W^{order,p} norm, 0 < order < 1, of a field on a uniform square grid:
    L^p part plus the axis Gagliardo sums along every axis (direct)."""
    v = np.asarray(vals, dtype=float)
    cell = h ** v.ndim
    acc = float(np.sum(np.abs(v) ** p)) * cell
    for ax in range(v.ndim):
        acc += gagliardo_direct(np.moveaxis(v, ax, 0), h, order, p) * cell / h
    return acc ** (1.0 / p)


def weighted_hsb_direct(values, vmax, s, b):
    """||(1 + |v|^2)^b (1 - Lap)^(s/2) f||_L2 on the grid [-vmax, vmax)^d,
    the fractional operator applied as a Fourier multiplier on the
    periodic extension."""
    values = np.asarray(values)
    n, d = values.shape[0], values.ndim
    h = 2.0 * vmax / n
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    v = -vmax + h * np.arange(n)
    xi2 = sum(np.meshgrid(*([xi ** 2] * d), indexing="ij"))
    v2 = sum(np.meshgrid(*([v ** 2] * d), indexing="ij"))
    smooth = np.fft.ifftn(np.fft.fftn(values) * (1.0 + xi2) ** (s / 2.0))
    if not np.iscomplexobj(values):
        smooth = smooth.real
    return math.sqrt(float(np.sum(np.abs((1.0 + v2) ** b * smooth) ** 2)) * h ** d)


def mixed_norm_modes_direct(modes, vmax, s_x, s_v, b):
    """sqrt(sum_k |k|^(2 s_x) ||h_k||^2_{H^{s_v, b}}), weight 1 at k = 0."""
    total = 0.0
    for k, hk in modes.items():
        k2 = float(sum(c * c for c in k))
        weight = 1.0 if k2 == 0.0 else k2 ** s_x
        total += weight * weighted_hsb_direct(hk, vmax, s_v, b) ** 2
    return math.sqrt(total)


def decay_norm_direct(series, s_x, s_v):
    """|| t^{s_v} E ||_{L^2_t H_x^{3/2 + s_x + s_v}} from (k2, t, E_k(t)) per
    stored mode, each standing for its +-k pair (factor two), by the
    trapezoid rule."""
    total = 0.0
    for k2, t, values in series:
        integrand = t ** (2.0 * s_v) * np.abs(values) ** 2
        integral = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t)))
        total += (1.0 if k2 == 0 else k2 ** (1.5 + s_x + s_v)) * 2.0 * integral
    return math.sqrt(total)


def rate_freq_from_maxima(t, e_l2sq, t_lo):
    """Damping rate and frequency of a single damped mode from its ||E||_2 series.

    ||E(t)|| ~ e^{-rate t} |cos(freq t + phase)| has maxima spaced by
    pi / freq whose heights fall like e^{-rate t}.  Each maximum is refined
    by a parabola through log ||E|| at its three samples; both laws are
    then least-squares lines.
    """
    t = np.asarray(t, dtype=float)
    y = 0.5 * np.log(np.asarray(e_l2sq, dtype=float))
    i = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    i = i[t[i] >= t_lo]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    off = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    tm = t[i] + off * (t[i + 1] - t[i])
    ym = y1 - 0.25 * (y0 - y2) * off
    rate = -np.polyfit(tm, ym, 1)[0]
    spacing = np.polyfit(np.arange(len(tm)), tm, 1)[0]
    return float(rate), float(math.pi / spacing), len(tm)
