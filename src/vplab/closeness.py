"""Distance of a constructed travelling wave to its homogeneous base state.

The distance is measured in the triple norm

    L^1 + second-moment-weighted L^1 + W^{s,p}

over one spatial period times velocity space.  Every contribution is
separable or two-scale (broad base plus narrow feature), so each piece is
evaluated on its own adapted grid by one routine, ``_piece``: the feature,
renormalisation, scaling and wave pieces differ only in their samples.
``wsp_pow_separable`` is the one W^{s,p} assembly, a tensor product of
``Axis1D`` factors of any rank, each axis periodic (spectral derivative) or
decaying (fourth-order stencil); ``_piece`` and ``norms.fractional_wsp_norm``
call it once.  For p = 2 each axis Gagliardo seminorm is one spectral
quadratic form (``gagliardo_pow``): the discrete, no-wrap version of the
Fourier-multiplier identity for W^{s,2}.  Pieces combine by the triangle
inequality (``ClosenessReport.of``), so the total is a certified upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .errors import ValidationError
from .profiles import SQRT2PI, fourier_multiplier

_GL1 = np.polynomial.legendre.leggauss(1)
_GL8 = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# 1D ingredients on adapted uniform grids
# ---------------------------------------------------------------------------

def lp_pow(vals, h, p):
    """p-th power of the L^p norm on a uniform grid (any dimension)."""
    return float(np.sum(np.abs(vals) ** p)) * h


def _offset_symbol(w, size):
    """K_k = 4 sum_m w_m sin^2(pi k m/size), k <= size/2, to full relative accuracy.

    2 (sum w - Re W_k) cancels at small k, where K_k = 4 sin^2(pi k/size)
    sum_j c_|j| cos(2 pi k j/size) with Fejer weights c_j = sum_{m>j} w_m (m - j)
    >= 0 does not; each k takes the form with the smaller roundoff scale."""
    s2 = np.sin(np.pi * np.arange(size // 2 + 1) / size) ** 2
    direct = 2.0 * (w.sum() - sfft.rfft(np.concatenate(([0.0], w)), n=size).real)
    c = np.cumsum(np.cumsum(w[::-1]))[::-1]
    fejer = 4.0 * s2 * (2.0 * sfft.rfft(c, n=size).real - c[0])
    return np.where(4.0 * s2 * c.sum() < w.sum(), fejer, direct)


def gagliardo_pow(vals, h, order, p, axis=0):
    """p-th power of the axis Gagliardo seminorm of fractional order in (0,1).

    Sums |v(i + m) - v(i)|^p / (m h)^(1 + order p) over every offset m >= 1,
    without wrap-around, and over the other axes.  For p = 2 it is one
    spectral quadratic form, one FFT per axis: a column centred and
    zero-padded to N >= 2n - 1 has circular offset sums (1/N) sum_k |U_k|^2
    4 sin^2(pi k m/N) = S(m) + T(m), the no-wrap sums plus the pairs with the
    padding T(m) = sum_{j<m} v_j^2 + sum_{i>=n-m} v_i^2, so sum_m w_m S(m) =
    (1/N) sum_k |U_k|^2 K_k - sum_m w_m T(m) with K of ``_offset_symbol``.
    """
    v = np.asarray(vals, dtype=float)
    n = v.shape[axis]
    w = (np.arange(1, n) * h) ** -(1.0 + order * p)
    if p != 2.0 or n < 2:
        v = np.ascontiguousarray(np.moveaxis(v, axis, 0).reshape(n, -1))
        sums = [np.sum(np.abs((v[m:] - v[:-m]).ravel()) ** p) for m in range(1, n)]
        return 2.0 * h * h * float(np.asarray(sums, dtype=float) @ w)
    # differences are shift-invariant: centring keeps the mean out of T(m)
    v = v - v.mean(axis=axis, keepdims=True)
    others = tuple(a for a in range(v.ndim) if a != axis)
    size = sfft.next_fast_len(2 * n - 1, real=True)
    spec = sfft.rfft(v, n=size, axis=axis)
    power = np.sum(spec.real ** 2 + spec.imag ** 2, axis=others)
    power[1:(size + 1) // 2] *= 2.0  # k and size - k
    sq = np.sum(v * v, axis=others)
    ends = np.cumsum(sq)[:-1] + np.cumsum(sq[::-1])[:-1]
    return 2.0 * h * h * (float(power @ _offset_symbol(w, size)) / size - float(w @ ends))


def fd_derivative(vals, h, axis=0):
    """Fourth-order centred derivative on a decaying window (zero-padded)."""
    v = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    pad = np.zeros((2,) + v.shape[1:])
    ext = np.concatenate([pad, v, pad], axis=0)
    d = (-ext[4:] + 8 * ext[3:-1] - 8 * ext[1:-3] + ext[:-4]) / (12.0 * h)
    return np.moveaxis(d, 0, axis)


@dataclass
class Axis1D:
    """One factor of a tensor product, sampled on its own uniform grid.

    ``vals`` may have any rank; ``h`` is one spacing per axis and
    ``periodic`` one flag per axis (a scalar means every axis).  A periodic
    axis is the box of its FFT and takes its derivative spectrally; any
    other axis decays at both ends and takes ``fd_derivative``.  Gagliardo
    offsets never wrap on either kind.
    """

    vals: np.ndarray
    h: float | tuple
    periodic: bool | tuple = False

    def __post_init__(self):
        self.vals = np.asarray(self.vals, dtype=float)
        self.h = tuple(float(x) for x in np.broadcast_to(self.h, self.vals.ndim))
        self.periodic = tuple(bool(x) for x in np.broadcast_to(self.periodic, self.vals.ndim))

    def lp(self, p):
        return lp_pow(self.vals, math.prod(self.h), p)

    def gag(self, order, p):
        """Axis-split Gagliardo seminorms, p-th powers summed over the axes."""
        hs = self.h
        return sum(gagliardo_pow(self.vals, h, order, p, ax) * math.prod(hs[:ax] + hs[ax + 1:])
                   for ax, h in enumerate(hs))

    def grad(self):
        """One factor per axis: the field differentiated along that axis."""
        return [Axis1D(self._derivative(ax), self.h, self.periodic)
                for ax in range(self.vals.ndim)]

    def _derivative(self, ax):
        h = self.h[ax]
        if not self.periodic[ax]:
            return fd_derivative(self.vals, h, ax)
        return fourier_multiplier(self.vals, (h,), (ax,), lambda xi: 1j * xi)


def _rows(axes, order, p):
    """||f||_p^p of a tensor product plus, at order > 0, its Gagliardo rows."""
    lps = [a.lp(p) for a in axes]
    total = math.prod(lps)
    if order > 0.0:
        for k, a in enumerate(axes):
            total += a.gag(order, p) * math.prod(lps[:k] + lps[k + 1:])
    return total


def wsp_pow_separable(axes, s, p):
    """p-th power of the W^{s,p} norm of a tensor product of factors.

    Below s = 1: ||f||_p^p plus the order-s Gagliardo row of every axis of
    every factor.  For s in [1, 2): ||f||_p^p plus one gradient row per
    axis, ||D_a f||_p^p with its own Gagliardo rows of order s - 1.
    """
    if not 0.0 <= s < 2.0:
        raise ValidationError("separable W^{s,p} supports 0 <= s < 2")
    axes = list(axes)
    if s < 1.0:
        return _rows(axes, s, p)
    total = math.prod(a.lp(p) for a in axes)
    for k, a in enumerate(axes):
        for d in a.grad():
            total += _rows(axes[:k] + [d] + axes[k + 1:], s - 1.0, p)
    return total


def wsp_norm_coupled(field2d, hx, hv, trans_axes, s, p):
    """W^{s,p} norm (p-th power) of D(x, v1), x the periodic box, times
    transverse 1D factors."""
    coupled = Axis1D(field2d, (hx, hv), periodic=(True, False))
    return wsp_pow_separable([coupled] + list(trans_axes), s, p)


# ---------------------------------------------------------------------------
# one distance piece per mixture term
# ---------------------------------------------------------------------------

def _gauss_axis(width):
    v = np.linspace(-10.0 * width, 10.0 * width, 2048)
    return Axis1D(np.exp(-v ** 2 / (2 * width ** 2)) / (width * SQRT2PI), v[1] - v[0])


def _window(terms, n, margin):
    """n points on +-(max_t (|m_t| + 12 w_t) + margin) in v1."""
    reach = max(abs(t.mean[0]) + 12.0 * t.widths[0] for t in terms)
    return np.linspace(-(reach + margin), reach + margin, n)


def _piece(vals, h, v, term, s, p):
    """(L1, second moment, W^{s,p}) of samples over (x?, v1), v1 = ``v`` last
    and x the periodic box, times the term's transverse Gaussians sampled
    centred (shifts keep norms); moment weight v1^2 + sum_t (m_t^2 + w_t^2)."""
    field = Axis1D(vals, h, periodic=(True,) * (np.ndim(vals) - 1) + (False,))
    cell = math.prod(field.h)
    mom_t = sum(m ** 2 + w ** 2 for m, w in zip(term.mean[1:], term.widths[1:]))
    absv = np.abs(field.vals)
    trans = [_gauss_axis(w) for w in term.widths[1:]]
    return (float(np.sum(absv)) * cell, float(np.sum(absv * (v ** 2 + mom_t))) * cell,
            wsp_pow_separable([field] + trans, s, p) ** (1.0 / p))


@dataclass
class ClosenessReport:
    """Certified upper bound of the triple-norm distance, with its breakdown."""

    l1: float
    second_moment: float
    wsp: float
    pieces: dict
    s: float
    p: float

    @classmethod
    def of(cls, pieces, info, s, p):
        """Triangle sum of (l1, second moment, wsp) triples, added in order."""
        l1, mom, wsp = (sum(col) for col in zip(*pieces))
        return cls(l1, mom, wsp, info, s, p)

    @property
    def total(self):
        return self.l1 + self.second_moment + self.wsp

    def to_json(self):
        return {
            "l1": self.l1, "second_moment": self.second_moment, "wsp": self.wsp,
            "total": self.total, "s": self.s, "p": self.p,
            "upper_bound": True, "pieces": self.pieces,
        }


def modified_profile_distance(mp, s, p):
    """Distance of the modified profile to its base, all three norms.

    Cases 1-2: triangle over the added feature (share 1) and the
    renormalisation piece (share C0 gamma^2 / (1 + C0 gamma^2) of each base
    term).  Case 3: exact separable difference of the scaled pairs.  Every
    piece is a term of an ``even_part``.
    """
    base = mp.f1.closure.even_part().terms
    if mp.bump is not None:
        renorm = mp.C0 * mp.gamma ** 2 / (1.0 + mp.C0 * mp.gamma ** 2)
        shares = [(1.0, t) for t in mp.bump.even_part().terms] + [(renorm, t) for t in base]
        pieces = []
        for share, t in shares:
            v = _window([t], 4096, 0.0)
            vals = share * abs(t.weight) * t.even_val(v ** 2)
            pieces.append(_piece(vals, v[1] - v[0], v, t, s, p))
        return ClosenessReport.of(pieces, {"kind": "feature+renorm"}, s, p)

    # case 3: per-term difference shares the transverse factor exactly
    pieces = []
    for t0, t1 in zip(base, mp.mixture.even_part().terms):
        v = _window([t0, t1], 8192, 0.0)
        diff = t0.weight * (t1.even_val(v ** 2) - t0.even_val(v ** 2))
        pieces.append(_piece(diff, v[1] - v[0], v, t0, s, p))
    return ClosenessReport.of(pieces, {"kind": "scaling"}, s, p)


def wave_profile_distance(wave, s, p):
    """Distance of the wave to its modified profile over one period.

    Each term of the mixture's ``even_part`` contributes the cancellation-free field
    D_t(x, v1) = w_t [A_t(v1^2 - 2 beta(x)) - A_t(v1^2)], evaluated by the
    mean-value identity on the term's adapted window; pieces combine by the
    triangle inequality.
    """
    n_x = 192
    xs = np.linspace(0.0, wave.T1, n_x, endpoint=False)
    hx = wave.T1 / n_x
    beta = wave.beta_at(xs)
    b_max = float(np.max(np.abs(beta)))
    margin = math.sqrt(2.0 * b_max) * 1.5
    pieces = []
    for t in wave.mp.mixture.even_part().terms:
        v = _window([t], 1024, margin)
        y0 = v[None, :] ** 2
        # D = -2 beta int_0^1 A'(y0 - 2 beta s) ds     (Gauss-Legendre in s);
        # A' varies by eps = 2 max|beta| / w1^2 over s, so at eps <= 1e-8 the
        # one-node rule's error is below roundoff
        gl_x, gl_w = _GL8 if 2.0 * b_max / t.widths[0] ** 2 > 1e-8 else _GL1
        acc = np.zeros((n_x, v.size))
        for a, wq in zip(0.5 * (gl_x + 1.0), 0.5 * gl_w):
            y = y0 - (2.0 * a) * beta[:, None]
            acc += wq * t.even_dval(y)
        D = -2.0 * t.weight * beta[:, None] * acc
        pieces.append(_piece(D, (hx, v[1] - v[0]), v, t, s, p))
    return ClosenessReport.of(pieces, {"kind": "wave-vs-profile"}, s, p)


def closeness_report(wave, s, p):
    """Total certified distance wave -> base homogeneous state (triangle sum)."""
    d_mod = modified_profile_distance(wave.mp, s, p)
    d_wave = wave_profile_distance(wave, s, p)
    pieces = {"modified_vs_base": d_mod.to_json(), "wave_vs_modified": d_wave.to_json()}
    return ClosenessReport.of([(d.l1, d.second_moment, d.wsp) for d in (d_mod, d_wave)],
                              pieces, s, p)
