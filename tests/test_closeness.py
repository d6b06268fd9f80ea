import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from vplab.closeness import (
    _GAG_BAND,
    Axis1D,
    fd_derivative,
    gagliardo_pow,
    lp_pow,
    wsp_norm_coupled,
    wsp_pow_separable,
)
from vplab.errors import ValidationError
from vplab.norms import fractional_wsp_norm
from vplab.profiles import VelocityGrid


def gagliardo_double_sum(vals, h, order, p, axis):
    """Oracle: sum over every ordered pair (i, j), i != j, along the axis."""
    v = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    n = v.shape[0]
    v = v.reshape(n, -1)
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    np.fill_diagonal(gap, np.inf)
    kernel = (gap * h) ** -(1.0 + order * p)
    diffs = np.abs(v[:, None, :] - v[None, :, :]) ** p
    return float(np.sum(kernel[:, :, None] * diffs)) * h * h


def _field(kind, n, cols, rng):
    i = np.arange(n)[:, None]
    if kind == "noise":
        return rng.standard_normal((n, cols))
    if kind == "walk":
        return np.cumsum(rng.standard_normal((n, cols)), axis=0)
    if kind == "bump":
        width = rng.uniform(n / 50.0, n / 4.0) + 1.0
        centre = rng.uniform(0.0, n)
        return np.exp(-((i - centre) / width) ** 2 / 2) * rng.uniform(0.5, 2.0, cols)
    # near-constant: differences around 1e-9 on a level of order one
    return 1.0 + 1e-9 * rng.standard_normal((n, cols))


class TestGagliardo:
    @settings(max_examples=80)
    @given(n=st.one_of(st.integers(2, _GAG_BAND + 2), st.integers(2, 600)),
           cols=st.integers(0, 5), axis=st.sampled_from((0, 1)),
           kind=st.sampled_from(("noise", "walk", "bump", "near_constant")),
           order=st.floats(0.05, 0.95), p=st.sampled_from((2.0, 1.5)),
           h=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_against_double_sum(self, n, cols, axis, kind, order, p, h, seed):
        vals = _field(kind, n, max(cols, 1), np.random.default_rng(seed))
        if cols == 0:
            vals, axis = vals[:, 0], 0
        elif axis == 1:
            vals = vals.T
        exact = gagliardo_double_sum(vals, h, order, p, axis)
        ours = gagliardo_pow(vals, h, order, p, axis)
        assert abs(ours - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_wide_transposed_field(self, axis, p):
        # 48 x 320 as the transpose of a C-ordered array: the axis-0 rows are
        # strided, and 320 columns are far more than the property draws
        rng = np.random.default_rng(7)
        base = _field("walk", 320, 48, rng) + _field("bump", 320, 48, rng)
        vals = base.T
        assert not vals.flags.c_contiguous
        exact = gagliardo_double_sum(vals, 0.05, 0.6, p, axis)
        ours = gagliardo_pow(vals, 0.05, 0.6, p, axis)
        assert abs(ours - exact) <= 1e-12 * exact

    def test_constant_and_single_point(self):
        assert gagliardo_pow(np.full(300, 2.5), 0.1, 0.5, 2.0) == 0.0
        assert gagliardo_pow(np.array([1.0]), 0.1, 0.5, 2.0) == 0.0


# ---------------------------------------------------------------------------
# oracles: the three W^{s,p} assemblies the one ``wsp_pow_separable`` replaced
# ---------------------------------------------------------------------------

class OracleAxis:
    """A 1D factor with the fourth-order stencil derivative."""

    def __init__(self, vals, h):
        self.vals, self.h = np.asarray(vals, dtype=float), h

    def lp(self, p):
        return lp_pow(self.vals, self.h, p)

    def gag(self, order, p):
        return gagliardo_pow(self.vals, self.h, order, p)

    def deriv(self):
        return OracleAxis(fd_derivative(self.vals, self.h), self.h)


def separable_oracle(axes, s, p):
    lps = [a.lp(p) for a in axes]
    total = math.prod(lps)
    if s == 0.0:
        return total
    if s < 1.0:
        for k, a in enumerate(axes):
            total += a.gag(s, p) * math.prod(lps[:k] + lps[k + 1:])
        return total
    derivs = [a.deriv() for a in axes]
    for k in range(len(axes)):
        dk = derivs[k].lp(p)
        total += dk * math.prod(lps[:k] + lps[k + 1:])
    if s > 1.0:
        for k in range(len(axes)):
            row = [derivs[j] if j == k else axes[j] for j in range(len(axes))]
            row_lp = [a.lp(p) for a in row]
            for l, a in enumerate(row):
                total += a.gag(s - 1.0, p) * math.prod(row_lp[:l] + row_lp[l + 1:])
    return total


def _fft_derivative(arr, h, axis):
    n = arr.shape[axis]
    xi = 2.0 * np.pi * sfft.fftfreq(n, d=h)
    shape = [1] * arr.ndim
    shape[axis] = n
    return sfft.ifft(sfft.fft(arr, axis=axis) * (1j * xi.reshape(shape)), axis=axis).real


def coupled_oracle(field2d, hx, hv, trans_axes, s, p):
    lps_t = [a.lp(p) for a in trans_axes]
    prod_t = math.prod(lps_t) if trans_axes else 1.0
    cell = hx * hv
    d_lp = float(np.sum(np.abs(field2d) ** p)) * cell

    def gag2d(arr, axis, order):
        step, other = (hx, hv) if axis == 0 else (hv, hx)
        return gagliardo_pow(arr, step, order, p, axis) * other

    total = d_lp * prod_t
    if s == 0.0:
        return total
    if s < 1.0:
        total += (gag2d(field2d, 0, s) + gag2d(field2d, 1, s)) * prod_t
        for k, a in enumerate(trans_axes):
            total += d_lp * a.gag(s, p) * math.prod(lps_t[:k] + lps_t[k + 1:])
        return total
    grads = [(_fft_derivative(field2d, hx, 0), None), (fd_derivative(field2d, hv, 1), None)]
    for k, a in enumerate(trans_axes):
        grads.append((field2d, (k, a.deriv())))
    for arr, trans_sub in grads:
        if trans_sub is None:
            t_lps, t_axes = lps_t, trans_axes
        else:
            k, da = trans_sub
            t_axes = [da if j == k else trans_axes[j] for j in range(len(trans_axes))]
            t_lps = [a.lp(p) for a in t_axes]
        pt = math.prod(t_lps) if t_lps else 1.0
        base = float(np.sum(np.abs(arr) ** p)) * cell
        total += base * pt
        if s > 1.0:
            total += (gag2d(arr, 0, s - 1.0) + gag2d(arr, 1, s - 1.0)) * pt
            for l, a in enumerate(t_axes):
                total += base * a.gag(s - 1.0, p) * math.prod(t_lps[:l] + t_lps[l + 1:])
    return total


def gridded_oracle(values, grid, s, p):
    """p-th power of the gridded W^{s,p} norm, spectral derivatives by fftn."""
    cell, h = grid.cell, grid.h
    acc = float(np.sum(np.abs(values) ** p)) * cell
    if s == 0.0:
        return acc
    if s < 1.0:
        for ax in range(grid.dim):
            acc += gagliardo_pow(values, h, s, p, ax) * (cell / h)
        return acc
    xi = grid.freqs()
    grads = []
    for ax in range(grid.dim):
        shape = [1] * values.ndim
        shape[ax] = grid.n
        grads.append(sfft.ifftn(sfft.fftn(values) * (1j * xi.reshape(shape))).real)
    for g in grads:
        acc += float(np.sum(np.abs(g) ** p)) * cell
    if s > 1.0:
        for g in grads:
            for ax in range(grid.dim):
                acc += gagliardo_pow(g, h, s - 1.0, p, ax) * (cell / h)
    return acc


def _sample(rng, shape):
    """Random field: a decaying envelope times noise plus a smooth bump."""
    out = rng.standard_normal(shape)
    for ax, n in enumerate(shape):
        x = np.linspace(-1.0, 1.0, n)
        env = np.exp(-x ** 2 / rng.uniform(0.1, 1.0))
        out = out * env.reshape([-1 if a == ax else 1 for a in range(len(shape))])
    return out + rng.uniform(0.0, 2.0)


_ORDERS = st.one_of(st.sampled_from((0.0, 1.0)),
                    st.floats(0.0, 2.0, exclude_max=True))


class TestWspAssembly:
    @settings(max_examples=60)
    @given(kind=st.sampled_from(("separable", "coupled", "gridded")),
           s=_ORDERS, p=st.sampled_from((1.5, 2.0)), n_trans=st.integers(0, 2),
           dim=st.sampled_from((1, 2)), seed=st.integers(0, 2 ** 32 - 1))
    def test_against_the_three_assemblies(self, kind, s, p, n_trans, dim, seed):
        rng = np.random.default_rng(seed)
        trans = [(_sample(rng, (int(rng.integers(2, 40)),)), rng.uniform(0.01, 1.0))
                 for _ in range(n_trans)]
        new_trans = [Axis1D(v, h) for v, h in trans]
        old_trans = [OracleAxis(v, h) for v, h in trans]
        if kind == "separable":
            # 1D decaying factors only: the first one plays the field
            v, h = _sample(rng, (int(rng.integers(2, 40)),)), rng.uniform(0.01, 1.0)
            ours = wsp_pow_separable([Axis1D(v, h)] + new_trans, s, p)
            exact = separable_oracle([OracleAxis(v, h)] + old_trans, s, p)
        elif kind == "coupled":
            # a 2D factor, periodic in x and decaying in v
            nx, nv = (int(k) for k in rng.integers(2, 24, size=2))
            field2d = _sample(rng, (nx, nv))
            hx, hv = rng.uniform(0.01, 1.0, size=2)
            ours = wsp_norm_coupled(field2d, hx, hv, new_trans, s, p)
            exact = coupled_oracle(field2d, hx, hv, old_trans, s, p)
        else:
            # a fully periodic 1D or 2D factor on a velocity grid
            grid = VelocityGrid(dim, rng.uniform(1.0, 8.0), int(rng.choice((4, 8, 16, 32))))
            vals = _sample(rng, grid.shape)
            ours = fractional_wsp_norm(vals, grid, s, p) ** p
            exact = gridded_oracle(vals, grid, s, p)
        assert abs(ours - exact) <= 1e-12 * exact

    def test_coupled_against_double_sum(self):
        # s = 0.5 with one transverse factor: ||D||^p ||t||^p plus the
        # Gagliardo rows of both field axes and of the transverse factor
        rng = np.random.default_rng(7)
        field2d = _sample(rng, (24, 40))
        t = _sample(rng, (30,))
        hx, hv, ht, p = 2.0 * np.pi / 24, 0.3, 0.2, 2.0
        d_lp = float(np.sum(field2d ** 2)) * hx * hv
        t_lp = float(np.sum(t ** 2)) * ht
        exact = (d_lp * t_lp
                 + (gagliardo_double_sum(field2d, hx, 0.5, p, 0) * hv
                    + gagliardo_double_sum(field2d, hv, 0.5, p, 1) * hx) * t_lp
                 + d_lp * gagliardo_double_sum(t, ht, 0.5, p, 0))
        ours = wsp_norm_coupled(field2d, hx, hv, [Axis1D(t, ht)], 0.5, p)
        assert abs(ours - exact) <= 1e-12 * exact

    def test_periodic_derivative_is_spectral(self):
        # one periodic axis, one decaying: the x derivative of sin(3x) is exact
        x = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        v = np.linspace(-5.0, 5.0, 64)
        g = np.exp(-v ** 2)
        factor = Axis1D(np.outer(np.sin(3 * x), g), (x[1] - x[0], v[1] - v[0]),
                        periodic=(True, False))
        dx, dv = factor.grad()
        assert np.max(np.abs(dx.vals - 3 * np.outer(np.cos(3 * x), g))) < 1e-13
        assert np.array_equal(dv.vals, fd_derivative(factor.vals, v[1] - v[0], 1))
        assert dx.h == factor.h and dx.periodic == (True, False)

    def test_order_out_of_range(self):
        with pytest.raises(ValidationError, match="0 <= s < 2"):
            wsp_norm_coupled(np.ones((4, 4)), 0.1, 0.1, [], 2.0, 2.0)
