import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from vplab import closeness
from vplab.closeness import (
    Axis1D,
    closeness_report,
    fd_derivative,
    gagliardo_pow,
    lp_pow,
    modified_profile_distance,
    wave_profile_distance,
    wsp_norm_coupled,
    wsp_pow_separable,
)
from vplab.errors import ValidationError
from vplab.bgk import build_modified
from vplab.norms import fractional_wsp_norm
from vplab.profiles import GaussianMixture, GaussianTerm, Profile, VelocityGrid, make_builtin


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
    @given(n=st.one_of(st.integers(2, 34), st.integers(2, 600)),
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


    @settings(max_examples=80)
    @given(n=st.integers(2, 400), cols=st.integers(1, 3),
           kind=st.sampled_from(("offset_cosine", "ramp", "offset_near_constant")),
           order=st.floats(0.05, 0.95), h=st.floats(1e-3, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ends_that_do_not_vanish(self, n, cols, kind, order, h, seed):
        # the padded spectral form must remove the boundary pairs T(m) that
        # the zero padding adds: fields whose centred ends stay large
        rng = np.random.default_rng(seed)
        i = np.arange(n)[:, None]
        level = rng.uniform(-3.0, 3.0, cols)
        # a periodic axis sampled without its endpoint, like the coupled field's x
        wave = np.cos(2 * np.pi * rng.integers(1, 4, cols) * i / n + rng.uniform(0, 2 * np.pi, cols))
        if kind == "offset_cosine":
            vals = level + wave
        elif kind == "ramp":
            vals = level + rng.uniform(-2.0, 2.0, cols) * i / n
        else:
            vals = level + 1e-9 * (wave + i / n)
        exact = gagliardo_double_sum(vals, h, order, 2.0, 0)
        assert abs(gagliardo_pow(vals, h, order, 2.0) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("order", [0.8, 0.95])
def test_smooth_ramp_needs_the_small_angle_symbol(order):
    # a ramp's power sits at the smallest k, where 2 (sum w - Re W_k) cancels
    # (7e-12 at order 0.95 with that form alone)
    vals = 0.5 + np.arange(1000) / 1000.0
    exact = gagliardo_double_sum(vals, 0.01, order, 2.0, 0)
    assert abs(gagliardo_pow(vals, 0.01, order, 2.0) - exact) <= 1e-12 * exact


def band_correlation_gagliardo(vals, h, order, axis=0):
    """Oracle: the p = 2 routine the spectral form replaced.  The first 32
    offset sums are dot products d @ d; the others are correlations (v with
    v, v^2 with ones) read from one inverse FFT of zero-padded spectra."""
    v = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    n = v.shape[0]
    v = np.ascontiguousarray(v.reshape(n, -1))
    offsets = np.arange(1, n)
    sums = np.empty(n - 1)
    band = min(n - 1, 32)
    for m in range(1, band + 1):
        d = (v[m:] - v[:-m]).ravel()
        sums[m - 1] = d @ d
    if band < n - 1:
        v = v - v.mean(axis=0)
        size = sfft.next_fast_len(2 * n - 1, real=True)
        spec = sfft.rfft(v, n=size, axis=0)
        squares = sfft.rfft(np.sum(v * v, axis=1), n=size)
        ones = sfft.rfft(np.ones(n), n=size)
        corr = sfft.irfft(2.0 * (squares.conj() * ones).real
                          - 2.0 * np.sum(spec.real ** 2 + spec.imag ** 2, axis=1), n=size)
        sums[band:] = np.maximum(corr[band + 1:n], 0.0)
    return 2.0 * h * h * float(sums @ (offsets * h) ** -(2.0 * order + 1.0))


def _pipeline_fields():
    """The fields the budget pipeline hands to the p = 2 seminorm: the adapted
    pair axes (n = 4096), a case-3 scaled difference (8192), the benchmark's
    narrow factor (8193) and a coupled wave field (192 x 1024), each with
    its derivative, since s = 1.2 takes Gagliardo rows of the gradient."""
    m2 = make_builtin("maxwellian", VelocityGrid(2, 8.0, 256))
    mp = build_modified(m2, 1.6e-7, 1.06, 1, v0=3.0)
    out = []
    for term in mp.mixture.even_part().terms:
        v = closeness._window([term], 4096, 0.0)
        h = v[1] - v[0]
        vals = term.even_val(v ** 2)
        out += [(vals, h, 0), (fd_derivative(vals, h), h, 0)]
    t0 = m2.closure.terms[0]
    t1 = m2.closure.scaled_v1(0.93).terms[0]
    v = np.linspace(-12.0, 12.0, 8192)
    diff = t1.even_val(v ** 2) - t0.even_val(v ** 2)
    out += [(diff, v[1] - v[0], 0), (fd_derivative(diff, v[1] - v[0]), v[1] - v[0], 0)]
    v = np.linspace(-4.0, 4.0, 8193)
    narrow = np.exp(-(v / 0.125) ** 2 / 2) * np.exp(-v ** 2 / 0.5)
    out += [(narrow, v[1] - v[0], 0), (fd_derivative(narrow, v[1] - v[0]), v[1] - v[0], 0)]
    x = np.linspace(0.0, 2 * np.pi, 192, endpoint=False)
    v = np.linspace(-14.0, 14.0, 1024)
    beta = 1e-3 * (np.cos(x) + 0.2 * np.cos(2 * x) + 0.3)
    field = Axis1D(-2.0 * beta[:, None] * t0.even_dval(v ** 2)[None, :],
                   (x[1] - x[0], v[1] - v[0]), periodic=(True, False))
    for f in [field] + field.grad():
        out += [(f.vals, f.h[0], 0), (f.vals, f.h[1], 1)]
    return out


@pytest.mark.parametrize("order", [0.2, 0.6])
def test_spectral_form_matches_band_correlation(order):
    for vals, h, axis in _pipeline_fields():
        old = band_correlation_gagliardo(vals, h, order, axis)
        assert abs(gagliardo_pow(vals, h, order, 2.0, axis) - old) <= 1e-12 * old, (vals.shape, axis)


class TestMeanValueNodes:
    """``wave_profile_distance`` takes one mean-value node on a term whose
    eps = 2 max|beta| / w1^2 is at most 1e-8, and eight otherwise."""

    def test_roundoff_wave_equals_eight_nodes(self, budget_wave, monkeypatch):
        wave = budget_wave[0]
        ours = wave_profile_distance(wave, 1.2, 2.0)
        monkeypatch.setattr(closeness, "_GL1", closeness._GL8)
        eight = wave_profile_distance(wave, 1.2, 2.0)
        for key in ("l1", "second_moment", "wsp"):
            assert abs(getattr(ours, key) - getattr(eight, key)) <= 1e-14 * getattr(eight, key)
        # the Maxwellian term (eps 2e-15) did take the one-node rule
        monkeypatch.setattr(closeness, "_GL1", (np.array([np.nan]), np.array([np.nan])))
        assert math.isnan(wave_profile_distance(wave, 1.2, 2.0).total)

    def test_steady_wave_keeps_eight_nodes(self, steady_wave, monkeypatch):
        ours = wave_profile_distance(steady_wave, 1.2, 2.0)
        monkeypatch.setattr(closeness, "_GL1", (np.array([np.nan]), np.array([np.nan])))
        assert wave_profile_distance(steady_wave, 1.2, 2.0).total == ours.total


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
    xi = 2 * np.pi * sfft.fftfreq(grid.n, d=grid.h)
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


class TestPieces:
    """Every piece of the certificate goes through ``closeness._piece``."""

    def test_feature_and_renorm_against_closed_forms(self, grid2, monkeypatch):
        # L1 = share |w| and moment = share |w| (m^2 + w^2 + sum_t (m_t^2 + w_t^2))
        # for the unit-mass pair of every feature (share 1) and base term
        # (share C0 gamma^2 / (1 + C0 gamma^2)); one base term sits at
        # transverse mean 0.5
        closure = GaussianMixture(2, [
            GaussianTerm(0.6, (0.0, 0.5), (1.0, 0.8)),
            GaussianTerm(0.2, (1.5, 0.0), (0.7, 1.2)),
            GaussianTerm(0.2, (-1.5, 0.0), (0.7, 1.2))])
        mp = build_modified(Profile.from_closure(grid2, closure), 0.1, 1.0, 1, v0=3.0)
        seen = []
        real_piece = closeness._piece

        def recorded(vals, h, v, term, s, p):
            seen.append(real_piece(vals, h, v, term, s, p))
            return seen[-1]

        monkeypatch.setattr(closeness, "_piece", recorded)
        report = modified_profile_distance(mp, 1.2, 2.0)
        renorm = mp.C0 * mp.gamma ** 2 / (1.0 + mp.C0 * mp.gamma ** 2)
        shares = ([(1.0, t) for t in mp.bump.even_part().terms]
                  + [(renorm, t) for t in closure.even_part().terms])
        assert [t.mean[1] for _, t in shares[1:]] == [0.5, 0.0]
        assert len(seen) == len(shares) == 3
        for (l1, mom, _), (share, t) in zip(seen, shares):
            mass = share * abs(t.weight)
            moment = mass * sum(m ** 2 + w ** 2 for m, w in zip(t.mean, t.widths))
            assert abs(l1 - mass) <= 1e-12 * mass
            assert abs(mom - moment) <= 1e-12 * moment
        assert report.l1 == sum(piece[0] for piece in seen)
        assert report.second_moment == sum(piece[1] for piece in seen)

    @pytest.mark.parametrize("which, kind", [("budget", "feature+renorm"),
                                             ("steady", "scaling")])
    def test_report_structure(self, budget_wave, steady_wave, which, kind):
        # the CLI manifest writes this dictionary under "closeness"
        wave = budget_wave[0] if which == "budget" else steady_wave
        out = closeness_report(wave, 1.2, 2.0).to_json()
        assert set(out) == {"l1", "second_moment", "wsp", "total", "s", "p",
                            "upper_bound", "pieces"}
        parts = out["pieces"]
        assert set(parts) == {"modified_vs_base", "wave_vs_modified"}
        assert parts["modified_vs_base"]["pieces"] == {"kind": kind}
        assert parts["wave_vs_modified"]["pieces"] == {"kind": "wave-vs-profile"}
        for key in ("l1", "second_moment", "wsp"):
            assert out[key] == parts["modified_vs_base"][key] + parts["wave_vs_modified"][key]
        assert out["total"] == out["l1"] + out["second_moment"] + out["wsp"]
        assert (out["s"], out["p"], out["upper_bound"]) == (1.2, 2.0, True)
