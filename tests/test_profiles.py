from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import continued_dval, continued_val, cutoff_sigma, pv_exact
from vplab import profiles
from vplab.bgk import _RHO
from vplab.errors import ValidationError
from vplab.profiles import (
    GaussianMixture,
    GaussianTerm,
    Profile,
    VelocityGrid,
    even_pair,
    fourier_multiplier,
    make_builtin,
    project,
    project_field,
    smooth_step,
)

SQRT2PI = np.sqrt(2 * np.pi)


def brute_pv_over_v(func, lo=-14.0, hi=14.0, n=200001):
    """Independent oracle: fine Simpson quadrature of f'(v)/v with the
    removable singularity filled by the second derivative."""
    from scipy.integrate import simpson

    v = np.linspace(lo, hi, n)
    h = 1e-6
    deriv = (func(v + h) - func(v - h)) / (2 * h)
    vals = np.where(np.abs(v) > 1e-12, deriv / np.where(np.abs(v) > 1e-12, v, 1.0),
                    (func(v + h) - 2 * func(v) + func(v - h)) / h ** 2)
    return simpson(vals, x=v)


class TestGridQuadrature:
    def test_gaussian_convergence_order(self):
        # quadrature of a smooth compactly-decaying function converges
        # far faster than 4th order on dyadic refinement
        errs = []
        for n in (16, 32, 64):
            g = VelocityGrid(1, 8.0, n)
            vals = np.exp(-g.axis() ** 2 / 2) / SQRT2PI
            errs.append(abs(g.integrate(vals) - 1.0))
        assert errs[1] <= errs[0] / 16 + 1e-14
        assert errs[2] <= 1e-13

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            VelocityGrid(4, 8.0, 64)
        with pytest.raises(ValidationError):
            VelocityGrid(1, 8.0, 100)  # not a power of two
        with pytest.raises(ValidationError):
            VelocityGrid(1, -1.0, 64)
        # nan once passed the sign check and gave a NaN profile whose tail
        # check compared false too: penrose reported stable with no entries
        for vmax in (float("nan"), float("inf")):
            with pytest.raises(ValidationError,
                               match=f"vmax must be finite and positive, got {vmax}"):
                VelocityGrid(2, vmax, 64)


class TestCutoffs:
    def test_smooth_step_ends(self):
        assert smooth_step(-1.0) == 0.0
        assert smooth_step(2.0) == 1.0
        t = np.linspace(0.01, 0.99, 101)
        s = smooth_step(t)
        assert np.all(np.diff(s) >= 0)
        mid = (t > 0.2) & (t < 0.8)
        assert np.all(np.diff(s[mid]) > 0)

    def test_cutoff_plateaus(self):
        assert np.all(cutoff_sigma(np.linspace(-1, 1, 11)) == 1.0)
        assert np.all(cutoff_sigma(np.array([-2.5, 2.0, 3.0])) == 0.0)
        mid = cutoff_sigma(np.array([1.5]))
        assert 0.0 < mid[0] < 1.0


class TestBuiltins:
    def test_maxwellian_d2(self, maxwellian2):
        # f(v) = (2 pi)^{-1} exp(-|v|^2/2), unit mass, second moment 2
        v = maxwellian2.grid.mesh()
        expect = np.exp(-(v[0] ** 2 + v[1] ** 2) / 2) / (2 * np.pi)
        assert np.allclose(maxwellian2.values, expect, atol=1e-15)
        integrate = maxwellian2.grid.integrate
        assert abs(integrate(maxwellian2.values) - 1.0) < 1e-12
        assert np.allclose([integrate(g * maxwellian2.values) for g in v], 0.0, atol=1e-13)
        assert abs(integrate((v[0] ** 2 + v[1] ** 2) * maxwellian2.values) - 2.0) < 1e-10

    def test_double_bump_pv_positive(self, double_bump2):
        # the offset pair must carry a positive PV integral; checked against
        # a brute-force quadrature oracle of F1'(v)/v
        def f1(v):
            return np.exp(-((v - 3.0) ** 2) / 2) + np.exp(-((v + 3.0) ** 2) / 2)

        oracle = brute_pv_over_v(f1) / (2 * SQRT2PI)  # normalised pair
        exact = double_bump2.closure.pv_d_integral()
        assert oracle > 0
        assert abs(exact - oracle) < 1e-6
        assert abs(exact - 0.17950063750061096) < 1e-12

    @pytest.mark.parametrize("name, params, shown", [
        ("double_bump", {"v0": 3.0, "width": -1.0}, "-1.0"),
        ("double_bump", {"v0": 3.0, "width": 0.0}, "0.0"),
        ("double_bump", {"v0": 3.0, "width": float("nan")}, "nan"),
        ("product", {"factors": [("gaussian", {}), ("gaussian", {"width": 0.0})]}, "0.0"),
        ("product", {"factors": [("double_bump", {"v0": 3.0, "width": float("inf")}),
                                 ("gaussian", {})]}, "inf"),
    ])
    def test_nonpositive_width_rejected(self, name, params, shown):
        # a width <= 0 once gave negative mass, a ZeroDivisionError or an
        # all-NaN profile that slipped past the tail check
        with pytest.raises(ValidationError, match=f"width must be finite and positive, got {shown}"):
            make_builtin(name, VelocityGrid(2, 16.0, 64), **params)

    @pytest.mark.parametrize("v0, shown", [(float("nan"), "nan"), (float("inf"), "inf"),
                                           (-float("inf"), "-inf"), (0.0, "0.0"),
                                           (-1.0, "-1.0")])
    @pytest.mark.parametrize("name", ["double_bump", "product"])
    def test_nonfinite_v0_rejected(self, name, v0, shown):
        # nan once gave an all-NaN profile and inf a zero-mass one: both
        # compare false against v0 <= 0 and the tail check; a product's
        # factor once took v0 = 0 as a centred Gaussian and v0 < 0 as the
        # mirrored pair
        params = ({"v0": v0} if name == "double_bump" else
                  {"factors": [("double_bump", {"v0": v0}), ("gaussian", {})]})
        match = (f"v0 must be finite, got {shown}" if not np.isfinite(v0)
                 else "double_bump requires v0 > 0")
        with pytest.raises(ValidationError, match=match):
            make_builtin(name, VelocityGrid(2, 16.0, 64), **params)

    def test_tail_requirement(self):
        # double bump at v0=3 on vmax=8 violates the 1e-14 tail rule
        with pytest.raises(ValidationError):
            make_builtin("double_bump", VelocityGrid(2, 8.0, 256), v0=3.0)

    def test_nan_tail_refused(self, monkeypatch):
        monkeypatch.setattr(VelocityGrid, "boundary_residual", lambda self, vals: float("nan"))
        with pytest.raises(ValidationError, match="builtin tail nan not below 1e-14"):
            make_builtin("maxwellian", VelocityGrid(1, 8.0, 64))


class TestEvenContinuation:
    @settings(max_examples=30)
    @given(a=st.floats(0.0, 20.0), log_w=st.floats(-6.0, 0.5))
    def test_matches_continued_forms(self, a, log_w):
        # A(y) and A'(y) against the cosh/cos continued forms they replace:
        # real y from -9 w1^2 across the switch at w1^2/4 to (v0 + 12 w1)^2,
        # then the unit-width pair at the points y = u^2 - rho e^{i theta} of
        # the Taylor circle of bgk._unit_kernel (the cosh form is finite
        # there for a <= 20)
        w1 = 10.0 ** log_w
        term = GaussianTerm(1.0, (a * w1,), (w1,))
        y = w1 ** 2 * np.concatenate([np.linspace(-9.0, (a + 12.0) ** 2, 2001),
                                      0.25 + np.linspace(-1e-3, 1e-3, 21)])
        for new, old in ((term.even_val(y), continued_val(term, y)),
                         (term.even_dval(y), continued_dval(term, y))):
            assert new.dtype == np.float64
            assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
        unit = GaussianTerm(1.0, (a,), (1.0,))
        u = np.linspace(0.0, a + 10.0, 129)
        y = u[None, :] ** 2 - _RHO * np.exp(2j * np.pi * np.arange(112) / 112)[:, None]
        new, old = unit.even_dval(y), continued_dval(unit, y)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))


@st.composite
def mirror_mixtures(draw):
    """1-4 terms in d = 1 or 2, each drawn with or without a mirror v1 -> -v1
    of its own weight; some terms repeat."""
    dim = draw(st.sampled_from((1, 2)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        mean = (draw(st.floats(-3.0, 3.0)),) + (draw(st.floats(-1.0, 1.0)),) * (dim - 1)
        widths = (draw(st.floats(0.3, 1.5)),) + (draw(st.floats(0.5, 1.5)),) * (dim - 1)
        term = GaussianTerm(draw(st.floats(0.1, 1.0)), mean, widths)
        terms.append(term)
        if draw(st.booleans()):
            terms.append(replace(term, weight=draw(st.floats(0.1, 1.0)),
                                 mean=(-mean[0],) + mean[1:]))
        if draw(st.booleans()):
            terms.append(term)
    return GaussianMixture(dim, terms)


class TestGaussianMixture:
    def test_double_bump_is_two_mirror_terms(self, double_bump2):
        assert double_bump2.closure.terms == (GaussianTerm(0.5, (3.0, 0.0), (1.0, 1.0)),
                                              GaussianTerm(0.5, (-3.0, 0.0), (1.0, 1.0)))
        assert double_bump2.closure.even_part().terms == (
            GaussianTerm(1.0, (3.0, 0.0), (1.0, 1.0)),)
        assert double_bump2.closure.unpaired_means() == []

    @settings(max_examples=60)
    @given(mix=mirror_mixtures())
    def test_even_part_keeps_the_even_route(self, mix):
        # one term per (|mean[0]|, other means, widths): never more terms, and
        # the same even part, derivative and PV integral
        even = mix.even_part()
        keys = {(abs(t.mean[0]),) + t.mean[1:] + t.widths for t in mix.terms}
        assert len(even.terms) == len(keys) <= len(mix.terms)
        assert all(t.mean[0] >= 0.0 for t in even.terms)
        w_min = min(t.widths[0] for t in mix.terms)
        y = np.linspace(-w_min ** 2, 30.0, 401)
        for name in ("even_val", "even_dval"):
            want = sum(t.weight * getattr(t, name)(y) for t in mix.terms)
            got = sum(t.weight * getattr(t, name)(y) for t in even.terms)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        scale = sum(t.weight / t.widths[0] ** 2 for t in mix.terms)
        assert abs(even.pv_d_integral() - mix.pv_d_integral()) <= 1e-13 * scale

    @settings(max_examples=60)
    @given(a=st.floats(0.0, 30.0), w1=st.floats(0.05, 3.0), weight=st.floats(0.1, 2.0))
    def test_pv_d_integral_against_dawson(self, a, w1, weight):
        # cauchy(0).real against the Dawson form sqrt(2) a D(a/sqrt(2)) - 1
        mix = GaussianMixture(1, even_pair(weight, a * w1, (w1,)))
        assert abs(mix.pv_d_integral() - pv_exact(mix, 0.0)) <= 1e-12 * weight / w1 ** 2

    def test_unpaired_means(self):
        pair = even_pair(1.0, 2.0, (1.0, 0.5))
        assert GaussianMixture(2, pair).unpaired_means() == []
        assert GaussianMixture(2, pair[:1]).unpaired_means() == [(2.0, 0.0)]
        heavy = GaussianMixture(2, pair + pair[:1])
        assert heavy.unpaired_means() == [(2.0, 0.0), (-2.0, 0.0)]
        centred = GaussianMixture(2, [GaussianTerm(1.0, (0.0, 0.7), (1.0, 1.0))])
        assert centred.unpaired_means() == []

    def test_drifting_term_projects_to_its_mean(self):
        # mean (u, 0.3) on an oblique e: the marginal is centred at mean.e,
        # in the closure, in its sampled first moment and by the slice theorem
        u, e = 0.5, np.array([0.6, 0.8])
        grid = VelocityGrid(2, 12.0, 128)
        p = Profile.from_closure(
            grid, GaussianMixture(2, [GaussianTerm(1.0, (u, 0.3), (1.0, 0.8))]))
        fp = project(p, e)
        term, = fp.closure1d.terms
        assert term.mean == pytest.approx((u * 0.6 + 0.3 * 0.8,), abs=1e-15)
        assert term.widths == pytest.approx((np.hypot(0.6, 0.8 * 0.8),), abs=1e-15)
        assert abs(np.sum(fp.alphas * fp.values) * fp.h - (u * 0.6 + 0.3 * 0.8)) < 1e-12
        vals = project_field(p.values, grid, e)
        assert np.max(np.abs(vals - fp.values)) <= 1e-13 * np.max(p.values)


class TestProject:
    def test_maxwellian_marginal(self, maxwellian2):
        pp = project(maxwellian2, (1.0, 0.0))
        expect = np.exp(-pp.alphas ** 2 / 2) / SQRT2PI
        assert np.max(np.abs(pp.values - expect)) < 1e-14

    def test_rotation_invariance_oblique(self, maxwellian2):
        # closed-form marginal is the oracle; the sampled-field path must agree
        e = np.array([np.cos(np.pi / 4), np.sin(np.pi / 4)])
        vals = project_field(maxwellian2.values, maxwellian2.grid, e)
        expect = np.exp(-maxwellian2.grid.axis() ** 2 / 2) / SQRT2PI
        assert np.max(np.abs(vals - expect)) < 1e-10

    def test_product_separable(self, double_bump2):
        pp = project(double_bump2, (1.0, 0.0))
        ax = pp.alphas
        expect = (np.exp(-((ax - 3.0) ** 2) / 2)
                  + np.exp(-((ax + 3.0) ** 2) / 2)) / (2 * SQRT2PI)
        assert np.max(np.abs(pp.values - expect)) < 1e-13

    def test_d1_reflection(self, grid1):
        # a sampled 1D field projected on -e1 is the v1 -> -v1 mirror
        v = grid1.axis()
        vals = np.exp(-(v - 1.0) ** 2 / 2) / SQRT2PI
        plus = project_field(vals, grid1, (1.0,))
        minus = project_field(vals, grid1, (-1.0,))
        assert np.array_equal(minus, np.roll(plus[::-1], 1))
        # index 0 is the periodic seam -vmax ~ +vmax, which maps to itself
        expect = np.exp(-(v + 1.0) ** 2 / 2) / SQRT2PI
        assert np.max(np.abs(minus[1:] - expect[1:])) < 1e-14

    def test_non_unit_rejected(self, maxwellian2):
        with pytest.raises(ValidationError):
            project(maxwellian2, (1.0, 0.5))

    @pytest.mark.parametrize("bad, shown", [(float("nan"), "nan"), (float("inf"), "inf")])
    def test_non_finite_direction_rejected(self, maxwellian2, bad, shown):
        # a NaN direction once passed the unit-norm check (the comparison is
        # false) and returned an all-NaN projection
        with pytest.raises(ValidationError, match=rf"direction must be finite, got \({shown}, 0.0\)"):
            project(maxwellian2, (bad, 0.0))

    def test_linearity(self):
        grid2 = VelocityGrid(2, 10.0, 256)
        a = make_builtin("maxwellian", grid2)
        b = make_builtin("double_bump", grid2, v0=1.0)
        e = np.array([0.6, 0.8])
        pa = project_field(a.values, grid2, e)
        pb = project_field(b.values, grid2, e)
        pm = project_field(0.3 * a.values + 0.7 * b.values, grid2, e)
        assert np.max(np.abs(0.3 * pa + 0.7 * pb - pm)) < 1e-12

    def test_projection_bound_constant_stable(self, maxwellian2, rng):
        # ||f_e||_{H^s} <= C ||f||_{H^{s,b}}: the fitted constant is stable
        # within 10% across independent direction draws
        from vplab.norms import weighted_hsb_norm

        denom = weighted_hsb_norm(maxwellian2.values, maxwellian2.grid, 1.6, 0.3)

        def fit(seed):
            gen = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(20):
                v = gen.normal(size=2)
                e = v / np.linalg.norm(v)
                pp = project(maxwellian2, e)
                num = np.sqrt(np.sum(np.abs(
                    np.fft.ifft((1 + (2 * np.pi * np.fft.fftfreq(
                        len(pp.alphas), d=pp.h)) ** 2) ** 0.8
                        * np.fft.fft(pp.values))) ** 2) * pp.h)
                worst = max(worst, num / denom)
            return worst

        c1, c2 = fit(1), fit(2)
        assert abs(c1 - c2) < 0.1 * max(c1, c2)

    def test_d3_oblique(self):
        g3 = VelocityGrid(3, 8.0, 64)
        m3 = make_builtin("maxwellian", g3)
        e = np.array([2.0, -1.0, 2.0]) / 3.0
        vals = project_field(m3.values, g3, e)
        expect = np.exp(-g3.axis() ** 2 / 2) / SQRT2PI
        assert np.max(np.abs(vals - expect)) < 2e-7


def _directions(dim):
    return st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(
        lambda v: np.linalg.norm(v) > 0.1).map(lambda v: np.array(v) / np.linalg.norm(v))


class TestProjectField:
    @pytest.mark.parametrize("dim, e", [
        (2, (0.6, 0.8)), (2, (np.cos(np.pi / 4), np.sin(np.pi / 4))),
        (2, (1.0, 0.0)), (2, (0.0, 1.0)), (3, (2 / 3, -1 / 3, 2 / 3))])
    def test_maxwellian_closure_marginal(self, dim, e):
        grid = VelocityGrid(dim, 8.0, 256 if dim == 2 else 64)
        m = make_builtin("maxwellian", grid)
        vals = project_field(m.values, grid, e)
        assert np.max(np.abs(vals - project(m, e).values)) < 1e-14

    @settings(max_examples=30)
    @given(e=_directions(2), v0=st.floats(0.5, 2.5), w1=st.floats(0.7, 1.2),
           w2=st.floats(0.7, 1.2))
    def test_slice_theorem_d2(self, e, v0, w1, w2):
        grid = VelocityGrid(2, 12.0, 128)
        p = make_builtin("product", grid, factors=[("double_bump", {"v0": v0, "width": w1}),
                                                   ("gaussian", {"width": w2})])
        vals = project_field(p.values, grid, e)
        assert np.max(np.abs(vals - project(p, e).values)) <= 1e-13 * np.max(p.values)

    @settings(max_examples=20)
    @given(e=_directions(3), widths=st.lists(st.floats(0.75, 0.95), min_size=3, max_size=3))
    def test_slice_theorem_d3(self, e, widths):
        grid = VelocityGrid(3, 8.0, 64)
        p = make_builtin("product", grid, factors=[("gaussian", {"width": w}) for w in widths])
        vals = project_field(p.values, grid, e)
        assert np.max(np.abs(vals - project(p, e).values)) <= 1e-13 * np.max(p.values)

    @pytest.mark.parametrize("dim, e, field, shown", [
        (1, (float("nan"),), "real", "finite"),
        (1, (0.5,), "real", "unit vector"),
        (1, (1.0, 0.0), "real", "dimension mismatch"),
        (1, (1.0,), "complex", "real field"),
        (1, (1.0,), "short", "real field"),
        (2, (float("nan"), 0.0), "real", "finite"),
        (2, (0.6, 0.8, 0.0), "real", "dimension mismatch"),
        (2, (0.6, 0.6), "real", "unit vector"),
        (2, (0.6, 0.8), "complex", "real field"),
        (2, (0.6, 0.8), "short", "real field"),
    ])
    def test_refusals(self, monkeypatch, dim, e, field, shown):
        # each input is refused before the transform: reaching it fails
        monkeypatch.setattr(profiles, "fourier_multiplier", None)
        grid = VelocityGrid(dim, 8.0, 16)
        values = np.exp(-sum(v ** 2 for v in grid.mesh()) / 2)
        values = {"real": values, "complex": values * (1.0 + 1j),
                  "short": values[:-1]}[field]
        with pytest.raises(ValidationError, match=shown):
            project_field(values, grid, e)


# Hermitian symbols S(kx, ky) = conj S(-kx, -ky) of the 2-torus multipliers
MULTIPLIERS = {
    "dx": lambda kx, ky: 1j * kx,
    "dy": lambda kx, ky: 1j * ky,
    "dxx": lambda kx, ky: -(kx ** 2),
    "dyy": lambda kx, ky: -(ky ** 2),
    "dxy": lambda kx, ky: -(kx * ky),
    "resolvent": lambda kx, ky: 1.0 / (0.7 + kx ** 2 + ky ** 2),
}


class TestFourierMultiplier:
    @settings(max_examples=80)
    @given(nx=st.integers(4, 17), ny=st.integers(4, 17), lx=st.floats(0.5, 20.0),
           ly=st.floats(0.5, 20.0), n_modes=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           name=st.sampled_from(sorted(MULTIPLIERS)),
           axes=st.sampled_from([(0, 1), (1, 0), (0,), (1,)]))
    def test_trig_polynomials_match_closed_form(self, nx, ny, lx, ly, n_modes, seed, name,
                                                axes):
        # f = sum_m Re[c_m e^(i theta_m)], theta_m = kx_m x + ky_m y below
        # Nyquist, so S(D) f = sum_m Re[S(kx_m, ky_m) c_m e^(i theta_m)] exactly;
        # a single transformed axis carries only the derivatives along it
        if len(axes) == 1 and name not in {0: ("dx", "dxx"), 1: ("dy", "dyy")}[axes[0]]:
            axes = (0, 1)
        rng = np.random.default_rng(seed)
        x = lx / nx * np.arange(nx)[:, None]
        y = ly / ny * np.arange(ny)[None, :]
        f, want, amp = 0.0, 0.0, 0.0
        for _ in range(n_modes):
            kx = 2 * np.pi * rng.integers(-((nx - 1) // 2), (nx - 1) // 2 + 1) / lx
            ky = 2 * np.pi * rng.integers(-((ny - 1) // 2), (ny - 1) // 2 + 1) / ly
            c = complex(*rng.normal(size=2))
            wave = np.exp(1j * (kx * x + ky * y))
            f = f + (c * wave).real
            want = want + (MULTIPLIERS[name](kx, ky) * c * wave).real
            amp += abs(c)
        op = MULTIPLIERS[name]
        h = {0: lx / nx, 1: ly / ny}

        def symbol(*k):
            named = dict(zip(axes, k))
            return op(named.get(0, 0.0), named.get(1, 0.0))

        got = fourier_multiplier(f, [h[ax] for ax in axes], axes, symbol)
        kx_all = 2 * np.pi * np.fft.fftfreq(nx, d=h[0])[:, None]
        ky_all = 2 * np.pi * np.fft.fftfreq(ny, d=h[1])[None, :]
        norm = float(np.max(np.abs(op(kx_all, ky_all))))  # the multiplier's sup
        assert got.shape == (nx, ny) and got.dtype == float
        assert np.max(np.abs(got - want)) <= 1e-12 * norm * amp


class TestSingularIntegral:
    def test_modified_profile_mass_one(self, maxwellian2):
        from vplab.bgk import build_modified

        for gamma, delta in ((0.1, 0.7), (0.02, 1.3), (1e-6, 1.0)):
            mp = build_modified(maxwellian2, gamma, delta, 1, v0=3.0)
            assert abs(sum(t.weight for t in mp.mixture.terms) - 1.0) < 1e-14
