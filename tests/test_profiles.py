import numpy as np
import pytest

from conftest import cutoff_sigma
from vplab.errors import ValidationError
from vplab.profiles import (
    VelocityGrid,
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

    def test_tail_requirement(self):
        # double bump at v0=3 on vmax=8 violates the 1e-14 tail rule
        with pytest.raises(ValidationError):
            make_builtin("double_bump", VelocityGrid(2, 8.0, 256), v0=3.0)


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


class TestSingularIntegral:
    def test_modified_profile_mass_one(self, maxwellian2):
        from vplab.bgk import build_modified

        for gamma, delta in ((0.1, 0.7), (0.02, 1.3), (1e-6, 1.0)):
            mp = build_modified(maxwellian2, gamma, delta, 1, v0=3.0)
            assert abs(mp.mass() - 1.0) < 1e-14
