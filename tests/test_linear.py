import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import wofz

from conftest import mixture_1d, pv_exact
from vplab import linear
from vplab.errors import PenroseUnstableError, RefinementCapError, ValidationError
from vplab.linear import (
    Datum1D,
    FieldHistory,
    _BLOCK,
    _sinc_cauchy,
    continued_dispersion,
    efield_mode,
    find_damping_root,
    fit_damped_mode,
    initial_transform,
)
from vplab.profiles import (
    GaussianMixture,
    GaussianTerm,
    Profile,
    ProjectedProfile,
    VelocityGrid,
    make_builtin,
    project,
)

# Landau root of the unit Maxwellian at k = 0.5, from the closed-form
# dispersion function (Faddeeva representation); frozen reference
LANDAU_Z_K05 = 2.8313237772090734 - 0.3067189338192098j


def _faddeeva_dispersion(z):
    """Continued F of the unit Maxwellian: -(1 + zeta Z(zeta)), zeta = z/sqrt 2."""
    zeta = np.asarray(z) / np.sqrt(2.0)
    return -(1.0 + zeta * 1j * np.sqrt(np.pi) * wofz(zeta))


def _faddeeva_root(kmag):
    """Root of k^2 + 1 + zeta Z(zeta) = 0 by Newton with Z' = -2 (1 + zeta Z)."""
    z = complex(np.sqrt(1.0 + 3.0 * kmag ** 2) / kmag, -0.01)
    for _ in range(30):
        zeta = z / np.sqrt(2.0)
        Z = 1j * np.sqrt(np.pi) * wofz(zeta)
        z -= (kmag ** 2 + 1.0 + zeta * Z) / ((Z - 2.0 * zeta * (1.0 + zeta * Z)) / np.sqrt(2.0))
    assert abs(kmag ** 2 - _faddeeva_dispersion(z)) < 1e-15
    return z


@pytest.fixture(scope="module")
def fp_maxwellian():
    g = VelocityGrid(1, 8.0, 512)
    return project(make_builtin("maxwellian", g), (1.0,))


@pytest.fixture(scope="module")
def maxwell_mode(fp_maxwellian):
    datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
    return efield_mode(0.5, fp_maxwellian, datum, t_end=50.0, kvec=(0.5,))


class TestDispersion:
    """F(y+i0) = PV + i pi f'(y), the closure's boundary value the field mode divides by."""

    def test_maxwellian_at_origin(self, fp_maxwellian):
        f0 = fp_maxwellian.closure1d.cauchy(np.array([0.0]))[0]
        assert abs(f0.real + 1.0) < 1e-9
        assert abs(f0.imag) < 1e-14

    def test_imaginary_part_definition(self, fp_maxwellian):
        y = np.linspace(-5, 5, 101)
        F = fp_maxwellian.closure1d.cauchy(y)
        assert np.max(np.abs(F.imag
                             - np.pi * fp_maxwellian.closure1d.dval(y))) < 1e-14

    def test_large_y_decay(self, fp_maxwellian):
        vals = []
        for y0 in (10.0, 20.0, 40.0):
            F = fp_maxwellian.closure1d.cauchy(np.array([-y0, y0]))
            vals.append(float(np.max(np.abs(F))))
        assert vals[0] < 1e-1 and all(np.diff(vals) < 0)
        assert vals[-1] < 1e-3

    def test_unstable_profile_refused(self, monkeypatch):
        # the margin is asked once per mode, before any transform
        g = VelocityGrid(2, 12.0, 512)
        db = make_builtin("double_bump", g, v0=3.0)
        fp = project(db, (1.0, 0.0))
        kmag = 2 * np.pi / 24.0  # long box: inside the unstable window
        datum = Datum1D(fp.alphas, fp.values.copy())
        monkeypatch.setattr(linear, "initial_transform",
                            lambda d, z: pytest.fail("transform reached"))
        with pytest.raises(PenroseUnstableError,
                           match=rf"margin -\d\.\d{{3}}e-\d\d: profile not Penrose-stable "
                                 rf"at \|k\|\^2 = {re.escape(str(kmag ** 2))}"):
            efield_mode(kmag, fp, datum, t_end=10.0)


class TestInitialTransform:
    def test_zero(self, fp_maxwellian):
        datum = Datum1D(fp_maxwellian.alphas,
                        np.zeros_like(fp_maxwellian.values))
        g = initial_transform(datum, np.linspace(-5, 5, 41))
        assert np.max(np.abs(g)) < 1e-14

    def test_derivative_datum_matches_dispersion(self, fp_maxwellian):
        y = np.linspace(-5, 5, 81)
        datum = Datum1D(fp_maxwellian.alphas,
                        fp_maxwellian.closure1d.dval(fp_maxwellian.alphas))
        g = initial_transform(datum, y)
        f = fp_maxwellian.closure1d.cauchy(y)
        assert np.max(np.abs(g - f)) < 1e-7

    def test_nonnegative_bump_imaginary_part(self, fp_maxwellian):
        y = np.linspace(-4, 4, 33)
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        g = initial_transform(datum, y)
        assert np.min(g.imag) >= -1e-14
        assert np.max(np.abs(g.imag - np.pi * fp_maxwellian.closure1d.val(y))) < 1e-12


def _record_window_sizes(monkeypatch):
    """The sizes of the real node sets efield_mode takes the datum's transform at."""
    sizes = []

    def recording(d, z):
        if not np.iscomplexobj(z):
            sizes.append(len(z))
        return initial_transform(d, z)

    monkeypatch.setattr(linear, "initial_transform", recording)
    return sizes


class TestEfieldMode:
    def test_zero_datum_zero_field(self, fp_maxwellian):
        datum = Datum1D(fp_maxwellian.alphas,
                        np.zeros_like(fp_maxwellian.values))
        ser = efield_mode(0.5, fp_maxwellian, datum, t_end=10.0)
        assert np.max(np.abs(ser.values)) < 1e-14

    def test_poisson_consistency_at_zero(self, maxwell_mode):
        assert maxwell_mode.poisson_relerr < 1e-6

    def test_window_self_check(self, maxwell_mode):
        assert maxwell_mode.truncation_error < 1e-8

    def test_damping_against_root_oracle(self, fp_maxwellian, maxwell_mode):
        rate, freq = maxwell_mode.envelope_fit(5.0, 40.0)
        z, orate, ofreq = find_damping_root(fp_maxwellian, 0.5)
        assert abs(z - LANDAU_Z_K05) < 1e-6
        assert abs(rate - orate) / orate < 0.03
        assert abs(freq - ofreq) / ofreq < 0.03

    def test_linearity_in_datum(self, fp_maxwellian, maxwell_mode):
        datum2 = Datum1D(fp_maxwellian.alphas, 2.0 * fp_maxwellian.values)
        ser2 = efield_mode(0.5, fp_maxwellian, datum2, t_end=50.0, kvec=(0.5,))
        assert np.max(np.abs(ser2.values - 2.0 * maxwell_mode.values)) < 1e-10

    def test_time_grid(self, maxwell_mode):
        # t_j = pi j/(|k| y_max), the last one at or below t_end = 50
        ser = maxwell_mode
        dt = np.pi / (ser.kmag * ser.y_max)
        assert np.array_equal(ser.t, np.pi * np.arange(len(ser.t)) / (ser.kmag * ser.y_max))
        assert ser.t[-1] <= 50.0 < ser.t[-1] + dt

    def test_zero_end_time(self, fp_maxwellian):
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        ser = efield_mode(0.5, fp_maxwellian, datum, t_end=0.0)
        assert np.array_equal(ser.t, [0.0])
        assert ser.poisson_relerr < 1e-6

    def test_n_y_counts_window_nodes(self, fp_maxwellian, monkeypatch):
        # the window's nodes are the real points the datum's transform is taken
        # at: two rounds, the second with every panel cut in two
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        real_sizes = _record_window_sizes(monkeypatch)
        ser = efield_mode(0.5, fp_maxwellian, datum, t_end=45.0)
        assert real_sizes == [ser.n_y // 2, ser.n_y]
        assert ser.n_y == 32 * math.ceil(2.0 * 0.5 * ser.y_max * 45.0 / linear._PANEL_RAD)

    def test_refinement_cap(self, fp_maxwellian, monkeypatch):
        # no error meets a zero tolerance: four rounds, then the error reached
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        real_sizes = _record_window_sizes(monkeypatch)
        monkeypatch.setattr(linear, "WINDOW_TOL", 0.0)
        with pytest.raises(RefinementCapError,
                           match=r"contour truncation error (\S+) of the peak above 0\.0 "
                                 r"after 3 refinements") as info:
            efield_mode(0.5, fp_maxwellian, datum, t_end=10.0)
        assert real_sizes == [real_sizes[0] * 2 ** i for i in range(4)]
        reached = float(re.search(r"error (\S+) of", str(info.value)).group(1))
        assert 0.0 < reached < 1e-12

    @pytest.mark.parametrize("kmag, t_end", [(0.25, 100.0), (0.3, 80.0), (0.35, 60.0),
                                             (0.5, 45.0), (1.0, 30.0)])
    def test_accepted_series_is_converged(self, fp_maxwellian, monkeypatch, kmag, t_end):
        # near-real roots at small k: a series the rounds accept agrees with
        # the mode whose every panel is cut in sixteen, a first round finer
        # than any round the mode accepts; else the rounds refuse it
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        try:
            ser = efield_mode(kmag, fp_maxwellian, datum, t_end=t_end)
        except RefinementCapError:
            return
        # each panel's rule becomes sixteen copies on its sixteenths
        x, w = linear._GL16
        cuts = np.arange(16)[:, None]
        monkeypatch.setattr(linear, "_GL16", (((2 * cuts + 1 + x) / 16 - 1).ravel(),
                                              np.tile(w / 16, 16)))
        ref = efield_mode(kmag, fp_maxwellian, datum, t_end=t_end)
        peak = float(np.max(np.abs(ref.values)))
        assert np.max(np.abs(ser.values - ref.values)) <= 10 * linear.WINDOW_TOL * peak
        assert ser.poisson_relerr < 1e-6

    def test_long_time_accepted(self, fp_maxwellian):
        # the graded rays follow the e^{-|k| s t} layer out to t_end = 1000
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        ser = efield_mode(0.5, fp_maxwellian, datum, t_end=1000.0)
        assert ser.truncation_error <= linear.WINDOW_TOL

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 305])
    def test_fourier_sum_factorised(self, n):
        # fine times coarse table equals the one-table sum, window and ray nodes alike
        z, _ = linear._rays(12.0, np.array([0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 0.5 * np.pi]))
        kz = 0.26 * np.concatenate([np.linspace(-12.0, 12.0, 40), z])
        wH = np.random.default_rng(n).normal(size=(len(kz), 2)) @ [1.0, 1j]
        direct = np.exp(-1j * np.outer(np.arange(n), kz)) @ wH
        got = linear._fourier_sum(n, kz, wH)
        assert got.shape == (n,)
        assert np.max(np.abs(got - direct)) < 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_datum_refused(self, fp_maxwellian, monkeypatch, bad):
        # a NaN datum once ran four refinement rounds into "error nan"
        values = fp_maxwellian.values.copy()
        values[100] = bad
        monkeypatch.setattr(linear, "initial_transform",
                            lambda d, z: pytest.fail("transform reached"))
        with pytest.raises(ValidationError,
                           match=f"mode datum must be finite, got {bad} at 1 of 512 samples"):
            efield_mode(0.5, fp_maxwellian, Datum1D(fp_maxwellian.alphas, values), t_end=10.0)


AXIS = VelocityGrid(1, 8.0, 512).axis()
H = float(AXIS[1] - AXIS[0])


@st.composite
def mixtures(draw):
    """1-3 Gaussian components whose tails fall below roundoff inside the grid."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        s = draw(st.floats(0.3, 0.9))
        mu = draw(st.floats(-1.0, 1.0)) * (8.0 - 8.5 * s)
        comps.append((draw(st.floats(0.1, 1.0)), mu, s))
    return mixture_1d(*comps)


def _pv_scale(m):
    return sum(t.weight / t.widths[0] ** 2 for t in m.terms)


def _continuation_oracle(m, z):
    """Trapezoid Cauchy sum of m' on AXIS plus the residue 2 pi i m'(z) below
    the axis; its error e^{-2 pi |Im z|/h} is roundoff only from |Im z| = 0.3."""
    out = np.trapezoid(m.dval(AXIS)[None, :] / (AXIS[None, :] - z[:, None]), AXIS, axis=1)
    below = z.imag < 0
    out[below] += 2j * np.pi * m.dval(z[below])
    return out


class TestSincPv:
    @settings(max_examples=60)
    @given(m=mixtures(), node=st.integers(0, len(AXIS) - 2),
           y_off=st.floats(-8.0, 8.0), y_far=st.floats(8.0, 100.0),
           side=st.sampled_from((-1.0, 1.0)))
    def test_against_dawson_closed_form(self, m, node, y_off, y_far, side):
        # GaussianMixture.cauchy on the real axis against the Dawson form and the
        # sinc boundary value of the sampled m', at a node, at a half-node,
        # off the grid and beyond the sampled range
        ys = np.array([AXIS[node], AXIS[node] + 0.5 * H, y_off, side * y_far])
        ours = m.cauchy(ys)
        dawson = np.array([pv_exact(m, y) for y in ys]) + 1j * np.pi * m.dval(ys)
        sinc = _sinc_cauchy(m.dval(AXIS), AXIS, ys)
        assert np.max(np.abs(ours - dawson)) < 1e-12 * _pv_scale(m)
        assert np.max(np.abs(ours - sinc)) < 1e-12 * _pv_scale(m)

    @settings(max_examples=60)
    @given(m=mixtures(), y0=st.floats(9.6, 40.0))
    def test_below_axis_against_closure(self, m, y0):
        # the lower-half-plane branch on the rotated rays of the field mode,
        # graded toward the axis: the Cauchy integral of the sinc interpolant
        # of the sampled m'
        z, _ = linear._rays(y0, np.concatenate([[0.0], 0.01 * 2.0 ** np.arange(8), [0.5 * np.pi]]))
        sinc = _sinc_cauchy(m.dval(AXIS), AXIS, z)
        assert np.max(np.abs(m.cauchy(z) - sinc)) < 1e-12 * _pv_scale(m)

    @settings(max_examples=30)
    @given(m=mixtures())
    def test_near_axis_against_closure(self, m):
        # |Im z| = 0.05 on both sides, where a trapezoid sum is off by 1e-4,
        # and one grid step above and below the nodes, which must not count as nodes
        z = np.linspace(-6.0, 6.0, 49) + 0.3 * H
        for zs in (z - 0.05j, z + 0.05j, AXIS[::64] - 1j * H, AXIS[::64] + 1j * H):
            sinc = _sinc_cauchy(m.dval(AXIS), AXIS, zs)
            assert np.max(np.abs(m.cauchy(zs) - sinc)) < 1e-12 * _pv_scale(m)

    @pytest.mark.parametrize("offset", [1e-9, 1e-11, -1e-12])
    def test_imaginary_part_near_nodes(self, fp_maxwellian, offset):
        # Im = pi s(y) against a direct sinc sum just off the nodes, where
        # sin(pi r) at r near +-1 would lose the leading digits
        a = fp_maxwellian.alphas
        ys = a[200:312] + offset
        for samples in (fp_maxwellian.values, fp_maxwellian.closure1d.dval(a)):
            direct = np.pi * (np.sinc((ys[:, None] - a[None, :]) / H) @ samples)
            err = np.max(np.abs(_sinc_cauchy(samples, a, ys).imag - direct))
            assert err <= 1e-13 * np.pi * np.max(np.abs(samples))

    @settings(max_examples=30)
    @given(m1=mixtures(), m2=mixtures(),
           c1=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
           c2=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    def test_initial_transform_linear_in_complex_datum(self, m1, m2, c1, c2):
        u = m1.val(AXIS) + 1j * m2.dval(AXIS)
        v = m2.val(AXIS) - 1j * m1.dval(AXIS)
        y = np.linspace(-12.0, 12.0, 97) + 0.3 * H
        lhs = initial_transform(Datum1D(AXIS, c1 * u + c2 * v), y)
        rhs = c1 * initial_transform(Datum1D(AXIS, u), y) \
            + c2 * initial_transform(Datum1D(AXIS, v), y)
        scale = (1.0 + abs(c1) + abs(c2)) * (_pv_scale(m1) + _pv_scale(m2))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


class TestContinuation:
    def test_against_faddeeva_closed_form(self, fp_maxwellian):
        # for the unit Gaussian the continuation has the closed Faddeeva
        # form -(1 + zeta Z(zeta)); the Cauchy-plus-residue route must
        # reproduce it at root-scale depths
        for z in (1.3 - 0.4j, 2.83 - 0.31j, 0.5 - 1.0j):
            ours = continued_dispersion(fp_maxwellian, z)
            assert abs(ours - _faddeeva_dispersion(z)) < 1e-6

    @pytest.mark.parametrize("grid", [VelocityGrid(1, 8.0, 512), VelocityGrid(2, 8.0, 256)])
    def test_near_axis_against_faddeeva(self, grid):
        # |Im z| = 0.05, where a trapezoid sum on these grids is off by 1e-4
        fp = project(make_builtin("maxwellian", grid), (1.0,) + (0.0,) * (grid.dim - 1))
        z = np.linspace(-6.0, 6.0, 49) + 0.3 * H
        for zs in (z - 0.05j, z + 0.05j):
            ours = continued_dispersion(fp, zs)
            assert np.max(np.abs(ours - _faddeeva_dispersion(zs))) < 1e-12

    def test_drifting_maxwellian_root_shifts(self, fp_maxwellian):
        # f0(v - u) has F_u(z) = F_0(z - u): the root moves by z -> z + u
        u = 0.5
        p = Profile.from_closure(VelocityGrid(1, 8.0, 512),
                                 GaussianMixture(1, [GaussianTerm(1.0, (u,), (1.0,))]))
        z_u = find_damping_root(project(p, (1.0,)), 0.5)[0]
        z_0 = find_damping_root(fp_maxwellian, 0.5)[0]
        assert abs(z_u - (z_0 + u)) <= 1e-10 * abs(z_0 + u)

    @pytest.mark.parametrize("kmag", [0.25, 0.3])
    def test_small_k_damping_root(self, fp_maxwellian, kmag):
        # weakly damped roots sit close to the axis: Im z = -0.0087 at k = 0.25
        _, rate, freq = find_damping_root(fp_maxwellian, kmag)
        exact = _faddeeva_root(kmag)
        assert abs(rate - kmag * abs(exact.imag)) < 1e-10 * kmag * abs(exact.imag)
        assert abs(freq - kmag * abs(exact.real)) < 1e-10 * kmag * abs(exact.real)

    @settings(max_examples=40)
    @given(m=mixtures(), re=st.floats(-6.0, 6.0), depth=st.floats(0.3, 1.5),
           side=st.sampled_from((-1.0, 1.0)))
    def test_against_quadrature_oracle(self, m, re, depth, side):
        z = np.array([complex(re, side * depth)])
        fp = ProjectedProfile(AXIS, m.val(AXIS), m)
        oracle = _continuation_oracle(m, z)
        scale = _pv_scale(m) + float(np.max(np.abs(oracle)))
        assert np.max(np.abs(continued_dispersion(fp, z) - oracle)) < 1e-12 * scale

    def test_real_axis_rejected(self, fp_maxwellian):
        with pytest.raises(ValidationError):
            continued_dispersion(fp_maxwellian, complex(1.0, 0.0))
        with pytest.raises(ValidationError):
            continued_dispersion(fp_maxwellian, np.array([1.0 - 0.5j, 2.0]))

    def test_array_matches_scalar(self, fp_maxwellian):
        z = np.array([[1.3 - 0.4j, 0.5 + 1.0j], [2.83 - 0.31j, -1.0 - 2.0j]])
        batch = continued_dispersion(fp_maxwellian, z)
        assert batch.shape == z.shape
        for zi, bi in zip(z.ravel(), batch.ravel()):
            ours = continued_dispersion(fp_maxwellian, zi)
            assert isinstance(ours, complex)
            assert abs(bi - ours) < 1e-14

    def test_newton_failure_refused(self, fp_maxwellian, monkeypatch):
        # k^2 - F = z - 5i has its one root above the axis: Newton lands on
        # it, is reflected below, and never meets the tolerance
        monkeypatch.setattr(linear, "continued_dispersion",
                            lambda fp, z: 0.25 - (np.asarray(z, dtype=complex) - 5j))
        with pytest.raises(ValidationError, match=r"z = .*\|k\^2 - F\(z\)\| = .* 60 steps"):
            find_damping_root(fp_maxwellian, 0.5)


class TestCauchyBlocks:
    """The sampled Cauchy transform works through blocks of ``_BLOCK`` kernel entries."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from((64, 512, 1000)), seed=st.integers(0, 2 ** 32 - 1),
           complex_samples=st.booleans(), side=st.sampled_from((-1.0, 1.0)),
           count=st.sampled_from(("one", "below", "equal", "ragged")))
    def test_complex_pieces_match_whole(self, n, seed, complex_samples, side, count):
        # off the axis, split at points that are not block edges
        rng = np.random.default_rng(seed)
        alphas = np.linspace(-8.0, 8.0, n)
        samples = rng.standard_normal(n)
        if complex_samples:
            samples = samples + 1j * rng.standard_normal(n)
        rows = _BLOCK // n
        m = {"one": 1, "below": rows - 1, "equal": rows, "ragged": 2 * rows + 3}[count]
        z = rng.uniform(-10.0, 10.0, m) + 1j * side * rng.uniform(0.05, 3.0, m)
        whole = _sinc_cauchy(samples, alphas, z)
        pieces = np.concatenate([_sinc_cauchy(samples, alphas, part)
                                 for part in np.array_split(z, 7)])
        # every kernel term is at most 2 |s_j| / |u - j| in grid units
        u = (z - alphas[0]) / (alphas[1] - alphas[0])
        scale = 2.0 * np.abs(1.0 / (u[:, None] - np.arange(n)[None, :])) @ np.abs(samples)
        assert np.all(np.abs(whole - pieces) <= 1e-13 * scale)

    def test_sinc_cauchy_pieces_match_whole(self, fp_maxwellian):
        # nine blocks of ys, split at points that are not block edges,
        # with exact nodes among them
        a = fp_maxwellian.alphas
        ys = np.sort(np.concatenate([np.linspace(-9.0, 9.0, 1001), a[::4]]))
        assert len(ys) > 6 * (_BLOCK // len(a))
        d = fp_maxwellian.closure1d.dval(a)
        whole = _sinc_cauchy(d, a, ys)
        pieces = np.concatenate([_sinc_cauchy(d, a, part)
                                 for part in np.array_split(ys, 7)])
        assert np.max(np.abs(whole - pieces)) <= 1e-14 * np.max(np.abs(whole))

    def test_transient_memory(self, fp_maxwellian):
        # a full-width kernel would take 92 MiB in the root scan and 18 MiB
        # in the field mode; each call runs once untraced first, so the
        # lazy SciPy imports of a first call are not counted
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        peaks = []
        for call in (lambda: find_damping_root(fp_maxwellian, 0.5),
                     lambda: efield_mode(0.5, fp_maxwellian, datum, t_end=45.0)):
            call()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 8.0 and peaks[1] < 4.0


class TestReductionConsistency:
    @pytest.mark.parametrize("dim, n, e, kvec", [
        (2, 256, (0.6, 0.8), (0.42, 0.56)),
        (3, 64, (2 / 3, -1 / 3, 2 / 3), (1.4 / 3, -0.7 / 3, 1.4 / 3))], ids=["d2", "d3"])
    def test_d2_mode_equals_1d_pipeline(self, dim, n, e, kvec):
        # the mode problem along e in d = 2 or 3 is exactly the 1D problem
        # for the projected profile at |k|
        g = VelocityGrid(dim, 8.0, n)
        m = make_builtin("maxwellian", g)
        e = np.array(e)
        fp = project(m, e)
        mesh = g.mesh()
        datum = (mesh[0] + 0.3) * m.values  # generic smooth mode datum
        from vplab.profiles import project_field

        proj_datum = project_field(datum, g, e)
        d = Datum1D(fp.alphas, proj_datum)

        # in d = 3 the 1D reference is the marginal on e1, since the 1D
        # Maxwellian on 64 points fails the builtin tail check
        fp1 = (project(make_builtin("maxwellian", VelocityGrid(1, 8.0, n)), (1.0,))
               if dim == 2 else project(m, (1.0, 0.0, 0.0)))
        alpha = fp1.alphas
        exact_marginal = (e[0] * alpha + 0.3) * np.exp(-alpha ** 2 / 2) \
            / np.sqrt(2 * np.pi)
        d1 = Datum1D(alpha, exact_marginal)

        s = efield_mode(0.7, fp, d, t_end=25.0, kvec=kvec)
        s1 = efield_mode(0.7, fp1, d1, t_end=25.0, kvec=(0.7,))
        assert np.max(np.abs(s.values - s1.values)) < 1e-10

    def test_conjugate_pair_rejected(self, maxwell_mode):
        hist = FieldHistory()
        hist.add(maxwell_mode)
        import dataclasses

        minus = dataclasses.replace(maxwell_mode, kvec=(-0.5,))
        with pytest.raises(ValidationError):
            hist.add(minus)

    def test_duplicate_mode_rejected(self, maxwell_mode):
        # a second series at the same kvec once replaced the first silently
        hist = FieldHistory()
        hist.add(maxwell_mode)
        tripled = dataclasses.replace(maxwell_mode, values=3.0 * maxwell_mode.values)
        with pytest.raises(ValidationError, match=r"mode \(0\.5,\) conflicts with stored"):
            hist.add(tripled)
        assert hist.modes[(0.5,)] is maxwell_mode


@pytest.fixture(scope="module")
def maxwell_mode_long(fp_maxwellian):
    # the t^{2 s_v} weight keeps a visible tail until ~e^{-0.3 t} kills it
    datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
    return efield_mode(0.5, fp_maxwellian, datum, t_end=85.0, kvec=(0.5,))


class TestDecayNorm:
    def test_zero_field(self, fp_maxwellian):
        datum = Datum1D(fp_maxwellian.alphas,
                        np.zeros_like(fp_maxwellian.values))
        hist = FieldHistory()
        hist.add(efield_mode(0.5, fp_maxwellian, datum, t_end=30.0,
                             kvec=(0.5,)))
        assert hist.decay_norm(0.0, 1.6) == 0.0

    def test_single_mode_factor(self, maxwell_mode_long):
        maxwell_mode = maxwell_mode_long
        hist = FieldHistory()
        hist.add(maxwell_mode)
        s_x, s_v = 0.0, 1.6
        val = hist.decay_norm(s_x, s_v)
        t, v = maxwell_mode.t, maxwell_mode.values
        integral = np.trapezoid(t ** (2 * s_v) * np.abs(v) ** 2, t)
        expect = np.sqrt(0.25 ** (1.5 + s_x + s_v) * integral * 2.0)
        assert abs(val - expect) < 1e-12 * expect

    def test_doubling_datum_doubles_norm(self, fp_maxwellian, maxwell_mode_long):
        hist1 = FieldHistory()
        hist1.add(maxwell_mode_long)
        datum2 = Datum1D(fp_maxwellian.alphas, 2.0 * fp_maxwellian.values)
        hist2 = FieldHistory()
        hist2.add(efield_mode(0.5, fp_maxwellian, datum2, t_end=85.0,
                              kvec=(0.5,)))
        n1, n2 = hist1.decay_norm(0, 1.6), hist2.decay_norm(0, 1.6)
        assert abs(n2 - 2.0 * n1) < 1e-9 * n1

    def test_short_grid_suggests_extension(self, fp_maxwellian):
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        hist = FieldHistory()
        series = efield_mode(0.5, fp_maxwellian, datum, t_end=4.0, kvec=(0.5,))
        hist.add(series)
        # the refusal names the mode, where its series ends and the tail's share
        with pytest.raises(ValidationError, match=re.escape(
                f"mode (0.5,): the tail after its end t = {series.t[-1]:.4g} is about ")
                + r"\d+\.\d% of it, above 1%"):
            hist.decay_norm(0.0, 1.6)

    @pytest.mark.parametrize("s_x, s_v, shown", [
        (float("nan"), 1.6, "s_x must be finite, got nan"),
        (0.0, float("nan"), "s_v must be finite, got nan"),
        (0.0, float("inf"), "s_v must be finite, got inf"),
    ])
    def test_non_finite_order_rejected(self, s_x, s_v, shown):
        # s_v = nan once gave norm NaN with exit 0 from linear-decay
        with pytest.raises(ValidationError, match=shown):
            FieldHistory().decay_norm(s_x, s_v)

    def test_per_mode_decay_bound_stable(self):
        # || t^{s_v} E_k ||^2 <= C |k|^{-3-2 s_v} || datum ||^2 with one
        # fitted C across the first three lattice shells
        g1 = VelocityGrid(1, 8.0, 512)
        fp = project(make_builtin("maxwellian", g1), (1.0,))
        datum = Datum1D(fp.alphas, fp.values.copy())
        s_v = 1.6
        ratios = []
        from vplab.norms import weighted_hsb_norm

        dnorm = weighted_hsb_norm(np.asarray(datum.values.real), g1, s_v, 0.0)
        for k in (1.0, np.sqrt(2.0), 2.0):
            ser = efield_mode(k, fp, datum, t_end=40.0, kvec=(k,))
            val = np.trapezoid(ser.t ** (2 * s_v) * np.abs(ser.values) ** 2,
                               ser.t)
            ratios.append(val * k ** (3 + 2 * s_v) / dnorm ** 2)
        assert max(ratios) > 0
        # the bound constant: fitted once, others stay below it
        assert max(ratios) / max(min(ratios), 1e-300) < 50.0


class TestPencilFit:
    def test_two_pole_recovery(self):
        t = np.linspace(0, 40, 801)
        z1, z2 = -0.15 + 1.4j, -0.15 - 1.4j
        series = 0.7 * np.exp(z1 * t) + 0.7 * np.exp(z2 * t)
        rate, freq = fit_damped_mode(t, series, 2.0, 38.0)
        assert abs(rate - 0.15) < 1e-8
        assert abs(freq - 1.4) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_short_window(self, n):
        # below six samples the rank-2 pencil is underdetermined: two samples
        # once raised IndexError, three to five returned rates near 2.9 with
        # frequency 0
        t = 5.0 + 0.3 * np.arange(40)
        series = np.exp(-0.15 * t) * np.cos(1.4 * t)
        t_hi = t[n - 1] + 0.1
        if n < 6:
            with pytest.raises(ValidationError, match=rf"\[5, {t_hi:g}\] holds {n} samples"):
                fit_damped_mode(t, series, 5.0, t_hi)
        else:
            rate, freq = fit_damped_mode(t, series, 5.0, t_hi)
            assert abs(rate - 0.15) < 1e-10 and abs(freq - 1.4) < 1e-10


def test_zero_wavenumber_rejected(fp_maxwellian):
    # homogeneous components never radiate; the mode machinery refuses k=0
    datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
    with pytest.raises(ValidationError):
        efield_mode(0.0, fp_maxwellian, datum, t_end=1.0)


@pytest.mark.parametrize("kmag, t_end, match", [
    (float("nan"), 10.0, "wavenumber must be finite and positive, got nan"),
    (float("inf"), 10.0, "wavenumber must be finite and positive, got inf"),
    (0.5, float("nan"), "t_end must be finite and nonnegative, got nan"),
    (0.5, float("inf"), "t_end must be finite and nonnegative, got inf"),
    (0.5, -1.0, "t_end must be finite and nonnegative, got -1.0"),
])
def test_non_finite_mode_rejected(fp_maxwellian, kmag, t_end, match):
    # nan once slipped past kmag <= 0 into a ValueError from int(nan), inf
    # into an OverflowError, and a negative t_end into an empty series
    datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
    with pytest.raises(ValidationError, match=match):
        efield_mode(kmag, fp_maxwellian, datum, t_end=t_end)
