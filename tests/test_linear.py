import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vplab import linear
from vplab.errors import PenroseUnstableError, ValidationError
from vplab.linear import (
    Datum1D,
    FieldHistory,
    _cauchy_quad,
    continued_dispersion,
    dispersion,
    efield_mode,
    find_damping_root,
    fit_damped_mode,
    initial_transform,
)
from vplab.profiles import (
    _BLOCK,
    Mixture1D,
    VelocityGrid,
    _sinc_cauchy,
    make_builtin,
    project,
)

# Landau root of the unit Maxwellian at k = 0.5, from the closed-form
# dispersion function (Faddeeva representation); frozen reference
LANDAU_Z_K05 = 2.8313237772090734 - 0.3067189338192098j


@pytest.fixture(scope="module")
def fp_maxwellian():
    g = VelocityGrid(1, 8.0, 512)
    return project(make_builtin("maxwellian", g), (1.0,))


@pytest.fixture(scope="module")
def maxwell_mode(fp_maxwellian):
    datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
    return efield_mode(0.5, fp_maxwellian, datum, t_end=50.0, kvec=(0.5,))


class TestDispersion:
    def test_maxwellian_at_origin(self, fp_maxwellian):
        f0 = dispersion(fp_maxwellian, [0.0], 0.25)[0]
        assert abs(f0.real + 1.0) < 1e-9
        assert abs(f0.imag) < 1e-14

    def test_imaginary_part_definition(self, fp_maxwellian):
        y = np.linspace(-5, 5, 101)
        F = dispersion(fp_maxwellian, y, 0.25)
        assert np.max(np.abs(F.imag
                             - np.pi * fp_maxwellian.dval(y))) < 1e-14

    def test_large_y_decay(self, fp_maxwellian):
        vals = []
        for y0 in (10.0, 20.0, 40.0):
            F = dispersion(fp_maxwellian, np.array([-y0, y0]), 0.25,
                           check_stability=False)
            vals.append(float(np.max(np.abs(F))))
        assert vals[0] < 1e-1 and all(np.diff(vals) < 0)
        assert vals[-1] < 1e-3

    def test_unstable_profile_refused(self):
        g = VelocityGrid(2, 12.0, 512)
        db = make_builtin("double_bump", g, v0=3.0)
        fp = project(db, (1.0, 0.0))
        k2 = (2 * np.pi / 24.0) ** 2  # long box: inside the unstable window
        with pytest.raises(PenroseUnstableError):
            dispersion(fp, np.linspace(-10, 10, 401), k2)


    def test_plateau_edge_decides(self):
        # the midpoint PV 0.0115 is below |k|^2 = 0.03, the edge PV 0.0584
        # above it: a midpoint-only margin would pass this profile
        from tests.test_penrose import flat_dip

        with pytest.raises(PenroseUnstableError):
            dispersion(flat_dip(), np.linspace(-10, 10, 401), 0.03)


class TestInitialTransform:
    def test_zero(self, fp_maxwellian):
        datum = Datum1D(fp_maxwellian.alphas,
                        np.zeros_like(fp_maxwellian.values))
        g = initial_transform(datum, np.linspace(-5, 5, 41))
        assert np.max(np.abs(g)) < 1e-14

    def test_derivative_datum_matches_dispersion(self, fp_maxwellian):
        y = np.linspace(-5, 5, 81)
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.derivative.copy())
        g = initial_transform(datum, y)
        f = dispersion(fp_maxwellian, y, 0.25)
        assert np.max(np.abs(g - f)) < 1e-7

    def test_nonnegative_bump_imaginary_part(self, fp_maxwellian):
        y = np.linspace(-4, 4, 33)
        datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
        g = initial_transform(datum, y)
        assert np.min(g.imag) >= -1e-14
        assert np.max(np.abs(g.imag - np.pi * fp_maxwellian.closure1d.val(y))) < 1e-12


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
    return Mixture1D(tuple(comps))


def _pv_scale(m):
    return sum(w / s ** 2 for w, _, s in m.comps)


class TestSincPv:
    @settings(max_examples=60)
    @given(m=mixtures(), node=st.integers(0, len(AXIS) - 2),
           y_off=st.floats(-8.0, 8.0), y_far=st.floats(8.0, 100.0),
           side=st.sampled_from((-1.0, 1.0)))
    def test_against_dawson_closed_form(self, m, node, y_off, y_far, side):
        # at a node, at a half-node, off the grid and beyond the sampled range
        ys = np.array([AXIS[node], AXIS[node] + 0.5 * H, y_off, side * y_far])
        exact = np.array([m.pv_exact(y) for y in ys]) + 1j * np.pi * m.dval(ys)
        ours = _sinc_cauchy(m.dval(AXIS), AXIS, ys)
        assert np.max(np.abs(ours - exact)) < 1e-12 * _pv_scale(m)

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
        # form -(1 + zeta Z(zeta)); the quadrature-plus-residue route must
        # reproduce it at root-scale depths
        from scipy.special import wofz

        for z in (1.3 - 0.4j, 2.83 - 0.31j, 0.5 - 1.0j):
            zeta = z / np.sqrt(2.0)
            exact = -(1.0 + zeta * 1j * np.sqrt(np.pi) * wofz(zeta))
            ours = continued_dispersion(fp_maxwellian, z)
            assert abs(ours - exact) < 1e-6

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
    """Both Cauchy transforms work through blocks of ``_BLOCK`` kernel entries."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from((64, 512, 1000)), seed=st.integers(0, 2 ** 32 - 1),
           complex_samples=st.booleans(), side=st.sampled_from((-1.0, 1.0)),
           count=st.sampled_from(("one", "below", "equal", "ragged")))
    def test_against_trapezoid_oracle(self, n, seed, complex_samples, side, count):
        rng = np.random.default_rng(seed)
        alphas = np.linspace(-8.0, 8.0, n)
        samples = rng.standard_normal(n)
        if complex_samples:
            samples = samples + 1j * rng.standard_normal(n)
        rows = _BLOCK // n
        m = {"one": 1, "below": rows - 1, "equal": rows, "ragged": 2 * rows + 3}[count]
        z = rng.uniform(-10.0, 10.0, m) + 1j * side * rng.uniform(0.05, 3.0, m)
        kernel = 1.0 / (alphas[None, :] - z[:, None])
        oracle = np.trapezoid(samples[None, :] * kernel, alphas, axis=1)
        scale = np.trapezoid(np.abs(samples[None, :] * kernel), alphas, axis=1)
        assert np.all(np.abs(_cauchy_quad(samples, alphas, z) - oracle) <= 1e-13 * scale)

    def test_sinc_cauchy_pieces_match_whole(self, fp_maxwellian):
        # nine blocks of ys, split at points that are not block edges,
        # with exact nodes among them
        a = fp_maxwellian.alphas
        ys = np.sort(np.concatenate([np.linspace(-9.0, 9.0, 1001), a[::4]]))
        assert len(ys) > 6 * (_BLOCK // len(a))
        whole = _sinc_cauchy(fp_maxwellian.derivative, a, ys)
        pieces = np.concatenate([_sinc_cauchy(fp_maxwellian.derivative, a, part)
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
    def test_d2_mode_equals_1d_pipeline(self):
        # the 2D mode problem along e is exactly the 1D problem for the
        # projected profile at |k|
        g2 = VelocityGrid(2, 8.0, 256)
        m2 = make_builtin("maxwellian", g2)
        e = np.array([0.6, 0.8])
        fp2 = project(m2, e)
        mesh = g2.mesh()
        datum2d = (mesh[0] + 0.3) * m2.values  # generic smooth mode datum
        from vplab.profiles import project_field

        proj_datum = project_field(datum2d, g2, e)
        d2 = Datum1D(fp2.alphas, proj_datum)

        g1 = VelocityGrid(1, 8.0, 256)
        m1 = make_builtin("maxwellian", g1)
        fp1 = project(m1, (1.0,))
        alpha = fp1.alphas
        exact_marginal = (0.6 * alpha + 0.3) * np.exp(-alpha ** 2 / 2) \
            / np.sqrt(2 * np.pi)
        d1 = Datum1D(alpha, exact_marginal)

        s2 = efield_mode(0.7, fp2, d2, t_end=25.0, kvec=(0.42, 0.56))
        s1 = efield_mode(0.7, fp1, d1, t_end=25.0, kvec=(0.7,))
        assert np.max(np.abs(s2.values - s1.values)) < 1e-10

    def test_conjugate_pair_rejected(self, maxwell_mode):
        hist = FieldHistory()
        hist.add(maxwell_mode)
        import dataclasses

        minus = dataclasses.replace(maxwell_mode, kvec=(-0.5,))
        with pytest.raises(ValidationError):
            hist.add(minus)


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
        hist.add(efield_mode(0.5, fp_maxwellian, datum, t_end=4.0,
                             kvec=(0.5,)))
        with pytest.raises(ValidationError):
            hist.decay_norm(0.0, 1.6)

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


def test_zero_wavenumber_rejected(fp_maxwellian):
    # homogeneous components never radiate; the mode machinery refuses k=0
    datum = Datum1D(fp_maxwellian.alphas, fp_maxwellian.values.copy())
    with pytest.raises(ValidationError):
        efield_mode(0.0, fp_maxwellian, datum, t_end=1.0)
