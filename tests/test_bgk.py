import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipk

import vplab.bgk as bgk_mod
from conftest import continued_dval, pv_exact
from vplab.bgk import (
    _RHO,
    BifurcationH,
    _false_position,
    _seed_delta,
    _unit_kernel,
    build_modified,
    build_wave,
    galilean_boost,
    hprime0_centered,
    make_h,
    match_period,
    obstruction_diagnostic,
    obstruction_fixed_point,
    periodic_orbit,
    select_case,
)
from vplab.errors import (
    AmplitudeTooLargeError,
    BracketError,
    RefinementCapError,
    RegularityError,
    ValidationError,
)
from vplab.profiles import (
    GaussianMixture,
    GaussianTerm,
    Profile,
    VelocityGrid,
    even_pair,
    make_builtin,
)


class HarmonicH:
    def __init__(self, om):
        self.om = om

    def __call__(self, b):
        return -self.om ** 2 * np.asarray(b, dtype=float)

    def hprime0(self):
        return -self.om ** 2

    def potential(self, b):
        return 0.5 * self.om ** 2 * np.asarray(b, dtype=float) ** 2


class PendulumH:
    def __call__(self, b):
        return -np.sin(np.asarray(b, dtype=float))

    def hprime0(self):
        return -1.0

    def potential(self, b):
        # 1 - cos(b) without the cancellation near b = 0
        return 2.0 * np.sin(0.5 * np.asarray(b, dtype=float)) ** 2


def tuned_case3_profile(T1=2 * np.pi, width=0.45):
    """Offset-pair profile tuned so the PV integral equals (2 pi / T1)^2."""
    from scipy.optimize import brentq

    target = (2 * np.pi / T1) ** 2

    def d_of(v0):
        return pv_exact(GaussianMixture(1, even_pair(1.0, v0, (width,))), 0.0) - target

    v0 = brentq(d_of, 0.9, 1.9, xtol=1e-13)
    grid = VelocityGrid(2, 8.0, 256)
    return make_builtin("product", grid, factors=[
        ("double_bump", {"v0": v0, "width": width}),
        ("gaussian", {"width": 1.0})]), v0


class TestSelectCase:
    def test_maxwellian_case1(self, maxwellian2):
        sel = select_case(maxwellian2, 2 * np.pi)
        assert sel.case == 1
        assert abs(sel.d_integral + 1.0) < 1e-12
        assert sel.diagnostic < 0

    def test_strong_pair_case2(self):
        # tune the pair so the PV integral is twice (2 pi / T1)^2
        from scipy.optimize import brentq

        w = 0.35
        v0 = brentq(lambda v: pv_exact(GaussianMixture(1, even_pair(1.0, v, (w,))), 0.0)
                    - 2.0, 0.7, 1.4, xtol=1e-13)
        grid = VelocityGrid(2, 8.0, 256)
        p = make_builtin("product", grid, factors=[
            ("double_bump", {"v0": v0, "width": w}),
            ("gaussian", {"width": 1.0})])
        sel = select_case(p, 2 * np.pi)
        assert sel.case == 2
        assert abs(sel.d_integral - 2.0) < 1e-10

    def test_tuned_case3(self):
        p, _ = tuned_case3_profile()
        sel = select_case(p, 2 * np.pi)
        assert sel.case == 3


class TestBuildModified:
    def test_case3_identity_at_one(self, maxwellian2):
        mp = build_modified(maxwellian2, 0.0, 1.0, 3)
        assert np.allclose(mp.as_profile().values, maxwellian2.values,
                           atol=1e-15)

    def test_mass_one_all_parameters(self, maxwellian2):
        for gamma, delta, case in ((0.05, 0.6, 1), (0.01, 1.4, 2),
                                   (0.0, 0.8, 3)):
            mp = build_modified(maxwellian2, gamma, delta, case, v0=3.0)
            assert abs(sum(t.weight for t in mp.mixture.terms) - 1.0) < 1e-13

    def test_wsp_distance_vanishes_with_gamma(self, maxwellian2):
        from vplab.closeness import modified_profile_distance

        dists = [modified_profile_distance(
            build_modified(maxwellian2, g, 1.0, 1, v0=3.0), 1.2, 2.0).total
            for g in (0.1, 0.05, 0.02, 0.01)]
        assert all(np.diff(dists) < 0)

    def test_low_v0_rejected_case1(self, maxwellian2):
        with pytest.raises(ValidationError):
            build_modified(maxwellian2, 0.05, 1.0, 1, v0=0.3)

    @pytest.mark.parametrize("v0", [float("nan"), 0.0, -3.0])
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_bad_v0_refused_in_every_case(self, maxwellian2, case, v0):
        # cases 2 and 3 place no bump at v0, and once dropped a nan v0 unseen
        with pytest.raises(ValidationError, match="v0 must be finite and positive, got"):
            build_modified(maxwellian2, 0.1, 1.0, case, v0=v0)

    def test_bump_is_its_own_field(self, maxwellian2):
        # case 1: two mirror terms at +-3 lam, renormalised as in the mixture;
        # case 2: one centred term; case 3 adds none
        mp = build_modified(maxwellian2, 0.1, 0.5, 1)
        lam, scale = 0.05, 1.0 / (1.0 + mp.C0 * 0.01)
        assert mp.bump.terms == tuple(mp.mixture.terms[1:])
        assert [t.mean for t in mp.bump.terms] == [(3.0 * lam, 0.0), (-3.0 * lam, 0.0)]
        assert sum(t.weight for t in mp.bump.terms) == pytest.approx(0.01 * mp.C0 * scale,
                                                                    rel=1e-15)
        assert len(build_modified(maxwellian2, 0.1, 0.5, 2).bump.terms) == 1
        assert build_modified(maxwellian2, 0.0, 0.5, 3).bump is None


class TestOddBase:
    @pytest.fixture
    def drifting(self, grid2):
        # a drifting Maxwellian: no mirror for its term at mean (0.5, 0)
        return Profile.from_closure(
            grid2, GaussianMixture(2, [GaussianTerm(1.0, (0.5, 0.0), (1.0, 1.0))]))

    @pytest.mark.parametrize("build", [
        lambda p: build_wave(p, 2 * np.pi, eps=1e-1),
        lambda p: build_wave(p, 2 * np.pi, gamma=0.1, r=1e-3),
        lambda p: match_period(p, 2 * np.pi, 0.1, 1e-3),
        lambda p: match_period(p, 2 * np.pi, 0.0, 1e-3, case=3),
        lambda p: build_modified(p, 0.1, 1.0, 1),
    ], ids=["build_wave_eps", "build_wave_r", "match_period", "match_period_case3",
            "build_modified"])
    def test_refused_before_any_orbit(self, monkeypatch, drifting, build):
        # the certificate measures the distance to the even part only, so an
        # odd base would be certified falsely; no orbit is ever sought
        monkeypatch.setattr(bgk_mod, "periodic_orbit", None)
        with pytest.raises(ValidationError,
                           match=r"not even in v1: the term at mean \(0\.5, 0\.0\)"):
            build(drifting)

    def test_unequal_mirror_weights_refused(self, grid2):
        terms = even_pair(1.0, 2.0, (1.0, 1.0))
        skewed = GaussianMixture(2, [dataclasses.replace(terms[0], weight=0.6),
                                     dataclasses.replace(terms[1], weight=0.4)])
        with pytest.raises(ValidationError, match=r"at mean \(2\.0, 0\.0\)"):
            build_modified(Profile.from_closure(grid2, skewed), 0.1, 1.0, 1)


class TestHFunction:
    def test_h_zero_is_zero(self, maxwellian2):
        mp = build_modified(maxwellian2, 0.1, 1.0, 1, v0=3.0)
        assert abs(make_h(mp)(0.0)) < 1e-10

    def test_hprime_negative_and_centered_match(self, maxwellian2):
        mp = build_modified(maxwellian2, 0.1, 1.0, 1, v0=3.0)
        h = make_h(mp)
        exact = h.hprime0()
        assert exact < 0
        assert abs(hprime0_centered(h, 1e-7) - exact) < 1e-6 * abs(exact)

    def test_pure_maxwellian_not_a_center(self, maxwellian2):
        mp = build_modified(maxwellian2, 0.0, 1.0, 3)  # identity scaling
        h = make_h(mp)
        assert abs(h.hprime0() - 1.0) < 1e-12
        with pytest.raises(ValidationError):
            periodic_orbit(h, 1e-3)

    def test_potential_matches_h(self, maxwellian2):
        # V' = -h, checked by interior centred differences
        mp = build_modified(maxwellian2, 0.1, 1.0, 1, v0=3.0)
        h = make_h(mp)
        bs = np.linspace(-2e-3, 2e-3, 201)
        dV = np.gradient(h.potential(bs), bs)
        scale = np.max(np.abs(h(bs)))
        assert np.max(np.abs(dV + h(bs))[2:-2]) < 1e-4 * scale


def per_term_h(term, beta, n_v1=2048, n_cheb=256, n_taylor=56):
    """Oracle: h and V of one term's even part from its own Chebyshev/Taylor build.

    The direct construction on the term's own window of shifts, without the
    unit-width tables and their scaling.
    """
    cheb = np.polynomial.chebyshev.Chebyshev
    v0, w1 = abs(term.mean[0]), term.widths[0]
    extent = v0 + 10.0 * w1
    u = np.linspace(0.0, extent, n_v1 + 1)
    c_ok = min(extent ** 2 - (v0 + 8.0 * w1) ** 2, 9.0 * w1 ** 2)

    def kfun(c):
        c = np.atleast_1d(c)
        y = u[None, :] ** 2 - c[:, None]
        ap = term.weight * continued_dval(term, y)
        return 2.0 * np.trapezoid(ap, u, axis=1)

    P = cheb.interpolate(kfun, n_cheb, domain=[-c_ok, c_ok]).integ(lbnd=0.0)
    Q = cheb.interpolate(lambda c: np.atleast_1d(c) * kfun(c), n_cheb + 1,
                         domain=[-c_ok, c_ok]).integ(lbnd=0.0)
    rho = 0.5 * min(c_ok, 4.0 * w1 ** 2)
    m = 2 * n_taylor
    circ = rho * np.exp(2j * np.pi * np.arange(m) / m)
    y = u[None, :] ** 2 - circ[:, None]
    ap = term.weight * continued_dval(term, y)
    k_hat = (np.fft.fft(2.0 * np.trapezoid(ap, u, axis=1)) / m)[:n_taylor].real

    c = 2.0 * np.asarray(beta, dtype=float)
    h, V = -P(c), 0.5 * c * P(c) - 0.5 * Q(c)
    inner = np.abs(c) <= 0.45 * rho
    ch = c[inner] / rho
    powers = ch[:, None] ** np.arange(1, n_taylor + 1)[None, :]
    mm = np.arange(n_taylor)
    h[inner] = -rho * (powers @ (k_hat / (mm + 1)))
    V[inner] = rho ** 2 * ((powers * ch[:, None]) @ (k_hat / (2.0 * (mm + 1) * (mm + 2))))
    return h, V, c_ok


def per_call_accumulate(mp, b, mode):
    """Oracle: ``BifurcationH._accumulate`` with each term's scaled Taylor
    vectors rebuilt from the unit table on every call.  The series are
    contracted row by row (``np.vecdot``), as the package does."""
    out = np.zeros_like(b)
    c = 2.0 * b
    for t in mp.mixture.even_part().terms:
        P, Q, k_unit = _unit_kernel(float(f"{t.mean[0] / t.widths[0]:.14g}"))
        weight, w2 = t.weight, t.widths[0] ** 2
        rho = w2 * _RHO
        k_hat = (weight / w2) * k_unit
        inner = np.abs(c) <= 0.45 * rho
        outer = ~inner
        if np.any(inner):
            ch = c[inner] / rho
            powers = np.cumprod(np.broadcast_to(ch[:, None], (len(ch), len(k_hat))), axis=1)
            mm = np.arange(len(k_hat))
            if mode == "h":
                out[inner] -= rho * np.vecdot(powers, k_hat / (mm + 1))
            else:
                out[inner] += rho ** 2 * np.vecdot(powers * ch[:, None],
                                                   k_hat / (2.0 * (mm + 1) * (mm + 2)))
        if np.any(outer):
            co = c[outer]
            pc = weight * P(co / w2)
            if mode == "h":
                out[outer] -= pc
            else:
                out[outer] += 0.5 * co * pc - 0.5 * weight * w2 * Q(co / w2)
    return out


class TestKernelTables:
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_precomputed_taylor_vectors_same_bits(self, maxwellian2, case):
        # h and V from the vectors built in __init__ are the very bits of the
        # per-call build, in both zones of every term and for scalar calls
        mp = build_modified(maxwellian2, 0.1, 0.5, case, v0=3.0)
        h = make_h(mp)
        # the whole admissible range, and each term's Taylor disc up to its edge
        edges = [0.45 * t.widths[0] ** 2 for t in mp.mixture.even_part().terms]
        beta = np.concatenate(
            [0.5 * h.c_admissible * np.linspace(-0.99, 0.99, 67), [1e-12, -1e-7, 1e-3]]
            + [e * np.linspace(-1.0, 1.0, 101) for e in edges if 2 * e <= h.c_admissible])
        for mode in ("h", "V"):
            assert np.array_equal(h._accumulate(beta, mode),
                                  per_call_accumulate(mp, beta, mode))
            for b in beta[::7]:
                assert np.array_equal(h._accumulate(np.array([b]), mode),
                                      per_call_accumulate(mp, np.array([b]), mode))
    @pytest.mark.parametrize("case", [1, 3])
    def test_rows_are_one_point_bits(self, maxwellian2, case):
        # each entry of a batched h or V is the bits of the one-point call,
        # whatever the batch: the turning points solve two roots per call
        h = make_h(build_modified(maxwellian2, 0.1, 0.5, case, v0=3.0))
        rng = np.random.default_rng(case)
        beta = 0.5 * h.c_admissible * rng.uniform(-0.99, 0.99, 64) * 10.0 ** rng.uniform(-14, 0, 64)
        for f in (h, h.potential):
            single = np.array([f(float(b)) for b in beta])
            assert np.array_equal(f(beta), single)
            assert np.array_equal(f(beta[:2]), single[:2])

    @pytest.mark.parametrize("a", [0.0, 3.0])
    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.3, 1.0])
    def test_scaled_table_matches_per_term_build(self, a, lam):
        mix = GaussianMixture(1, even_pair(0.7, a * lam, (lam,)))
        term, = mix.even_part().terms
        h = BifurcationH(SimpleNamespace(mixture=mix))
        h_ref, V_ref, c_ok = per_term_h(term, np.zeros(1))
        assert h.c_admissible == pytest.approx(c_ok, rel=1e-12)
        # both Taylor and Chebyshev zones, down to roundoff-scale amplitudes
        beta = 0.5 * c_ok * np.concatenate([
            np.linspace(-0.88, 0.88, 45), [1e-9, -1e-6, 1e-3, 0.2, 0.5]])
        h_ref, V_ref, _ = per_term_h(term, beta)
        nonzero = beta != 0.0
        assert np.max(np.abs(h(beta) - h_ref)[nonzero]
                      / np.abs(h_ref[nonzero])) < 1e-12
        assert np.max(np.abs(h.potential(beta) - V_ref)[nonzero]
                      / np.abs(V_ref[nonzero])) < 1e-12
        # h'(0) = -2 K(0) from the table, against the closed form
        assert h.hprime0() == pytest.approx(-mix.pv_d_integral(), rel=1e-12)
        assert hprime0_centered(h, 1e-9 * c_ok) == pytest.approx(h.hprime0(), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(a=st.sampled_from((0.0, 3.0)), log_lam=st.floats(-6.0, 0.0),
           inner=st.floats(-1.0, 1.0), outer=st.floats(-1.0, 1.0))
    def test_h_and_v_match_per_term_build(self, a, log_lam, inner, outer):
        # one beta in the term's Taylor disc and one in its Chebyshev zone,
        # against the direct build (with ** powers) of that term
        lam = 10.0 ** log_lam
        mix = GaussianMixture(1, even_pair(0.7, a * lam, (lam,)))
        term, = mix.even_part().terms
        h = BifurcationH(SimpleNamespace(mixture=mix))
        disc = 0.45 * _RHO * lam ** 2  # the Taylor zone |c| <= 0.45 rho
        c = np.array([disc * inner,
                      np.copysign(disc + (0.88 * h.c_admissible - disc) * abs(outer), outer)])
        h_ref, V_ref, _ = per_term_h(term, 0.5 * c)
        assert np.all(np.abs(h(0.5 * c) - h_ref) <= 1e-12 * np.abs(h_ref))
        assert np.all(np.abs(h.potential(0.5 * c) - V_ref) <= 1e-12 * np.abs(V_ref))

    def test_one_table_row_per_even_pair(self, double_bump2):
        # the double bump and the case-1 bump are two mirror terms each; the
        # route reads one term per pair, so h keeps two kernel rows and the
        # certificate two pieces, as it did with pair terms
        mp = build_modified(double_bump2, 0.1, 1.0, 1)
        assert len(mp.mixture.terms) == 4
        assert len(mp.mixture.even_part().terms) == 2
        assert len(make_h(mp)._terms) == 2
        assert [t.weight for t in mp.mixture.even_part().terms] == \
            [mp.mixture.terms[0].weight * 2.0, mp.bump.terms[0].weight * 2.0]

    def test_new_delta_builds_no_table(self, maxwellian2):
        _unit_kernel.cache_clear()
        make_h(build_modified(maxwellian2, 0.1, 1.0, 1, v0=3.0))
        misses = _unit_kernel.cache_info().misses
        assert misses == 2  # the Maxwellian (a = 0) and the bump (a = 3)
        ratios = set()
        for delta in (0.7, 1.1):
            mp = build_modified(maxwellian2, 0.1, delta, 1, v0=3.0)
            bump, = mp.bump.even_part().terms
            ratios.add(bump.mean[0] / bump.widths[0])
            make_h(mp)
        # (3 lam) / lam is 3 at delta = 0.7 and one ulp off at 1.0 and 1.1:
        # all three share one table
        assert len(ratios) == 2
        assert _unit_kernel.cache_info().misses == misses


def dense_unit_kernel(a, n_u=2049):
    """Oracle: the unit-kernel tables from a 2049-node u-rule, the rule
    ``_unit_kernel`` used before its geometric convergence was measured."""
    n_cheb, n_taylor = 256, 56
    t = GaussianTerm(1.0, (a,), (1.0,))
    cheb = np.polynomial.chebyshev.Chebyshev
    u = np.linspace(0.0, a + 10.0, n_u)

    def kfun(c):
        y = u[None, :] ** 2 - np.atleast_1d(c)[:, None]
        return 2.0 * np.trapezoid(continued_dval(t, y), u, axis=1)

    kc = cheb.interpolate(kfun, n_cheb, domain=[-9.0, 9.0])
    qc = kc * cheb.identity(domain=[-9.0, 9.0])
    m = 2 * n_taylor
    circ = _RHO * np.exp(2j * np.pi * np.arange(m) / m)
    y = u[None, :] ** 2 - circ[:, None]
    kvals = 2.0 * np.trapezoid(continued_dval(t, y), u, axis=1)
    return kc.integ(lbnd=0.0), qc.integ(lbnd=0.0), (np.fft.fft(kvals) / m)[:n_taylor].real


@settings(max_examples=12)
@given(a=st.floats(0.0, 6.0))
def test_unit_kernel_matches_dense_rule(a):
    # the 129-node rule against the 2049-node one: P and Q across the
    # table's shift range, and the Taylor coefficients, to 1e-14 of their max
    probe = np.linspace(-9.0, 9.0, 361)
    for got, want in zip(_unit_kernel(a), dense_unit_kernel(a)):
        if callable(want):
            got, want = got(probe), want(probe)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("a", [25.0, 30.0, 60.0])
def test_unit_kernel_zones_agree_at_large_offset(a):
    # from a = 23 on, cosh(sqrt(y) a) overflowed on the Taylor circle and the
    # coefficients were NaN; the Taylor and Chebyshev forms of h and V agree
    # at the zone edge |c| = 0.45 rho and inside the disc
    P, Q, k_hat = _unit_kernel(a)
    c = np.array([-0.45 * _RHO, -0.3, 0.3, 0.45 * _RHO])
    ch = c / _RHO
    powers = ch[:, None] ** np.arange(1, len(k_hat) + 1)
    mm = np.arange(len(k_hat))
    h_taylor = -_RHO * (powers @ (k_hat / (mm + 1)))
    v_taylor = _RHO ** 2 * ((powers * ch[:, None]) @ (k_hat / (2.0 * (mm + 1) * (mm + 2))))
    h_cheb, v_cheb = -P(c), 0.5 * c * P(c) - 0.5 * Q(c)
    assert np.all(np.abs(h_taylor - h_cheb) <= 1e-12 * np.abs(h_cheb))
    assert np.all(np.abs(v_taylor - v_cheb) <= 1e-12 * np.abs(v_cheb))


class TestPeriodicOrbit:
    def test_harmonic_period_any_amplitude(self):
        for om in (0.5, 2.0):
            for r in (1e-5, 1e-2):
                orb = periodic_orbit(HarmonicH(om), r)
                assert abs(orb.period - 2 * np.pi / om) < 1e-10
                assert abs(orb.r - r) < 1e-11 * r

    def test_pendulum_vs_elliptic_oracle(self):
        for r in (1e-2, 0.5, 2.0):
            orb = periodic_orbit(PendulumH(), r)
            exact = 4.0 * ellipk(np.sin(orb.beta_plus / 2.0) ** 2)
            assert abs(orb.period - exact) < 1e-10

    @settings(max_examples=60)
    @given(om=st.floats(0.1, 10.0), r=st.floats(1e-12, 1.0))
    def test_harmonic_period_exact(self, om, r):
        # G is the segment mean of -h: exact for linear h at any amplitude
        # (the E - V(beta) form lost up to 1.6e-12 at its end nodes)
        period = periodic_orbit(HarmonicH(om), r).period
        assert abs(period - 2 * np.pi / om) <= 1e-14 * (2 * np.pi / om)

    @settings(max_examples=30)
    @given(r=st.floats(1e-3, 5.0))
    def test_pendulum_period_exact(self, r):
        orb = periodic_orbit(PendulumH(), r)
        exact = 4.0 * ellipk(np.sin(orb.beta_plus / 2.0) ** 2)
        assert abs(orb.period - exact) <= 1e-14 * exact

    def test_pendulum_period_monotone_toward_separatrix(self):
        rs = (0.5, 2.0, 4.0, 6.0)
        periods = [periodic_orbit(PendulumH(), r).period for r in rs]
        assert all(np.diff(periods) > 0)

    def test_period_limit_rate(self, maxwellian2):
        mp = build_modified(maxwellian2, 0.1, 1.0, 1, v0=3.0)
        h = make_h(mp)
        om2 = -h.hprime0()
        devs = [abs((2 * np.pi / periodic_orbit(h, r).period) ** 2 - om2)
                for r in (1e-2, 1e-3, 1e-4)]
        assert all(np.diff(devs) < 0)
        # O(r) or better: consecutive ratios drop at least linearly
        assert devs[1] < 0.2 * devs[0]
        assert devs[2] < 0.2 * devs[1]

    def test_amplitude_too_large_detected(self, maxwellian2):
        # the narrow feature bounds the admissible potential range; a huge
        # amplitude request must fail loudly rather than extrapolate
        mp = build_modified(maxwellian2, 0.05, 1.0, 1, v0=3.0)
        h = make_h(mp)
        with pytest.raises(AmplitudeTooLargeError):
            periodic_orbit(h, 1.0)

    @pytest.mark.parametrize("r", [0.0, -1e-3, math.nan])
    def test_bad_amplitude_refused(self, r):
        # r = 0 once read as an escaping orbit, r < 0 as a math domain error
        with pytest.raises(ValidationError, match=f"r must be finite and positive, got {r}"):
            periodic_orbit(HarmonicH(1.0), r)


def dop853_sample(orb, h, n):
    """Oracle: uniform samples of one period of beta'' = h(beta) from the
    maximum, by DOP853 at rtol 1e-13 (the sampler ``OrbitSolution.sample``
    replaced)."""
    from scipy.integrate import solve_ivp

    scale = max(abs(orb.beta_plus), abs(orb.beta_minus))
    xs = np.linspace(0.0, orb.period, n, endpoint=False)
    sol = solve_ivp(lambda x, yv: [yv[1], h(yv[0])], (0.0, orb.period),
                    [orb.beta_plus, 0.0], t_eval=xs, method="DOP853", rtol=1e-13,
                    atol=1e-16 * scale, max_step=orb.period / 16)
    assert sol.success
    return xs, sol.y[0]


def theta_rule(h, orb):
    """Oracle: the period and H^2 amplitude of ``orb`` on the 128-node
    Gauss-Legendre rule in theta (beta = mid + rho sin theta) that the
    cosine series of ``_orbit_at`` replaced."""
    nodes, weights = np.polynomial.legendre.leggauss(128)
    th, w = nodes * (np.pi / 2.0), weights * (np.pi / 2.0)
    bp, bm = orb.beta_plus, orb.beta_minus
    rho, sin_t, cos_t = 0.5 * (bp - bm), np.sin(th), np.cos(th)
    G = bgk_mod._orbit_g(h, bp, bm, sin_t)
    beta, invsq = 0.5 * (bp + bm) + rho * sin_t, 1.0 / np.sqrt(G)
    period = math.sqrt(2.0) * float(w @ invsq)
    r2 = math.sqrt(2.0) * float(w @ ((beta ** 2 + h(beta) ** 2) * invsq)) \
        + 2.0 * math.sqrt(2.0) * rho ** 2 * float(w @ (cos_t ** 2 * np.sqrt(G)))
    return period, math.sqrt(r2)


class CountingH:
    """h with a count of the points at which it is evaluated."""

    def __init__(self, h):
        self.h, self.points = h, 0

    def __call__(self, b):
        self.points += np.size(b)
        return self.h(b)

    def hprime0(self):
        return self.h.hprime0()

    def potential(self, b):
        return self.h.potential(b)


@pytest.fixture(scope="module")
def edge_h(maxwellian2):
    """The gamma = 0.05 case-1 h, whose centre basin ends near r = 0.0134."""
    return make_h(build_modified(maxwellian2, 0.05, 1.0, 1, v0=3.0))


class TestOrbitSeries:
    @settings(max_examples=30, deadline=None)
    @given(r=st.floats(1e-3, 5.0))
    def test_pendulum_matches_theta_rule(self, r):
        orb = periodic_orbit(PendulumH(), r)
        for ours, ref in zip((orb.period, orb.r), theta_rule(PendulumH(), orb)):
            assert abs(ours - ref) <= 1e-14 * ref

    @settings(max_examples=20, deadline=None)
    @given(r=st.floats(1e-3, 0.012))
    def test_basin_edge_matches_theta_rule(self, edge_h, r):
        # at r = 0.0134 the period is 9.66 against the harmonic 5.70
        orb = periodic_orbit(edge_h, r)
        for ours, ref in zip((orb.period, orb.r), theta_rule(edge_h, orb)):
            assert abs(ours - ref) <= 1e-14 * ref

    def test_sample_evaluates_no_h(self, edge_h):
        h = CountingH(edge_h)
        orb = bgk_mod._orbit_at(h, 1e-3)
        assert h.points > 0
        h.points = 0
        orb.sample(1024)
        assert h.points == 0


class TestOrbitSample:
    @staticmethod
    def check_against_dop853(wave):
        orb = periodic_orbit(wave.h, wave.amplitude)
        xs, beta = orb.sample(1024)
        xs_ref, beta_ref = dop853_sample(orb, wave.h, 1024)
        assert np.array_equal(xs, xs_ref)
        scale = np.max(np.abs(beta_ref))
        # the maximum at x = 0 and the minimum at half the period
        assert abs(beta[0] - orb.beta_plus) <= 1e-15 * scale
        assert abs(beta[512] - orb.beta_minus) <= 1e-15 * scale
        assert np.max(np.abs(beta - beta_ref)) <= 1e-11 * scale

    def test_case3_steady_wave(self):
        p, _ = tuned_case3_profile()
        self.check_against_dop853(match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)[1])

    def test_budget_wave(self, maxwellian2):
        wave, _ = build_wave(maxwellian2, 2 * np.pi, eps=1e-1)
        self.check_against_dop853(wave)

    @pytest.mark.parametrize("n", [7, 8, 1000])
    def test_uneven_counts_close_the_period(self, n):
        # the mirrored half meets itself for odd and even counts alike
        orb = periodic_orbit(PendulumH(), 2.0)
        _, beta = orb.sample(n)
        _, beta_ref = dop853_sample(orb, PendulumH(), n)
        assert len(beta) == n
        assert np.max(np.abs(beta - beta_ref)) <= 1e-11 * np.max(np.abs(beta_ref))


def shifted_lower_root(monkeypatch, shift):
    """Move beta_- by ``shift`` ulp or, with shift None, replace it by scipy's
    brentq on the same bracket.  beta_- is the one negative root that
    ``_false_position`` returns; the modification scale delta is positive."""
    from scipy.optimize import brentq

    solve = bgk_mod._false_position

    def patched(fun, lo, hi, f_lo, f_hi, tol):
        if max(lo, hi) > 0:
            return solve(fun, lo, hi, f_lo, f_hi, tol)
        if shift is None:
            return brentq(fun, min(lo, hi), max(lo, hi), xtol=1e-300, rtol=1e-15), []
        x, brackets = solve(fun, lo, hi, f_lo, f_hi, tol)
        return x + shift * np.spacing(x), brackets

    monkeypatch.setattr(bgk_mod, "_false_position", patched)


def matched_deltas(maxwellian2, budget_wave):
    """delta of the budget wave's (gamma, r) match and of the case-3 match."""
    pv = budget_wave[0].provenance
    runs = [(maxwellian2, pv["gamma"], pv["r"], 1), (tuned_case3_profile()[0], 0.0, 1e-3, 3)]
    return [match_period(f, 2 * np.pi, g, r, case=c)[0] for f, g, r, c in runs]


class TestTurningPoints:
    def test_matched_delta_equals_brentq_build(self, maxwellian2, budget_wave, monkeypatch):
        ours = matched_deltas(maxwellian2, budget_wave)
        shifted_lower_root(monkeypatch, None)
        for delta, ref in zip(ours, matched_deltas(maxwellian2, budget_wave)):
            assert abs(delta - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("shift", [-3, 3])
    def test_root_ulps_do_not_move_delta_or_certificate(self, maxwellian2, budget_wave,
                                                         monkeypatch, shift):
        # G once read E - V(beta), which cancels at the end nodes: 3 ulp of
        # beta_- moved delta and the certificate by up to 1.9e-12
        ours = matched_deltas(maxwellian2, budget_wave)
        shifted_lower_root(monkeypatch, shift)
        for delta, ref in zip(matched_deltas(maxwellian2, budget_wave), ours):
            assert abs(delta - ref) <= 1e-15 * ref
        total = build_wave(maxwellian2, 2 * np.pi, eps=1e-1)[1].total
        assert abs(total - budget_wave[1].total) <= 1e-15 * budget_wave[1].total

    def test_convexity_loss_refused(self, maxwellian2):
        # past the centre basin of a case-1 wave the potential turns over
        h = make_h(build_modified(maxwellian2, 0.05, 1.0, 1, v0=3.0))
        assert bgk_mod._orbit_at(h, 4e-4).beta_minus < 0
        with pytest.raises(AmplitudeTooLargeError, match="loses convexity"):
            bgk_mod._orbit_at(h, 6e-3)

    def test_rounding_above_tolerance_closes_on_root(self, maxwellian2, monkeypatch):
        # at beta_+ = 4e-3 the rounding of V near beta_- (1.5e-15 E) exceeds the
        # 1e-15 E tolerance: the bracket closes to one ulp and its end is taken
        h = make_h(build_modified(maxwellian2, 0.05, 1.0, 1, v0=3.0))
        solve, seen = bgk_mod._false_position, []

        def spy(*args):
            seen.append(solve(*args))
            return seen[-1]

        monkeypatch.setattr(bgk_mod, "_false_position", spy)
        orb = bgk_mod._orbit_at(h, 4e-3)
        assert seen[-1][0] is None and orb.beta_minus == seen[-1][1][-1][0]
        energy = h.potential(4e-3)
        assert abs(h.potential(orb.beta_minus) - energy) <= 4e-15 * energy


def _fresh_stdout(script):
    """Standard output of ``script`` run in a fresh interpreter on the package."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip()


def test_budget_build_imports_no_root_finder():
    # the turning points are solved in the package: building the budget wave
    # must not import scipy.optimize (about 0.3 s on a cold start)
    script = """
import sys
import numpy as np
from vplab.bgk import build_wave
from vplab.profiles import VelocityGrid, make_builtin

build_wave(make_builtin("maxwellian", VelocityGrid(2, 8.0, 256)), 2 * np.pi, eps=1e-1)
print("scipy.optimize" in sys.modules)
"""
    assert _fresh_stdout(script) == "False"


def test_obstruction_imports_no_quadrature_or_spline():
    # g(beta) is one fixed Gauss-Legendre rule: the obstruction on the 1-, 2-
    # and 3-torus needs neither scipy.integrate nor scipy.interpolate
    script = """
import sys
import numpy as np
from vplab.bgk import obstruction_diagnostic, obstruction_fixed_point

x = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
for d in (1, 2, 3):
    beta = 0.3 * np.cos(x).reshape((-1,) + (1,) * (d - 1)) + np.zeros((16,) * d)
    obstruction_diagnostic(lambda e: np.exp(-e), beta, (2 * np.pi,) * d)
    obstruction_fixed_point(lambda e: np.exp(-e), (2 * np.pi,) * d, beta)
print(sorted(m for m in ("scipy.integrate", "scipy.interpolate") if m in sys.modules))
"""
    assert _fresh_stdout(script) == "[]"


def test_fft_wavenumbers_only_in_fourier_multiplier():
    # every periodic symbol of norms, bgk, closeness and profiles goes through
    # profiles.fourier_multiplier: no other function there builds FFT
    # wavenumbers or runs a full complex transform pair
    import ast
    from pathlib import Path

    names = {"fft2", "ifft2", "ifftn", "fftfreq", "rfftfreq"}
    src = Path(bgk_mod.__file__).parent
    found = []
    for module in ("norms", "bgk", "closeness", "profiles"):
        tree = ast.parse((src / f"{module}.py").read_text())
        tree.body = [node for node in tree.body
                     if getattr(node, "name", None) != "fourier_multiplier"]
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if getattr(node, "attr", getattr(node, "id", None)) in names]
    assert found == []


class TestMatchPeriod:
    @pytest.mark.parametrize("r", [0.0, -1e-3, math.nan])
    def test_bad_amplitude_refused_before_bracket(self, maxwellian2, monkeypatch, r):
        # inside the bracket a ValidationError reads as a NaN period: r = nan
        # once took 2.8 s to end as "orbit escapes"
        def no_work(*args, **kw):
            raise AssertionError("bracket reached")

        monkeypatch.setattr(bgk_mod, "build_modified", no_work)
        with pytest.raises(ValidationError, match=f"r must be finite and positive, got {r}"):
            match_period(maxwellian2, 2 * np.pi, 0.1, r, case=1)

    @pytest.mark.parametrize("gamma", [math.nan, -0.1, 0.0])
    def test_bad_gamma_refused_before_bracket(self, monkeypatch, gamma):
        # a refusal inside the bracket reads as a NaN period: these once
        # raised BracketError "[nan, nan]", NaN with 12 RuntimeWarnings
        m2 = make_builtin("maxwellian", VelocityGrid(2, 8.0, 128))
        for case in (1, 2):
            with pytest.raises(ValidationError,
                               match=f"gamma must be finite and positive, got {gamma}"):
                build_modified(m2, gamma, 1.0, case)

        def no_work(*args, **kw):
            raise AssertionError("bracket reached")

        monkeypatch.setattr(bgk_mod, "build_modified", no_work)
        with pytest.raises(ValidationError, match=f"gamma must be finite and positive, got {gamma}"):
            match_period(m2, 2 * np.pi, gamma, 1e-3, case=1)

    def test_case1_end_to_end(self, maxwellian2, monkeypatch):
        t1 = 2 * np.pi
        solves = []

        def counted(*args, **kw):
            solves.append(1)
            return periodic_orbit(*args, **kw)

        monkeypatch.setattr(bgk_mod, "periodic_orbit", counted)
        delta, wave = match_period(maxwellian2, t1, gamma=0.1, r=1e-3)
        assert abs(wave.amplitude - 1e-3) < 1e-12
        assert wave.poisson_residual() <= 1e-7
        assert wave.count_maxima() == 1
        assert np.max(np.abs(wave.efield)) > 0.1 * wave.amplitude / t1
        assert wave.min_distribution_value() >= 0.0
        # the mass per period is T1 plus the time-independent residual sum h(beta) dx
        mass = wave.T1 + float(np.sum(wave.h(wave.beta)) * wave.T1 / len(wave.beta))
        assert abs(mass - t1) < 1e-7
        widths = np.asarray(wave.provenance["bisection_widths"])
        assert np.all(widths > 0) and np.all(np.diff(widths) <= 0)
        d_star = _seed_delta(maxwellian2, t1, 0.1, 1, 3.0)
        assert widths[0] == pytest.approx(0.45 * d_star, rel=1e-12)
        assert 0.8 * d_star < delta < 1.25 * d_star
        assert len(solves) <= 12
        assert wave.provenance["v0"] == 3.0  # the case-1 bump offset

    def test_relative_poisson_residual(self, maxwellian2):
        _, wave = match_period(maxwellian2, 2 * np.pi, gamma=0.1, r=1e-3)
        rel = wave.relative_poisson_residual()
        assert rel <= 1e-6
        assert rel == pytest.approx(
            wave.poisson_residual() / np.max(np.abs(wave._beta2())), rel=1e-12)
        # a 1e-5 relative error in h stays under the absolute 1e-7 gate at
        # this amplitude; only the relative residual sees it
        h = wave.h
        off = dataclasses.replace(wave, h=lambda b: (1.0 + 1e-5) * h(b))
        assert off.poisson_residual() <= 1e-7
        assert off.relative_poisson_residual() > 5e-6

    def test_distance_to_profile_vanishes_with_r(self, maxwellian2):
        from vplab.closeness import wave_profile_distance

        dists = []
        for r in (1e-3, 1e-4, 1e-5):
            _, wave = match_period(maxwellian2, 2 * np.pi, gamma=0.1, r=r)
            dists.append(wave_profile_distance(wave, 1.2, 2.0).total)
        assert all(np.diff(dists) < 0)
        assert dists[-1] < 2e-2 * dists[0]

    def test_bracket_failure_reported(self, maxwellian2):
        # at T1 = 4 pi the grown bracket still has one endpoint with no
        # periodic orbit at all ("not inside [2.5773, nan]"); the error
        # still reports both entries.  Once the period-variable bracket
        # (ROADMAP item 1) builds this box, the test must move to another.
        with pytest.raises(BracketError) as err:
            match_period(maxwellian2, 4 * np.pi, gamma=0.1, r=1e-3)
        assert hasattr(err.value, "t_lo") and hasattr(err.value, "t_hi")
        assert "not inside" in str(err.value)

    def test_case3_resolvable_wave(self):
        p, _ = tuned_case3_profile()
        delta, wave = match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)
        assert abs(delta - 1.0) < 0.05
        assert wave.poisson_residual() <= 1e-7
        assert wave.min_distribution_value() >= 0.0
        assert wave.provenance["v0"] == 0.0  # case 3 adds no bump


class TestFalsePosition:
    @settings(max_examples=200)
    @given(a=st.floats(1e-3, 1e3), b=st.floats(1e-2, 8.0),
           c=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           root=st.floats(1e-3, 0.999), sign=st.sampled_from((-1.0, 1.0)))
    def test_smooth_monotone(self, a, b, c, root, sign):
        # steep exponentials keep one end many times in a row, which is
        # where the halving of the kept residual takes effect
        t = a * math.exp(b * root) + c * root

        def f(x):
            return sign * (a * math.exp(b * x) + c * x - t)

        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        f_lo, f_hi = f(0.0), f(1.0)
        tol = 1e-10 * abs(f_hi - f_lo)
        x, brackets = _false_position(counted, 0.0, 1.0, f_lo, f_hi, tol)
        assert x is not None and abs(f(x)) <= tol
        assert all(f(lo) * f(hi) < 0 for lo, hi in brackets)
        widths = np.array([hi - lo for lo, hi in brackets])
        assert np.all(np.diff(widths) <= 0)
        assert len(calls) <= 40

    def test_linear_in_one_step(self):
        x, brackets = _false_position(lambda x: 3.0 * x - 1.0, -2.0, 5.0,
                                      -7.0, 14.0, 1e-12)
        assert x == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert len(brackets) == 1

    def test_unmet_tolerance_returns_none(self):
        x, brackets = _false_position(lambda x: x, -1.0, 2.0, -1.0, 2.0, -1.0)
        assert x is None and len(brackets) == 301

    def test_closed_bracket_returns_none_early(self):
        # a jump at 1/3 never meets the tolerance: the search stops once the
        # bracket holds no float, with the jump between its ends
        x, brackets = _false_position(lambda x: 1.0 if x > 1 / 3 else -1.0, 0.0, 1.0,
                                      -1.0, 1.0, 0.5)
        lo, hi = brackets[-1]
        assert x is None and len(brackets) < 301
        assert np.nextafter(lo, hi) == hi and min(lo, hi) <= 1 / 3 < max(lo, hi)


class TestGalileanBoost:
    def test_zero_boost_identity(self, maxwellian2):
        _, wave = match_period(maxwellian2, 2 * np.pi, gamma=0.1, r=1e-3)
        same = galilean_boost(wave, 0.0)
        assert np.array_equal(same.beta, wave.beta)
        assert same.c == wave.c

    def test_boost_then_unboost(self, maxwellian2):
        _, wave = match_period(maxwellian2, 2 * np.pi, gamma=0.1, r=1e-3)
        back = galilean_boost(galilean_boost(wave, 0.7), -0.7)
        x = np.linspace(0, 2 * np.pi, 17)
        v1 = np.linspace(-3, 3, 13)
        a = wave.sample_phase_space(x, v1, [0.0])[..., 0]
        b = back.sample_phase_space(x, v1, [0.0])[..., 0]
        assert np.max(np.abs(a - b)) < 1e-12

    def test_travelling_residual(self, maxwellian2):
        # d_t f + v d_x f - E d_v f must vanish for the boosted closure;
        # evaluated spectrally on a periodic sample at t = 0 where
        # d_t f = -c d_x f
        from scipy import fft as sfft

        _, wave = match_period(maxwellian2, 2 * np.pi, gamma=0.1, r=1e-3)
        boosted = galilean_boost(wave, 0.5)
        nx, nv = 256, 1024
        x = 2 * np.pi / nx * np.arange(nx)
        vmax = 10.0
        v1 = -vmax + 2 * vmax / nv * np.arange(nv)
        f = boosted.sample_phase_space(x, v1, [0.0])[..., 0]
        kx = 2 * np.pi * sfft.fftfreq(nx, d=x[1] - x[0])
        dfdx = sfft.ifft(1j * kx[:, None] * sfft.fft(f, axis=0), axis=0).real
        eta = 2 * np.pi * sfft.fftfreq(nv, d=v1[1] - v1[0])
        dfdv = sfft.ifft(1j * eta[None, :] * sfft.fft(f, axis=1), axis=1).real
        e = sfft.ifft(-1j * kx * sfft.fft(boosted.beta_at(x))).real  # E = -beta'
        resid = (-boosted.c * dfdx + v1[None, :] * dfdx
                 - e[:, None] * dfdv)
        assert np.max(np.abs(resid)) < 1e-6


def tensor_sample(wave, x, v1, *trans_axes):
    """The outer-product form of BgkWave.sample_phase_space (bit oracle)."""
    shape = [len(x), len(v1)] + [len(a) for a in trans_axes]
    b = wave.beta_at(x)
    u = v1 - wave.c
    y = u[None, :] ** 2 - 2.0 * b[:, None]
    out = np.zeros(shape)
    for t in wave.mp.mixture.even_part().terms:
        a = t.weight * t.even_val(y.ravel()).reshape(y.shape)
        tv = t.transverse_val(*trans_axes)
        if trans_axes:
            out += np.multiply.outer(a, tv) if np.ndim(tv) else a[..., None] * tv
        else:
            out += a
    return out


class TestSamplePhaseSpace:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_bits_as_tensor_form(self, dim, maxwellian1, maxwellian2):
        p = maxwellian1 if dim == 1 else maxwellian2
        _, wave = match_period(p, 2 * np.pi, gamma=0.1, r=1e-3)
        boosted = galilean_boost(wave, 0.5)
        x = 2 * np.pi / 256 * np.arange(256)
        v1 = VelocityGrid(1, 8.0, 128).axis()
        trans = [VelocityGrid(1, 8.0, 64).axis()] * (dim - 1)
        f = boosted.sample_phase_space(x, v1, *trans)
        assert f.shape == (256, 128) + (64,) * (dim - 1)
        assert np.array_equal(f, tensor_sample(boosted, x, v1, *trans))


class TestBuildWave:
    def test_budgeted_build(self, maxwellian2):
        wave, rep = build_wave(maxwellian2, 2 * np.pi, eps=0.5)
        assert rep.total < 0.5
        assert rep.to_json()["upper_bound"]

    def test_explicit_parameters(self, maxwellian2):
        wave, rep = build_wave(maxwellian2, 2 * np.pi, gamma=0.1, r=1e-3)
        assert wave.amplitude == pytest.approx(1e-3, rel=1e-10)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_travel_speed_refused(self, maxwellian2, c):
        # the boost moves the wave off f0 (direct L1 distance 1.365 at c = 2)
        # while the certificate still reads 0.0454: refused on both paths
        for kw in ({"eps": 1e-1}, {"gamma": 0.1, "r": 1e-3}):
            with pytest.raises(ValidationError, match=f"c = {c:g}"):
                build_wave(maxwellian2, 2 * np.pi, c=c, **kw)

    @pytest.mark.parametrize("t1, kw, shown", [
        (-1.0, {"eps": 0.1}, "period T1 must be finite and positive, got -1.0"),
        (float("nan"), {"eps": 0.1}, "period T1 must be finite and positive, got nan"),
        (2 * np.pi, {"eps": float("nan")}, "eps must be finite, got nan"),
        (2 * np.pi, {"gamma": float("inf"), "r": 1e-3}, "gamma must be finite, got inf"),
        (2 * np.pi, {"r": float("nan")}, "r must be finite, got nan"),
        (2 * np.pi, {"eps": -0.1}, "eps must be positive, got -0.1"),
        (2 * np.pi, {"eps": 0.5, "gamma": -3.0}, "gamma must be positive, got -3.0"),
        (2 * np.pi, {"gamma": 0.1, "r": 0.0}, "r must be positive, got 0.0"),
        (2 * np.pi, {"eps": 0.5, "gamma": 0.05}, "eps = 0.5 and gamma = 0.05 given together"),
        (2 * np.pi, {"eps": 0.5, "r": 1e-3}, "eps = 0.5 and r = 0.001 given together"),
        (2 * np.pi, {"eps": 0.1, "p": float("nan")}, "p must be finite, got nan"),
        (2 * np.pi, {"eps": 0.1, "s": float("nan")}, "s must be finite, got nan"),
        (2 * np.pi, {"eps": 0.1, "s": float("inf")}, "s must be finite, got inf"),
        (2 * np.pi, {"eps": 0.1, "p": 0.5}, "p must be > 1, got 0.5"),
        (2 * np.pi, {"eps": 0.1, "p": 1.0}, "p must be > 1, got 1.0"),
        (2 * np.pi, {"gamma": 0.1, "r": 1e-3, "p": 0.5}, "p must be > 1, got 0.5"),
    ])
    def test_bad_scalars_refused_before_work(self, maxwellian2, monkeypatch, t1, kw, shown):
        # T1 = -1 once raised a math domain error, eps = nan searched for 3 s,
        # r = nan reported the bracket [nan, nan], and gamma = -3 or 0.05
        # beside a budget was dropped without a word; p = nan searched for
        # 73 s, and p = 0.5 "certified" a triangle sum that bounds nothing
        def no_work(*args):
            raise AssertionError("construction started")

        monkeypatch.setattr(bgk_mod, "select_case", no_work)
        with pytest.raises(ValidationError, match=shown):
            build_wave(maxwellian2, t1, **kw)

    @pytest.mark.parametrize("p, s", [(2.0, 1.5), (2.0, 1.6), (1.5, 1.7)])
    def test_regularity_refused_up_front(self, maxwellian2, monkeypatch, p, s):
        import vplab.closeness

        def no_search(*args, **kw):
            raise AssertionError("gamma search started")

        monkeypatch.setattr(vplab.closeness, "modified_profile_distance", no_search)
        with pytest.raises(RegularityError) as err:
            build_wave(maxwellian2, 2 * np.pi, eps=0.5, s=s, p=p)
        assert isinstance(err.value, ValidationError)
        assert (err.value.s, err.value.p) == (s, p)
        assert err.value.gap == pytest.approx(1.0 + 1.0 / p - s, abs=1e-15)
        assert err.value.gap <= 0.0


class TestObstruction:
    @settings(max_examples=25)
    @given(d=st.sampled_from((1, 2)), n=st.integers(513, 4096),
           lo=st.floats(-10.0, 10.0), width=st.floats(0.0, 10.0))
    def test_g_against_exponential_closed_form(self, d, n, lo, width):
        # mu = e^{-e}: g_d(beta) = 1 - (2 pi)^{d/2} e^beta, on batches above
        # 512 points, where a 257-node spline once replaced the quadrature
        beta = np.linspace(lo, lo + width, n).reshape(-1, 1 + (n % 2 == 0))
        want = 1.0 - (2.0 * np.pi) ** (d / 2.0) * np.exp(beta)
        got = bgk_mod._g_of_beta(lambda e: np.exp(-e), beta, d)
        assert got.shape == beta.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_exponential_mu_certificate(self, rng):
        periods = (2 * np.pi, 2 * np.pi)
        nx = 64
        x = np.linspace(0, periods[0], nx, endpoint=False)
        for _ in range(3):
            beta = (0.3 * np.cos(x[:, None] + rng.uniform(0, 6))
                    * np.sin(2 * x[None, :] + rng.uniform(0, 6)))
            cert = obstruction_diagnostic(lambda e: np.exp(-e), beta, periods)
            assert cert.certificate == "only_trivial_solutions"
            assert cert.gprime_max < 0
            assert cert.grad_identity_rhs <= 0 <= cert.grad_identity_lhs
            assert cert.elliptic_residual > 1e-3  # nonconstant candidates fail

    def test_constant_candidate_zero_identity(self):
        periods = (2 * np.pi, 2 * np.pi)
        beta = np.full((32, 32), -np.log(2 * np.pi))
        cert = obstruction_diagnostic(lambda e: np.exp(-e), beta, periods)
        assert abs(cert.grad_identity_lhs) < 1e-20
        assert abs(cert.grad_identity_rhs) < 1e-20
        assert cert.elliptic_residual < 1e-10

    def test_fixed_point_lands_on_constant(self, rng):
        periods = (2 * np.pi, 2 * np.pi)
        beta0 = 0.2 * rng.standard_normal((32, 32))
        beta, grad = obstruction_fixed_point(lambda e: np.exp(-e), periods, beta0)
        assert grad < 1e-8
        assert abs(np.mean(beta) + np.log(2 * np.pi)) < 1e-6

    def test_negative_mu_rejected(self):
        with pytest.raises(ValidationError):
            obstruction_diagnostic(lambda e: e, np.zeros((16, 16)),
                                   (2 * np.pi, 2 * np.pi))

    def test_mu_negative_at_high_energy_rejected(self):
        # e^{-e} - 1e-3 is negative above e = 6.9, where the rule of g reads
        # it; probing near -beta alone once certified it
        with pytest.raises(ValidationError, match="mu must be nonnegative"):
            obstruction_diagnostic(lambda e: np.exp(-e) - 1e-3, np.zeros((16, 16)),
                                   (2 * np.pi, 2 * np.pi))

    @pytest.mark.parametrize("periods, shown", [
        ((2 * np.pi,), "1 periods for a candidate on 2 axes"),
        ((2 * np.pi,) * 3, "3 periods for a candidate on 2 axes"),
        ((2 * np.pi, np.nan), "period 1 must be finite and positive, got nan"),
        ((np.inf, 2 * np.pi), "period 0 must be finite and positive, got inf"),
        ((2 * np.pi, 0.0), "period 1 must be finite and positive, got 0.0"),
        ((-1.0, 2 * np.pi), "period 0 must be finite and positive, got -1.0"),
    ])
    def test_bad_periods_rejected(self, periods, shown):
        beta = np.zeros((16, 16))
        with pytest.raises(ValidationError, match=shown):
            obstruction_diagnostic(lambda e: np.exp(-e), beta, periods)
        with pytest.raises(ValidationError, match=shown):
            obstruction_fixed_point(lambda e: np.exp(-e), periods, beta)

    @settings(max_examples=30)
    @given(d=st.sampled_from((1, 2, 3)), lo=st.floats(-10.0, 10.0), width=st.floats(0.0, 10.0))
    def test_g_prime_against_exponential_closed_form(self, d, lo, width):
        # mu = e^{-e}: g_d'(beta) = -(2 pi)^{d/2} e^beta in every dimension
        beta = np.linspace(lo, min(lo + width, 10.0), 64)
        want = -(2.0 * np.pi) ** (d / 2.0) * np.exp(beta)
        got = bgk_mod._g_prime(lambda e: np.exp(-e), beta, d)
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))

    @pytest.mark.parametrize("mu", [
        lambda e: np.exp(-e),
        lambda e: np.exp(-e) + 0.5 * np.exp(-2.0 * e),
    ], ids=["exponential", "two-temperature"])
    def test_gprime_max_against_2d_closed_form(self, rng, mu):
        # on the 2-torus g'(beta) = -2 pi mu(-beta), the closed form the
        # diagnostic once hard-coded
        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        beta = (0.4 * np.cos(x[:, None] + rng.uniform(0, 6))
                * np.sin(2 * x[None, :] + rng.uniform(0, 6)))
        cert = obstruction_diagnostic(mu, beta, (2 * np.pi, 2 * np.pi))
        want_max = float(np.max(-2.0 * np.pi * mu(-beta)))
        want_min = float(np.min(-2.0 * np.pi * mu(-beta)))
        assert abs(cert.gprime_max - want_max) <= 1e-9 * abs(want_max)
        assert abs(cert.gprime_min - want_min) <= 1e-9 * abs(want_min)

    def test_three_torus_certificate_and_fixed_point(self, rng):
        # d = 3: g' = -(2 pi)^{3/2} e^beta < 0, and the only solution is the
        # constant root -(3/2) log 2 pi of g
        periods = (2 * np.pi,) * 3
        x = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        beta = (0.3 * np.cos(x[:, None, None]) * np.sin(2 * x[None, :, None])
                * np.cos(x[None, None, :] + 1.0))
        start = time.perf_counter()
        cert = obstruction_diagnostic(lambda e: np.exp(-e), beta, periods)
        assert cert.certificate == "only_trivial_solutions"
        assert cert.gprime_min <= cert.gprime_max < 0
        assert cert.grad_identity_rhs <= 0 <= cert.grad_identity_lhs
        root, grad = obstruction_fixed_point(lambda e: np.exp(-e), periods,
                                             0.2 * rng.standard_normal((32, 32, 32)))
        elapsed = time.perf_counter() - start
        assert grad < 1e-8
        assert np.max(np.abs(root + 1.5 * np.log(2 * np.pi))) < 1e-8
        assert elapsed < 5.0

    def test_fixed_point_step_cap(self, monkeypatch):
        # the iteration once returned after its last step whether or not
        # the update had settled
        monkeypatch.setattr(bgk_mod, "_FIXED_POINT_STEPS", 2)
        beta0 = 0.2 * np.cos(np.linspace(0, 2 * np.pi, 32, endpoint=False))
        with pytest.raises(RefinementCapError, match=r"in 2 steps: last update \d\.\d\de-\d\d"):
            obstruction_fixed_point(lambda e: np.exp(-e), (2 * np.pi,), beta0)

    def test_1d_contrast_sign_change(self):
        # mu(e) = e^2 exp(-e) on e > 0 gives a 1D source slope of both signs,
        # so the 1-torus diagnostic carries no certificate
        def mu(e):
            e = np.asarray(e, dtype=float)
            return np.where(e > 0, e ** 2 * np.exp(-np.clip(e, 0, 700)), 0.0)

        x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        cert = obstruction_diagnostic(mu, 3.0 * np.cos(x), (2 * np.pi,))
        assert cert.certificate is None
        assert cert.gprime_min < 0 < cert.gprime_max
