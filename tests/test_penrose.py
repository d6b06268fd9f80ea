import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mixture_1d, pv_exact
from vplab.errors import DegenerateProfileError, ValidationError
from vplab.penrose import (
    DualLattice,
    critical_points,
    critical_pv,
    penrose_check,
    pv_integral,
    truncation_bound,
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


def closure_only(m, grid):
    """The projection of a bare 1D mixture on the grid's axis."""
    ax = grid.axis()
    return ProjectedProfile(ax, m.val(ax), m)


def random_directions(dim, count, seed):
    rng = np.random.default_rng(seed)
    if dim == 1:
        return [np.array([1.0])]
    dirs = []
    while len(dirs) < count:
        v = rng.normal(size=dim)
        nrm = np.linalg.norm(v)
        if nrm > 1e-6:
            dirs.append(v / nrm)
    return dirs


def sampled_pv_max(p):
    """Oracle of the truncation bound: max |PV| over 64 probes of the grid
    axis in each of 20 seeded random directions (the closure's projection,
    which ``project`` carries as ``closure1d``)."""
    pv_max = 0.0
    for e in random_directions(p.grid.dim, 20, 7):
        probes = p.grid.axis()[:: max(1, p.grid.n // 64)]
        pv = p.closure.project_unit(e).cauchy(probes).real
        pv_max = max(pv_max, float(np.max(np.abs(pv))))
    return pv_max


@st.composite
def signed_mixtures(draw):
    """1-3 anisotropic terms in d = 1, 2 or 3 with weights of either sign."""
    dim = draw(st.integers(1, 3))
    terms = [GaussianTerm(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.1, 2.0)),
                          tuple(draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim))),
                          tuple(draw(st.lists(st.floats(0.3, 2.0), min_size=dim, max_size=dim))))
             for _ in range(draw(st.integers(1, 3)))]
    return GaussianMixture(dim, terms)


def pv_excision_oracle(fp, a_prime):
    """Independent brute-force PV: the two sides of an excised symmetric
    window integrated separately, Richardson-extrapolated in the radius."""
    lo, hi = fp.alphas[0], fp.alphas[-1]

    def one_sided(eps):
        total = 0.0
        for a0, a1 in ((lo, a_prime - eps), (a_prime + eps, hi)):
            a = np.linspace(a0, a1, 160001)
            total += np.trapezoid(fp.closure1d.dval(a) / (a - a_prime), a)
        return total

    v0, v1, v2 = one_sided(0.08), one_sided(0.04), one_sided(0.02)
    # the excised window contributes 2 eps f'' + c eps^3 + ...: two
    # Richardson levels remove both leading terms
    r0, r1 = 2.0 * v1 - v0, 2.0 * v2 - v1
    return (8.0 * r1 - r0) / 7.0


class TestDualLattice:
    def test_members(self):
        lat = DualLattice((2 * np.pi, np.pi))
        mem = lat.members_within(4.0)
        ks = {m[0] for m in mem}
        assert (1.0, 0.0) in ks and (0.0, 2.0) in ks
        assert (0.0, 0.0) not in ks
        assert len(ks) == len(mem)  # no duplicates

    def test_validation(self):
        with pytest.raises(ValidationError):
            DualLattice((1.0, -2.0))
        for period in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match=f"finite and positive, got .*{period}"):
                DualLattice((period, 2 * np.pi))


class TestCriticalPoints:
    def test_maxwellian_single(self, maxwellian2):
        crit = critical_points(project(maxwellian2, (1.0, 0.0)))
        assert len(crit) == 1
        assert abs(crit[0]) < 1e-12

    def test_double_bump_three(self, double_bump2):
        # oracle: roots of the closed-form derivative via bracketed brentq
        from scipy.optimize import brentq

        fp = project(double_bump2, (1.0, 0.0))
        crit = critical_points(fp)
        assert len(crit) == 3

        def dv(a):
            return float(fp.closure1d.dval(np.array([a]))[0])

        roots = [brentq(dv, lo, hi, xtol=1e-14) for lo, hi in
                 ((-4, -2), (-1, 1), (2, 4))]
        for c, r in zip(crit, roots):
            assert abs(c - r) < 1e-6
        assert abs(crit[0] + 3.0) < 1e-6 and abs(crit[2] - 3.0) < 1e-6

    def test_monotone_stretch_empty(self, grid1):
        # a single Gaussian at 3 is strictly monotone on |alpha| < 1.5
        crit = critical_points(closure_only(mixture_1d((1.0, 3.0, 1.0)), grid1))
        assert [c for c in crit if abs(c) < 1.5] == []
        assert crit == pytest.approx([3.0], abs=1e-12)

    def test_drifting_maxwellian_peak(self, grid1):
        # a term's mean carries through the projection: the one critical
        # point of a Maxwellian drifting at u is u
        p = Profile.from_closure(grid1, GaussianMixture(1, [GaussianTerm(1.0, (0.5,), (1.0,))]))
        assert critical_points(project(p, (1.0,))) == pytest.approx([0.5], abs=1e-12)

    def test_degenerate_rejected(self, grid1):
        fp = closure_only(mixture_1d((0.0, 0.0, 1.0)), grid1)
        with pytest.raises(DegenerateProfileError):
            critical_points(fp)


class TestPvIntegral:
    def test_maxwellian_minus_one(self, maxwellian2):
        fp = project(maxwellian2, (1.0, 0.0))
        assert abs(pv_integral(fp, 0.0) + 1.0) < 1e-9

    def test_against_excision_oracle(self, maxwellian2):
        fp = project(maxwellian2, (1.0, 0.0))
        for ap in (0.0, 0.7, -1.3):
            oracle = pv_excision_oracle(fp, ap)
            assert abs(pv_integral(fp, ap) - oracle) < 1e-6

    def test_dawson_closed_form(self, double_bump2):
        fp = project(double_bump2, (1.0, 0.0))
        for ap in (0.0, 1.1, 2.9, -4.0):
            assert abs(pv_integral(fp, ap) - pv_exact(fp.closure1d, ap)) < 1e-8

    def test_zero_derivative_gives_zero(self, grid1):
        fp = closure_only(mixture_1d((0.0, 0.0, 1.0)), grid1)
        assert pv_integral(fp, 0.3) == 0.0

    def test_linearity(self, maxwellian2, double_bump2):
        fp1 = project(maxwellian2, (1.0, 0.0))
        g = VelocityGrid(2, 12.0, 512)
        m12 = make_builtin("maxwellian", g)
        db = double_bump2
        mix = Profile.from_closure(
            g, m12.closure.reweighted(0.4).plus(db.closure.reweighted(0.6)))
        pm = project(mix, (1.0, 0.0))
        pa = project(m12, (1.0, 0.0))
        pb = project(db, (1.0, 0.0))
        lhs = pv_integral(pm, 0.5)
        rhs = 0.4 * pv_integral(pa, 0.5) + 0.6 * pv_integral(pb, 0.5)
        assert abs(lhs - rhs) < 1e-8

    def test_even_in_aprime_for_maxwellian(self, maxwellian2):
        fp = project(maxwellian2, (1.0, 0.0))
        for ap in (0.5, 1.5, 3.0):
            assert abs(pv_integral(fp, ap) - pv_integral(fp, -ap)) < 1e-8

    def test_beyond_grid_range_against_dawson(self, maxwellian2):
        # the closed form holds at every real point, past the projected grid too
        fp = project(maxwellian2, (1.0, 0.0))
        assert fp.alphas[-1] < 9.5
        for ap in (9.5, -9.5, 20.0, -20.0):
            assert abs(pv_integral(fp, ap) - pv_exact(fp.closure1d, ap)) < 1e-8

    def test_non_finite_rejected(self, maxwellian2):
        fp = project(maxwellian2, (1.0, 0.0))
        with pytest.raises(ValidationError, match="a' must be finite, got nan"):
            pv_integral(fp, float("nan"))


class TestCriticalPv:
    def test_points_match_pv_integral(self, double_bump2):
        fp = project(double_bump2, (1.0, 0.0))
        crit, pvs = critical_pv(fp)
        assert [pv_integral(fp, c) for c in crit] == pytest.approx(pvs, abs=1e-14)


class TestTruncationBound:
    def test_maxwellian_bound(self, maxwellian2):
        # unit weight, unit widths: B = 1, the |PV| at the Maxwellian's peak
        assert truncation_bound(maxwellian2, 1.6, 0.3) == 1.0
        assert sampled_pv_max(maxwellian2) == pytest.approx(1.0, abs=1e-9)

    def test_linearity_in_profile(self, maxwellian2):
        doubled = Profile(maxwellian2.grid, 2.0 * maxwellian2.values,
                          maxwellian2.closure.reweighted(2.0), {})
        b1 = truncation_bound(maxwellian2, 1.6, 0.3)
        b2 = truncation_bound(doubled, 1.6, 0.3)
        assert abs(b2 - 2.0 * b1) < 1e-8 * b1

    def test_certified_only_by_the_proof_bound(self, double_bump2):
        # the report's B is the closed form over the closure's terms
        rep = penrose_check(double_bump2, DualLattice((2 * np.pi, 2 * np.pi)), 1.6, 0.3)
        closed = sum(abs(t.weight) / min(t.widths) ** 2 for t in double_bump2.closure.terms)
        assert rep.bound == truncation_bound(double_bump2, 1.6, 0.3) == closed
        assert closed == pytest.approx(1.0, abs=1e-12)

    def test_pv_sup_bounds_the_dawson_form(self):
        # the bound's premise: 2x D(x) - 1 lies in [-1, 0.28475]
        from scipy.special import dawsn

        x = np.linspace(0.0, 10.0, 200001)
        peak = 2.0 * x * dawsn(x) - 1.0
        assert peak.min() == -1.0 and peak.max() <= 0.28475
        assert 0.28474 < peak.max()
        assert abs(x[np.argmax(peak)] - 1.502) < 1e-3

    @settings(max_examples=40)
    @given(mix=signed_mixtures())
    def test_bound_covers_the_sampled_pv(self, mix):
        p = Profile.from_closure(VelocityGrid(mix.dim, 8.0, 64), mix)
        bound = truncation_bound(p, 1.6, max(0.3, mix.dim / 4.0))
        # B is attained at a term's mean along its narrowest axis, where the
        # Faddeeva evaluation may round one ulp above it
        assert sampled_pv_max(p) <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("s, b, shown", [
        (float("inf"), 0.3, "s must be finite, got inf"),
        (float("nan"), 0.3, "s must be finite, got nan"),
        (1.6, float("inf"), "b must be finite, got inf"),
        (1.6, float("nan"), "b must be finite, got nan"),
    ])
    def test_non_finite_order_rejected(self, maxwellian2, monkeypatch, s, b, shown):
        # refused by name before any projection is made
        def unreachable(*args):
            raise AssertionError("project reached")

        monkeypatch.setattr("vplab.penrose.project", unreachable)
        with pytest.raises(ValidationError, match=shown):
            penrose_check(maxwellian2, DualLattice((2 * np.pi, 2 * np.pi)), s, b)

    def test_bad_weight_rejected(self, maxwellian2):
        with pytest.raises(ValidationError):
            truncation_bound(maxwellian2, 1.6, 0.2)  # b <= (d-1)/4
        with pytest.raises(ValidationError):
            truncation_bound(maxwellian2, 1.2, 0.3)  # s <= 3/2


class TestPenroseCheck:
    def test_maxwellian_stable_margins(self, maxwellian2):
        rep = penrose_check(maxwellian2, DualLattice((2 * np.pi, 2 * np.pi)),
                            1.6, 0.3)
        assert rep.stable
        assert len(rep.entries) > 0
        for e in rep.entries:
            assert abs(e.margin - (e.k2 + 1.0)) < 1e-6

    def test_threads_match_serial(self, maxwellian2):
        # two directions below B, so two threads take the pooled path
        lattice = DualLattice((2 * np.pi, 2 * np.pi))
        serial = penrose_check(maxwellian2, lattice, 1.6, 0.3, threads=1)
        assert len({e.direction for e in serial.entries}) > 1
        pooled = penrose_check(maxwellian2, lattice, 1.6, 0.3, threads=2)
        assert pooled.to_json() == serial.to_json()

    def test_double_bump_unstable_on_long_box(self, double_bump2):
        # pick T1 with (2 pi/T1)^2 below the PV value at the central dip
        fp = project(double_bump2, (1.0, 0.0))
        pv0 = pv_integral(fp, 0.0)
        assert pv0 > 0
        t1 = 2.0 * np.pi / np.sqrt(pv0 / 2.0)
        rep = penrose_check(double_bump2, DualLattice((t1, t1)), 1.6, 0.3)
        assert not rep.stable
        assert min(e.margin for e in rep.entries) < 0

    def test_truncation_certificate_empty(self, maxwellian2):
        rep = penrose_check(maxwellian2, DualLattice((0.5, 0.5)), 1.6, 0.3)
        # smallest |k|^2 = (4 pi)^2 >> B: stable with no computed entries
        assert rep.stable
        assert len(rep.entries) == 0

    def test_collinear_margins_identical(self, maxwellian2):
        rep = penrose_check(maxwellian2, DualLattice((2 * np.pi, 2 * np.pi)),
                            1.6, 0.3)
        by_norm = {}
        for e in rep.entries:
            by_norm.setdefault(round(e.k2, 12), []).append(e.margin)
        for margins in by_norm.values():
            assert max(margins) - min(margins) < 1e-12

    def test_report_json(self, maxwellian2):
        rep = penrose_check(maxwellian2, DualLattice((2 * np.pi, 2 * np.pi)),
                            1.6, 0.3)
        js = rep.to_json()
        assert set(js) == {"stable", "B", "entries"}
        assert js["stable"] is True
        assert {"k", "k2", "direction", "S", "pv", "margin"} <= set(js["entries"][0])
