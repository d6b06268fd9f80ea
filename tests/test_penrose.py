import numpy as np
import pytest

from conftest import cutoff_sigma
from vplab.errors import DegenerateProfileError, ValidationError
from vplab.penrose import (
    PV_SUP,
    DualLattice,
    PlateauInterval,
    certifies,
    critical_points,
    critical_pv,
    penrose_check,
    pv_integral,
    truncation_bound,
)
from vplab.profiles import (
    Profile,
    ProjectedProfile,
    VelocityGrid,
    make_builtin,
    project,
)


def flat_dip():
    """Unit-mass profile with a flat-bottomed central dip on |alpha| <= 1.5.

    np.gradient leaves the derivative exactly zero on the flat stretches.
    The PV along the dip runs from 0.0115 at its midpoint to 0.0584 at its
    edges.
    """
    g = VelocityGrid(1, 12.0, 1024)
    ax = g.axis()
    vals = cutoff_sigma(ax / 4.0) - 0.5 * cutoff_sigma(ax / 1.5)
    vals = vals / (np.sum(vals) * g.h)
    return ProjectedProfile(np.array([1.0]), ax, vals, np.gradient(vals, ax), None, 1.0)


def pv_excision_oracle(fp, a_prime):
    """Independent brute-force PV: the two sides of an excised symmetric
    window integrated separately, Richardson-extrapolated in the radius."""
    lo, hi = fp.alphas[0], fp.alphas[-1]

    def one_sided(eps):
        total = 0.0
        for a0, a1 in ((lo, a_prime - eps), (a_prime + eps, hi)):
            a = np.linspace(a0, a1, 160001)
            total += np.trapezoid(fp.dval(a) / (a - a_prime), a)
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
        # no critical points inside a strictly monotone sub-interval
        ax = grid1.axis()
        vals = 1.0 / (1.0 + np.exp(-ax)) * np.exp(-ax ** 2 / 50)
        fp = ProjectedProfile(np.array([1.0]), ax, vals, np.gradient(vals, ax), None, 1.0)
        crit = critical_points(fp)
        inner = [c for c in crit
                 if not isinstance(c, PlateauInterval) and abs(c) < 1.5]
        assert inner == []

    def test_degenerate_rejected(self, grid1):
        ax = grid1.axis()
        ones = np.exp(-ax ** 2)
        fp = ProjectedProfile(np.array([1.0]), ax, ones, np.zeros_like(ax),
                              None, 1.0)
        with pytest.raises(DegenerateProfileError):
            critical_points(fp)

    def test_plateau_reported(self, grid1):
        ax = grid1.axis()
        vals = cutoff_sigma(ax / 1.5)
        # second-order differences are exactly zero on the flat top, which
        # is what a genuinely resolved plateau looks like
        deriv = np.gradient(vals, ax)
        fp = ProjectedProfile(np.array([1.0]), ax, vals, deriv, None, 1.0)
        crit = critical_points(fp)
        assert any(isinstance(c, PlateauInterval) for c in crit)


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
            assert abs(pv_integral(fp, ap) - fp.closure1d.pv_exact(ap)) < 1e-8

    def test_zero_derivative_gives_zero(self, grid1):
        ax = grid1.axis()
        fp = ProjectedProfile(np.array([1.0]), ax, np.exp(-ax ** 2),
                              np.zeros_like(ax), None, 1.0)
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

    def test_outside_range_rejected(self, maxwellian2):
        fp = project(maxwellian2, (1.0, 0.0))
        with pytest.raises(ValidationError):
            pv_integral(fp, 9.5)


class TestCriticalPv:
    def test_plateau_takes_its_edge_value(self):
        fp = flat_dip()
        crit, pvs = critical_pv(fp)
        i = next(i for i, c in enumerate(crit)
                 if isinstance(c, PlateauInterval) and c.lo < 0.0 < c.hi)
        edges = [pv_integral(fp, a) for a in (crit[i].lo, crit[i].hi)]
        assert pv_integral(fp, crit[i].midpoint) < 0.02
        assert abs(pvs[i] - max(edges)) < 1e-14
        assert abs(pvs[i] - 0.0584) < 1e-4

    def test_points_match_pv_integral(self, double_bump2):
        fp = project(double_bump2, (1.0, 0.0))
        crit, pvs = critical_pv(fp)
        assert [pv_integral(fp, c) for c in crit] == pytest.approx(pvs, abs=1e-14)


class TestTruncationBound:
    def test_maxwellian_bound(self, maxwellian2):
        b = truncation_bound(maxwellian2, 1.6, 0.3)
        # direction sweep keeps |PV| <= 1 + tiny, so B <= 2 (1 + eps)
        assert b <= 2.0 * (1.0 + 1e-6)
        assert b > 1.0

    def test_linearity_in_profile(self, maxwellian2):
        doubled = Profile(maxwellian2.grid, 2.0 * maxwellian2.values,
                          maxwellian2.closure.reweighted(2.0), {})
        b1 = truncation_bound(maxwellian2, 1.6, 0.3)
        b2 = truncation_bound(doubled, 1.6, 0.3)
        assert abs(b2 - 2.0 * b1) < 1e-8 * b1

    def test_certified_only_by_the_proof_bound(self, maxwellian2):
        bound, details = truncation_bound(maxwellian2, 1.6, 0.3, return_details=True)
        assert bound == 2.0 * details["pv_max"]
        assert details["certified"] and certifies(maxwellian2, bound)
        # unit weight and unit widths: the proven PV bound is PV_SUP itself
        assert certifies(maxwellian2, PV_SUP)
        assert not certifies(maxwellian2, 0.99 * PV_SUP)

    def test_pv_sup_bounds_the_dawson_form(self):
        from scipy.special import dawsn

        x = np.linspace(0.0, 10.0, 200001)
        peak = 2.0 * x * dawsn(x) - 1.0
        assert 0.28474 < peak.max() <= PV_SUP
        assert abs(x[np.argmax(peak)] - 1.502) < 1e-3

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
        # four directions below B, so two threads take the pooled path
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
        assert js["stable"] is True
        assert js["certified_beyond_B"] is True
        assert {"k", "k2", "direction", "S", "pv", "margin"} <= set(js["entries"][0])
