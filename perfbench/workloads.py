"""The benchmark's three workloads: generated inputs, pipeline and checks.

Each workload is ``setup(seed, threads, scratch)`` -> inputs (the part timed
as set-up), ``references(inputs)`` -> values computed apart from vplab
(untimed), and ``pipeline(inputs, refs, ops)``, one round of experiments
and checks.  Every vplab call goes through a module attribute looked up at
call time (``penrose.penrose_check``), so the traced run sees it.
"""

import math
import os
import sys
import traceback
from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq

from vplab import bgk, closeness, container, linear, norms, penrose, profiles, sim

import reference as ref

TWO_PI = 2.0 * math.pi


class Ops:
    """Counts operations: each experiment and each check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def _fail(self, name, detail):
        self.failed += 1
        print(f"[FAIL] {name}: {detail}", file=sys.stderr)

    def run(self, name, fn):
        """One experiment; returns its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # an experiment that raises is a failed operation
            self._fail(name, traceback.format_exc())
            return None

    def check(self, name, fn):
        """One check; ``fn`` returns (ok, detail)."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:  # a check whose inputs are missing also fails
            self._fail(name, traceback.format_exc())
            return
        if ok:
            print(f"[PASS] {name}: {detail}", file=sys.stderr)
        else:
            self._fail(name, detail)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _rate_freq_check(rate, freq, root, tol):
    r_err, f_err = _rel(rate, root[0]), _rel(freq, root[1])
    return (r_err < tol and f_err < tol,
            f"rate {rate:.6f} vs {root[0]:.6f} ({r_err:.1e}), freq {freq:.6f} "
            f"vs {root[1]:.6f} ({f_err:.1e}), tol {tol:g}")


def _initial_field_check(series, mass, kmag):
    expect = -mass / (1j * kmag)
    err = abs(series.values[0] - expect) / abs(expect)
    return err < 1e-6, f"E(0) = {series.values[0]:.8g}, -mass/(ik) = {expect:.8g} ({err:.1e})"


def _conservation_check(log, power_identity):
    mass = np.asarray(log.mass)
    energy = np.asarray(log.energy)
    dmass = float(np.max(np.abs(np.diff(mass))))
    denergy = float(np.max(np.abs(energy - energy[0])) / energy[0])
    ok = dmass < 1e-10 and denergy < 1e-6
    detail = f"mass/step {dmass:.1e} < 1e-10, energy {denergy:.1e} < 1e-6"
    if power_identity:
        t = np.asarray(log.t_mid)
        resid = np.abs(np.gradient(np.asarray(log.e_l2sq), t) - 2.0 * np.asarray(log.je))
        worst = float(np.max(resid[2:-2]))
        ok = ok and worst < 1e-6
        detail += f", power identity {worst:.1e} < 1e-6"
    return ok, detail


# ---------------------------------------------------------------------------
# landau: Penrose, linear field modes and 1D-1V nonlinear decay
# ---------------------------------------------------------------------------

BUMP_V0, BUMP_WIDTH = 3.0, 1.0
BOX_FACTORS = (0.8, 1.25)           # box sides relative to the dawsn threshold
TWO_MODE_K = ((1.0, 0.0), (0.0, 1.0))
DECAY_T_END = 30.0


def landau_setup(seed, threads, scratch):
    m2 = profiles.make_builtin("maxwellian", profiles.VelocityGrid(2, 8.0, 256))
    bump = profiles.make_builtin("double_bump", profiles.VelocityGrid(2, 12.0, 512),
                                 v0=BUMP_V0, width=BUMP_WIDTH)
    t_crit = TWO_PI / math.sqrt(ref.pair_dip_pv(BUMP_V0, BUMP_WIDTH))
    g1 = profiles.VelocityGrid(1, 8.0, 512)
    m1 = profiles.make_builtin("maxwellian", g1)
    fp1 = profiles.project(m1, (1.0,))
    datum1 = linear.Datum1D(fp1.alphas, fp1.values.copy())

    # the seeded two-mode datum: a polynomial-weighted Maxwellian shape with
    # random coefficients and phases, one copy per lattice mode
    rng = np.random.default_rng(seed)
    mesh = m2.grid.mesh()
    c = rng.normal(size=4) * 0.2
    shape = m2.values * (1.0 + c[0] * mesh[0] + c[1] * mesh[1]
                         + c[2] * (mesh[0] ** 2 - 1) / 2 + c[3] * mesh[0] * mesh[1])
    amps = 1e-3 * np.exp(1j * rng.uniform(0, TWO_PI, size=len(TWO_MODE_K)))
    modes, two_mode = {}, []
    for kv, amp in zip(TWO_MODE_K, amps):
        gk = amp * shape
        modes[kv] = gk
        modes[tuple(-np.asarray(kv))] = np.conj(gk)
        e = np.asarray(kv)
        fp = profiles.project(m2, e)
        proj = (profiles.project_field(gk.real, m2.grid, e)
                + 1j * profiles.project_field(gk.imag, m2.grid, e))
        two_mode.append((kv, fp, linear.Datum1D(fp.alphas, proj)))
    return SimpleNamespace(
        threads=threads, m2=m2, bump=bump, t_crit=t_crit, m1=m1, fp1=fp1,
        datum1=datum1, modes=modes, two_mode=two_mode,
        phase_grid=sim.PhaseGrid(2.0 * TWO_PI, 256, g1, 0.02))


def landau_references(inp):
    boxes = [(f * inp.t_crit,) + ref.double_bump_verdict(BUMP_V0, BUMP_WIDTH, f * inp.t_crit)
             for f in BOX_FACTORS]
    return SimpleNamespace(
        root_k05=ref.maxwellian_landau_root(0.5),
        root_k1=ref.maxwellian_landau_root(1.0),
        dip_pv=ref.pair_dip_pv(BUMP_V0, BUMP_WIDTH),
        boxes=boxes,
        mixed_norm=ref.mixed_norm_modes_direct(inp.modes, inp.m2.grid.vmax, 0.0, 1.6, 0.3),
        mass1=float(np.sum(inp.datum1.values).real) * inp.fp1.h,
        two_mode_mass=[complex(np.sum(d.values)) * fp.h for _, fp, d in inp.two_mode])


def _maxwellian_penrose_check(rep):
    pv_err = max(abs(max(e.pv_values) + 1.0) for e in rep.entries)
    m_err = max(abs(e.margin - (e.k2 + 1.0)) for e in rep.entries)
    ok = rep.stable and len(rep.entries) > 0 and pv_err < 1e-6 and m_err < 1e-6
    return ok, (f"stable={rep.stable}, {len(rep.entries)} entries, |PV + 1| "
                f"{pv_err:.1e}, |margin - |k|^2 - 1| {m_err:.1e} < 1e-6")


def _verdict_check(rep, stable, worst):
    got = min(e.margin for e in rep.entries)
    ok = rep.stable == stable and abs(got - worst) < 1e-6
    return ok, (f"stable={rep.stable} (reference {stable}), worst margin "
                f"{got:.8f} vs {worst:.8f}")


def landau_pipeline(inp, refs, ops):
    # Penrose: the Maxwellian closed forms and the double bump's threshold
    rep = ops.run("penrose_check maxwellian (2pi, 2pi)", lambda: penrose.penrose_check(
        inp.m2, penrose.DualLattice((TWO_PI, TWO_PI)), 1.6, 0.3, threads=inp.threads))
    ops.check("maxwellian PV(crit) = -1, margin = |k|^2 + 1",
              lambda: _maxwellian_penrose_check(rep))
    fp = ops.run("project double bump on e1", lambda: profiles.project(inp.bump, (1.0, 0.0)))
    pv = ops.run("pv_integral at the central dip", lambda: penrose.pv_integral(fp, 0.0))
    ops.check("dip PV = dawsn closed form",
              lambda: (_rel(pv, refs.dip_pv) < 1e-9,
                       f"{pv:.12f} vs {refs.dip_pv:.12f} ({_rel(pv, refs.dip_pv):.1e} < 1e-9)"))
    for side, stable, worst in refs.boxes:
        rep = ops.run(f"penrose_check double bump T = {side:.3f}", lambda: (
            penrose.penrose_check(inp.bump, penrose.DualLattice((side, side)), 1.6, 0.3,
                                  threads=inp.threads)))
        ops.check(f"double bump T = {side:.3f} verdict = dawsn threshold",
                  lambda: _verdict_check(rep, stable, worst))

    # linear: one Maxwellian mode, its fit, and the continuation root
    series = ops.run("efield_mode k = 0.5", lambda: linear.efield_mode(
        0.5, inp.fp1, inp.datum1, t_end=45.0, kvec=(0.5,)))
    fit = ops.run("envelope_fit [5, 40]", lambda: series.envelope_fit(5.0, 40.0))
    ops.check("linear fit vs wofz root k = 0.5",
              lambda: _rate_freq_check(fit[0], fit[1], refs.root_k05, 0.03))
    ops.check("k = 0.5 mode at t = 0", lambda: _initial_field_check(series, refs.mass1, 0.5))
    root = ops.run("find_damping_root k = 0.5", lambda: linear.find_damping_root(inp.fp1, 0.5))
    ops.check("find_damping_root vs wofz root k = 0.5",
              lambda: _rate_freq_check(root[1], root[2], refs.root_k05, 1e-6))

    # the seeded two-mode datum through the decay norm and the mixed norm
    two = []
    for (kv, fp_k, datum), mass in zip(inp.two_mode, refs.two_mode_mass):
        s = ops.run(f"efield_mode k = {kv}", lambda: linear.efield_mode(
            1.0, fp_k, datum, t_end=30.0, kvec=kv))
        ops.check(f"k = {kv} mode at t = 0", lambda: _initial_field_check(s, mass, 1.0))
        fit_k = ops.run(f"envelope_fit k = {kv} [3, 10]", lambda: s.envelope_fit(3.0, 10.0))
        ops.check(f"k = {kv} fit vs wofz root k = 1",
                  lambda: _rate_freq_check(fit_k[0], fit_k[1], refs.root_k1, 0.03))
        two.append(s)

    def decay_norm():
        hist = linear.FieldHistory()
        for s in two:
            hist.add(s)
        return hist.decay_norm(0.0, 1.6)

    def decay_norm_check():
        want = ref.decay_norm_direct(
            [(sum(c * c for c in s.kvec), s.t, s.values) for s in two], 0.0, 1.6)
        return _rel(dn, want) < 1e-10, f"{dn:.10e} vs {want:.10e}"

    dn = ops.run("FieldHistory.decay_norm", decay_norm)
    ops.check("decay norm = trapezoid of its definition", decay_norm_check)
    mn = ops.run("mixed_norm_modes", lambda: norms.mixed_norm_modes(
        inp.modes, inp.m2.grid, 0.0, 1.6, 0.3))
    ops.check("mixed norm = direct Fourier multiplier",
              lambda: (_rel(mn, refs.mixed_norm) < 1e-10,
                       f"{mn:.10e} vs {refs.mixed_norm:.10e}, C0 = {dn / mn:.4f}"))

    # nonlinear: 1D-1V decay of a perturbed Maxwellian on the 4 pi box
    rep = ops.run("run_decay_experiment 1D-1V", lambda: sim.run_decay_experiment(
        inp.m1, inp.phase_grid, 1e-3, s_x=0.0, s_v=1.6, b=0.3, t_end=DECAY_T_END))
    ops.check("1D-1V conservation", lambda: _conservation_check(rep.log, True))

    def maxima_check():
        rate, freq, n = ref.rate_freq_from_maxima(rep.log.t_mid, rep.log.e_l2sq, 5.0)
        ok, detail = _rate_freq_check(rate, freq, refs.root_k05, 0.03)
        return ok, f"{detail} from {n} maxima"

    ops.check("nonlinear ||E|| maxima vs wofz root k = 0.5", maxima_check)


# ---------------------------------------------------------------------------
# bgk_budget: the distance-budgeted wave, the period law, the norm sequences
# ---------------------------------------------------------------------------

EPS = 1e-1
LAW_GAMMA, LAW_R = 0.1, (1e-2, 1e-3, 1e-4)
GAG_ORDERS = ((0.3, 2.0), (0.6, 1.5))


def bgk_setup(seed, threads, scratch):
    m2 = profiles.make_builtin("maxwellian", profiles.VelocityGrid(2, 8.0, 256))
    # case-1 scale with h'(0) = -1 at LAW_GAMMA: the bump of mass
    # C0 gamma^2 (C0 = 4 pi in 2D) and width gamma delta balances the
    # Maxwellian's PV integral of -1 after renormalisation by 1 + C0 gamma^2
    c0 = 4.0 * math.pi
    law_delta = math.sqrt(c0 * ref.pair_dip_pv(3.0, 1.0) / (2.0 + c0 * LAW_GAMMA ** 2))

    v1 = np.linspace(-4, 4, 8193)
    v2 = np.linspace(-4, 4, 4097)
    narrow1 = [np.exp(-((v1 / 2.0 ** -n) ** 2) / 2) * np.exp(-v1 ** 2 / 0.5)
               for n in range(1, 7)]
    broad2 = closeness.Axis1D(np.exp(-v2 ** 2 / 0.5), v2[1] - v2[0])
    g1024 = profiles.VelocityGrid(2, 4.0, 1024)
    mesh = g1024.mesh()
    broad = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 0.5)
    narrow2 = [np.exp(-(mesh[0] / 2.0 ** -n) ** 2 / 2) * broad for n in range(1, 7)]

    # short grids for the direct Gagliardo double sums
    x = np.linspace(-4, 4, 257)
    short = np.exp(-(x / 0.125) ** 2 / 2) * np.exp(-x ** 2 / 0.5)
    g64 = profiles.VelocityGrid(2, 4.0, 64)
    m64 = g64.mesh()
    field64 = np.exp(-(m64[0] ** 2 + 2.0 * m64[1] ** 2)) * (1.0 + 0.5 * np.sin(3.0 * m64[0]))
    xs = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    vs = np.linspace(-6.0, 6.0, 128)
    coupled = np.exp(-vs[None, :] ** 2 / 2) * (1.0 + 0.3 * np.cos(xs[:, None]) * vs[None, :])
    return SimpleNamespace(
        m2=m2, law_delta=law_delta, narrow1=narrow1, h1=v1[1] - v1[0], broad2=broad2,
        g1024=g1024, narrow2=narrow2, short=short, short_h=x[1] - x[0], g64=g64,
        field64=field64, coupled=coupled, coupled_h=(xs[1] - xs[0], vs[1] - vs[0]),
        scratch=scratch)


def bgk_references(inp):
    hx, hv = inp.coupled_h
    return SimpleNamespace(
        gag=[ref.gagliardo_direct(inp.short, inp.short_h, s, p) for s, p in GAG_ORDERS],
        frac=ref.fractional_norm_direct(inp.field64, inp.g64.h, 0.4, 2.0),
        coupled=(float(np.sum(inp.coupled ** 2)) * hx * hv
                 + ref.gagliardo_direct(inp.coupled, hx, 0.5, 2.0) * hv
                 + ref.gagliardo_direct(inp.coupled.T, hv, 0.5, 2.0) * hx))


def _decreasing_check(seq):
    seq = np.asarray(seq)
    ratio = seq[-1] / seq[0]
    return (bool(np.all(np.diff(seq) < 0)) and ratio < 0.5,
            f"strictly decreasing, last/first {ratio:.3f} < 0.5")


def _container_round_trip(wave, scratch):
    blob = os.path.join(scratch, "wave.vplb")
    table = os.path.join(scratch, "wave.csv")
    container.save_wave(blob, wave)
    container.wave_to_csv(table, wave)
    header, payloads = container.load_wave_header(blob)
    return header, payloads, np.loadtxt(table, delimiter=",", skiprows=1)


def _round_trip_check(wave, back):
    header, payloads, table = back
    same = (header["T1"] == wave.T1 and header["c"] == wave.c
            and header["amplitude"] == wave.amplitude and header["case"] == wave.case
            and header["provenance"] == wave.provenance
            and np.array_equal(payloads["beta"], wave.beta)
            and np.array_equal(payloads["E"], wave.efield)
            and np.array_equal(table, np.column_stack([wave.x1, wave.beta, wave.efield])))
    return same, "header, payloads and CSV columns equal bit for bit"


def bgk_pipeline(inp, refs, ops):
    wave, rep = ops.run(f"build_wave eps = {EPS}", lambda: bgk.build_wave(
        inp.m2, TWO_PI, c=0.0, eps=EPS)) or (None, None)
    mp = ops.run("build_modified at the wave's (gamma, delta)", lambda: bgk.build_modified(
        inp.m2, wave.provenance["gamma"], wave.provenance["delta"], wave.case, v0=3.0))
    h = ops.run("make_h", lambda: bgk.make_h(mp))
    orb = ops.run("periodic_orbit at the wave amplitude",
                  lambda: bgk.periodic_orbit(h, wave.amplitude))
    ops.check("re-derived period", lambda: (
        _rel(orb.period, TWO_PI) <= 1e-9,
        f"|T - 2pi| / 2pi = {_rel(orb.period, TWO_PI):.1e} <= 1e-9"))
    ops.check("minimal period, nontrivial field", lambda: (
        wave.count_maxima() == 1 and float(np.max(np.abs(wave.efield))) > 0.0,
        f"{wave.count_maxima()} maximum, max|E| = {np.max(np.abs(wave.efield)):.2e}"))
    fmin = ops.run("min_distribution_value", lambda: wave.min_distribution_value())
    ops.check("f >= 0", lambda: (fmin >= 0.0, f"min f = {fmin:.3e}"))
    ops.check("certified distance below eps",
              lambda: (rep.total < EPS, f"{rep.total:.4e} < {EPS}"))

    h_law = ops.run("make_h for the period law", lambda: bgk.make_h(
        bgk.build_modified(inp.m2, LAW_GAMMA, inp.law_delta, 1, v0=3.0)))
    devs = ops.run("periodic_orbit at r = 1e-2, 1e-3, 1e-4", lambda: [
        abs((TWO_PI / bgk.periodic_orbit(h_law, r).period) ** 2 + h_law.hprime0())
        for r in LAW_R])
    ops.check("period law", lambda: (
        bool(np.all(np.diff(devs) < 0)) and devs[-1] < 1e-4 * abs(h_law.hprime0()),
        "|(2pi/T)^2 + h'(0)| = " + " -> ".join(f"{d:.2e}" for d in devs)
        + f", last < 1e-4 |h'(0)| = {1e-4 * abs(h_law.hprime0()):.1e}"))

    frac = ops.run("wsp_pow_separable sequence (n = 8193)", lambda: [
        closeness.wsp_pow_separable([closeness.Axis1D(f, inp.h1), inp.broad2], 0.3, 2.0) ** 0.5
        for f in inp.narrow1])
    ops.check("W^(0.3,2) narrow-factor sequence", lambda: _decreasing_check(frac))
    wseq = ops.run("weighted_hsb_norm sequence (1024^2)", lambda: [
        norms.weighted_hsb_norm(f, inp.g1024, 0.3, 0.3) for f in inp.narrow2])
    ops.check("H^(0.3,0.3) narrow-factor sequence", lambda: _decreasing_check(wseq))

    gag = ops.run("gagliardo_pow on 257 points", lambda: [
        closeness.gagliardo_pow(inp.short, inp.short_h, s, p) for s, p in GAG_ORDERS])
    ops.check("gagliardo_pow = direct double sum", lambda: (
        max(_rel(a, b) for a, b in zip(gag, refs.gag)) < 1e-10,
        ", ".join(f"{a:.12e} vs {b:.12e}" for a, b in zip(gag, refs.gag))))
    frac64 = ops.run("fractional_wsp_norm on 64^2", lambda: norms.fractional_wsp_norm(
        inp.field64, inp.g64, 0.4, 2.0))
    ops.check("fractional_wsp_norm = direct double sum", lambda: (
        _rel(frac64, refs.frac) < 1e-10, f"{frac64:.12e} vs {refs.frac:.12e}"))
    coupled = ops.run("wsp_norm_coupled on 64 x 128", lambda: closeness.wsp_norm_coupled(
        inp.coupled, *inp.coupled_h, [], 0.5, 2.0))
    ops.check("wsp_norm_coupled = direct double sum", lambda: (
        _rel(coupled, refs.coupled) < 1e-10, f"{coupled:.12e} vs {refs.coupled:.12e}"))

    back = ops.run("save_wave, wave_to_csv, load_wave_header",
                   lambda: _container_round_trip(wave, inp.scratch))
    ops.check("container round trip", lambda: _round_trip_check(wave, back))


# ---------------------------------------------------------------------------
# bgk_steady_2v: a matched case-3 wave evolved by the 1D-2V solver
# ---------------------------------------------------------------------------

CASE3_WIDTH = 0.45
STEADY_T_END = 2.0


def steady_setup(seed, threads, scratch):
    # offset-pair width 0.45 with its PV integral tuned to (2 pi / T1)^2 = 1,
    # which puts the profile exactly in case 3
    v0 = brentq(lambda v: ref.pair_dip_pv(v, CASE3_WIDTH) - 1.0, 0.9, 1.9, xtol=1e-13)
    p3 = profiles.make_builtin("product", profiles.VelocityGrid(2, 8.0, 256), factors=[
        ("double_bump", {"v0": v0, "width": CASE3_WIDTH}), ("gaussian", {"width": 1.0})])
    grid = sim.PhaseGrid(TWO_PI, 256, (profiles.VelocityGrid(1, 8.0, 128),
                                       profiles.VelocityGrid(1, 8.0, 64)), 1e-2)
    return SimpleNamespace(p3=p3, grid=grid)


def steady_references(inp):
    return SimpleNamespace()


def _rank_check(rep):
    f = rep.log.snapshots[max(rep.log.snapshots)].f
    sv = np.linalg.svd(f.reshape(-1, f.shape[-1]), compute_uv=False)
    ratio = float(sv[1] / sv[0])
    return ratio < 1e-12, f"s2/s1 over v2 = {ratio:.1e} < 1e-12"


def steady_pipeline(inp, refs, ops):
    out = ops.run("match_period case 3, r = 1e-3", lambda: bgk.match_period(
        inp.p3, TWO_PI, 0.0, 1e-3, case=3))
    rep = ops.run("run_bgk_steadiness 1D-2V", lambda: sim.run_bgk_steadiness(
        out[1], inp.grid, t_end=STEADY_T_END, output_every_t=0.5, diagnostics_every=10))
    ops.check("1D-2V conservation", lambda: _conservation_check(rep.log, False))

    def drift_check():
        drift = rep.drift_f_max / float(np.max(out[1].mp.as_profile().values))
        return (drift <= 1e-4 and not rep.flagged,
                f"drift {drift:.2e} of the peak <= 1e-4, flagged={rep.flagged}")

    ops.check("steadiness drift", drift_check)
    ops.check("rank 1 over v2", lambda: _rank_check(rep))


WORKLOADS = {
    "landau": (landau_setup, landau_references, landau_pipeline),
    "bgk_budget": (bgk_setup, bgk_references, bgk_pipeline),
    "bgk_steady_2v": (steady_setup, steady_references, steady_pipeline),
}
