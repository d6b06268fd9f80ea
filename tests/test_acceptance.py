"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to stream the verdict
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import time

import numpy as np
import pytest

from vplab.bgk import (
    _seed_delta,
    build_modified,
    build_wave,
    make_h,
    match_period,
    obstruction_diagnostic,
    obstruction_fixed_point,
    periodic_orbit,
)
from vplab.closeness import Axis1D, wsp_pow_separable
from vplab.linear import Datum1D, FieldHistory, efield_mode, find_damping_root
from vplab.norms import mixed_norm_modes, weighted_hsb_norm
from vplab.penrose import DualLattice, penrose_check
from vplab.profiles import (
    Profile,
    VelocityGrid,
    make_builtin,
    project,
    project_field,
)
from vplab.sim import (
    PhaseGrid,
    SimState,
    perturb_cosine,
    reverse_velocity,
    run,
    run_bgk_steadiness,
    run_decay_experiment,
    sample_profile,
    step,
)

T1_2PI = 2.0 * np.pi


def verdict(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def maxwellian2d():
    return make_builtin("maxwellian", VelocityGrid(2, 8.0, 256))


@pytest.fixture(scope="module")
def eps_wave_small(maxwellian2d):
    """The distance-budgeted wave at eps = 1e-2 (shared by criteria 2 and 4)."""
    wave, rep = build_wave(maxwellian2d, T1_2PI, c=0.0, eps=1e-2)
    return wave, rep


@pytest.fixture(scope="module")
def nonlinear_decay():
    """Criterion-7 run, shared with the conservation suite of criterion 10."""
    n_v = 512
    profile = make_builtin("maxwellian", VelocityGrid(1, 8.0, n_v))
    grid = PhaseGrid(4.0 * np.pi, 256, VelocityGrid(1, 8.0, n_v), 0.02)
    t0 = time.time()
    report = run_decay_experiment(profile, grid, 1e-3, s_x=0.0, s_v=1.6,
                                  b=0.3, t_end=100.0)
    return report, time.time() - t0


def test_criterion_1_maxwellian_penrose(maxwellian2d):
    t0 = time.time()
    report = penrose_check(maxwellian2d, DualLattice((T1_2PI, T1_2PI)),
                           s=1.6, b=0.3)
    elapsed = time.time() - t0
    pv_ok = all(abs(max(e.pv_values) + 1.0) < 1e-6 for e in report.entries)
    margin_ok = all(abs(e.margin - (e.k2 + 1.0)) < 1e-6 for e in report.entries)
    ok = (report.stable and len(report.entries) > 0 and pv_ok and margin_ok
          and elapsed < 10.0)
    verdict(1, ok, f"stable={report.stable}, {len(report.entries)} entries, "
                   f"PV(crit)=-1 and margins=|k|^2+1 within 1e-6, "
                   f"{elapsed:.1f}s < 10s")


def test_criterion_2_bgk_construction(maxwellian2d, eps_wave_small):
    results = []
    for eps in (1e-1, 1e-2):
        t0 = time.time()
        if eps == 1e-2:
            wave, rep = eps_wave_small
        else:
            wave, rep = build_wave(maxwellian2d, T1_2PI, c=0.0, eps=eps)
        elapsed = time.time() - t0
        # (a) minimal period within 1e-9 relative, re-derived from the orbit
        gamma, delta = wave.provenance["gamma"], wave.provenance["delta"]
        mp = build_modified(maxwellian2d, gamma, delta, wave.case, v0=3.0)
        orb = periodic_orbit(make_h(mp), wave.amplitude)
        period_ok = abs(orb.period - T1_2PI) <= 1e-9 * T1_2PI
        minimal_ok = wave.count_maxima() == 1
        # (b) nonnegative distribution
        pos_ok = wave.min_distribution_value() >= 0.0
        # (c) nontrivial field
        field_ok = float(np.max(np.abs(wave.efield))) > 0.0
        # (d) certified triple-norm distance below eps
        dist_ok = rep.total < eps
        # (e) reduced field equation at the wave's own scale
        rel_resid = wave.relative_poisson_residual()
        resid_ok = rel_resid <= 1e-6
        ok = (period_ok and minimal_ok and pos_ok and field_ok and dist_ok
              and resid_ok and elapsed < 300.0)
        results.append(ok)
        print(f"\n    eps={eps}: period_ok={period_ok} f>=0={pos_ok} "
              f"maxE={np.max(np.abs(wave.efield)):.2e} "
              f"rel. residual={rel_resid:.2e} <= 1e-6 "
              f"distance={rep.total:.3e} < {eps}  [{elapsed:.0f}s]")
    verdict(2, all(results), "BGK waves built within both distance budgets")


def test_criterion_3_period_law(maxwellian2d):
    gamma = 0.1
    delta = _seed_delta(maxwellian2d, T1_2PI, gamma, 1, 3.0)
    h = make_h(build_modified(maxwellian2d, gamma, delta, 1, v0=3.0))
    hp0 = h.hprime0()
    devs = [abs((2 * np.pi / periodic_orbit(h, r).period) ** 2 + hp0)
            for r in (1e-2, 1e-3, 1e-4)]
    ok = all(np.diff(devs) < 0) and devs[-1] < 1e-4 * abs(hp0)
    verdict(3, ok, f"|(2pi/T)^2 + h'(0)| = {devs[0]:.2e} -> {devs[1]:.2e} -> "
                   f"{devs[2]:.2e}, last < 1e-4 |h'(0)|")


def test_criterion_4_bgk_steadiness(eps_wave_small):
    from tests.test_bgk import tuned_case3_profile

    wave_a, _ = eps_wave_small
    grid = PhaseGrid(T1_2PI, 256,
                     (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 64)),
                     1e-2)
    t0 = time.time()
    rep_a = run_bgk_steadiness(wave_a, grid, t_end=20.0, output_every_t=1.0,
                               diagnostics_every=50)
    f_scale = 1.0 / (2.0 * np.pi)
    drift_a = rep_a.drift_f_max / f_scale
    drift_ok = drift_a <= 1e-4

    # the eps=1e-2 wave samples as an exactly homogeneous state, so its own
    # dt-halving ratio is 0/0; the second-order check runs on a fully
    # resolvable wave from the same pipeline (scaling case, r = 1e-3)
    profile3, _ = tuned_case3_profile()
    _, wave_b = match_period(profile3, T1_2PI, 0.0, 1e-3, case=3)
    resolved = [rep_a.resolved]
    drifts = []
    for dt in (1e-2, 5e-3):
        g = PhaseGrid(T1_2PI, 256,
                      (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 64)),
                      dt)
        rep = run_bgk_steadiness(wave_b, g, t_end=10.0, output_every_t=1.0,
                                 diagnostics_every=50)
        drifts.append(rep.drift_f_max)
        resolved.append(rep.resolved)
    elapsed = time.time() - t0
    ratio = drifts[0] / max(drifts[1], 1e-300)
    order_ok = ratio >= 3.5
    resolvable_drift_ok = max(drifts) / float(np.max(wave_b.mp.as_profile().values)) <= 1e-4
    # the eps-wave run is on record as a homogeneous sample, the other two not
    resolved_ok = resolved == [False, True, True]
    ok = (drift_ok and order_ok and resolvable_drift_ok and resolved_ok
          and elapsed < 600.0)
    verdict(4, ok, f"eps-wave drift {drift_a:.2e} <= 1e-4 (resolved="
                   f"{resolved[0]}); resolvable-wave dt-halving ratio "
                   f"{ratio:.2f} >= 3.5 (resolved={all(resolved[1:])})  "
                   f"[{elapsed:.0f}s]")


def test_criterion_5_landau_damping_rate():
    t0 = time.time()
    g1 = VelocityGrid(1, 8.0, 512)
    fp = project(make_builtin("maxwellian", g1), (1.0,))
    datum = Datum1D(fp.alphas, fp.values.copy())
    series = efield_mode(0.5, fp, datum, t_end=45.0, kvec=(0.5,))
    rate, freq = series.envelope_fit(5.0, 40.0)
    _, orate, ofreq = find_damping_root(fp, 0.5)
    elapsed = time.time() - t0
    rate_ok = abs(rate - orate) / orate < 0.03
    freq_ok = abs(freq - ofreq) / ofreq < 0.03
    ok = rate_ok and freq_ok and elapsed < 30.0
    verdict(5, ok, f"rate {rate:.5f} vs oracle {orate:.5f}, freq {freq:.5f} "
                   f"vs {ofreq:.5f}, both within 3%  [{elapsed:.0f}s]")


def test_criterion_6_decay_norm_constant(maxwellian2d):
    g2 = maxwellian2d.grid
    mesh = g2.mesh()
    base = maxwellian2d.values
    s_x, s_v, b = 0.0, 1.6, 0.3
    kvecs = [(1.0, 0.0), (0.0, 1.0)]
    fps = {k: project(maxwellian2d, np.asarray(k)) for k in kvecs}
    rng = np.random.default_rng(42)
    ratios = []
    for _ in range(5):
        c = rng.normal(size=4) * 0.2
        shape = base * (1.0 + c[0] * mesh[0] + c[1] * mesh[1]
                        + c[2] * (mesh[0] ** 2 - 1) / 2
                        + c[3] * mesh[0] * mesh[1])
        amps = 1e-3 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        modes = {}
        hist = FieldHistory()
        for kv, amp in zip(kvecs, amps):
            gk = amp * shape
            modes[kv] = gk
            modes[tuple(-np.asarray(kv))] = np.conj(gk)
            e = np.asarray(kv)
            proj = project_field(gk.real, g2, e) \
                + 1j * project_field(gk.imag, g2, e)
            hist.add(efield_mode(1.0, fps[kv],
                                 Datum1D(fps[kv].alphas, proj),
                                 t_end=30.0, kvec=kv))
        ratios.append(hist.decay_norm(s_x, s_v)
                      / mixed_norm_modes(modes, g2, s_x, s_v, b))
    ratios = np.asarray(ratios)
    spread = (ratios.max() - ratios.min()) / ratios.mean()
    ok = spread < 0.2
    verdict(6, ok, f"C0 ratios {np.round(ratios, 4)}: spread "
                   f"{100 * spread:.1f}% < 20%")


def test_criterion_7_nonlinear_decay(nonlinear_decay):
    report, elapsed = nonlinear_decay
    final_ok = report.final_over_max <= 0.1
    growth_ok = report.growth_fraction < 0.05
    identity_ok = report.identity_residual <= 1e-6
    ok = final_ok and growth_ok and identity_ok and elapsed < 900.0
    verdict(7, ok, f"final/max={report.final_over_max:.2e} <= 0.1, doubling "
                   f"growth {100 * report.growth_fraction:.2f}% < 5%, power "
                   f"identity residual {report.identity_residual:.2e} <= 1e-6 "
                   f"[{elapsed:.0f}s]")


def test_criterion_8_scaling_decay():
    # fractional-norm sequence, separable Gagliardo realisation
    v1 = np.linspace(-4, 4, 8193)
    v2 = np.linspace(-4, 4, 4097)
    h1, h2 = v1[1] - v1[0], v2[1] - v2[0]
    gbroad1 = np.exp(-v1 ** 2 / (2 * 0.25))
    gbroad2 = np.exp(-v2 ** 2 / (2 * 0.25))
    frac_seq = []
    for n in range(1, 7):
        d = 2.0 ** (-n)
        f1 = np.exp(-((v1 / d) ** 2) / 2) * gbroad1
        frac_seq.append(wsp_pow_separable(
            [Axis1D(f1, h1), Axis1D(gbroad2, h2)], 0.3, 2.0) ** 0.5)
    frac_seq = np.asarray(frac_seq)
    frac_ok = np.all(np.diff(frac_seq) < 0) and frac_seq[-1] < 0.5 * frac_seq[0]

    # weighted-norm sequence
    g = VelocityGrid(2, 4.0, 1024)
    mesh = g.mesh()
    broad = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * 0.25))
    w_seq = []
    for n in range(1, 7):
        d = 2.0 ** (-n)
        w_seq.append(weighted_hsb_norm(
            np.exp(-(mesh[0] / d) ** 2 / 2) * broad, g, 0.3, 0.3))
    w_seq = np.asarray(w_seq)
    w_ok = np.all(np.diff(w_seq) < 0) and w_seq[-1] < 0.5 * w_seq[0]
    ok = frac_ok and w_ok
    verdict(8, ok, f"W^(0.3,2) ratio {frac_seq[-1] / frac_seq[0]:.3f} < 0.5; "
                   f"H^(0.3,0.3) ratio {w_seq[-1] / w_seq[0]:.3f} < 0.5; both "
                   "strictly decreasing")


def test_criterion_9_obstruction(rng):
    periods = (T1_2PI, T1_2PI)
    nx = 64
    x = np.linspace(0, periods[0], nx, endpoint=False)
    cert_ok = True
    for _ in range(10):
        beta = (0.4 * rng.uniform(0.2, 1.0)
                * np.cos(rng.integers(1, 3) * x[:, None] + rng.uniform(0, 6))
                * np.sin(rng.integers(1, 3) * x[None, :] + rng.uniform(0, 6)))
        cert = obstruction_diagnostic(lambda e: np.exp(-e), beta, periods)
        cert_ok &= (cert.certificate == "only_trivial_solutions"
                    and cert.gprime_max < 0.0
                    and cert.grad_identity_rhs <= 0.0)
    beta0 = 0.3 * rng.standard_normal((nx, nx))
    _, grad_norm = obstruction_fixed_point(lambda e: np.exp(-e), periods, beta0)
    fp_ok = grad_norm < 1e-8
    ok = cert_ok and fp_ok
    verdict(9, ok, f"g'(beta) < 0 certified for 10 candidates; fixed point "
                   f"has ||grad beta|| = {grad_norm:.1e} < 1e-8")


def test_criterion_10_conservation_suite(nonlinear_decay):
    report, _ = nonlinear_decay
    log = report.log
    mass = np.asarray(log.mass)
    energy = np.asarray(log.energy)
    mom = np.asarray(log.momentum)
    mass_ok = np.max(np.abs(np.diff(mass))) < 1e-10
    energy_ok = np.max(np.abs(energy - energy[0])) / energy[0] < 1e-6
    momentum_ok = np.max(np.abs(mom - mom[0])) < 1e-8

    # free streaming and time reversal at 1e-8
    n_v = 256
    p = make_builtin("maxwellian", VelocityGrid(1, 8.0, n_v))
    g = PhaseGrid(4 * np.pi, 64, VelocityGrid(1, 8.0, n_v), 0.05)
    st = perturb_cosine(sample_profile(p, g), 0.05)
    cur = SimState.dense(g, st.f)
    for _ in range(10):
        cur = step(cur, force_zero_field=True)
    v = g.vaxes[0].axis()
    k = 2 * np.pi / g.T1
    exact = p.values[None, :] * (
        1 + 0.05 * np.cos(k * (g.x[:, None] - v[None, :] * 10 * g.dt)))
    stream_ok = float(np.max(np.abs(cur.f - exact))) < 1e-8

    cur = SimState.dense(g, st.f)
    for _ in range(100):
        cur = step(cur)
    cur = reverse_velocity(cur)
    for _ in range(100):
        cur = step(cur)
    cur = reverse_velocity(cur)
    reversal_ok = float(np.max(np.abs(cur.f - st.f))) < 1e-8

    ok = mass_ok and energy_ok and momentum_ok and stream_ok and reversal_ok
    verdict(10, ok, f"mass/step {np.max(np.abs(np.diff(mass))):.1e} < 1e-10, "
                    f"energy {np.max(np.abs(energy - energy[0])) / energy[0]:.1e}"
                    f" < 1e-6 rel, momentum < 1e-8, free-streaming and "
                    f"reversal < 1e-8")
