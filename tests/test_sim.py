import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from vplab import sim
from vplab.errors import PenroseUnstableError, ValidationError
from vplab.profiles import VelocityGrid, make_builtin
from vplab.sim import (
    PhaseGrid,
    SimState,
    _advect_v,
    _advect_x,
    _clip,
    _factor,
    _moments,
    _transverse_table,
    _x_phase,
    comoving_compare,
    perturb_cosine,
    poisson_solve,
    reverse_velocity,
    run,
    run_bgk_steadiness,
    run_decay_experiment,
    sample_profile,
    step,
)

T1 = 4 * np.pi
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="module")
def grid1v():
    return PhaseGrid(T1, 64, VelocityGrid(1, 8.0, 256), 0.05)


@pytest.fixture(scope="module")
def maxprofile():
    return make_builtin("maxwellian", VelocityGrid(1, 8.0, 256))


class TestPoisson:
    def test_uniform_density_no_field(self):
        e = poisson_solve(np.ones(128), T1)
        assert np.max(np.abs(e)) == 0.0

    def test_single_mode_closed_form(self):
        x = T1 / 256 * np.arange(256)
        rho = 1 + 1e-3 * np.cos(2 * np.pi * x / T1)
        e = poisson_solve(rho, T1)
        expect = -1e-3 * (T1 / (2 * np.pi)) * np.sin(2 * np.pi * x / T1)
        assert np.max(np.abs(e - expect)) < 1e-15

    def test_residual_oracle_random(self, rng):
        x = T1 / 256 * np.arange(256)
        rho = 1.0 + np.zeros(256)
        for m in range(1, 6):
            rho += rng.normal(scale=1e-2) * np.cos(2 * np.pi * m * x / T1) \
                + rng.normal(scale=1e-2) * np.sin(2 * np.pi * m * x / T1)
        rho -= rho.mean() - 1.0
        e = poisson_solve(rho, T1)
        from scipy import fft as sfft

        k = 2 * np.pi * sfft.rfftfreq(256, d=T1 / 256)
        minus_eprime = sfft.irfft(-1j * k * sfft.rfft(e), n=256)
        assert np.max(np.abs(minus_eprime - (rho - 1.0))) < 1e-10

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValidationError):
            poisson_solve(np.full(64, 1.01), T1)


class TestStep:
    def test_homogeneous_is_fixed_point(self, grid1v, maxprofile):
        st = sample_profile(maxprofile, grid1v)
        out = step(step(st))
        assert np.max(np.abs(out.f - st.f)) < 1e-14
        assert np.max(np.abs(st.efield())) == 0.0

    def test_free_streaming_exact(self, grid1v, maxprofile):
        st = perturb_cosine(sample_profile(maxprofile, grid1v), 0.05)
        # step with the field forced to zero: the solver's x half-shift twice
        half = _x_phase(grid1v, 0.5 * grid1v.dt)
        a = st.f[:, :, None]
        n = 10
        for _ in range(n):
            a = _advect_x(_advect_x(a, grid1v, half), grid1v, half)
        k = 2 * np.pi / T1
        v = grid1v.vaxes[0].axis()
        t = n * grid1v.dt
        expect = maxprofile.values[None, :] * (
            1 + 0.05 * np.cos(k * (grid1v.x[:, None] - v[None, :] * t)))
        assert np.max(np.abs(SimState.dense(grid1v, a).f - expect)) < 1e-12

    def test_time_reversal_100_steps(self, grid1v, maxprofile):
        st = perturb_cosine(sample_profile(maxprofile, grid1v), 1e-2)
        start = st.f
        cur = SimState.dense(grid1v, st.f)
        for _ in range(100):
            cur = step(cur)
        cur = reverse_velocity(cur)
        for _ in range(100):
            cur = step(cur)
        cur = reverse_velocity(cur)
        assert np.max(np.abs(cur.f - start)) < 1e-8

    def test_cfl_guard(self):
        with pytest.raises(ValidationError):
            PhaseGrid(T1, 64, VelocityGrid(1, 8.0, 64), 1.0)

    def test_kick_bits_match_complex_exp(self, rng):
        # the cos/sin kick phase must be the very bits of exp(1j theta)
        from scipy import fft as sfft

        g = PhaseGrid(T1, 256, VelocityGrid(1, 8.0, 512), 0.02)
        n = g.vaxes[0].n
        a = rng.normal(size=(g.Nx, n, 2))
        e = rng.normal(scale=0.3, size=g.Nx)
        eta = 2.0 * np.pi * sfft.rfftfreq(n, d=g.vaxes[0].h)
        ahat = sfft.rfft(a, axis=1)
        ahat *= np.exp(1j * np.multiply.outer(e * g.dt, eta))[:, :, None]
        assert np.array_equal(_advect_v(a, g, e, g.dt), sfft.irfft(ahat, n=n, axis=1))


@pytest.fixture(scope="module")
def landau_log():
    g = PhaseGrid(T1, 128, VelocityGrid(1, 8.0, 512), 0.02)
    p = make_builtin("maxwellian", VelocityGrid(1, 8.0, 512))
    st = perturb_cosine(sample_profile(p, g), 1e-3)
    return run(st, 1500, output_every=300)


class TestConservation:

    def test_mass_per_step(self, landau_log):
        mass = np.asarray(landau_log[1].mass)
        assert np.max(np.abs(np.diff(mass))) < 1e-10
        assert np.max(np.abs(mass - mass[0])) < 1e-10

    def test_energy_drift(self, landau_log):
        en = np.asarray(landau_log[1].energy)
        assert np.max(np.abs(en - en[0])) / en[0] < 1e-6

    def test_momentum_drift(self, landau_log):
        mom = np.asarray(landau_log[1].momentum)
        assert np.max(np.abs(mom - mom[0])) < 1e-8

    def test_power_identity(self, landau_log):
        log = landau_log[1]
        t = np.asarray(log.t_mid)
        d_e2 = np.gradient(np.asarray(log.e_l2sq), t)
        resid = np.abs(d_e2 - 2.0 * np.asarray(log.je))
        assert np.max(resid[2:-2]) < 1e-6

    def test_current_bound_chain(self, landau_log):
        # |j(x)| <= (2 pi/3 + 1) ||f||_inf^(1/4) (int |v|^2 f dv)^(3/4)
        # pointwise in x, at the optimising split of the velocity ball;
        # checked on 1D-2V where the ball geometry matches
        g = PhaseGrid(2 * np.pi, 32, VelocityGrid(2, 8.5, 64), 0.02)
        p = make_builtin("maxwellian", VelocityGrid(2, 8.5, 64))
        st = perturb_cosine(sample_profile(p, g), 1e-2)
        fin, log = run(st, 50, output_every=10)
        const = 2 * np.pi / 3 + 1
        for snap in log.snapshots.values():
            v1 = g.vaxes[0].axis()
            v2 = g.vaxes[1].axis()
            j1 = (snap.f * v1[None, :, None]).sum(axis=(1, 2)) * g.cell_v
            j2 = (snap.f * v2[None, None, :]).sum(axis=(1, 2)) * g.cell_v
            jmag = np.hypot(j1, j2)
            vsq = v1[:, None] ** 2 + v2[None, :] ** 2
            kin_x = (snap.f * vsq[None, :, :]).sum(axis=(1, 2)) * g.cell_v
            finf = snap.f.max()
            bound = const * finf ** 0.25 * kin_x ** 0.75
            assert np.all(jmag <= bound + 1e-12)


class TestSplittingOrder:
    def test_halving_dt_reduces_drift(self):
        # steadiness drift of a resolvable travelling wave is second order
        from tests.test_bgk import tuned_case3_profile
        from vplab.bgk import match_period

        p, _ = tuned_case3_profile()
        _, wave = match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)
        drifts = []
        for dt in (0.02, 0.01):
            g = PhaseGrid(2 * np.pi, 128,
                          (VelocityGrid(1, 8.0, 128),
                           VelocityGrid(1, 8.0, 64)), dt)
            rep = run_bgk_steadiness(wave, g, t_end=3.0, output_every_t=0.5)
            drifts.append(rep.drift_f_max)
        assert drifts[0] / drifts[1] >= 3.5


def _grid2v(nx=32, nv2=32):
    return PhaseGrid(2 * np.pi, nx, (VelocityGrid(1, 8.0, 64),
                                     VelocityGrid(1, 8.0, nv2)), 0.02)


def _normalised(g, f):
    return SimState.dense(g, f / SimState.dense(g, f).density().mean())


def _factored(g, f, time=0.0):
    """The dense state f compressed to its transverse factors."""
    st = SimState.dense(g, f)
    return SimState(g, *_factor(st.a, st.b, g)[:2], time, 0.0)


def _maxwellian_v(g):
    v1, v2 = (ax.axis() for ax in g.vaxes)
    return np.exp(-(v1[:, None] ** 2 + v2[None, :] ** 2) / 2) / (2 * np.pi)


def tensordot_moments(a, w, grid, absolute=False):
    """Oracle: the moments of f = A B through three full (Nx, Nv1) v2-moment
    arrays; with ``absolute`` the same sums over |A|, |W| and |v1|, the scale
    of their rounding error."""
    v1, c = grid.vaxes[0].axis(), grid.cell_v
    if absolute:
        a, w, v1 = np.abs(a), np.abs(w), np.abs(v1)
    m = np.tensordot(w, a, axes=(0, 2))  # v2-moments 0, 1, 2 at each (x, v1)
    rho, j1 = m[0].sum(axis=1) * c, m[0] @ v1 * c
    mom = np.array([j1.sum(), m[1].sum() * c][:len(grid.vaxes)]) * grid.dx
    kin = float((m[0] @ v1 ** 2).sum() + m[2].sum()) * c * grid.dx
    return rho, j1, float(rho.sum()) * grid.dx, mom, kin


class TestMoments:
    @settings(max_examples=60)
    @given(nx=hst.sampled_from((4, 16, 64)), nv1=hst.sampled_from((4, 32, 128)),
           nv2=hst.sampled_from((None, 4, 8, 32)), r=hst.integers(1, 4),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_one_pass_matches_tensordot(self, nx, nv1, nv2, r, seed):
        # random A (Nx, Nv1, r) and B (r, Nv2) with orthonormal rows; in 1D-1V
        # (Nv2 = 1) B is a unit column, since r rows cannot be orthonormal there
        rng = np.random.default_rng(seed)
        vaxes = (VelocityGrid(1, 8.0, nv1),) + ((VelocityGrid(1, 6.0, nv2),) if nv2 else ())
        g = PhaseGrid(T1, nx, vaxes, 0.01)
        a = rng.standard_normal((nx, nv1, r))
        if nv2:
            b = np.linalg.qr(rng.standard_normal((nv2, r)))[0].T
        else:
            b = rng.standard_normal((r, 1))
            b /= np.linalg.norm(b)
        w = b @ _transverse_table(g)
        ours = _moments(a, w, g)
        exact = tensordot_moments(a, w, g)
        scale = tensordot_moments(a, w, g, absolute=True)
        for got, want, size in zip(ours, exact, scale):
            assert np.all(np.abs(np.asarray(got) - want) <= 1e-13 * np.asarray(size))


def count_svds(monkeypatch):
    """Record the shape of every np.linalg.svd argument from here on."""
    calls, svd = [], np.linalg.svd

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _lobe_datum(g):
    # a 1e-12 negative lobe far in the (v1, v2) tail: outside the state's
    # transverse span once clipped, so the clip re-factors
    v1, v2 = (ax.axis() for ax in g.vaxes)
    lobe = np.exp(-((v1[:, None] - 6) ** 2 + (v2[None, :] - 6) ** 2) / 0.25)
    f = (1 + 0.05 * np.cos(g.x))[:, None, None] * (_maxwellian_v(g) - 1e-12 * lobe)[None]
    return _normalised(g, f)


class TestFactoredRun:
    """``run`` advances the transverse factors; repeated ``step`` is the
    dense composition it must reproduce."""

    @staticmethod
    def check_against_dense(st, n_steps=20, every=10):
        fin, log = run(st, n_steps, output_every=every)
        cur = st
        for i in range(1, n_steps + 1):
            cur = step(cur)
            if i % every == 0:
                snap = log.snapshots[round(cur.time, 12)]
                assert np.max(np.abs(snap.f - cur.f)) < 1e-13
        assert len(log.snapshots) == n_steps // every
        assert np.max(np.abs(fin.f - cur.f)) < 1e-13
        return log

    def test_rank1_wave(self, monkeypatch):
        # v2 is positive in the wave, so the roundoff negatives each output
        # clips lie in its rank-1 span: one SVD, at the start, for the run
        from tests.test_bgk import tuned_case3_profile
        from vplab.bgk import match_period

        p, _ = tuned_case3_profile()
        _, wave = match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)
        g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128),
                                      VelocityGrid(1, 8.0, 32)), 0.01)
        f0 = wave.sample_phase_space(g.x, *(ax.axis() for ax in g.vaxes))
        assert _factored(g, f0).b.shape[0] == 1
        svds = count_svds(monkeypatch)
        log = self.check_against_dense(SimState.dense(g, f0))
        assert log.snapshots[min(log.snapshots)].clipped_mass > 0
        assert svds == [(32, 32)]

    def test_rank2_datum(self):
        # M(v1) M(v2) (1 + a cos x (1 + v1 v2)): span{M(v2), v2 M(v2)} over v2
        g = _grid2v()
        v1, v2 = (ax.axis() for ax in g.vaxes)
        f = _maxwellian_v(g)[None] * (1 + 0.01 * np.cos(g.x)[:, None, None]
                        * (1 + v1[:, None] * v2[None, :])[None])
        st = _normalised(g, f)
        assert _factor(st.a, st.b, g)[0].shape[2] == 2
        self.check_against_dense(st)

    def test_full_rank_random_transverse(self, rng):
        # random x-profiles over the 17 modes |m| <= 8 for each of 16 v2 points;
        # the box keeps them far below the x Nyquist mode, whose imaginary
        # part the fused and unfused x-shifts discard differently
        g = _grid2v(nx=64, nv2=16)
        v1 = g.vaxes[0].axis()
        m1 = np.exp(-v1 ** 2 / 2) / np.sqrt(2 * np.pi)
        modes = np.concatenate([np.cos(np.outer(g.x, np.arange(9))),
                                np.sin(np.outer(g.x, np.arange(1, 9)))], axis=1)
        rand = 1.0 + 0.02 * modes @ rng.uniform(-1, 1, (17, g.vaxes[1].n))
        f = m1[None, :, None] * rand[:, None, :]
        st = _normalised(g, f)
        assert _factor(st.a, st.b, g)[0].shape[2] == g.vaxes[1].n
        self.check_against_dense(st)

    def test_clip_refactors_and_conserves_mass(self):
        # each output clips the lobe, the clipped state is re-factored with
        # fresh weights, and the run goes on with the mass changed by the
        # clipped mass alone
        st = _lobe_datum(_grid2v())
        assert st.a.min() < 0
        fin, log = run(st, 30, output_every=5)
        assert 0 < fin.clipped_mass < 1e-10
        assert fin.f.min() >= 0
        mass = np.asarray(log.mass)
        assert np.max(np.abs(np.diff(mass))) < 1e-10
        assert abs(fin.moments()[0] - st.moments()[0] - fin.clipped_mass) < 1e-13

    def test_clip_outside_the_span_grows_the_rank(self, monkeypatch):
        # the first clip leaves the rank-2 span by far more than 1e-15 sigma_1:
        # a fresh SVD with a larger rank; the second clip lies in the grown
        # span, which is kept, and the third, final one needs no factor
        st = _lobe_datum(_grid2v())
        svds = count_svds(monkeypatch)
        fin, log = run(st, 15, output_every=5)
        assert fin.clipped_mass > 0
        ranks = log.ranks
        assert len(ranks) == 3 and ranks[0] == 2 and ranks[1] > 2 and ranks[2] == ranks[1]
        assert log.refactors == 1
        assert len(svds) == 2

    def test_clip_at_the_final_output_makes_no_svd(self, monkeypatch):
        st = _lobe_datum(_grid2v())
        svds = count_svds(monkeypatch)
        fin, log = run(st, 5, output_every=5)
        assert 0 < fin.clipped_mass and fin.f.min() >= 0
        assert len(log.snapshots) == 1 and len(svds) == 1


class TestOneState:
    """A dense state is the factored one with A = f, B = I: ``run`` and
    ``step`` from it and from its compressed factors give the same state."""

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_and_factored_agree(self, rank, seed):
        # f = M(v1) M(v2) (p_1(x) + p_2(x) cos(c v2)) with random x-profiles
        # p_j over the modes |m| <= 3, p_1 near 1, and a random c
        rng = np.random.default_rng(seed)
        g = _grid2v(nx=16, nv2=16)
        v2 = g.vaxes[1].axis()
        modes = np.concatenate([np.cos(np.outer(g.x, np.arange(1, 4))),
                                np.sin(np.outer(g.x, np.arange(1, 4)))], axis=1)
        p = 0.02 * modes @ rng.uniform(-1, 1, (6, rank))
        p[:, 0] += 1.0
        rows = np.stack([np.ones_like(v2), np.cos(rng.uniform(0.3, 1.0) * v2)][:rank])
        f = np.einsum("xj,jw->xw", p, rows)[:, None, :] * _maxwellian_v(g)[None]
        dense = _normalised(g, f)
        fac = SimState(g, *_factor(dense.a, dense.b, g)[:2], 0.0, 0.0)
        assert fac.b.shape[0] == rank
        assert np.array_equal(run(dense, 10, output_every=5)[0].f,
                              run(fac, 10, output_every=5)[0].f)
        for _ in range(10):
            dense, fac = step(dense), step(fac)
        assert np.max(np.abs(dense.f - fac.f)) <= 1e-13 * dense.f.max()

    def test_step_refactors_where_run_does(self):
        # the lobe's first clip leaves the rank-2 span: ``step`` re-factors
        # by run's rule, so the factored steps follow the dense ones
        g = _grid2v()
        dense = _lobe_datum(g)
        fac = _factored(g, dense.a.reshape(g.shape))
        assert fac.b.shape[0] == 2
        for _ in range(5):
            dense, fac = step(dense), step(fac)
        assert fac.b.shape[0] > 2
        assert np.max(np.abs(dense.f - fac.f)) <= 1e-13 * dense.f.max()


class TestFactoredOutputs:
    """Outputs stay factored: clip mass, span check and comparisons read
    the state in row blocks, and ``SimState.f`` builds the dense state."""

    @settings(max_examples=40)
    @given(nx=hst.sampled_from((4, 8, 32)), nv1=hst.sampled_from((64, 128)),
           nv2=hst.sampled_from((8, 16, 64)), rank=hst.integers(1, 4),
           block=hst.sampled_from((sim._ROWS, 1000, 100)), tail=hst.integers(1, 64),
           seed=hst.integers(0, 2 ** 32 - 1))
    def test_factor_singular_values(self, nx, nv1, nv2, rank, block, tail, seed):
        # 256 to 4096 rows in blocks of 1024, 1000 or 100: fewer rows than
        # one block, exactly one block, and a short last block (48 rows
        # under 64 columns for 2048 rows in blocks of 1000); from rank 2 on,
        # the last component lives on the last ``tail`` rows only
        rng = np.random.default_rng(seed)
        g = PhaseGrid(T1, nx, (VelocityGrid(1, 8.0, nv1), VelocityGrid(1, 8.0, nv2)), 0.01)
        u = rng.standard_normal((nx * nv1, rank)) * 10.0 ** rng.uniform(-3, 0, rank)
        if rank > 1:
            u[:-tail, -1] = 0.0
        x = u @ rng.standard_normal((rank, nv2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_ROWS", block)
            a, b, _ = _factor(x.reshape(nx, nv1, nv2), np.eye(nv2), g)
        want = np.linalg.svd(x, compute_uv=False)
        got = np.linalg.svd(a.reshape(len(x), -1), compute_uv=False)
        r = len(got)
        assert b.shape == (r, nv2) and np.allclose(b @ b.T, np.eye(r), atol=1e-14)
        assert np.all(np.abs(got - want[:r]) <= 1e-13 * want[0])
        assert np.all(want[r:] <= 1e-13 * want[0])

    @pytest.mark.parametrize("nx,rank,block", [(4, 1, 1024), (8, 3, 1024), (32, 2, 1000)])
    def test_clip_mass_matches_dense(self, rng, nx, rank, block, monkeypatch):
        g = PhaseGrid(T1, nx, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 16)), 0.01)
        rows = 1e-12 * rng.standard_normal((nx * 128, rank))
        b = rng.standard_normal((rank, 16))
        f = rows @ b
        monkeypatch.setattr(sim, "_ROWS", block)
        got = _clip(rows, b, g)[0] / (g.dx * g.cell_v)
        assert got > 0
        assert abs(got + np.minimum(f, 0.0).sum()) <= 1e-14 * np.abs(f).sum()

    @pytest.mark.parametrize("nx,rank,block", [(4, 1, 1024), (8, 3, 1024), (32, 2, 1000)])
    def test_clip_projection_matches_dense(self, rng, nx, rank, block, monkeypatch):
        # the kept rows and the span residual from the negative part alone,
        # against the projection of the dense clipped state onto orthonormal b
        g = PhaseGrid(T1, nx, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 16)), 0.01)
        rows = 1e-12 * rng.standard_normal((nx * 128, rank))
        b = np.linalg.qr(rng.standard_normal((16, rank)))[0].T
        clipped = np.maximum(rows @ b, 0.0)
        monkeypatch.setattr(sim, "_ROWS", block)
        _, kept, resid = _clip(rows, b, g)
        want = clipped @ b.T
        assert np.max(np.abs(kept - want)) <= 1e-14 * np.max(np.abs(want))
        want_resid = np.sum((clipped - want @ b) ** 2)
        assert abs(resid - want_resid) <= 1e-13 * np.sum(clipped ** 2)
        assert want_resid > 1e-3 * np.sum(clipped ** 2)  # the clip leaves the span

    @pytest.mark.parametrize("c", [0.0, 0.37])
    @pytest.mark.parametrize("block", [1024, 1000])
    def test_comoving_max_is_exact(self, rng, c, block, monkeypatch):
        # the largest difference sits in the last row, in a full or a
        # short (48-row) last block
        g = _grid2v()
        f = _lobe_datum(g).a.reshape(g.shape)  # A = f, its negative lobe unclipped
        ref = f + 1e-3 * rng.standard_normal(g.shape)
        ref[-1, -1] += 1.0
        snap, ref = (_factored(g, x, 1.3) for x in (f, ref))
        monkeypatch.setattr(sim, "_ROWS", block)
        a = snap.a
        if c != 0.0:
            from scipy import fft as sfft

            ahat = sfft.rfft(a, axis=0) * np.exp(1j * g.kx * (c * snap.time))[:, None, None]
            a = sfft.irfft(ahat, n=g.Nx, axis=0)
        want = float(np.max(np.abs(np.maximum(a @ snap.b, 0.0) - ref.a @ ref.b)))
        assert comoving_compare(snap, ref, c) == want

    def test_snapshot_builds_the_clipped_product(self, rng):
        g = _grid2v()
        a = rng.standard_normal((g.Nx, g.vaxes[0].n, 2))
        b = rng.standard_normal((2, g.vaxes[1].n))
        snap = SimState(g, a, b, 0.5, 0.0)
        assert np.array_equal(snap.f, np.maximum(a @ b, 0.0))
        assert snap.f is not snap.f  # built on each read, never kept

    def test_log_records_rank_and_refactors(self):
        # the lobe's first clip grows the rank-2 basis (one fresh SVD); the
        # second lies in the grown span, the third is the final output
        fin, log = run(_lobe_datum(_grid2v()), 15, output_every=5)
        assert len(log.ranks) == 3 and log.ranks[0] == 2 < log.ranks[1] == log.ranks[2]
        assert log.refactors == 1
        assert [s.b.shape[0] for _, s in sorted(log.snapshots.items())] == log.ranks

    @pytest.mark.parametrize("lobe", [False, True])
    def test_run_never_writes_into_input_or_outputs(self, lobe, grid1v, maxprofile):
        # the 1D-1V perturbed Maxwellian at rank 1, and the lobe, which
        # re-factors once: the input stays as it was, each snapshot holds
        # its own A (B is never written, so outputs may share it), and each
        # equals the final output of a fresh run stopped at its step
        st = (_lobe_datum(_grid2v()) if lobe
              else perturb_cosine(sample_profile(maxprofile, grid1v), 0.05))
        a0, b0 = st.a.copy(), st.b.copy()
        _, log = run(st, 15, output_every=5)
        assert np.array_equal(st.a, a0) and np.array_equal(st.b, b0)
        snaps = [s for _, s in sorted(log.snapshots.items())]
        assert len(snaps) == 3
        for i, s in enumerate(snaps):
            for other in [st.a, st.b] + [t.a for t in snaps[:i]]:
                assert not np.shares_memory(s.a, other)
            fresh = run(st, 5 * (i + 1), output_every=5)[0]
            assert np.array_equal(s.a, fresh.a) and np.array_equal(s.b, fresh.b)
            assert s.clipped_mass == fresh.clipped_mass


@pytest.fixture(scope="module")
def case3_wave():
    from tests.test_bgk import tuned_case3_profile
    from vplab.bgk import match_period

    p, _ = tuned_case3_profile()
    return match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)[1]


def test_steadiness_memory_stays_factored(case3_wave):
    # the rank-1 wave on 64 x 128 x 32, four outputs: the snapshots hold
    # their factors, so neither the peak nor what the report keeps grows
    # with the number of outputs
    g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 32)), 0.01)
    dense = 8 * np.prod(g.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = run_bgk_steadiness(case3_wave, g, t_end=0.4, output_every_t=0.1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.log.snapshots) == 4
    assert rep.log.ranks == [1] * 4 and rep.log.refactors == 0
    assert (peak - base) / dense < 5.0
    assert (held - base) / dense < 0.5


def test_steadiness_peak_below_one_dense_state(case3_wave):
    # the wave is sampled, evolved, clipped and compared as factors: the
    # whole run never holds a dense (Nx, Nv1, Nv2) state
    g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 32)), 0.01)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_bgk_steadiness(case3_wave, g, t_end=0.4, output_every_t=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 8 * np.prod(g.shape)


def test_steadiness_factors_no_dense_state(case3_wave, monkeypatch):
    # no SVD at all, and the one QR is of the wave's (Nv2, 1) Gaussian row
    g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 32)), 0.01)
    svds, qrs, qr = count_svds(monkeypatch), [], np.linalg.qr

    def counted(x, *args, **kwargs):
        qrs.append(np.shape(x))
        return qr(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    rep = run_bgk_steadiness(case3_wave, g, t_end=0.4, output_every_t=0.1)
    assert rep.log.ranks == [1] * 4
    assert svds == [] and qrs == [(32, 1)]


def dense_comoving_compare(snap, reference_f, c):
    """Oracle: max |f(t, x + c t) - f_ref| with the dense clipped state
    shifted spectrally in x (the comparison the factored one replaced)."""
    from scipy import fft as sfft

    g, f = snap.grid, snap.f
    if c != 0.0:
        fhat = sfft.rfft(f, axis=0) * np.exp(1j * g.kx * (c * snap.time))[:, None, None]
        f = sfft.irfft(fhat, n=g.Nx, axis=0)
    return float(np.max(np.abs(f - reference_f)))


@pytest.mark.parametrize("boost", [0.0, 0.5])
def test_factored_drift_matches_dense(case3_wave, boost):
    from vplab.bgk import galilean_boost

    wave = galilean_boost(case3_wave, boost) if boost else case3_wave
    g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 32)), 0.01)
    f0 = wave.sample_phase_space(g.x, *(ax.axis() for ax in g.vaxes))
    rep = run_bgk_steadiness(wave, g, t_end=0.4, output_every_t=0.1)
    want = [dense_comoving_compare(snap, f0, wave.c)
            for _, snap in sorted(rep.log.snapshots.items())]
    assert min(want) > 1e-10 * f0.max()  # a drift well above roundoff
    assert np.max(np.abs(rep.drift_series - want)) <= 1e-15 * f0.max()
    assert rep.drift_f_max == max(rep.drift_series)


def test_steadiness_imports_no_ode_solver():
    # the orbit sampler is a quadrature: matching and evolving a wave must
    # not import scipy.integrate (0.03-0.05 s on a cold start)
    import subprocess
    import sys

    script = """
import sys
import numpy as np
from scipy.optimize import brentq
from vplab.bgk import match_period
from vplab.profiles import GaussianMixture, GaussianTerm, VelocityGrid, make_builtin
from vplab.sim import PhaseGrid, run_bgk_steadiness

v0 = brentq(lambda v: GaussianMixture(1, [GaussianTerm(1.0, (v,), (0.45,))]).pv_d_integral() - 1.0,
           0.9, 1.9, xtol=1e-13)
p = make_builtin("product", VelocityGrid(2, 8.0, 256), factors=[
    ("double_bump", {"v0": v0, "width": 0.45}), ("gaussian", {"width": 1.0})])
_, wave = match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)
g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 32)), 0.01)
run_bgk_steadiness(wave, g, t_end=0.05, output_every_t=0.05)
print("scipy.integrate" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


class TestZeroSteps:
    """A run that rounds to no step is refused, not reported as steady."""

    def test_run(self, grid1v, maxprofile):
        with pytest.raises(ValidationError, match=r"n_steps = 0: .*dt = 0\.05"):
            run(sample_profile(maxprofile, grid1v), 0)

    def test_steadiness(self, case3_wave):
        g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 32)), 0.01)
        with pytest.raises(ValidationError, match="n_steps = 0"):
            run_bgk_steadiness(case3_wave, g, t_end=0.004)

    def test_decay(self, grid1v, maxprofile):
        with pytest.raises(ValidationError, match="n_steps = 0"):
            run_decay_experiment(maxprofile, grid1v, 1e-3, 0.0, 1.6, 0.3, t_end=0.02)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decay_too_few_steps(self, grid1v, maxprofile, n):
        # the power-identity residual drops two midpoints at each end
        with pytest.raises(ValidationError,
                           match=rf"n_steps = {n}: t_end = {0.05 * n:g} at dt = 0\.05"):
            run_decay_experiment(maxprofile, grid1v, 1e-3, 0.0, 1.6, 0.3, t_end=0.05 * n)


class TestSteadiness:
    def test_homogeneous_zero_drift(self, maxprofile):
        from vplab.bgk import build_modified, make_h

        g = PhaseGrid(T1, 64, VelocityGrid(1, 8.0, 256), 0.05)
        st = sample_profile(maxprofile, g)
        fin, log = run(st, 100, output_every=50)
        last = log.snapshots[max(log.snapshots)]
        assert np.max(np.abs(last.f - st.f)) < 1e-12

    def test_boosted_wave_comoving_drift(self):
        from tests.test_bgk import tuned_case3_profile
        from vplab.bgk import galilean_boost, match_period

        p, _ = tuned_case3_profile()
        _, wave = match_period(p, 2 * np.pi, 0.0, 1e-3, case=3)
        boosted = galilean_boost(wave, 0.5)
        g = PhaseGrid(2 * np.pi, 128,
                      (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 64)),
                      0.01)
        rep_rest = run_bgk_steadiness(wave, g, t_end=2.0)
        rep_boost = run_bgk_steadiness(boosted, g, t_end=2.0)
        assert rep_boost.drift_f_max < 5.0 * max(rep_rest.drift_f_max, 1e-12)


class TestNonFiniteScalars:
    """Each bad scalar is refused by name: nan once slipped past every
    comparison, and a negative T1 was blamed on the splitting guard."""

    @pytest.mark.parametrize("t1, dt, shown", [
        (float("nan"), 0.05, "T1 must be finite and positive, got nan"),
        (float("inf"), 0.05, "T1 must be finite and positive, got inf"),
        (-5.0, 0.05, "T1 must be finite and positive, got -5.0"),
        (T1, float("nan"), "dt must be finite and positive, got nan"),
        (T1, 0.0, "dt must be finite and positive, got 0.0"),
    ])
    def test_phase_grid(self, t1, dt, shown):
        with pytest.raises(ValidationError, match=shown):
            PhaseGrid(t1, 64, VelocityGrid(1, 8.0, 64), dt)

    @pytest.mark.parametrize("key", ["t_end", "amplitude"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_decay_experiment(self, grid1v, maxprofile, key, bad):
        kw = {"amplitude": 1e-3, "t_end": 1.0, key: bad}
        with pytest.raises(ValidationError, match=f"{key} must be finite, got {bad}"):
            run_decay_experiment(maxprofile, grid1v, kw["amplitude"], 0.0, 1.6, 0.3,
                                 t_end=kw["t_end"])


    @pytest.mark.parametrize("key", ["t_end", "output_every_t"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 0.0])
    def test_steadiness(self, case3_wave, monkeypatch, key, bad):
        # refused by name before the wave is sampled
        monkeypatch.setattr(case3_wave, "sample_factors", None)
        g = PhaseGrid(2 * np.pi, 64, (VelocityGrid(1, 8.0, 128), VelocityGrid(1, 8.0, 64)), 0.01)
        kw = {"t_end": 1.0, "output_every_t": 0.5, key: bad}
        with pytest.raises(ValidationError, match=f"{key} must be finite and positive, got {bad}"):
            run_bgk_steadiness(case3_wave, g, **kw)

    @pytest.mark.parametrize("every", [0, -1, float("nan"), 2.5, 1.0000001])
    def test_run_diagnostics_every(self, grid1v, maxprofile, every):
        # 2.5 once recorded every 5th step and 1.0000001 step 0 only
        with pytest.raises(ValidationError, match=f"diagnostics_every must be an integer >= 1, got {every}"):
            run(sample_profile(maxprofile, grid1v), 2, diagnostics_every=every)

    @pytest.mark.parametrize("every", [-1, 0, 2.5, float("nan")])
    def test_run_output_every(self, grid1v, maxprofile, monkeypatch, every):
        # refused by name before the state is factored or any step is taken
        state = sample_profile(maxprofile, grid1v)
        monkeypatch.setattr(sim, "_factor", None)
        with pytest.raises(ValidationError, match=f"output_every must be an integer >= 1, got {every}"):
            run(state, 2, output_every=every)


class TestCounts:
    """A count is an int or np.integer: a float once gave a bare TypeError
    or was truncated, and True ran as 1."""

    @pytest.mark.parametrize("nx", [64.7, 64.0, True, float("nan"), 48])
    def test_phase_grid_nx(self, monkeypatch, nx):
        # refused by name before any velocity axis is built
        monkeypatch.setattr(sim, "VelocityGrid", None)
        with pytest.raises(ValidationError, match=f"^Nx must be a power of two >= 4, got {nx}$"):
            PhaseGrid(2 * np.pi, nx, VelocityGrid(1, 8.0, 64), 0.01)

    def test_phase_grid_numpy_integer(self):
        assert PhaseGrid(2 * np.pi, np.int64(64), VelocityGrid(1, 8.0, 64), 0.01).shape == (64, 64)

    @pytest.mark.parametrize("n_steps", [2.5, 1.5, 3.0, float("nan"), True])
    def test_run_n_steps(self, grid1v, maxprofile, monkeypatch, n_steps):
        # 2.5 and nan once reached range() after _factor had compressed the state
        state = sample_profile(maxprofile, grid1v)
        monkeypatch.setattr(sim, "_factor", None)
        with pytest.raises(ValidationError, match=f"^n_steps must be an integer, got {n_steps}$"):
            run(state, n_steps)

    @pytest.mark.parametrize("key", ["output_every", "diagnostics_every"])
    def test_run_bool_every(self, grid1v, maxprofile, monkeypatch, key):
        # output_every=True once ran as output_every = 1
        state = sample_profile(maxprofile, grid1v)
        monkeypatch.setattr(sim, "_factor", None)
        with pytest.raises(ValidationError, match=f"^{key} must be an integer >= 1, got True$"):
            run(state, 3, **{key: True})

    @pytest.mark.parametrize("mode", [1.5, 0, -1, True])
    def test_decay_mode(self, grid1v, maxprofile, monkeypatch, mode):
        # 1.5 once ran a perturbation that jumps at the box edge
        monkeypatch.setattr(sim, "sample_profile", None)
        with pytest.raises(ValidationError, match=f"^mode must be an integer >= 1, got {mode}$"):
            run_decay_experiment(maxprofile, grid1v, 1e-3, 0.0, 1.6, 0.3, t_end=1.0, mode=mode)

    def test_run_numpy_integer_counts(self, grid1v, maxprofile):
        state = sample_profile(maxprofile, grid1v)
        fin, log = run(state, np.int64(4), output_every=np.int64(2),
                       diagnostics_every=np.int32(2))
        assert sorted(log.snapshots) == [2 * grid1v.dt, 4 * grid1v.dt] and len(log.mass) == 2


class TestDecayExperiment:
    def test_unstable_refused(self):
        db = make_builtin("double_bump", VelocityGrid(1, 12.0, 512), v0=3.0)
        g = PhaseGrid(24.0, 64, VelocityGrid(1, 12.0, 512), 0.05)
        with pytest.raises(PenroseUnstableError):
            run_decay_experiment(db, g, 1e-3, 0.0, 1.6, 0.3, t_end=1.0)

    def test_zero_perturbation_zero_field(self, maxprofile):
        g = PhaseGrid(T1, 64, VelocityGrid(1, 8.0, 256), 0.05)
        rep = run_decay_experiment(maxprofile, g, 0.0, 0.0, 1.6, 0.3,
                                   t_end=2.0)
        assert np.max(rep.e_l2) < 1e-14

    def test_short_decay_run(self, maxprofile):
        g = PhaseGrid(T1, 128, VelocityGrid(1, 8.0, 256), 0.02)
        rep = run_decay_experiment(maxprofile, g, 1e-3, 0.0, 1.6, 0.3,
                                   t_end=25.0)
        assert rep.identity_residual < 1e-6
        assert rep.final_over_max < 0.1
        assert rep.perturbation_norm > 0
        mass, energy = np.asarray(rep.log.mass), np.asarray(rep.log.energy)
        assert rep.mass_drift_per_step == np.max(np.abs(np.diff(mass)))
        assert rep.energy_drift_rel == np.max(np.abs(energy - energy[0])) / energy[0]
        assert rep.mass_drift_per_step <= sim.MASS_TOL_PER_STEP
        assert 0 < rep.energy_drift_rel <= sim.ENERGY_REL_TOL


class TestFftWorkers:
    """``--threads`` reaches the solver as ``sim.FFT_WORKERS``: two FFT
    workers must give the one-worker state bit for bit."""

    @staticmethod
    def _final(state, monkeypatch, workers):
        monkeypatch.setattr(sim, "FFT_WORKERS", workers)
        return run(SimState.dense(state.grid, state.f), 20, output_every=5)[0].f

    def test_1d1v(self, grid1v, maxprofile, monkeypatch):
        st = perturb_cosine(sample_profile(maxprofile, grid1v), 0.05)
        one = self._final(st, monkeypatch, 1)
        assert np.array_equal(self._final(st, monkeypatch, 2), one)

    def test_1d2v(self, monkeypatch):
        # rank 2 over v2, so the transverse factor is not trivial
        g = _grid2v()
        v2 = g.vaxes[1].axis()
        cosx = np.cos(g.x)[:, None, None]
        st = _normalised(g, _maxwellian_v(g)[None] * (1.0 + 0.05 * cosx * (1.0 + 0.2 * v2 ** 2)))
        one = self._final(st, monkeypatch, 1)
        assert np.array_equal(self._final(st, monkeypatch, 2), one)


class TestComoving:
    def test_shift_identity(self, grid1v, maxprofile):
        st = perturb_cosine(sample_profile(maxprofile, grid1v), 0.05)
        snap = _factored(grid1v, st.f)
        assert comoving_compare(snap, snap, 0.0) == 0.0
        snap.time = 1.7
        # shifting by c t and comparing against the shifted reference is
        # consistent with an explicit roll for commensurate shifts
        c = T1 / (64 * 1.7) * 8
        ref = SimState(grid1v, np.roll(snap.a, -8, axis=0), snap.b, 0.0, 0.0)
        assert comoving_compare(snap, ref, c) < 1e-12


def test_clipped_mass_resolution_error():
    # a velocity feature far below the grid scale rings negative under the
    # spectral advection; the per-step clipping budget flags it loudly
    vg = VelocityGrid(1, 6.0, 32)
    vals = np.exp(-((vg.axis() / 0.25) ** 2))
    vals = vals / vg.integrate(vals)
    g = PhaseGrid(2 * np.pi, 16, vg, 0.1)
    st = perturb_cosine(SimState.dense(g, np.broadcast_to(vals, g.shape).copy()), 0.9)
    with pytest.raises(ValidationError, match="resolution"):
        cur = st
        for _ in range(50):
            cur = step(cur)
