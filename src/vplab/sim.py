"""Nonlinear Vlasov-Poisson integrator on periodic phase space (1D-1V, 1D-2V).

Strang splitting with spectral advections: half x-shift, Poisson solve,
full v1 kick, half x-shift.  Production runs fuse adjacent x half-steps;
states materialised at output times are identical to the unfused
composition up to roundoff.  Per-step diagnostics are sampled at the
staggered midpoints the fused loop naturally visits.

The field acts along x1 and the x-shift reads v1 only, so v2 is a passive
label: f = sum_j A_j(x, v1) B_j(v2) keeps B and its rank r exactly under every
step.  A ``SimState`` holds A (Nx, Nv1, r) and B (r, Nv2); a dense state is
A = f, B = I (B = [[1]] in 1D-1V).  Moments are taken through W = B (1, v2,
v2^2).  ``run`` compresses the factors once (SVD over v2 above 1e-15 sigma_1
of a blocked tall-skinny QR of A) and advances A alone.  At each output one
pass over row blocks of A B gives the negative part n that the clip removes,
its mass, the clipped state's projection A + n B^T onto B and the span
residual ||n (I - B^T B)||_F.  The after-clip rule (``_settle``, which every
``step`` follows too) keeps B while that residual is within the SVD's own
threshold 1e-15 sigma_1(A), as roundoff clips of a state positive in v2 are,
and else re-factors the clipped state; ``run``'s final clip does neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .errors import PenroseUnstableError, UnresolvableBumpError, ValidationError, require
from .norms import mixed_norm
from .penrose import critical_pv, margin_ok
from .profiles import VelocityGrid, fourier_multiplier, project

FFT_WORKERS = 1
# rows of the (Nx Nv1, Nv2) state per block in the dense passes: a block of
# 64 v2 columns is 512 KiB, so it stays in cache while it is read
_ROWS = 1024
# conservation a decay run must keep: the largest change of mass in one step,
# and the largest energy drift relative to the initial energy
MASS_TOL_PER_STEP = 1e-10
ENERGY_REL_TOL = 1e-6


def set_fft_workers(n):
    global FFT_WORKERS
    require("an integer >= 1", (("FFT workers", n),))
    FFT_WORKERS = n


class PhaseGrid:
    """Tensor discretisation of (x1, v) with the splitting time step.

    Velocity axes may differ in extent and resolution: pass either an
    isotropic VelocityGrid (dim 1 or 2) or a tuple of one-dimensional
    VelocityGrid objects, one per velocity axis.
    """

    def __init__(self, T1, Nx, vaxes, dt):
        require("a power of two >= 4", (("Nx", Nx),))
        self.T1 = float(T1)
        self.Nx = Nx
        self.dt = float(dt)
        if hasattr(vaxes, "dim"):
            self.vgrid = vaxes
            self.vaxes = tuple(VelocityGrid(1, vaxes.vmax, vaxes.n)
                               for _ in range(vaxes.dim))
        else:
            self.vaxes = tuple(vaxes)
            iso = all(g.n == self.vaxes[0].n and g.vmax == self.vaxes[0].vmax
                      for g in self.vaxes)
            self.vgrid = VelocityGrid(len(self.vaxes), self.vaxes[0].vmax,
                                      self.vaxes[0].n) if iso else None
        if len(self.vaxes) not in (1, 2):
            raise ValidationError("solver supports 1D-1V and 1D-2V")
        require("finite and positive", (("T1", self.T1), ("dt", self.dt)))
        if self.dt * self.vaxes[0].vmax > self.T1 / 4.0 + 1e-12:
            raise ValidationError(
                f"dt*vmax = {self.dt * self.vaxes[0].vmax:.3g} violates the "
                f"splitting guard T1/4 = {self.T1 / 4:.3g}")

    @property
    def x(self):
        return self.T1 / self.Nx * np.arange(self.Nx)

    @property
    def dx(self):
        return self.T1 / self.Nx

    @property
    def kx(self):
        return 2.0 * np.pi * sfft.rfftfreq(self.Nx, d=self.dx)

    @property
    def cell_v(self):
        return math.prod(g.h for g in self.vaxes)

    @property
    def shape(self):
        return (self.Nx,) + tuple(g.n for g in self.vaxes)


def poisson_solve(rho, T1):
    """Spectral field E = -phi' of the zero-mean potential from the density on the x grid.

    Requires a finite, positive period T1 and a neutralised source rho - 1
    of zero mean (1e-10) on the torus.
    """
    require("finite and positive", (("period T1", T1),))
    rho = np.asarray(rho, dtype=float)
    n = len(rho)
    src = rho - 1.0
    if abs(float(np.mean(src))) > 1e-10:
        raise ValidationError(
            f"mean source {np.mean(src):.3e} violates torus solvability")
    # phi'' = rho - 1 and E = -phi', so E_hat = i src_hat / k (0 at k = 0)
    return fourier_multiplier(src, (T1 / n,), (0,), lambda k: np.divide(
        1j, k, out=np.zeros(k.shape, complex), where=k != 0))


def _transverse_table(grid):
    """Columns 1, v2, v2^2 on the passive axis: (Nv2, 3), or [[1, 0, 0]] in 1D-1V."""
    v2 = grid.vaxes[1].axis() if len(grid.vaxes) == 2 else np.zeros(1)
    return np.stack([np.ones_like(v2), v2, v2 ** 2], axis=1)


def _factor(a, b, grid):
    """Compressed factors of A B (B with orthonormal rows): A (Nx, Nv1, r),
    B (r, Nv2) and W = B (1, v2, v2^2).  The new rows are V^T B, V from the
    SVD of the R factor of A above 1e-15 sigma_1; a state whose rank would
    not drop (rank 1 at once) is returned as it is, so compressing twice
    changes no bit.  R is a tall-skinny QR: the QR of the stacked R factors
    of the row blocks of ``_ROWS`` rows, so no dense temporary is built."""
    if b.shape[0] > 1:
        x = a.reshape(-1, b.shape[0])
        r = np.linalg.qr(np.concatenate([np.linalg.qr(x[j:j + _ROWS], mode="r")
                                         for j in range(0, len(x), _ROWS)]), mode="r")
        _, s, vt = np.linalg.svd(r)
        v = vt[:max(1, int(np.count_nonzero(s > 1e-15 * s[0])))]
        if len(v) < len(b):
            a, b = (x @ v.T).reshape(a.shape[:2] + (-1,)), v @ b
    return a, b, b @ _transverse_table(grid)


def _moments(a, w, grid):
    """Density and v1-current on the x grid, then mass, momentum and kinetic
    energy, of f = A B through the transverse weights W = B (1, v2, v2^2).

    One pass: (1, v1, v1^2) A W gives every moment int v1^i v2^j f at each x.
    """
    v1, c = grid.vaxes[0].axis(), grid.cell_v
    m = (np.stack([np.ones_like(v1), v1, v1 ** 2]) @ a) @ w  # (Nx, v1^i, v2^j)
    rho, j1 = m[:, 0, 0] * c, m[:, 1, 0] * c
    mom = np.array([j1.sum(), m[:, 0, 1].sum() * c][:len(grid.vaxes)]) * grid.dx
    kin = float(m[:, 2, 0].sum() + m[:, 0, 2].sum()) * c * grid.dx
    return rho, j1, float(rho.sum()) * grid.dx, mom, kin


@dataclass
class SimState:
    """A phase-space state held as its transverse factors A (Nx, Nv1, r) and
    B (r, Nv2), with its time and the mass its clips have added.  Density,
    field and moments are those of A B, from the factors; ``f`` builds the
    clipped dense state max(A B, 0) on every read and nothing keeps it, so a
    state costs A and B only."""

    grid: PhaseGrid
    a: np.ndarray
    b: np.ndarray
    time: float
    clipped_mass: float

    @classmethod
    def dense(cls, grid, f):
        """The dense state f at time 0: A = f, B = I."""
        a = f.reshape(grid.Nx, grid.vaxes[0].n, -1)
        return cls(grid, a, np.eye(a.shape[2]), 0.0, 0.0)

    @property
    def f(self):
        f = (self.a.reshape(-1, self.b.shape[0]) @ self.b).reshape(self.grid.shape)
        return np.maximum(f, 0.0, out=f)

    def _moments(self):
        return _moments(self.a, self.b @ _transverse_table(self.grid), self.grid)

    def density(self):
        return self._moments()[0]

    def current(self):
        """j1(x) = int v1 f dv."""
        return self._moments()[1]

    def efield(self):
        return poisson_solve(self.density(), self.grid.T1)

    def moments(self):
        return self._moments()[2:]


def _x_phase(grid, tau):
    """Multiplier of rfft(a, axis=0) shifting x by v1 tau, broadcast over the rank."""
    return np.exp(-1j * np.multiply.outer(grid.kx, grid.vaxes[0].axis()) * tau)[:, :, None]


def _advect_x(a, grid, phase):
    """a(x, v1, j) <- a(x - v1 tau, v1, j), spectral in x; phase = _x_phase(grid, tau)."""
    ahat = sfft.rfft(a, axis=0, workers=FFT_WORKERS)
    ahat *= phase
    return sfft.irfft(ahat, n=grid.Nx, axis=0, workers=FFT_WORKERS)


def _advect_v(a, grid, efield, tau):
    """a(x, v1, j) <- a(x, v1 + E(x) tau, j): the acceleration kick, spectral in v1."""
    n = grid.vaxes[0].n
    eta = 2.0 * np.pi * sfft.rfftfreq(n, d=grid.vaxes[0].h)
    ahat = sfft.rfft(a, axis=1, workers=FFT_WORKERS)
    # e^{i theta} written as cos + i sin: the same bits as complex exp, faster
    theta = np.multiply.outer(efield * tau, eta)  # dv/dt = -E
    kick = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=kick.real)
    np.sin(theta, out=kick.imag)
    ahat *= kick[:, :, None]
    return sfft.irfft(ahat, n=n, axis=1, workers=FFT_WORKERS)


def _blocks(rows, b):
    """(j, rows[j:j + _ROWS] @ b) over the row blocks, each product into one
    reused buffer, so a block is overwritten by the next (``np.dot``:
    ``matmul`` into ``out`` is 3x slower at rank 1)."""
    buf = np.empty((min(_ROWS, len(rows)), b.shape[1]))
    for j in range(0, len(rows), _ROWS):
        yield j, np.dot(rows[j:j + _ROWS], b, out=buf[:min(_ROWS, len(rows) - j)])


def _clip(rows, b, grid):
    """One pass over the row blocks of an output f = rows b: the mass that
    zeroing its negative part n adds (ValidationError above 1e-8), the rows
    + n b^T of the clipped state's projection onto b, and the squared span
    residual ||n (I - b^T b)||_F^2 = ||n||^2 - ||n b^T||^2 (orthonormal b)."""
    neg, resid, kept = 0.0, 0.0, rows
    for j, x in _blocks(rows, b):
        np.minimum(x, 0.0, out=x)  # -n
        block = float(x.sum())
        if block == 0.0:
            continue
        neg += block
        p = x @ b.T
        if kept is rows:
            kept = rows.copy()
        kept[j:j + _ROWS] -= p
        resid += float(np.vdot(x, x) - np.vdot(p, p))
    clipped = -neg * grid.dx * grid.cell_v
    if clipped > 1e-8:
        raise ValidationError(
            f"clipped mass {clipped:.2e} since the last output: resolution too low")
    return clipped, kept, max(resid, 0.0)


def _settle(a, b, grid):
    """(clipped mass, A, B, re-factored) of the output A b by the after-clip
    rule: the clip's projection onto b, or max(A b, 0) factored afresh."""
    clipped, kept, resid = _clip(a.reshape(-1, b.shape[0]), b, grid)
    if not clipped:
        return clipped, a, b, False
    sigma1 = math.sqrt(float(np.linalg.eigvalsh(kept.T @ kept)[-1]))
    if math.sqrt(resid) <= 1e-15 * sigma1:
        return clipped, kept.reshape(a.shape), b, False
    dense = SimState.dense(grid, SimState(grid, a, b, 0.0, 0.0).f)
    return (clipped,) + _factor(dense.a, dense.b, grid)[:2] + (True,)


def step(state):
    """One Strang step (x half, Poisson, v kick, x half): the unfused reference
    for ``run``, settled by the same after-clip rule (``_settle``)."""
    g, b = state.grid, state.b
    half = _x_phase(g, 0.5 * g.dt)
    a = _advect_x(state.a, g, half)
    a = _advect_x(_advect_v(a, g, SimState(g, a, b, 0.0, 0.0).efield(), g.dt), g, half)
    clipped, a, b, _ = _settle(a, b, g)
    return SimState(g, a, b, state.time + g.dt, state.clipped_mass + clipped)


def reverse_velocity(state):
    """Conjugation v1 -> -v1 (time-reversal test companion)."""
    a = np.roll(state.a[:, ::-1], 1, axis=1)
    return SimState(state.grid, a, state.b, state.time, state.clipped_mass)


@dataclass
class RunLog:
    """Per-step midpoint diagnostics plus factored output snapshots, the
    transverse rank of each output and the fresh SVDs after the first."""

    t_mid: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    momentum: list = field(default_factory=list)
    kinetic: list = field(default_factory=list)
    e_l2sq: list = field(default_factory=list)
    e_hs: list = field(default_factory=list)
    je: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)
    ranks: list = field(default_factory=list)
    refactors: int = 0

    def arrays(self):
        return {k: np.asarray(getattr(self, k))
                for k in ("t_mid", "mass", "kinetic", "e_l2sq", "e_hs", "je",
                          "energy")}


def _e_sobolev_sq(efield, T1, s):
    """||E||_{H^s}^2 on the torus, by Parseval from (1 + k^2)^(s/2) E."""
    h = T1 / len(efield)
    smooth = fourier_multiplier(efield, (h,), (0,), lambda k: (1.0 + k ** 2) ** (s / 2.0))
    return float(h * np.sum(smooth ** 2))


def run(state, n_steps, output_every=None, s_sobolev=1.5, diagnostics_every=1):
    """Fused production loop on the transverse factors; returns (last output, RunLog).

    The state's factors are compressed once (``_factor``).  Midpoint
    diagnostics (mass, momenta, energy, field norms, the current-field
    pairing) are recorded every ``diagnostics_every`` steps; outputs, each a
    ``SimState``, every ``output_every`` steps (default n_steps // 64) and at
    the last step.  Raises ValidationError, before any work, when n_steps,
    diagnostics_every or output_every (if given) is not an integer >= 1.
    """
    g = state.grid
    require("an integer", (("n_steps", n_steps),))
    if n_steps < 1:
        raise ValidationError(
            f"n_steps = {n_steps}: no step of dt = {g.dt:g} is taken "
            f"(a t_end below dt/2 = {0.5 * g.dt:g} rounds to zero steps)")
    require("an integer >= 1", (("diagnostics_every", diagnostics_every),
                                ("output_every", 1 if output_every is None else output_every)))
    log = RunLog()
    out_every = output_every or max(1, n_steps // 64)
    half, full = _x_phase(g, 0.5 * g.dt), _x_phase(g, g.dt)

    a, b, w = _factor(state.a, state.b, g)
    a = _advect_x(a, g, half)
    clipped_mass = state.clipped_mass
    for i in range(n_steps):
        rho, j1, mass, mom, kin = _moments(a, w, g)
        e = poisson_solve(rho, g.T1)

        # midpoint diagnostics (x-advection leaves all of them invariant)
        if i % diagnostics_every == 0:
            el2 = float(np.sum(e ** 2)) * g.dx
            log.t_mid.append(state.time + (i + 0.5) * g.dt)
            log.mass.append(mass)
            log.momentum.append(mom)
            log.kinetic.append(kin)
            log.e_l2sq.append(el2)
            log.e_hs.append(math.sqrt(_e_sobolev_sq(e, g.T1, s_sobolev)))
            log.je.append(float(np.sum(j1 * e)) * g.dx)
            log.energy.append(kin + el2)

        a = _advect_v(a, g, e, g.dt)
        last = i == n_steps - 1
        if last or (i + 1) % out_every == 0:
            a = _advect_x(a, g, half)
            if last:
                clipped = _clip(a.reshape(-1, a.shape[2]), b, g)[0]
            else:
                clipped, a_next, b_next, fresh = _settle(a, b, g)
            clipped_mass += clipped
            snap = SimState(g, a, b, state.time + (i + 1) * g.dt, clipped_mass)
            log.snapshots[round(snap.time, 12)] = snap
            log.ranks.append(b.shape[0])
            if last:
                break
            if fresh:
                w = b_next @ _transverse_table(g)
                log.refactors += 1
            a, b = _advect_x(a_next, g, half), b_next
        else:
            a = _advect_x(a, g, full)
    return snap, log


def sample_profile(profile, grid):
    """Homogeneous initial state f(x, v) = f0(v) on the phase grid."""
    vals = profile.values
    if grid.vgrid is None or vals.shape != grid.vgrid.shape:
        raise ValidationError("profile grid does not match the phase grid")
    return SimState.dense(grid, np.broadcast_to(vals[None, ...], grid.shape).copy())


def perturb_cosine(state, amplitude, mode=1):
    """Single-mode multiplicative perturbation (1 + a cos(k x)) f."""
    g = state.grid
    cosx = np.cos(2.0 * np.pi * mode * g.x / g.T1)[:, None, None]
    a = state.a + amplitude * cosx * state.a
    return SimState(g, a, state.b, state.time, state.clipped_mass)


def comoving_compare(state, reference, c):
    """max |f(t, x + c t) - f_ref| of a state f = max(A B, 0) against
    a factored reference f_ref = A_ref B_ref, clipped and compared in place
    over the row blocks; the spectral frame shift acts on A alone."""
    g, a = state.grid, state.a
    if c != 0.0:
        a = _advect_x(a, g, np.exp(1j * g.kx * (c * state.time))[:, None, None])
    worst = 0.0
    for (_, x), (_, y) in zip(_blocks(a.reshape(-1, a.shape[2]), state.b),
                              _blocks(reference.a.reshape(-1, reference.a.shape[2]),
                                      reference.b)):
        np.maximum(x, 0.0, out=x)
        x -= y
        worst = max(worst, float(x.max()), -float(x.min()))
    return worst


@dataclass
class SteadinessReport:
    drift_f_max: float
    drift_e_l2: float
    model_drift: float
    flagged: bool
    resolved: bool
    times: np.ndarray
    drift_series: np.ndarray
    log: RunLog


def run_bgk_steadiness(wave, grid, t_end, output_every_t=0.5, diagnostics_every=5):
    """Evolve a sampled travelling wave and report the worst drift.

    Boosted waves are compared in the co-moving frame.  The drift is
    flagged when it exceeds ten times the second-order splitting-error
    model dt^2 T_end max|E| vmax.  ``resolved`` is false when a sub-grid,
    sub-roundoff feature was let through: the sampled state is then the
    homogeneous background, and the drift says nothing about the wave.
    Raises ValidationError on a non-finite or non-positive t_end or
    output_every_t, before the wave is sampled.
    """
    require("finite and positive", (("t_end", t_end), ("output_every_t", output_every_t)))
    resolved = True
    width = wave.mp.bump_width
    if width is not None and width < 2.0 * grid.vaxes[0].h:
        # reject only when the unresolvable feature would matter (its peak above 1e-6 of the
        # largest, bump included): sub-roundoff features sample as an exact homogeneous background
        peak, f_scale = (max(t.weight * t.even_val(np.array([t.mean[0] ** 2]))[0]
                             for t in m.even_part().terms)
                         for m in (wave.mp.bump, wave.mp.mixture))
        if peak > 1e-6 * f_scale:
            raise UnresolvableBumpError(
                f"wave feature width {width:.3g} below the grid resolution "
                f"{grid.vaxes[0].h:.3g}; the sampled state would misrepresent it")
        resolved = False
    v2 = grid.vaxes[1].axis() if len(grid.vaxes) == 2 else None
    state = SimState(grid, *wave.sample_factors(grid.x, grid.vaxes[0].axis(), v2), 0.0, 0.0)
    e0 = state.efield()
    n_steps = int(round(t_end / grid.dt))
    out_every = max(1, int(round(output_every_t / grid.dt)))
    final, log = run(state, n_steps, output_every=out_every,
                     diagnostics_every=diagnostics_every)
    drifts, times = [], []
    for t_snap, snap in sorted(log.snapshots.items()):
        drifts.append(comoving_compare(snap, state, wave.c))
        times.append(t_snap)
    e_end = final.efield()
    drift_e = math.sqrt(float(np.sum((e_end - e0) ** 2)) * grid.dx)
    model = grid.dt ** 2 * t_end * max(float(np.max(np.abs(e0))), 1e-13) * \
        grid.vaxes[0].vmax
    worst = max(drifts)
    return SteadinessReport(worst, drift_e, model, worst > 10 * model, resolved,
                            np.asarray(times), np.asarray(drifts), log)


@dataclass
class DecayReport:
    e_l2: np.ndarray
    t: np.ndarray
    weighted_integral_half: float
    weighted_integral_full: float
    growth_fraction: float
    final_over_max: float
    identity_residual: float
    perturbation_norm: float
    mass_drift_per_step: float
    energy_drift_rel: float
    log: RunLog


def check_axis_stability(profile, T1):
    """Penrose margin for modes along x1 only (the solver's field direction).

    The margin grows with |k|^2 along a line, so the smallest mode decides.
    """
    fp = project(profile, (1.0,) + (0.0,) * (profile.grid.dim - 1))
    k2min = (2.0 * math.pi / T1) ** 2
    return margin_ok(k2min - max(critical_pv(fp)[1], default=-math.inf), k2min)


def run_decay_experiment(profile, grid, amplitude, s_x, s_v, b, t_end, mode=1):
    """Single-mode perturbation of a Penrose-stable profile, decay diagnostics.

    The perturbation is additive, amplitude cos(k x) f0(v).  Raises
    PenroseUnstableError when the profile fails the axis stability check.
    Reports the weighted space-time integral at T_end/2 and T_end,
    the late-time field fraction, and the worst residual of the power
    identity d/dt ||E||^2 = 2 int j E dx over the midpoint series.
    Also reports the largest per-step mass change and the relative energy
    drift, which callers compare with MASS_TOL_PER_STEP and ENERGY_REL_TOL.
    Raises ValidationError when t_end / dt rounds to fewer than 5 steps,
    on a non-finite t_end or amplitude, and on a mode that is not an
    integer >= 1.
    """
    require("finite", (("t_end", t_end), ("amplitude", amplitude)))
    require("an integer >= 1", (("mode", mode),))
    n_steps = int(round(t_end / grid.dt))
    if n_steps < 5:
        raise ValidationError(
            f"n_steps = {n_steps}: t_end = {t_end:g} at dt = {grid.dt:g} gives "
            "fewer than the 5 midpoints the power-identity residual needs")
    if not check_axis_stability(profile, grid.T1):
        raise PenroseUnstableError("profile fails the Penrose condition; "
                                   "decay experiment refused")
    hom = sample_profile(profile, grid)
    state = perturb_cosine(hom, amplitude, mode=mode)
    pert_norm = mixed_norm(state.f - hom.f, (grid.T1,), grid.vgrid, s_x, s_v, b)

    final, log = run(state, n_steps, output_every=max(1, n_steps),
                     s_sobolev=1.5 + s_x)
    t = np.asarray(log.t_mid)
    el2 = np.asarray(log.e_l2sq)
    ehs = np.asarray(log.e_hs)

    weight = (1.0 + t) ** (2.0 * (s_v - 1.0))
    integrand = weight * ehs ** 2
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))])
    half = float(np.interp(t_end / 2.0, t, cum))
    full = float(cum[-1])
    growth = (full - half) / max(half, 1e-300)

    dE2 = np.gradient(el2, t)
    resid = np.abs(dE2 - 2.0 * np.asarray(log.je))
    e_norm = np.sqrt(el2)
    energy = np.asarray(log.energy)
    return DecayReport(
        e_l2=e_norm, t=t,
        weighted_integral_half=half, weighted_integral_full=full,
        growth_fraction=growth,
        final_over_max=float(e_norm[-1] / max(e_norm.max(), 1e-300)),
        identity_residual=float(np.max(resid[2:-2])),
        perturbation_norm=pert_norm,
        mass_drift_per_step=float(np.max(np.abs(np.diff(log.mass)))),
        energy_drift_rel=float(np.max(np.abs(energy - energy[0])) / energy[0]), log=log)
