"""Construction of small-amplitude 1D BGK travelling waves.

The pipeline follows the bifurcation route: continue the base profile
evenly in the energy variable y = v1^2, add a scaled modification
that turns the origin of beta'' = h(beta) into a center, select the orbit
with prescribed H^2 amplitude, and match the spatial period by adjusting
the modification scale.

Everything that feeds the ODE right-hand side is evaluated in the
cancellation-free mean-value form

    h(beta) = -2 beta * int_0^1 [ int d/dy f(v1^2 - 2 beta s) dv1 ] ds,

which stays numerically exact down to amplitudes at the roundoff floor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft

from .errors import (
    AmplitudeTooLargeError,
    BracketError,
    RegularityError,
    ValidationError,
)
from .profiles import GaussianMixture, GaussianPairTerm, Profile

SQRT2PI = math.sqrt(2.0 * math.pi)
# relative tolerance of the matched period |T - T1| <= PERIOD_TOL_REL T1
PERIOD_TOL_REL = 1e-9
# ceiling on the reduced field equation residual max |beta'' - h(beta)|
POISSON_RESIDUAL_TOL = 1e-7

# ---------------------------------------------------------------------------
# case selection and the modified profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaseSelection:
    case: int
    diagnostic: float
    d_integral: float
    omega1_sq: float


def select_case(f1, T1):
    """Branch on the sign of D = int d_v1 f1 / v1 dv - (2 pi / T1)^2."""
    om2 = (2.0 * math.pi / T1) ** 2
    d_int = f1.closure.pv_d_integral()
    diag = d_int - om2
    if abs(diag) <= 1e-9 * om2:
        case = 3
    elif diag < 0:
        case = 1
    else:
        case = 2
    return CaseSelection(case, diag, d_int, om2)


@dataclass
class ModifiedProfile:
    """Base profile with the scaling modification applied (cases 1-3)."""

    f1: Profile
    gamma: float
    delta: float
    case: int
    C0: float
    v0: float
    mixture: GaussianMixture

    def as_profile(self):
        return Profile.from_closure(
            self.f1.grid, self.mixture,
            meta={"provenance": "modified", "gamma": self.gamma,
                  "delta": self.delta, "case": self.case},
        )

    def mass(self):
        return self.mixture.mass()

    def pv_d_integral(self):
        return self.mixture.pv_d_integral()

    @property
    def bump_width(self):
        """v1 width of the added feature (gamma*delta for cases 1-2)."""
        if self.case == 3:
            return None
        return self.gamma * self.delta


def build_modified(f1, gamma, delta, case, v0=3.0):
    """Modified homogeneous profile for the bifurcation.

    Cases 1 and 2 add the narrow feature (gamma/delta) F1(v1/(gamma delta))
    F2(v2) and renormalise by 1 + C0 gamma^2; case 3 rescales v1 by delta.
    The closure carries features far below the grid resolution exactly.
    """
    if case == 3:
        if delta <= 0:
            raise ValidationError("case-3 scale must be positive")
        mix = f1.closure.scaled_v1(delta)
        return ModifiedProfile(f1, 0.0, float(delta), 3, 0.0, 0.0, mix)

    if gamma <= 0 or delta <= 0:
        raise ValidationError("gamma and delta must be positive")
    lam = gamma * delta
    if case == 1:
        if v0 is None or v0 <= 0:
            raise ValidationError("case 1 needs the bump offset v0 > 0")
        probe = GaussianPairTerm(1.0, v0, 1.0, ())
        if probe.pv_d_integral() <= 0:
            raise ValidationError(
                f"v0={v0} gives a nonpositive bump PV integral; increase v0"
            )
        bump_v0 = v0
    elif case == 2:
        bump_v0 = 0.0
        v0 = 0.0
    else:
        raise ValidationError(f"unknown case {case}")

    dim = f1.grid.dim
    # unnormalised F1 x F2 mass: int F1 = 2 w1 sqrt(2pi) per pair with w1=lam,
    # against unit-width transverse gaussians (int F2 = sqrt(2pi) each)
    c0 = 2.0 * SQRT2PI * SQRT2PI ** (dim - 1)
    bump_mass = gamma ** 2 * c0
    bump = GaussianMixture(dim, [
        GaussianPairTerm(bump_mass, lam * bump_v0, lam, (1.0,) * (dim - 1))
    ])
    mix = f1.closure.plus(bump).reweighted(1.0 / (1.0 + c0 * gamma ** 2))
    return ModifiedProfile(f1, float(gamma), float(delta), case, c0, float(v0), mix)


# ---------------------------------------------------------------------------
# the bifurcation right-hand side h(beta)
# ---------------------------------------------------------------------------

# unit-width tables: shifts |c| <= 9 (the u-grid reaches (a + 10)^2 - (a + 8)^2
# >= 36, and e^{|c|/2} of the even continuation stays tame), Taylor radius 2
_C_OK, _RHO = 9.0, 2.0


@functools.lru_cache(maxsize=64)
def _unit_kernel(a):
    """Tables of K for the unit-weight, unit-width pair term with offset a.

    Returns the Chebyshev antiderivatives P, Q of K and of the series
    product c K(c) on [-_C_OK, _C_OK] (K is sampled once), and the scaled
    Taylor coefficients of K(_RHO chat) = sum k_hat_m chat^m.
    """
    n_cheb, n_taylor = 256, 56
    t = GaussianPairTerm(1.0, a, 1.0, ())
    cheb = np.polynomial.chebyshev.Chebyshev
    u = np.linspace(0.0, a + 10.0, 2049)

    def kfun(c):
        c = np.atleast_1d(c)
        y = u[None, :] ** 2 - c[:, None]
        return 2.0 * np.trapezoid(t.even_dval(y.ravel()).reshape(y.shape), u, axis=1)

    kc = cheb.interpolate(kfun, n_cheb, domain=[-_C_OK, _C_OK])
    qc = kc * cheb.identity(domain=[-_C_OK, _C_OK])

    # Taylor coefficients of K at 0 by a Cauchy-integral FFT; K is entire,
    # so this gives relative accuracy at arbitrarily small shifts where the
    # Chebyshev floor would dominate
    m = 2 * n_taylor
    circ = _RHO * np.exp(2j * np.pi * np.arange(m) / m)
    y = u[None, :] ** 2 - circ[:, None]
    kvals = 2.0 * np.trapezoid(t.even_dval_complex(y.ravel()).reshape(y.shape), u, axis=1)
    k_hat = (np.fft.fft(kvals) / m)[:n_taylor].real
    k_hat.flags.writeable = False  # shared by every caller of the cache
    return kc.integ(lbnd=0.0), qc.integ(lbnd=0.0), k_hat


class BifurcationH:
    """Callable h(beta) = int f^beta dv - 1, exact down to roundoff amplitudes.

    Built on the density-response kernel K(c) = int_R A'(u^2 - c) du of each
    mixture term, for which exactly

        h(beta) = -int_0^{2 beta} K(c) dc,
        V(beta) = -int_0^beta h = int_0^{2 beta} K(c) (beta - c/2) dc.

    A pair term of weight W, width w and offset ratio a = v0/w has
    K(c) = (W/w^2) K_a(c/w^2), so one cached Chebyshev/Taylor table of the
    unit kernel K_a serves every term, delta and gamma with that ratio.
    Series algebra on the tables gives h, V and h': cancellation-free,
    h(0) = 0 identically, cheap enough for orbit quadratures.
    """

    def __init__(self, mp):
        self.mp = mp
        # per term: the unit tables P, Q, the weight, width^2, the Taylor
        # radius and the scaled Taylor vectors of h and V; the ratio is rounded
        # to 14 digits so that float ratios like (3 lam)/lam share one table
        self._terms = []
        for t in mp.mixture.terms:
            P, Q, k_unit = _unit_kernel(float(f"{t.v0 / t.w1:.14g}"))
            w2 = t.w1 ** 2
            k_hat = (t.weight / w2) * k_unit
            mm = np.arange(len(k_hat))
            self._terms.append((P, Q, t.weight, w2, w2 * _RHO, k_hat / (mm + 1),
                                k_hat / (2.0 * (mm + 1) * (mm + 2))))
        self.c_admissible = _C_OK * min(t.w1 ** 2 for t in mp.mixture.terms)

    def hprime0(self):
        return -self.mp.pv_d_integral()

    def _guard(self, b):
        cmax = 2.0 * float(np.max(np.abs(b))) if b.size else 0.0
        if cmax > self.c_admissible:
            raise AmplitudeTooLargeError(
                f"|beta| reaches {cmax / 2:.3e}, beyond the admissible range "
                f"{self.c_admissible / 2:.3e} of the narrowest feature"
            )

    def _accumulate(self, b, mode):
        """Sum the per-term inner (Taylor) / outer (Chebyshev) evaluations.

        With c = 2 beta:  h = -sum_m k_m c^{m+1}/(m+1)
                          V =  sum_m k_m c^{m+2}/(2 (m+1)(m+2)),
        and in the outer zone P(c) = W P_a(c/w^2), Q(c) = W w^2 Q_a(c/w^2).
        """
        out = np.zeros_like(b)
        c = 2.0 * b
        for P, Q, weight, w2, rho, k_h, k_v in self._terms:
            inner = np.abs(c) <= 0.45 * rho
            outer = ~inner
            if np.any(inner):
                ch = c[inner] / rho
                # chat^1 .. chat^56 as a running product, one multiply per entry
                powers = np.cumprod(np.broadcast_to(ch[:, None], (len(ch), len(k_h))), axis=1)
                if mode == "h":
                    out[inner] -= rho * (powers @ k_h)
                else:
                    out[inner] += rho ** 2 * ((powers * ch[:, None]) @ k_v)
            if np.any(outer):
                co = c[outer]
                pc = weight * P(co / w2)
                if mode == "h":
                    out[outer] -= pc
                else:
                    out[outer] += 0.5 * co * pc - 0.5 * weight * w2 * Q(co / w2)
        return out

    def _evaluate(self, beta, mode):
        beta = np.asarray(beta, dtype=float)
        b = np.atleast_1d(beta).ravel()
        self._guard(b)
        out = self._accumulate(b, mode)
        return float(out[0]) if beta.ndim == 0 else out.reshape(beta.shape)

    def __call__(self, beta):
        return self._evaluate(beta, "h")

    def potential(self, beta):
        """ODE potential V(beta) = -int_0^beta h, scale-free in amplitude."""
        return self._evaluate(beta, "V")


def make_h(mp):
    return BifurcationH(mp)


def hprime0_centered(h, scale=1e-6):
    """Centered-difference h'(0) at a step matched to the feature scale."""
    return (h(scale) - h(-scale)) / (2.0 * scale)


# ---------------------------------------------------------------------------
# periodic orbits of beta'' = h(beta)
# ---------------------------------------------------------------------------

@dataclass
class OrbitSolution:
    period: float
    energy: float
    beta_plus: float
    beta_minus: float
    r: float
    omega0: float
    h: BifurcationH = field(repr=False)

    def sample(self, n):
        """Uniform samples of beta over one period, maximum at x = 0."""
        from scipy.integrate import solve_ivp

        scale = max(abs(self.beta_plus), abs(self.beta_minus))

        def rhs(x, yv):
            return [yv[1], self.h(yv[0])]

        xs = np.linspace(0.0, self.period, n, endpoint=False)
        sol = solve_ivp(
            rhs, (0.0, self.period), [self.beta_plus, 0.0], t_eval=xs,
            method="DOP853", rtol=1e-13, atol=1e-16 * scale, max_step=self.period / 16,
        )
        if not sol.success:
            raise AmplitudeTooLargeError("orbit integration failed: " + sol.message)
        return xs, sol.y[0]


def periodic_orbit(h, r):
    """Periodic solution of beta'' = h(beta) with H^2 amplitude r over one period.

    The energy level is selected by a secant iteration; the period and the
    norm integrals use the turning-point-regularised quadrature

        T = sqrt(2) * int dtheta / sqrt(G),  G = (E - V) / (rho cos theta)^2,

    which is smooth through the turning points.  h supplies h(beta),
    h.hprime0() and h.potential(beta) = -int_0^beta h.  Leaving the center
    basin (V losing convexity before the turning point) raises
    AmplitudeTooLargeError.
    """
    hp0 = h.hprime0()
    if not hp0 < 0:
        raise ValidationError(f"h'(0) = {hp0:.3e} is not negative: no center at 0")
    om = math.sqrt(-hp0)
    V = h.potential

    theta, th_w = np.polynomial.legendre.leggauss(128)
    theta = theta * (math.pi / 2.0)
    th_w = th_w * (math.pi / 2.0)
    sin_t, cos_t = np.sin(theta), np.cos(theta)

    def orbit_at(energy):
        bp = _turning_point(V, h, om, energy, +1)
        bm = _turning_point(V, h, om, energy, -1)
        mid, rho = 0.5 * (bp + bm), 0.5 * (bp - bm)
        b_theta = mid + rho * sin_t
        G = (energy - V(b_theta)) / (rho * cos_t) ** 2
        if np.any(G <= 0):
            raise AmplitudeTooLargeError("potential not convex inside the orbit")
        invsq = 1.0 / np.sqrt(G)
        T = math.sqrt(2.0) * float(th_w @ invsq)
        int_b2 = math.sqrt(2.0) * float(th_w @ (b_theta ** 2 * invsq))
        int_db2 = 2.0 * math.sqrt(2.0) * rho ** 2 * float(th_w @ (cos_t ** 2 * np.sqrt(G)))
        hb = h(b_theta)
        int_d2b2 = math.sqrt(2.0) * float(th_w @ (hb ** 2 * invsq))
        r_h2 = math.sqrt(int_b2 + int_db2 + int_d2b2)
        return T, r_h2, bp, bm

    # secant on log energy against log r; transient overshoots past the
    # basin edge are backtracked toward the last valid energy
    e0 = 0.5 * (om * r / math.sqrt((1 + om ** 2 + om ** 4) * math.pi / om)) ** 2
    e_prev, e_cur = e0, e0 * 1.05
    T_p, r_p, *_ = orbit_at(e_prev)
    for _ in range(80):
        try:
            T_c, r_c, bp, bm = orbit_at(e_cur)
        except AmplitudeTooLargeError:
            for _back in range(12):
                e_cur = math.sqrt(e_cur * e_prev)
                try:
                    T_c, r_c, bp, bm = orbit_at(e_cur)
                    break
                except AmplitudeTooLargeError:
                    continue
            else:
                raise
        if abs(r_c - r) <= 1e-12 * r:
            return OrbitSolution(T_c, e_cur, bp, bm, r_c, om, h)
        d = math.log(r_c) - math.log(r_p)
        if d == 0:
            raise AmplitudeTooLargeError("amplitude iteration stalled")
        step = (math.log(r) - math.log(r_c)) * (math.log(e_cur) - math.log(e_prev)) / d
        e_prev, r_p = e_cur, r_c
        e_cur = math.exp(math.log(e_cur) + float(np.clip(step, -2.0, 2.0)))
    raise AmplitudeTooLargeError(f"H^2 amplitude {r} not reached in iteration budget")


def _turning_point(V, h, om, energy, sign):
    """Root of V = E on one side of 0, with center-basin monotonicity checks."""
    from scipy.optimize import brentq

    b = sign * math.sqrt(2.0 * energy) / om

    def Vm(x):
        return float(V(x)) - energy

    for _ in range(200):
        if Vm(b) > 0:
            root = brentq(Vm, min(0.0, b), max(0.0, b), xtol=1e-300, rtol=1e-15)
            probes = np.linspace(0.1 * root, root, 24)
            if np.any(h(probes) * np.sign(root) > 0):
                raise AmplitudeTooLargeError(
                    "potential loses convexity before the turning point"
                )
            return root
        if np.any(h(np.linspace(0.1 * b, b, 24)) * sign > 0):
            raise AmplitudeTooLargeError(
                "potential loses convexity before the turning point"
            )
        b *= 1.5
    raise AmplitudeTooLargeError("no turning point found: orbit escapes")


# ---------------------------------------------------------------------------
# the assembled travelling wave
# ---------------------------------------------------------------------------

@dataclass
class BgkWave:
    """Travelling-wave state: periodic potential, field, and phase-space closure.

    The distribution depends on (x1, v1) only through the co-moving energy
    e = (v1-c)^2/2 - beta(x1) and the sign of v1-c, so it is constant along
    characteristics by construction.
    """

    dim: int
    T1: float
    c: float
    x1: np.ndarray
    beta: np.ndarray
    efield: np.ndarray
    amplitude: float
    case: int
    provenance: dict
    mp: ModifiedProfile = field(repr=False, default=None)
    h: BifurcationH = field(repr=False, default=None)

    def __post_init__(self):
        n = len(self.beta)
        coef = sfft.rfft(self.beta) / n
        coef[1:(n + 1) // 2] *= 2.0  # each interior mode stands for its conjugate too
        self._coef = coef
        self._k = 2.0 * np.pi * np.arange(len(coef)) / self.T1

    def beta_at(self, x):
        """Trigonometric interpolation of the potential (spectrally accurate)."""
        phases = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float), self._k))
        return (phases * self._coef).real.sum(axis=-1)

    def f_eval(self, x, v1, *trans):
        """Distribution at t = 0 on broadcastable coordinate arrays."""
        b = self.beta_at(np.asarray(x, dtype=float))
        u = np.asarray(v1, dtype=float) - self.c
        y = u ** 2 - 2.0 * b
        out = None
        for t in self.mp.mixture.terms:
            a = t.weight * t.even_val(np.asarray(y, dtype=float).ravel()).reshape(np.shape(y))
            tv = 1.0
            for w, pts in zip(t.wt, trans):
                tv = tv * np.exp(-np.asarray(pts) ** 2 / (2 * w ** 2)) / (w * SQRT2PI)
            term = a * tv
            out = term if out is None else out + term
        return out

    def sample_phase_space(self, x, v1, *trans_axes):
        """Tensor-grid samples f[x, v1, w...] for the nonlinear solver."""
        return self.f_eval(*np.ix_(x, v1, *trans_axes))

    def _beta2(self):
        n = len(self.beta)
        k = 2.0 * np.pi * sfft.rfftfreq(n, d=self.T1 / n)
        return sfft.irfft(-(k ** 2) * sfft.rfft(self.beta), n=n)

    def poisson_residual(self):
        """max |beta'' - h(beta)| on the sample grid (the reduced field equation)."""
        return float(np.max(np.abs(self._beta2() - self.h(self.beta))))

    def relative_poisson_residual(self):
        """max |beta'' - h(beta)| / max |beta''|: the residual at the wave's own
        scale, which the absolute one cannot see for roundoff-scale waves."""
        b2 = self._beta2()
        return float(np.max(np.abs(b2 - self.h(self.beta))) / np.max(np.abs(b2)))

    def min_distribution_value(self):
        xs = np.linspace(0.0, self.T1, 64, endpoint=False)
        vmax = max(t.v0 + 6 * t.w1 for t in self.mp.mixture.terms)
        vs = np.linspace(-vmax, vmax, 513) + self.c
        vals = self.sample_phase_space(
            xs, vs, *([np.linspace(-4, 4, 17)] * (self.dim - 1)))
        return float(np.min(vals))

    def count_maxima(self):
        b = self.beta
        up = np.roll(b, 1) < b
        down = np.roll(b, -1) < b
        return int(np.sum(up & down))


def galilean_boost(wave, c):
    """Boost to travel speed wave.c + c; the field is unchanged in the co-moving frame."""
    prov = dict(wave.provenance)
    prov["boosted_by"] = prov.get("boosted_by", 0.0) + float(c)
    return BgkWave(
        wave.dim, wave.T1, wave.c + float(c), wave.x1.copy(), wave.beta.copy(),
        wave.efield.copy(), wave.amplitude, wave.case, prov, wave.mp, wave.h,
    )


# ---------------------------------------------------------------------------
# period matching
# ---------------------------------------------------------------------------

def _seed_delta(f1, T1, gamma, case, v0):
    """Root of the analytic small-r period condition D(delta) = (2 pi/T1)^2."""
    om2 = (2.0 * math.pi / T1) ** 2
    d1 = f1.closure.pv_d_integral()
    if case == 3:
        if d1 <= 0:
            raise ValidationError("case 3 requires a positive base PV integral")
        return math.sqrt(d1 / om2)
    dim = f1.grid.dim
    c0 = 2.0 * SQRT2PI * SQRT2PI ** (dim - 1)
    dunit = GaussianPairTerm(1.0, v0 if case == 1 else 0.0, 1.0, ()).pv_d_integral()
    denom = (1.0 + c0 * gamma ** 2) * om2 - d1
    val = c0 * dunit / denom
    if val <= 0:
        raise BracketError(T1, math.nan, math.nan)
    return math.sqrt(val)


def _false_position(fun, lo, hi, f_lo, f_hi, tol):
    """Illinois false position for fun(x) = 0 on a bracket with a sign change.

    Each new point is the secant through the bracket ends; the bracket
    always keeps its sign change, and the residual of an end kept twice in
    a row is halved (Dowell & Jarratt, BIT 11 (1971) 168), which makes the
    convergence superlinear.  Returns (x, brackets): the first point with
    |fun(x)| <= tol, or None after 300 steps, and the bracket (lo, hi)
    before each step.
    """
    brackets = [(lo, hi)]
    kept = 0  # the end the previous step kept: -1 lo, +1 hi
    for _ in range(300):
        mid = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f_mid = fun(mid)
        if abs(f_mid) <= tol:
            return mid, brackets
        if f_mid * f_lo < 0:
            hi, f_hi = mid, f_mid
            if kept < 0:
                f_lo *= 0.5
            kept = -1
        else:
            lo, f_lo = mid, f_mid
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        brackets.append((lo, hi))
    return None, brackets


def match_period(f1, T1, gamma, r, case=None, v0=3.0, delta_bracket=None, c=0.0):
    """Illinois false position on the modification scale until the orbit
    period equals T1 to PERIOD_TOL_REL.

    Returns (delta, BgkWave), the wave sampled at 1024 points per period.
    The bracket must satisfy the period inequality at its endpoints;
    otherwise the last AmplitudeTooLargeError of an endpoint is raised, or
    BracketError reports both endpoint periods.
    ``provenance["bisection_widths"]`` is the bracket width after each step;
    it never grows.  The trapped depth 2 max|beta| must stay inside the
    decomposition window a^2 = 1/4, and the reduced field equation residual
    below POISSON_RESIDUAL_TOL.
    """
    if case is None:
        case = select_case(f1, T1).case

    cache = {}

    def at(delta):
        if delta not in cache:
            mp = build_modified(f1, gamma, delta, case, v0=v0)
            h = make_h(mp)
            orb = periodic_orbit(h, r)
            cache[delta] = (mp, h, orb)
            if len(cache) > 8:
                cache.pop(next(iter(cache)))
        return cache[delta]

    if delta_bracket is None:
        d_star = _seed_delta(f1, T1, gamma, case, v0)
        lo, hi = 0.8 * d_star, 1.25 * d_star
    else:
        lo, hi = delta_bracket

    refusals = []

    def period_or_nan(delta):
        try:
            return at(delta)[2].period
        except ValidationError:
            return math.nan
        except AmplitudeTooLargeError as exc:
            refusals.append(exc)
            return math.nan

    for _ in range(3):
        t_lo = period_or_nan(lo)
        t_hi = period_or_nan(hi)
        if (t_lo - T1) * (t_hi - T1) < 0:
            break
        lo, hi = lo / 1.4, hi * 1.4
    else:
        # an amplitude refusal carries |beta| and the admissible range
        if refusals:
            raise refusals[-1]
        raise BracketError(T1, t_lo, t_hi)

    mid, brackets = _false_position(lambda d: at(d)[2].period - T1, lo, hi,
                                    t_lo - T1, t_hi - T1, PERIOD_TOL_REL * T1)
    if mid is None:
        raise BracketError(T1, t_lo, t_hi)
    widths = [b - a for a, b in brackets]

    mp, h, orb = at(mid)
    if 2.0 * max(abs(orb.beta_plus), abs(orb.beta_minus)) > 0.25:
        raise AmplitudeTooLargeError(
            "trapped region deeper than the decomposition window a^2; reduce r"
        )
    xs, beta = orb.sample(1024)
    n = len(beta)
    k = 2.0 * np.pi * sfft.rfftfreq(n, d=T1 / n)
    efield = sfft.irfft(-1j * k * sfft.rfft(beta), n=n)

    wave = BgkWave(
        dim=f1.grid.dim, T1=float(T1), c=0.0, x1=xs, beta=beta, efield=efield,
        amplitude=orb.r, case=case,
        provenance={"gamma": gamma, "delta": mid, "r": orb.r, "case": case,
                    "v0": v0, "bisection_widths": widths},
        mp=mp, h=h,
    )
    if wave.count_maxima() != 1:
        raise ValidationError("constructed potential is not of minimal period")
    if float(np.max(np.abs(efield))) < 0.1 * orb.r / T1:
        raise ValidationError("field amplitude below the harmonic-limit floor")
    resid = wave.poisson_residual()
    if resid > POISSON_RESIDUAL_TOL:
        raise ValidationError(
            f"reduced field equation residual {resid:.2e} exceeds {POISSON_RESIDUAL_TOL:g}")
    if c != 0.0:
        wave = galilean_boost(wave, c)
    return mid, wave


# ---------------------------------------------------------------------------
# obstruction diagnostic: no truly multi-dimensional waves of this type
# ---------------------------------------------------------------------------

@dataclass
class ObstructionCertificate:
    gprime_max: float
    certificate: str | None
    grad_identity_lhs: float
    grad_identity_rhs: float
    elliptic_residual: float


def _g_of_beta(mu, beta):
    """g(beta) = 1 - 2 pi int_0^inf mu(u - beta) du for radial energy profiles.

    Large batches are served from a spline over the batch's beta-range, so
    the u-quadrature runs once per call rather than once per point.
    """
    from scipy.integrate import simpson

    beta = np.asarray(beta, dtype=float)
    u = np.linspace(0.0, 80.0, 16001)

    def direct(b_flat):
        vals = mu(u[None, :] - b_flat[:, None])
        return 1.0 - 2.0 * np.pi * simpson(vals, x=u, axis=1)

    flat = beta.ravel()
    if flat.size <= 512:
        return direct(flat).reshape(beta.shape)
    lo, hi = float(flat.min()), float(flat.max())
    if hi - lo < 1e-13:
        return np.full(beta.shape, direct(np.array([lo]))[0])
    from scipy.interpolate import make_interp_spline

    nodes = np.linspace(lo, hi, 257)
    spline = make_interp_spline(nodes, direct(nodes), k=3)
    return spline(flat).reshape(beta.shape)


def obstruction_diagnostic(mu, beta_candidate, periods):
    """Certify that a radial-energy ansatz on the 2-torus has only trivial fields.

    Checks mu >= 0, evaluates g'(beta) = -2 pi mu(-beta) on the candidate's
    range, and compares both sides of the gradient identity
    int |grad beta_x1|^2 = int g'(beta) |beta_x1|^2 <= 0.  A nonconstant
    candidate therefore cannot satisfy the field equation; the residual of
    -Lap beta = g(beta) is reported.
    """
    beta = np.asarray(beta_candidate, dtype=float)
    if beta.ndim != 2:
        raise ValidationError("candidate must live on a 2-torus grid")
    probes = np.linspace(-float(np.max(beta)) - 1.0, -float(np.min(beta)) + 1.0, 512)
    mu_vals = mu(probes)
    if np.min(mu_vals) < -1e-14:
        raise ValidationError("mu must be nonnegative")

    gprime = -2.0 * np.pi * mu(-beta)
    gp_max = float(np.max(gprime))

    nx, ny = beta.shape
    kx = 2.0 * np.pi * sfft.fftfreq(nx, d=periods[0] / nx)
    ky = 2.0 * np.pi * sfft.fftfreq(ny, d=periods[1] / ny)
    bhat = sfft.fft2(beta)
    bx = sfft.ifft2(1j * kx[:, None] * bhat).real
    bxx = sfft.ifft2(-(kx[:, None] ** 2) * bhat).real
    bxy = sfft.ifft2(1j * kx[:, None] * 1j * ky[None, :] * bhat).real
    lap = sfft.ifft2(-(kx[:, None] ** 2 + ky[None, :] ** 2) * bhat).real

    cell = (periods[0] / nx) * (periods[1] / ny)
    lhs = float(np.sum(bxx ** 2 + bxy ** 2) * cell)
    rhs = float(np.sum(gprime * bx ** 2) * cell)
    resid = float(np.max(np.abs(-lap - _g_of_beta(mu, beta))))

    cert = "only_trivial_solutions" if gp_max <= 0.0 else None
    return ObstructionCertificate(gp_max, cert, lhs, rhs, resid)


def obstruction_fixed_point(mu, periods, shape, beta0=None):
    """Solve -Lap beta = g(beta) on the 2-torus by a contracting split iteration.

    With g' <= 0 the map beta -> (m - Lap)^(-1)(m beta + g(beta)) contracts
    for m above |g'|; the unique solution is the constant root of g.
    """
    nx, ny = shape
    rng_beta = beta0 if beta0 is not None else np.zeros(shape)
    beta = np.asarray(rng_beta, dtype=float).copy()
    kx = 2.0 * np.pi * sfft.fftfreq(nx, d=periods[0] / nx)
    ky = 2.0 * np.pi * sfft.fftfreq(ny, d=periods[1] / ny)
    k2 = kx[:, None] ** 2 + ky[None, :] ** 2
    for _ in range(400):
        # shift just above |g'| on the currently visited range keeps the
        # map contracting without crushing the convergence rate
        probes = np.linspace(np.min(beta) - 0.5, np.max(beta) + 0.5, 64)
        m = 2.0 * np.pi * float(np.max(mu(-probes))) + 1.0
        rhs = m * beta + _g_of_beta(mu, beta)
        new = sfft.ifft2(sfft.fft2(rhs) / (m + k2)).real
        if float(np.max(np.abs(new - beta))) < 1e-13:
            beta = new
            break
        beta = new
    cell = (periods[0] / nx) * (periods[1] / ny)
    bhat = sfft.fft2(beta)
    gx = sfft.ifft2(1j * kx[:, None] * bhat).real
    gy = sfft.ifft2(1j * ky[None, :] * bhat).real
    grad_l2 = math.sqrt(float(np.sum(gx ** 2 + gy ** 2) * cell))
    return beta, grad_l2


def obstruction_1d_contrast(mu, beta_range):
    """1D analogue where g' has no sign certificate; reports observed signs."""
    betas = np.linspace(beta_range[0], beta_range[1], 512)
    v = np.linspace(-40.0, 40.0, 4001)
    # g(beta) = 1 - int mu(v^2/2 - beta) dv; differentiate under the integral
    eps = 1e-6 * max(1.0, beta_range[1] - beta_range[0])
    g_hi = 1.0 - np.trapezoid(mu(v[None, :] ** 2 / 2 - (betas[:, None] + eps)), v, axis=1)
    g_lo = 1.0 - np.trapezoid(mu(v[None, :] ** 2 / 2 - (betas[:, None] - eps)), v, axis=1)
    gprime = (g_hi - g_lo) / (2 * eps)
    return {
        "gprime": gprime,
        "betas": betas,
        "changes_sign": bool(np.min(gprime) < 0 < np.max(gprime)),
        "certificate": None,
    }


# ---------------------------------------------------------------------------
# closeness-driven construction
# ---------------------------------------------------------------------------

def build_wave(f0, T1, c=0.0, eps=None, s=1.2, p=2.0, gamma=None, r=None):
    """Construct a travelling wave within a prescribed triple-norm distance.

    With ``eps`` given, the modification size gamma (cases 1-2) and the
    orbit amplitude r are chosen so the certified distance bound stays
    below eps; the fractional-norm cost of the added feature scales like
    gamma^(1 + 1/p - s), so small eps forces features far below any
    practical grid, which the analytic closure carries exactly.  With
    explicit ``gamma``/``r`` the construction is direct.  A budget at
    s >= 1 + 1/p on the gamma path (cases 1-2) raises RegularityError
    before any search.

    Returns (wave, ClosenessReport).
    """
    from .closeness import closeness_report, modified_profile_distance

    sel = select_case(f0, T1)
    case = sel.case
    om1 = 2.0 * math.pi / T1
    kappa_r = math.sqrt((1.0 + om1 ** 2 + om1 ** 4) * T1 / 2.0)

    if eps is None:
        if r is None:
            raise ValidationError("give either eps or an explicit amplitude r")
        delta, wave = match_period(f0, T1, gamma or 0.0, r, case=case, c=c)
        return wave, closeness_report(wave, s=s, p=p)

    target_mod, target_wave = 0.45 * eps, 0.2 * eps

    if case == 3:
        r_cap = 0.02 * kappa_r
        r_try = r_cap
        for _ in range(6):
            delta, wave = match_period(f0, T1, 0.0, r_try, case=3, c=c)
            rep = closeness_report(wave, s=s, p=p)
            if rep.total < eps:
                return wave, rep
            r_try *= 0.5 * min(1.0, eps / rep.total)
        raise ValidationError(f"distance budget {eps} not met; last {rep.total}")

    if 1.0 + 1.0 / p - s <= 0.0:
        raise RegularityError(s, p)
    v0 = 0.0 if case == 2 else 3.0

    def mod_distance(g):
        d_star = _seed_delta(f0, T1, g, case, v0)
        return modified_profile_distance(
            build_modified(f0, g, d_star, case, v0=v0), s, p).total, d_star

    # log-bisection on gamma against the modification budget
    g_hi = 0.2
    d_hi, _ = mod_distance(g_hi)
    g = g_hi
    if d_hi > target_mod:
        g_lo = g_hi
        while True:
            g_lo *= 0.05
            d_lo, _ = mod_distance(g_lo)
            if d_lo <= target_mod:
                break
            if g_lo < 1e-60:
                raise ValidationError("modification budget unreachable")
        lo, hi = math.log(g_lo), math.log(g_hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            d_mid, _ = mod_distance(math.exp(mid))
            if d_mid <= 0.9 * target_mod:
                lo = mid
            elif d_mid > target_mod:
                hi = mid
            else:
                break
        g = math.exp(mid if d_mid <= target_mod else lo)

    for _ in range(6):
        _, d_star = mod_distance(g)
        lam = g * d_star
        if case == 1:
            beta_cap = 0.125 * lam ** 2 * (math.pi / (2.0 * v0)) ** 2
        else:
            beta_cap = 0.25 * lam ** 2
        r_try = min(beta_cap * kappa_r, 0.02 * kappa_r) if r is None else r
        delta, wave = match_period(f0, T1, g, r_try, case=case, v0=v0, c=c)
        rep = closeness_report(wave, s=s, p=p)
        if rep.total < eps:
            return wave, rep
        wave_part = rep.pieces["wave_vs_modified"]["total"]
        if wave_part > target_wave and r is None:
            r = r_try * 0.5 * target_wave / wave_part
        else:
            g *= 0.4
            r = None
    raise ValidationError(f"distance budget {eps} not met; last bound {rep.total}")
