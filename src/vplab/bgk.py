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

from .errors import (AmplitudeTooLargeError, BracketError, RegularityError, ValidationError,
                     require)
from .profiles import (SQRT2PI, GaussianMixture, GaussianTerm, Profile, even_pair,
                       fourier_multiplier)

# relative tolerance of the matched period |T - T1| <= PERIOD_TOL_REL T1
PERIOD_TOL_REL = 1e-9
# ceiling on the reduced field equation residual max |beta'' - h(beta)|
POISSON_RESIDUAL_TOL = 1e-7
# offset of the case-1 bump pair in units of its width gamma delta
BUMP_V0 = 3.0

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
    """Base profile with the scaling modification applied (cases 1-3); ``bump``
    is the added feature as it sits in ``mixture`` (None in case 3)."""

    f1: Profile
    gamma: float
    delta: float
    case: int
    C0: float
    v0: float
    mixture: GaussianMixture
    bump: GaussianMixture | None

    def as_profile(self):
        return Profile.from_closure(
            self.f1.grid, self.mixture,
            meta={"provenance": "modified", "gamma": self.gamma,
                  "delta": self.delta, "case": self.case},
        )

    @property
    def bump_width(self):
        """v1 width of the added feature (gamma*delta for cases 1-2)."""
        return None if self.bump is None else self.gamma * self.delta


def _bump_c0(dim):
    """Bump mass per gamma^2, C0: int F1 = 2 w1 sqrt(2pi) per pair with w1 = lam,
    against unit-width transverse gaussians (int F2 = sqrt(2pi) each)."""
    return 2.0 * SQRT2PI * SQRT2PI ** (dim - 1)


def _require_even(f1):
    """Refuse a base not even in v1, whose odd part the certificate would miss."""
    unpaired = f1.closure.unpaired_means()
    if unpaired:
        raise ValidationError(f"base closure is not even in v1: the term at mean "
                              f"{tuple(map(float, unpaired[0]))} has no mirror of equal weight")


def build_modified(f1, gamma, delta, case, v0=BUMP_V0):
    """Modified homogeneous profile for the bifurcation.

    Cases 1 and 2 add the narrow feature (gamma/delta) F1(v1/(gamma delta))
    F2(v2) and renormalise by 1 + C0 gamma^2; case 3 rescales v1 by delta.
    The closure carries features far below the grid resolution exactly.
    The bump offset v0 and the scale delta must be finite and positive in
    every case (only case 1 places the bump at v0), gamma in cases 1-2 (case
    3 ignores it), and the base closure must be even in v1.
    """
    require("finite and positive", (("the bump offset v0", v0), ("the scale delta", delta)))
    _require_even(f1)
    if case == 3:
        mix = f1.closure.scaled_v1(delta)
        return ModifiedProfile(f1, 0.0, float(delta), 3, 0.0, 0.0, mix, None)

    require("finite and positive", (("the feature scale gamma", gamma),))
    lam = gamma * delta
    if case == 1:
        if GaussianMixture(1, even_pair(1.0, v0, (1.0,))).pv_d_integral() <= 0:
            raise ValidationError(f"v0={v0} gives a nonpositive bump PV integral; increase v0")
    elif case == 2:
        v0 = 0.0
    else:
        raise ValidationError(f"unknown case {case}")

    dim = f1.grid.dim
    c0 = _bump_c0(dim)
    scale = 1.0 / (1.0 + c0 * gamma ** 2)
    bump = GaussianMixture(dim, even_pair(gamma ** 2 * c0, lam * v0,
                                          (lam,) + (1.0,) * (dim - 1))).reweighted(scale)
    mix = f1.closure.reweighted(scale).plus(bump)
    return ModifiedProfile(f1, float(gamma), float(delta), case, c0, float(v0), mix, bump)


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

    K(c) = 2 int_0^inf A'(u^2 - c) du takes a 129-node trapezoid rule on
    [0, a + 10]: on an even, entire integrand with Gaussian decay it
    converges geometrically (65 nodes give the 2049-node K to roundoff).
    """
    n_cheb, n_taylor = 256, 56
    t = GaussianTerm(1.0, (a,), (1.0,))
    cheb = np.polynomial.chebyshev.Chebyshev
    u = np.linspace(0.0, a + 10.0, 129)

    def kfun(c):
        c = np.atleast_1d(c)
        y = u[None, :] ** 2 - c[:, None]
        return 2.0 * np.trapezoid(t.even_dval(y), u, axis=1)

    kc = cheb.interpolate(kfun, n_cheb, domain=[-_C_OK, _C_OK])
    qc = kc * cheb.identity(domain=[-_C_OK, _C_OK])

    # Taylor coefficients of K at 0 by a Cauchy-integral FFT; K is entire,
    # so this gives relative accuracy at arbitrarily small shifts where the
    # Chebyshev floor would dominate
    m = 2 * n_taylor
    circ = _RHO * np.exp(2j * np.pi * np.arange(m) / m)
    y = u[None, :] ** 2 - circ[:, None]
    kvals = 2.0 * np.trapezoid(t.even_dval(y), u, axis=1)
    k_hat = (np.fft.fft(kvals) / m)[:n_taylor].real
    k_hat.flags.writeable = False  # shared by every caller of the cache
    return kc.integ(lbnd=0.0), qc.integ(lbnd=0.0), k_hat


class BifurcationH:
    """Callable h(beta) = int f^beta dv - 1, exact down to roundoff amplitudes.

    Built on the density-response kernel K(c) = int_R A'(u^2 - c) du of each
    term of the mixture's ``even_part`` (A its even part in v1, one term per
    even pair), for which exactly

        h(beta) = -int_0^{2 beta} K(c) dc,
        V(beta) = -int_0^beta h = int_0^{2 beta} K(c) (beta - c/2) dc.

    A term of weight W, v1 width w and offset ratio a = |mean[0]|/w has
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
        terms = mp.mixture.even_part().terms
        for t in terms:
            P, Q, k_unit = _unit_kernel(float(f"{t.mean[0] / t.widths[0]:.14g}"))
            w2 = t.widths[0] ** 2
            k_hat = (t.weight / w2) * k_unit
            mm = np.arange(len(k_hat))
            self._terms.append((P, Q, t.weight, w2, w2 * _RHO, k_hat / (mm + 1),
                                k_hat / (2.0 * (mm + 1) * (mm + 2))))
        self.c_admissible = _C_OK * min(t.widths[0] ** 2 for t in terms)

    def hprime0(self):
        return -self.mp.mixture.pv_d_integral()

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
                    out[inner] -= rho * np.vecdot(powers, k_h)
                else:
                    out[inner] += rho ** 2 * np.vecdot(powers * ch[:, None], k_v)
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


def hprime0_centered(h, scale):
    """Centered-difference h'(0) at a step matched to the feature scale."""
    return (h(scale) - h(-scale)) / (2.0 * scale)


# ---------------------------------------------------------------------------
# periodic orbits of beta'' = h(beta)
# ---------------------------------------------------------------------------

# the 64 midpoint nodes phi_j = (j + 1/2) pi / 64 of every orbit integral
_PHI = (np.arange(64) + 0.5) * (math.pi / 64)
# the 6-node Gauss-Legendre rule of a segment mean, on (0, 1) with unit total weight
_SEG, _SEG_W = np.polynomial.legendre.leggauss(6)
_SEG, _SEG_W = 0.5 * (_SEG + 1.0), 0.5 * _SEG_W


def _orbit_g(h, bp, bm, sin_t):
    """G = (E - V(beta)) / (rho cos theta)^2 at beta = mid + rho sin theta, without E.

    On the half nearer a turning point b (bp for sin theta >= 0, else bm),
    E - V(beta) = V(b) - V(beta) is rho (1 -+ sin theta) times the mean of -+h
    over [beta, b], and (1 -+ sin theta) / cos^2 theta = 1 / (1 +- sin theta):
    G = <-+h> / (rho (1 +- sin theta)).  Neither E nor a 0/0 enters, and the
    turning points enter only smoothly.  ``_orbit_at`` takes sin theta = -cos phi.
    """
    rho, s = 0.5 * (bp - bm), np.abs(sin_t)
    toward = np.where(sin_t >= 0, 1.0, -1.0)
    nodes = np.where(sin_t >= 0, bp, bm)[:, None] - (toward * rho * (1.0 - s))[:, None] * _SEG
    return -toward * (h(nodes) @ _SEG_W) / (rho * (1.0 + s))


@dataclass
class OrbitSolution:
    period: float
    beta_plus: float
    beta_minus: float
    r: float
    # cosine coefficients of dx/dphi on [0, pi], a[0] halved: period = 2 pi a[0]
    a: np.ndarray = field(repr=False)

    def sample(self, n):
        """Uniform samples of beta over one period, maximum at x = 0.

        The cosine series ``a`` of dx/dphi (``_orbit_at``) integrates exactly
        to x(phi) = a_0 phi + sum_k a_k sin(k phi) / k; Newton steps invert x
        at the uniform points of the descending half, beta = mid - rho cos phi
        there, and beta(T - x) = beta(x) gives the rest.  No h is evaluated.
        """
        a, bp, bm = self.a, self.beta_plus, self.beta_minus
        k, half = np.arange(1, len(a)), math.pi * a[0]
        # distance from the maximum along the descending half, and its phi
        xs = np.arange(n // 2 + 1) * (2.0 * half / n)
        phi = math.pi * (1.0 - xs / half)
        for _ in range(32):
            kp = np.multiply.outer(phi, k)
            step = (half - xs - a[0] * phi - np.sin(kp) @ (a[1:] / k)) \
                / (a[0] + np.cos(kp) @ a[1:])
            phi = np.clip(phi + step, 0.0, math.pi)
            if np.max(np.abs(step)) <= 1e-15:
                break
        beta = 0.5 * (bp + bm) - 0.5 * (bp - bm) * np.cos(phi)
        return np.linspace(0.0, self.period, n, endpoint=False), \
            np.concatenate([beta, beta[1:(n + 1) // 2][::-1]])


def _orbit_at(h, bp):
    """The orbit of beta'' = h(beta) through the turning point bp > 0.

    beta_- < 0 solves V(beta_-) = V(bp) by Illinois false position to 1e-15 V(bp),
    on the bracket found by growing the harmonic guess -bp by 1.5 until V
    exceeds V(bp).  A potential that loses convexity on either side before
    its turning point raises AmplitudeTooLargeError.

    On the 64 midpoints ``_PHI`` of phi (beta = mid - rho cos phi), dx/dphi =
    1/sqrt(2 G) is smooth, even and periodic, so one midpoint rule gives all:
    its DCT a (a_0 halved, for ``sample``), T = 2 pi a_0 and, over both halves,
    r^2 = 2 pi mean_j [(beta^2 + h(beta)^2) dx/dphi + (rho sin phi)^2 / (dx/dphi)].
    """
    def check_convex(b):
        if np.any(h(np.linspace(0.1 * b, b, 24)) * math.copysign(1.0, b) > 0):
            raise AmplitudeTooLargeError("potential loses convexity before the turning point")

    check_convex(bp)
    energy = float(h.potential(bp))
    inner, f_inner, b = 0.0, -energy, -bp
    for _ in range(200):
        f_b = float(h.potential(b)) - energy
        if f_b > 0:
            break
        check_convex(b)
        inner, f_inner, b = b, f_b, 1.5 * b
    else:
        raise AmplitudeTooLargeError("no turning point found: orbit escapes")
    bm, brackets = _false_position(lambda x: float(h.potential(x)) - energy, b, inner,
                                   f_b, f_inner, 1e-15 * energy)
    if bm is None:
        # V's own rounding can exceed the tolerance: a bracket closed to one ulp is the root
        bm, end = brackets[-1]
        if np.nextafter(bm, end) != end:
            raise AmplitudeTooLargeError("turning point not converged in 300 steps")
    check_convex(bm)

    G = _orbit_g(h, bp, bm, -np.cos(_PHI))
    if np.any(G <= 0):
        raise AmplitudeTooLargeError("potential not convex inside the orbit")
    mid, rho = 0.5 * (bp + bm), 0.5 * (bp - bm)
    beta = mid - rho * np.cos(_PHI)
    dx = 1.0 / np.sqrt(2.0 * G)
    a = sfft.dct(dx, type=2) / len(dx)
    a[0] *= 0.5
    r2 = 2.0 * math.pi * float(np.mean((beta ** 2 + h(beta) ** 2) * dx
                                       + (rho * np.sin(_PHI)) ** 2 / dx))
    return OrbitSolution(2.0 * math.pi * float(a[0]), bp, bm, math.sqrt(r2), a)


def periodic_orbit(h, r):
    """Periodic solution of beta'' = h(beta) with H^2 amplitude r over one period.

    The orbit is labelled by its upper turning point beta_+ (``_orbit_at``),
    which a secant iteration on log beta_+ against log r selects.  T, r and
    the samples come from one cosine series of dx/dphi = 1/sqrt(2 G) on 64
    midpoints in phi (``_orbit_at``).  h supplies h(beta), h.hprime0() and
    h.potential(beta) = -int_0^beta h.  Leaving the center basin (V losing
    convexity before the turning point) raises AmplitudeTooLargeError; a
    non-finite or non-positive r, ValidationError.
    """
    require("finite and positive", (("orbit amplitude r", r),))
    hp0 = h.hprime0()
    if not hp0 < 0:
        raise ValidationError(f"h'(0) = {hp0:.3e} is not negative: no center at 0")
    om = math.sqrt(-hp0)

    # secant on log beta_+ against log r from the harmonic amplitude; transient
    # overshoots past the basin edge are backtracked toward the last valid label
    b_prev = r / math.sqrt((1 + om ** 2 + om ** 4) * math.pi / om)
    b_cur = 1.025 * b_prev
    r_p = _orbit_at(h, b_prev).r
    for _ in range(80):
        try:
            orb = _orbit_at(h, b_cur)
        except AmplitudeTooLargeError:
            for _back in range(12):
                b_cur = math.sqrt(b_cur * b_prev)
                try:
                    orb = _orbit_at(h, b_cur)
                    break
                except AmplitudeTooLargeError:
                    continue
            else:
                raise
        if abs(orb.r - r) <= 1e-12 * r:
            return orb
        d = math.log(orb.r) - math.log(r_p)
        if d == 0:
            raise AmplitudeTooLargeError("amplitude iteration stalled")
        step = (math.log(r) - math.log(orb.r)) * (math.log(b_cur) - math.log(b_prev)) / d
        b_prev, r_p = b_cur, orb.r
        b_cur = math.exp(math.log(b_cur) + float(np.clip(step, -1.0, 1.0)))
    raise AmplitudeTooLargeError(f"H^2 amplitude {r} not reached in iteration budget")


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

    def _energy(self, x, v1):
        """y = (v1 - c)^2 - 2 beta(x) on the (x, v1) tensor grid."""
        return (np.asarray(v1, dtype=float) - self.c)[None, :] ** 2 \
            - 2.0 * self.beta_at(np.asarray(x, dtype=float))[:, None]

    def sample_phase_space(self, x, v1, *trans_axes):
        """Tensor-grid samples f[x, v1, w...] of the distribution at t = 0."""
        y = self._energy(x, v1)
        out = 0.0
        for t in self.mp.mixture.even_part().terms:
            out = out + np.multiply.outer(t.weight * t.even_val(y), t.transverse_val(*trans_axes))
        return out

    def sample_factors(self, x, v1, v2):
        """``sample_phase_space(x, v1, v2)`` as factors A (x, v1, r) and B (r, v2)
        with orthonormal rows (v2 None: f[x, v1] and B = [[1]]).  Terms of one
        transverse mean and width share a Gaussian row G; the QR G^T = Q R over
        the r rows gives B = Q^T and A = A_G R^T without building f."""
        y = self._energy(x, v1)
        trans = () if v2 is None else (v2,)
        groups, rows = {}, {}
        for t in self.mp.mixture.even_part().terms:
            key = (t.mean[1:], t.widths[1:])
            groups[key] = groups.get(key, 0.0) + t.weight * t.even_val(y)
            rows[key] = np.atleast_1d(t.transverse_val(*trans))
        q, r = np.linalg.qr(np.stack(list(rows.values()), axis=1))
        return np.stack(list(groups.values()), axis=2) @ r.T, q.T

    def _beta2(self):
        return fourier_multiplier(self.beta, (self.T1 / len(self.beta),), (0,), lambda k: -(k ** 2))

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
        vmax = max(t.mean[0] + 6 * t.widths[0] for t in self.mp.mixture.even_part().terms)
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
    c0 = _bump_c0(f1.grid.dim)
    dunit = GaussianMixture(1, even_pair(1.0, v0 if case == 1 else 0.0, (1.0,))).pv_d_integral()
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
    |fun(x)| <= tol, or None after 300 steps or once no float is left inside
    the bracket, and the bracket (lo, hi) before each step.
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
        if np.nextafter(lo, hi) == hi:
            break
    return None, brackets


def match_period(f1, T1, gamma, r, case=None):
    """Illinois false position on the modification scale until the orbit
    period equals T1 to PERIOD_TOL_REL.

    Returns (delta, BgkWave), the wave sampled at 1024 points per period.
    The bracket must satisfy the period inequality at its endpoints;
    otherwise the last AmplitudeTooLargeError of an endpoint is raised, or
    BracketError reports both endpoint periods.
    ``provenance["bisection_widths"]`` is the bracket width after each step;
    it never grows.  The trapped depth 2 max|beta| must stay inside the
    decomposition window a^2 = 1/4, and the reduced field equation residual
    below POISSON_RESIDUAL_TOL.  A base closure that is not even in v1, a
    non-finite or non-positive r and, in cases 1-2, such a gamma are refused
    before any work.
    """
    require("finite and positive", (("orbit amplitude r", r),))
    _require_even(f1)
    if case is None:
        case = select_case(f1, T1).case
    if case != 3:
        require("finite and positive", (("the feature scale gamma", gamma),))

    cache = {}

    def at(delta):
        if delta not in cache:
            mp = build_modified(f1, gamma, delta, case)
            h = make_h(mp)
            orb = periodic_orbit(h, r)
            cache[delta] = (mp, h, orb)
            if len(cache) > 8:
                cache.pop(next(iter(cache)))
        return cache[delta]

    d_star = _seed_delta(f1, T1, gamma, case, BUMP_V0)
    lo, hi = 0.8 * d_star, 1.25 * d_star

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
    efield = fourier_multiplier(beta, (T1 / len(beta),), (0,), lambda k: -1j * k)

    wave = BgkWave(
        dim=f1.grid.dim, T1=float(T1), c=0.0, x1=xs, beta=beta, efield=efield,
        amplitude=orb.r, case=case,
        provenance={"gamma": gamma, "delta": mid, "r": orb.r, "case": case,
                    "v0": mp.v0, "bisection_widths": widths},
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


# the 32-node Gauss-Legendre rule of g on s = |v| / sqrt(2) in [0, 9]: energies to 81
_S, _S_W = np.polynomial.legendre.leggauss(32)
_S, _S_W = 4.5 * (_S + 1.0), 4.5 * _S_W


def _g_of_beta(mu, beta, d):
    """g_d(beta) = 1 - int mu(|v|^2/2 - beta) dv over R^d, for radial energy profiles.

    With s^2 = |v|^2/2 this is 1 - |S^{d-1}| 2^{d/2} int_0^9 s^{d-1} mu(s^2 - beta) ds,
    on the one fixed Gauss-Legendre rule ``_S`` for every batch and every d.
    """
    beta = np.asarray(beta, dtype=float)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    weights = sphere * 2.0 ** (d / 2.0) * _S ** (d - 1) * _S_W
    return 1.0 - mu(_S ** 2 - beta[..., None]) @ weights


def obstruction_diagnostic(mu, beta_candidate, periods):
    """Certify that a radial-energy ansatz on the 2-torus has only trivial fields.

    Checks mu >= 0, evaluates g'(beta) = -2 pi mu(-beta) on the candidate's
    range, and compares both sides of the gradient identity
    int |grad beta_x1|^2 = int g'(beta) |beta_x1|^2 <= 0.  A nonconstant
    candidate therefore cannot satisfy the field equation; the residual of
    -Lap beta = g(beta) is reported, with g from ``_g_of_beta`` at d = 2
    (the 32-node Gauss-Legendre rule in s = |v| / sqrt(2)).
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
    h = (periods[0] / nx, periods[1] / ny)
    bx = fourier_multiplier(beta, h, (0, 1), lambda kx, ky: 1j * kx)
    bxx = fourier_multiplier(beta, h, (0, 1), lambda kx, ky: -(kx ** 2))
    bxy = fourier_multiplier(beta, h, (0, 1), lambda kx, ky: -(kx * ky))
    lap = fourier_multiplier(beta, h, (0, 1), lambda kx, ky: -(kx ** 2 + ky ** 2))

    cell = h[0] * h[1]
    lhs = float(np.sum(bxx ** 2 + bxy ** 2) * cell)
    rhs = float(np.sum(gprime * bx ** 2) * cell)
    resid = float(np.max(np.abs(-lap - _g_of_beta(mu, beta, 2))))

    cert = "only_trivial_solutions" if gp_max <= 0.0 else None
    return ObstructionCertificate(gp_max, cert, lhs, rhs, resid)


def obstruction_fixed_point(mu, periods, beta0):
    """Solve -Lap beta = g(beta) on the 2-torus by a contracting split iteration.

    With g' <= 0 the map beta -> (m - Lap)^(-1)(m beta + g(beta)) contracts
    for m above |g'|; the unique solution is the constant root of g.  The
    grid is beta0's, and g is ``_g_of_beta`` at d = 2.
    """
    beta = np.array(beta0, dtype=float)
    nx, ny = beta.shape
    h = (periods[0] / nx, periods[1] / ny)
    for _ in range(400):
        # shift just above |g'| on the currently visited range keeps the
        # map contracting without crushing the convergence rate
        probes = np.linspace(np.min(beta) - 0.5, np.max(beta) + 0.5, 64)
        m = 2.0 * np.pi * float(np.max(mu(-probes))) + 1.0
        rhs = m * beta + _g_of_beta(mu, beta, 2)
        new = fourier_multiplier(rhs, h, (0, 1), lambda kx, ky: 1.0 / (m + kx ** 2 + ky ** 2))
        if float(np.max(np.abs(new - beta))) < 1e-13:
            beta = new
            break
        beta = new
    gx = fourier_multiplier(beta, h, (0, 1), lambda kx, ky: 1j * kx)
    gy = fourier_multiplier(beta, h, (0, 1), lambda kx, ky: 1j * ky)
    grad_l2 = math.sqrt(float(np.sum(gx ** 2 + gy ** 2) * h[0] * h[1]))
    return beta, grad_l2


def obstruction_1d_contrast(mu, beta_range):
    """1D analogue where g' has no sign certificate; reports observed signs.

    g' is the central difference of ``_g_of_beta`` at d = 1, on the same rule.
    """
    betas = np.linspace(beta_range[0], beta_range[1], 512)
    eps = 1e-6 * max(1.0, beta_range[1] - beta_range[0])
    gprime = (_g_of_beta(mu, betas + eps, 1) - _g_of_beta(mu, betas - eps, 1)) / (2 * eps)
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
    before any search.  A travel speed c != 0 is refused: the boost moves
    the wave off f0(v) to f0(v - c), which the certificate does not see;
    so is a base f0 that is not even in v1, whose odd part it does not see.
    A non-finite or non-positive T1, eps, gamma or r, a non-finite s, a
    p <= 1 (for which the triangle sum is no bound), and eps together with
    gamma or r, are refused before any work.

    Returns (wave, ClosenessReport).
    """
    from .closeness import closeness_report, modified_profile_distance

    require("finite and positive", (("period T1", T1),))
    given = tuple((name, val) for name, val in (("eps", eps), ("gamma", gamma), ("r", r))
                  if val is not None)
    require("finite", (("s", s), ("p", p)) + given)
    if not p > 1.0:
        raise ValidationError(f"p must be > 1, got {p}: below, the triangle sum bounds nothing")
    require("positive", given)
    for name, val in (("gamma", gamma), ("r", r)):
        if eps is not None and val is not None:
            raise ValidationError(f"eps = {eps:g} and {name} = {val:g} given together: "
                                  "the budget chooses gamma and r itself")
    if c != 0.0:
        raise ValidationError(f"travel speed c = {c:g} != 0: the boosted wave sits near "
                              "f0(v - c), and the distance certificate is to f0 at rest")
    sel = select_case(f0, T1)
    case = sel.case
    om1 = 2.0 * math.pi / T1
    kappa_r = math.sqrt((1.0 + om1 ** 2 + om1 ** 4) * T1 / 2.0)

    if eps is None:
        if r is None:
            raise ValidationError("give either eps or an explicit amplitude r")
        delta, wave = match_period(f0, T1, gamma or 0.0, r, case=case)
        return wave, closeness_report(wave, s=s, p=p)

    target_mod, target_wave = 0.45 * eps, 0.2 * eps

    if case == 3:
        r_cap = 0.02 * kappa_r
        r_try = r_cap
        for _ in range(6):
            delta, wave = match_period(f0, T1, 0.0, r_try, case=3)
            rep = closeness_report(wave, s=s, p=p)
            if rep.total < eps:
                return wave, rep
            r_try *= 0.5 * min(1.0, eps / rep.total)
        raise ValidationError(f"distance budget {eps} not met; last {rep.total}")

    if 1.0 + 1.0 / p - s <= 0.0:
        raise RegularityError(s, p)

    def mod_distance(g):
        d_star = _seed_delta(f0, T1, g, case, BUMP_V0)
        return modified_profile_distance(build_modified(f0, g, d_star, case), s, p).total

    # log-bisection on gamma against the modification budget
    g_hi = 0.2
    d_hi = mod_distance(g_hi)
    g = g_hi
    if d_hi > target_mod:
        g_lo = g_hi
        while True:
            g_lo *= 0.05
            d_lo = mod_distance(g_lo)
            if d_lo <= target_mod:
                break
            if g_lo < 1e-60:
                raise ValidationError("modification budget unreachable")
        lo, hi = math.log(g_lo), math.log(g_hi)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            d_mid = mod_distance(math.exp(mid))
            if d_mid <= 0.9 * target_mod:
                lo = mid
            elif d_mid > target_mod:
                hi = mid
            else:
                break
        g = math.exp(mid if d_mid <= target_mod else lo)

    for _ in range(6):
        lam = g * _seed_delta(f0, T1, g, case, BUMP_V0)
        if case == 1:
            beta_cap = 0.125 * lam ** 2 * (math.pi / (2.0 * BUMP_V0)) ** 2
        else:
            beta_cap = 0.25 * lam ** 2
        r_try = min(beta_cap * kappa_r, 0.02 * kappa_r) if r is None else r
        delta, wave = match_period(f0, T1, g, r_try, case=case)
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
