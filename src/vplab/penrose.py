"""Penrose linear-stability margins for homogeneous profiles on a periodic box.

For every dual-lattice wave vector k below the truncation bound B, the
margin |k|^2 - max over critical points a' of PV int f_e'(alpha)/(alpha - a')
dalpha decides stability (Penrose, Phys. Fluids 3, 1960).  Every PV here is
the real part of ``profiles._sinc_cauchy``, the exact boundary value of the
sinc interpolant of the projected derivative samples.  ``critical_pv`` and
``margin_ok`` are the one margin that ``penrose_check``,
``linear.dispersion`` and ``sim.check_axis_stability`` read.  Directions sharing a line share one
projection.  B is sampled; it is certified only where ``certifies`` proves
it from the profile's analytic closure.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProfileError, ValidationError
from .profiles import _sinc_cauchy, project

MARGIN_TOL = 1e-8
# sup over x of 2x D(x) - 1, D the Dawson function: 0.2847494 at x = 1.502
PV_SUP = 0.28475


@dataclass(frozen=True)
class DualLattice:
    """Wave vectors (2*pi j1/T1, ..., 2*pi jd/Td) with integer j."""

    periods: tuple

    def __post_init__(self):
        if not self.periods or any(T <= 0 for T in self.periods):
            raise ValidationError("periods must be positive")

    @property
    def dim(self):
        return len(self.periods)

    def base(self):
        return tuple(2.0 * math.pi / T for T in self.periods)

    def members_within(self, k2_max):
        """All nonzero lattice vectors with |k|^2 <= k2_max, no duplicates."""
        base = self.base()
        ranges = [int(math.floor(math.sqrt(k2_max) / b)) for b in base]
        out = []
        for idx in np.ndindex(*[2 * r + 1 for r in ranges]):
            j = tuple(i - r for i, r in zip(idx, ranges))
            if all(v == 0 for v in j):
                continue
            k = tuple(b * ji for b, ji in zip(base, j))
            k2 = sum(c * c for c in k)
            if k2 <= k2_max + 1e-12:
                out.append((k, k2))
        out.sort(key=lambda kk: (kk[1], kk[0]))
        return out


def pv_integral(fp, a_prime):
    """Principal-value integral of f'_e(alpha)/(alpha - a'), one ``_sinc_cauchy`` call."""
    a_prime = float(a_prime)
    lo, hi = fp.alphas[0], fp.alphas[-1]
    if not (lo <= a_prime <= hi):
        raise ValidationError(
            f"a'={a_prime} outside the projected grid range [{lo}, {hi}]"
        )
    return float(_sinc_cauchy(fp.derivative, fp.alphas, [a_prime]).real[0])


@dataclass(frozen=True)
class PlateauInterval:
    lo: float
    hi: float

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def probes(self):
        return (self.lo, self.midpoint, self.hi)


def critical_points(fp):
    """Critical points of the projected profile, bisection-refined.

    Flat stretches of the derivative where the profile itself is significant
    are reported as PlateauInterval; its probes are both edges and the midpoint.
    The negligible tails (profile below 1e-12 of its peak) carry no critical
    points.
    """
    from scipy.optimize import brentq

    d = fp.derivative
    scale = float(np.max(np.abs(d)))
    if scale < 1e-14:
        raise DegenerateProfileError("projected derivative vanishes identically")
    significant = fp.values > 1e-12 * float(np.max(fp.values))
    flat = (np.abs(d) <= 1e-12 * scale) & significant

    points = []
    runs = _runs(flat, min_len=3)
    plateau_mask = np.zeros(len(d), dtype=bool)
    for i0, i1 in runs:
        plateau_mask[i0:i1] = True
        points.append(PlateauInterval(float(fp.alphas[i0]), float(fp.alphas[i1 - 1])))

    sgn = np.sign(d)
    for i in range(len(d) - 1):
        if plateau_mask[i] or plateau_mask[i + 1]:
            continue
        if not (significant[i] or significant[i + 1]):
            continue
        if sgn[i] == 0.0:
            points.append(float(fp.alphas[i]))
            continue
        if sgn[i] * sgn[i + 1] < 0:
            root = brentq(
                lambda a: float(fp.dval(a)), fp.alphas[i], fp.alphas[i + 1],
                xtol=1e-14,
            )
            points.append(float(root))

    return sorted(points, key=lambda c: c.midpoint if isinstance(c, PlateauInterval) else c)


def critical_pv(fp):
    """Critical set of the projection and the PV at each of its points.

    A plateau takes the largest PV over its edges and midpoint, because the
    PV varies along a flat stretch and the margin must hold on all of it.
    Every probe goes through one ``_sinc_cauchy`` call.
    """
    crit = critical_points(fp)
    probes = [c.probes() if isinstance(c, PlateauInterval) else (c,) * 3 for c in crit]
    pv = _sinc_cauchy(fp.derivative, fp.alphas, np.ravel(probes)).real
    return crit, [float(v) for v in pv.reshape(-1, 3).max(axis=1)]


def margin_ok(margin, k2):
    """The stability predicate: margin > MARGIN_TOL * (1 + |k|^2)."""
    return margin > MARGIN_TOL * (1.0 + k2)


def _runs(mask, min_len):
    out = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            if j - i >= min_len:
                out.append((i, j))
            i = j
        else:
            i += 1
    return out


def _direction_key(e):
    e = np.asarray(e, dtype=float)
    for c in e:
        if abs(c) > 1e-12:
            if c < 0:
                e = -e
            break
    return tuple(np.round(e, 12))


def _random_directions(dim, count, seed):
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


def certifies(p, bound):
    """True when every |k|^2 > bound provably has a positive margin.

    A Gaussian component of weight w and width s has PV
    w (2x D(x) - 1)/s^2 <= max(PV_SUP w, -w)/s^2 at every point, and any
    projection of a closure term is at least as wide as the term's
    smallest width.
    """
    proof = sum(max(PV_SUP * t.weight, -t.weight) / min((t.w1,) + t.wt) ** 2
                for t in p.closure.terms)
    return bound >= proof


def truncation_bound(p, s, b, return_details=False):
    """Cut-off B beyond which every |k|^2 is taken to have a positive margin.

    B = 2 * max |PV| over 64 probes in each of 20 seeded random directions
    (one ``_sinc_cauchy`` call per direction); the factor 2 is the safety
    inflation.  The maximum is sampled, so B is certified only when
    ``certifies(p, B)`` holds: B covers the PV bound that the profile's
    closure proves.  The details carry ``pv_max`` and that verdict as
    ``certified``.  s > 3/2 and b > (d-1)/4 are the weighted H^{s,b}
    regularity under which the PV is bounded by the profile's norm.
    """
    if not s > 1.5:
        raise ValidationError("truncation bound requires s > 3/2")
    if not b > (p.grid.dim - 1) / 4.0:
        raise ValidationError("truncation bound requires b > (d-1)/4")
    pv_max = 0.0
    for e in _random_directions(p.grid.dim, 20, 7):
        fp = project(p, e)
        probes = fp.alphas[:: max(1, len(fp.alphas) // 64)]
        pv = _sinc_cauchy(fp.derivative, fp.alphas, probes).real
        pv_max = max(pv_max, float(np.max(np.abs(pv))))
    bound = 2.0 * pv_max
    if return_details:
        return bound, {"pv_max": pv_max, "certified": certifies(p, bound)}
    return bound


@dataclass
class PenroseEntry:
    k: tuple
    k2: float
    direction: tuple
    critical_set: list
    pv_values: list
    margin: float

    def to_json(self):
        crit = [
            {"interval": [c.lo, c.hi], "midpoint": c.midpoint}
            if isinstance(c, PlateauInterval) else c
            for c in self.critical_set
        ]
        return {"k": list(self.k), "k2": self.k2, "direction": list(self.direction),
                "S": crit, "pv": self.pv_values, "margin": self.margin}


@dataclass
class PenroseReport:
    stable: bool
    bound: float
    pv_max: float
    certified: bool
    entries: list = field(default_factory=list)

    def to_json(self):
        return {
            "stable": bool(self.stable),
            "B": self.bound,
            "pv_max": self.pv_max,
            "certified_beyond_B": bool(self.certified),
            "entries": [e.to_json() for e in self.entries],
        }


def penrose_check(p, lattice, s, b, threads=None):
    """Evaluate the stability margin for every lattice vector below the bound."""
    if lattice.dim != p.grid.dim:
        raise ValidationError("lattice dimension must match the profile")
    bound, details = truncation_bound(p, s, b, return_details=True)
    members = lattice.members_within(bound)

    by_dir = {}
    for k, k2 in members:
        key = _direction_key(np.asarray(k) / math.sqrt(k2))
        by_dir.setdefault(key, []).append((k, k2))

    keys = list(by_dir)

    def direction(key):
        return critical_pv(project(p, np.asarray(key)))

    if threads and threads > 1 and len(keys) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(zip(keys, pool.map(direction, keys)))
    else:
        results = {key: direction(key) for key in keys}

    entries = []
    stable = True
    for key, klist in by_dir.items():
        crit, pvs = results[key]
        worst = max(pvs, default=-math.inf)
        for k, k2 in klist:
            margin = k2 - worst
            entries.append(PenroseEntry(k, k2, key, crit, pvs, margin))
            stable = stable and margin_ok(margin, k2)
    entries.sort(key=lambda e: (e.k2, e.k))
    return PenroseReport(stable, bound, details["pv_max"], details["certified"], entries)
