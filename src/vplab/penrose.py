"""Penrose linear-stability margins for homogeneous profiles on a periodic box.

For every dual-lattice wave vector k below the truncation bound B, the
margin |k|^2 - max over critical points a' of PV int f_e'(alpha)/(alpha - a')
dalpha decides stability (Penrose, Phys. Fluids 3, 1960).  Every PV here is
the real part of ``GaussianMixture.cauchy``, the closed Faddeeva form of the
Cauchy transform of the projection (its ``GaussianTerm``s in d = 1).
``critical_pv`` and ``margin_ok`` are the one margin that ``penrose_check``,
``linear.efield_mode`` and ``sim.check_axis_stability`` read.  Directions
sharing a line share one projection.  B = sum_j |w_j|/min(widths_j)^2
comes in closed form from the closure: a term's PV along any direction is
w (2x D(x) - 1)/s_e^2 with D the Dawson function, 2x D(x) - 1 lies in
[-1, 0.2848], and the projected width s_e is never below the term's
smallest width, so B bounds |PV| in every direction.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import RULES, DegenerateProfileError, ValidationError, require
from .profiles import project

MARGIN_TOL = 1e-8


@dataclass(frozen=True)
class DualLattice:
    """Wave vectors (2*pi j1/T1, ..., 2*pi jd/Td) with integer j."""

    periods: tuple

    def __post_init__(self):
        if not self.periods or not all(map(RULES["finite and positive"], self.periods)):
            raise ValidationError(f"periods must be finite and positive, got {self.periods}")

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
    """PV integral of f'_e(alpha)/(alpha - a') at any finite a', the closed form's real part."""
    a_prime = float(a_prime)
    require("finite", (("a'", a_prime),))
    return float(fp.closure1d.cauchy(a_prime).real)


def critical_points(fp):
    """Critical points of the projected profile, bisection-refined.

    Sign changes of the closure's f_e' on the grid bracket each point.  A
    nonzero Gaussian mixture has only isolated critical points; the
    negligible tails (profile below 1e-12 of its peak) carry none.
    """
    from scipy.optimize import brentq

    d = fp.closure1d.dval(fp.alphas)
    if float(np.max(np.abs(d))) < 1e-14:
        raise DegenerateProfileError("projected f_e' vanishes identically")
    significant = fp.values > 1e-12 * float(np.max(fp.values))

    points = []
    sgn = np.sign(d)
    for i in range(len(d) - 1):
        if not (significant[i] or significant[i + 1]):
            continue
        if sgn[i] == 0.0:
            points.append(float(fp.alphas[i]))
        elif sgn[i] * sgn[i + 1] < 0:
            root = brentq(
                lambda a: float(fp.closure1d.dval(a)), fp.alphas[i], fp.alphas[i + 1],
                xtol=1e-14,
            )
            points.append(float(root))
    return points


def critical_pv(fp):
    """Critical set of the projection and the PV at each of its points."""
    crit = critical_points(fp)
    return crit, [float(v) for v in fp.closure1d.cauchy(crit).real]


def margin_ok(margin, k2):
    """The stability predicate: margin > MARGIN_TOL * (1 + |k|^2)."""
    return margin > MARGIN_TOL * (1.0 + k2)


def _direction_key(e):
    e = np.asarray(e, dtype=float)
    for c in e:
        if abs(c) > 1e-12:
            if c < 0:
                e = -e
            break
    return tuple(np.round(e, 12))


def truncation_bound(p, s, b):
    """Cut-off B = sum_j |w_j| / min(widths_j)^2 over the closure's terms.

    Along a unit direction e a term of weight w projects to a Gaussian of
    width s_e = |(e_i widths_i)| >= min(widths), and its PV at any point is
    w (2x D(x) - 1)/s_e^2 with D the Dawson function.  Since
    2x D(x) - 1 lies in [-1, 0.2848], that PV is at most |w|/min(widths)^2
    in modulus, so B bounds |PV| in every direction and every margin with
    |k|^2 > B is positive.  s > 3/2 and b > (d-1)/4 are the weighted
    H^{s,b} regularity under which the PV is bounded by the profile's norm.
    """
    require("finite", (("s", s), ("b", b)))
    if not s > 1.5:
        raise ValidationError("truncation bound requires s > 3/2")
    if not b > (p.grid.dim - 1) / 4.0:
        raise ValidationError("truncation bound requires b > (d-1)/4")
    return sum(abs(t.weight) / min(t.widths) ** 2 for t in p.closure.terms)


@dataclass
class PenroseEntry:
    k: tuple
    k2: float
    direction: tuple
    critical_set: list
    pv_values: list
    margin: float

    def to_json(self):
        return {"k": list(self.k), "k2": self.k2, "direction": list(self.direction),
                "S": self.critical_set, "pv": self.pv_values, "margin": self.margin}


@dataclass
class PenroseReport:
    stable: bool
    bound: float
    entries: list = field(default_factory=list)

    def to_json(self):
        return {
            "stable": bool(self.stable),
            "B": self.bound,
            "entries": [e.to_json() for e in self.entries],
        }


def penrose_check(p, lattice, s, b, threads=None):
    """Evaluate the stability margin for every lattice vector below the bound."""
    if lattice.dim != p.grid.dim:
        raise ValidationError("lattice dimension must match the profile")
    bound = truncation_bound(p, s, b)
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
    return PenroseReport(stable, bound, entries)
