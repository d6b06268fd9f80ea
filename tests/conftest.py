import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import dawsn

from vplab.profiles import GaussianMixture, GaussianTerm, VelocityGrid, make_builtin

SQRT2PI = math.sqrt(2.0 * math.pi)

# one hypothesis profile for every property test: timings on shared
# machines vary, so no per-example deadline; a failure prints its blob
settings.register_profile("vplab", deadline=None, print_blob=True)
settings.load_profile("vplab")


def mixture_1d(*comps):
    """The 1D mixture of (weight, mean, width) components."""
    return GaussianMixture(1, [GaussianTerm(w, (mu,), (s,)) for w, mu, s in comps])


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def cutoff_sigma(x):
    """Even cut-off: 1 on |x| <= 1, 0 on |x| >= 2, smooth monotone between."""
    return smooth_step(2.0 - np.abs(np.asarray(x, dtype=float)))


@pytest.fixture(scope="session")
def grid1():
    return VelocityGrid(1, 8.0, 512)


@pytest.fixture(scope="session")
def grid2():
    return VelocityGrid(2, 8.0, 256)


@pytest.fixture(scope="session")
def maxwellian1(grid1):
    return make_builtin("maxwellian", grid1)


@pytest.fixture(scope="session")
def maxwellian2(grid2):
    return make_builtin("maxwellian", grid2)


@pytest.fixture(scope="session")
def double_bump2():
    return make_builtin("double_bump", VelocityGrid(2, 12.0, 512), v0=3.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def budget_wave(maxwellian2):
    """The eps = 1e-1 wave of the bgk_budget benchmark and its report."""
    from vplab.bgk import build_wave

    return build_wave(maxwellian2, 2 * np.pi, eps=1e-1)


@pytest.fixture(scope="session")
def steady_wave():
    """The case-3 wave of the bgk_steady_2v benchmark (r = 1e-3)."""
    from tests.test_bgk import tuned_case3_profile
    from vplab.bgk import match_period

    return match_period(tuned_case3_profile()[0], 2 * np.pi, 0.0, 1e-3, case=3)[1]


def _coshc(t):
    """cosh(sqrt(t)) continued through t=0: cos(sqrt(-t)) for t < 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = np.cosh(np.sqrt(t[pos]))
    out[~pos] = np.cos(np.sqrt(-t[~pos]))
    return out


def _coshc_prime(t):
    """d/dt cosh(sqrt(t)), continued; equals 1/2 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-12
    out[small] = 0.5 + t[small] / 12.0
    pos = (~small) & (t > 0)
    st = np.sqrt(t[pos])
    out[pos] = np.sinh(st) / (2.0 * st)
    neg = (~small) & (t < 0)
    sn = np.sqrt(-t[neg])
    out[neg] = np.sin(sn) / (2.0 * sn)
    return out


def continued_val(term, y):
    """Oracle: a term's even part in v1, A(y) at y = v1^2 (v0 = |mean[0]|,
    w1 = widths[0]), with y < 0 in the real continued form
    e^{-(y + v0^2)/(2 w1^2)} cos(sqrt(-y) v0/w1^2)."""
    v0, w1 = abs(term.mean[0]), term.widths[0]
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    pos = y >= 0.0
    s = np.sqrt(y[pos])
    out[pos] = (np.exp(-((s - v0) ** 2) / (2 * w1 ** 2))
                + np.exp(-((s + v0) ** 2) / (2 * w1 ** 2))) / (2.0 * w1 * SQRT2PI)
    yn = y[~pos]
    c = 1.0 / (w1 * SQRT2PI)
    t = yn * v0 ** 2 / w1 ** 4
    out[~pos] = c * np.exp(-(yn + v0 ** 2) / (2 * w1 ** 2)) * _coshc(t)
    return out


def continued_dval(term, y):
    """Oracle: A'(y) of a term's even part in the continued forms, cosh included.

    Complex y takes the entire form everywhere (finite while |y| v0^2/w1^4
    keeps cosh below overflow, e.g. a = v0/w1 <= 20 on the unit-kernel
    Taylor circle); real y the two-Gaussian form for y >= w1^2/4 and the
    entire form, through cosh/cos, below.
    """
    v0, w1 = abs(term.mean[0]), term.widths[0]
    if np.iscomplexobj(y):
        y = np.asarray(y, dtype=complex)
        c = 1.0 / (w1 * SQRT2PI)
        z = np.sqrt(y * v0 ** 2 / w1 ** 4)
        cosh_z = np.cosh(z)
        small = np.abs(z) < 1e-8
        ratio = np.empty_like(z)
        ratio[~small] = np.sinh(z[~small]) / (2.0 * z[~small])
        ratio[small] = 0.5 + z[small] ** 2 / 12.0
        e = np.exp(-(y + v0 ** 2) / (2 * w1 ** 2))
        return c * e * (-cosh_z / (2 * w1 ** 2)
                        + (v0 ** 2 / w1 ** 4) * ratio)
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    direct = y >= 0.25 * w1 ** 2
    s = np.sqrt(y[direct])
    c = 1.0 / (2.0 * w1 * SQRT2PI)
    w2 = 2.0 * w1 ** 2
    out[direct] = c * (
        np.exp(-((s - v0) ** 2) / w2) * (-(s - v0) / (w2 * s))
        + np.exp(-((s + v0) ** 2) / w2) * (-(s + v0) / (w2 * s))
    )
    yr = y[~direct]
    c = 1.0 / (w1 * SQRT2PI)
    t = yr * v0 ** 2 / w1 ** 4
    e = np.exp(-(yr + v0 ** 2) / (2 * w1 ** 2))
    out[~direct] = c * e * (-_coshc(t) / (2 * w1 ** 2)
                            + (v0 ** 2 / w1 ** 4) * _coshc_prime(t))
    return out


def pv_exact(m, ap):
    """Dawson oracle: PV int m'(alpha)/(alpha - ap) dalpha of the v1 marginal
    of a mixture m (the whole of a 1D one).

    Each term of weight w, v1 mean mu and v1 width s contributes
    w (sqrt(2) y D(y/sqrt(2)) - 1)/s^2 with y = (ap - mu)/s and D the
    Dawson function.
    """
    total = 0.0
    for w, mu, s in ((t.weight, t.mean[0], t.widths[0]) for t in m.terms):
        y = (ap - mu) / s
        total += w * (np.sqrt(2.0) * y * dawsn(y / np.sqrt(2.0)) - 1.0) / s ** 2
    return float(total)
