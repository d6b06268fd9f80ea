import numpy as np
import pytest
from hypothesis import settings
from scipy.special import dawsn

from vplab.profiles import VelocityGrid, make_builtin, smooth_step

# one hypothesis profile for every property test: timings on shared
# machines vary, so no per-example deadline; a failure prints its blob
settings.register_profile("vplab", deadline=None, print_blob=True)
settings.load_profile("vplab")


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


def pv_exact(m, ap):
    """Dawson oracle: PV int m'(alpha)/(alpha - ap) dalpha of a 1D mixture m.

    Each Gaussian component of weight w, centre mu and width s contributes
    w (sqrt(2) y D(y/sqrt(2)) - 1)/s^2 with y = (ap - mu)/s and D the
    Dawson function.
    """
    total = 0.0
    for w, mu, s in m.comps:
        y = (ap - mu) / s
        total += w * (np.sqrt(2.0) * y * dawsn(y / np.sqrt(2.0)) - 1.0) / s ** 2
    return float(total)
