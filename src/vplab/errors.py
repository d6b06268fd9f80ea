"""Exception types shared across the package, and ``require``, the one
check of every scalar parameter."""

import math

import numpy as np


class VplabError(Exception):
    """Base class for all package errors."""


class ValidationError(VplabError):
    """Invalid argument or object state."""


class BoundaryDecayError(VplabError):
    """Field does not decay at the velocity-grid boundary.

    Carries the offending boundary residual so callers can report it.
    """

    def __init__(self, residual, tol):
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"boundary residual {self.residual:.3e} exceeds {self.tol:.1e}; "
            "aliasing would corrupt the spectral operator")


class UnresolvableBumpError(ValidationError):
    """Requested velocity-space feature is below the grid resolution."""


class RegularityError(ValidationError):
    """Regularity s at or above the critical 1 + 1/p of the distance budget.

    The fractional-norm cost of a modification of size gamma scales like
    gamma^gap with gap = 1 + 1/p - s, so at gap <= 0 no gamma meets a budget.
    """

    def __init__(self, s, p):
        self.s = float(s)
        self.p = float(p)
        self.gap = 1.0 + 1.0 / self.p - self.s
        super().__init__(
            f"regularity s = {self.s:.6g} is not below the critical "
            f"1 + 1/p = {1.0 + 1.0 / self.p:.6g} (gap {self.gap:.3g}); "
            "no modification size meets the distance budget")


class QuadratureConvergenceError(VplabError):
    """An integral failed its refinement-stability check."""


class DegenerateProfileError(VplabError):
    """Projected derivative vanishes identically; critical set undefined."""


class BracketError(VplabError):
    """Period bracket not established for the wave construction."""

    def __init__(self, target, t_lo, t_hi):
        self.target = float(target)
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        super().__init__(
            f"period bracket failure: target {target:.6g} not inside "
            f"[{t_lo:.6g}, {t_hi:.6g}]")


class AmplitudeTooLargeError(VplabError):
    """Orbit amplitude left the center basin of the bifurcation ODE."""


class PenroseUnstableError(VplabError):
    """Profile fails the Penrose stability condition; decay computation refused."""


class RefinementCapError(VplabError):
    """A refinement, of a grid or of an iterate, hit its cap without meeting its tolerance."""


def _finite(x):
    try:
        return math.isfinite(x)
    except TypeError:  # None, a string
        return False


def _count(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


# rule -> predicate; a count is an int or np.integer, never a bool or a float
RULES = {"finite": _finite, "positive": lambda x: x > 0, "nonnegative": lambda x: x >= 0,
         "finite and positive": lambda x: _finite(x) and x > 0,
         "finite and nonnegative": lambda x: _finite(x) and x >= 0,
         "an integer": _count, "an integer >= 1": lambda x: _count(x) and x >= 1,
         "a power of two >= 4": lambda x: _count(x) and x >= 4 and x & (x - 1) == 0}


def require(rule, pairs):
    """Refuse the first (name, value) pair that breaks ``RULES[rule]``, by name."""
    for name, x in pairs:
        if not RULES[rule](x):
            raise ValidationError(f"{name} must be {rule}, got {x}")
