import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vplab.closeness import _GAG_BAND, gagliardo_pow


def gagliardo_double_sum(vals, h, order, p, axis):
    """Oracle: sum over every ordered pair (i, j), i != j, along the axis."""
    v = np.moveaxis(np.asarray(vals, dtype=float), axis, 0)
    n = v.shape[0]
    v = v.reshape(n, -1)
    gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    np.fill_diagonal(gap, np.inf)
    kernel = (gap * h) ** -(1.0 + order * p)
    diffs = np.abs(v[:, None, :] - v[None, :, :]) ** p
    return float(np.sum(kernel[:, :, None] * diffs)) * h * h


def _field(kind, n, cols, rng):
    i = np.arange(n)[:, None]
    if kind == "noise":
        return rng.standard_normal((n, cols))
    if kind == "walk":
        return np.cumsum(rng.standard_normal((n, cols)), axis=0)
    if kind == "bump":
        width = rng.uniform(n / 50.0, n / 4.0) + 1.0
        centre = rng.uniform(0.0, n)
        return np.exp(-((i - centre) / width) ** 2 / 2) * rng.uniform(0.5, 2.0, cols)
    # near-constant: differences around 1e-9 on a level of order one
    return 1.0 + 1e-9 * rng.standard_normal((n, cols))


class TestGagliardo:
    @settings(max_examples=80)
    @given(n=st.one_of(st.integers(2, _GAG_BAND + 2), st.integers(2, 600)),
           cols=st.integers(0, 5), axis=st.sampled_from((0, 1)),
           kind=st.sampled_from(("noise", "walk", "bump", "near_constant")),
           order=st.floats(0.05, 0.95), p=st.sampled_from((2.0, 1.5)),
           h=st.floats(1e-3, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_against_double_sum(self, n, cols, axis, kind, order, p, h, seed):
        vals = _field(kind, n, max(cols, 1), np.random.default_rng(seed))
        if cols == 0:
            vals, axis = vals[:, 0], 0
        elif axis == 1:
            vals = vals.T
        exact = gagliardo_double_sum(vals, h, order, p, axis)
        ours = gagliardo_pow(vals, h, order, p, axis)
        assert abs(ours - exact) <= 1e-12 * exact

    def test_constant_and_single_point(self):
        assert gagliardo_pow(np.full(300, 2.5), 0.1, 0.5, 2.0) == 0.0
        assert gagliardo_pow(np.array([1.0]), 0.1, 0.5, 2.0) == 0.0
