import json

import numpy as np
import pytest

import vplab.norms as norms_mod
from conftest import cutoff_sigma
from vplab.cli import NORMS, main
from vplab.errors import BoundaryDecayError, ValidationError
from vplab.norms import (
    check_norm_equivalence,
    fractional_wsp_norm,
    hardy_quotient,
    mixed_norm,
    mixed_norm_modes,
    weighted_hsb_norm,
)
from vplab.profiles import VelocityGrid, make_builtin

SQRT_PI = np.sqrt(np.pi)


def _no_work(monkeypatch):
    """Make every norm's first step fail, so a refusal must come before it."""
    def fail(*args):
        raise AssertionError("norm computation started")

    for name in ("check_boundary_decay", "fourier_multiplier", "wsp_pow_separable"):
        monkeypatch.setattr(norms_mod, name, fail)


class TestNormSpec:
    """Each norm refuses the parameters it reads, by name and before any work."""

    def test_mixed_requires_b(self, maxwellian1, grid1, maxwellian2, grid2, monkeypatch):
        modes2 = {(0.0, 0.0): maxwellian2.values}
        assert mixed_norm_modes(modes2, grid2, 0.0, 1.0, 0.3) > 0
        h2 = np.broadcast_to(maxwellian2.values[None], (4,) + grid2.shape)
        h1 = np.broadcast_to(maxwellian1.values[None], (4,) + grid1.shape)
        _no_work(monkeypatch)
        # b > (d - 1)/4: 1/4 in d = 2 and 0 in d = 1; mixed_norm(b = 0.1) was 0.418
        for b in (0.1, 0.25):
            with pytest.raises(ValidationError, match=rf"b > \(d - 1\)/4 = 0.25 in d = 2, "
                                                      rf"got b = {b}"):
                mixed_norm_modes(modes2, grid2, 0.0, 1.0, b)
            with pytest.raises(ValidationError, match="in d = 2"):
                mixed_norm(h2, (2 * np.pi,), grid2, 0.0, 1.0, b)
        for b in (-2.0, 0.0):
            with pytest.raises(ValidationError, match=f"= 0 in d = 1, got b = {b}"):
                mixed_norm(h1, (2 * np.pi,), grid1, 0.0, 1.6, b)

    def test_fractional_ranges(self, maxwellian1, grid1, monkeypatch):
        with pytest.raises(ValidationError, match="supports 0 <= s < 2"):
            fractional_wsp_norm(maxwellian1.values, grid1, 2.0, 2.0)
        _no_work(monkeypatch)
        for p in (1.0, 0.5):
            with pytest.raises(ValidationError, match=f"needs p > 1, got p = {p}"):
                fractional_wsp_norm(maxwellian1.values, grid1, 0.5, p)

    def test_unknown_kind(self, tmp_path, capsys):
        # the norms command reads one table of kinds; the mixed norm needs
        # phase-space modes that a velocity profile does not have
        for kind in ("bogus", "mixed_HsxHsvb"):
            (tmp_path / "n.cfg").write_text(
                f"command = norms\nprofile.name = maxwellian\ngrid.dim = 1\nkind = {kind}\n")
            assert main(["--config", str(tmp_path / "n.cfg"), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"unknown norm kind {kind!r}" in err

    @pytest.mark.parametrize("name", ["s", "s_x", "s_v", "b", "p"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, maxwellian2, grid2, monkeypatch, name, bad):
        # a nan order once gave value NaN with exit 0 from the norms command
        f, modes = maxwellian2.values, {(0.0, 0.0): maxwellian2.values}
        readers = {
            "s": [lambda x: weighted_hsb_norm(f, grid2, x, 0.3),
                  lambda x: fractional_wsp_norm(f, grid2, x, 2.0)],
            "s_x": [lambda x: mixed_norm_modes(modes, grid2, x, 1.0, 0.3)],
            "s_v": [lambda x: mixed_norm_modes(modes, grid2, 0.5, x, 0.3)],
            "b": [lambda x: weighted_hsb_norm(f, grid2, 1.0, x),
                  lambda x: mixed_norm_modes(modes, grid2, 0.5, 1.0, x)],
            "p": [lambda x: fractional_wsp_norm(f, grid2, 0.5, x)],
        }
        _no_work(monkeypatch)
        for norm in readers[name]:
            with pytest.raises(ValidationError, match=f"^{name} must be finite, got {bad}$"):
                norm(bad)

    def test_negative_orders_rejected(self, maxwellian2, grid2, monkeypatch):
        modes = {(0.0, 0.0): maxwellian2.values}
        _no_work(monkeypatch)
        with pytest.raises(ValidationError, match="order s must be nonnegative, got -0.5"):
            weighted_hsb_norm(maxwellian2.values, grid2, -0.5, 0.3)
        for s_x, s_v in ((-1.0, 1.0), (0.5, -0.1)):
            with pytest.raises(ValidationError, match=f"got s_x = {s_x}, s_v = {s_v}"):
                mixed_norm_modes(modes, grid2, s_x, s_v, 0.3)


class TestWeightedHsb:
    def test_zero(self, grid2):
        assert weighted_hsb_norm(np.zeros(grid2.shape), grid2, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("s, b", [(float("nan"), 0.3), (1.0, float("nan")),
                                      (float("inf"), 0.3)])
    def test_non_finite_order_rejected(self, maxwellian2, grid2, s, b):
        name, bad = ("s", s) if not np.isfinite(s) else ("b", b)
        with pytest.raises(ValidationError, match=f"{name} must be finite, got {bad}"):
            weighted_hsb_norm(maxwellian2.values, grid2, s, b)

    def test_gaussian_l2(self, maxwellian2, grid2):
        # closed form: ||(2 pi)^{-1} e^{-|v|^2/2}||_L2 = 1/(2 sqrt(pi))
        val = weighted_hsb_norm(maxwellian2.values, grid2, 0.0, 0.0)
        assert abs(val - 1.0 / (2 * SQRT_PI)) < 1e-12

    def test_s0_weight_is_direct_quadrature(self, maxwellian2, grid2):
        mesh = grid2.mesh()
        w = (1.0 + mesh[0] ** 2 + mesh[1] ** 2) ** 1.0
        direct = np.sqrt(np.sum((w * maxwellian2.values) ** 2) * grid2.cell)
        val = weighted_hsb_norm(maxwellian2.values, grid2, 0.0, 1.0)
        assert abs(val - direct) < 1e-13

    def test_boundary_guard(self, grid1):
        bad = np.ones(grid1.shape)
        with pytest.raises(BoundaryDecayError):
            weighted_hsb_norm(bad, grid1, 1.0, 0.0)

    @pytest.mark.parametrize("side", [0, -1])
    def test_negative_boundary_shell_refused(self, maxwellian2, grid2, side):
        # a shell that is only negative: the guard reads |values|, not values
        bad = maxwellian2.values.copy()
        bad[:, side] = -1e-6
        with pytest.raises(BoundaryDecayError):
            weighted_hsb_norm(bad, grid2, 1.0, 0.5)
        with pytest.raises(BoundaryDecayError):
            weighted_hsb_norm(bad.astype(complex), grid2, 1.0, 0.5)

    @pytest.mark.parametrize("dim, cplx", [(2, False), (1, True), (2, True)])
    def test_matches_mesh_weight_formula(self, dim, cplx, rng):
        # sqrt(sum |(1+|v|^2)^b (1-Lap)^(s/2) f|^2 cell) with the mesh weight
        # and a full complex FFT
        grid = VelocityGrid(dim, 8.0, 128 if dim == 2 else 512)
        mesh = grid.mesh()
        field = np.exp(-sum(m ** 2 for m in mesh) / 2) * (1 + 0.4 * np.sin(2.0 * mesh[0]))
        if cplx:
            field = field * np.exp(1j * rng.uniform(0.5, 2.0) * mesh[0])
        xi = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
        xi2 = sum(k ** 2 for k in np.meshgrid(*[xi] * dim, indexing="ij"))
        for s, b in ((0.0, 0.7), (1.3, 0.4), (2.0, 1.0)):
            smoothed = np.fft.ifftn(np.fft.fftn(field) * (1.0 + xi2) ** (s / 2))
            if not cplx:
                smoothed = smoothed.real
            w = (1.0 + sum(m ** 2 for m in mesh)) ** b
            ref = np.sqrt(np.sum(np.abs(w * smoothed) ** 2) * grid.cell)
            assert abs(weighted_hsb_norm(field, grid, s, b) - ref) <= 1e-13 * ref

    def test_monotone_in_s_and_b(self, maxwellian2, grid2):
        ss = np.linspace(0.0, 2.0, 5)
        bs = np.linspace(0.0, 1.0, 5)
        vals = np.array([[weighted_hsb_norm(maxwellian2.values, grid2, s, b)
                          for b in bs] for s in ss])
        assert np.all(np.diff(vals, axis=0) > 0)
        assert np.all(np.diff(vals, axis=1) > 0)

    @pytest.mark.parametrize("dim, n", [(1, 64), (1, 1024), (2, 32), (2, 256), (3, 16)])
    def test_real_path_matches_complex_path(self, dim, n, rng):
        # rfftn with the half-spectrum symbol against fftn of the same field
        # as complex: a smooth bump, a narrow one and white noise, all under
        # a Gaussian envelope that meets the boundary-decay check
        grid = VelocityGrid(dim, 8.0, n)
        mesh = grid.mesh()
        envelope = np.exp(-sum(m ** 2 for m in mesh))
        phase = sum(rng.uniform(0.5, 3.0) * m for m in mesh)
        fields = (envelope * (1 + 0.5 * np.sin(phase)),
                  envelope * np.exp(-sum((m - 0.3) ** 2 for m in mesh) / 0.02),
                  envelope * rng.standard_normal(grid.shape))
        for field in fields:
            for s, b in ((0.0, 0.0), (0.7, 0.4), (1.6, 0.3), (2.0, 1.0)):
                cplx = weighted_hsb_norm(field.astype(complex), grid, s, b)
                assert abs(weighted_hsb_norm(field, grid, s, b) - cplx) <= 1e-13 * cplx

    def test_homogeneity_and_triangle(self, grid2, rng):
        mesh = grid2.mesh()
        base = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 2)
        for _ in range(3):
            a = base * (1 + 0.3 * np.sin(mesh[0] * rng.uniform(0.5, 2)))
            b = base * (1 + 0.3 * np.cos(mesh[1] * rng.uniform(0.5, 2)))
            lam = rng.uniform(-3, 3)
            na = weighted_hsb_norm(a, grid2, 0.7, 0.4)
            assert abs(weighted_hsb_norm(lam * a, grid2, 0.7, 0.4)
                       - abs(lam) * na) < 1e-12 * max(1, abs(lam)) * na
            nb = weighted_hsb_norm(b, grid2, 0.7, 0.4)
            nab = weighted_hsb_norm(a + b, grid2, 0.7, 0.4)
            assert nab <= na + nb + 1e-12


class TestMixedNorm:
    def test_homogeneous_single_term(self, maxwellian2, grid2):
        nx = 16
        h = np.broadcast_to(maxwellian2.values[None], (nx,) + grid2.shape).copy()
        val = mixed_norm(h, (2 * np.pi,), grid2, 0.7, 1.0, 0.3)
        single = weighted_hsb_norm(maxwellian2.values.astype(complex), grid2,
                                   1.0, 0.3)
        assert abs(val - single) < 1e-12

    def test_single_mode_weight(self, maxwellian2, grid2):
        nx, T1 = 32, 2 * np.pi
        x = T1 / nx * np.arange(nx)
        h = np.cos(3 * x)[:, None, None] * maxwellian2.values[None]
        val = mixed_norm(h, (T1,), grid2, 0.7, 1.0, 0.3)
        g = weighted_hsb_norm(maxwellian2.values.astype(complex) * 0.5, grid2,
                              1.0, 0.3)
        # cos = two modes |k| = 3, coefficients 1/2
        assert abs(val - np.sqrt(2.0 * 9.0 ** 0.7 * g ** 2)) < 1e-12

    def test_pythagorean_two_modes(self, maxwellian2, grid2):
        nx, T1 = 32, 2 * np.pi
        x = T1 / nx * np.arange(nx)
        h1 = np.cos(2 * x)[:, None, None] * maxwellian2.values[None]
        mesh = grid2.mesh()
        other = mesh[0] * maxwellian2.values
        h2 = np.sin(5 * x)[:, None, None] * other[None]
        v1 = mixed_norm(h1, (T1,), grid2, 0.6, 0.8, 0.3)
        v2 = mixed_norm(h2, (T1,), grid2, 0.6, 0.8, 0.3)
        v12 = mixed_norm(h1 + h2, (T1,), grid2, 0.6, 0.8, 0.3)
        assert abs(v12 ** 2 - v1 ** 2 - v2 ** 2) < 1e-12 * v12 ** 2

    def test_modes_dict_agrees(self, maxwellian2, grid2):
        modes = {(0.0, 0.0): maxwellian2.values,
                 (1.0, 0.0): 0.1 * maxwellian2.values}
        val = mixed_norm_modes(modes, grid2, 0.5, 1.0, 0.3)
        g0 = weighted_hsb_norm(maxwellian2.values, grid2, 1.0, 0.3)
        assert abs(val - np.sqrt(g0 ** 2 + (0.1 * g0) ** 2)) < 1e-12


class TestFractional:
    def test_zero(self, grid2):
        assert fractional_wsp_norm(np.zeros(grid2.shape), grid2, 0.7, 2.0) == 0.0

    def test_h1_equivalence_example(self, grid2):
        # at s=1, p=2 the l^p-combined derivative norm equals the Fourier
        # realisation up to quadrature error (well under the 2% contract)
        m = make_builtin("maxwellian", VelocityGrid(2, 8.0, 128))
        w = fractional_wsp_norm(m.values, m.grid, 1.0, 2.0)
        h = weighted_hsb_norm(m.values, m.grid, 1.0, 0.0)
        assert abs(w / h - 1.0) < 0.02

    def test_scaling_sequence_decreases(self):
        # narrow factors f(v1/delta) lose fractional norm as delta -> 0
        g = VelocityGrid(2, 4.0, 256)
        mesh = g.mesh()
        gauss = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 2)
        vals = []
        for n in range(1, 7):
            delta = 2.0 ** (-n)
            f = np.exp(-(mesh[0] / delta) ** 2 / 2)
            vals.append(fractional_wsp_norm(f * gauss, g, 0.3, 2.0))
        assert all(np.diff(vals) < 0)

    def test_unsupported_order(self, grid1, maxwellian1):
        with pytest.raises(ValidationError):
            fractional_wsp_norm(maxwellian1.values, grid1, 2.5, 2.0)


class TestEquivalence:
    def test_s0_trivial(self, maxwellian2, grid2):
        # at s=0 the isotropic-weight variant is literally the definition;
        # the split weight is a different function, so only equivalence holds
        rep = check_norm_equivalence(maxwellian2.values, grid2, 0.0, 0.4)
        assert abs(rep["ratio_iso"] - 1.0) < 1e-12
        assert 1.0 / 3.0 < rep["ratio_split"] < 3.0

    def test_s2_gaussian_family_bracket(self, grid2):
        # conservative engineering brackets (the equivalence constants are
        # not pinned by theory); the split weight has a cusp at v_i = 0 and
        # earns a wider bracket
        mesh = grid2.mesh()
        for w in (0.7, 0.85, 1.0):
            f = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * w ** 2))
            rep = check_norm_equivalence(f, grid2, 2.0, 0.4)
            assert 1.0 / 3.0 < rep["ratio_iso"] < 3.0
            assert 1.0 / 12.0 < rep["ratio_split"] < 12.0

    def test_compact_support_bracket(self, grid2):
        mesh = grid2.mesh()
        r = np.sqrt(mesh[0] ** 2 + mesh[1] ** 2)
        f = np.exp(-r ** 2 * 8) * cutoff_sigma(2 * r)
        b = 0.4
        rep = check_norm_equivalence(f, grid2, 1.0, b)
        # weight bounded between 1 and 2^b on |v| <= 1
        assert 2.0 ** (-b) * 0.5 < rep["ratio_iso"] < 2.0 ** b * 2.0


class TestHardy:
    def test_exact_cancellation(self, grid1):
        v = VelocityGrid(1, 8.0, 4096)
        ax = v.axis()
        u = ax * np.exp(-ax ** 2)
        val = hardy_quotient(u, ax, 0.0)
        assert abs(val - SQRT_PI) < 1e-4

    def test_zero(self, grid1):
        assert hardy_quotient(np.zeros(grid1.shape), grid1.axis(), 0.0) == 0.0

    def test_divergent_rejected(self, grid1):
        ax = grid1.axis()
        with pytest.raises(ValidationError):
            hardy_quotient(np.exp(-ax ** 2), ax, 0.0)

    @pytest.mark.parametrize("v0, shown", [
        (np.nan, "v0 must be finite, got nan"),
        (np.inf, "v0 must be finite, got inf"),
        (100.0, "v0 = 100.0 lies outside the samples"),
    ], ids=["nan", "inf", "outside"])
    def test_v0_outside_samples_rejected(self, grid1, v0, shown):
        # once nan for v0 = nan, 8.2e-28 for inf and 0.0100 for 100
        ax = grid1.axis()
        with pytest.raises(ValidationError, match=shown):
            hardy_quotient(ax * np.exp(-ax ** 2), ax, v0)

    def test_projected_derivative_bound(self, maxwellian2):
        # |f'_e| integrated against 1/(v-v0) at the critical point stays
        # below a refinement-stable multiple of the weighted norm
        from vplab.profiles import project

        vals = []
        for n in (256, 512):
            g = VelocityGrid(2, 8.0, n)
            m = make_builtin("maxwellian", g)
            fp = project(m, (1.0, 0.0))
            u = fp.closure1d.dval(fp.alphas)
            quot = hardy_quotient(u, fp.alphas, 0.0)
            denom = weighted_hsb_norm(m.values, g, 1.6, 0.3)
            vals.append(quot / denom)
        assert abs(vals[0] - vals[1]) < 1e-3 * vals[1]


class TestScalingLemmas:
    # narrow-times-broad sequences decay in the weighted norm; the grid
    # resolves the narrowest factor and the broad factors clear the
    # boundary-decay guard on this box

    def test_weighted_sequence_product(self):
        g = VelocityGrid(2, 4.0, 1024)
        mesh = g.mesh()
        broad = np.exp(-mesh[1] ** 2 / (2 * 0.5 ** 2))
        seq = []
        for n in range(1, 7):
            delta = 2.0 ** (-n)
            f = np.exp(-(mesh[0] / delta) ** 2 / 2) * broad
            seq.append(weighted_hsb_norm(f, g, 0.3, 0.3))
        assert all(np.diff(seq) < 0)
        assert seq[-1] < 0.5 * seq[0]

    def test_weighted_sequence_coupled(self):
        g = VelocityGrid(2, 4.0, 1024)
        mesh = g.mesh()
        broad = np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / (2 * 0.5 ** 2))
        seq = []
        for n in range(1, 7):
            delta = 2.0 ** (-n)
            f = np.exp(-(mesh[0] / delta) ** 2 / 2) * broad
            seq.append(weighted_hsb_norm(f, g, 0.3, 0.3))
        assert all(np.diff(seq) < 0)
        assert seq[-1] < 0.5 * seq[0]


def test_norm_report_shape(tmp_path):
    # the norms command writes one record shape for every kind it knows;
    # params hold the dimension and exactly the keys the kind reads
    given = {"s": 0.5, "b": 0.3, "p": 1.5}
    for kind, (defaults, _) in sorted(NORMS.items()):
        keys = "".join(f"{key} = {given[key]}\n" for key in defaults)
        (tmp_path / "n.cfg").write_text("command = norms\nprofile.name = maxwellian\n"
                                        f"grid.dim = 1\ngrid.n = 256\nkind = {kind}\n{keys}")
        assert main(["--config", str(tmp_path / "n.cfg"), "--out", str(tmp_path / kind)]) == 0
        rec = json.loads((tmp_path / kind / "norm.json").read_text())
        assert set(rec) == {"kind", "params", "value", "error_estimate"}
        assert rec["params"] == {"kind": kind, "dim": 1, **{key: given[key] for key in defaults}}
        assert rec["value"] > 0 and 0 <= rec["error_estimate"] < rec["value"]
        if not defaults:
            # the Riemann sums of a Gaussian on every second point agree to
            # rounding, so the L1 kinds' estimate is no longer 0 by fiat but near it
            assert rec["error_estimate"] < 1e-12 * rec["value"]
