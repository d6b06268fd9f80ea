import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vplab
from vplab import bgk, container, sim
from vplab.cli import ExperimentConfig, main, run
from vplab.errors import ValidationError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


PENROSE_STABLE = """
command = penrose
profile.name = maxwellian
grid.dim = 2
grid.n = 128
grid.vmax = 8.0
periods = 6.283185307179586,6.283185307179586
s = 1.6
b = 0.3
"""

PENROSE_UNSTABLE = """
command = penrose
profile.name = double_bump
profile.v0 = 3.0
grid.dim = 2
grid.n = 256
grid.vmax = 12.0
periods = 24.0,24.0
s = 1.6
b = 0.3
"""


class TestConfig:
    def test_parse_and_hash(self, tmp_path):
        path = write_config(tmp_path, PENROSE_STABLE)
        cfg = ExperimentConfig.parse(path)
        assert cfg.command == "penrose"
        h1 = cfg.hash()
        cfg2 = ExperimentConfig.parse(write_config(
            tmp_path, PENROSE_STABLE.replace("s = 1.6", "s = 1.7"), "b.cfg"))
        assert cfg2.hash() != h1
        cfg3 = ExperimentConfig.parse(write_config(
            tmp_path, PENROSE_STABLE + "# a comment\n", "c.cfg"))
        assert cfg3.hash() == h1  # comments do not enter the hash

    @pytest.mark.parametrize("command,key", [
        ("bgk-build", "v0"), ("linear-decay", "periods"), ("linear-decay", "b"),
        ("simulate", "cadence"), ("norms", "s_x")])
    def test_unread_key_refused(self, tmp_path, capsys, command, key):
        # keys the command never reads are refused, not silently ignored
        path = write_config(tmp_path, f"command = {command}\n{key} = 1\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [("profile.v0",), ("profile.width",),
                                      ("profile.v0", "profile.width")])
    def test_maxwellian_refuses_bump_keys(self, tmp_path, capsys, keys):
        # a Maxwellian once ran with both keys ignored, though the hash saw them
        extra = "".join(f"{key} = {value}\n" for key, value in zip(keys, ("2.5", "0.3")))
        path = write_config(tmp_path, PENROSE_STABLE + extra)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'maxwellian'" in err
        assert all(repr(key) in err for key in keys)

    def test_schema_violation_lists_keys(self, tmp_path):
        path = write_config(tmp_path, PENROSE_STABLE + "bogus.key = 1\n")
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.parse(path)
        assert "bogus.key" in str(err.value)

    def test_seed_key_refused(self, tmp_path):
        # no experiment draws from a global generator, so there is no seed
        path = write_config(tmp_path, PENROSE_STABLE + "seed = 1\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("key,value", [("grid.n", "abc"), ("periods", "6.28,x")])
    def test_uncastable_value_exit1(self, tmp_path, capsys, key, value):
        # a value that will not cast is a configuration error, not a traceback
        text = "".join(line + "\n" for line in PENROSE_STABLE.splitlines()
                       if not line.startswith(key)) + f"{key} = {value}\n"
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(key) in err and repr(value) in err

    @pytest.mark.parametrize("width", ["-1", "0", "nan"])
    def test_nonpositive_width_exit1(self, tmp_path, capsys, width):
        path = write_config(tmp_path, PENROSE_UNSTABLE + f"profile.width = {width}\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"width must be finite and positive, got {float(width)}" in err

    @pytest.mark.parametrize("periods, shown", [("nan,6.28", "nan"), ("inf,6.28", "inf")])
    def test_non_finite_periods_exit1(self, tmp_path, capsys, periods, shown):
        # nan once raised a ValueError traceback and inf a ZeroDivisionError
        text = PENROSE_STABLE.replace("periods = 6.283185307179586,6.283185307179586",
                                      f"periods = {periods}")
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"periods must be finite and positive, got ({shown}, 6.28)" in err

    @pytest.mark.parametrize("key, value", [("kmag", "nan"), ("kmag", "inf"),
                                            ("t_end", "nan"), ("t_end", "inf"),
                                            ("s_v", "nan")])
    def test_non_finite_linear_decay_exit1(self, tmp_path, capsys, key, value):
        # kmag = nan (inf) once raised a ValueError (OverflowError) traceback,
        # and s_v = nan wrote norm NaN with exit 0
        text = f"""
command = linear-decay
profile.name = maxwellian
grid.dim = 1
grid.n = 512
{key} = {value}
"""
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "must be finite" in err and f"got {value}" in err

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_exit1(self, tmp_path, capsys, amplitude):
        # amplitude = nan once ran four refinement rounds into "truncation
        # error nan", and inf printed RuntimeWarnings from the transform
        text = f"""
command = linear-decay
profile.name = maxwellian
grid.dim = 1
grid.n = 512
amplitude = {amplitude}
"""
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mode datum must be finite, got ")
        assert "of 512 samples" in err

    @pytest.mark.parametrize("vmax", ["nan", "inf"])
    def test_non_finite_vmax_exit1(self, tmp_path, capsys, vmax):
        # once exit 0 with stable: true, B: 0.0 and no entries
        text = (PENROSE_STABLE.replace("grid.dim = 2", "grid.dim = 1")
                .replace("grid.vmax = 8.0", f"grid.vmax = {vmax}")
                .replace("periods = 6.283185307179586,6.283185307179586", "periods = 6.28"))
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"vmax must be finite and positive, got {vmax}" in err

    @pytest.mark.parametrize("key, value, shown", [
        ("dt", "nan", "dt must be finite and positive, got nan"),
        ("t_end", "nan", "t_end must be finite, got nan"),
        ("t_end", "inf", "t_end must be finite, got inf"),
        ("T1", "nan", "T1 must be finite and positive, got nan"),
        ("T1", "-5", "T1 must be finite and positive, got -5.0"),
        ("amplitude", "nan", "amplitude must be finite, got nan"),
        ("s_x", "nan", "s_x must be finite, got nan"),
        ("s_v", "nan", "s_v must be finite, got nan"),
        ("b", "nan", "b must be finite, got nan"),
        ("b", "-2", "b > (d - 1)/4 = 0 in d = 1, got b = -2.0"),
    ])
    def test_bad_simulate_scalar_exit1(self, tmp_path, capsys, key, value, shown):
        # once tracebacks (dt, t_end), a Penrose refusal (T1 = nan), the
        # splitting guard's name (T1 = -5), an all-NaN summary (amplitude),
        # a NaN norm in summary.json (s_x = nan) and exit 0 (b = -2)
        values = {"T1": "12.566370614359172", "dt": "0.05", "t_end": "0.5",
                  "amplitude": "1e-3", key: value}
        text = ("command = simulate\nprofile.name = maxwellian\ngrid.dim = 1\n"
                "grid.n = 64\ngrid.vmax = 9.0\nNx = 16\n"
                + "".join(f"{k} = {v}\n" for k, v in values.items()))
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert shown in err

    @pytest.mark.parametrize("lines, shown", [
        ("T1 = -1\neps = 0.1", "period T1 must be finite and positive, got -1.0"),
        ("eps = nan", "eps must be finite, got nan"),
        ("r = nan", "r must be finite, got nan"),
        ("gamma = inf\nr = 1e-3", "gamma must be finite, got inf"),
        ("eps = -0.1", "eps must be positive, got -0.1"),
        ("eps = 0.5\ngamma = -3", "gamma must be positive, got -3.0"),
        ("r = 0", "r must be positive, got 0.0"),
        ("eps = 0.5\ngamma = 0.05", "eps = 0.5 and gamma = 0.05 given together"),
    ])
    def test_bad_bgk_build_scalar_exit1(self, tmp_path, capsys, lines, shown):
        # once a math domain error (T1 = -1), a 3 s search (eps = nan), the
        # bracket [nan, nan] (r = nan, gamma = inf), "give either eps or an
        # explicit amplitude r" (eps = -0.1) and exit 0 without gamma = -3 or 0.05
        text = ("command = bgk-build\nprofile.name = maxwellian\ngrid.dim = 2\n"
                f"grid.n = 128\ngrid.vmax = 8.0\n{lines}\n")
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert shown in err

    @pytest.mark.parametrize("kind,key,shown", [
        pytest.param("weighted_Hsb", "s", "s must be finite, got nan", id="s"),
        pytest.param("weighted_Hsb", "b", "b must be finite, got nan", id="b"),
        ("fractional_Wsp", "p", "p must be finite, got nan"),
        ("weighted_Hsb", "p", "not read by norm kind 'weighted_Hsb': ['p']"),
        ("L1", "s", "not read by norm kind 'L1': ['s']"),
        ("weighted_L1_second_moment", "b",
         "not read by norm kind 'weighted_L1_second_moment': ['b']"),
    ])
    def test_nan_norm_order_exit1(self, tmp_path, capsys, kind, key, shown):
        # once value NaN with exit 0, and later NaN in the params of a kind
        # that does not read the key
        text = (f"command = norms\nprofile.name = maxwellian\ngrid.dim = 1\n"
                f"kind = {kind}\n{key} = nan\n")
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert shown in err

    @pytest.mark.parametrize("extra, key, lines", [
        ("s = 1.6", "s", (8, 10)), ("command = norms", "command", (2, 10))])
    def test_repeated_key_exit1(self, tmp_path, capsys, extra, key, lines):
        # the last of two lines once won silently, and the hash saw only it
        path = write_config(tmp_path, PENROSE_STABLE.replace("s = 1.6", "s = 1.0")
                            + extra + "\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"key {key!r} set twice, on lines {lines[0]} and {lines[1]}" in err

    @pytest.mark.parametrize("key, value", [("s", "inf"), ("b", "inf"), ("s", "nan")])
    def test_non_finite_penrose_order_exit1(self, tmp_path, capsys, key, value):
        # s = b = inf once ran to "stable=True" with exit 0
        text = "".join(line + "\n" for line in PENROSE_STABLE.splitlines()
                       if not line.startswith(f"{key} =")) + f"{key} = {value}\n"
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{key} must be finite, got {value}" in err

    def test_missing_command(self, tmp_path):
        with pytest.raises(ValidationError):
            ExperimentConfig.parse(write_config(tmp_path, "s = 1.6\n"))


class TestRun:
    def test_penrose_stable_exit0(self, tmp_path):
        cfg = ExperimentConfig.parse(write_config(tmp_path, PENROSE_STABLE))
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        report = json.loads((out / "penrose.json").read_text())
        assert report["stable"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.hash()
        assert manifest["versions"]["vplab"] == vplab.__version__

    def test_zero_threads_exit1(self, tmp_path, capsys, monkeypatch):
        # --threads 0 once ran one FFT worker without a word
        monkeypatch.setattr(sim, "FFT_WORKERS", 1)
        path = write_config(tmp_path, PENROSE_STABLE)
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "--threads", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "FFT workers must be an integer >= 1, got 0" in err

    @pytest.mark.parametrize("text, flags, shown", [
        (PENROSE_STABLE, ["--threads", "0"], "FFT workers must be an integer >= 1, got 0"),
        ("command = bgk-build\nprofile.name = maxwellian\ngrid.dim = 2\ngrid.n = 128\n"
         "eps = 0.5\ngamma = 0.05\n", [], "eps = 0.5 and gamma = 0.05 given together"),
        ("command = norms\nprofile.name = maxwellian\ngrid.dim = 1\nkind = H1\n", [],
         "unknown norm kind 'H1'"),
    ], ids=["zero-threads", "eps-and-gamma", "unknown-norm"])
    def test_refused_run_leaves_no_directory(self, tmp_path, capsys, monkeypatch,
                                             text, flags, shown):
        # the output directory was once made before any check, so a refused
        # run left it behind empty
        monkeypatch.setattr(sim, "FFT_WORKERS", 1)
        out = tmp_path / "o"
        assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]
                    + flags) == 1
        assert shown in capsys.readouterr().err
        assert not out.exists()

    def test_penrose_unstable_exit2(self, tmp_path):
        cfg = ExperimentConfig.parse(write_config(tmp_path, PENROSE_UNSTABLE))
        assert run(cfg, tmp_path / "out") == 2

    def test_bgk_build_invalid_amplitude_exit1(self, tmp_path, capsys):
        text = """
command = bgk-build
profile.name = maxwellian
grid.dim = 2
grid.n = 128
grid.vmax = 8.0
T1 = 6.283185307179586
gamma = 0.05
r = 1.0
"""
        # amplitude far beyond the admissible range of the narrow feature;
        # n = 128 passes the profile's tail check, so the refusal is the
        # amplitude's own
        path = write_config(tmp_path, text)
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "admissible range" in capsys.readouterr().err

    def test_bgk_build_travel_speed_exit1(self, tmp_path, capsys):
        text = """
command = bgk-build
profile.name = maxwellian
grid.dim = 2
grid.n = 128
grid.vmax = 8.0
T1 = 6.283185307179586
c = 0.5
gamma = 0.1
r = 1e-3
"""
        path = write_config(tmp_path, text)
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "travel speed c = 0.5" in capsys.readouterr().err

    def test_bgk_build_large_offset_double_bump_exit0(self, tmp_path):
        # offset ratio v0/width = 25: cosh(sqrt(y) v0/w^2) once overflowed on
        # the Taylor circle of the unit kernel, and the NaN coefficients
        # surfaced as "turning points not converged in 100 Brent steps"
        text = """
command = bgk-build
profile.name = double_bump
profile.v0 = 3
profile.width = 0.12
grid.dim = 1
grid.n = 512
eps = 0.1
"""
        cfg = ExperimentConfig.parse(write_config(tmp_path, text))
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["closeness"]["total"] < 0.1

    def test_bgk_build_manifest_residuals(self, tmp_path):
        text = """
command = bgk-build
profile.name = maxwellian
grid.dim = 2
grid.n = 128
grid.vmax = 8.0
T1 = 6.283185307179586
gamma = 0.1
r = 1e-3
"""
        cfg = ExperimentConfig.parse(write_config(tmp_path, text))
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["poisson_residual"] <= 1e-7
        assert manifest["relative_poisson_residual"] <= 1e-6
        assert manifest["tolerances"]["period_tol_rel"] == bgk.PERIOD_TOL_REL
        # the field's size and the narrowest feature show a roundoff-scale wave
        for key in ("max_abs_efield", "feature_width"):
            assert np.isfinite(manifest[key])

    def test_linear_decay_unstable_exit2(self, tmp_path):
        text = """
command = linear-decay
profile.name = double_bump
profile.v0 = 3.0
grid.dim = 1
grid.n = 512
grid.vmax = 12.0
kmag = 0.26179938779914946
t_end = 10.0
amplitude = 1e-3
"""
        path = write_config(tmp_path, text)
        code = main(["--config", str(path), "--out", str(tmp_path / "o2")])
        assert code == 2

    def test_linear_decay_defaults_exit0(self, tmp_path):
        # the default t_end must cover the weighted integral of the default
        # k = 0.5 mode, so a stable profile runs on defaults alone
        text = """
command = linear-decay
profile.name = maxwellian
grid.dim = 1
grid.n = 512
"""
        path = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "decay.json").read_text())
        assert np.isfinite(report["norm"]) and report["norm"] > 0

    def test_rerun_bit_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, PENROSE_STABLE)
        outs = []
        for name in ("o1", "o2"):
            code = main(["--config", str(cfg_path), "--out",
                         str(tmp_path / name)])
            assert code == 0
            outs.append((tmp_path / name / "penrose.json").read_bytes())
        assert outs[0] == outs[1]

    def test_norms_command(self, tmp_path):
        text = """
command = norms
profile.name = maxwellian
grid.dim = 2
grid.n = 128
grid.vmax = 8.0
kind = weighted_Hsb
s = 1.0
b = 0.3
"""
        path = write_config(tmp_path, text)
        out = tmp_path / "o3"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        rec = json.loads((out / "norm.json").read_text())
        assert rec["kind"] == "weighted_Hsb"
        assert rec["params"] == {"kind": "weighted_Hsb", "dim": 2, "s": 1.0, "b": 0.3}
        assert rec["value"] > 0
        assert rec["error_estimate"] < 1e-8 * rec["value"] + 1e-12

    def test_simulate_smoke(self, tmp_path):
        text = """
command = simulate
profile.name = maxwellian
grid.dim = 1
grid.n = 256
grid.vmax = 8.0
T1 = 12.566370614359172
Nx = 64
dt = 0.05
t_end = 2.0
amplitude = 1e-3
s_x = 0.0
s_v = 1.6
b = 0.3
"""
        path = write_config(tmp_path, text)
        out = tmp_path / "o4"
        assert main(["--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["identity_residual"] < 1e-5
        assert (out / "diagnostics.csv").exists()
        header, payloads = container._read_blob(out / "final_state.vplb")
        assert header["kind"] == "profile"
        assert (header["dim"], header["n"], header["vmax"]) == (1, 256, 8.0)
        assert header["meta"]["provenance"] == "simulation-final-xmean"
        final = payloads["values"]
        assert final.shape == (256,)
        assert np.all(np.isfinite(final)) and np.all(final >= 0.0)

    @pytest.mark.parametrize("t_end,code", [(0.5, 0), (0.02, 1)])
    def test_simulate_summary_and_zero_steps(self, tmp_path, capsys, t_end, code):
        # a t_end below dt/2 takes no step: exit 1 with the step count,
        # not a traceback; a run writes the rank at its one output
        text = f"""
command = simulate
profile.name = maxwellian
grid.dim = 1
grid.n = 64
grid.vmax = 9.0
T1 = 12.566370614359172
Nx = 16
dt = 0.05
t_end = {t_end}
"""
        out = tmp_path / "o6"
        assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == code
        if code:
            assert "n_steps = 0" in capsys.readouterr().err
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["ranks"] == [1] and summary["refactors"] == 0

    @pytest.mark.parametrize("tol", [None, "MASS_TOL_PER_STEP", "ENERGY_REL_TOL"])
    def test_simulate_conservation_gate(self, tmp_path, capsys, monkeypatch, tol):
        # the manifest's tolerances are checked: the drifts go to summary.json,
        # and a drift above either one exits 1 naming both numbers
        text = """
command = simulate
profile.name = maxwellian
grid.dim = 1
grid.n = 64
grid.vmax = 9.0
T1 = 12.566370614359172
Nx = 16
dt = 0.05
t_end = 0.5
"""
        if tol:  # below any drift: this run's mass drift can be exactly 0
            monkeypatch.setattr(sim, tol, -1.0)
        out = tmp_path / "o8"
        code = main(["--config", str(write_config(tmp_path, text)), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        mass, energy = summary["mass_drift_per_step"], summary["energy_drift_rel"]
        if tol is None:
            assert code == 0 and mass <= sim.MASS_TOL_PER_STEP and energy <= sim.ENERGY_REL_TOL
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["tolerances"] == {"mass_tol_per_step": 1e-10, "energy_rel_tol": 1e-6}
        else:
            err = capsys.readouterr().err
            assert code == 1 and f"mass {mass:.3e}" in err and f"energy {energy:.3e}" in err
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("t_end", [0.05, 0.1, 0.15, 0.2])
    def test_simulate_too_few_steps_exit1(self, tmp_path, capsys, t_end):
        text = f"""
command = simulate
profile.name = maxwellian
grid.dim = 1
grid.n = 64
grid.vmax = 9.0
T1 = 12.566370614359172
Nx = 16
dt = 0.05
t_end = {t_end}
"""
        out = tmp_path / "o7"
        assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        assert f"n_steps = {round(t_end / 0.05)}: t_end = {t_end:g}" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path, PENROSE_STABLE)
        proc = subprocess.run(
            [sys.executable, "-m", "vplab", "--config", str(cfg_path),
             "--out", str(tmp_path / "o5")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0
