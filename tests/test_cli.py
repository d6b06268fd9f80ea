import json
import subprocess
import sys

import numpy as np
import pytest

from vplab import bgk, container
from vplab.cli import ExperimentConfig, main, run
from vplab.errors import ValidationError


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
        ("simulate", "cadence")])
    def test_unread_key_refused(self, tmp_path, capsys, command, key):
        # keys the command never reads are refused, not silently ignored
        path = write_config(tmp_path, f"command = {command}\n{key} = 1\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert repr(key) in capsys.readouterr().err

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
            capture_output=True, text=True)
        assert proc.returncode == 0
