"""Batch front-end: reproducible experiments from key-value config files.

Config format: one ``key = value`` per line, ``#`` comments; dotted keys
group parameters (profile.name, grid.n, ...).  Artifacts are written with
a manifest recording the config hash, package and library versions, and
the tolerances in force.  Exit codes: 0 success, 2 scientific refusal
(Penrose-unstable input where stability is required, or an unstable
penrose verdict), 1 validation or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, container
from .errors import PenroseUnstableError, ValidationError, VplabError
from .norms import fractional_wsp_norm, weighted_hsb_norm
from .penrose import MARGIN_TOL, DualLattice, penrose_check
from .profiles import VelocityGrid, make_builtin, project
from . import linear as linear_mod
from . import sim as sim_mod
from .bgk import PERIOD_TOL_REL, POISSON_RESIDUAL_TOL, build_wave

PROFILE_KEYS = {"profile.name", "profile.v0", "profile.width",
                "grid.n", "grid.vmax", "grid.dim"}

# kind -> (the config keys it reads, with their defaults; norm(values, grid, **keys))
NORMS = {
    "weighted_Hsb": ({"s": 0.0, "b": 0.0}, weighted_hsb_norm),
    "fractional_Wsp": ({"s": 0.0, "p": 2.0}, fractional_wsp_norm),
    "L1": ({}, lambda f, grid: float(np.sum(np.abs(f))) * grid.cell),
    "weighted_L1_second_moment": ({}, lambda f, grid: float(
        np.sum(np.abs(f) * sum(m ** 2 for m in grid.mesh()))) * grid.cell),
}


class ExperimentConfig:
    """Validated flat key-value configuration with a stable hash."""

    SCHEMAS = {command: PROFILE_KEYS | keys for command, keys in {
        "penrose": {"periods", "s", "b"},
        "bgk-build": {"T1", "c", "eps", "gamma", "r"},
        "linear-decay": {"kmag", "s_x", "s_v", "t_end", "amplitude"},
        "simulate": {"T1", "Nx", "dt", "t_end", "amplitude", "mode", "s_x", "s_v", "b"},
        "norms": {"kind", "s", "b", "p"},
    }.items()}

    def __init__(self, command, values):
        if command not in self.SCHEMAS:
            raise ValidationError(f"unknown command {command!r}")
        bad = sorted(set(values) - self.SCHEMAS[command])
        if bad:
            raise ValidationError(f"config keys not in the {command} schema: {bad}")
        self.command = command
        self.values = dict(values)

    @classmethod
    def parse(cls, path):
        values = {}
        command = None
        first_line = {}
        with open(path) as fh:
            text = fh.read()
        for line_no, line in enumerate(text.splitlines(), 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValidationError(f"{path}:{line_no}: expected key = value")
            key, val = (part.strip() for part in body.split("=", 1))
            if key in first_line:
                raise ValidationError(f"{path}: key {key!r} set twice, on lines "
                                      f"{first_line[key]} and {line_no}")
            first_line[key] = line_no
            if key == "command":
                command = val
            else:
                values[key] = val
        if command is None:
            raise ValidationError(f"{path}: missing 'command = <name>' line")
        return cls(command, values)

    def get(self, key, default=None, cast=str):
        if key not in self.values:
            if default is None:
                raise ValidationError(f"missing config key {key!r}")
            return default
        try:
            return cast(self.values[key])
        except ValueError as exc:
            raise ValidationError(f"config key {key!r} = {self.values[key]!r}: {exc}") from None

    def hash(self):
        canon = self.command + "\n" + "\n".join(
            f"{k}={self.values[k]}" for k in sorted(self.values))
        return hashlib.sha256(canon.encode()).hexdigest()


def _profile_from(config):
    dim = config.get("grid.dim", 1, int)
    grid = VelocityGrid(dim, config.get("grid.vmax", 8.0, float),
                        config.get("grid.n", 256, int))
    name = config.get("profile.name", "maxwellian")
    unread = sorted({"profile.v0", "profile.width"} & set(config.values))
    if unread and name not in ("double_bump", "product"):
        raise ValidationError(f"config keys not read by profile {name!r}: {unread}")
    bump = {"v0": config.get("profile.v0", 3.0, float),
            "width": config.get("profile.width", 1.0, float)}
    params = {"double_bump": bump,
              "product": {"factors": [("double_bump", bump)]
                          + [("gaussian", {"width": 1.0})] * (dim - 1)}}
    return make_builtin(name, grid, **params.get(name, {}))


def _write_manifest(outdir, config, tolerances, extra=None):
    manifest = {
        "config_hash": config.hash(),
        "command": config.command,
        "config": config.values,
        "versions": {
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "vplab": __version__,
        },
        "tolerances": tolerances,
    }
    if extra:
        manifest.update(extra)
    container.write_json(os.path.join(outdir, "manifest.json"), manifest)


def run(config, outdir, threads=1, verbose=False):
    """Execute one experiment; returns the process exit code."""
    os.makedirs(outdir, exist_ok=True)
    sim_mod.set_fft_workers(threads)
    profile = _profile_from(config)

    if config.command == "penrose":
        periods = config.get("periods", cast=lambda t: tuple(map(float, t.split(","))))
        report = penrose_check(profile, DualLattice(periods),
                               config.get("s", 1.6, float),
                               config.get("b", 0.3, float), threads=threads)
        container.write_json(os.path.join(outdir, "penrose.json"),
                             report.to_json())
        _write_manifest(outdir, config, {"margin_tol": MARGIN_TOL})
        if verbose:
            print(f"stable={report.stable} B={report.bound:.4g} "
                  f"entries={len(report.entries)}")
        return 0 if report.stable else 2

    if config.command == "bgk-build":
        t1 = config.get("T1", 6.283185307179586, float)
        given = {k: config.get(k, cast=float) for k in ("eps", "gamma", "r")
                 if k in config.values}
        wave, rep = build_wave(profile, t1, c=config.get("c", 0.0, float), **given)
        container.save_wave(os.path.join(outdir, "wave.vplb"), wave)
        container.wave_to_csv(os.path.join(outdir, "wave.csv"), wave)
        resid = wave.poisson_residual()
        _write_manifest(outdir, config, {
            "period_tol_rel": PERIOD_TOL_REL, "poisson_residual_tol": POISSON_RESIDUAL_TOL},
            extra={"closeness": rep.to_json(), "provenance": {
                k: v for k, v in wave.provenance.items()
                if k != "bisection_widths"},
                "poisson_residual": resid,
                "relative_poisson_residual": wave.relative_poisson_residual(),
                "max_abs_efield": float(np.max(np.abs(wave.efield))),
                "feature_width": wave.mp.bump_width})
        if verbose:
            print(f"distance bound {rep.total:.4g}; residual {resid:.2e}")
        return 0

    if config.command == "linear-decay":
        kmag = config.get("kmag", 0.5, float)
        direction = tuple([1.0] + [0.0] * (profile.grid.dim - 1))
        fp = project(profile, direction)
        datum = linear_mod.Datum1D(
            fp.alphas, config.get("amplitude", 1e-3, float) * fp.values)
        series = linear_mod.efield_mode(kmag, fp, datum,
                                        config.get("t_end", 80.0, float),
                                        kvec=(kmag,) + (0.0,) * (profile.grid.dim - 1))
        hist = linear_mod.FieldHistory()
        hist.add(series)
        s_v = config.get("s_v", 1.6, float)
        value = hist.decay_norm(config.get("s_x", 0.0, float), s_v)
        datum_norm = weighted_hsb_norm(np.asarray(datum.values.real), VelocityGrid(
            1, profile.grid.vmax, profile.grid.n), s_v, 0.0)
        container.write_csv(
            os.path.join(outdir, f"mode_k{kmag:g}.csv"),
            ["t", "re_E", "im_E", "abs_E"],
            [series.t, series.values.real, series.values.imag,
             np.abs(series.values)])
        container.write_json(os.path.join(outdir, "decay.json"), {
            "s_x": config.get("s_x", 0.0, float),
            "s_v": s_v,
            "norm": value,
            "fitted_C0": value / datum_norm if datum_norm > 0 else 0.0,
            "poisson_relerr": series.poisson_relerr,
            "truncation_error": series.truncation_error,
        })
        _write_manifest(outdir, config, {"window_tol": linear_mod.WINDOW_TOL})
        return 0

    if config.command == "simulate":
        grid = sim_mod.PhaseGrid(config.get("T1", 12.566370614359172, float),
                                 config.get("Nx", 128, int), profile.grid,
                                 config.get("dt", 0.02, float))
        report = sim_mod.run_decay_experiment(
            profile, grid, config.get("amplitude", 1e-3, float),
            config.get("s_x", 0.0, float), config.get("s_v", 1.6, float),
            config.get("b", 0.3, float), config.get("t_end", 20.0, float),
            mode=config.get("mode", 1, int))
        arrays = report.log.arrays()
        container.write_csv(
            os.path.join(outdir, "diagnostics.csv"),
            ["t", "mass", "kinetic", "e_l2sq", "e_hs", "je", "energy"],
            [arrays[k] for k in ("t_mid", "mass", "kinetic", "e_l2sq",
                                 "e_hs", "je", "energy")])
        last = sorted(report.log.snapshots)[-1]
        snap = report.log.snapshots[last]
        container.save_profile(os.path.join(outdir, "final_state.vplb"),
                               profile.grid, snap.f.mean(axis=0),
                               {"provenance": "simulation-final-xmean"})
        container.write_json(os.path.join(outdir, "summary.json"), {
            "final_over_max": report.final_over_max,
            "weighted_integral": report.weighted_integral_full,
            "growth_fraction": report.growth_fraction,
            "identity_residual": report.identity_residual,
            "perturbation_norm": report.perturbation_norm,
            "clipped_mass": snap.clipped_mass,
            "ranks": report.log.ranks,
            "refactors": report.log.refactors,
        })
        _write_manifest(outdir, config, {
            "mass_tol_per_step": 1e-10, "energy_rel_tol": 1e-6})
        return 0

    if config.command == "norms":
        kind = config.get("kind", "weighted_Hsb")
        if kind not in NORMS:
            raise ValidationError(f"unknown norm kind {kind!r}; known: {sorted(NORMS)}")
        defaults, norm = NORMS[kind]
        bad = sorted(set(config.values) - PROFILE_KEYS - {"kind"} - set(defaults))
        if bad:
            raise ValidationError(f"config keys not read by norm kind {kind!r}: {bad}")
        params = {key: config.get(key, default, float) for key, default in defaults.items()}
        grid = profile.grid
        value = norm(profile.values, grid, **params)
        coarse = norm(profile.values[(slice(None, None, 2),) * grid.dim],
                      grid.coarsened(), **params)
        rec = {"kind": kind, "params": {"kind": kind, "dim": grid.dim, **params},
               "value": float(value), "error_estimate": float(abs(value - coarse))}
        container.write_json(os.path.join(outdir, "norm.json"), rec)
        _write_manifest(outdir, config, {})
        if verbose:
            print(json.dumps(rec))
        return 0

    raise ValidationError(f"unhandled command {config.command}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vplab", description="kinetic-equilibrium numerical laboratory")
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.parse(args.config)
        return run(config, args.out, threads=args.threads, verbose=args.verbose)
    except PenroseUnstableError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (VplabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
