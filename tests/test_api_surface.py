"""Every settable default in the package is on a reviewed list.

A keyword default that no caller varies is a configuration nobody runs.
This test reads ``src/vplab/*.py`` with ``ast`` (it imports none of them)
and collects ``module.qualname:param`` for every defaulted parameter and
every ``*args``/``**kwargs``; the set must equal ``KNOBS``.  A change that
adds a knob adds it here, where review sees it; one that removes a knob
removes it here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vplab"

KNOBS = {
    "bgk.select_case:check",
    "bgk.build_modified:v0",
    "bgk.hprime0_centered:scale",
    "bgk.BgkWave.f_eval:*trans",
    "bgk.BgkWave.sample_phase_space:*trans_axes",
    "bgk.match_period:case",
    "bgk.match_period:v0",
    "bgk.match_period:delta_bracket",
    "bgk.match_period:c",
    "bgk.obstruction_fixed_point:beta0",
    "bgk.build_wave:c",
    "bgk.build_wave:eps",
    "bgk.build_wave:s",
    "bgk.build_wave:p",
    "bgk.build_wave:gamma",
    "bgk.build_wave:r",
    "cli.ExperimentConfig.get:default",
    "cli.ExperimentConfig.get:cast",
    "cli._write_manifest:extra",
    "cli.run:threads",
    "cli.run:verbose",
    "cli.main:argv",
    "closeness.gagliardo_pow:axis",
    "closeness.fd_derivative:axis",
    "closeness.modified_profile_distance:s",
    "closeness.modified_profile_distance:p",
    "closeness.wave_profile_distance:s",
    "closeness.wave_profile_distance:p",
    "closeness.closeness_report:s",
    "closeness.closeness_report:p",
    "linear.dispersion:check_stability",
    "linear.efield_mode:kvec",
    "norms._symbol:half",
    "penrose.truncation_bound:return_details",
    "penrose.penrose_check:threads",
    "profiles.GaussianPairTerm.transverse_val:*axes",
    "profiles.Profile.from_closure:meta",
    "profiles.Profile.from_values:meta",
    "profiles.Profile.from_values:normalize",
    "profiles.Profile.from_values:validate",
    "profiles.make_builtin:**params",
    "profiles.rotate_plane:ax_a",
    "profiles.rotate_plane:ax_b",
    "profiles.dv1_over_v1_integral:check",
    "sim._factor:b",
    "sim.step:force_zero_field",
    "sim.run:output_every",
    "sim.run:s_sobolev",
    "sim.run:diagnostics_every",
    "sim.perturb_cosine:mode",
    "sim.perturb_cosine:velocity_shape",
    "sim.run_bgk_steadiness:output_every_t",
    "sim.run_bgk_steadiness:diagnostics_every",
    "sim.run_decay_experiment:mode",
}


def _knobs(node, prefix):
    """``qualname:param`` of every default and star parameter below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _knobs(child, prefix + [child.name])
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = ".".join(prefix + [child.name])
            a = child.args
            positional = a.posonlyargs + a.args
            for arg in positional[len(positional) - len(a.defaults):]:
                yield f"{name}:{arg.arg}"
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{name}:{arg.arg}"
            if a.vararg:
                yield f"{name}:*{a.vararg.arg}"
            if a.kwarg:
                yield f"{name}:**{a.kwarg.arg}"
            yield from _knobs(child, prefix + [child.name, "<locals>"])
        else:
            yield from _knobs(child, prefix)


def test_knobs_are_the_reviewed_list():
    found = {f"{path.stem}.{knob}" for path in sorted(SRC.glob("*.py"))
             for knob in _knobs(ast.parse(path.read_text(), filename=path.name), [])}
    assert sorted(found - KNOBS) == [], "new knobs: add them to KNOBS"
    assert sorted(KNOBS - found) == [], "removed knobs: drop them from KNOBS"
