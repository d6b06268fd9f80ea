"""Every settable default and every definition in the package is reviewed.

A keyword default that no caller varies is a configuration nobody runs.
This test reads ``src/vplab/*.py`` with ``ast`` (it imports none of them)
and collects ``module.qualname:param`` for every defaulted parameter and
every ``*args``/``**kwargs``; the set must equal ``KNOBS``.  A change that
adds a knob adds it here, where review sees it; one that removes a knob
removes it here.

Likewise a definition that only tests read is code the pipeline never
runs.  Every module-level function or class and every non-dunder method
must be read by name somewhere in ``src/``, ``demos/`` or ``perfbench/``,
or be on the reviewed ``ORACLES`` list, whose every entry some test reads
by name, and every module-level assignment must be read there outside its
own line.  The converse also holds: every name a module reads must be
bound somewhere in it, so deleting a definition cannot leave a reader
behind that fails only when reached.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vplab"

KNOBS = {
    "bgk.build_modified:v0",
    "bgk.BgkWave.sample_phase_space:*trans_axes",
    "bgk.match_period:case",
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
    "linear.efield_mode:kvec",
    "penrose.penrose_check:threads",
    "profiles.GaussianTerm.transverse_val:*axes",
    "profiles.Profile.from_closure:meta",
    "profiles.make_builtin:**params",
    "sim.run:output_every",
    "sim.run:s_sobolev",
    "sim.run:diagnostics_every",
    "sim.perturb_cosine:mode",
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


# Definitions kept although only tests read them by name.
ORACLES = {
    # criterion 9: the obstruction to invariant structures above the threshold
    "bgk.obstruction_diagnostic",
    "bgk.obstruction_fixed_point",
    # independent oracles the tests compare the pipeline against
    "bgk.hprime0_centered",
    "sim.reverse_velocity",
    # the unfused reference of sim.run
    "sim.step",
    # the change of frame the steadiness tests boost with
    "bgk.galilean_boost",
    # rebound by dotted name in perfbench/spans.py (pinned by test_bench_api)
    "sim.SimState.moments",
    "sim.SimState.current",
}


def _definitions(tree):
    """(qualname, node) of every module-level def/class and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if (isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (meth.name.startswith("__") and meth.name.endswith("__"))):
                    yield f"{node.name}.{meth.name}", meth


def _local_names(func):
    """Names a function or lambda binds in its own scope, imports aside: a
    local import binds the imported definition itself."""
    a = func.args
    names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
             if arg is not None}
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue  # its body is its own scope
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _reads(tree, shadowed=frozenset()):
    """(name, line) of every loaded ``ast.Name`` and ``ast.Attribute``; a Name
    that an enclosing function binds reads that local, not a definition."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _local_names(tree)
    if isinstance(tree, ast.Name) and isinstance(tree.ctx, ast.Load):
        if tree.id not in shadowed:
            yield tree.id, tree.lineno
    elif isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        yield tree.attr, tree.lineno
    for child in ast.iter_child_nodes(tree):
        yield from _reads(child, shadowed)


def _package_reads():
    """Parsed trees of ``src/``, ``demos/`` and ``perfbench/``, and for every
    name read there the (path, line) of each read."""
    trees = {path: ast.parse(path.read_text(), filename=path.name)
             for top in ("src", "demos", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    reads = {}
    for path, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((path, line))
    return trees, reads


def test_every_definition_has_a_reader():
    trees, reads = _package_reads()
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, node in _definitions(trees[path]):
            # a read inside the definition itself (recursion) does not count
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in reads.get(node.name, ())):
                unread.add(f"{path.stem}.{qualname}")
    assert sorted(unread - ORACLES) == [], "only tests read these: delete them"
    assert sorted(ORACLES - unread) == [], "read in the package now: drop from ORACLES"


def test_every_oracle_is_read_by_a_test():
    # an oracle stays only for the tests that check against it: one that no
    # test reads by name is a definition nothing runs
    reads = {name for path in sorted((ROOT / "tests").rglob("*.py"))
             for name, _ in _reads(ast.parse(path.read_text(), filename=path.name))}
    unread = sorted(oracle for oracle in ORACLES if oracle.rsplit(".", 1)[-1] not in reads)
    assert unread == [], "oracles no test reads: delete them"


def test_every_module_constant_has_a_reader():
    # a module-level assignment read only on its own line is a dead constant
    trees, reads = _package_reads()
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if not any(p != path or not node.lineno <= line <= node.end_lineno
                           for p, line in reads.get(name, ())):
                    unread.add(f"{path.stem}.{name}")
    assert sorted(unread) == [], "module constants nothing reads: delete them"


def _bound(tree):
    """Every name a module binds anywhere: defs, parameters, targets, imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.alias):
            yield (node.asname or node.name).split(".")[0]
        elif isinstance(node, ast.ExceptHandler) and node.name:
            yield node.name


def test_every_read_name_is_bound():
    known = set(dir(builtins)) | {"__file__"}
    unbound = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        bound = known | set(_bound(tree))
        unbound |= {f"{path.stem}.{node.id}" for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id not in bound}
    assert sorted(unbound) == [], "read but never bound: a NameError when reached"


def test_no_private_name_crosses_modules():
    # a private name stays behind its module: a second reader imports the
    # module's public surface, or the definition moves to its one reader
    crossings = [f"{path.stem}: from .{node.module or ''} import {alias.name}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
                 if isinstance(node, ast.ImportFrom) and node.level > 0
                 for alias in node.names
                 if alias.name.startswith("_")
                 and not (alias.name.startswith("__") and alias.name.endswith("__"))]
    assert crossings == [], "private names imported across modules"


def _isfinite_reads(tree):
    """Lines that read ``math.isfinite`` or import it from ``math``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name == "isfinite" for alias in node.names)):
            yield node.lineno


def test_scalar_checks_go_through_require():
    # every scalar refusal goes through errors.require; an inline
    # math.isfinite check would fork its rule and its wording
    forks = [f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py")) if path.stem != "errors"
             for line in _isfinite_reads(ast.parse(path.read_text(), filename=path.name))]
    assert forks == [], "scalar checks outside errors.require"


def _nested_leggauss(tree):
    """Lines of ``leggauss`` calls inside a function or lambda, which run per call."""
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and "leggauss" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                    yield node.lineno


def test_quadrature_rules_built_at_import():
    # every Gauss-Legendre rule is a module constant, built once at import; a
    # per-call leggauss(96) once cost 0.03 s of each field mode
    nested = sorted({f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
                     for line in _nested_leggauss(ast.parse(path.read_text(), filename=path.name))})
    assert nested == [], "leggauss called inside a function: make the rule a module constant"
