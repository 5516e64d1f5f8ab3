"""Engine-wide source rules: no runtime `assert` (python -O strips it), no
`while` loop (each loop is bounded, so it converges or raises a typed error),
no `SEConfig` field that nothing reads, no import that nothing uses, no
engine definition that only tests reach, no engine definition that only
the benchmark reaches unless it is listed, no engine option (a defaulted
parameter) that no caller passes, no engine parameter that its function
does not read (each allow-list entry of these rules must still be
needed), no engine import in the oracles, no
`scipy.special` in the engine, no `scipy.sparse` anywhere in sekit (its
import alone raises every run's peak memory and set-up time; the MDP kernels
read P's sparse view as plain numpy arrays), one linear-solve path:
`scipy.linalg` in `mdp.py` only and no `np.linalg.solve` or `np.linalg.inv`
outside the oracles, one tilt: `normalize_log` is called only by `core`
and `solver`, so every other exponential tilt goes through the teacher,
one unvalidated `Dist`: only `core` builds a `Dist` that skips validation,
and one teacher-student loop: only `solver.run` calls `_step`."""
import ast
import dataclasses
from fnmatch import fnmatch
from pathlib import Path

import pytest

import sekit
from sekit.solver import SEConfig

MODULES = sorted(Path(sekit.__file__).parent.glob("*.py"))
_REPO = Path(__file__).resolve().parent.parent
# the code that may call the engine: tests do not count
CALLERS = (MODULES + sorted((_REPO / "perfbench").glob("*.py"))
           + sorted((_REPO / "scripts").glob("*.py")))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _violations(path):
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert"
        elif isinstance(node, ast.While):
            yield f"{path.name}:{node.lineno}: while"


def test_modules_found():
    assert {"core.py", "mdp.py", "oracles.py", "solver.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_or_unbounded_loop(path):
    assert list(_violations(path)) == []


def test_every_config_field_is_read():
    # an option that no code reads is accepted but does nothing
    read = set()
    for path in MODULES:
        tree = _parse(path)
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "SEConfig":
                skip.update(id(n) for n in ast.walk(node))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load) and id(node) not in skip)
    fields = {f.name for f in dataclasses.fields(SEConfig)}
    assert fields - read == set()


def test_oracles_import_nothing_from_sekit():
    # the oracles are independent references: no engine code may leak in
    bad = []
    for node in ast.walk(_parse(Path(sekit.__file__).parent / "oracles.py")):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "sekit":
                bad.append(f"oracles.py:{node.lineno}")
        elif isinstance(node, ast.Import):
            bad += [f"oracles.py:{node.lineno}" for alias in node.names
                    if alias.name.split(".")[0] == "sekit"]
    assert bad == []


def _imports(path, prefix):
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.startswith(prefix) for n in names):
            yield f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("oracles.py", "recipes.py")],
                         ids=lambda p: p.name)
def test_engine_does_not_import_scipy_special(path):
    # the engine uses core.logsumexp; the oracles, and the check targets in
    # recipes, keep scipy's as an independent reference
    assert list(_imports(path, "scipy.special")) == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in ("mdp.py", "oracles.py")],
                         ids=lambda p: p.name)
def test_only_mdp_imports_scipy_linalg(path):
    # mdp.py's one LU factorisation is the engine's only linear solver
    assert list(_imports(path, "scipy.linalg")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy_sparse(path):
    # importing it costs every workload memory and set-up time, MDP or not
    assert list(_imports(path, "scipy.sparse")) == []


def _dense_solves(path):
    for node in ast.walk(_parse(path)):
        if (isinstance(node, ast.Attribute) and node.attr in ("solve", "inv")
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            yield f"{path.name}:{node.lineno}: linalg.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            yield from (f"{path.name}:{node.lineno}: import {a.name}"
                        for a in node.names if a.name in ("solve", "inv"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "oracles.py"],
                         ids=lambda p: p.name)
def test_engine_has_no_dense_solve(path):
    # a second solve path beside mdp's factorisation would drift from it
    assert list(_dense_solves(path)) == []


def _unused_imports(path):
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    # __init__.py imports to re-export; every other import must be used
    assert _unused_imports(path) == []


# Engine definitions that only tests name, each kept for the check it serves.
_TEST_ONLY = {
    "entropy_grad": "the analytic entropy gradient the acceptance test checks",
    "policy_value": "J, which the policy-gradient test differentiates",
}


def _definitions(tree):
    # module-level functions, classes and constants, and methods
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
            yield from ((sub.name, sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def _mentions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):  # __init__ re-exports count
            yield from ((alias.name, node) for alias in node.names)


def test_every_engine_definition_has_a_caller():
    # code that only tests reach is deleted; names match by spelling, so a
    # method shares its mentions with every same-named attribute.  Each
    # entry of _TEST_ONLY must still be test-only, so none outlives its
    # reason
    trees = {path: _parse(path) for path in CALLERS}
    named = {}
    for path, tree in trees.items():
        for name, node in _mentions(tree):
            named.setdefault(name, []).append((path, node))
    unreached = []
    for path in MODULES:
        if path.name == "oracles.py":
            continue
        for name, node in _definitions(trees[path]):
            if name.startswith("__"):
                continue  # dunders are reached by the language itself
            own = {id(n) for n in ast.walk(node)}
            if all(p == path and id(n) in own for p, n in named.get(name, [])):
                unreached.append((name, f"{path.name}:{node.lineno}: {name}"))
    assert [where for name, where in unreached if name not in _TEST_ONLY] == []
    assert sorted(set(_TEST_ONLY) - {name for name, _ in unreached}) == []


# Engine definitions that only the benchmark names, each with the reason it
# stays or the ROADMAP item that deletes it.
_BENCH_ONLY = {
    "KL": "the divergence.kl kernel timing; the engine calls kl directly",
    "JS": "the divergence.js kernel timing; the engine builds its own "
          "DivergenceFn('js')",
    "influence_function": "item 18 deletes the iterative influence ascent",
    "visitation": "the mdp.visitation kernel timing; the engine calls "
                  "reward_and_visitation",
    "registry": "the smoke test's list of recipes; the CLI calls get_recipe",
    "mw_update": "item 19 deletes it and moves its kernel timing onto "
                 "mw_trajectory",
    "tilted_q": "item 19 deletes it with its adversarial.tilted_q kernel",
    "raml_kernel": "item 21 moves the f_data_augmented timing onto "
                   "f_data_raml, then deletes it",
    "f_data_augmented": "item 21 moves its timing onto f_data_raml, then "
                        "deletes the general kernel path",
    "fit_to": "item 21 deletes the gradient fit with its models.fit_to "
              "kernel; every student is exact_fit",
}


def test_benchmark_only_definitions_are_listed():
    # a definition that perfbench/ names but no engine module or script
    # does is kept only for the benchmark: list it, so that it is deleted
    # with the timing that keeps it (names match by spelling; __init__
    # re-exports and the definition itself do not count)
    engine = [p for p in MODULES if p.name != "__init__.py"]
    scripts = sorted((_REPO / "scripts").glob("*.py"))
    bench = set()
    for path in sorted((_REPO / "perfbench").glob("*.py")):
        bench.update(name for name, _ in _mentions(_parse(path)))
    trees = {path: _parse(path) for path in engine + scripts}
    named = {}
    for path, tree in trees.items():
        for name, node in _mentions(tree):
            named.setdefault(name, []).append((path, node))
    only = set()
    for path in engine:
        if path.name == "oracles.py":
            continue
        for name, node in _definitions(trees[path]):
            own = {id(n) for n in ast.walk(node)}
            if name in bench and all(p == path and id(n) in own
                                     for p, n in named.get(name, [])):
                only.add(name)
    assert sorted(only) == sorted(_BENCH_ONLY)


# Engine functions whose options no call site passes, each with its reason.
_UNPASSED_OPTIONS = {
    "influence_function": "step_size, max_iters and tol wait for item 18, "
                          "which deletes the iterative ascent",
    "_run_*": "recipe runners take their options through run_recipe's "
              "**params",
    "_check_*": "checks take their options through check_equivalence's "
                "**params",
    "fit_to": "step_size waits for item 21, which deletes fit_to with its "
              "kernel",
}


def _options(tree):
    # (name it is called by, definition, defaulted parameter, its position
    # in a call or None if keyword-only) of module-level functions and
    # methods; a method's position skips self, and __init__ is called by
    # its class's name
    def defaulted(name, node, skip):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, node, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, node, arg.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from defaulted(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in sub.decorator_list)
                    yield from defaulted(
                        node.name if sub.name == "__init__" else sub.name,
                        sub, 0 if static else 1)


def _calls(tree):
    # (called name, call): an import alias calls the name it imports, and
    # cls(...) inside a class body calls that class
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for a in node.names
               if a.asname}

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = (getattr(child.func, "id", None)
                        or getattr(child.func, "attr", None))
                if name == "cls" and cls is not None:
                    name = cls
                yield aliases.get(name, name), child
            yield from walk(child, child.name
                            if isinstance(child, ast.ClassDef) else cls)

    yield from walk(tree, None)


def _passes(call, arg, position):
    # by name, by position, or through a *args of unknown length
    return (any(k.arg == arg for k in call.keywords)
            or position is not None
            and (len(call.args) > position
                 or any(isinstance(a, ast.Starred) for a in call.args)))


def test_every_engine_option_has_a_caller():
    # an option that no caller sets adds configurations to test and does
    # nothing else; names match by spelling, as for definitions above.
    # Each entry of _UNPASSED_OPTIONS must still match an unpassed option,
    # so none outlives its reason
    calls = {}
    for path in CALLERS:
        for name, call in _calls(_parse(path)):
            calls.setdefault(name, []).append(call)
    unset = [(name, f"{path.name}:{node.lineno}: {name}({arg}=...)")
             for path in MODULES if path.name != "oracles.py"
             for name, node, arg, position in _options(_parse(path))
             if not any(_passes(c, arg, position)
                        for c in calls.get(name, []))]
    assert [where for name, where in unset
            if not any(fnmatch(name, p) for p in _UNPASSED_OPTIONS)] == []
    assert [p for p in _UNPASSED_OPTIONS
            if not any(fnmatch(name, p) for name, _ in unset)] == []


# Engine parameters their function does not read, each with its reason.
_UNREAD_PARAMETERS = {
    "_run_*": (("config", "seed"),
               "the runner protocol: run_recipe passes config, bundle and "
               "seed"),
    "evaluate": (("self", "atoms", "n"),
                 "the soft-logic node protocol: every node takes all three"),
    "discriminator_update": (("steps", "step_size"),
                             "the benchmark's kernels pass them; item 21 "
                             "drops them with the kernel change"),
}


def _functions(tree):
    # module-level functions and methods
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def test_every_parameter_is_read():
    # a parameter that its function never reads is accepted and ignored;
    # a nested function or lambda that reads it counts.  Each parameter
    # named in _UNREAD_PARAMETERS must still be unread somewhere
    unread = []
    for path in MODULES:
        if path.name == "oracles.py":
            continue
        for node in _functions(_parse(path)):
            a = node.args
            params = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                      + [x for x in (a.vararg, a.kwarg) if x is not None]]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [(node.name, arg, f"{path.name}:{node.lineno}: "
                        f"{node.name}({arg})")
                       for arg in params if arg not in read]

    def allowed(name, arg, pattern):
        return fnmatch(name, pattern) and arg in _UNREAD_PARAMETERS[pattern][0]

    assert [where for name, arg, where in unread
            if not any(allowed(name, arg, p) for p in _UNREAD_PARAMETERS)] == []
    used = {(p, arg) for name, arg, _ in unread for p in _UNREAD_PARAMETERS
            if allowed(name, arg, p)}
    assert [(p, arg) for p, (args, _) in _UNREAD_PARAMETERS.items()
            for arg in args if (p, arg) not in used] == []


# Tilts outside the teacher, each tied to the ROADMAP item that removes it.
_OWN_TILTS = {
    "divergence._h_star_kl": "item 18 deletes the iterative influence ascent",
}


def _normalize_log_calls(path):
    # (enclosing top-level definition, line) of each normalize_log call
    for top in _parse(path).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "normalize_log"
                    or getattr(node.func, "attr", None) == "normalize_log"):
                yield f"{path.stem}.{getattr(top, 'name', '?')}", node.lineno


def test_tilts_go_through_the_teacher():
    # q proportional to p e^f is teacher_closed_form(p, f, 1, 1); a private
    # normalize_log(logp + f) elsewhere is a second copy of the teacher
    calls = [f"{name}:{line}" for path in MODULES
             if path.name not in ("core.py", "solver.py")
             for name, line in _normalize_log_calls(path)
             if name not in _OWN_TILTS]
    assert calls == []


def test_only_core_builds_an_unvalidated_dist():
    # Dist._unchecked trusts arrays its caller just made and checked; any
    # other module builds a Dist through the validating constructor
    bad = [f"{path.name}:{node.lineno}: {node.attr}" for path in MODULES
           if path.name != "core.py"
           for node in ast.walk(_parse(path))
           if isinstance(node, ast.Attribute)
           and node.attr in ("_unchecked", "__new__")]
    assert bad == []


def test_only_run_calls_step():
    # run is the one loop that steps the objective; a schedule is a sequence
    # of runs, and a second call site would be a second loop to keep in step
    calls = [f"{path.stem}.{getattr(top, 'name', '?')}:{node.lineno}"
             for path in MODULES for top in _parse(path).body
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and "_step" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert [c.split(":")[0] for c in calls] == ["solver.run"], calls
