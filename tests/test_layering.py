"""Module layering of the package: every import between chaosde modules,
function-local ones included, goes down the table below; the package
imports no third-party module but those `pyproject.toml` declares; and
every public name of the package, and every defaulted parameter of its
public functions, is reached from somewhere other than its own unit
tests; the stage timer in tools/ runs on the package as it is; and
importing the command line loads every module the benchmark's tracer
instruments, and not numpy.random."""

import ast
import collections
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import chaosde

PACKAGE = pathlib.Path(chaosde.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

#: module -> the modules it may import from; "__init__" is the package itself
ALLOWED = {"errors": set(), "textio": set()}
ALLOWED["wiener"] = ALLOWED["young"] = ALLOWED["sde"] = {"errors"}
ALLOWED["chaos"] = {"errors", "wiener"}
ALLOWED["hermite"] = ALLOWED["chaos"] | {"chaos", "textio"}
ALLOWED["malliavin"] = ALLOWED["hermite"] | {"young", "sde", "hermite"}
ALLOWED["density"] = ALLOWED["malliavin"] | {"malliavin"}
ALLOWED["cli"] = ALLOWED["density"] | {"density", "__init__"}


def package_imports(path: pathlib.Path) -> set:
    """Names of the chaosde modules that the source file imports from."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "chaosde":
                continue
            target = (node.module or "").removeprefix("chaosde").lstrip(".")
            if target:
                found.add(target.split(".")[0])
            else:  # `from . import x`: a module, or a name of the package
                found |= {a.name if a.name in modules else "__init__" for a in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "chaosde":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ALLOWED)


def test_imports_follow_the_layers():
    bad = {}
    for name, allowed in ALLOWED.items():
        extra = package_imports(PACKAGE / f"{name}.py") - allowed
        if extra:
            bad[name] = sorted(extra)
    assert bad == {}


def test_scan_sees_function_local_and_package_imports(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from . import __version__, chaos\n"
                   "def f():\n    from .hermite import GridDriver\n"
                   "    import chaosde.young\n")
    assert package_imports(src) == {"__init__", "chaos", "hermite", "young"}


def underscore_parameters(path: pathlib.Path) -> list:
    """(function, parameter) for every parameter of every function or lambda
    in the source file whose name starts with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            name = getattr(node, "name", "<lambda>")
            found += [(name, p.arg) for p in params if p.arg.startswith("_")]
    return found


def test_no_private_parameters():
    # a parameter is part of the signature: one a caller must not pass has
    # no place there
    bad = {p.stem: underscore_parameters(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in bad.items() if v} == {}


def test_private_parameter_scan(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def f(a, _b, *, _c=1, **_d):\n    pass\n"
                   "class K:\n    def g(self, *_e):\n        return lambda _x: _x\n")
    assert underscore_parameters(src) == [("f", "_b"), ("f", "_c"), ("f", "_d"),
                                          ("g", "_e"), ("<lambda>", "_x")]


def third_party_imports(path: pathlib.Path) -> set:
    """Top-level names of the absolute imports in the source file that are
    neither standard library nor chaosde."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"chaosde"}


def declared_dependencies() -> set:
    """Distribution names in the `dependencies` array of pyproject.toml (read
    without tomllib, which Python 3.10 lacks)."""
    body = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S)[1]
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0] for spec in re.findall(r'"([^"]+)"', body)}


def test_declared_dependencies_are_the_imported_ones():
    imported = set().union(*(third_party_imports(p) for p in PACKAGE.glob("*.py")))
    assert imported == declared_dependencies() == {"numpy"}


def test_dependency_scan_sees_every_import_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("import os.path, numpy.linalg\nfrom __future__ import annotations\n"
                   "from . import chaos\nfrom chaosde import wiener\n"
                   "def f():\n    from scipy.special import betaln\n")
    assert third_party_imports(src) == {"numpy", "scipy"}


def loaded_modules(code: str) -> set:
    """Names of the modules loaded after `code` runs in a fresh interpreter
    that finds this checkout's chaosde first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_cli_import_loads_numpy_and_chaosde_only():
    # the bare interpreter's own modules (site .pth hooks among them) and the
    # standard library aside
    extra = loaded_modules("import chaosde.cli") - loaded_modules("pass")
    top = {name.split(".")[0] for name in extra}
    assert top - set(sys.stdlib_module_names) == {"chaosde", "numpy"}


def test_euler_solve_leaves_numpy_ma_unloaded():
    # numpy's masked arrays (about 10 ms to import) stay out of a solve
    loaded = loaded_modules(
        "import numpy as np\n"
        "from chaosde.sde import preset, solve_euler\n"
        "coeffs, x0 = preset('elliptic-2d')\n"
        "solve_euler(coeffs, x0, (np.linspace(0.0, 1.0, 17), np.zeros((3, 17, 2))))\n")
    assert "chaosde.sde" in loaded
    assert "numpy.ma" not in loaded


def test_density_command_leaves_numpy_ma_unloaded(tmp_path):
    # the KDE's IQR and the median determinant come from one np.sort each,
    # not from np.percentile and np.median, which load numpy's masked arrays
    config = tmp_path / "config.json"
    config.write_text('{"process": {"q": 1, "n": 32, "L": 4.0}, '
                      '"sde": {"preset": "elliptic-2d", "steps": 16}, "run": {"M": 100}}')
    loaded = loaded_modules(
        "import contextlib, io\n"
        "from chaosde.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['density', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--workers', '1']) == 0\n")
    assert "chaosde.density" in loaded
    assert "numpy.ma" not in loaded


#: the code whose names reach the package's public surface, besides the
#: package itself: the benchmark and tools (not perfbench/out/, which holds
#: the run outputs), the test oracles and the acceptance criteria
REACHING = ("perfbench/*.py", "tools/*.py", "tests/oracles.py", "tests/test_acceptance.py")
#: public names that only their own unit tests reach: none
UNREACHED_ALLOWED = set()


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with `dataclass` or `dataclass(...)`."""
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def public_definitions(tree: ast.Module) -> list:
    """(qualified name, name, node, member) of every public top-level
    function and class of the module and every public method, property
    or dataclass field of those classes; member is True for the latter."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name, node, False))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    name = sub.name
                elif (isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                      and is_dataclass(node)):
                    name = sub.target.id
                else:
                    continue
                if not name.startswith("_"):
                    found.append((f"{node.name}.{name}", name, sub, True))
    return found


def references(tree: ast.AST, member: bool) -> collections.Counter:
    """How often each identifier that can reach a definition occurs in
    tree: that of every Name and Attribute node, or for a member that of
    every Attribute node and call keyword (a bare name is then a local
    that shares its name).  Docstrings and comments name nothing."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Name) and not member:
            found[node.id] += 1
        elif isinstance(node, ast.keyword) and node.arg and member:
            found[node.arg] += 1
    return found


def defaulted_parameters(node: ast.FunctionDef, method: bool) -> list:
    """(name, position) of every parameter of the function that has a
    default: position is its index among the arguments a call passes by
    position (self not counted for a method), None for a keyword-only one."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    found = [(p.arg, i - method) for i, p in enumerate(positional) if i >= first]
    return found + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def passes(call: ast.Call, name: str, position) -> bool:
    """Whether the call passes the parameter: by keyword, by position, or
    through a starred argument that may hold it."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (starred or len(call.args) > position)


def unreached(package: pathlib.Path, reaching) -> list:
    """Every public definition in the package that no code reaches, outside
    the definition itself, in the package or in the files reaching.

    A function or class is reached when some code names it.  A method,
    property or dataclass field is reached only as an attribute or a call
    keyword.  A defaulted parameter of a public function or method, listed
    as function(parameter), is reached only when some call passes it.
    """
    modules = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in modules + list(reaching)}
    refs = {member: sum((references(tree, member) for tree in trees.values()),
                        collections.Counter()) for member in (False, True)}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    missing = []
    for path in modules:
        for qualified, name, node, member in public_definitions(trees[path]):
            if refs[member][name] == references(node, member)[name]:
                missing.append(f"{path.stem}.{qualified}")
            if isinstance(node, ast.FunctionDef):
                own = set(map(id, ast.walk(node)))
                mine = [call for call in calls if id(call) not in own and name in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None))]
                missing += [f"{path.stem}.{qualified}({param})"
                            for param, position in defaulted_parameters(node, member)
                            if not any(passes(call, param, position) for call in mine)]
    return missing


def test_every_public_name_is_reached():
    # a name or a parameter that only its own unit tests use is test-only
    # code: it belongs in tests/oracles.py if it is a reference
    # implementation, and nowhere otherwise
    reaching = [path for pattern in REACHING for path in sorted(ROOT.glob(pattern))]
    assert sorted(unreached(PACKAGE, reaching)) == sorted(UNREACHED_ALLOWED)


def test_reachability_scan(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "def used(x=1, y=2, *, z=3, w=4):\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n, depth=0):\n    '''calls itself only; orphan is named in text alone'''\n"
        "    return recursive(n - 1, depth=depth + 1)  # orphan\n"
        "def orphan():\n    pass\n"
        "def _private():\n    pass\n"
        "class Box:\n    def read(self, fresh=False):\n        return Box()\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def width(self):\n        return 1\n"
        "    def _hidden(self):\n        pass\n"
        "@dataclass\nclass Rec:\n    kept: int\n    made: int = 0\n    shadow: int = 0\n")
    caller = tmp_path / "caller.py"
    # members named only as bare locals (width, shadow) are not reached, a
    # keyword reaches a field (made), and the calls pass x, z and fresh
    caller.write_text("import a\na.used(0, z=1)\nb = a.Box()\nb.read(True)\n"
                      "width = shadow = 2\na.Rec(made=1).kept\n")
    assert unreached(package, [caller]) == [
        "a.used(y)", "a.used(w)", "a.recursive", "a.recursive(depth)", "a.orphan", "a.Box.size",
        "a.Box.width", "a.Rec.shadow"]


def test_cli_import_loads_the_traced_modules_and_not_numpy_random():
    # perfbench/tracer.py wraps functions of these modules right after
    # `import chaosde.cli`, so each must be loaded by then; numpy.random
    # (about 8 ms) is imported at the first draw, not at start-up
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {module for _, module, _ in tracer.FUNCTIONS} | {"chaosde.hermite"}
    assert traced == {f"chaosde.{name}" for name in ("wiener", "chaos", "hermite", "sde",
                                                      "young", "malliavin", "density")}
    code = ("import json, sys; import chaosde.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('chaosde', 'numpy')))))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                         text=True)
    loaded = set(json.loads(out.stdout))
    assert traced <= loaded
    assert not any(m == "numpy.random" or m.startswith("numpy.random.") for m in loaded)


def test_stage_times_runs_on_this_checkout(tmp_path):
    # the timer wraps the names the density command calls its stages by,
    # so a change that renames one, or stops calling it, fails here: one
    # pass of the ensemble scenario over this checkout's src, with every
    # stage and the command timed
    out = tmp_path / "stage_times.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"),
                    f"src={PACKAGE.parent}", "--scenario", "ensemble-elliptic", "--repeats", "1",
                    "--out", str(out)], check=True, capture_output=True, text=True)
    record = json.loads(out.read_text())
    assert record["scenario"] == "ensemble-elliptic"
    entry = record["sources"]["src"]
    assert set(entry["median_stages_ms"]) == {"draw", "projections", "driver_values", "euler",
                                              "df", "theta", "dx", "gram"}
    assert all(ms > 0 for ms in entry["median_stages_ms"].values())
    assert entry["median_command_s"] > 0
