"""Module layering of the package: every import between chaosde modules,
function-local ones included, goes down the table below; the package
imports no third-party module but those `pyproject.toml` declares; and
every public name of the package is reached from somewhere other than its
own unit tests."""

import ast
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
    # numpy's masked arrays (about 10 ms to import) stay out of a solve: the
    # driver grid check is a searchsorted equality, not np.isin
    loaded = loaded_modules(
        "import numpy as np\n"
        "from chaosde.sde import preset, solve_euler\n"
        "coeffs, x0 = preset('elliptic-2d')\n"
        "fine = np.linspace(0.0, 1.0, 17)\n"
        "solve_euler(coeffs, x0, (fine, np.zeros((3, 17, 2))), times=fine[::4])\n")
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


def public_definitions(tree: ast.Module) -> list:
    """(qualified name, node) of every public top-level function and class
    of the module and every public method or property of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    found.append((f"{node.name}.{sub.name}", sub))
    return found


def named(tree: ast.AST, skip: ast.AST = None) -> set:
    """The identifiers of every Name and Attribute node of tree outside the
    subtree skip: docstrings and comments name nothing."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreached(package: pathlib.Path, reaching) -> list:
    """module.name of every public definition in the package that no code
    names, outside the definition itself, in the package or in the files
    reaching."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    outside = set().union(*(named(ast.parse(path.read_text())) for path in reaching))
    missing = []
    for path, tree in trees.items():
        for qualified, node in public_definitions(tree):
            if node.name in outside or any(
                    node.name in named(other, skip=node if other is tree else None)
                    for other in trees.values()):
                continue
            missing.append(f"{path.stem}.{qualified}")
    return missing


def test_every_public_name_is_reached():
    # a name that only its own unit tests call is test-only code: it belongs
    # in tests/oracles.py if it is a reference implementation, and nowhere
    # otherwise
    reaching = [path for pattern in REACHING for path in sorted(ROOT.glob(pattern))]
    assert sorted(unreached(PACKAGE, reaching)) == sorted(UNREACHED_ALLOWED)


def test_reachability_scan(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    '''calls itself only; orphan is named in text alone'''\n"
        "    return recursive(n - 1)  # orphan\n"
        "def orphan():\n    pass\n"
        "def _private():\n    pass\n"
        "class Box:\n    def read(self):\n        return Box()\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def _hidden(self):\n        pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("import a\na.used()\nb = a.Box()\nb.read\n")
    assert unreached(package, [caller]) == ["a.recursive", "a.orphan", "a.Box.size"]
