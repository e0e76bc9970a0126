"""Module layering of the package: every import between chaosde modules,
function-local ones included, goes down the table below; and the package
imports no third-party module but those `pyproject.toml` declares."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import chaosde

PACKAGE = pathlib.Path(chaosde.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

#: module -> the modules it may import from; "__init__" is the package itself
ALLOWED = {"errors": set()}
ALLOWED["wiener"] = ALLOWED["young"] = ALLOWED["sde"] = {"errors"}
ALLOWED["chaos"] = {"errors", "wiener"}
ALLOWED["hermite"] = ALLOWED["chaos"] | {"chaos"}
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
