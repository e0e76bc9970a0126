"""Module layering of the package: every import between chaosde modules,
function-local ones included, goes down the table below."""

import ast
import pathlib

import chaosde

PACKAGE = pathlib.Path(chaosde.__file__).parent

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
