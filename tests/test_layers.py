"""The modules of rdlab form layers: each imports only the layers below it."""

import ast
import subprocess
import sys
from pathlib import Path

LAYERS = ["errors", "groups", "algebra", "cache", "norms", "rd", "cli"]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rdlab"


def sibling_imports(path):
    """The modules ``path`` names in its ``from .x import`` lines; ``from .
    import`` (the package itself) is left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is not None}


def imported_packages(path):
    """The top-level packages ``path`` imports by absolute name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_orchestrating_modules_build_no_arrays():
    # numpy and scipy stay below rd: the kernels in algebra and norms own them
    for name in ("rd", "cli"):
        assert imported_packages(PACKAGE / f"{name}.py") & {"numpy", "scipy"} == set()


def test_each_module_imports_only_earlier_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)
    upward = {name: sibling_imports(PACKAGE / f"{name}.py") - set(LAYERS[:i])
              for i, name in enumerate(LAYERS)}
    assert {name: found for name, found in upward.items() if found} == {}


def test_the_command_line_imports_no_scipy():
    # only power iteration builds a scipy matrix, and it imports scipy itself
    probe = "import sys, rdlab.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def unused_imports(path):
    """The names ``path`` imports and never reads; ``from __future__`` lines
    are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports names only to export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    found = {p.stem: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def raises_only_not_implemented(node):
    """Whether the body of function ``node``, after any docstring, is one
    ``raise NotImplementedError``: a stub that subclasses fill in."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in {name.id for name in ast.walk(body[0])
                                          if isinstance(name, ast.Name)})


def unread_parameters(path):
    """The ``function(parameter)`` pairs of ``path`` whose body never reads
    the parameter; ``self``, ``cls`` and stubs are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or raises_only_not_implemented(node)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg,
                                                                   args.kwarg]
        read = {name.id for statement in node.body
                for name in ast.walk(statement) if isinstance(name, ast.Name)}
        found.update(f"{node.name}({p.arg})" for p in params
                     if p is not None and p.arg not in read | {"self", "cls"})
    return found


def test_no_function_has_a_parameter_it_never_reads():
    found = {p.stem: unread_parameters(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: pairs for name, pairs in found.items() if pairs} == {}
