"""The modules of rdlab form layers: each imports only the layers below it."""

import ast
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


def test_each_module_imports_only_earlier_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)
    upward = {name: sibling_imports(PACKAGE / f"{name}.py") - set(LAYERS[:i])
              for i, name in enumerate(LAYERS)}
    assert {name: found for name, found in upward.items() if found} == {}
