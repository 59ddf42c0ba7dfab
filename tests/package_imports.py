"""Which radialspec modules a radialspec module imports, and which names it
takes from each, read from its source with ast: the tests that keep layers
independent share this reader."""

import ast
from pathlib import Path

import radialspec

PACKAGE = Path(radialspec.__file__).parent


def package_import_names(module: str) -> dict[str, set[str]]:
    """radialspec module -> the names `module` imports from it (empty for a
    whole-module import)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("radialspec"):
                continue
            parts = (node.module or "").split(".")
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                out.setdefault(parts[0], set()).update(alias.name for alias in node.names)
            else:  # from . import x
                for alias in node.names:
                    out.setdefault(alias.name, set())
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "radialspec" and len(parts) > 1:
                    out.setdefault(parts[1], set())
    return out


def package_imports(module: str) -> set[str]:
    """Names of the radialspec modules that `module` imports."""
    return set(package_import_names(module))
