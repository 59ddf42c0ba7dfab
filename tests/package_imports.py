"""Which radialspec modules a radialspec module imports, read from its
source with ast: the tests that keep layers independent share this reader."""

import ast
from pathlib import Path

import radialspec

PACKAGE = Path(radialspec.__file__).parent


def package_imports(module: str) -> set[str]:
    """Names of the radialspec modules that `module` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("radialspec"):
                continue
            parts = (node.module or "").split(".")
            parts = parts[1:] if node.level == 0 else parts
            if parts and parts[0]:
                out.add(parts[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "radialspec" and len(parts) > 1:
                    out.add(parts[1])
    return out
