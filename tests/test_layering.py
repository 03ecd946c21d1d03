"""Layering: the engine's lower layers (``stages/``, ``functions/``,
``state/``) never import from ``pipelines/`` — operators are built on the
stages, not the other way round."""

import ast
import pathlib

PKG = "etl_pipeline_rdf_star_ray"
ROOT = pathlib.Path(__file__).resolve().parents[1] / PKG
LOWER = ("stages", "functions", "state")


def _imported_modules(path: pathlib.Path) -> list[str]:
    """Absolute names of every module ``path`` imports (relative imports
    resolved against its package; ``from X import y`` yields X and X.y)."""
    package = [PKG, *path.relative_to(ROOT).parent.parts]
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            out += [mod] + [f"{mod}.{a.name}" for a in node.names]
    return out


def test_lower_layers_never_import_pipelines():
    bad = [
        f"{path.relative_to(ROOT)} imports {mod}"
        for layer in LOWER
        for path in sorted((ROOT / layer).rglob("*.py"))
        for mod in _imported_modules(path)
        if mod == f"{PKG}.pipelines" or mod.startswith(f"{PKG}.pipelines.")
    ]
    assert not bad, "\n".join(bad)
