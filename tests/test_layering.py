"""Layering: the engine's lower layers (``stages/``, ``functions/``,
``state/``) never import from ``pipelines/`` — operators are built on the
stages, not the other way round — nothing outside ``state/`` touches a
``_``-prefixed name of a ``state`` module: the lake's state rules are
reached only through the state layer's public functions — and every
``sharded_groups`` call routes by key column names, never by a callable:
the shard plane has one routing rule."""

import ast
import pathlib

PKG = "etl_pipeline_rdf_star_ray"
ROOT = pathlib.Path(__file__).resolve().parents[1] / PKG
LOWER = ("stages", "functions", "state")
STATE = f"{PKG}.state"


def _imports(path: pathlib.Path):
    """``(module, name, local, target)`` for every import in ``path``:
    relative imports resolved against its package; ``name`` is None for
    ``import X``; the import binds ``local`` to the object named
    ``target``."""
    package = [PKG, *path.relative_to(ROOT).parent.parts]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.split(".")[0]
                yield a.name, None, local, a.name if a.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            for a in node.names:
                yield mod, a.name, a.asname or a.name, f"{mod}.{a.name}"


def _imported_modules(path: pathlib.Path) -> list[str]:
    """Absolute names of every module ``path`` imports (``from X import y``
    yields X and X.y)."""
    out = []
    for mod, name, _local, _target in _imports(path):
        out += [mod] + ([f"{mod}.{name}"] if name else [])
    return out


def _in_state(mod: str) -> bool:
    return mod == STATE or mod.startswith(f"{STATE}.")


def _dotted(node: ast.AST) -> list[str] | None:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and [*base, node.attr]
    return None


def _private_state_uses(path: pathlib.Path) -> list[str]:
    """Every ``_``-prefixed name of a ``state`` module that ``path``
    imports (``from ..state.manifest import _x``) or reads
    (``mf._x`` after ``from ..state import manifest as mf``)."""
    bound, out = {}, []
    for mod, name, local, target in _imports(path):
        bound[local] = target
        if name and name.startswith("_") and _in_state(mod):
            out.append(f"imports {target}")
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        chain = _dotted(node.value)
        if chain and chain[0] in bound:
            target = ".".join([bound[chain[0]], *chain[1:]])
            if _in_state(target):
                out.append(f"line {node.lineno} reads {target}.{node.attr}")
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


def test_no_private_state_names_outside_state():
    bad = [
        f"{path.relative_to(ROOT)} {use}"
        for path in sorted(ROOT.rglob("*.py"))
        if path.relative_to(ROOT).parts[0] != "state"
        for use in _private_state_uses(path)
    ]
    assert not bad, "\n".join(bad)


def _sharded_groups_keys(path: pathlib.Path) -> tuple[int, list[str]]:
    """``(calls, bad)`` over the ``sharded_groups(...)`` calls in ``path``:
    a call is bad unless its key argument is a list/tuple of string
    literals and names, or one name — and no name is a function (a
    ``def`` or a lambda assignment) of the module."""
    tree = ast.parse(path.read_text())
    funcs = {
        n.name
        for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    } | {
        t.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign) and isinstance(n.value, ast.Lambda)
        for t in n.targets
        if isinstance(t, ast.Name)
    }

    def column_name(e: ast.AST) -> bool:
        if isinstance(e, ast.Constant):
            return isinstance(e.value, str)
        return isinstance(e, ast.Name) and e.id not in funcs

    calls, bad = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if not name or name[-1] != "sharded_groups":
            continue
        calls += 1
        key = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "keys"), None
        )
        if isinstance(key, (ast.List, ast.Tuple)):
            ok = bool(key.elts) and all(map(column_name, key.elts))
        else:
            ok = isinstance(key, ast.Name) and column_name(key)
        if not ok:
            bad.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return calls, bad


def test_sharded_groups_route_by_column_names():
    """Static, because tier-1 executes only a few of the call sites."""
    calls, bad = 0, []
    for path in sorted(ROOT.rglob("*.py")):
        c, b = _sharded_groups_keys(path)
        calls, bad = calls + c, bad + b
    assert calls >= 50, f"only {calls} sharded_groups calls found"
    assert not bad, "key is not a list of column names:\n" + "\n".join(bad)


def test_perfbench_tracer_names_exist(monkeypatch):
    """The benchmark's tracer wraps engine functions by name, matches merge
    task spans by the remote's name and reads ``exchange_ingest``'s
    keywords; renaming or removing one of them must fail here, not turn
    the ``exchange.merge_*`` metrics silently to zero in a benchmark run."""
    import inspect

    import ray

    from etl_pipeline_rdf_star_ray.stages import exchange

    monkeypatch.syspath_prepend(str(ROOT.parent / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()

    source = (ROOT.parent / "perfbench" / "tracing.py").read_text()
    # merge task spans are ``task::<remote name>`` in ray.timeline()
    assert 'endswith("_merge_commit_task")' in source
    task = exchange._merge_commit_task
    assert isinstance(task, ray.remote_function.RemoteFunction)
    assert task._function.__name__ == "_merge_commit_task"
    # the wrapped _route must be the one the exchange's entry points call
    assert "_route" in exchange._routed.__code__.co_names
    params = inspect.signature(exchange.exchange_ingest).parameters
    for kw in ("active_files", "batch_id"):
        assert f'kwargs["{kw}"]' in source
        assert params[kw].kind is inspect.Parameter.KEYWORD_ONLY, kw
