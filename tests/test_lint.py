"""Static hygiene checks (no ruff/mypy in this container).

Guards against the round-1 regression class where a function was defined
twice in one module and the *second* (stale) definition silently shadowed
the fixed first one (ADVICE.md high: engine/stages.py fk_orphans_semijoin).
"""
from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _py_files():
    for sub in ("engine", "tools"):
        base = ROOT / sub
        if base.exists():
            yield from base.rglob("*.py")
    yield ROOT / "__ray_entry__.py"
    yield ROOT / "bench.py"


def test_no_duplicate_toplevel_defs():
    """No module may define the same top-level function/class twice (F811)."""
    offenders = []
    for path in _py_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        seen: dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # typing.overload stubs legitimately precede the implementation.
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        (isinstance(d, ast.Name) and d.id == "overload")
                        or (isinstance(d, ast.Attribute) and d.attr == "overload")
                        for d in node.decorator_list):
                    seen.pop(node.name, None)
                    continue
                if node.name in seen:
                    offenders.append(f"{path}:{node.lineno} redefines {node.name} "
                                     f"(first at :{seen[node.name]})")
                seen[node.name] = node.lineno
    assert not offenders, "\n".join(offenders)


def test_no_duplicate_methods():
    """Same guard one level down: no class defines a method twice."""
    offenders = []
    for path in _py_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            seen: dict[str, int] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # @x.setter / @x.getter / @x.deleter legitimately reuse
                    # the property's name.
                    if any(isinstance(d, ast.Attribute)
                           and d.attr in ("setter", "getter", "deleter")
                           for d in item.decorator_list):
                        continue
                    if item.name in seen:
                        offenders.append(
                            f"{path}:{item.lineno} class {node.name} redefines "
                            f"{item.name} (first at :{seen[item.name]})")
                    seen[item.name] = item.lineno
    assert not offenders, "\n".join(offenders)


def test_typed_api_contract():
    """The reference guarantees overload inference for repair_json
    (reference tests/test_type_inference.py; mypy is absent in this container
    so the contract is gated at runtime via typing.get_overloads): default
    flags -> str, return_objects=True -> JSONReturnType, logging=True ->
    (value, log) tuple.  py.typed markers must ship with the package."""
    import inspect
    import typing

    from engine.repair.api import repair_json

    ovs = typing.get_overloads(repair_json)
    assert len(ovs) == 4
    shapes = []
    for f in ovs:
        sig = inspect.signature(f)
        shapes.append((str(sig.parameters["return_objects"].annotation),
                       str(sig.parameters["logging"].annotation),
                       str(sig.return_annotation)))
    assert ("Literal[False]", "Literal[False]", "str") in shapes
    assert ("Literal[True]", "Literal[False]", "JSONReturnType") in shapes
    assert ("bool", "Literal[True]",
            "tuple[JSONReturnType, list[dict[str, str]]]") in shapes

    for marker in (ROOT / "engine" / "py.typed",
                   ROOT / "engine" / "repair" / "py.typed",
                   ROOT / "tools" / "refshim" / "src" / "json_repair" / "py.typed"):
        assert marker.exists(), f"missing {marker}"

    from engine.repair import JSONReturnType  # public export  # noqa: F401


def test_no_hand_made_part_exchange():
    """Keyed shuffles under engine/ run on stages.exchange: no hand-made
    exchange that tags a "part" column and groups on it."""
    offenders = [f"{path}:{i}" for path in (ROOT / "engine").rglob("*.py")
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if 'groupby("part")' in line]
    assert not offenders, "\n".join(offenders)


def test_strict_then_tolerant_parse_lives_in_one_helper():
    """The driver queries parse JSON through engine.repair.api.loads_column:
    no json.loads-then-repair chain of their own, caught by JSONDecodeError."""
    offenders = [f"{path}:{i}" for path in (ROOT / "engine" / "queries.py",
                                            ROOT / "__ray_entry__.py")
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "JSONDecodeError" in line]
    assert not offenders, "\n".join(offenders)


def test_no_global_data_context_writes():
    """Ray Data settings under engine/ go on a Dataset's own context
    (``ds.context``), never on ``DataContext.get_current()``, which every
    later Dataset of the session copies.  The one exception is the job
    CLI turning the progress bars off."""
    def is_current(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get_current")

    offenders = []
    for path in (ROOT / "engine").rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {t.id for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and is_current(node.value)
                   for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                written = [(t.value, t.attr) for t in node.targets
                           if isinstance(t, ast.Attribute)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                t = node.target
                written = [(t.value, t.attr)] if isinstance(t, ast.Attribute) else []
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and node.args):
                written = [(node.args[0], "setattr")]
            else:
                continue
            for obj, attr in written:
                if not (is_current(obj) or (isinstance(obj, ast.Name) and obj.id in aliases)):
                    continue
                if (path == ROOT / "engine" / "__main__.py"
                        and attr == "enable_progress_bars"):
                    continue
                offenders.append(f"{path}:{node.lineno} sets {attr}")
    assert not offenders, "\n".join(offenders)


# Files whose keyed steps all run on stages.exchange.  A Ray Data groupby
# may not come back into them.
NO_RAY_SHUFFLE = ("engine/ops/dedup.py", "engine/ops/cc.py", "engine/joins.py",
                  "engine/ops/diff.py", "engine/ops/text.py", "engine/ops/similarity.py")


def _ray_join(node: ast.Call) -> bool:
    """A ``.join(`` call in Ray Data's form ``join(ds, join_type,
    num_partitions, on=...)``: a ``num_partitions`` or ``on`` keyword, or 3
    or more positional arguments.  ``str.join`` takes one argument and
    Arrow's ``Table.join(right, keys, join_type=...)`` two."""
    return node.func.attr == "join" and (
        len(node.args) >= 3
        or any(k.arg in ("num_partitions", "on") for k in node.keywords))


def test_no_ray_groupby_or_join():
    """No ``groupby(`` call in the files of ``NO_RAY_SHUFFLE``, and no Ray
    Data join (:func:`_ray_join`) anywhere in ``engine/``: every equi-join
    runs on ``stages.exchange_join``."""
    offenders = []
    no_groupby = {ROOT / name for name in NO_RAY_SHUFFLE}
    for path in sorted((ROOT / "engine").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if _ray_join(node) or (node.func.attr == "groupby" and path in no_groupby):
                offenders.append(f"{path}:{node.lineno} calls {node.func.attr}")
    assert not offenders, "\n".join(offenders)
