"""Every program name the benchmark scripts reach must still exist.

The scripts in ``perfbench/`` are parsed, not run. A name counts when it is
an attribute chain rooted at a module imported from ``uralid`` (such as
``identifier.Scorer.score_word``), a name imported from a ``uralid``
module, or the attribute string given to a ``tracer.wrap_*`` call on such
a module or class. The check does not see attributes of objects the
program returns (``Prediction.domain_trace``, ``LanguageModel.domains``).

Each call the scripts make on such a name must also bind to its signature:
``identify_batch(stream, model_set, threads=2)`` needs a ``threads``
parameter, so removing that keyword fails this test until the benchmark
stops passing it. Calls with ``*args`` or ``**kwargs`` are not checked.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node, aliases):
    """``uralid.x.y`` for an attribute chain rooted at an imported name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    return ".".join([aliases[node.id], *reversed(parts)])


def _aliases(tree):
    """Local name -> dotted ``uralid`` name, for every name imported from a ``uralid`` module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uralid":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _names_used(tree):
    aliases = _aliases(tree)
    # ``for module in (models, identifier):`` makes ``module`` stand for each
    loops = {
        node.target.id: [_dotted(item, aliases) for item in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and isinstance(node.iter, (ast.Tuple, ast.List))
    }
    names = set(aliases.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(_dotted(node, aliases))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("wrap_")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            owner = node.args[0]
            owners = loops.get(owner.id, []) if isinstance(owner, ast.Name) else []
            for dotted in owners or [_dotted(owner, aliases)]:
                if dotted:
                    names.add(f"{dotted}.{node.args[1].value}")
    names.discard(None)
    return names


_MISSING = object()


def _resolve(name):
    """The object a dotted name stands for, or ``_MISSING``."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr, _MISSING)
            if obj is _MISSING:
                break
        return obj
    return _MISSING


def _calls(tree):
    """(dotted name, positional count, keyword names) of each call on a ``uralid`` name."""
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func, aliases)
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        if name and not starred and all(kw.arg for kw in node.keywords):
            yield name, len(node.args), tuple(kw.arg for kw in node.keywords)


def test_every_name_the_benchmark_uses_resolves():
    used = {
        (path.name, name)
        for path in sorted(BENCH.glob("*.py"))
        for name in _names_used(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert len(used) >= 20
    assert [f"{file}: {name}" for file, name in sorted(used) if _resolve(name) is _MISSING] == []


def test_every_call_the_benchmark_makes_binds():
    calls = {
        (path.name, *call)
        for path in sorted(BENCH.glob("*.py"))
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert len(calls) >= 10
    unbound = []
    for file, name, positional, names in sorted(calls):
        target = _resolve(name)
        try:
            inspect.signature(target).bind_partial(*[None] * positional, **dict.fromkeys(names))
        except (TypeError, ValueError) as exc:
            unbound.append(f"{file}: {name}: {exc}")
    assert unbound == []
