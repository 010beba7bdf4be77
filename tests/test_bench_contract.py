"""Every program name the benchmark scripts reach must still exist.

The scripts in ``perfbench/`` are parsed, not run. A name counts when it is
an attribute chain rooted at a module imported from ``uralid`` (such as
``identifier.Scorer.score_word``), a name imported from a ``uralid``
module, or the attribute string given to a ``tracer.wrap_*`` call on such
a module or class. The check does not see attributes of objects the
program returns (``Prediction.domain_trace``, ``LanguageModel.domains``)
or keyword arguments (``threads=``).
"""

import ast
import importlib
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


def _names_used(tree):
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uralid":
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
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


def _resolves(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_name_the_benchmark_uses_resolves():
    used = {
        (path.name, name)
        for path in sorted(BENCH.glob("*.py"))
        for name in _names_used(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert len(used) >= 20
    assert [f"{file}: {name}" for file, name in sorted(used) if not _resolves(name)] == []
