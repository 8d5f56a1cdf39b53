"""Every module in ``src/repro`` has a caller outside its own tests.

A module stays only if something other than its unit tests uses it: the
library itself, a benchmark, the ``bench`` harness or an example.  Package ``__init__`` re-exports do not count as callers.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "benchmarks", "bench", "examples")


def _dotted(path: Path) -> str:
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _public_names(path: Path) -> set:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _callers() -> dict:
    return {
        path: path.read_text()
        for tree in CALLER_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_module_has_a_caller_outside_its_tests():
    callers = _callers()
    orphans = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name in ("__init__.py", "__main__.py"):
            continue
        words = [_dotted(module), *sorted(_public_names(module))]
        pattern = re.compile(r"\b(?:" + "|".join(map(re.escape, words)) + r")\b")
        text = "\n".join(t for p, t in callers.items() if p != module)
        if not pattern.search(text):
            orphans.append(_dotted(module))
    assert not orphans, (
        f"modules called only by their own tests: {orphans}; delete them "
        f"or give them a caller"
    )
