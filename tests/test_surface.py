"""The package carries only what runs: every public module-level function or
class of ``src/cqcovert`` is used by other package code, documented as API in
the README, or timed by the benchmark's tracer (whose spans must resolve)."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cqcovert").glob("*.py"))


def _names_in(node: ast.AST) -> set[str]:
    """Identifiers that ``node`` reads: bare names and attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _spans() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_every_public_definition_is_used_documented_or_traced():
    definitions, used = [], set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                definitions.append((path.stem, own))
            # a definition's reads of its own name (recursion) do not count
            used |= _names_in(node) - {own}
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    backticked = " ".join(re.findall(r"`([^`]+)`", readme))
    documented = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", backticked))
    traced = {tuple(span.split(".")[:2]) for span in _spans()}
    unused = [f"{module}.{name}" for module, name in definitions
              if name not in used and name not in documented and (module, name) not in traced]
    assert unused == [], ("public definitions that no package code uses, the README does "
                          f"not name and the tracer does not time: {unused}")


def test_every_tracer_span_resolves():
    missing = []
    for span in _spans():
        module_name, first, *rest = span.split(".")
        owner = getattr(importlib.import_module(f"cqcovert.{module_name}"), first, None)
        if owner is None or (rest and rest[0] not in vars(owner)):
            missing.append(span)
    assert missing == [], f"tracer spans that name nothing in the package: {missing}"
