"""The package carries only what runs: every public module-level function or
class of ``src/cqcovert``, and every public method or property of a public
class, is used by other package code, documented as API in the README, or
timed by the benchmark's tracer (whose spans must resolve).

A member counts as used when package code reads an attribute of its name:
without types, a read of ``x.to_json`` cannot tell which class's
``to_json`` it calls, so members that share a name with another member or
attribute are checked together."""

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
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_")
            if public:
                definitions.append((path.stem, own))
            if not isinstance(node, ast.ClassDef):
                # a definition's reads of its own name (recursion) do not count
                used |= _names_in(node) - {own}
                continue
            used |= set().union(*map(_names_in, node.bases + node.decorator_list))
            for member in node.body:
                name = getattr(member, "name", None)
                if public and isinstance(member, ast.FunctionDef) and not name.startswith("_"):
                    definitions.append((path.stem, f"{own}.{name}"))
                used |= _names_in(member) - {own, name}
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    backticked = " ".join(re.findall(r"`([^`]+)`", readme))
    documented = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", backticked))
    traced = set()
    for span in _spans():  # a method's span also covers its class
        module, first, *rest = span.split(".")
        traced |= {(module, first), (module, ".".join([first, *rest]))}
    unused = [f"{module}.{name}" for module, name in definitions
              if name.split(".")[-1] not in used | documented and (module, name) not in traced]
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
