"""The package carries only what runs: every public module-level function or
class of ``src/cqcovert``, and every public method or property of a public
class, is used by other package code, documented as API in the README, or
timed by the benchmark's tracer (whose spans must resolve).

A function or class counts as used when package code reads its name; a
local variable of the same name is not a read of it.  A method or property
counts as used only through an attribute read that can belong to its
owner.  The receiver of each read is typed statically, from ``self``,
annotations, return annotations, constructor calls, attributes of typed
receivers, and unpacking, loops and indexing over typed tuples and
sequences.  A read whose receiver cannot be typed counts for a member only
when no other package class has a member or attribute of that name; for the
same reason, such a shared member counts as documented only where the README
names it ``Owner.member``.

No module but ``__init__.py`` imports a name it never reads, unless the
line of that name carries ``# noqa: F401``."""

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted((ROOT / "src" / "cqcovert").glob("*.py"))}
SEQUENCES = {"Sequence", "Iterable", "Iterator", "list", "set", "frozenset"}
FLATTEN = {"list", "tuple", "sorted", "reversed", "iter"}
PROPERTY = {"property", "cached_property"}


def _union(*types):
    """A type is a frozenset of terms, each a class name, ``("seq",
    element type)`` or ``("tup", item types)``; None is unknown."""
    return None if any(t is None for t in types) else frozenset().union(*types)


def _seq(element):
    return frozenset({("seq", element)})


class _Scope:
    def __init__(self, parent=None, owner=None, is_class=False):
        self.parent, self.owner, self.is_class = parent, owner, is_class
        self.bindings = defaultdict(list)

    def lookup(self, name):
        """The innermost bindings of ``name`` (class bodies are skipped from
        inside their methods), or None for a module-level or imported name."""
        scope, inner = self, True
        while scope.parent is not None:
            if (inner or not scope.is_class) and name in scope.bindings:
                bindings = scope.bindings[name]
                return None if all(b == ("import",) for b in bindings) else bindings
            scope, inner = scope.parent, False
        return None


class _Package:
    """The package's definitions and the reads of its code, typed."""

    def __init__(self):
        self.classes, self.functions = {}, defaultdict(list)
        for tree in TREES.values():
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                elif isinstance(node, ast.FunctionDef):
                    self.functions[node.name].append(node)
        self.members = defaultdict(lambda: defaultdict(list))  # class -> name -> sources
        self.attribute_reads, self.name_reads, self.busy, self.assigned = [], [], set(), []
        for tree in TREES.values():
            self._collect(tree, _Scope(), ())
        for target, source, scope in self.assigned:  # ``x.attr = ...``, once x can be typed
            for owner in self.type_of(target.value, scope) or ():
                if isinstance(owner, str):
                    self.members[owner][target.attr].append(source)

    # --- collecting bindings and reads ---

    def _collect(self, node, scope, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                inner = _Scope(scope, child.name, is_class=True)
                self._collect(child, inner, where + (child.name,))
                continue
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                inner = _Scope(scope)
                self._bind_arguments(child, scope, inner)
                if isinstance(child, ast.FunctionDef) and scope.is_class:
                    self.members[scope.owner][child.name].append(("def", child))
                name = getattr(child, "name", None)
                self._collect(child, inner, where + ((name,) if name else ()))
                continue
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    self._bind(target, ("expr", child.value, scope), scope)
            elif isinstance(child, ast.AnnAssign):
                self._bind(child.target, ("ann", child.annotation), scope)
            elif isinstance(child, ast.NamedExpr):
                self._bind(child.target, ("expr", child.value, scope), scope)
            elif isinstance(child, (ast.For, ast.comprehension)):
                self._bind(child.target, ("iter", child.iter, scope), scope)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    scope.bindings[alias.asname or alias.name].append(("import",))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                self.attribute_reads.append((child, scope, where))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                self.name_reads.append((child.id, scope, where))
            self._collect(child, scope, where)

    def _bind_arguments(self, function, outer, inner):
        args = function.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in getattr(function, "decorator_list", ()))
        for i, arg in enumerate(positional + args.kwonlyargs):
            if i == 0 and outer.is_class and not static:
                inner.bindings[arg.arg].append(("type", frozenset({outer.owner})))
            else:
                inner.bindings[arg.arg].append(("ann", arg.annotation))
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                inner.bindings[arg.arg].append(("type", None))

    def _bind(self, target, source, scope):
        if isinstance(target, ast.Name):
            scope.bindings[target.id].append(source)
            if scope.is_class:
                self.members[scope.owner][target.id].append(source)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, item in enumerate(target.elts):
                self._bind(item, ("item", source, i), scope)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, ("type", None), scope)
        elif isinstance(target, ast.Attribute):
            self.assigned.append((target, source, scope))

    # --- types ---

    def annotation(self, node):
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return self.annotation(ast.parse(node.value, mode="eval").body)
            return frozenset() if node.value is None else None
        if isinstance(node, ast.Name):
            if node.id in self.classes:
                return frozenset({node.id})
            return frozenset() if node.id == "None" else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union(self.annotation(node.left), self.annotation(node.right))
        if isinstance(node, ast.Subscript):
            base = getattr(node.value, "id", getattr(node.value, "attr", None))
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if base == "Optional":
                return self.annotation(args[0])
            if base == "tuple" and len(args) == 2 and isinstance(args[1], ast.Constant) \
                    and args[1].value is Ellipsis:
                return _seq(self.annotation(args[0]))
            if base == "tuple":
                return frozenset({("tup", tuple(map(self.annotation, args)))})
            if base in SEQUENCES:
                return _seq(self.annotation(args[0]))
        return None

    def _source(self, source):
        kind = source[0]
        if kind == "expr":
            return self.type_of(source[1], source[2])
        if kind == "ann":
            return self.annotation(source[1])
        if kind == "type":
            return source[1]
        if kind == "item":
            return self._item(self._source(source[1]), source[2])
        if kind == "iter":
            return self._element(self.type_of(source[1], source[2]))
        if kind == "def":
            function = source[1]
            properties = {getattr(d, "id", None) for d in function.decorator_list}
            return self.annotation(function.returns) if properties & PROPERTY else None
        return None  # an import: resolved by name

    def _element(self, t):
        if t is None:
            return None
        out = []
        for term in t:
            if isinstance(term, tuple) and term[0] == "seq":
                out.append(term[1])
            elif isinstance(term, tuple):
                out.append(_union(*term[1]))
            else:
                out.append(None)
        return _union(*out)

    def _item(self, t, index):
        if t is None or not isinstance(index, int):
            return self._element(t)
        out = []
        for term in t:
            if isinstance(term, tuple) and term[0] == "tup":
                out.append(term[1][index] if -len(term[1]) <= index < len(term[1]) else None)
            else:
                out.append(self._element(frozenset({term})))
        return _union(*out)

    def mro(self, name):
        out, todo = [], [name]
        while todo:
            current = todo.pop(0)
            if current in self.classes and current not in out:
                out.append(current)
                todo += [getattr(b, "id", None) for b in self.classes[current].bases]
        return out

    def _member(self, t, name, call=False):
        """The type of attribute ``name`` of a ``t`` value, or of the value
        that calling it returns."""
        if t is None:
            return None
        out = []
        for term in t:
            owner = next((c for c in (self.mro(term) if isinstance(term, str) else ())
                          if name in self.members[c]), None)
            if owner is None:
                return None
            for source in self.members[owner][name]:
                if call and source[0] == "def":
                    out.append(self.annotation(source[1].returns))
                elif not call:
                    out.append(self._source(source))
        return _union(*out) if out else None

    def _name(self, name, scope):
        bindings = scope.lookup(name)
        if bindings is None:
            return frozenset({name}) if name in self.classes else None
        key = (id(scope), name)
        if key in self.busy:
            return None
        self.busy.add(key)
        try:
            return _union(*(self._source(s) for s in bindings))
        finally:
            self.busy.discard(key)

    def type_of(self, node, scope):
        if isinstance(node, ast.Name):
            return self._name(node.id, scope)
        if isinstance(node, ast.Attribute):
            return self._member(self.type_of(node.value, scope), node.attr)
        if isinstance(node, ast.Subscript):
            index = node.slice
            t = self.type_of(node.value, scope)
            if isinstance(index, ast.Slice):
                return t
            indexed = self._member(t, "__getitem__", call=True) if t and all(
                isinstance(term, str) for term in t) else None
            return indexed or self._item(t, getattr(index, "value", None))
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        if isinstance(node, ast.Tuple):
            return frozenset({("tup", tuple(self.type_of(e, scope) for e in node.elts))})
        if isinstance(node, (ast.List, ast.Set)):
            return _seq(_union(*(self.type_of(e, scope) for e in node.elts))
                        if node.elts else None)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return _seq(self.type_of(node.elt, scope))
        if isinstance(node, ast.IfExp):
            return _union(self.type_of(node.body, scope), self.type_of(node.orelse, scope))
        if isinstance(node, ast.BoolOp):
            return _union(*(self.type_of(v, scope) for v in node.values))
        if isinstance(node, ast.Constant) and node.value is None:
            return frozenset()
        return None

    def _call(self, node, scope):
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute):
            return self._member(self.type_of(func.value, scope), func.attr, call=True)
        if not isinstance(func, ast.Name) or scope.lookup(func.id) is not None:
            return None
        if func.id in self.classes:
            return frozenset({func.id})
        if func.id in self.functions:
            return _union(*(self.annotation(f.returns) for f in self.functions[func.id]))
        elements = [self._element(self.type_of(a, scope)) for a in args]
        if func.id == "enumerate" and args:
            return _seq(frozenset({("tup", (None, elements[0]))}))
        if func.id == "zip":
            return _seq(frozenset({("tup", tuple(elements))}))
        if func.id in FLATTEN and args:
            return _seq(elements[0])
        return None

    # --- reads ---

    def owners(self, name):
        return {c for c in self.classes if name in self.members[c]}

    def reads(self):
        """``(typed, untyped, names)``: the (class, member) pairs read through
        a typed receiver, the attribute names read through an untyped one,
        and the module-level names read.  A definition's reads of itself
        (recursion) do not count."""
        typed, untyped = set(), set()
        for node, scope, where in self.attribute_reads:
            t = self.type_of(node.value, scope)
            classes = [c for term in t or () if isinstance(term, str) for c in self.mro(term)]
            if t is None:
                untyped |= {node.attr} - set(where[-1:])
            typed |= {(c, node.attr) for c in classes if where[-2:] != (c, node.attr)}
        names = {name for name, scope, where in self.name_reads
                 if scope.lookup(name) is None and name not in where[:1]}
        return typed, untyped, names


def _spans() -> tuple[str, ...]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def _readme() -> tuple[set[str], set[tuple[str, str]]]:
    """The identifiers in the README's inline code, and its ``Owner.member`` pairs."""
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    backticked = " ".join(re.findall(r"`([^`]+)`", readme))
    pairs = set()
    for chain in re.findall(r"[A-Za-z_][\w.]*", backticked):
        parts = chain.split(".")
        pairs |= set(zip(parts, parts[1:]))
    return set(re.findall(r"[A-Za-z_]\w*", backticked)), pairs


def test_every_public_definition_is_used_documented_or_traced():
    package = _Package()
    typed, untyped, names = package.reads()
    documented, documented_pairs = _readme()
    traced = set()
    for span in _spans():  # a method's span also covers its class
        module, first, *rest = span.split(".")
        traced |= {(module, first), (module, ".".join([first, *rest]))}
    unused = []
    for module, tree in TREES.items():
        for node in tree.body:
            own = getattr(node, "name", "_")
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or own.startswith("_"):
                continue
            if own not in names | untyped | documented and (module, own) not in traced:
                unused.append(f"{module}.{own}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                name = getattr(member, "name", "_")
                if not isinstance(member, ast.FunctionDef) or name.startswith("_"):
                    continue
                alone = package.owners(name) == {own}
                used = (own, name) in typed or (alone and name in untyped)
                named = (own, name) in documented_pairs or (alone and name in documented)
                if not (used or named or (module, f"{own}.{name}") in traced):
                    unused.append(f"{module}.{own}.{name}")
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


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for module, tree in TREES.items():
        if module == "__init__":
            continue
        lines = (ROOT / "src" / "cqcovert" / f"{module}.py").read_text().splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unread.append(f"{module}.{name}")
    assert unread == [], f"imports that their module never reads: {unread}"
