"""Name resolution and shallow type inference shared by the lint rules.

The rules need three module-local questions answered:

* *kind inference* — is this expression an unordered container (``set``
  / ``frozenset`` / ``dict`` / dict view), and if it is a name, what was
  it bound to?  Resolution follows assignments, ``self.`` attribute
  writes, parameter/variable annotations, and the return expressions of
  module-level functions (one level of call-site tracing);
* *import resolution* — what fully qualified callable does ``rng()`` or
  ``random.randint`` denote, given the module's imports and aliases;
* *local-definition tracking* — which names are bound to lambdas,
  nested functions, or locally defined classes (the unpicklable payloads
  REPRO003 hunts).

Everything is deliberately *module-local* and conservative: an
expression whose kind cannot be proven is ``None`` (unknown) and the
rules stay silent about it.  Cross-module inference is out of scope —
domain types that matter repo-wide (``Graph.nodes``,
``Graph.neighbors()``) are instead registered on
:class:`~repro.lint.engine.LintConfig`.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Sequence

# Inferred expression kinds.  ``None`` everywhere means "unknown".
SET = "set"
DICT = "dict"
DICT_VIEW = "dict-view"
ORDERED = "ordered"  # proven list/tuple/sorted result — never flagged
LAMBDA = "lambda"
LOCAL_DEF = "local-def"  # function defined inside another function
LOCAL_CLASS = "local-class"  # class defined inside a function

#: Kinds whose iteration order is a function of ``PYTHONHASHSEED`` (for
#: sets) or of insertion history (for dicts and their views).
UNORDERED_KINDS = frozenset({SET, DICT, DICT_VIEW})

#: Kinds that cannot survive :mod:`pickle` into a worker process.
UNPICKLABLE_KINDS = frozenset({LAMBDA, LOCAL_DEF, LOCAL_CLASS})

_SET_BUILTINS = frozenset({"set", "frozenset"})
_DICT_BUILTINS = frozenset({"dict"})
_ORDERED_BUILTINS = frozenset({"sorted", "list", "tuple", "reversed"})
_VIEW_METHODS = frozenset({"keys", "values", "items"})
_SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)

_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_DICT_ANNOTATIONS = frozenset(
    {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict", "OrderedDict"}
)


def _annotation_kind(annotation: Optional[ast.expr]) -> Optional[str]:
    """The container kind an annotation promises, if any."""
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):  # Dict[...], Set[...]
        node = node.value
    if isinstance(node, ast.Attribute):  # typing.Dict
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the head identifier ("Dict[str, int]").
        name = node.value.split("[", 1)[0].strip()
    else:
        return None
    if name in _SET_ANNOTATIONS:
        return SET
    if name in _DICT_ANNOTATIONS:
        return DICT
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Scope:
    """One lexical scope: name → inferred kind, plus the defining nodes."""

    def __init__(self, node: ast.AST, parent: Optional["Scope"] = None):
        self.node = node
        self.parent = parent
        self.kinds: Dict[str, Optional[str]] = {}
        self.defs: Dict[str, ast.AST] = {}

    def bind(self, name: str, kind: Optional[str], node: ast.AST) -> None:
        if name in self.kinds and self.kinds[name] != kind:
            # Conflicting rebinds: give up on this name (stay silent).
            self.kinds[name] = None
        else:
            self.kinds[name] = kind
        self.defs[name] = node

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.kinds:
                return scope.kinds[name]
            scope = scope.parent
        return None


class ModuleModel:
    """Parent links, import aliases, scopes, and kind inference for one
    parsed module.

    ``unordered_attrs`` / ``unordered_methods`` extend inference with
    repo-wide domain knowledge (attribute and method *names* known to
    produce unordered containers regardless of the receiver's type —
    e.g. ``.nodes`` and ``.neighbors()`` on :class:`repro.graphs.Graph`).
    """

    def __init__(
        self,
        tree: ast.Module,
        unordered_attrs: Sequence[str] = (),
        unordered_methods: Sequence[str] = (),
    ):
        self.tree = tree
        self.unordered_attrs = frozenset(unordered_attrs)
        self.unordered_methods = frozenset(unordered_methods)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        #: local alias → fully qualified import path ("rnd" → "random").
        self.imports: Dict[str, str] = {}
        self._collect_imports()
        #: scope-owning node → Scope.
        self.scopes: Dict[ast.AST, Scope] = {}
        #: class node → {attr name: kind} from ``self.attr = ...`` writes.
        self.class_attrs: Dict[ast.AST, Dict[str, Optional[str]]] = {}
        #: module-level function name → FunctionDef.
        self.functions: Dict[str, ast.AST] = {}
        self._return_kinds: Dict[str, Optional[str]] = {}
        self._build_scope(tree, None)
        self._collect_class_attrs()

    # ------------------------------------------------------------------
    # construction passes
    # ------------------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def _build_scope(self, node: ast.AST, parent: Optional[Scope]) -> Scope:
        scope = Scope(node, parent)
        self.scopes[node] = scope
        body = getattr(node, "body", [])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._bind_arguments(scope, node.args)
        for child in body:
            self._bind_statement(scope, child)
        return scope

    def _bind_arguments(self, scope: Scope, args: ast.arguments) -> None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            scope.bind(arg.arg, _annotation_kind(arg.annotation), arg)

    def _bind_statement(self, scope: Scope, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_function = isinstance(
                scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            scope.bind(stmt.name, LOCAL_DEF if inside_function else None, stmt)
            if isinstance(scope.node, ast.Module):
                self.functions[stmt.name] = stmt
            self._build_scope(stmt, scope)
        elif isinstance(stmt, ast.ClassDef):
            inside_function = isinstance(
                scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            scope.bind(stmt.name, LOCAL_CLASS if inside_function else None, stmt)
            self._build_scope(stmt, scope)
        elif isinstance(stmt, ast.Assign):
            kind = self.infer(stmt.value, scope)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    scope.bind(target.id, kind, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            kind = _annotation_kind(stmt.annotation)
            if kind is None and stmt.value is not None:
                kind = self.infer(stmt.value, scope)
            scope.bind(stmt.target.id, kind, stmt.value or stmt)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._bind_statement(scope, child)

    def _collect_class_attrs(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: Dict[str, Optional[str]] = {}
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                scope = self.scopes.get(method)
                for stmt in ast.walk(method):
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                kind = self.infer(stmt.value, scope)
                                if target.attr in attrs and attrs[target.attr] != kind:
                                    attrs[target.attr] = None
                                else:
                                    attrs[target.attr] = kind
                    elif isinstance(stmt, ast.AnnAssign):
                        target = stmt.target
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs[target.attr] = _annotation_kind(stmt.annotation)
            self.class_attrs[node] = attrs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def scope_of(self, node: ast.AST) -> Scope:
        """The innermost enclosing scope of ``node``."""
        current: Optional[ast.AST] = node
        while current is not None:
            if current in self.scopes:
                return self.scopes[current]
            current = self.parents.get(current)
        return self.scopes[self.tree]

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = self.parents.get(current)
        return None

    def qualified_name(self, node: ast.expr) -> Optional[str]:
        """Resolve a call target through the module's import aliases."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.imports.get(head, head)
        return f"{head}.{rest}" if rest else head

    def function_return_kind(self, name: str) -> Optional[str]:
        """Kind of a module-level function's return value (one level of
        call-site tracing: every return statement must agree)."""
        if name in self._return_kinds:
            return self._return_kinds[name]
        self._return_kinds[name] = None  # recursion guard
        func = self.functions.get(name)
        if func is None:
            return None
        kinds = set()
        scope = self.scopes.get(func)
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                kinds.add(self.infer(stmt.value, scope))
        result = kinds.pop() if len(kinds) == 1 else None
        self._return_kinds[name] = result
        return result

    def infer(self, expr: ast.expr, scope: Optional[Scope]) -> Optional[str]:
        """Best-effort kind of ``expr`` (``None`` = unknown)."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return SET
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return DICT
        if isinstance(expr, (ast.List, ast.ListComp, ast.Tuple)):
            return ORDERED
        if isinstance(expr, ast.Lambda):
            return LAMBDA
        if isinstance(expr, ast.IfExp):
            a = self.infer(expr.body, scope)
            return a if a == self.infer(expr.orelse, scope) else None
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
            left = self.infer(expr.left, scope)
            right = self.infer(expr.right, scope)
            if SET in (left, right) or DICT_VIEW in (left, right):
                return SET
            return None
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, scope)
        if isinstance(expr, ast.Name):
            if scope is not None:
                return scope.lookup(expr.id)
            return None
        if isinstance(expr, ast.Attribute):
            # The class's own ``self.attr`` assignments outrank the
            # config-registered attribute names: ``self.nodes = sorted(...)``
            # is proven ordered even though ``.nodes`` is suspicious
            # elsewhere.
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                cls = self.enclosing_class(expr)
                if cls is not None:
                    kind = self.class_attrs.get(cls, {}).get(expr.attr)
                    if kind is not None:
                        return kind
            if expr.attr in self.unordered_attrs:
                return SET
            return None
        return None

    def _infer_call(self, call: ast.Call, scope: Optional[Scope]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _SET_BUILTINS:
                return SET
            if func.id in _DICT_BUILTINS:
                return DICT
            if func.id in _ORDERED_BUILTINS:
                return ORDERED
            if func.id in self.functions:
                return self.function_return_kind(func.id)
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in _VIEW_METHODS and not call.args and not call.keywords:
                return DICT_VIEW
            if func.attr in self.unordered_methods:
                return SET
            if func.attr == "copy":
                return self.infer(func.value, scope)
        return None

    # ------------------------------------------------------------------
    def local_definition_kind(
        self, expr: ast.expr, scope: Scope
    ) -> Optional[str]:
        """Is ``expr`` an unpicklable payload (REPRO003)?

        Returns one of :data:`UNPICKLABLE_KINDS` or ``None``.  A bare
        lambda is unpicklable; a name is unpicklable when it is bound to
        a lambda, a function defined inside another function, or a class
        defined inside a function.
        """
        if isinstance(expr, ast.Lambda):
            return LAMBDA
        if isinstance(expr, ast.Name):
            kind = scope.lookup(expr.id)
            if kind in UNPICKLABLE_KINDS:
                return kind
        return None
