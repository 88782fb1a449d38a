"""Project-wide call graph shared by whole-program lint rules.

Every reachability-based rule before this module reasoned about one
file at a time, so an ``O(batch)`` reduction two modules away from the
decode loop was invisible. :class:`ProjectGraph` indexes every
function, method and class across all linted files once per run and
resolves call edges through the constructs this tree actually uses:

* **aliased imports** — ``from ..latency.parallel import decode_times``
  and ``import repro.latency.parallel as lp; lp.decode_times(...)``
  both resolve to ``repro.latency.parallel.decode_times``;
* **method calls through attribute types** — ``self._timer =
  DecodeStepTimer(...)`` (or an ``x: KVBlockManager`` annotation) types
  the attribute, so ``self._timer.step_latency_fn(...)`` resolves to
  the method, including through single-level local aliases
  (``timer = self._timer``) and annotated parameters;
* **decorators** — ``@register`` application is an edge from the
  module's top-level pseudo-node to the decorator, and calls to the
  decorated name keep resolving to the decorated function;
* **first-order callables** — a function passed *as an argument*
  (``sim.schedule_at(end, _complete)``, tasks handed to
  ``ParallelEvaluator.run``, ``fn=self._pending_pull_depth``) creates
  an edge from the enclosing function to the callable, recorded with
  the sink's name so rules can treat callback registries as roots.

Unresolvable dynamic calls fall back to a *unique-name* match: if
exactly one project function has the called method name, the edge is
added (deterministic, and only widens reachability); ambiguous names
create no edge. Known blind spots are documented in DESIGN.md §4i.

Builds are cached two ways: an in-process memo keyed on the content
hash of every source file (so repeated engine runs in one process are
free), and an optional on-disk JSON cache (``--cache-dir``) storing the
resolved edges keyed on the same hash for CI reuse.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CallableArg",
    "ClassInfo",
    "FunctionNode",
    "MODULE_NODE",
    "ProjectGraph",
    "build_from_sources",
    "build_project",
]

#: Name of the pseudo-function holding a module's top-level statements.
MODULE_NODE = "<module>"

#: Method names shared with builtin containers/strings/files: a project
#: class defining one of these uniquely must NOT capture every
#: ``list.append`` / ``dict.get`` in the tree via the unique-name
#: fallback, so these never resolve without a typed receiver.
_BUILTIN_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "close", "copy", "count",
    "discard", "extend", "format", "get", "index", "insert", "items",
    "join", "keys", "pop", "popleft", "read", "remove", "setdefault",
    "sort", "split", "strip", "update", "values", "write",
})


@dataclass(frozen=True)
class FunctionNode:
    """One function, method, or module pseudo-node in the graph."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]  # enclosing class qualname, if a method
    lineno: int
    path: str
    node: Optional[ast.AST] = field(compare=False, repr=False, default=None)


@dataclass(frozen=True)
class ClassInfo:
    """A project class: its methods and bases."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]


@dataclass(frozen=True)
class CallableArg:
    """A first-order callable passed as an argument to some call."""

    caller: str
    sink: str  # tail name of the call receiving the callable
    callee: str


# ----------------------------------------------------------------------
# Per-module symbol tables (build-time only)
# ----------------------------------------------------------------------


class _ModuleIndex:
    def __init__(self, module: str, path: str, tree: ast.Module) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        #: local binding -> absolute dotted target
        self.imports: Dict[str, str] = {}
        #: local class name -> class qualname
        self.local_classes: Dict[str, str] = {}


def _collect_imports(index: _ModuleIndex) -> None:
    package = index.module.rsplit(".", 1)[0] if "." in index.module else ""
    for node in ast.walk(index.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                index.imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = index.module.split(".")
                # level=1 is the containing package of this module.
                anchor = anchor[: len(anchor) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            elif not base:
                base = package
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                index.imports[bound] = f"{base}.{alias.name}" if base else alias.name


# ----------------------------------------------------------------------
# The graph
# ----------------------------------------------------------------------


class ProjectGraph:
    """Functions, classes, and resolved call edges over a set of modules."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.trees: Dict[str, ast.Module] = {}
        self.module_paths: Dict[str, str] = {}
        self.edges: Dict[str, Tuple[str, ...]] = {}
        self.callable_args: Tuple[CallableArg, ...] = ()
        self.source_hash: str = ""
        self._reach_cache: "Dict[frozenset[str], frozenset[str]]" = {}

    # -- queries -------------------------------------------------------
    def functions_in_module(self, module: str) -> List[FunctionNode]:
        return sorted(
            (fn for fn in self.functions.values() if fn.module == module),
            key=lambda fn: fn.qualname,
        )

    def reachable_from(self, seeds: Iterable[str]) -> "frozenset[str]":
        """Qualnames transitively reachable from ``seeds`` (inclusive)."""
        key = frozenset(seed for seed in seeds if seed in self.functions)
        cached = self._reach_cache.get(key)
        if cached is not None:
            return cached
        seen: "set[str]" = set()
        frontier: List[str] = sorted(key)
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    frontier.append(callee)
        result = frozenset(seen)
        self._reach_cache[key] = result
        return result


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------


class _Builder:
    def __init__(self, entries: Sequence[Tuple[str, str, str]]) -> None:
        # entries: (module, path, source) — deterministic order.
        self.graph = ProjectGraph()
        self.indexes: Dict[str, _ModuleIndex] = {}
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self._edges: Dict[str, "set[str]"] = {}
        self._callable_args: List[CallableArg] = []
        hasher = hashlib.sha256()
        for module, path, source in entries:
            hasher.update(module.encode())
            hasher.update(b"\x00")
            hasher.update(source.encode("utf-8", "replace"))
            hasher.update(b"\x01")
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                continue  # the engine reports E999 for this file
            self.graph.trees[module] = tree
            self.graph.module_paths[module] = path
            self.indexes[module] = _ModuleIndex(module, path, tree)
        self.graph.source_hash = hasher.hexdigest()

    # -- pass A: indexing ---------------------------------------------
    def index(self) -> None:
        for module in sorted(self.indexes):
            index = self.indexes[module]
            _collect_imports(index)
            self._index_scope(index, index.tree, [], None)
            pseudo = f"{module}.{MODULE_NODE}"
            self.graph.functions[pseudo] = FunctionNode(
                qualname=pseudo,
                module=module,
                name=MODULE_NODE,
                cls=None,
                lineno=1,
                path=index.path,
                node=index.tree,
            )

    def _index_scope(
        self,
        index: _ModuleIndex,
        node: ast.AST,
        scope: List[str],
        cls: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = ".".join([index.module] + scope + [child.name])
                methods = tuple(
                    sub.name
                    for sub in child.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                bases = tuple(
                    name
                    for name in (_dotted(b) for b in child.bases)
                    if name is not None
                )
                self.graph.classes[qualname] = ClassInfo(
                    qualname=qualname,
                    module=index.module,
                    name=child.name,
                    bases=bases,
                    methods=methods,
                )
                index.local_classes.setdefault(child.name, qualname)
                self._index_scope(index, child, scope + [child.name], qualname)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join([index.module] + scope + [child.name])
                self.graph.functions[qualname] = FunctionNode(
                    qualname=qualname,
                    module=index.module,
                    name=child.name,
                    cls=cls if isinstance(node, ast.ClassDef) else None,
                    lineno=child.lineno,
                    path=index.path,
                    node=child,
                )
                self._index_scope(index, child, scope + [child.name], None)
            else:
                self._index_scope(index, child, scope, cls)

    # -- name resolution helpers --------------------------------------
    def _resolve_class_name(
        self, index: _ModuleIndex, dotted: Optional[str]
    ) -> Optional[str]:
        """Resolve a (possibly aliased) dotted name to a class qualname."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        candidates = []
        local = index.local_classes.get(head)
        if local is not None and not rest:
            candidates.append(local)
        imported = index.imports.get(head)
        if imported is not None:
            candidates.append(f"{imported}.{rest}" if rest else imported)
        candidates.append(dotted)
        for candidate in candidates:
            if candidate in self.graph.classes:
                return candidate
        return None

    def _annotation_class(
        self, index: _ModuleIndex, annotation: Optional[ast.expr]
    ) -> Optional[str]:
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            text = annotation.value.strip()
            if text.isidentifier() or all(
                part.isidentifier() for part in text.split(".")
            ):
                return self._resolve_class_name(index, text)
            return None
        return self._resolve_class_name(index, _dotted(annotation))

    def _method_on(self, class_qual: str, name: str) -> Optional[str]:
        """Look up a method on a class or its project bases."""
        seen: "set[str]" = set()
        stack = [class_qual]
        while stack:
            current = stack.pop()
            if current in seen or current not in self.graph.classes:
                continue
            seen.add(current)
            info = self.graph.classes[current]
            if name in info.methods:
                return f"{current}.{name}"
            index = self.indexes.get(info.module)
            if index is not None:
                for base in info.bases:
                    resolved = self._resolve_class_name(index, base)
                    if resolved is not None:
                        stack.append(resolved)
        return None

    # -- pass B: attribute typing -------------------------------------
    def type_attributes(self) -> None:
        for class_qual in sorted(self.graph.classes):
            info = self.graph.classes[class_qual]
            index = self.indexes.get(info.module)
            if index is None:
                continue
            attr_types: Dict[str, str] = {}
            for method in info.methods:
                fn = self.graph.functions.get(f"{class_qual}.{method}")
                if fn is None or fn.node is None:
                    continue
                assert isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
                params = self._param_types(index, fn.node)
                for sub in ast.walk(fn.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target, value = sub.targets[0], sub.value
                    elif isinstance(sub, ast.AnnAssign):
                        target, value = sub.target, sub.value
                        annotated = self._annotation_class(index, sub.annotation)
                        if (
                            annotated is not None
                            and _is_self_attr(target)
                            and isinstance(target, ast.Attribute)
                        ):
                            attr_types.setdefault(target.attr, annotated)
                            continue
                    if not (
                        target is not None
                        and _is_self_attr(target)
                        and isinstance(target, ast.Attribute)
                    ):
                        continue
                    inferred = self._value_class(index, value, params)
                    if inferred is not None:
                        attr_types.setdefault(target.attr, inferred)
            self.attr_types[class_qual] = attr_types

    def _param_types(
        self,
        index: _ModuleIndex,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Dict[str, str]:
        out: Dict[str, str] = {}
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        )
        for arg in args:
            resolved = self._annotation_class(index, arg.annotation)
            if resolved is not None:
                out[arg.arg] = resolved
        return out

    def _value_class(
        self,
        index: _ModuleIndex,
        value: Optional[ast.expr],
        params: Mapping[str, str],
    ) -> Optional[str]:
        """Class qualname produced by evaluating ``value``, if inferable."""
        if value is None:
            return None
        if isinstance(value, ast.Call):
            return self._resolve_class_name(index, _dotted(value.func))
        if isinstance(value, ast.Name):
            return params.get(value.id)
        return None

    # -- pass C: edges -------------------------------------------------
    def build_edges(self) -> None:
        unique_methods = self._unique_method_names()
        for qualname in sorted(self.graph.functions):
            fn = self.graph.functions[qualname]
            index = self.indexes.get(fn.module)
            if index is None or fn.node is None:
                continue
            self._edges.setdefault(qualname, set())
            scope = _FnScope(self, index, fn)
            for call in scope.owned_calls():
                self._edges[qualname].update(
                    scope.resolve_call(call, unique_methods)
                )
                sink = _tail(call.func)
                if sink is not None:
                    for target in scope.callable_arguments(call):
                        self._edges[qualname].add(target)
                        self._callable_args.append(
                            CallableArg(caller=qualname, sink=sink, callee=target)
                        )
            if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Module pseudo-node: decorator applications anywhere in the
            # module run at import time, from module-level code.
            for sub in ast.walk(fn.node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    for decorator in sub.decorator_list:
                        expr = (
                            decorator.func
                            if isinstance(decorator, ast.Call)
                            else decorator
                        )
                        target = scope.resolve_function_name(_dotted(expr))
                        if target is not None:
                            self._edges[qualname].add(target)
        self.graph.edges = {
            caller: tuple(sorted(callees))
            for caller, callees in sorted(self._edges.items())
            if callees
        }
        self.graph.callable_args = tuple(
            sorted(
                self._callable_args,
                key=lambda record: (record.caller, record.sink, record.callee),
            )
        )

    def _unique_method_names(self) -> Dict[str, str]:
        """Bare name -> qualname, for names defined exactly once."""
        counts: Dict[str, List[str]] = {}
        for qualname, fn in self.graph.functions.items():
            if fn.name != MODULE_NODE:
                counts.setdefault(fn.name, []).append(qualname)
        return {
            name: quals[0]
            for name, quals in counts.items()
            if len(quals) == 1
            and not name.startswith("__")
            and name not in _BUILTIN_METHODS
        }

    def finish(self) -> ProjectGraph:
        return self.graph


def _dotted(node: Optional[ast.AST]) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _tail(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class _FnScope:
    """Resolution context for one function body."""

    def __init__(
        self, builder: _Builder, index: _ModuleIndex, fn: FunctionNode
    ) -> None:
        self._builder = builder
        self._index = index
        self._fn = fn
        self._param_types: Dict[str, str] = {}
        self._var_types: Dict[str, str] = {}
        self._var_callables: Dict[str, str] = {}
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._param_types = builder._param_types(index, node)
            self._collect_locals(node)

    # -- body iteration ------------------------------------------------
    def owned_calls(self) -> List[ast.Call]:
        """Calls in this function's own body (lambdas included, nested
        defs excluded — they are their own graph nodes)."""
        calls: List[ast.Call] = []
        node = self._fn.node
        if node is None:
            return calls
        roots = list(ast.iter_child_nodes(node))
        while roots:
            current = roots.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(current, ast.Call):
                calls.append(current)
            roots.extend(ast.iter_child_nodes(current))
        calls.sort(key=lambda call: (call.lineno, call.col_offset))
        return calls

    def _collect_locals(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        stack = list(ast.iter_child_nodes(node))
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(current))
            if not (
                isinstance(current, ast.Assign)
                and len(current.targets) == 1
                and isinstance(current.targets[0], ast.Name)
            ):
                continue
            name = current.targets[0].id
            value = current.value
            if isinstance(value, ast.Call):
                inferred = self._builder._resolve_class_name(
                    self._index, _dotted(value.func)
                )
                if inferred is not None:
                    self._var_types.setdefault(name, inferred)
            elif isinstance(value, ast.Name):
                typed = self._param_types.get(value.id)
                if typed is not None:
                    self._var_types.setdefault(name, typed)
            elif isinstance(value, ast.Attribute):
                # ``timer = self._timer`` keeps the attribute's type;
                # ``inner = engine.submit`` captures a bound method.
                recv_type = self.type_of(value.value)
                if recv_type is not None:
                    attr_class = self._builder.attr_types.get(recv_type, {})
                    typed_attr = attr_class.get(value.attr)
                    if typed_attr is not None:
                        self._var_types.setdefault(name, typed_attr)
                        continue
                    method = self._builder._method_on(recv_type, value.attr)
                    if method is not None:
                        self._var_callables.setdefault(name, method)

    # -- typing --------------------------------------------------------
    def type_of(self, expr: ast.expr) -> Optional[str]:
        """Class qualname of an expression's value, if inferable."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self._fn.cls is not None:
                return self._fn.cls
            return self._var_types.get(expr.id) or self._param_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.type_of(expr.value)
            if base is not None:
                typed = self._builder.attr_types.get(base, {}).get(expr.attr)
                if typed is not None:
                    return typed
            resolved = self._builder._resolve_class_name(self._index, _dotted(expr))
            return resolved
        if isinstance(expr, ast.Call):
            return self._builder._resolve_class_name(
                self._index, _dotted(expr.func)
            )
        return None

    # -- call resolution -----------------------------------------------
    def resolve_function_name(self, dotted: Optional[str]) -> Optional[str]:
        """Resolve a dotted callable name to a project function/ctor."""
        if not dotted:
            return None
        graph = self._builder.graph
        head, _, rest = dotted.partition(".")
        candidates: List[str] = []
        if not rest:
            # A def nested directly inside this function, then sibling
            # defs walking outward through the enclosing scopes.
            candidates.append(f"{self._fn.qualname}.{head}")
            scope = self._fn.qualname
            while "." in scope:
                scope = scope.rsplit(".", 1)[0]
                candidates.append(f"{scope}.{head}")
            candidates.append(f"{self._index.module}.{head}")
        imported = self._index.imports.get(head)
        if imported is not None:
            candidates.append(f"{imported}.{rest}" if rest else imported)
        candidates.append(dotted)
        for candidate in candidates:
            if candidate in graph.functions:
                return candidate
            if candidate in graph.classes:
                init = f"{candidate}.__init__"
                return init if init in graph.functions else None
        return None

    def resolve_call(
        self, call: ast.Call, unique_methods: Mapping[str, str]
    ) -> List[str]:
        """Callee qualnames for one call."""
        func = call.func
        if isinstance(func, ast.Name):
            local = self._var_callables.get(func.id)
            if local is not None:
                return [local]
            target = self.resolve_function_name(func.id)
            return [target] if target else []
        if not isinstance(func, ast.Attribute):
            return []
        # Fully-qualified (possibly aliased) module function.
        direct = self.resolve_function_name(_dotted(func))
        if direct is not None:
            return [direct]
        receiver_class = self.type_of(func.value)
        if receiver_class is not None:
            method = self._builder._method_on(receiver_class, func.attr)
            return [method] if method is not None else []
        # ``self.m()`` on a class that doesn't define m (mixins, dynamic
        # assignment): over-approximate with same-module methods.
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            matches = [
                fn.qualname
                for fn in self._builder.graph.functions_in_module(
                    self._index.module
                )
                if fn.name == func.attr and fn.cls is not None
            ]
            if matches:
                return matches
        unique = unique_methods.get(func.attr)
        return [unique] if unique is not None else []

    def callable_arguments(self, call: ast.Call) -> List[str]:
        """Project functions passed (not called) as arguments."""
        out: List[str] = []
        values: List[ast.expr] = list(call.args) + [
            kw.value for kw in call.keywords
        ]
        for value in list(values):
            if isinstance(value, (ast.List, ast.Tuple)):
                values.extend(value.elts)
        for value in values:
            if isinstance(value, ast.Name):
                target = self.resolve_function_name(value.id)
                if target is not None:
                    out.append(target)
            elif isinstance(value, ast.Attribute):
                recv_type = self.type_of(value.value)
                if recv_type is not None:
                    method = self._builder._method_on(recv_type, value.attr)
                    if method is not None:
                        out.append(method)
                        continue
                target = self.resolve_function_name(_dotted(value))
                if target is not None:
                    out.append(target)
        return sorted(set(out))


# ----------------------------------------------------------------------
# Build entry points + caching
# ----------------------------------------------------------------------

_MEMO: Dict[str, ProjectGraph] = {}


def build_project(
    entries: Sequence[Tuple[str, str, str]],
    cache_dir: "str | Path | None" = None,
) -> ProjectGraph:
    """Build (or reuse) the graph for ``(module, path, source)`` entries."""
    builder = _Builder(entries)
    cached = _MEMO.get(builder.graph.source_hash)
    if cached is not None:
        return cached
    builder.index()
    builder.type_attributes()
    disk = _load_disk_cache(cache_dir, builder.graph.source_hash)
    if disk is not None:
        _apply_disk_cache(builder.graph, disk)
    else:
        builder.build_edges()
        _write_disk_cache(cache_dir, builder.graph)
    graph = builder.finish()
    _MEMO.clear()  # keep at most one graph alive
    _MEMO[graph.source_hash] = graph
    return graph


def build_from_sources(sources: Mapping[str, str]) -> ProjectGraph:
    """Convenience builder for in-memory fixtures: module name -> source."""
    entries = [
        (module, f"<{module}>", source) for module, source in sorted(sources.items())
    ]
    return build_project(entries)


def _cache_path(cache_dir: "str | Path | None", source_hash: str) -> Optional[Path]:
    if cache_dir is None:
        return None
    return Path(cache_dir) / f"callgraph-{source_hash[:32]}.json"


def _load_disk_cache(
    cache_dir: "str | Path | None", source_hash: str
) -> "dict[str, object] | None":
    path = _cache_path(cache_dir, source_hash)
    if path is None or not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("hash") != source_hash:
        return None
    return payload


def _apply_disk_cache(graph: ProjectGraph, payload: "dict[str, object]") -> None:
    edges = payload.get("edges")
    if isinstance(edges, dict):
        graph.edges = {
            str(caller): tuple(str(c) for c in callees)
            for caller, callees in sorted(edges.items())
            if isinstance(callees, list)
        }
    callable_args = payload.get("callable_args")
    if isinstance(callable_args, list):
        graph.callable_args = tuple(
            CallableArg(caller=str(r[0]), sink=str(r[1]), callee=str(r[2]))
            for r in callable_args
            if isinstance(r, list) and len(r) == 3
        )


def _write_disk_cache(cache_dir: "str | Path | None", graph: ProjectGraph) -> None:
    path = _cache_path(cache_dir, graph.source_hash)
    if path is None:
        return
    payload = {
        "hash": graph.source_hash,
        "edges": {
            caller: list(callees) for caller, callees in sorted(graph.edges.items())
        },
        "callable_args": [
            [record.caller, record.sink, record.callee]
            for record in graph.callable_args
        ],
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=0, sort_keys=True), encoding="utf-8")
    except OSError:
        pass  # caching is best-effort; the build already succeeded
