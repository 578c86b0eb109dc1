"""Project-wide analysis context (the pass-1 artefact pass 2 runs against).

Pass 1 parses every file once and reduces it to a :class:`FileSummary` —
imports, top-level definitions, and a per-class index of lock attributes
and instance-attribute write sites (with the ``with self._lock`` context
each write happened under).  Summaries are plain JSON-serialisable data so
they live in the on-disk diagnostics cache keyed by content hash; pass 2
assembles them into a :class:`ProjectContext` that project rules
(``RPL007``–``RPL010``) query for cross-module facts:

* qualified-name resolution (``repro.serving.wal.WriteAheadLog`` → the file
  and class that define it),
* the project-internal import graph,
* per-class attribute-write indexes merged across inheritance, even when
  base classes live in other files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from reprolint.config import Config
from reprolint.diagnostics import Diagnostic
from reprolint.qualnames import import_aliases, qualified_name

#: Callables whose result, assigned to ``self.<attr>`` anywhere in a class,
#: marks that attribute as a lock (``with self.<attr>:`` guards state).
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Container method calls that mutate ``self.<attr>`` in place.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
    }
)


@dataclass(frozen=True)
class WriteSite:
    """One mutation of ``self.<attr>`` inside a method."""

    attr: str
    method: str
    line: int
    col: int
    end_line: int
    #: ``self``-attributes held as context managers (``with self._lock:``)
    #: enclosing the write, innermost last.
    locks: Tuple[str, ...]
    #: ``assign`` | ``augassign`` | ``del`` | ``subscript`` | ``mutate``.
    kind: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attr": self.attr,
            "method": self.method,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "locks": list(self.locks),
            "kind": self.kind,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "WriteSite":
        return WriteSite(
            attr=str(data["attr"]),
            method=str(data["method"]),
            line=int(data["line"]),
            col=int(data["col"]),
            end_line=int(data["end_line"]),
            locks=tuple(str(lock) for lock in data["locks"]),
            kind=str(data["kind"]),
        )


@dataclass
class ClassSummary:
    """Lock attributes and attribute-write sites of one class."""

    name: str
    qualname: str
    #: Base classes, resolved through the file's import table when possible
    #: (``repro.serving.worker.ShardWorker``) else left as spelled.
    bases: List[str] = field(default_factory=list)
    lock_attrs: List[str] = field(default_factory=list)
    writes: List[WriteSite] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "bases": list(self.bases),
            "lock_attrs": list(self.lock_attrs),
            "writes": [site.to_dict() for site in self.writes],
            "methods": list(self.methods),
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ClassSummary":
        return ClassSummary(
            name=str(data["name"]),
            qualname=str(data["qualname"]),
            bases=[str(b) for b in data["bases"]],
            lock_attrs=[str(a) for a in data["lock_attrs"]],
            writes=[WriteSite.from_dict(w) for w in data["writes"]],
            methods=[str(m) for m in data["methods"]],
        )


@dataclass
class FileSummary:
    """Everything pass 2 needs to know about one parsed file."""

    rel_path: str
    module_name: Optional[str]
    #: Modules this file imports (absolute dotted names, project-internal
    #: and external alike; the graph filters to project members).
    imports: List[str] = field(default_factory=list)
    #: ``(module, name)`` for every ``from module import name`` (relative
    #: bases resolved; ``*`` skipped) — what RPL010 follows through package
    #: ``__init__`` re-exports.
    from_imports: List[Tuple[str, str]] = field(default_factory=list)
    #: Names defined at module top level (functions, classes, assignments).
    defs: List[str] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rel_path": self.rel_path,
            "module_name": self.module_name,
            "imports": list(self.imports),
            "from_imports": [list(pair) for pair in self.from_imports],
            "defs": list(self.defs),
            "classes": [cls.to_dict() for cls in self.classes],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FileSummary":
        module = data["module_name"]
        return FileSummary(
            rel_path=str(data["rel_path"]),
            module_name=str(module) if module is not None else None,
            imports=[str(m) for m in data["imports"]],
            from_imports=[(str(m), str(n)) for m, n in data["from_imports"]],
            defs=[str(d) for d in data["defs"]],
            classes=[ClassSummary.from_dict(c) for c in data["classes"]],
        )


# ---------------------------------------------------------------------------
# summarisation (pass 1)
# ---------------------------------------------------------------------------
def summarize_file(
    tree: ast.Module, rel_path: str, module_name: Optional[str]
) -> FileSummary:
    """Reduce a parsed module to its :class:`FileSummary`."""
    aliases = import_aliases(tree, module_name)
    summary = FileSummary(rel_path=rel_path, module_name=module_name)
    summary.imports, summary.from_imports = _imported_modules(tree, module_name)
    prefix = module_name if module_name else rel_path
    for node in tree.body:
        for name in _defined_names(node):
            if name not in summary.defs:
                summary.defs.append(name)
        if isinstance(node, ast.ClassDef):
            summary.classes.append(
                _summarize_class(node, f"{prefix}.{node.name}", aliases, module_name)
            )
    return summary


def _imported_modules(
    tree: ast.Module, module_name: Optional[str]
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Imported modules, and the ``(module, name)`` pairs of from-imports."""
    from reprolint.qualnames import _resolve_from_base

    modules: List[str] = []
    pairs: List[Tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name not in modules:
                    modules.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(node, module_name)
            if not base:
                continue
            if base not in modules:
                modules.append(base)
            for alias in node.names:
                if alias.name != "*" and (base, alias.name) not in pairs:
                    pairs.append((base, alias.name))
    return modules, pairs


def _defined_names(node: ast.stmt) -> List[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            return [node.target.id]
    return []


def _summarize_class(
    node: ast.ClassDef,
    qualname: str,
    aliases: Dict[str, str],
    module_name: Optional[str],
) -> ClassSummary:
    summary = ClassSummary(name=node.name, qualname=qualname)
    for base in node.bases:
        summary.bases.append(_base_name(base, aliases, module_name))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.methods.append(stmt.name)
            self_name = _self_name(stmt)
            if self_name is None:
                continue
            collector = _MethodCollector(stmt.name, self_name, aliases)
            for child in stmt.body:
                collector.visit_stmt(child, ())
            summary.writes.extend(collector.writes)
            for attr in collector.lock_attrs:
                if attr not in summary.lock_attrs:
                    summary.lock_attrs.append(attr)
    summary.lock_attrs.sort()
    return summary


def _base_name(
    base: ast.expr, aliases: Dict[str, str], module_name: Optional[str]
) -> str:
    if isinstance(base, ast.Name):
        resolved = aliases.get(base.id)
        if resolved:
            return resolved
        return f"{module_name}.{base.id}" if module_name else base.id
    resolved = qualified_name(base, aliases)
    if resolved:
        return resolved
    try:
        return ast.unparse(base)
    except (ValueError, RecursionError):  # pragma: no cover - defensive
        return "<unknown>"


def _self_name(func: ast.AST) -> Optional[str]:
    args = getattr(func, "args", None)
    if args is None:
        return None
    positional = list(args.posonlyargs) + list(args.args)
    if not positional:
        return None
    return positional[0].arg


class _MethodCollector:
    """Walk one method body tracking held ``with self.<attr>`` contexts."""

    def __init__(self, method: str, self_name: str, aliases: Dict[str, str]) -> None:
        self.method = method
        self.self_name = self_name
        self.aliases = aliases
        self.writes: List[WriteSite] = []
        self.lock_attrs: Set[str] = set()

    # -- statement dispatch -------------------------------------------------
    def visit_stmt(self, node: ast.stmt, locks: Tuple[str, ...]) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_target(target, locks, "assign")
            self._check_lock_factory(node)
            self._visit_calls(node, locks)
        elif isinstance(node, ast.AugAssign):
            self._record_target(node.target, locks, "augassign")
            self._visit_calls(node, locks)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._record_target(node.target, locks, "assign")
                self._check_lock_factory(node)
                self._visit_calls(node, locks)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_target(target, locks, "del")
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            held = locks
            for item in node.items:
                attr = self._self_attr(item.context_expr)
                if attr is not None:
                    held = held + (attr,)
                self._visit_calls(item.context_expr, locks)
            for child in node.body:
                self.visit_stmt(child, held)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure defined here may run later, outside the lock; writes
            # inside it still belong to this method but drop the held locks
            # only if we could prove deferred execution — we cannot, so keep
            # them (conservative toward fewer false positives).
            for child in node.body:
                self.visit_stmt(child, locks)
        elif isinstance(node, (ast.If, ast.While)):
            self._visit_calls(node.test, locks)
            for child in node.body + node.orelse:
                self.visit_stmt(child, locks)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._record_target(node.target, locks, "assign")
            self._visit_calls(node.iter, locks)
            for child in node.body + node.orelse:
                self.visit_stmt(child, locks)
        elif isinstance(node, ast.Try):
            for child in node.body + node.orelse + node.finalbody:
                self.visit_stmt(child, locks)
            for handler in node.handlers:
                for child in handler.body:
                    self.visit_stmt(child, locks)
        elif isinstance(node, (ast.Expr, ast.Return, ast.Raise, ast.Assert)):
            self._visit_calls(node, locks)
        else:
            self._visit_calls(node, locks)

    # -- helpers ------------------------------------------------------------
    def _self_attr(self, node: ast.expr) -> Optional[str]:
        """``self.<attr>`` (one level) or ``None``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def _record_target(
        self, target: ast.expr, locks: Tuple[str, ...], kind: str
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, locks, kind)
            return
        if isinstance(target, ast.Starred):
            self._record_target(target.value, locks, kind)
            return
        attr = self._self_attr(target)
        if attr is not None:
            self._add_write(attr, target, locks, kind)
            return
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._add_write(attr, target, locks, "subscript")

    def _visit_calls(self, node: ast.AST, locks: Tuple[str, ...]) -> None:
        """Record mutating method calls ``self.<attr>.append(...)`` etc."""
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
                attr = self._self_attr(func.value)
                if attr is not None:
                    self._add_write(attr, call, locks, "mutate")

    def _check_lock_factory(self, node: ast.stmt) -> None:
        value = getattr(node, "value", None)
        if not isinstance(value, ast.Call):
            return
        resolved = qualified_name(value.func, self.aliases)
        if resolved not in LOCK_FACTORIES:
            return
        targets = getattr(node, "targets", None)
        if targets is None:
            target = getattr(node, "target", None)
            targets = [target] if target is not None else []
        for target in targets:
            attr = self._self_attr(target)
            if attr is not None:
                self.lock_attrs.add(attr)

    def _add_write(
        self, attr: str, node: ast.AST, locks: Tuple[str, ...], kind: str
    ) -> None:
        self.writes.append(
            WriteSite(
                attr=attr,
                method=self.method,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                end_line=getattr(node, "end_lineno", 0) or 0,
                locks=locks,
                kind=kind,
            )
        )


# ---------------------------------------------------------------------------
# project context (pass 2)
# ---------------------------------------------------------------------------
class ProjectContext:
    """The assembled whole-program view project rules check against."""

    def __init__(self, config: Config) -> None:
        self.config = config
        #: rel_path -> FileSummary for every parseable linted file.
        self.files: Dict[str, FileSummary] = {}
        #: rel_path -> path as given on the command line (diagnostic paths).
        self._paths: Dict[str, str] = {}
        #: rule code -> rel_path -> that rule's collect() output.
        self.collected: Dict[str, Dict[str, Any]] = {}
        self._module_index: Dict[str, str] = {}
        self._class_index: Dict[str, Tuple[str, ClassSummary]] = {}

    # -- assembly -----------------------------------------------------------
    def add_file(
        self,
        path: str,
        summary: FileSummary,
        collected: Optional[Dict[str, Any]] = None,
    ) -> None:
        rel = summary.rel_path
        self.files[rel] = summary
        self._paths[rel] = path
        if summary.module_name:
            self._module_index[summary.module_name] = rel
        for cls in summary.classes:
            self._class_index[cls.qualname] = (rel, cls)
        for code, data in (collected or {}).items():
            self.collected.setdefault(code, {})[rel] = data

    # -- queries ------------------------------------------------------------
    def path_for(self, rel_path: str) -> str:
        """The as-invoked path for a root-relative one (diagnostic anchors)."""
        return self._paths.get(rel_path, rel_path)

    def options_for(self, code: str) -> Dict[str, Any]:
        return self.config.options_for(code)

    def collected_for(self, code: str) -> Dict[str, Any]:
        """rel_path -> collect() output for one rule, sorted by path."""
        data = self.collected.get(code, {})
        return {rel: data[rel] for rel in sorted(data)}

    def module_file(self, module: str) -> Optional[str]:
        return self._module_index.get(module)

    def resolve(self, qualname: str) -> Optional[str]:
        """rel_path defining ``qualname`` (a module or module-level name)."""
        if qualname in self._module_index:
            return self._module_index[qualname]
        if "." in qualname:
            module, _, name = qualname.rpartition(".")
            rel = self._module_index.get(module)
            if rel is not None and name in self.files[rel].defs:
                return rel
        return None

    def lookup_class(self, qualname: str) -> Optional[Tuple[str, ClassSummary]]:
        return self._class_index.get(qualname)

    def import_graph(self) -> Dict[str, List[str]]:
        """Project-internal import edges: module -> sorted imported modules."""
        graph: Dict[str, List[str]] = {}
        for rel in sorted(self.files):
            summary = self.files[rel]
            if not summary.module_name:
                continue
            edges = sorted(
                module
                for module in summary.imports
                if module in self._module_index and module != summary.module_name
            )
            graph[summary.module_name] = edges
        return graph

    def all_classes(self) -> List[Tuple[str, ClassSummary]]:
        """Every class in the project as ``(rel_path, summary)``, sorted."""
        return [
            self._class_index[qualname] for qualname in sorted(self._class_index)
        ]

    def inheritance_closure(self, qualname: str) -> List[Tuple[str, ClassSummary]]:
        """The class plus every project-resolvable ancestor, base-first order."""
        seen: Set[str] = set()
        out: List[Tuple[str, ClassSummary]] = []

        def walk(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            entry = self._class_index.get(name)
            if entry is None:
                return
            for base in entry[1].bases:
                walk(base)
            out.append(entry)

        walk(qualname)
        return out

    def class_writes(self, qualname: str) -> List[Tuple[str, WriteSite]]:
        """All instance-attribute writes across the inheritance closure."""
        sites: List[Tuple[str, WriteSite]] = []
        for rel, cls in self.inheritance_closure(qualname):
            for site in cls.writes:
                sites.append((rel, site))
        return sites

    def class_lock_attrs(self, qualname: str) -> List[str]:
        """Lock attributes declared anywhere in the inheritance closure."""
        attrs: Set[str] = set()
        for _, cls in self.inheritance_closure(qualname):
            attrs.update(cls.lock_attrs)
        return sorted(attrs)

    # -- diagnostics --------------------------------------------------------
    def diagnostic(
        self,
        code: str,
        rel_path: str,
        message: str,
        line: int,
        col: int = 0,
        end_line: int = 0,
    ) -> Diagnostic:
        return Diagnostic(
            path=self.path_for(rel_path),
            line=line,
            col=col,
            code=code,
            message=message,
            end_line=end_line,
        )

    def rel_of(self, path: str) -> Optional[str]:
        """Inverse of :meth:`path_for` (for suppression lookups)."""
        for rel in self._paths:
            if self._paths[rel] == path:
                return rel
        return None


def iter_summaries(
    project: ProjectContext, rel_paths: Iterable[str]
) -> List[FileSummary]:
    """Summaries for ``rel_paths`` that exist in the project, sorted."""
    return [project.files[rel] for rel in sorted(rel_paths) if rel in project.files]
