"""Whole-program context for project-wide lint rules.

The per-file rules (REP1xx–5xx) see one parsed module at a time; the
properties PRs 6–10 introduced — lock ordering across ``service/`` and
``distributed/``, package layering, wire-schema drift — live *between*
modules.  :class:`ProjectContext` is the shared substrate those rules
opt into: every parsed module of a lint run, a resolved
``repro.*``-internal import graph (load-time edges distinguished from
lazy function-scoped ones), and a cross-module symbol index
(``repro.pkg.mod.Class.method`` → AST node) cheap enough to rebuild on
every run — the whole tree parses in well under a second.

A rule that needs the whole program subclasses :class:`ProjectRule`
and implements :meth:`ProjectRule.check_project`; the engine runs it
once per lint invocation (after the per-file pass) and routes its
findings through the same suppression and baseline filters.  Like the
rest of :mod:`repro.analysis`, nothing here imports the rest of repro
at module load.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import FileContext, Finding, Rule

__all__ = [
    "ImportEdge",
    "ModuleInfo",
    "ProjectContext",
    "ProjectRule",
    "build_project",
]


@dataclass(frozen=True)
class ImportEdge:
    """One resolved repro-internal import: ``src`` imports ``dst``."""

    src: str
    dst: str
    line: int
    col: int
    #: True when the import statement sits inside a function body —
    #: deferred until call time, so it creates no load-time coupling.
    lazy: bool


@dataclass
class ModuleInfo:
    """One parsed module of the project under analysis."""

    #: Display path as reported in findings (repo-relative).
    path: str
    #: Dotted module name ("" for files outside ``src/repro``).
    module: str
    source: str
    tree: ast.Module
    #: True for ``__init__.py`` files (changes relative-import anchors).
    is_package: bool

    def context(self) -> FileContext:
        return FileContext(path=self.path, source=self.source)


def _qualify(module: str, scope: list[str], name: str) -> str:
    parts = [p for p in ([module] if module else []) + scope + [name] if p]
    return ".".join(parts)


class ProjectContext:
    """Import graph + symbol index over every module in a lint run."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        #: Every parsed file, in path order (includes tests).
        self.files: list[ModuleInfo] = sorted(
            modules, key=lambda m: m.path
        )
        #: Dotted name → module, for files under ``src/repro`` only.
        self.modules: dict[str, ModuleInfo] = {
            m.module: m for m in self.files if m.module
        }
        #: Resolved repro-internal import edges, in discovery order.
        self.imports: list[ImportEdge] = []
        #: ``src module → {dst module}`` including lazy edges.
        self.import_graph: dict[str, set[str]] = {}
        #: Load-time-only subgraph (what ``import src`` itself pulls in).
        self.load_graph: dict[str, set[str]] = {}
        #: Qualified name → def node, e.g. ``repro.service.pool.
        #: SpectrumPool.get_or_build`` (functions and methods).
        self.functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        #: Qualified name → class node.
        self.classes: dict[str, ast.ClassDef] = {}
        #: Bare method/function name → sorted qualified names defining it.
        self.by_name: dict[str, list[str]] = {}
        #: Qualified function name → defining module info.
        self.function_module: dict[str, ModuleInfo] = {}
        for info in self.files:
            self._index_module(info)
        for names in self.by_name.values():
            names.sort()

    # -- construction --------------------------------------------------
    def _index_module(self, info: ModuleInfo) -> None:
        if info.module:
            self.import_graph.setdefault(info.module, set())
            self.load_graph.setdefault(info.module, set())
        self._walk_scope(info, info.tree, scope=[], lazy=False)

    def _walk_scope(
        self,
        info: ModuleInfo,
        node: ast.AST,
        scope: list[str],
        lazy: bool,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                if info.module:
                    for dst in self._resolve_import(info, child):
                        edge = ImportEdge(
                            src=info.module,
                            dst=dst,
                            line=child.lineno,
                            col=child.col_offset + 1,
                            lazy=lazy,
                        )
                        self.imports.append(edge)
                        self.import_graph[info.module].add(dst)
                        if not lazy:
                            self.load_graph[info.module].add(dst)
                continue
            if isinstance(child, ast.ClassDef):
                qual = _qualify(info.module or info.path, scope, child.name)
                self.classes[qual] = child
                self._walk_scope(
                    info, child, scope + [child.name], lazy
                )
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = _qualify(info.module or info.path, scope, child.name)
                self.functions[qual] = child
                self.function_module[qual] = info
                self.by_name.setdefault(child.name, []).append(qual)
                self._walk_scope(
                    info, child, scope + [child.name], lazy=True
                )
                continue
            self._walk_scope(info, child, scope, lazy)

    def _resolve_import(
        self, info: ModuleInfo, node: ast.Import | ast.ImportFrom
    ) -> Iterator[str]:
        """Dotted repro-internal targets of one import statement."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield alias.name
            return
        if node.level == 0:
            base = node.module or ""
        else:
            parts = info.module.split(".")
            if not info.is_package:
                parts = parts[:-1]
            parts = parts[: max(0, len(parts) - (node.level - 1))]
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if not _is_repro(base):
            return
        emitted = False
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in self.modules:
                emitted = True
                yield candidate
        if not emitted:
            yield base

    # -- queries -------------------------------------------------------
    def import_edges(
        self, src: str, include_lazy: bool = True
    ) -> list[ImportEdge]:
        return [
            e
            for e in self.imports
            if e.src == src and (include_lazy or not e.lazy)
        ]

    def load_imports_closure(self, module: str) -> set[str]:
        """Every repro module transitively imported at load time."""
        seen: set[str] = set()
        stack = [module]
        while stack:
            current = stack.pop()
            for dst in self.load_graph.get(current, ()):
                target = self._graph_key(dst)
                if target is not None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def _graph_key(self, dst: str) -> str | None:
        """Map an import target onto a known module (or its package)."""
        if dst in self.load_graph:
            return dst
        head = dst.rsplit(".", 1)[0]
        return head if head in self.load_graph else None

    def resolve_call(
        self, call: ast.Call, module: str, cls: str | None
    ) -> str | None:
        """Best-effort qualified name of a call target.

        Three deterministic resolutions, in order: ``self.m()`` to the
        enclosing class's method, a bare ``f()`` to a module-level
        function of the same module, and ``obj.m()`` to the unique
        project-wide definition of method ``m`` when exactly one class
        defines it.  Anything ambiguous resolves to ``None`` — rules
        built on this must treat unresolved calls conservatively.
        """
        func = call.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and cls is not None
            ):
                qual = f"{module}.{cls}.{func.attr}" if module else ""
                if qual in self.functions:
                    return qual
            candidates = [
                q
                for q in self.by_name.get(func.attr, [])
                if "." in q and q.rsplit(".", 2)[-2][:1].isupper()
            ]
            if len(candidates) == 1:
                return candidates[0]
            return None
        if isinstance(func, ast.Name):
            qual = f"{module}.{func.id}" if module else func.id
            if qual in self.functions:
                return qual
        return None


class ProjectRule(Rule):
    """A rule that runs once over the whole project.

    ``check`` (the per-file entry point) is a no-op; the engine calls
    :meth:`check_project` after parsing every file.  Findings are
    anchored to real file/line locations so ``# repro: noqa[...]``
    suppression and baseline fingerprints work unchanged.
    """

    def check(
        self, tree: ast.Module, ctx: FileContext
    ) -> Iterable[Finding]:
        return ()

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        raise NotImplementedError

    def project_finding(
        self,
        info: ModuleInfo,
        node: ast.AST,
        message: str,
        line: int | None = None,
        col: int | None = None,
    ) -> Finding:
        return Finding(
            path=info.path,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=(
                col
                if col is not None
                else getattr(node, "col_offset", 0) + 1
            ),
            rule=self.id,
            message=message,
        )


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def build_project(
    sources: Iterable[tuple[str, str, ast.Module]]
) -> ProjectContext:
    """Assemble a :class:`ProjectContext` from parsed ``(path, source,
    tree)`` triples (the engine's parse results)."""
    from .core import module_name_for_path

    infos = []
    for path, source, tree in sources:
        infos.append(
            ModuleInfo(
                path=path,
                module=module_name_for_path(path),
                source=source,
                tree=tree,
                is_package=path.replace("\\", "/").endswith("__init__.py"),
            )
        )
    return ProjectContext(infos)
