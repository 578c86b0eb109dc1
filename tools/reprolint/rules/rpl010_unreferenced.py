"""RPL010 — unreferenced module (project-wide).

A module under ``src/repro`` that only the test suite imports is code the
project carries for no caller: the tests keep it green, nothing else runs
it.  The rule flags every public module that a linted file under
``tests/`` imports and no linted file outside ``tests/`` does.  Package
``__init__`` files, ``__main__`` and private modules (``_version``: its
package's own business, read as an attribute of the package) are not
checked.  Neither is a module that no linted file imports at all: that
is what a module looks like when its callers are outside the lint scope
(a single-file run, a pre-commit file list), so the rule needs the whole
default scope to see the callers — tests, ``scripts/``, ``benchmarks/``,
``examples/`` and ``tools/`` alike.

An import counts when it names the module directly (``import a.b``,
``from a import b``, ``from a.b import x``) or reaches it through a
package ``__init__`` re-export: ``from repro.circuits import X`` uses the
submodule ``repro/circuits/__init__.py`` imported ``X`` from, following
chains of re-exports.  A package ``__init__`` importing from inside its
own package is that re-export, not a use.  Imports that only exist as
strings (``importlib``, tracer entry points) are invisible to the AST;
suppress on the module's first line and name that caller::

    # reprolint: disable=RPL010 -- named as a string by tools/trace.py

Only whole modules are checked: attribute calls cannot be resolved to a
definition from the AST without false positives.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from reprolint.diagnostics import Diagnostic
from reprolint.project import ProjectContext
from reprolint.registry import ProjectRule, register

#: Importers under these root-relative prefixes are not callers.
TEST_ROOTS = ("tests",)


@register
class UnreferencedModule(ProjectRule):
    code = "RPL010"
    summary = "module imported from tests/ but by no other linted file"
    default_include = ["src/repro"]

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        modules: Dict[str, str] = {}
        packages: Set[str] = set()
        for rel, summary in project.files.items():
            if summary.module_name:
                modules[summary.module_name] = rel
                if rel.endswith("/__init__.py"):
                    packages.add(summary.module_name)

        # (package, name) -> module a package __init__ took ``name`` from.
        reexports: Dict[Tuple[str, str], str] = {}
        for package in packages:
            for base, name in project.files[modules[package]].from_imports:
                reexports[(package, name)] = base

        used: Set[str] = set()
        tested: Set[str] = set()
        for rel, summary in project.files.items():
            own = summary.module_name if summary.module_name in packages else None
            targets = set(summary.imports)
            for base, name in summary.from_imports:
                target = _resolve(base, name, modules, reexports)
                if target is not None:
                    targets.add(target)
            targets = {module for module in targets if not _inside(module, own)}
            if rel.split("/", 1)[0] in TEST_ROOTS:
                tested |= targets
            else:
                used |= targets

        options = project.options_for(self.code)
        for module in sorted(tested.intersection(modules)):
            rel = modules[module]
            if module in used or module in packages:
                continue
            if module.rpartition(".")[2].startswith("_"):
                continue  # private modules and __main__
            if not self.applies_to_rel(rel, options):
                continue
            yield project.diagnostic(
                self.code,
                rel,
                f"module `{module}` is imported only from tests/: no other "
                "linted file imports it, directly or through a package "
                "`__init__` re-export; delete it with its tests, or "
                "suppress here naming the caller the AST cannot see",
                line=1,
            )


def _inside(module: str, package: Optional[str]) -> bool:
    return package is not None and module.startswith(package + ".")


def _resolve(
    base: str,
    name: str,
    modules: Dict[str, str],
    reexports: Dict[Tuple[str, str], str],
) -> Optional[str]:
    """The module ``from base import name`` uses, following re-exports."""
    seen: Set[str] = set()
    while base not in seen:
        seen.add(base)
        if f"{base}.{name}" in modules:
            return f"{base}.{name}"
        if (base, name) not in reexports:
            break
        base = reexports[(base, name)]
    return base if base in modules else None
