"""RPL007 — lock-discipline on instance attributes (project-wide).

When a class guards an attribute with a lock *somewhere* — any method
mutates ``self.attr`` inside ``with self._lock:`` — then every other
mutation of that attribute in the class must also hold the lock.  A single
unguarded write is how the serving stack's ingest fan-out
(``router.thread_map``) and the WAL write buffer
corrupt state under concurrency: the guarded sites promise exclusion the
stray site silently breaks.

The rule is project-wide because the evidence spans files: lock attributes
are detected from ``threading.Lock()/RLock()/Condition()`` assignments in
any method (``__init__`` usually), base classes may live in other modules
(the attribute-write index is merged across the inheritance closure), and
the diagnostic must cite the guarded site that establishes the discipline.

Conventions understood:

* ``__init__``/``__new__`` writes are construction (happens-before
  publication) and never count as violations.
* Methods suffixed ``_locked`` (configurable, ``assume-held-suffixes``)
  assert the caller holds the lock; their writes count as guarded.
* Holding *any* of the class's lock attributes guards a write — classes
  with several locks partition state by convention this linter does not
  second-guess.

Options (``[tool.reprolint.rules.RPL007]``): ``assume-held-suffixes``
(default ``["_locked"]``), ``exempt-methods`` (default
``["__init__", "__new__"]``), plus the standard ``include``/``exempt``.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Set, Tuple

from reprolint.diagnostics import Diagnostic
from reprolint.project import ProjectContext, WriteSite
from reprolint.registry import ProjectRule, register

DEFAULT_ASSUME_HELD_SUFFIXES = ["_locked"]
DEFAULT_EXEMPT_METHODS = ["__init__", "__new__"]


@register
class LockDiscipline(ProjectRule):
    code = "RPL007"
    summary = (
        "attribute guarded by a lock elsewhere in the class is mutated "
        "without holding it"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        options = project.options_for(self.code)
        suffixes: Sequence[str] = options.get(
            "assume-held-suffixes", DEFAULT_ASSUME_HELD_SUFFIXES
        )
        exempt_methods: Sequence[str] = options.get(
            "exempt-methods", DEFAULT_EXEMPT_METHODS
        )
        reported: Set[Tuple[str, int, str]] = set()
        for rel, cls in project.all_classes():
            locks = project.class_lock_attrs(cls.qualname)
            if not locks:
                continue
            writes = project.class_writes(cls.qualname)
            attrs = sorted(
                {site.attr for _, site in writes if site.attr not in locks}
            )
            for attr in attrs:
                sites = [
                    (site_rel, site)
                    for site_rel, site in writes
                    if site.attr == attr
                ]
                guarded = [
                    (site_rel, site)
                    for site_rel, site in sites
                    if self._is_guarded(site, locks, suffixes)
                    and site.method not in exempt_methods
                ]
                if not guarded:
                    continue
                anchor_rel, anchor = guarded[0]
                for site_rel, site in sites:
                    if site.method in exempt_methods:
                        continue
                    if self._is_guarded(site, locks, suffixes):
                        continue
                    key = (site_rel, site.line, attr)
                    if key in reported:
                        # Subclasses share ancestor write sites; one
                        # diagnostic per concrete source line is enough.
                        continue
                    reported.add(key)
                    held = self._lock_names(anchor, locks, suffixes)
                    yield project.diagnostic(
                        self.code,
                        site_rel,
                        f"`self.{attr}` of `{cls.name}` is mutated under "
                        f"`{held}` at {anchor_rel}:{anchor.line} "
                        f"(method `{anchor.method}`) but written here in "
                        f"`{site.method}` without holding the lock",
                        line=site.line,
                        col=site.col,
                        end_line=site.end_line,
                    )

    # ------------------------------------------------------------------
    @staticmethod
    def _is_guarded(
        site: WriteSite, locks: List[str], suffixes: Sequence[str]
    ) -> bool:
        if any(lock in locks for lock in site.locks):
            return True
        return any(site.method.endswith(suffix) for suffix in suffixes)

    @staticmethod
    def _lock_names(
        site: WriteSite, locks: List[str], suffixes: Sequence[str]
    ) -> str:
        held = [lock for lock in site.locks if lock in locks]
        if held:
            return "with self." + held[0]
        for suffix in suffixes:
            if site.method.endswith(suffix):
                return f"the `*{suffix}` caller-holds-lock convention"
        return "a lock"
