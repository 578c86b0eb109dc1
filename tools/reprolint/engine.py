"""Two-pass lint engine: parallel cached per-file pass + project pass.

Pass 1 handles each file independently — parse, per-file rules, suppression
collection, :class:`~reprolint.project.FileSummary` construction, and
project-rule ``collect()`` — and is therefore both parallelisable
(``--jobs N`` fans files out over a process pool in deterministic sorted
order) and cacheable: results are keyed by the file's content hash plus a
fingerprint of the effective configuration, stored as JSON in
``.reprolint-cache.json`` under the config root.

Pass 2 assembles every summary into a
:class:`~reprolint.project.ProjectContext` and runs each
:class:`~reprolint.registry.ProjectRule` once.  Project diagnostics are
filtered against the suppression map of the file they are *reported* in —
a suppression at some other evidence site does not silence them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from reprolint import __version__
from reprolint.config import Config
from reprolint.diagnostics import Diagnostic
from reprolint.project import FileSummary, ProjectContext, summarize_file
from reprolint.registry import FileContext, ProjectRule, all_rules
from reprolint.suppressions import collect_suppressions, is_suppressed

#: Pseudo-code reported for files the parser rejects.
PARSE_ERROR_CODE = "RPL900"

#: Bump when the cache record layout (or anything it captures) changes.
CACHE_FORMAT_VERSION = 3

#: Default cache file name, relative to the config root.
CACHE_FILENAME = ".reprolint-cache.json"


@dataclass
class LintResult:
    diagnostics: List[Diagnostic] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    warnings: List[str] = field(default_factory=list)
    #: Files whose pass-1 record came from the on-disk cache.
    cached_files: int = 0
    #: Diagnostics dropped because they matched the ``--baseline`` file.
    baselined: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------
def discover_files(paths: Sequence[str], config: Config) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            rel_dir = rel_to_root(dirpath, config.root)
            dirnames[:] = sorted(
                d for d in dirnames if not config.is_excluded(_join_rel(rel_dir, d))
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                rel = _join_rel(rel_dir, name)
                if not config.is_excluded(rel):
                    found.append(os.path.join(dirpath, name))
    # Deterministic order regardless of argument order or filesystem state.
    return sorted(set(found))


def rel_to_root(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), root)
    return rel.replace(os.sep, "/")


def _join_rel(rel_dir: str, name: str) -> str:
    return name if rel_dir in (".", "") else f"{rel_dir}/{name}"


# ---------------------------------------------------------------------------
# pass 1: one file -> one JSON-serialisable record
# ---------------------------------------------------------------------------
def process_file(
    path: str, rel_path: str, config: Config, codes: Sequence[str]
) -> Dict[str, Any]:
    """Parse one file and run everything per-file (cacheable unit).

    The returned record is pure JSON-serialisable data: it is exactly what
    the on-disk cache stores, and what pass 2 consumes.
    """
    record: Dict[str, Any] = {
        "sha": None,
        "diagnostics": [],
        "suppressed": 0,
        "suppressions": {},
        "summary": None,
        "collected": {},
        "warning": None,
    }
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        source = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        record["warning"] = f"unreadable ({exc})"
        return record
    record["sha"] = hashlib.sha256(raw).hexdigest()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        record["diagnostics"].append(
            {
                "line": exc.lineno or 1,
                "col": (exc.offset or 1) - 1,
                "code": PARSE_ERROR_CODE,
                "message": f"syntax error: {exc.msg}",
                "end_line": 0,
            }
        )
        return record
    suppressions = collect_suppressions(source)
    record["suppressions"] = {
        str(line): sorted(codes_set) for line, codes_set in suppressions.items()
    }
    module_name = config.module_name(rel_path)
    wanted = set(codes)
    need_project = False
    for rule in all_rules():
        if rule.code not in wanted:
            continue
        ctx = FileContext(
            path=path,
            rel_path=rel_path,
            source=source,
            tree=tree,
            module_name=module_name,
            options=config.options_for(rule.code),
        )
        if isinstance(rule, ProjectRule):
            need_project = True
            if rule.applies_to(ctx):
                data = rule.collect(ctx)
                if data is not None:
                    record["collected"][rule.code] = data
            continue
        if not rule.applies_to(ctx):
            continue
        for diag in rule.check(ctx):
            if is_suppressed(suppressions, diag.span(), diag.code):
                record["suppressed"] += 1
            else:
                record["diagnostics"].append(
                    {
                        "line": diag.line,
                        "col": diag.col,
                        "code": diag.code,
                        "message": diag.message,
                        "end_line": diag.end_line,
                    }
                )
    if need_project:
        record["summary"] = summarize_file(tree, rel_path, module_name).to_dict()
    return record


def _process_file_star(args: Tuple[str, str, Config, Tuple[str, ...]]) -> Dict[str, Any]:
    return process_file(*args)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------
def config_fingerprint(config: Config, codes: Sequence[str]) -> str:
    """Hash of everything (besides file content) a cached record depends on."""
    payload = json.dumps(
        {
            "tool": __version__,
            "format": CACHE_FORMAT_VERSION,
            "codes": sorted(codes),
            "src_roots": config.src_roots,
            "rule_options": config.rule_options,
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_cache(cache_path: str, fingerprint: str) -> Dict[str, Dict[str, Any]]:
    """rel_path -> record map, or empty on miss/mismatch/corruption."""
    try:
        with open(cache_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict) or data.get("fingerprint") != fingerprint:
        return {}
    entries = data.get("entries")
    return entries if isinstance(entries, dict) else {}


def save_cache(
    cache_path: str, fingerprint: str, entries: Dict[str, Dict[str, Any]]
) -> None:
    """Best-effort write; a read-only tree silently skips caching."""
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "entries": entries,
    }
    tmp = f"{cache_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, cache_path)  # reprolint: disable=RPL008 -- lint cache: a lost cache is re-derived from source on the next run, durability is irrelevant
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _file_sha(path: str) -> Optional[str]:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def run_lint(
    paths: Sequence[str],
    config: Config,
    codes: Iterable[str],
    jobs: int = 1,
    cache_path: Optional[str] = None,
    use_cache: bool = True,
) -> LintResult:
    """The full two-pass lint over ``paths``."""
    codes = list(codes)
    result = LintResult()
    files = discover_files(paths, config)
    rels = [rel_to_root(path, config.root) for path in files]

    fingerprint = config_fingerprint(config, codes)
    if cache_path is None:
        cache_path = os.path.join(config.root, CACHE_FILENAME)
    cached = load_cache(cache_path, fingerprint) if use_cache else {}

    records: Dict[str, Dict[str, Any]] = {}
    todo: List[Tuple[str, str]] = []
    for path, rel in zip(files, rels):
        entry = cached.get(rel)
        if entry is not None and entry.get("sha") and entry["sha"] == _file_sha(path):
            records[rel] = entry
            result.cached_files += 1
        else:
            todo.append((path, rel))

    if todo:
        if jobs > 1:
            work = [(path, rel, config, tuple(codes)) for path, rel in todo]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for (path, rel), record in zip(todo, pool.map(_process_file_star, work)):
                    records[rel] = record
        else:
            for path, rel in todo:
                records[rel] = process_file(path, rel, config, codes)

    # -- fold per-file results -------------------------------------------
    path_of = dict(zip(rels, files))
    project = ProjectContext(config)
    for rel in sorted(records):
        record = records[rel]
        result.files += 1
        if record.get("warning"):
            result.warnings.append(f"{path_of[rel]}: {record['warning']}")
            continue
        result.suppressed += int(record.get("suppressed", 0))
        for diag in record.get("diagnostics", []):
            result.diagnostics.append(
                Diagnostic(
                    path=path_of[rel],
                    line=int(diag["line"]),
                    col=int(diag["col"]),
                    code=str(diag["code"]),
                    message=str(diag["message"]),
                    end_line=int(diag.get("end_line", 0)),
                )
            )
        summary = record.get("summary")
        if summary is not None:
            project.add_file(
                path_of[rel],
                FileSummary.from_dict(summary),
                record.get("collected", {}),
            )

    # -- pass 2: project rules -------------------------------------------
    suppression_maps = {
        rel: {
            int(line): frozenset(codes_set)
            for line, codes_set in records[rel].get("suppressions", {}).items()
        }
        for rel in records
    }
    rel_by_path = {path_of[rel]: rel for rel in records}
    wanted = set(codes)
    for rule in all_rules():
        if not isinstance(rule, ProjectRule) or rule.code not in wanted:
            continue
        options = config.options_for(rule.code)
        for diag in rule.check_project(project):
            rel = rel_by_path.get(diag.path)
            if rel is None:
                result.diagnostics.append(diag)
                continue
            if not rule.applies_to_rel(rel, options):
                continue
            if is_suppressed(suppression_maps.get(rel, {}), diag.span(), diag.code):
                result.suppressed += 1
            else:
                result.diagnostics.append(diag)

    result.diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))

    if use_cache:
        cacheable = {
            rel: records[rel]
            for rel in sorted(records)
            if records[rel].get("sha") and not records[rel].get("warning")
        }
        save_cache(cache_path, fingerprint, cacheable)
    return result


# ---------------------------------------------------------------------------
# single-file compatibility entry point
# ---------------------------------------------------------------------------
def lint_file(path: str, config: Config, codes: Iterable[str]) -> LintResult:
    """Run the per-file rules over one file (no project pass, no cache)."""
    codes = list(codes)
    rel = rel_to_root(path, config.root)
    record = process_file(path, rel, config, codes)
    result = LintResult(files=1)
    if record.get("warning"):
        result.warnings.append(f"{path}: {record['warning']}")
        return result
    result.suppressed = int(record.get("suppressed", 0))
    for diag in record.get("diagnostics", []):
        result.diagnostics.append(
            Diagnostic(
                path=path,
                line=int(diag["line"]),
                col=int(diag["col"]),
                code=str(diag["code"]),
                message=str(diag["message"]),
                end_line=int(diag.get("end_line", 0)),
            )
        )
    return result
