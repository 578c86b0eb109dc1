"""RPL007–RPL010 rule tests against the on-disk fixture packages.

Each fixture under ``tests/tools/fixtures/<rule>/`` is a miniature project
with seeded violations; these tests pin exactly which sites each rule must
flag, which it must leave alone, and how ``# reprolint: disable=`` interacts
with evidence that spans files.
"""

import textwrap

RPL009_OPTIONS = {
    "RPL009": {"constants-module": "proj.schemas", "dumps-scope": ["proj"]}
}


def by_code(result, code):
    return [d for d in result.diagnostics if d.code == code]


def rel(diag):
    # Diagnostics from the fixture-dir engine carry absolute paths; tests
    # only care about the path inside the fixture package.
    path = diag.path.replace("\\", "/")
    marker = "/fixtures/"
    if marker in path:
        return path.split(marker, 1)[1].split("/", 1)[1]
    return path


# ---------------------------------------------------------------------------
# RPL007 — lock discipline
# ---------------------------------------------------------------------------
class TestLockDiscipline:
    def test_fixture_catches_cross_file_unlocked_write(self, lint_fixture_dir):
        result = lint_fixture_dir("rpl007", codes=["RPL007"])
        diags = by_code(result, "RPL007")
        assert [rel(d) for d in diags] == ["pkg/sub.py"]
        message = diags[0].message
        assert "_items" in message
        assert "drop_all" in message
        assert "pkg/base.py" in message  # anchor: the guarded write upstream
        assert result.suppressed == 1  # suppressed.py's justified gauge write

    def test_lock_types_beyond_lock_count(self, lint_project):
        source = """
        import threading

        class Gauge:
            def __init__(self):
                self._cond = threading.Condition()
                self._value = 0

            def bump(self):
                with self._cond:
                    self._value += 1

            def smash(self):
                self._value = 0
        """
        result = lint_project({"src/repro/g.py": source}, codes=["RPL007"])
        assert len(result.diagnostics) == 1
        assert "smash" in result.diagnostics[0].message
        assert "_cond" in result.diagnostics[0].message

    def test_init_writes_are_exempt(self, lint_project):
        source = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []
                self._items = list(self._items)

            def add(self, item):
                with self._lock:
                    self._items.append(item)
        """
        result = lint_project({"src/repro/s.py": source}, codes=["RPL007"])
        assert result.diagnostics == []

    def test_assume_held_suffix_is_trusted(self, lint_project):
        source = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def _drain_locked(self):
                self._items.clear()
        """
        result = lint_project({"src/repro/s.py": source}, codes=["RPL007"])
        assert result.diagnostics == []

    def test_attr_never_guarded_is_not_flagged(self, lint_project):
        # An attribute with no guarded write anywhere has no established
        # discipline — RPL007 only fires on *inconsistent* locking.
        source = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def record(self):
                self.hits += 1
        """
        result = lint_project({"src/repro/s.py": source}, codes=["RPL007"])
        assert result.diagnostics == []


# ---------------------------------------------------------------------------
# RPL008 — durability ordering
# ---------------------------------------------------------------------------
class TestDurabilityOrdering:
    def test_fixture_violations(self, lint_fixture_dir):
        result = lint_fixture_dir("rpl008", codes=["RPL008"])
        diags = by_code(result, "RPL008")
        by_file = {rel(d): d for d in diags}
        assert set(by_file) == {"write_bad.py", "write_partial.py", "handrolled.py"}

        bad = by_file["write_bad.py"].message
        assert "flush()+os.fsync()" in bad
        assert "fsync_dir()" in bad

        partial = by_file["write_partial.py"].message
        assert "flush()+os.fsync()" not in partial
        assert "fsync_dir()" in partial

        assert "re-implements the durable JSON write pattern" in (
            by_file["handrolled.py"].message
        )
        assert result.suppressed == 1  # suppressed.py's cache-entry rename

    def test_allowed_function_is_the_pattern_owner(self, lint_project):
        source = """
        import json
        import os

        def write_json_atomic(payload, path):
            tmp = path + ".tmp"
            with open(tmp, "w") as handle:
                handle.write(json.dumps(payload))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        """
        result = lint_project({"src/repro/io.py": source}, codes=["RPL008"])
        assert result.diagnostics == []

    def test_tests_are_exempt_by_default(self, lint_project):
        source = """
        import os

        def test_rotate(tmp_path):
            os.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        """
        result = lint_project({"tests/test_rotate.py": source}, codes=["RPL008"])
        assert result.diagnostics == []


# ---------------------------------------------------------------------------
# RPL009 — schema-string drift
# ---------------------------------------------------------------------------
class TestSchemaStringDrift:
    def test_fixture_violations(self, lint_fixture_dir):
        result = lint_fixture_dir("rpl009", codes=["RPL009"], rule_options=RPL009_OPTIONS)
        diags = by_code(result, "RPL009")
        assert [rel(d) for d in diags] == ["proj/writer.py", "proj/writer.py"]
        literal, dumps = sorted(diags, key=lambda d: d.line)
        assert "repro.fixture-blob.v1" in literal.message
        assert "BLOB_SCHEMA" in literal.message  # cites the existing constant
        assert "json.dumps" in dumps.message
        assert "encode_raw" in dumps.message
        assert result.suppressed == 2  # both suppressed.py sites

    def test_constants_module_and_canonical_json_are_clean(self, lint_fixture_dir):
        result = lint_fixture_dir("rpl009", codes=["RPL009"], rule_options=RPL009_OPTIONS)
        assert all(rel(d) != "proj/schemas.py" for d in result.diagnostics)
        assert all(rel(d) != "proj/good.py" for d in result.diagnostics)

    def test_unknown_literal_suggests_adding_a_constant(self, lint_project):
        files = {
            "src/repro/schemas.py": 'KNOWN = "repro.known.v1"\n',
            "src/repro/wire.py": 'HEADER = "repro.header.v3"\n',
        }
        result = lint_project(files, codes=["RPL009"])
        assert len(result.diagnostics) == 1
        assert "add a constant" in result.diagnostics[0].message
        assert "HEADER" in result.diagnostics[0].message

    def test_docstrings_and_non_matching_strings_ignored(self, lint_project):
        files = {
            "src/repro/schemas.py": 'KNOWN = "repro.known.v1"\n',
            "src/repro/doc.py": textwrap.dedent(
                '''
                """Talks about repro.known.v1 in prose."""

                NAME = "reproduction"
                PATH = "repro/data"
                '''
            ),
        }
        result = lint_project(files, codes=["RPL009"])
        assert result.diagnostics == []

    def test_dumps_outside_scope_is_allowed(self, lint_project):
        files = {
            "src/repro/schemas.py": 'KNOWN = "repro.known.v1"\n',
            "src/repro/viz.py": "import json\n\n\ndef render(d):\n    return json.dumps(d)\n",
        }
        result = lint_project(
            files,
            codes=["RPL009"],
            rule_options={"RPL009": {"dumps-scope": ["repro.io"]}},
        )
        assert result.diagnostics == []


# ---------------------------------------------------------------------------
# RPL010 — unreferenced module
# ---------------------------------------------------------------------------
class TestUnreferencedModule:
    def test_fixture_flags_the_test_only_module(self, lint_fixture_dir):
        result = lint_fixture_dir("rpl010", codes=["RPL010"])
        diags = by_code(result, "RPL010")
        # reexported.py is reached from scripts/ through pkg/__init__.py;
        # only_tested.py only from tests/ and that same re-export.
        assert [(rel(d), d.line) for d in diags] == [("src/repro/pkg/only_tested.py", 1)]
        assert "repro.pkg.only_tested" in diags[0].message
        assert result.suppressed == 1  # suppressed.py names its string caller

    def test_direct_and_chained_imports_count(self, lint_project):
        files = {
            "src/repro/__init__.py": "from repro.core import fuse\n",
            "src/repro/core/__init__.py": "from repro.core.fusion import fuse\n",
            "src/repro/core/fusion.py": "def fuse():\n    return 0\n",
            "src/repro/core/plain.py": "X = 1\n",
            "src/repro/core/sibling.py": "from . import plain\n",
            "scripts/a.py": "import repro.core.sibling\nfrom repro import fuse\n",
        }
        result = lint_project(files, codes=["RPL010"])
        assert result.diagnostics == []

    def test_main_and_private_modules_are_not_checked(self, lint_project):
        files = {
            "src/repro/__init__.py": "",
            "src/repro/__main__.py": "",
            "src/repro/_version.py": "V = 1\n",
            "src/repro/orphan.py": "Y = 2\n",
            "tests/test_orphan.py": (
                "import repro.__main__\nfrom repro._version import V\nfrom repro.orphan import Y\n"
            ),
        }
        result = lint_project(files, codes=["RPL010"])
        assert [d.path.rsplit("/", 1)[1] for d in result.diagnostics] == ["orphan.py"]

    def test_module_nothing_imports_is_left_alone(self, lint_project):
        # A single-file run looks like this: the callers are out of scope.
        result = lint_project({"src/repro/mod.py": "Z = 3\n"}, codes=["RPL010"])
        assert result.diagnostics == []

    def test_from_imports_survive_the_cache(self, lint_project):
        files = {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "from repro.pkg.mod import f\n",
            "src/repro/pkg/mod.py": "def f():\n    return 0\n",
            "scripts/a.py": "from repro.pkg import f\n",
        }
        first = lint_project(files, codes=["RPL010"], use_cache=True)
        second = lint_project({}, codes=["RPL010"], use_cache=True)
        assert second.cached_files == len(files)
        assert first.diagnostics == second.diagnostics == []
