"""reprolint — AST-based invariant linter for the ``repro`` codebase.

The repo carries load-bearing guarantees that ordinary linters cannot
see:

1. **Determinism** — every replicated computation (parallel sweeps, the
   vectorized Monte-Carlo engine, cross-validation folds) must be
   bit-identical across runs and worker counts.  A single call to the
   legacy ``np.random`` global state, a wall-clock read, or iteration over
   an unordered ``set`` inside a seeded path silently breaks that.
2. **SPD safety** — every covariance matrix an estimator hands downstream
   must survive a Cholesky factorisation.  The repairs (symmetrisation,
   jitter, eigenvalue clipping) live in the ``repro.linalg`` substrate;
   raw ``np.linalg`` calls elsewhere bypass that policy.
3. **Concurrency & durability** — the serving stack mutates shared state
   under locks and publishes artefacts via atomic rename; a single
   unguarded write or missing fsync breaks guarantees the rest of the
   code relies on, and version-tagged wire formats must have exactly one
   spelling.

reprolint enforces these invariants as machine-checked rules:

========  ==============================================================
RPL001    legacy global-state NumPy RNG (``np.random.seed`` & friends)
RPL002    raw ``np.linalg.{cholesky,inv,solve,eigh}`` outside the
          ``repro.linalg`` substrate
RPL003    package-layering back-edge (import of a higher layer)
RPL004    ``==``/``!=`` against a non-zero float literal
RPL005    bare/broad ``except`` that can swallow ``ReproError`` subclasses
RPL006    wall-clock reads and unordered-``set`` iteration in seeded paths
RPL007    lock-guarded attribute mutated without the lock (project-wide)
RPL008    ``os.replace`` without flush+fsync before / dir fsync after
RPL009    schema version literal outside ``repro.schemas``; raw
          ``json.dumps`` of protocol payloads (project-wide)
RPL010    module imported from ``tests/`` but by no other linted file
          (project-wide)
========  ==============================================================

Since v2 the engine is two-pass: pass 1 parses every file (in parallel
with ``--jobs``, cached on disk by content hash), runs the per-file rules
and the project rules' collectors; pass 2 assembles a
:class:`~reprolint.project.ProjectContext` (qualified-name resolution,
import graph, per-class attribute-write index) and runs the project-wide
rules against the whole program.  Output formats: human text (default)
and SARIF 2.1.0 (``--format sarif``); ``--baseline`` grandfathers
existing violations.

Violations can be suppressed per line with a justification::

    cov = np.linalg.inv(lam)  # reprolint: disable=RPL002 -- reference impl

For project-wide rules the suppression applies at the *reported* site
only.  Configuration lives in ``pyproject.toml`` under
``[tool.reprolint]``.  Run ``python -m reprolint`` from the repo root.
"""

from __future__ import annotations

from reprolint.diagnostics import Diagnostic
from reprolint.registry import (
    ProjectRule,
    Rule,
    all_rules,
    file_rules,
    get_rule,
    project_rules,
    register,
)

__version__ = "2.0.0"

__all__ = [
    "Diagnostic",
    "ProjectRule",
    "Rule",
    "all_rules",
    "file_rules",
    "get_rule",
    "project_rules",
    "register",
    "__version__",
]
