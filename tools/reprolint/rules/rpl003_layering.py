"""RPL003 — package-layering back-edges.

The package forms a DAG of layers::

    exceptions, _version          (0: leaf utilities)
    linalg                        (1: SPD substrate)
    stats                         (2: distributions)
    core                          (3: estimators, fusion pipeline)
    extensions, yieldest          (4: estimator plugins, yield analysis)
    experiments, circuits         (5: sweep engines, circuit models)
    io                            (6: dataset/config serialisation)
    cli, repro (top-level)        (7: entry points)

A module may import from its own layer or below; an import from a higher
layer (a *back-edge*) couples the substrate to its consumers and is how
layering rots.  The two deliberate exceptions in this repo (lazy plugin
registration in ``core.registry``, the lazy dataset-cache round-trip in
``circuits.montecarlo``) carry per-line suppressions with justifications —
new back-edges need the same scrutiny.

The layer map is configuration (``layers`` under
``[tool.reprolint.rules.RPL003]``), a list of lists of dotted module
prefixes ordered bottom-up; modules are matched by longest prefix.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from reprolint.diagnostics import Diagnostic
from reprolint.qualnames import _resolve_from_base
from reprolint.registry import FileContext, Rule, register

#: Bottom-up layer map for this repository (overridable in pyproject).
DEFAULT_LAYERS: List[List[str]] = [
    ["repro.exceptions", "repro._version", "repro.bench", "repro.schemas", "repro.jobs"],
    ["repro.linalg"],
    ["repro.stats"],
    ["repro.core"],
    ["repro.extensions", "repro.yieldest"],
    ["repro.experiments", "repro.circuits"],
    ["repro.io"],
    ["repro.scenarios"],
    ["repro.serving.suffstats", "repro.serving.wal"],
    [
        "repro.serving.sessions",
        "repro.serving.queue",
        "repro.serving.checkpoint",
        "repro.serving.counters",
    ],
    ["repro.serving.scoring"],
    ["repro.serving.worker"],
    ["repro.serving.router"],
    ["repro.serving.protocol", "repro.serving"],
    ["repro.cli", "repro.__main__", "repro"],
]


def _layer_of(module: str, layers: Sequence[Sequence[str]]) -> Optional[Tuple[int, str]]:
    """(layer index, matched prefix) via longest-prefix match, or None."""
    best: Optional[Tuple[int, str]] = None
    for index, prefixes in enumerate(layers):
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > len(best[1]):
                    best = (index, prefix)
    return best


@register
class LayeringBackEdge(Rule):
    code = "RPL003"
    summary = "import of a higher architectural layer (layering back-edge)"
    default_include = ["src/repro"]

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module_name is None:
            return
        layers: List[List[str]] = [
            list(layer) for layer in ctx.options.get("layers", DEFAULT_LAYERS)
        ]
        source = _layer_of(ctx.module_name, layers)
        if source is None:
            return
        source_index, source_prefix = source
        for node in ast.walk(ctx.tree):
            for target in self._imported_modules(node, ctx.module_name, layers):
                hit = _layer_of(target, layers)
                if hit is None:
                    continue
                target_index, target_prefix = hit
                if target_index > source_index:
                    yield self.diagnostic(
                        ctx,
                        node,
                        f"layering back-edge: `{source_prefix}` (layer "
                        f"{source_index}) imports `{target}` from layer "
                        f"{target_index} (`{target_prefix}`); dependencies must "
                        "point downward",
                    )
                    break  # one diagnostic per import statement

    @staticmethod
    def _imported_modules(
        node: ast.AST, module_name: str, layers: Sequence[Sequence[str]]
    ) -> Iterator[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(node, module_name)
            if base is None:
                return
            # ``from repro import circuits`` really imports the submodule
            # ``repro.circuits`` while ``from repro import ReproError`` only
            # touches ``repro`` itself.  Without the filesystem we cannot
            # tell the two apart, so resolve per-alias: prefer the refined
            # candidate when it lands on a *more specific* layer prefix than
            # the bare base, else fall back to the base module.
            base_hit = _layer_of(base, layers) if base else None
            for alias in node.names:
                if alias.name == "*":
                    if base:
                        yield base
                    continue
                refined = f"{base}.{alias.name}" if base else alias.name
                refined_hit = _layer_of(refined, layers)
                if refined_hit is not None and (
                    base_hit is None or len(refined_hit[1]) > len(base_hit[1])
                ):
                    yield refined
                elif base:
                    yield base
