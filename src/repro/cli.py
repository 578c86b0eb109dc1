"""Command-line interface: ``python -m repro <command>``.

Gives non-Python users (and CI jobs) direct access to the reproduction
harness:

* ``generate`` — simulate a paired Monte-Carlo bank for any registry
  circuit (or one ``--scenario DOC#NAME`` instance) and save it as .npz;
* ``fuse`` — run the fusion pipeline on a saved bank with n late samples
  using any registered estimator (``--estimator``) and/or a declarative
  JSON config (``--config``), print the fused physical-space moments, and
  optionally save the full result (moments + provenance + transform);
* ``list-estimators`` — show every registry estimator name the ``fuse``
  command accepts, with capability metadata;
* ``figure4`` / ``figure5`` — regenerate a paper figure's series;
* ``cost`` — the cost-reduction headline for a circuit;
* ``gof`` — multivariate-normality diagnostics of a saved bank;
* ``serve`` — run the streaming estimation service as a JSON-lines
  stdin/stdout loop (see :mod:`repro.serving.protocol`);
* ``ingest`` — fold late-stage samples from a saved bank into a serving
  checkpoint (creating the session from the bank's early stage);
* ``query`` — ask a serving checkpoint for an estimate, a log-likelihood,
  a parametric yield, its counters, or its session list;
* ``scenarios`` — ``list``/``expand``/``compile`` declarative scenario
  documents (see :mod:`repro.scenarios`).

The CLI constructs no concrete estimator class itself — everything goes
through :mod:`repro.core.registry`, so a newly registered estimator is
immediately usable from here.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multivariate Bayesian model fusion for AMS moment estimation "
            "(DAC 2015 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The circuit list and its help text come from the registry, so a
    # newly registered circuit is immediately generatable from here.
    from repro.circuits.registry import circuit_names, get_circuit

    names = circuit_names()
    gen = sub.add_parser("generate", help="simulate a paired Monte-Carlo bank")
    # Both positionals are declared optional and reconciled in the
    # handler: with --scenario only the output path is given, and argparse
    # cannot express "first positional optional, second required" when
    # flags interleave.  Circuit names are validated by the registry.
    gen.add_argument(
        "circuit",
        nargs="?",
        default=None,
        metavar="circuit",
        help="registry circuit: "
        + "; ".join(f"{n} ({get_circuit(n).summary})" for n in names),
    )
    gen.add_argument(
        "output", nargs="?", default=None, help="output .npz path"
    )
    gen.add_argument("--samples", type=int, default=None, help="bank size")
    gen.add_argument("--seed", type=int, default=2015)
    gen.add_argument(
        "--scenario",
        default=None,
        metavar="DOC#NAME",
        help="generate one expanded instance of a scenario document "
        "instead of a bare circuit: a .yaml/.json path or builtin:<name>, "
        "'#', then the scenario or instance name",
    )

    fuse = sub.add_parser("fuse", help="fuse early knowledge with n late samples")
    fuse.add_argument("dataset", help=".npz bank from 'generate'")
    fuse.add_argument("--late-samples", type=int, default=16)
    fuse.add_argument("--seed", type=int, default=0)
    fuse.add_argument(
        "--save",
        default=None,
        help="write the full result JSON (physical moments + provenance + transform)",
    )
    fuse.add_argument(
        "--estimator",
        default=None,
        metavar="NAME",
        help="registry estimator to run (see 'list-estimators'); default: bmf",
    )
    fuse.add_argument(
        "--config",
        default=None,
        metavar="CFG.json",
        help="FusionConfig JSON file; CLI flags override its fields",
    )
    fuse.add_argument(
        "--selector",
        default=None,
        choices=["cv", "evidence", "fixed", "none"],
        help="hyper-parameter selection policy (default: cv)",
    )
    fuse.add_argument(
        "--kappa0", type=float, default=None, help="pin kappa0 (skip CV)"
    )
    fuse.add_argument("--v0", type=float, default=None, help="pin v0 (skip CV)")

    sub.add_parser(
        "list-estimators",
        help="list registry estimator names usable with 'fuse --estimator'",
    )

    for fig, circuit in (("figure4", "op-amp"), ("figure5", "flash ADC")):
        f = sub.add_parser(fig, help=f"regenerate paper {fig} ({circuit})")
        f.add_argument("--bank", type=int, default=None)
        f.add_argument("--repeats", type=int, default=30)
        f.add_argument("--csv", default=None, help="dump raw sweep errors to CSV")

    cost = sub.add_parser("cost", help="cost-reduction headline")
    cost.add_argument("circuit", choices=["opamp", "adc"])
    cost.add_argument("--bank", type=int, default=None)
    cost.add_argument("--repeats", type=int, default=30)

    gof = sub.add_parser("gof", help="normality diagnostics of a saved bank")
    gof.add_argument("dataset", help=".npz bank from 'generate'")
    gof.add_argument("--stage", choices=["early", "late"], default="late")

    serve = sub.add_parser(
        "serve", help="run the estimation service as a JSON-lines stdin/stdout loop"
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        help="restore state from this checkpoint if it exists: a directory "
        "holding manifest.json restores the sharded router, a file one "
        "unsharded worker (shard flags then conflict); a missing path "
        "starts fresh by the shard flags",
    )
    serve.add_argument(
        "--save-on-exit",
        action="store_true",
        help="write the checkpoint back when the loop ends (requires --checkpoint)",
    )
    serve.add_argument("--max-sessions", type=int, default=1024)
    serve.add_argument(
        "--ttl-ops",
        type=int,
        default=None,
        help="evict sessions idle for this many store operations",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard-worker count for a fresh start (1 without other shard "
        "flags serves one unsharded worker with a single-file checkpoint)",
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        help="append per-shard write-ahead logs (shard-NNN.wal) into this "
        "directory; existing logs are recovered and replayed",
    )
    serve.add_argument(
        "--flush-rows",
        type=int,
        default=None,
        help="ingest-coalescing threshold in rows "
        "(default: 1 for one shard, 64 otherwise)",
    )
    serve.add_argument(
        "--wal-flush-records",
        type=int,
        default=None,
        help="group-commit record bound: flush the WAL buffer after this "
        "many appends (default: 64)",
    )
    serve.add_argument(
        "--wal-flush-bytes",
        type=int,
        default=None,
        help="group-commit byte bound for the WAL buffer (default: 256 KiB)",
    )

    replay = sub.add_parser(
        "replay", help="verify a write-ahead log and rebuild shard state from it"
    )
    replay.add_argument("wal", help="per-shard WAL file (shard-NNN.wal)")
    replay.add_argument(
        "--checkpoint",
        default=None,
        help="base shard checkpoint; only the WAL tail past its covered "
        "offset is replayed",
    )
    replay.add_argument(
        "--out", default=None, help="write the recovered shard checkpoint here"
    )
    replay.add_argument("--max-sessions", type=int, default=1024)
    replay.add_argument(
        "--ttl-ops",
        type=int,
        default=None,
        help="store TTL the original service ran with (ignored with --checkpoint)",
    )

    compact = sub.add_parser(
        "compact",
        help="checkpoint a sharded service and truncate replayed WAL segments",
    )
    compact.add_argument(
        "checkpoint", help="sharded checkpoint directory (holds manifest.json)"
    )
    compact.add_argument(
        "--wal-dir", required=True, help="directory holding the shard WALs"
    )
    compact.add_argument(
        "--out",
        default=None,
        help="write the compacted checkpoint elsewhere (default: in place)",
    )

    ingest = sub.add_parser(
        "ingest", help="fold late-stage bank samples into a serving checkpoint"
    )
    ingest.add_argument("checkpoint", help="serving checkpoint path (updated in place)")
    ingest.add_argument("--session", required=True, help="target session key")
    ingest.add_argument("--dataset", required=True, help=".npz bank from 'generate'")
    ingest.add_argument(
        "--samples", type=int, default=16, help="late samples to draw from the bank"
    )
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--create",
        action="store_true",
        help=(
            "create the checkpoint and/or session when missing; the prior "
            "comes from the bank's early stage"
        ),
    )
    ingest.add_argument("--kappa0", type=float, default=None, help="pin kappa0")
    ingest.add_argument("--v0", type=float, default=None, help="pin v0")
    ingest.add_argument(
        "--emit-wire",
        default=None,
        metavar="PATH",
        help="instead of updating the checkpoint, write the equivalent "
        "JSON-lines protocol requests (create + ingest) to PATH "
        "('-' for stdout) for piping into 'repro serve'",
    )
    ingest.add_argument(
        "--wire-encoding",
        choices=["list", "b64f64"],
        default="b64f64",
        help="array encoding for --emit-wire requests: nested JSON lists "
        "or zero-copy base64 raw float64 (default: b64f64)",
    )

    query = sub.add_parser("query", help="query a serving checkpoint")
    query.add_argument("checkpoint", help="serving checkpoint path (read-only)")
    query.add_argument(
        "kind", choices=["estimate", "loglik", "yield", "stats", "sessions"]
    )
    query.add_argument("--session", default=None, help="session key (per-session kinds)")
    query.add_argument(
        "--dataset", default=None, help=".npz bank supplying rows for 'loglik'"
    )
    query.add_argument(
        "--rows", type=int, default=16, help="rows drawn from the bank for 'loglik'"
    )
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--lower", default=None, help="comma-separated lower spec bounds")
    query.add_argument("--upper", default=None, help="comma-separated upper spec bounds")
    query.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    scen = sub.add_parser(
        "scenarios",
        help="inspect and compile declarative scenario documents",
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)

    s_list = scen_sub.add_parser(
        "list",
        help="list bundled documents and registry circuits (or one document's scenarios)",
    )
    s_list.add_argument(
        "document",
        nargs="?",
        default=None,
        help="scenario document (.yaml/.json path or builtin:<name>); "
        "omit to list builtins and circuits",
    )

    s_expand = scen_sub.add_parser(
        "expand", help="expand a document's sweeps into its ordered instance list"
    )
    s_expand.add_argument(
        "document", help="scenario document (.yaml/.json path or builtin:<name>)"
    )
    s_expand.add_argument(
        "--json", action="store_true", help="one canonical-JSON object per instance"
    )

    s_compile = scen_sub.add_parser(
        "compile", help="compile every expanded instance to a paired MC dataset"
    )
    s_compile.add_argument(
        "document", help="scenario document (.yaml/.json path or builtin:<name>)"
    )
    s_compile.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: serial; -1 = one per core)",
    )
    s_compile.add_argument(
        "--cache-dir",
        default=None,
        help="dataset cache directory (default: REPRO_DATASET_CACHE_DIR or "
        "the repo-local cache)",
    )
    s_compile.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the dataset disk cache (always re-simulate)",
    )
    s_compile.add_argument(
        "--json", action="store_true", help="one canonical-JSON report per instance"
    )

    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------
def _resolve_scenario_doc_path(ref: str):
    """Turn a document reference (path or ``builtin:<name>``) into a path."""
    from pathlib import Path

    from repro.scenarios import builtin_document_path

    if ref.startswith("builtin:"):
        return builtin_document_path(ref)
    return Path(ref)


def _select_scenario_instance(spec: str):
    """Resolve a ``DOC#NAME`` reference to one expanded instance."""
    from repro.exceptions import ConfigError
    from repro.scenarios import expand, load_scenario_doc

    ref, sep, wanted = spec.partition("#")
    if not sep or not wanted:
        raise ConfigError(
            f"--scenario needs the form DOC#NAME (document, '#', scenario "
            f"or instance name), got {spec!r}"
        )
    doc = load_scenario_doc(_resolve_scenario_doc_path(ref))
    instances = expand(doc)
    exact = [inst for inst in instances if inst.name == wanted]
    if len(exact) == 1:
        return exact[0]
    of_scenario = [
        inst
        for inst in instances
        if inst.name == wanted or inst.name.startswith(f"{wanted}@")
    ]
    if len(of_scenario) == 1:
        return of_scenario[0]
    if of_scenario:
        names = ", ".join(inst.name for inst in of_scenario[:8])
        more = "..." if len(of_scenario) > 8 else ""
        raise ConfigError(
            f"scenario {wanted!r} expands to {len(of_scenario)} instances; "
            f"name one of: {names}{more} (or use 'repro scenarios compile')"
        )
    raise ConfigError(
        f"no scenario or instance named {wanted!r} in {doc.source}; "
        f"scenarios: {', '.join(s.name for s in doc.scenarios)}"
    )


def _cmd_generate(args) -> int:
    from repro.circuits.registry import generate_dataset
    from repro.io import save_dataset

    if args.scenario is not None:
        # With --scenario the single positional is the output path; when
        # flags precede it argparse lands it in the circuit slot.
        if args.output is None:
            args.circuit, args.output = None, args.circuit
        if args.circuit is not None:
            print(
                "generate takes either a circuit or --scenario, not both",
                file=sys.stderr,
            )
            return 2
        if args.output is None:
            print("generate needs an output .npz path", file=sys.stderr)
            return 2
        from repro.scenarios import compile_instance

        inst = _select_scenario_instance(args.scenario)
        if args.samples is not None:
            import dataclasses

            inst = dataclasses.replace(inst, n_samples=args.samples)
        dataset, _ = compile_instance(inst)
        label = f"{inst.circuit} ({inst.name})"
    elif args.circuit is None or args.output is None:
        print(
            "generate needs a circuit name and an output .npz path "
            "(or --scenario DOC#NAME and an output path)",
            file=sys.stderr,
        )
        return 2
    else:
        dataset = generate_dataset(args.circuit, n_samples=args.samples, seed=args.seed)
        label = args.circuit
    save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.n_samples} paired {label} dies "
        f"({dataset.dim} metrics) to {args.output}"
    )
    return 0


def _resolve_fuse_config(args):
    """Merge the optional ``--config`` file with the overriding CLI flags."""
    from repro.core.registry import EstimatorSpec, FusionConfig
    from repro.io import load_config

    config = load_config(args.config) if args.config else FusionConfig()
    if args.estimator:
        config = config.replace(estimator=EstimatorSpec(args.estimator))
    if args.kappa0 is not None or args.v0 is not None:
        config = config.replace(
            selector="fixed", kappa0=args.kappa0, v0=args.v0
        )
    elif args.selector:
        config = config.replace(selector=args.selector)
    return config


def _cmd_fuse(args) -> int:
    from repro.core.pipeline import FusionPipeline
    from repro.io import load_dataset, save_result

    config = _resolve_fuse_config(args)
    dataset = load_dataset(args.dataset)
    rng = np.random.default_rng(args.seed)
    pipeline = FusionPipeline.fit(
        dataset.early,
        dataset.early_nominal,
        dataset.late_nominal,
        config=config,
    )
    subset = dataset.late_subset(args.late_samples, rng)
    result = pipeline.estimate(subset, rng=rng)
    prov = result.provenance
    parts = [f"estimator={prov.estimator}"]
    if prov.selector is not None:
        parts.append(f"selector={prov.selector}")
    if prov.kappa0 is not None:
        parts.append(f"kappa0={prov.kappa0:.4g}")
    if prov.v0 is not None:
        parts.append(f"v0={prov.v0:.4g}")
    parts.append(f"config={prov.config_hash}")
    print(f"fused {args.late_samples} late samples; " + ", ".join(parts))
    print(f"{'metric':<16} {'fused mean':>14} {'fused std':>14}")
    stds = np.sqrt(np.diag(result.covariance))
    for name, mean, std in zip(dataset.metric_names, result.mean, stds):
        print(f"{name:<16} {mean:>14.6g} {std:>14.6g}")
    if args.save:
        save_result(result, args.save)
        print(
            f"saved physical-space moments (plus isotropic estimate, provenance, "
            f"and shift/scale transform) to {args.save}"
        )
    return 0


def _cmd_list_estimators(args) -> int:
    from repro.core.registry import available_selectors, default_registry

    print(f"{'name':<20} {'prior':<6} {'hyper':<6} {'data':<13} summary")
    for entry in default_registry().entries():
        print(
            f"{entry.name:<20} "
            f"{'yes' if entry.requires_prior else 'no':<6} "
            f"{'yes' if entry.accepts_hyperparams else 'no':<6} "
            f"{entry.data_kind:<13} "
            f"{entry.summary}"
        )
    print(
        "\nselectors: "
        + ", ".join(available_selectors())
        + " (plus 'fixed' and 'none')"
    )
    return 0


def _run_figure(args, which: str) -> int:
    from repro.experiments.cost import cost_reduction
    from repro.experiments.figures import figure4_opamp, figure5_adc
    from repro.experiments.reporting import (
        format_cost_reduction,
        format_error_series,
        format_hyperparams,
    )

    if which == "figure4":
        bank = args.bank if args.bank is not None else 2000
        fig = figure4_opamp(n_bank=bank, n_repeats=args.repeats)
        title = "op-amp (paper Figure 4)"
    else:
        bank = args.bank if args.bank is not None else 800
        fig = figure5_adc(n_bank=bank, n_repeats=args.repeats)
        title = "flash ADC (paper Figure 5)"
    print(format_error_series(fig.sweep, "mean", f"{title} — mean error"))
    print()
    print(format_error_series(fig.sweep, "covariance", f"{title} — covariance error"))
    print()
    print(format_hyperparams(fig.sweep, f"{title} — selected hyper-parameters"))
    print()
    print(
        format_cost_reduction(
            cost_reduction(fig.sweep, "covariance"), f"{title} — covariance cost"
        )
    )
    if getattr(args, "csv", None):
        from repro.io import sweep_to_csv

        sweep_to_csv(fig.sweep, args.csv)
        print(f"\nraw sweep errors written to {args.csv}")
    return 0


def _cmd_cost(args) -> int:
    from repro.experiments.cost import cost_reduction
    from repro.experiments.figures import figure4_opamp, figure5_adc
    from repro.experiments.reporting import format_cost_reduction

    if args.circuit == "opamp":
        bank = args.bank if args.bank is not None else 2000
        fig = figure4_opamp(n_bank=bank, n_repeats=args.repeats)
    else:
        bank = args.bank if args.bank is not None else 800
        fig = figure5_adc(n_bank=bank, n_repeats=args.repeats)
    for metric in ("covariance", "mean"):
        print(
            format_cost_reduction(
                cost_reduction(fig.sweep, metric),
                f"{args.circuit} {metric} cost reduction",
            )
        )
        print()
    return 0


def _cmd_gof(args) -> int:
    from repro.io import load_dataset
    from repro.stats.gof import henze_zirkler, mardia_kurtosis, mardia_skewness

    dataset = load_dataset(args.dataset)
    samples = dataset.early if args.stage == "early" else dataset.late
    print(f"normality diagnostics on the {args.stage} stage ({samples.shape[0]} rows):")
    for test in (mardia_skewness, mardia_kurtosis, henze_zirkler):
        result = test(samples)
        verdict = "REJECT" if result.reject_normality else "accept"
        print(
            f"  {result.name:<18} stat {result.statistic:>10.3f}  "
            f"p {result.p_value:>8.4f}  -> {verdict} normality at {result.alpha}"
        )
    return 0


def _cmd_serve(args) -> int:
    import os
    from pathlib import Path

    from repro.exceptions import ConfigError
    from repro.serving import ShardedMomentService, ShardWorker, serve_loop

    # An existing checkpoint picks the entry point by its layout: a
    # manifest directory restores the router, a single file the worker.
    # Only a fresh start (no checkpoint on disk) goes by the shard flags.
    shard_flags = [
        flag
        for flag, given in (
            (f"--shards {args.shards}", args.shards != 1),
            ("--wal-dir", args.wal_dir is not None),
            ("--flush-rows", args.flush_rows is not None),
        )
        if given
    ]
    if args.save_on_exit and not args.checkpoint:
        print("--save-on-exit requires --checkpoint", file=sys.stderr)
        return 2
    service: Any
    if args.checkpoint and os.path.isdir(args.checkpoint):
        try:
            service = ShardedMomentService.restore(
                args.checkpoint,
                wal_dir=args.wal_dir,
                flush_rows=args.flush_rows,
                wal_flush_records=args.wal_flush_records,
                wal_flush_bytes=args.wal_flush_bytes,
            )
        except ConfigError as exc:
            print(f"cannot restore {args.checkpoint}: {exc}", file=sys.stderr)
            return 2
        print(
            f"restored {service.n_shards}-shard service from {args.checkpoint}",
            file=sys.stderr,
        )
    elif args.checkpoint and os.path.exists(args.checkpoint):
        if shard_flags:
            print(
                f"{args.checkpoint} is a single-file checkpoint, which serves "
                f"one unsharded worker; it conflicts with {', '.join(shard_flags)} "
                "(sharded serving restores from a manifest directory)",
                file=sys.stderr,
            )
            return 2
        service = ShardWorker.restore(args.checkpoint)
        print(f"restored service state from {args.checkpoint}", file=sys.stderr)
    elif shard_flags:
        if args.wal_dir is not None and sorted(
            Path(args.wal_dir).glob("shard-*.wal")
        ):
            service = ShardedMomentService.recover(
                args.wal_dir,
                max_sessions_per_shard=args.max_sessions,
                ttl_ops=args.ttl_ops,
                flush_rows=args.flush_rows,
                wal_flush_records=args.wal_flush_records,
                wal_flush_bytes=args.wal_flush_bytes,
            )
            print(
                f"recovered {service.n_shards} shard(s) by replaying "
                f"write-ahead logs in {args.wal_dir}",
                file=sys.stderr,
            )
            if args.shards != service.n_shards:
                print(
                    f"warning: --shards {args.shards} ignored — the shard "
                    f"count is fixed by the {service.n_shards} recovered "
                    "WAL file(s); re-shard offline if you need a "
                    "different count",
                    file=sys.stderr,
                )
        else:
            service = ShardedMomentService(
                n_shards=args.shards,
                max_sessions_per_shard=args.max_sessions,
                ttl_ops=args.ttl_ops,
                flush_rows=args.flush_rows,
                wal_dir=args.wal_dir,
                wal_flush_records=args.wal_flush_records,
                wal_flush_bytes=args.wal_flush_bytes,
            )
    else:
        service = ShardWorker(max_sessions=args.max_sessions, ttl_ops=args.ttl_ops)
    print(
        "repro serving loop: one JSON request per line on stdin "
        "(op: ping/create/ingest/estimate/loglik/yield/sessions/drop/"
        "stats/checkpoint/shutdown)",
        file=sys.stderr,
    )
    handled = serve_loop(service)
    if args.save_on_exit:
        sha = service.checkpoint(args.checkpoint)
        print(
            f"saved state to {args.checkpoint} (sha256 {sha[:12]}...)",
            file=sys.stderr,
        )
    service.close()
    print(f"served {handled} requests", file=sys.stderr)
    return 0


def _cmd_replay(args) -> int:
    from repro.serving import ShardWorker

    # one pass: every record is verified, decoded and applied once
    worker = ShardWorker._recover(
        args.wal,
        args.checkpoint,
        max_sessions=args.max_sessions,
        ttl_ops=args.ttl_ops,
    )
    wal = worker.wal
    print(
        f"verified {args.wal}: shard {wal.shard_id}, "
        f"{wal.recovered_records} record(s) covering seq ({wal.base_seq}, "
        f"{wal.last_seq}], {wal.dropped_bytes} torn-tail byte(s) dropped"
    )
    if args.checkpoint:
        print(
            f"restored base checkpoint {args.checkpoint} and replayed the "
            "tail past its covered offset"
        )
    print(
        f"recovered shard state: {len(worker.store)} live session(s), "
        f"clock {worker.store.clock}, "
        f"{worker.counters.ingested_samples} sample(s) ingested"
    )
    if args.out:
        sha = worker.checkpoint(args.out)
        print(f"wrote recovered checkpoint {args.out} (sha256 {sha[:12]}...)")
    wal.close()
    return 0


def _cmd_compact(args) -> int:
    from repro.serving import ShardedMomentService

    service = ShardedMomentService.restore(args.checkpoint, wal_dir=args.wal_dir)
    replayed = sum(
        worker.wal.last_seq - worker.wal.base_seq
        for worker in service.workers
        if worker.wal is not None
    )
    sha = service.compact(args.out or args.checkpoint)
    service.close()
    print(
        f"compacted {service.n_shards} shard(s): truncated {replayed} "
        f"replayed WAL record(s); manifest sha256 {sha[:12]}..."
    )
    return 0


def _emit_wire_requests(args) -> int:
    """Write the protocol requests an ingest would issue, instead of issuing
    them — the zero-copy feeder for a piped ``repro serve`` process."""
    from repro.core.prior import PriorKnowledge
    from repro.io import load_dataset
    from repro.schemas import canonical_json
    from repro.serving import encode_array

    dataset = load_dataset(args.dataset)
    rng = np.random.default_rng(args.seed)
    subset = dataset.late_subset(args.samples, rng)

    def enc(values):
        return encode_array(values) if args.wire_encoding == "b64f64" else (
            np.asarray(values, dtype=float).tolist()
        )

    lines = []
    if args.create:
        prior = PriorKnowledge.from_samples(dataset.early)
        create = {
            "op": "create",
            "key": args.session,
            "prior_mean": enc(prior.mean),
            "prior_covariance": enc(prior.covariance),
            "prior_n_samples": int(prior.n_samples),
            "exist_ok": True,
        }
        if args.kappa0 is not None:
            create["kappa0"] = args.kappa0
        if args.v0 is not None:
            create["v0"] = args.v0
        lines.append(canonical_json(create))
    lines.append(
        canonical_json({"op": "ingest", "key": args.session, "samples": enc(subset)})
    )
    text = "\n".join(lines) + "\n"
    if args.emit_wire == "-":
        sys.stdout.write(text)
    else:
        with open(args.emit_wire, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(
        f"emitted {len(lines)} {args.wire_encoding}-encoded request line(s) "
        f"({subset.shape[0]} rows for session {args.session!r}) to "
        f"{'stdout' if args.emit_wire == '-' else args.emit_wire}",
        file=sys.stderr,
    )
    return 0


def _reject_manifest_dir(path: str, verb: str) -> bool:
    """Report (and return True) when ``path`` is a checkpoint directory:
    ``ingest``/``query`` work on single-file checkpoints only."""
    import os

    if not os.path.isdir(path):
        return False
    print(
        f"{path} is a directory (a sharded checkpoint holds a manifest.json); "
        f"'repro {verb}' works on single-file checkpoints — serve the "
        f"directory with 'repro serve --checkpoint {path}' instead",
        file=sys.stderr,
    )
    return True


def _cmd_ingest(args) -> int:
    import os

    from repro.core.prior import PriorKnowledge
    from repro.io import load_dataset
    from repro.serving import ShardWorker

    if args.emit_wire is not None:
        return _emit_wire_requests(args)
    if _reject_manifest_dir(args.checkpoint, "ingest"):
        return 2
    dataset = load_dataset(args.dataset)
    if os.path.exists(args.checkpoint):
        service = ShardWorker.restore(args.checkpoint)
    elif args.create:
        service = ShardWorker()
    else:
        print(
            f"checkpoint {args.checkpoint} does not exist (pass --create to start one)",
            file=sys.stderr,
        )
        return 2
    if args.session not in service.store:
        if not args.create:
            print(
                f"session {args.session!r} not in checkpoint "
                "(pass --create to register it from the bank's early stage)",
                file=sys.stderr,
            )
            return 2
        prior = PriorKnowledge.from_samples(dataset.early)
        service.create_session(
            args.session, prior, kappa0=args.kappa0, v0=args.v0
        )
        print(
            f"created session {args.session!r} from the bank's early stage "
            f"({dataset.early.shape[0]} rows, {dataset.dim} metrics)"
        )
    rng = np.random.default_rng(args.seed)
    subset = dataset.late_subset(args.samples, rng)
    total = service.ingest(args.session, subset)
    sha = service.checkpoint(args.checkpoint)
    print(
        f"ingested {subset.shape[0]} late samples into {args.session!r} "
        f"(session n={total}); wrote {args.checkpoint} (sha256 {sha[:12]}...)"
    )
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.io import load_dataset
    from repro.serving import ShardWorker

    if _reject_manifest_dir(args.checkpoint, "query"):
        return 2
    service = ShardWorker.restore(args.checkpoint)

    if args.kind == "stats":
        print(json.dumps(service.stats(), indent=2, sort_keys=True))  # reprolint: disable=RPL009 -- human-readable console display, never persisted or hashed
        return 0
    if args.kind == "sessions":
        for key in service.store.keys():
            print(key)
        return 0

    if not args.session:
        print(f"query kind {args.kind!r} requires --session", file=sys.stderr)
        return 2

    if args.kind == "estimate":
        estimate = service.query_many([("estimate", args.session, None)])[0]
        if args.json:
            print(
                json.dumps(  # reprolint: disable=RPL009 -- human-readable console display, never persisted or hashed
                    {
                        "key": args.session,
                        "mean": estimate.mean.tolist(),
                        "covariance": estimate.covariance.tolist(),
                        "n": estimate.n_samples,
                        "info": dict(estimate.info),
                    }
                )
            )
        else:
            print(
                f"session {args.session!r}: MAP estimate from "
                f"{estimate.n_samples} ingested samples"
            )
            print(f"{'metric':<10} {'mean':>14} {'std':>14}")
            stds = np.sqrt(np.diag(estimate.covariance))
            for i, (mean, std) in enumerate(zip(estimate.mean, stds)):
                print(f"m{i:<9} {mean:>14.6g} {std:>14.6g}")
        return 0

    if args.kind == "loglik":
        if not args.dataset:
            print("query loglik requires --dataset", file=sys.stderr)
            return 2
        dataset = load_dataset(args.dataset)
        rng = np.random.default_rng(args.seed)
        rows = dataset.late_subset(args.rows, rng)
        value = service.query_many([("loglik", args.session, rows)])[0]
        print(
            f"log-likelihood of {rows.shape[0]} bank rows under "
            f"session {args.session!r}: {value:.6g}"
        )
        return 0

    # kind == "yield"
    if args.lower is None or args.upper is None:
        print("query yield requires --lower and --upper", file=sys.stderr)
        return 2
    lower = np.asarray([float(t) for t in args.lower.split(",")])
    upper = np.asarray([float(t) for t in args.upper.split(",")])
    value = service.query_many([("yield", args.session, (lower, upper))])[0]
    print(f"parametric yield of session {args.session!r}: {value:.6f}")
    return 0


def _cmd_scenarios_list(args) -> int:
    from repro.circuits.registry import circuit_names, get_circuit
    from repro.scenarios import (
        builtin_documents,
        expand,
        load_scenario_doc,
        topology_knobs,
    )

    if args.document is not None:
        doc = load_scenario_doc(_resolve_scenario_doc_path(args.document))
        instances = expand(doc)
        print(f"{doc.source}: schema {doc.schema}, library {doc.library}")
        for spec in doc.scenarios:
            n = sum(
                1
                for inst in instances
                if inst.name == spec.name or inst.name.startswith(f"{spec.name}@")
            )
            axes = (
                " x ".join(
                    f"{axis}[{len(spec.sweep[axis])}]" for axis in sorted(spec.sweep)
                )
                or "<point>"
            )
            print(f"  {spec.name:<24} {spec.circuit:<10} {axes:<28} {n} instance(s)")
        print(f"total: {len(instances)} instance(s)")
        return 0

    builtins = builtin_documents()
    print("bundled documents:")
    for name in builtins or ["  <none>"]:
        print(f"  {name}")
    print("registry circuits:")
    for name in circuit_names():
        entry = get_circuit(name)
        knobs = ", ".join(topology_knobs(name)) or "<reserved knobs only>"
        print(f"  {name:<10} {entry.summary}")
        print(f"  {'':<10} knobs: {knobs}")
    return 0


def _cmd_scenarios_expand(args) -> int:
    from repro.scenarios import expand, load_scenario_doc
    from repro.schemas import canonical_json

    doc = load_scenario_doc(_resolve_scenario_doc_path(args.document))
    instances = expand(doc)
    if args.json:
        for inst in instances:
            print(
                canonical_json(
                    {
                        "name": inst.name,
                        "circuit": inst.circuit,
                        "config_hash": inst.config_hash,
                        "n_samples": inst.n_samples,
                        "seed": inst.seed,
                        "knobs": {k: inst.knobs[k] for k in sorted(inst.knobs)},
                    }
                )
            )
    else:
        for inst in instances:
            print(
                f"{inst.config_hash[:12]} {inst.circuit:<10} "
                f"n={inst.n_samples:<6} {inst.name}"
            )
        print(f"{len(instances)} instance(s)", file=sys.stderr)
    return 0


def _cmd_scenarios_compile(args) -> int:
    from repro.scenarios import compile_all, expand, load_scenario_doc
    from repro.schemas import canonical_json

    doc = load_scenario_doc(_resolve_scenario_doc_path(args.document))
    instances = expand(doc)
    reports = compile_all(
        instances,
        n_jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
    )
    hits = sum(1 for r in reports if r["cache_hit"])
    if args.json:
        for report in reports:
            print(canonical_json(report))
    else:
        for report in reports:
            mark = "cached" if report["cache_hit"] else "built"
            print(
                f"{report['config_hash'][:12]} {mark:<6} "
                f"{report['circuit']:<10} {report['name']}"
            )
    print(
        f"compiled {len(reports)} instance(s) from {doc.source}: "
        f"{hits} cache-served, {len(reports) - hits} built",
        file=sys.stderr,
    )
    return 0


def _cmd_scenarios(args) -> int:
    handlers = {
        "list": _cmd_scenarios_list,
        "expand": _cmd_scenarios_expand,
        "compile": _cmd_scenarios_compile,
    }
    return handlers[args.scenario_command](args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "fuse": _cmd_fuse,
        "list-estimators": _cmd_list_estimators,
        "figure4": lambda a: _run_figure(a, "figure4"),
        "figure5": lambda a: _run_figure(a, "figure5"),
        "cost": _cmd_cost,
        "gof": _cmd_gof,
        "serve": _cmd_serve,
        "replay": _cmd_replay,
        "compact": _cmd_compact,
        "ingest": _cmd_ingest,
        "query": _cmd_query,
        "scenarios": _cmd_scenarios,
    }
    from repro.exceptions import WalCorruptionError

    try:
        return handlers[args.command](args)
    except WalCorruptionError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
