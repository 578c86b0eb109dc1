"""The four end-to-end workloads: inputs from a seed, set-up, one trial, checks.

Every workload object generates all of its inputs from its seed in the
constructor, before anything is timed.  :meth:`setup` builds fresh state
for one trial (timed separately, reported as ``setup_s``) and
:meth:`trial` runs the timed job once:

* a ``main`` section: the user-visible job whose rate is ``throughput_per_s``;
* a ``recover`` section: rebuilding ready-to-answer state from what the
  main section left in durable storage (``recover_s``);
* untimed checks of the answers, and their Eq. (37)-(38) errors.

Only public ``repro`` APIs are used, with ``n_jobs=1`` everywhere.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuits.montecarlo import generate_adc_dataset, generate_opamp_dataset
from repro.core.bmf import BMFEstimator
from repro.core.errors import covariance_error, mean_error
from repro.core.pipeline import FusionPipeline
from repro.core.prior import PriorKnowledge
from repro.core.registry import EstimatorSpec
from repro.exceptions import ReproError
from repro.experiments.sweep import ErrorSweep, SweepConfig
from repro.scenarios import compile_instance, expand, load_scenario_doc
from repro.serving import ShardedMomentService, encode_array, handle_request, serve_loop
from repro.stats.moments import mle_covariance, sample_mean
from repro.stats.suffstats import SufficientStats

__all__ = ["REFERENCE_SEED", "Stopwatch", "TrialResult", "WORKLOADS"]

HERE = Path(__file__).resolve().parent

#: Seed of the reference trial that runs first in every process.  Its
#: inputs never change, so the errors it reports are a property of the code
#: alone.
REFERENCE_SEED = 2015


class Stopwatch:
    """Wall time per named section; the span recorder is on only inside sections.

    Every time a trial takes is read from :attr:`clock` (in the benchmark,
    the speed probe's reference-speed clock).  With a recorder,
    :attr:`self_s` also splits each span name's self time by section, so a
    layer's share of the ``main`` section alone can be read.
    """

    def __init__(
        self, recorder: Any = None, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.recorder = recorder
        self.clock = clock
        self.sections: Dict[str, float] = {}
        self.self_s: Dict[str, Dict[str, float]] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        rec = self.recorder
        if rec is not None:
            before = {span: agg.self_s for span, agg in rec.stats.items()}
            rec.active = True
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self.sections[name] = self.sections.get(name, 0.0) + elapsed
            if rec is not None:
                rec.active = False
                split = self.self_s.setdefault(name, {})
                for span, agg in rec.stats.items():
                    spent = agg.self_s - before.get(span, 0.0)
                    if spent:
                        split[span] = split.get(span, 0.0) + spent


@dataclass
class TrialResult:
    """What one trial did and whether its answers were right."""

    #: Work items finished in the ``main`` section (repetitions, instances, rows).
    items: int
    #: Latency of each timed request of the ``main`` section, in seconds.
    latencies_s: List[float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    mean_err: float
    cov_err: float
    #: How many times the ``recover`` section rebuilt its state.
    recover_repeats: int = 1
    #: The program's WAL counters (serving workloads only).
    wal: Dict[str, float] = field(default_factory=dict)


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# ---------------------------------------------------------------------------
# offline_sweep
# ---------------------------------------------------------------------------
class _TimedEstimator:
    """Estimator factory that records how long each ``estimate`` call takes."""

    def __init__(self, spec: EstimatorSpec, sink: List[float], clock: Callable[[], float]) -> None:
        self.spec = spec
        self.sink = sink
        self.clock = clock

    def __call__(self, prior: PriorKnowledge) -> Any:
        estimator = self.spec(prior)
        inner = estimator.estimate
        sink, clock = self.sink, self.clock

        def estimate(samples: Any, rng: Any = None) -> Any:
            start = clock()
            result = inner(samples, rng=rng)
            sink.append(clock() - start)
            return result

        estimator.estimate = estimate
        return estimator


class OfflineSweep:
    """``ErrorSweep`` (MLE vs BMF with 2-D CV) over the op-amp and flash-ADC banks."""

    name = "offline_sweep"
    #: Banks are paper-sized (Sec. 5.1/5.2) and drawn with the paper's seed.
    BANKS = {"opamp": (generate_opamp_dataset, 5000), "adc": (generate_adc_dataset, 1000)}
    BANK_SEED = 2015
    SMOKE_BANKS = {"opamp": 400, "adc": 200}
    #: Bank reloads per trial: one reload is ~6 ms, too short to time alone.
    RECOVER_REPEATS = 75

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.sizes = {
            name: (self.SMOKE_BANKS[name] if smoke else n)
            for name, (_, n) in self.BANKS.items()
        }
        self.config = SweepConfig(
            sample_sizes=(8, 16, 32) if smoke else (8, 16, 32, 64, 128, 256),
            n_repeats=5 if smoke else 100,
            seed=seed,
            n_jobs=1,
        )
        self.cache_dir = work_dir / "cache"
        self.banks: Dict[str, Any] = {}

    def _load_banks(self) -> Dict[str, Any]:
        return {
            name: generate(n_samples=self.sizes[name], seed=self.BANK_SEED, cache_dir=self.cache_dir)
            for name, (generate, _) in self.BANKS.items()
        }

    def setup(self) -> None:
        _fresh_dir(self.cache_dir)
        self.banks = self._load_banks()

    def trial(self, watch: Stopwatch) -> TrialResult:
        latencies: List[float] = []
        estimators = {
            "mle": "mle",
            "bmf": _TimedEstimator(EstimatorSpec("bmf"), latencies, watch.clock),
        }
        results = {}
        with watch.section("main"):
            for name, bank in self.banks.items():
                results[name] = ErrorSweep(bank, estimators=estimators, config=self.config).run()
        with watch.section("recover"):
            for _ in range(self.RECOVER_REPEATS):
                for bank in self._load_banks().values():
                    ErrorSweep(bank, estimators=estimators, config=self.config)
        checks = {}
        mean_points, cov_points = [], []
        for name, result in results.items():
            bmf, mle = result.cov_error_curve("bmf"), result.cov_error_curve("mle")
            checks[f"{name}.bmf_beats_mle_n_le_32"] = all(
                bmf[n] < mle[n] for n in bmf if n <= 32
            )
            mean_points += result.mean_error_curve("bmf").values()
            cov_points += bmf.values()
        reps = len(self.config.sample_sizes) * self.config.n_repeats * len(self.banks)
        return TrialResult(
            items=reps,
            latencies_s=latencies,
            attempted=reps,
            failed=0,
            checks=checks,
            mean_err=float(np.mean(mean_points)),
            cov_err=float(np.mean(cov_points)),
            recover_repeats=self.RECOVER_REPEATS,
        )


# ---------------------------------------------------------------------------
# offline_fleet
# ---------------------------------------------------------------------------
class OfflineFleet:
    """Algorithm 1 per fleet instance: compile, ``FusionPipeline.fit``, ``.estimate``."""

    name = "offline_fleet"
    DOCUMENT = HERE / "fleet.yaml"
    LATE_ROWS = 16
    #: Warm passes per trial: one takes ~0.3 s, and alone its recover_s
    #: spread 11% over ten runs.
    RECOVER_REPEATS = 2

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.smoke = smoke
        self.cache_dir = work_dir / "cache"
        instances = self._expand()
        children = np.random.SeedSequence(seed).spawn(len(instances))
        self.draws: List[Tuple[np.ndarray, int]] = []
        for inst, child in zip(instances, children):
            rng = np.random.default_rng(child)
            rows = rng.choice(inst.n_samples, size=self.LATE_ROWS, replace=False)
            self.draws.append((rows, int(rng.integers(2**32))))
        self.instances = instances

    def _expand(self) -> List[Any]:
        instances = expand(load_scenario_doc(self.DOCUMENT))
        return instances[::18] if self.smoke else instances

    def setup(self) -> None:
        _fresh_dir(self.cache_dir)
        self.instances = self._expand()

    def _pass(
        self, latencies: Optional[List[float]], clock: Callable[[], float]
    ) -> List[Optional[tuple]]:
        out: List[Optional[tuple]] = []
        for inst, (rows, seed) in zip(self.instances, self.draws):
            try:
                dataset, report = compile_instance(inst, cache_dir=self.cache_dir)
                pipeline = FusionPipeline.fit(
                    dataset.early, dataset.early_nominal, dataset.late_nominal
                )
                start = clock()
                result = pipeline.estimate(dataset.late[rows], rng=np.random.default_rng(seed))
                if latencies is not None:
                    latencies.append(clock() - start)
            except ReproError:
                out.append(None)
                continue
            out.append((report, dataset, pipeline, result))
        return out

    def trial(self, watch: Stopwatch) -> TrialResult:
        latencies: List[float] = []
        hashes = [inst.config_hash for inst in self.instances]
        with watch.section("main"):
            cold = self._pass(latencies, watch.clock)
        with watch.section("recover"):
            warm_passes = [self._pass(None, watch.clock) for _ in range(self.RECOVER_REPEATS)]
        passes = [cold] + warm_passes
        failed = sum(entry is None for run in passes for entry in run)
        mean_errs, cov_errs = [], []
        for entry in cold:
            if entry is not None:
                _, dataset, pipeline, result = entry
                late_iso = pipeline.transform.transform(dataset.late, "late")
                mean_errs.append(mean_error(result.isotropic.mean, sample_mean(late_iso)))
                cov_errs.append(
                    covariance_error(result.isotropic.covariance, mle_covariance(late_iso))
                )
        pairs = [(c, w) for warm in warm_passes for c, w in zip(cold, warm) if c and w]
        checks = {
            "cold_pass_has_no_cache_hits": not any(c[0]["cache_hit"] for c in cold if c),
            "warm_passes_hit_every_instance": all(w[0]["cache_hit"] for _, w in pairs),
            "config_hashes_unchanged": all(
                entry[0]["config_hash"] == h
                for run in passes
                for entry, h in zip(run, hashes)
                if entry
            ),
            "warm_estimates_equal_cold": all(
                np.array_equal(c[3].mean, w[3].mean)
                and np.array_equal(c[3].covariance, w[3].covariance)
                for c, w in pairs
            ),
        }
        return TrialResult(
            items=len(self.instances),
            latencies_s=latencies,
            attempted=len(passes) * len(self.instances),
            failed=failed,
            checks=checks,
            mean_err=float(np.mean(mean_errs)) if mean_errs else float("nan"),
            cov_err=float(np.mean(cov_errs)) if cov_errs else float("nan"),
            recover_repeats=self.RECOVER_REPEATS,
        )


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------
class _Sink:
    """Response sink for ``serve_loop`` that timestamps every response write.

    In a closed loop with no think time, request ``i``'s latency is the gap
    between response ``i - 1`` and response ``i``.
    """

    def __init__(
        self, recorder: Any = None, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.recorder = recorder
        self.clock = clock
        self.start = clock()
        self.times: List[float] = []
        self.responses: List[str] = []

    def write(self, text: str) -> int:
        self.times.append(self.clock())
        self.responses.append(text)
        if self.recorder is not None:
            self.recorder.request = len(self.times)
        return len(text)

    def flush(self) -> None:
        pass

    def latency(self, index: int) -> float:
        before = self.times[index - 1] if index else self.start
        return self.times[index] - before

    def failures(self) -> int:
        return sum(not json.loads(text)["ok"] for text in self.responses)


class _Serve:
    """Closed-loop JSON-lines traffic through the shipped ``serve_loop``.

    The traffic shapes are the two recorded in ``BENCH_serving.json`` by
    ``scripts/bench_serving.py`` (Zipf(1.6) keys, d = 5): its ``wal_ingest``
    section for :class:`ServeIngest` and its ``sharded_load`` section for
    :class:`ServeQuery`.  They are load-generator choices, not recorded user
    traffic.  Both recorded 10k sessions; 5k keeps set-up (the creates) at
    half a second, so that a run of four trials fits in 30 s, and changes
    little else: over 10k keys, Zipf(1.6) sends 0.15% of draws past rank 5000.
    """

    name = ""
    N_SHARDS = 1
    N_OPS = 0
    ROWS_PER_OP = 1
    #: One ``estimate`` after every this many ingests; ``None``: writes only.
    ESTIMATE_EVERY: Optional[int] = None
    #: The request kind whose latency is reported: ``"ingest"`` or ``"estimate"``.
    TIMED_OP = "ingest"
    SMOKE_OPS = 0
    N_SESSIONS, SMOKE_SESSIONS = 5_000, 200
    CHECK_KEYS, SMOKE_CHECK_KEYS = 32, 8
    DIM, GROUPS, ZIPF = 5, 8, 1.6
    KAPPA0, V0 = 8.0, 16.0
    TOLERANCE = 1e-10

    def __init__(
        self, seed: int, smoke: bool, work_dir: Path, estimate_every: Optional[int] = None
    ) -> None:
        self.wal_dir = work_dir / "wal"
        self.service: Optional[ShardedMomentService] = None
        self.n_sessions = self.SMOKE_SESSIONS if smoke else self.N_SESSIONS
        n_ops = self.SMOKE_OPS if smoke else self.N_OPS
        n_check = self.SMOKE_CHECK_KEYS if smoke else self.CHECK_KEYS
        every = estimate_every or self.ESTIMATE_EVERY
        if smoke and every:
            every = min(every, n_ops // 10)
        d, rng = self.DIM, np.random.default_rng(seed)

        # population groups: early-stage prior moments and the true late moments
        a = rng.standard_normal((self.GROUPS, d, d))
        self.prior_cov = a @ np.swapaxes(a, 1, 2) / d + np.eye(d)
        self.prior_mean = 3.0 + rng.standard_normal((self.GROUPS, d))
        b = np.eye(d) + 0.2 * rng.standard_normal((self.GROUPS, d, d))
        self.true_cov = b @ self.prior_cov @ np.swapaxes(b, 1, 2)
        self.true_mean = self.prior_mean + 0.3 * rng.standard_normal((self.GROUPS, d))

        weights = 1.0 / np.arange(1, self.n_sessions + 1) ** self.ZIPF
        weights /= weights.sum()
        self.key_draws = rng.choice(self.n_sessions, size=n_ops, p=weights)
        group = self.key_draws % self.GROUPS
        z = rng.standard_normal((n_ops, self.ROWS_PER_OP, d))
        chol = np.linalg.cholesky(self.true_cov)
        self.blocks = self.true_mean[group][:, None, :] + np.einsum(
            "nij,nrj->nri", chol[group], z
        )

        counts = np.bincount(self.key_draws, minlength=self.n_sessions)
        hottest = np.argsort(-counts, kind="stable")[:n_check]
        rest = np.setdiff1d(np.arange(self.n_sessions), hottest)
        self.check_keys = [int(k) for k in hottest] + [
            int(k) for k in rng.choice(rest, size=n_check, replace=False)
        ]
        # Drawn last, so the read cadence changes the reads and nothing else.
        query_draws = rng.choice(self.n_sessions, size=n_ops // every if every else 0, p=weights)

        self.create_lines = [
            json.dumps(
                {
                    "op": "create",
                    "key": self.key(k),
                    "prior_mean": self.prior_mean[k % self.GROUPS].tolist(),
                    "prior_covariance": self.prior_cov[k % self.GROUPS].tolist(),
                    "kappa0": self.KAPPA0,
                    "v0": self.V0,
                }
            )
            for k in range(self.n_sessions)
        ]
        self.lines: List[str] = []
        #: Line indices of each request kind, for the latency samples.
        self.at: Dict[str, List[int]] = {"ingest": [], "estimate": []}
        for i, k in enumerate(self.key_draws):
            block = self.blocks[i] if self.ROWS_PER_OP > 1 else self.blocks[i, 0]
            self.at["ingest"].append(len(self.lines))
            self.lines.append(
                json.dumps({"op": "ingest", "key": self.key(k), "samples": encode_array(block)})
            )
            if every and (i + 1) % every == 0:
                self.at["estimate"].append(len(self.lines))
                query = query_draws[(i + 1) // every - 1]
                self.lines.append(json.dumps({"op": "estimate", "key": self.key(query)}))

    @staticmethod
    def key(index: int) -> str:
        return f"pop/{int(index):05d}"

    def request_sha256(self) -> str:
        """Digest of every request line the program will see."""
        digest = hashlib.sha256()
        for line in self.create_lines + self.lines:
            digest.update(line.encode("utf-8") + b"\n")
        return digest.hexdigest()

    def setup(self) -> None:
        if self.service is not None:
            self.service.close()
        _fresh_dir(self.wal_dir)
        self.service = ShardedMomentService(
            n_shards=self.N_SHARDS,
            max_sessions_per_shard=self.n_sessions,
            wal_dir=self.wal_dir,
            n_jobs=1,
        )
        sink = _Sink()
        serve_loop(self.service, self.create_lines, out=sink)
        self.setup_failed = sink.failures()

    def _estimates(self, service: ShardedMomentService) -> List[Optional[tuple]]:
        out: List[Optional[tuple]] = []
        for k in self.check_keys:
            response = handle_request(service, json.dumps({"op": "estimate", "key": self.key(k)}))
            if not response["ok"]:
                out.append(None)
                continue
            out.append((np.asarray(response["mean"]), np.asarray(response["covariance"])))
        return out

    def _one_shot(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """One-shot MAP (Eq. 31-32) over every row ingested for key ``k``."""
        rows = self.blocks[self.key_draws == k].reshape(-1, self.DIM)
        stats = SufficientStats.from_samples(rows) if len(rows) else SufficientStats.empty(self.DIM)
        g = k % self.GROUPS
        prior = PriorKnowledge(self.prior_mean[g], self.prior_cov[g])
        estimate = BMFEstimator(prior, kappa0=self.KAPPA0, v0=self.V0).estimate_from_stats(stats)
        return estimate.mean, estimate.covariance

    def trial(self, watch: Stopwatch) -> TrialResult:
        service, self.service = self.service, None
        if service is None:
            raise RuntimeError("setup() must run before each trial()")
        sink = _Sink(watch.recorder, watch.clock)
        with watch.section("main"):
            sink.start = watch.clock()
            serve_loop(service, self.lines, out=sink)
        latencies = [sink.latency(i) for i in self.at[self.TIMED_OP]]
        counters = service.stats()
        live = self._estimates(service)
        service.close()
        with watch.section("recover"):
            recovered = ShardedMomentService.recover(
                self.wal_dir, max_sessions_per_shard=self.n_sessions, n_jobs=1
            )
        again = self._estimates(recovered)
        recovered.close()

        matches, mean_errs, cov_errs = [], [], []
        for k, served in zip(self.check_keys, live):
            if served is None:
                matches.append(False)
                continue
            mean, cov = self._one_shot(k)
            matches.append(
                float(np.max(np.abs(served[0] - mean))) <= self.TOLERANCE
                and float(np.max(np.abs(served[1] - cov))) <= self.TOLERANCE
            )
            g = k % self.GROUPS
            mean_errs.append(mean_error(served[0], self.true_mean[g]))
            cov_errs.append(covariance_error(served[1], self.true_cov[g]))
        checks = {
            "estimate_matches_one_shot_map": all(matches),
            "recovered_equals_live": all(
                a is not None
                and b is not None
                and np.array_equal(a[0], b[0])
                and np.array_equal(a[1], b[1])
                for a, b in zip(live, again)
            ),
        }
        failed = self.setup_failed + sink.failures() + sum(e is None for e in live + again)
        return TrialResult(
            items=len(self.key_draws) * self.ROWS_PER_OP,
            latencies_s=latencies,
            attempted=len(self.create_lines) + len(self.lines) + 2 * len(self.check_keys),
            failed=failed,
            checks=checks,
            mean_err=float(np.mean(mean_errs)) if mean_errs else float("nan"),
            cov_err=float(np.mean(cov_errs)) if cov_errs else float("nan"),
            wal={
                "bytes": float(counters["wal_bytes"]),
                "records": float(counters["wal_records"]),
                "flushes": float(counters["wal_flushes"]),
                "rows": float(len(self.key_draws) * self.ROWS_PER_OP),
            },
        )


class ServeIngest(_Serve):
    """Writes only (``wal_ingest``): one shard (the passthrough path), 64-row blocks.

    Its latency samples are the ingest requests.
    """

    name = "serve_ingest"
    N_SHARDS, N_OPS, ROWS_PER_OP = 1, 10_000, 64
    SMOKE_OPS = 400


class ServeQuery(_Serve):
    """Read/write mix (``sharded_load``): four coalescing shards, single-row
    ingests, an ``estimate`` after every 5000.  Its latency samples are the
    estimates."""

    name = "serve_query"
    N_SHARDS, N_OPS, ROWS_PER_OP, ESTIMATE_EVERY = 4, 50_000, 1, 5_000
    TIMED_OP = "estimate"
    SMOKE_OPS = 1_000


WORKLOADS = {cls.name: cls for cls in (OfflineSweep, OfflineFleet, ServeIngest, ServeQuery)}
