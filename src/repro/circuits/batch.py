"""Shared batch engines of the six Monte-Carlo circuits.

Two bases, one per way a circuit names its dies:

* :class:`StampPlanSimulator` — the process-sample circuits solved on a
  :class:`repro.circuits.mna.StampPlan`;
* :class:`DieSeedSimulator` — the die-seed circuits (flash ADC, R-2R DAC,
  SAR ADC), which draw each die's mismatch from its integer seed.

Both own the same scaffolding — validation, the forked ``n_jobs``
fan-out and memory-bounded chunking — so a circuit supplies only its
physics.  ``simulate_batch`` is the one engine, and every die runs
through it, the nominal die of each stage (``P_NOM`` of Sec. 4.1)
included.  The per-die reference the tests compare it against lives in
``tests/circuits/loop_oracle.py`` (``loop_bank``).

Process-sample circuits
-----------------------

:class:`repro.circuits.opamp.TwoStageOpAmp`,
:class:`repro.circuits.ota.FoldedCascodeOTA` and
:class:`repro.circuits.svf.GmCStateVariableFilter` each measure a die by
building a small-signal macromodel netlist from square-law devices and
solving it over an AC grid.  :meth:`StampPlanSimulator.simulate_batch`
runs the whole bank through one cached
:class:`repro.circuits.mna.StampPlan` — one symbolic MNA assembly,
stacked chunked solves, vectorized metric extraction — and agrees with
the per-die reference to <=1e-10 relative error (pinned by
``tests/circuits/test_vectorized_equivalence.py``).  The bank is a
:class:`repro.circuits.process.ProcessBank`: chunks and forked shards are
slices of its arrays, and each device's variation is read from its
columns.  A nominal die is the one row of a one-die bank
(:meth:`StampPlanSimulator._simulate_one`).

A subclass supplies the circuit: ``_FREQ_GRID``, the ``_VARIABLE``
component names, ``_METRICS``, the ``_DERATED`` parasitic fields,
:meth:`_netlist` (the macromodel of one die, used once at nominal as the
plan's template) and :meth:`_simulate_batch_vectorized`.

Die-seed circuits
-----------------
A die is an integer seed; :func:`repro.circuits.dies.die_draw_bank` turns
a seed vector into one row of standard normals per die, and a subclass
supplies ``_stride`` (the row length), :meth:`DieSeedSimulator._bytes_per_die`
(its working set, which sizes the chunks) and
:meth:`DieSeedSimulator._metrics_from_rows` (the metrics of a block of
rows).  The per-die :meth:`DieSeedSimulator.simulate` and
:meth:`DieSeedSimulator.simulate_nominal` run the same kernel on one row.

Cache notes: neither base bumps
``repro.circuits.montecarlo._DATASET_CACHE_VERSION``, because cached
banks stay valid to round-off.

* Drawing a process-sample bank as arrays (:class:`ProcessBank`) instead
  of one :class:`ProcessSample` per die consumes the generator in the same
  stream order and does the same float arithmetic, so banks stay
  byte-identical and ``_DATASET_CACHE_VERSION`` stays 1.

* Moving a process-sample circuit onto the stamp plan moves its rows by
  ~1e-15 relative (a closed-form vs. an LU solve of the same system).
* The R-2R ladder's superposition solve (unit-bit right-hand sides
  instead of one per code, and a closed-form code average of the
  reference current) moves its rows by round-off of the same linear
  system: <=1e-10 relative, the gain error taken against full scale.
* The SAR ADC's staircase lookup returns the bit-by-bit search's codes
  exactly, so its rows — and the flash ADC's, whose kernel is unchanged —
  are bit-identical.
* Taking every nominal die from ``simulate_batch`` (instead of a per-die
  dense solve with scalar metric math) moves the nominal vectors by
  <=1.4e-13 relative (op-amp post-layout; the OTA, gm-C filter and flash
  ADC <=4e-15) and leaves every Monte-Carlo row byte-identical.  Cached
  banks stay valid to round-off, so ``_DATASET_CACHE_VERSION`` stays 1;
  the pinned bank digests assert their old bytes with the per-die twin's
  nominal dies and pin the new ones in a second constant.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.devices import Mosfet
from repro.circuits.dies import die_draw_bank, die_seed_array
from repro.circuits.mna import StampPlan, check_memory_budget
from repro.circuits.netlist import Netlist
from repro.circuits.process import ProcessBank, ProcessSample, ProcessVariationModel
from repro.exceptions import SimulationError

__all__ = ["DieSeedSimulator", "StampPlanSimulator", "code_levels"]


def code_levels(weights: np.ndarray) -> np.ndarray:
    """Every code's summed bit weights: ``(n, 2^b)`` from ``(n, b)``.

    ``weights[:, i]`` belongs to bit ``i`` (LSB first); column ``c`` holds
    the sum of the weights of ``c``'s set bits, added MSB first — the
    order a successive-approximation search accumulates them, so the sums
    are bit-identical to its trial levels.  Built by doubling: one add per
    code.
    """
    n, b = weights.shape
    levels = np.empty((n, 1 << b))
    levels[:, 0] = 0.0
    for k in range(b):
        i = b - 1 - k
        # Codes as (prefix of the k bits above i, bit i, the i bits below):
        # the prefixes with bit i set and nothing below add weight i.
        view = levels.reshape(n, 1 << k, 2, 1 << i)
        np.add(view[:, :, 0, 0], weights[:, i, None], out=view[:, :, 1, 0])
    return levels


def _fan_out(
    run: Callable[[np.ndarray], np.ndarray], n_items: int, n_jobs: Optional[int]
) -> np.ndarray:
    """``run(indices)`` over the whole bank, or over forked index shards.

    Shards are contiguous and reassembled in order, so the result is
    bit-identical to the single-process call for every worker count.
    """
    from repro.experiments.parallel import fork_available, replicate, resolve_n_jobs

    jobs = min(resolve_n_jobs(n_jobs), n_items)
    if jobs > 1 and fork_available():
        shards = [s for s in np.array_split(np.arange(n_items), jobs) if s.size]
        return np.vstack(replicate(run, shards, n_jobs=jobs))
    return run(np.arange(n_items))


class StampPlanSimulator:
    """Base of the process-sample simulators with a batched stamp-plan engine."""

    #: Log-spaced analysis grid (set by each circuit).
    _FREQ_GRID: np.ndarray

    #: Component names whose stamp values vary per process draw; everything
    #: else in the macromodel is topology shared by the whole bank.
    _VARIABLE: Tuple[str, ...] = ()

    #: Dataclass of one die's metrics (``*row`` constructs it).
    _METRICS: type

    #: Parasitic fields that :meth:`simulate_nominal` scales by
    #: ``1 - extraction_derate``.
    _DERATED: Tuple[str, ...] = ()

    #: Samples per pipeline pass.  Small enough that the ~25 working
    #: (chunk, n_freq) planes stay cache-resident — measured ~4x faster
    #: than streaming the whole bank through memory — while large enough
    #: to amortise per-call numpy overhead.
    _PIPELINE_CHUNK = 512

    design: Any
    parasitics: Any
    _devices: List[Tuple[Mosfet, str]]
    _plan: Optional[StampPlan] = None

    # ------------------------------------------------------------------
    @property
    def devices(self) -> List[Mosfet]:
        """Nominal device instances (for process-model sampling)."""
        return [dev for dev, _pol in self._devices]

    def _shape_variation(self, dvth, dkp):
        """Layout reshaping of one device's ``(dvth, dkp)`` deviation.

        Identity by default; a post-layout variant overrides it.  Called
        with floats by :meth:`_varied_devices` and with ``(n,)`` arrays by
        the batched engine, so both apply the same arithmetic.
        """
        return dvth, dkp

    def _varied_devices(self, sample: ProcessSample) -> Dict[str, Mosfet]:
        out: Dict[str, Mosfet] = {}
        for dev, pol in self._devices:
            varied = sample.apply(dev, pol)
            dvth, dkp = self._shape_variation(varied.dvth, varied.dkp_rel)
            out[dev.name] = dev.with_variation(dvth, dkp)
        return out

    def _netlist(self, sample: ProcessSample) -> Netlist:
        """Small-signal macromodel of one die."""
        raise NotImplementedError

    def _simulate_batch_vectorized(
        self,
        bank: ProcessBank,
        memory_budget_mb: float,
    ) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def simulate_batch(
        self,
        samples: Union[ProcessBank, Sequence[ProcessSample]],
        memory_budget_mb: float = 512.0,
        n_jobs: Optional[int] = None,
    ) -> np.ndarray:
        """Metrics matrix ``(len(samples), d)`` in metric-name order.

        One symbolic MNA assembly, stacked chunked solves and vectorized
        metric extraction; agrees with the per-die reference of
        ``tests/circuits/loop_oracle.py`` to better than 1e-10 relative
        error.

        Parameters
        ----------
        samples:
            Process draws, a :class:`ProcessBank` or a sequence of
            :class:`ProcessSample` (stacked into a bank once, here); must
            be non-empty.
        memory_budget_mb:
            Peak-memory bound for the stacked complex systems; the solve
            is chunked so ``n_samples * n_freq * m^2`` never exceeds it.
            Non-finite or non-positive budgets raise
            :class:`~repro.exceptions.SimulationError`.
        n_jobs:
            Optional process-based sharding (``-1`` = all CPUs).  Results
            are bit-identical to the single-process run for every worker
            count.
        """
        bank = (
            samples
            if isinstance(samples, ProcessBank)
            else ProcessBank.from_samples(list(samples), [d.name for d in self.devices])
        )
        if not len(bank):
            raise SimulationError("simulate_batch requires at least one process sample")
        check_memory_budget(memory_budget_mb)
        self._stamp_plan()  # build once; forked workers inherit it
        return _fan_out(
            lambda idx: self._simulate_chunked(bank[idx], memory_budget_mb),
            len(bank),
            n_jobs,
        )

    def simulate_nominal(self):
        """Nominal (variation-free) run; supplies ``P_NOM`` for Sec. 4.1.

        When ``extraction_derate`` is set, the nominal run sees only a
        fraction of the layout parasitics (each ``_DERATED`` field times
        ``1 - extraction_derate``) — modelling a signoff extraction deck
        that under-captures coupling, a well-documented source of
        silicon-vs-signoff mean bias.  The Monte-Carlo population always
        carries the full parasitics, so the Sec. 4.1 nominal shift cannot
        fully align the early- and late-stage means: exactly the situation
        in which the paper's op-amp cross validation selects a small
        ``kappa_0`` (early mean knowledge downweighted).
        """
        sim = self
        derate = self.parasitics.extraction_derate
        if derate != 0.0:
            keep = 1.0 - derate
            scaled = {name: getattr(self.parasitics, name) * keep for name in self._DERATED}
            par = dataclasses.replace(self.parasitics, extraction_derate=0.0, **scaled)
            sim = type(self)(self.design, par)
        model = ProcessVariationModel(0.0, 0.0, 0.0, 0.0, 0.0)
        return sim._simulate_one(model.nominal_sample(sim.devices))

    def _simulate_one(self, sample: ProcessSample):
        """Metrics of one die: the one row of :meth:`simulate_batch`.

        Every nominal die comes through here — each stage's
        ``simulate_nominal`` and each corner-shifted nominal of the
        dataset builders.
        """
        return self._METRICS(*(float(x) for x in self.simulate_batch([sample])[0]))

    def _simulate_chunked(
        self,
        bank: ProcessBank,
        memory_budget_mb: float,
    ) -> np.ndarray:
        """Run the vectorized engine in cache-sized sample chunks.

        Every metric is computed row-independently, so chunk boundaries
        cannot change results: the output is bit-identical for any chunk
        size.  The memory budget can only shrink the chunk further.
        """
        budget_rows = int(
            memory_budget_mb * 2**20 // (self._FREQ_GRID.size * 8 * 32)
        )
        chunk = max(1, min(self._PIPELINE_CHUNK, budget_rows))
        if len(bank) <= chunk:
            return self._simulate_batch_vectorized(bank, memory_budget_mb)
        return np.vstack(
            [
                self._simulate_batch_vectorized(bank[i : i + chunk], memory_budget_mb)
                for i in range(0, len(bank), chunk)
            ]
        )

    def _stamp_plan(self) -> StampPlan:
        """The macromodel's symbolic scatter plan (topology-only, cached)."""
        if self._plan is None:
            model = ProcessVariationModel(0.0, 0.0, 0.0, 0.0, 0.0)
            template = self._netlist(model.nominal_sample(self.devices))
            self._plan = StampPlan(template, variable=self._VARIABLE)
        return self._plan

    def _batched_device_arrays(
        self, bank: ProcessBank
    ) -> Dict[str, Dict[str, np.ndarray]]:
        """Per-device variation arrays, mirroring :meth:`_varied_devices`.

        A device the bank does not list draws zero local deviation, as
        :meth:`ProcessSample.apply` does.
        """
        g = bank.global_draws
        dvth_g = {"n": g[:, 0], "p": g[:, 1]}
        dkp_g = {"n": g[:, 2], "p": g[:, 3]}
        out: Dict[str, Dict[str, np.ndarray]] = {}
        for dev, pol in self._devices:
            local = bank.local_of(dev.name)
            if local is None:
                local = np.zeros((len(bank), 2))
            dvth, dkp = self._shape_variation(
                dvth_g[pol] + local[:, 0], dkp_g[pol] + local[:, 1]
            )
            kp_eff = dev.process.kp * (1.0 + dkp)
            if np.any(kp_eff <= 0.0):
                raise SimulationError(
                    f"{dev.name}: kp variation drives kp non-positive in batch"
                )
            out[dev.name] = {
                "dvth": dvth,
                "dkp": dkp,
                "vth": dev.process.vth + dvth,
                "beta": kp_eff * dev.geometry.ratio,
                "lambda_": dev.process.lambda_,
                "cgg": (2.0 / 3.0) * dev.geometry.area * dev.process.cox
                + dev.geometry.width * dev.process.cov,
            }
        return out

    @staticmethod
    def _batched_gm(dev: Dict[str, np.ndarray], current: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0 * dev["beta"] * current)

    @staticmethod
    def _batched_vov(dev: Dict[str, np.ndarray], current: np.ndarray) -> np.ndarray:
        return np.sqrt(2.0 * current / dev["beta"])

    @staticmethod
    def _log_crossing_batch(
        f_lo: np.ndarray,
        f_hi: np.ndarray,
        m_lo: np.ndarray,
        m_hi: np.ndarray,
        target: np.ndarray,
    ) -> np.ndarray:
        """Log-log interpolation of the frequency where ``|H|`` hits target."""
        l_lo, l_hi = np.log10(f_lo), np.log10(f_hi)
        g_lo, g_hi = np.log10(m_lo), np.log10(m_hi)
        span = g_hi - g_lo
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (np.log10(target) - g_lo) / span
        return np.where(span == 0.0, f_lo, 10.0 ** (l_lo + frac * (l_hi - l_lo)))


class DieSeedSimulator:
    """Base of the die-seed simulators: a die is an integer seed.

    Build stage pairs with ``schematic()`` / ``post_layout()`` and feed both
    the *same die seeds*, so each die replays the same raw draws through
    both stages and its early/late metrics stay physically correlated.
    """

    #: Dataclass of one die's metrics (``*row`` constructs it).
    _METRICS: type

    #: Most dies per vectorized sweep; the memory budget can only shrink it.
    _PIPELINE_CHUNK = 64

    @property
    def _stride(self) -> int:
        """Standard normals one die consumes (its draw-row length)."""
        raise NotImplementedError

    def _bytes_per_die(self) -> int:
        """Peak working set of one die in :meth:`_metrics_from_rows`."""
        raise NotImplementedError

    def _metrics_from_rows(self, z: np.ndarray) -> np.ndarray:
        """Metrics matrix ``(n, d)`` for a block of draw rows ``(n, stride)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _die_row(self, die_seed: int) -> np.ndarray:
        """Draw row ``(1, stride)`` of one die, freshly drawn (not cached)."""
        (seed,) = die_seed_array([die_seed])
        die_rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
        return die_rng.standard_normal(self._stride)[None, :]

    def _metrics(self, row: np.ndarray):
        return self._METRICS(*[float(x) for x in row])

    def simulate(self, die_seed: int):
        """Measure die ``die_seed`` (the shipped kernel on one draw row).

        The seed identifies the *die*: calling the schematic and
        post-layout simulators with the same seed replays the same
        mismatch draws through both stages.
        """
        return self._metrics(self._metrics_from_rows(self._die_row(die_seed))[0])

    def simulate_nominal(self):
        """Variation-free run (``P_NOM`` for the Sec. 4.1 shift).

        Zeroed mismatch and noise, but the deterministic layout effects
        stay — mirroring a nominal post-layout SPICE run.
        """
        return self._metrics(self._metrics_from_rows(np.zeros((1, self._stride)))[0])

    def simulate_batch(
        self,
        die_seeds,
        memory_budget_mb: float = 512.0,
        n_jobs: Optional[int] = None,
    ) -> np.ndarray:
        """Metrics matrix ``(len(die_seeds), d)`` in metric-name order.

        Whole die chunks run through :meth:`_metrics_from_rows` on the
        shared draw bank.

        Parameters
        ----------
        die_seeds:
            Non-negative integer seeds, one per die (a 1-D array; a scalar
            is one die).  Negative, non-integral or multi-dimensional
            seeds raise :class:`~repro.exceptions.SimulationError`.
        memory_budget_mb:
            Peak working-set bound; chunks shrink so ``chunk *
            _bytes_per_die()`` stays under it.  Results are bit-identical
            for every budget.  Non-finite or non-positive budgets raise
            :class:`~repro.exceptions.SimulationError`.
        n_jobs:
            Optional forked sharding (``-1`` = all CPUs); bit-identical to
            the single-process run.
        """
        seeds = die_seed_array(die_seeds)
        check_memory_budget(memory_budget_mb)
        return _fan_out(
            lambda idx: self._simulate_chunked(seeds[idx], memory_budget_mb),
            seeds.size,
            n_jobs,
        )

    def _simulate_chunked(
        self, seeds: np.ndarray, memory_budget_mb: float
    ) -> np.ndarray:
        """Run :meth:`_metrics_from_rows` in memory-bounded die chunks.

        Every metric is row-independent, so the chunk size cannot change
        the result.
        """
        budget_rows = int(memory_budget_mb * 2**20 // self._bytes_per_die())
        chunk = max(1, min(self._PIPELINE_CHUNK, budget_rows))
        bank = die_draw_bank(seeds, self._stride)
        return np.vstack(
            [
                self._metrics_from_rows(bank[start : start + chunk])
                for start in range(0, seeds.size, chunk)
            ]
        )
