"""Shared batch engine for the process-sample circuits solved on a StampPlan.

:class:`repro.circuits.opamp.TwoStageOpAmp`,
:class:`repro.circuits.ota.FoldedCascodeOTA` and
:class:`repro.circuits.svf.GmCStateVariableFilter` each measure a die by
building a small-signal macromodel netlist from square-law devices and
solving it over an AC grid.  Their per-die :meth:`simulate` is the
reference; :meth:`StampPlanSimulator.simulate_batch` runs the whole bank
through one cached :class:`repro.circuits.mna.StampPlan` instead — one
symbolic MNA assembly, stacked chunked solves, vectorized metric
extraction — and agrees with the reference to <=1e-10 relative error
(pinned by ``tests/circuits/test_vectorized_equivalence.py``).

A subclass supplies the circuit: ``_FREQ_GRID``, the ``_VARIABLE``
component names, :meth:`_netlist` (the macromodel of one die, used once
at nominal as the plan's template), :meth:`simulate` and
:meth:`_simulate_batch_vectorized`.  The scaffolding here — validation,
the ``engine="loop"`` reference path, the forked ``n_jobs`` fan-out and
the memory-bounded chunking — is the same for all three.

Cache note: moving a circuit onto this engine does not bump
``repro.circuits.montecarlo._DATASET_CACHE_VERSION``.  Banks cached by the
per-die path stay valid, because the batched rows agree with them to
~1e-15 relative (solver round-off from a closed-form vs. an LU solve of
the same system) — the same reason ``mna_backend`` is not part of the
dataset cache key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.devices import Mosfet
from repro.circuits.mna import StampPlan
from repro.circuits.netlist import Netlist
from repro.circuits.process import ProcessSample, ProcessVariationModel
from repro.exceptions import SimulationError

__all__ = ["StampPlanSimulator"]


class StampPlanSimulator:
    """Base of the process-sample simulators with a batched stamp-plan engine."""

    #: Log-spaced analysis grid (set by each circuit).
    _FREQ_GRID: np.ndarray

    #: Component names whose stamp values vary per process draw; everything
    #: else in the macromodel is topology shared by the whole bank.
    _VARIABLE: Tuple[str, ...] = ()

    #: Samples per pipeline pass.  Small enough that the ~25 working
    #: (chunk, n_freq) planes stay cache-resident — measured ~4x faster
    #: than streaming the whole bank through memory — while large enough
    #: to amortise per-call numpy overhead.
    _PIPELINE_CHUNK = 512

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
        with floats by the per-die path and with ``(n,)`` arrays by the
        batched one, so both apply the same arithmetic.
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

    def simulate(self, sample: ProcessSample):
        """Measure one die (the per-die reference path)."""
        raise NotImplementedError

    def _simulate_batch_vectorized(
        self,
        samples: List[ProcessSample],
        memory_budget_mb: float,
        mna_backend: Optional[str] = None,
    ) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def simulate_batch(
        self,
        samples: List[ProcessSample],
        engine: str = "vectorized",
        memory_budget_mb: float = 512.0,
        n_jobs: Optional[int] = None,
        mna_backend: Optional[str] = None,
    ) -> np.ndarray:
        """Metrics matrix ``(len(samples), d)`` in metric-name order.

        Parameters
        ----------
        samples:
            Process draws; must be non-empty.
        engine:
            ``"vectorized"`` (default) runs the batched stamp-plan engine —
            one symbolic MNA assembly, stacked chunked solves, vectorized
            metric extraction.  ``"loop"`` is the per-die reference path;
            the two agree to better than 1e-10 relative error.
        memory_budget_mb:
            Peak-memory bound for the stacked complex systems; the solve
            is chunked so ``n_samples * n_freq * m^2`` never exceeds it.
        n_jobs:
            Optional process-based sharding of the vectorized engine
            (``-1`` = all CPUs).  Results are bit-identical to the
            single-process engine for every worker count.
        mna_backend:
            System-solve strategy forwarded to
            :meth:`repro.circuits.mna.StampPlan.solve_batched`:
            ``"dense"``, ``"sparse"``, or ``None``/``"auto"`` (size
            heuristic — the macromodels' tiny reduced cores always
            resolve dense).
        """
        sample_list = list(samples)
        if not sample_list:
            raise SimulationError("simulate_batch requires at least one process sample")
        if engine == "loop":
            return np.array([self.simulate(s).as_array() for s in sample_list])
        if engine != "vectorized":
            raise SimulationError(
                f"unknown engine {engine!r}; expected 'vectorized' or 'loop'"
            )
        from repro.experiments.parallel import fork_available, replicate, resolve_n_jobs

        jobs = min(resolve_n_jobs(n_jobs), len(sample_list))
        if jobs > 1 and fork_available():
            self._stamp_plan()  # build once; workers inherit it through fork
            shards = [
                s for s in np.array_split(np.arange(len(sample_list)), jobs) if s.size
            ]
            parts = replicate(
                lambda idx: self._simulate_chunked(
                    [sample_list[i] for i in idx], memory_budget_mb, mna_backend
                ),
                shards,
                n_jobs=jobs,
            )
            return np.vstack(parts)
        return self._simulate_chunked(sample_list, memory_budget_mb, mna_backend)

    def _simulate_chunked(
        self,
        samples: List[ProcessSample],
        memory_budget_mb: float,
        mna_backend: Optional[str] = None,
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
        if len(samples) <= chunk:
            return self._simulate_batch_vectorized(samples, memory_budget_mb, mna_backend)
        return np.vstack(
            [
                self._simulate_batch_vectorized(
                    samples[i : i + chunk], memory_budget_mb, mna_backend
                )
                for i in range(0, len(samples), chunk)
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
        self, samples: List[ProcessSample]
    ) -> Dict[str, Dict[str, np.ndarray]]:
        """Per-device variation arrays, mirroring :meth:`_varied_devices`."""
        n = len(samples)
        dvth_g = {
            "n": np.array([s.global_variation.dvth_n for s in samples]),
            "p": np.array([s.global_variation.dvth_p for s in samples]),
        }
        dkp_g = {
            "n": np.array([s.global_variation.dkp_rel_n for s in samples]),
            "p": np.array([s.global_variation.dkp_rel_p for s in samples]),
        }
        out: Dict[str, Dict[str, np.ndarray]] = {}
        for dev, pol in self._devices:
            local = np.array(
                [s.local.get(dev.name, (0.0, 0.0)) for s in samples]
            ).reshape(n, 2)
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
