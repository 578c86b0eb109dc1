"""Batched StampPlan solves against the dense per-netlist reference."""

import tracemalloc

import numpy as np
import pytest

from repro.circuits.mna import BatchedACSolution, StampPlan
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError

from .loop_oracle import DenseAC

FREQS = np.logspace(2, 8, 31)


def rc_netlist(r=1000.0, c=1e-9):
    net = Netlist()
    net.voltage_source("Vin", "in", "0", 1.0)
    net.resistor("R", "in", "out", r)
    net.capacitor("C", "out", "0", c)
    return net


def amp_netlist(gm=1e-3, r=50e3, c=2e-12):
    """One gain stage: VCCS into an RC load, driven by a grounded source."""
    net = Netlist()
    net.voltage_source("Vin", "in", "0", 1.0)
    net.vccs("Ggm", "0", "out", "in", "0", gm)
    net.resistor("R", "out", "0", r)
    net.capacitor("C", "out", "0", c)
    return net


def sample_values(rng, n):
    return {
        "R": 1000.0 * np.exp(0.2 * rng.standard_normal(n)),
        "C": 1e-9 * np.exp(0.1 * rng.standard_normal(n)),
    }


class TestStampPlanEquivalence:
    def test_rc_matches_scalar_per_sample(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        values = sample_values(np.random.default_rng(3), 16)
        sol = plan.solve_batched(values, FREQS)
        assert isinstance(sol, BatchedACSolution)
        assert sol.n_samples == 16
        for i in (0, 7, 15):
            scalar = DenseAC(
                rc_netlist(values["R"][i], values["C"][i])
            ).solve(FREQS)
            np.testing.assert_allclose(
                sol.voltage("out")[i], scalar.voltage("out"), rtol=1e-12
            )

    def test_amp_matches_scalar_per_sample(self):
        plan = StampPlan(amp_netlist(), variable=("Ggm", "R", "C"))
        rng = np.random.default_rng(11)
        values = {
            "Ggm": 1e-3 * np.exp(0.1 * rng.standard_normal(8)),
            "R": 50e3 * np.exp(0.1 * rng.standard_normal(8)),
            "C": 2e-12 * np.exp(0.1 * rng.standard_normal(8)),
        }
        sol = plan.solve_batched(values, FREQS)
        for i in range(8):
            scalar = DenseAC(
                amp_netlist(values["Ggm"][i], values["R"][i], values["C"][i])
            ).solve(FREQS)
            np.testing.assert_allclose(
                sol.voltage("out")[i], scalar.voltage("out"), rtol=1e-12
            )

    def test_transfer_from_known_input(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        values = sample_values(np.random.default_rng(5), 4)
        sol = plan.solve_batched(values, FREQS)
        h = sol.transfer("out", "in")
        scalar = DenseAC(
            rc_netlist(values["R"][2], values["C"][2])
        ).solve(FREQS)
        np.testing.assert_allclose(
            h[2], scalar.transfer("out", "in"), rtol=1e-12
        )


class TestStampPlanChunkingAndOutputs:
    def test_memory_budget_is_bit_identical(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        values = sample_values(np.random.default_rng(7), 64)
        full = plan.solve_batched(values, FREQS, memory_budget_mb=512.0)
        tiny = plan.solve_batched(values, FREQS, memory_budget_mb=0.05)
        assert np.array_equal(full.voltage("out"), tiny.voltage("out"))

    def test_outputs_subset_matches_full_solve(self):
        plan = StampPlan(amp_netlist(), variable=("Ggm", "R", "C"))
        rng = np.random.default_rng(13)
        values = {
            "Ggm": 1e-3 * np.exp(0.1 * rng.standard_normal(6)),
            "R": 50e3 * np.exp(0.1 * rng.standard_normal(6)),
            "C": 2e-12 * np.exp(0.1 * rng.standard_normal(6)),
        }
        full = plan.solve_batched(values, FREQS)
        only_out = plan.solve_batched(values, FREQS, outputs=["out"])
        assert np.array_equal(full.voltage("out"), only_out.voltage("out"))
        with pytest.raises(SimulationError):
            only_out.branch_current("Vin")

    def test_unknown_output_raises(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        values = sample_values(np.random.default_rng(1), 2)
        with pytest.raises(SimulationError):
            plan.solve_batched(values, FREQS, outputs=["nowhere"])


class TestStampPlanValidation:
    def test_empty_sample_batch_raises(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        with pytest.raises(SimulationError):
            plan.solve_batched(
                {"R": np.array([]), "C": np.array([])}, FREQS
            )

    def test_non_positive_resistance_raises(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        with pytest.raises(SimulationError):
            plan.solve_batched(
                {"R": np.array([1000.0, -5.0]), "C": np.array([1e-9, 1e-9])},
                FREQS,
            )

    def test_non_positive_budget_raises(self):
        plan = StampPlan(rc_netlist(), variable=("R", "C"))
        values = sample_values(np.random.default_rng(2), 2)
        with pytest.raises(SimulationError):
            plan.solve_batched(values, FREQS, memory_budget_mb=0.0)

    def test_unknown_variable_raises(self):
        with pytest.raises(SimulationError):
            StampPlan(rc_netlist(), variable=("Rmissing",))

    def test_source_cannot_be_variable(self):
        with pytest.raises(SimulationError):
            StampPlan(rc_netlist(), variable=("Vin",))


# ---------------------------------------------------------------------------
# R-C ladders: reduced cores past the closed form (m > 3) take the stacked
# LAPACK branch
# ---------------------------------------------------------------------------
#: Agreement gate for the batched solve against the per-sample dense solve.
LADDER_REL_TOL = 1e-9

LADDER_FREQS = np.logspace(2, 8, 7)


def ladder_netlist(n_nodes, values=None, vccs_gm=None):
    """R-C ladder ``n0 -> n{n_nodes}`` driven at ``n0``.

    ``values`` overrides component values by name (one sample's draw).
    With ``vccs_gm``, ``n0`` also drives a VCCS into ``n1``: a variable
    entry in the eliminated (known) column that folds into the RHS.
    """
    values = values or {}
    net = Netlist()
    net.voltage_source("Vin", "n0", "0", 1.0)
    if vccs_gm is not None:
        net.vccs("Ggm", "0", "n1", "n0", "0", values.get("Ggm", vccs_gm))
    for i in range(n_nodes):
        net.resistor(f"R{i}", f"n{i}", f"n{i + 1}", values.get(f"R{i}", 1000.0))
        net.capacitor(f"C{i}", f"n{i + 1}", "0", values.get(f"C{i}", 1e-9))
    return net


def ladder_values(names, n_samples, seed=0):
    rng = np.random.default_rng(seed)
    nominal = {"R": 1000.0, "C": 1e-9, "G": 1e-3}
    return {
        name: nominal[name[0]] * np.exp(0.1 * rng.standard_normal(n_samples))
        for name in names
    }


def assert_matches_per_sample(plan, values, out, n_nodes, vccs_gm=None):
    sol = plan.solve_batched(values, LADDER_FREQS, outputs=[out])
    batched = sol.voltage(out)
    n_samples = len(next(iter(values.values())))
    assert batched.shape == (n_samples, LADDER_FREQS.size)
    for i in range(n_samples):
        draw = {name: float(v[i]) for name, v in values.items()}
        ref = DenseAC(ladder_netlist(n_nodes, draw, vccs_gm)).solve(LADDER_FREQS)
        expected = ref.voltage(out)
        rel = np.abs(batched[i] - expected) / np.maximum(np.abs(expected), 1e-300)
        assert rel.max() <= LADDER_REL_TOL


class TestLadders:
    @pytest.mark.parametrize("n_nodes", [3, 8, 32, 64, 128, 200])
    def test_ladder_matches_per_sample(self, n_nodes):
        names = [f"R{i}" for i in range(n_nodes)]
        plan = StampPlan(ladder_netlist(n_nodes), variable=names)
        assert plan.reduced_size == n_nodes
        values = ladder_values(names, 5)
        assert_matches_per_sample(plan, values, f"n{n_nodes}", n_nodes)

    @pytest.mark.parametrize("n_samples", [1, 2, 17])
    def test_batch_sizes(self, n_samples):
        names = [f"R{i}" for i in range(12)]
        plan = StampPlan(ladder_netlist(12), variable=names)
        values = ladder_values(names, n_samples)
        assert_matches_per_sample(plan, values, "n12", 12)

    def test_variable_capacitors_hit_the_c_scatter(self):
        names = [f"{kind}{i}" for i in range(16) for kind in "RC"]
        plan = StampPlan(ladder_netlist(16), variable=names)
        values = ladder_values(names, 4)
        assert_matches_per_sample(plan, values, "n16", 16)

    @pytest.mark.parametrize("n_nodes", [2, 8])
    def test_vccs_from_driven_node_folds_into_rhs(self, n_nodes):
        """A VCCS controlled by the known node is a variable entry in an
        eliminated column; it must land in the RHS (closed form at 2
        unknowns, stacked LAPACK at 8)."""
        names = ["Ggm", "R1"]
        plan = StampPlan(ladder_netlist(n_nodes, vccs_gm=1e-3), variable=names)
        values = ladder_values(names, 6, seed=1)
        assert_matches_per_sample(plan, values, f"n{n_nodes}", n_nodes, vccs_gm=1e-3)

    def test_500_nodes_refused_past_memory_budget(self):
        """One sample of a 500-unknown core over 50 frequencies does not
        fit the default budget, so the solve is refused."""
        names = [f"R{i}" for i in range(500)]
        plan = StampPlan(ladder_netlist(500), variable=names)
        values = ladder_values(names, 64)
        freqs = np.logspace(2, 8, 50)
        with pytest.raises(SimulationError) as info:
            plan.solve_batched(values, freqs, outputs=["n500"])
        assert str(info.value).endswith("raise memory_budget_mb")

    def test_refused_solve_allocates_far_below_the_budget(self):
        """The wall is checked before the (n, size, size) stacks are
        assembled, so the refusal itself stays well under the budget."""
        names = [f"R{i}" for i in range(500)]
        plan = StampPlan(ladder_netlist(500), variable=names)
        values = ladder_values(names, 64)
        freqs = np.logspace(2, 8, 50)
        tracemalloc.start()
        try:
            with pytest.raises(SimulationError, match="raise memory_budget_mb"):
                plan.solve_batched(values, freqs, outputs=["n500"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # budget: 512 MiB
