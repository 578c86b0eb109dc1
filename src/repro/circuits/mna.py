"""Modified nodal analysis (MNA) AC solver.

Assembles the complex system ``(G + j*omega*C) x = b`` from a
:class:`~repro.circuits.netlist.Netlist` and solves it over a frequency
grid.  The unknown vector ``x`` stacks node voltages followed by auxiliary
branch currents (voltage sources, inductors).

Stamp conventions follow standard MNA texts (e.g. Vlach & Singhal):

* two-terminal admittance ``y``: ``+y`` at ``(p, p)``/``(n, n)``, ``-y``
  at ``(p, n)``/``(n, p)``;
* VCCS ``gm`` from control pair ``(cp, cn)`` into output pair ``(p, n)``:
  ``+gm`` at ``(p, cp)``, ``-gm`` at ``(p, cn)``, ``-gm`` at ``(n, cp)``,
  ``+gm`` at ``(n, cn)``;
* voltage source branch ``k``: ``+1`` at ``(p, k)``/``(k, p)``, ``-1`` at
  ``(n, k)``/``(k, n)``, RHS ``b[k] = amplitude``;
* independent current source from ``p`` to ``n``: ``b[p] -= I``,
  ``b[n] += I`` (current leaves ``p``, enters ``n`` externally);
* inductor branch ``k``: the source links above, with ``-L`` in ``C`` at
  the branch diagonal.

There is one solver, :class:`StampPlan`.  Process variation changes stamp
*values*, never the topology, so the plan assembles the scatter structure
once (a COO-style index/sign plan) and then stamps and solves *all dies
at once*: per-sample component values arrive as arrays, are scattered
into stacked ``(n_samples, m, m)`` matrices, and solved in chunks sized
by a memory budget.  Nodes driven by a grounded voltage source are
eliminated symbolically, which shrinks every shipped macromodel to a
core of size <= 3 solved in closed form.  A single netlist is a one-sample
batch: the transient and noise analyses read their matrices from
:meth:`StampPlan.assemble_batched` and their solves from
:meth:`StampPlan.solve_batched`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.components import (
    GROUND,
    Capacitor,
    Component,
    CurrentSource,
    Inductor,
    Resistor,
    VCCS,
    VoltageSource,
)
from repro.circuits.netlist import Netlist
from repro.exceptions import SimulationError, SingularMatrixError
from repro.linalg.batched import solve_batched

__all__ = [
    "StampPlan",
    "BatchedACSolution",
    "check_memory_budget",
]

#: Matrix identifiers used by the shared stamp generator.
_MAT_G = 0
_MAT_C = 1

#: COO entry ``(matrix, row, col, coefficient)``; the stamped value is
#: ``coefficient * value`` for value entries, ``coefficient`` for constants.
_Entry = Tuple[int, int, int, float]


def _component_stamps(
    comp: Component, net: Netlist
) -> Tuple[float, List[_Entry], List[_Entry], List[Tuple[int, complex]]]:
    """One component's stamps, split into value-scaled and constant parts.

    Returns ``(value, value_entries, const_entries, b_updates)`` where
    ``value_entries`` are scaled by the component's primitive value
    (conductance, capacitance, inductance, gm), ``const_entries`` are
    fixed coefficients (source/inductor branch links), and ``b_updates``
    are ``(index, amount)`` additions to the excitation vector, in the
    element-by-element order the constant stamps are accumulated in.
    """
    value_entries: List[_Entry] = []
    const_entries: List[_Entry] = []
    b_updates: List[Tuple[int, complex]] = []

    def admittance(mat: int, p: int, n: int) -> None:
        if p >= 0:
            value_entries.append((mat, p, p, 1.0))
        if n >= 0:
            value_entries.append((mat, n, n, 1.0))
        if p >= 0 and n >= 0:
            value_entries.append((mat, p, n, -1.0))
            value_entries.append((mat, n, p, -1.0))

    if isinstance(comp, Resistor):
        admittance(_MAT_G, net.node_index(comp.pos), net.node_index(comp.neg))
        return comp.conductance, value_entries, const_entries, b_updates
    if isinstance(comp, Capacitor):
        admittance(_MAT_C, net.node_index(comp.pos), net.node_index(comp.neg))
        return comp.value, value_entries, const_entries, b_updates
    if isinstance(comp, Inductor):
        p, n = net.node_index(comp.pos), net.node_index(comp.neg)
        k = net.branch_index(comp.name)
        for node, sign in ((p, 1.0), (n, -1.0)):
            if node >= 0:
                const_entries.append((_MAT_G, node, k, sign))
                const_entries.append((_MAT_G, k, node, sign))
        value_entries.append((_MAT_C, k, k, -1.0))
        return comp.value, value_entries, const_entries, b_updates
    if isinstance(comp, VCCS):
        p, n = net.node_index(comp.pos), net.node_index(comp.neg)
        cp, cn = net.node_index(comp.ctrl_pos), net.node_index(comp.ctrl_neg)
        for out_node, out_sign in ((p, 1.0), (n, -1.0)):
            if out_node < 0:
                continue
            if cp >= 0:
                value_entries.append((_MAT_G, out_node, cp, out_sign))
            if cn >= 0:
                value_entries.append((_MAT_G, out_node, cn, -out_sign))
        return comp.gm, value_entries, const_entries, b_updates
    if isinstance(comp, VoltageSource):
        p, n = net.node_index(comp.pos), net.node_index(comp.neg)
        k = net.branch_index(comp.name)
        for node, sign in ((p, 1.0), (n, -1.0)):
            if node >= 0:
                const_entries.append((_MAT_G, node, k, sign))
                const_entries.append((_MAT_G, k, node, sign))
        b_updates.append((k, comp.amplitude))
        return 1.0, value_entries, const_entries, b_updates
    if isinstance(comp, CurrentSource):
        p, n = net.node_index(comp.pos), net.node_index(comp.neg)
        if p >= 0:
            b_updates.append((p, -comp.amplitude))
        if n >= 0:
            b_updates.append((n, comp.amplitude))
        return 1.0, value_entries, const_entries, b_updates
    raise SimulationError(f"unsupported component {type(comp).__name__}")


def _node_map(net: Netlist) -> Dict[Hashable, int]:
    """Name -> matrix index for every non-ground node, insertion order."""
    out: Dict[Hashable, int] = {}
    for comp in net.components:
        for node in comp.nodes():
            if node != GROUND and node not in out:
                out[node] = net.node_index(node)
    return out


def _branch_map(net: Netlist) -> Dict[str, int]:
    """Component name -> branch-current matrix index."""
    return {
        comp.name: net.branch_index(comp.name)
        for comp in net.components
        if comp.needs_branch_current
    }


def check_memory_budget(memory_budget_mb: float) -> None:
    """Refuse a working-set budget that is non-finite or not positive."""
    if not np.isfinite(memory_budget_mb) or memory_budget_mb <= 0.0:
        raise SimulationError(
            f"memory_budget_mb must be finite and positive, got {memory_budget_mb}"
        )


def _validate_freqs(freqs) -> np.ndarray:
    f = np.atleast_1d(np.asarray(freqs, dtype=float))
    if f.ndim != 1 or f.size == 0:
        raise SimulationError("frequency grid must be a non-empty 1-D array")
    if np.any(f < 0.0):
        raise SimulationError("frequencies must be non-negative")
    return f


# ---------------------------------------------------------------------------
# batched Monte-Carlo engine
# ---------------------------------------------------------------------------
class BatchedACSolution:
    """Node voltages for a whole sample bank over a frequency grid.

    Name-based access, so callers never deal in matrix indices; every
    quantity has a leading sample axis: :meth:`voltage` returns
    ``(n_samples, n_freq)``.
    Nodes eliminated as known (driven by a grounded voltage source) are
    reconstructed as constants; branch currents are available only for
    non-eliminated sources/inductors.  When the solve was restricted to
    specific ``outputs``, only those quantities are available.

    The solution is stored column-major — ``(n_columns, n_samples,
    n_freq)`` — so every :meth:`voltage` access returns one contiguous
    array with no strided gather.
    """

    def __init__(
        self,
        freqs: np.ndarray,
        solution: np.ndarray,
        column_of: Dict[Hashable, int],
        known: Dict[Hashable, complex],
        branch_column_of: Dict[str, int],
    ) -> None:
        self.freqs = freqs
        self._solution = solution
        self._column_of = column_of
        self._known = known
        self._branch_column_of = branch_column_of

    @property
    def n_samples(self) -> int:
        """Batch dimension."""
        return self._solution.shape[1]

    def voltage(self, node: Hashable) -> np.ndarray:
        """Complex ``(n_samples, n_freq)`` voltage of ``node``."""
        shape = (self.n_samples, self.freqs.size)
        if node == GROUND:
            return np.zeros(shape, dtype=complex)
        if node in self._known:
            return np.full(shape, self._known[node], dtype=complex)
        try:
            col = self._column_of[node]
        except KeyError as exc:
            raise SimulationError(
                f"unknown node {node!r} (not in the netlist, or not among the "
                "requested solve outputs)"
            ) from exc
        return self._solution[col]

    def branch_current(self, name: str) -> np.ndarray:
        """Complex ``(n_samples, n_freq)`` branch current of ``name``."""
        try:
            col = self._branch_column_of[name]
        except KeyError as exc:
            raise SimulationError(
                f"no branch current available for component {name!r} "
                "(eliminated sources carry none in the batched solve)"
            ) from exc
        return self._solution[col]

    def transfer(self, out_node: Hashable, in_node: Hashable) -> np.ndarray:
        """``V(out) / V(in)`` as a ``(n_samples, n_freq)`` array."""
        if in_node in self._known:
            vin = self._known[in_node]
            if vin == 0.0:
                raise SimulationError(f"input node {in_node!r} has zero voltage")
            return self.voltage(out_node) / vin
        vin_arr = self.voltage(in_node)
        if np.any(np.abs(vin_arr) == 0.0):
            raise SimulationError(f"input node {in_node!r} has zero voltage")
        return self.voltage(out_node) / vin_arr


class StampPlan:
    """Symbolic scatter plan: netlist topology assembled once, values later.

    Parameters
    ----------
    netlist:
        The circuit template; validated at construction.  Its component
        values for the names in ``variable`` are placeholders — every
        batched solve supplies per-sample values for them.
    variable:
        Names of components whose primitive value changes per Monte-Carlo
        sample (resistance, capacitance, inductance or VCCS ``gm``).
        Sources cannot be variable.

    Notes
    -----
    The plan separates what never changes across process draws (where each
    stamp lands: a COO index/sign scatter plan, plus all constant stamps)
    from what does (the stamp values).  ``solve_batched`` then:

    1. evaluates per-sample stamp values as arrays and scatter-adds them
       into stacked ``(n_samples, m, m)`` G/C matrices via a precomputed
       slot->entry projection,
    2. eliminates nodes pinned by grounded voltage sources (their voltage
       is known, so the row enforcing it and the branch unknown drop out),
    3. forms ``(chunk, n_freq, m', m')`` complex systems chunk by chunk —
       the chunk size is bounded by ``memory_budget_mb`` — and solves them
       in closed form for ``m' <= 3`` or with one stacked
       ``np.linalg.solve`` otherwise.

    Every shipped circuit reduces to ``m' <= 3``.  Larger systems still
    solve, but the stacked dense systems cost ``O(m'^2)`` memory per
    ``(sample, frequency)``: a reduced core whose single sample does not
    fit ``memory_budget_mb`` is refused with :class:`SimulationError`.
    """

    def __init__(self, netlist: Netlist, variable: Sequence[str] = ()) -> None:
        netlist.validate()
        self.netlist = netlist
        self.variable = tuple(variable)
        if len(set(self.variable)) != len(self.variable):
            raise SimulationError(f"duplicate variable names: {self.variable}")
        self._size = netlist.size
        self._node_map = _node_map(netlist)
        self._branch_map = _branch_map(netlist)

        variable_set = set(self.variable)
        for name in self.variable:
            if name not in netlist:
                raise SimulationError(f"variable component {name!r} not in netlist")

        size = self._size
        base = (np.zeros((size, size)), np.zeros((size, size)))
        b = np.zeros(size, dtype=complex)
        entries: List[Tuple[int, int, int, int, float]] = []  # slot, mat, row, col, coeff
        self._slot_kinds: List[type] = [type(netlist[name]) for name in self.variable]
        for comp in netlist.components:
            value, value_entries, const_entries, b_updates = _component_stamps(
                comp, netlist
            )
            if comp.name in variable_set:
                if not isinstance(comp, (Resistor, Capacitor, Inductor, VCCS)):
                    raise SimulationError(
                        f"{comp.name}: {type(comp).__name__} cannot be variable"
                    )
                slot = self.variable.index(comp.name)
                entries.extend(
                    (slot, mat, row, col, coeff) for mat, row, col, coeff in value_entries
                )
            else:
                for mat, row, col, coeff in value_entries:
                    base[mat][row, col] += coeff * value
            for mat, row, col, coeff in const_entries:
                base[mat][row, col] += coeff
            for idx, amount in b_updates:
                b[idx] += amount
        self._base_g, self._base_c = base
        self._base_b = b

        # Scatter plan as flat arrays: contribution of sample values to the
        # stacked matrices is `values @ projection` at the unique flat
        # positions, built once here.
        self._scatter = []
        n_slots = len(self.variable)
        for mat in (_MAT_G, _MAT_C):
            sel = [(s, r, c, coeff) for s, m_, r, c, coeff in entries if m_ == mat]
            if not sel:
                self._scatter.append(None)
                continue
            slots = np.array([s for s, _r, _c, _coeff in sel])
            flat = np.array([r * size + c for _s, r, c, _coeff in sel])
            coeffs = np.array([coeff for _s, _r, _c, coeff in sel])
            uniq, inv = np.unique(flat, return_inverse=True)
            projection = np.zeros((n_slots, uniq.size))
            np.add.at(projection, (slots, inv), coeffs)
            self._scatter.append((uniq, projection))

        # Grounded voltage sources pin their hot node: eliminate the node
        # column (known voltage -> RHS) together with the branch unknown
        # and the row that would have determined it.
        self._known: Dict[Hashable, complex] = {}
        eliminated: List[int] = []
        for comp in netlist.components:
            if not isinstance(comp, VoltageSource) or comp.name in variable_set:
                continue
            if comp.neg == GROUND:
                node, amplitude = comp.pos, comp.amplitude
            elif comp.pos == GROUND:
                node, amplitude = comp.neg, -comp.amplitude
            else:
                continue
            if node in self._known:
                continue
            self._known[node] = amplitude
            eliminated.append(netlist.node_index(node))
            eliminated.append(netlist.branch_index(comp.name))
        keep = [i for i in range(size) if i not in set(eliminated)]
        self._keep = np.array(keep, dtype=int)
        self._known_cols = np.array(
            [netlist.node_index(n) for n in self._known], dtype=int
        )
        self._known_values = np.array(
            [self._known[n] for n in self._known], dtype=complex
        )
        keep_pos = {full: red for red, full in enumerate(keep)}
        self._column_of = {
            node: keep_pos[idx]
            for node, idx in self._node_map.items()
            if idx in keep_pos
        }
        self._branch_column_of = {
            name: keep_pos[idx]
            for name, idx in self._branch_map.items()
            if idx in keep_pos
        }

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Full MNA dimension (before elimination)."""
        return self._size

    @property
    def reduced_size(self) -> int:
        """Dimension actually solved per (sample, frequency)."""
        return int(self._keep.size)

    @property
    def known_nodes(self) -> Dict[Hashable, complex]:
        """Nodes with symbolically known voltages (copy)."""
        return dict(self._known)

    # ------------------------------------------------------------------
    def _slot_values(self, values) -> np.ndarray:
        """Normalise per-sample values to a ``(n, n_slots)`` stamp array."""
        n_slots = len(self.variable)
        if isinstance(values, Mapping):
            missing = [name for name in self.variable if name not in values]
            if missing:
                raise SimulationError(f"missing values for components: {missing}")
            cols = [np.asarray(values[name], dtype=float) for name in self.variable]
            arr = np.column_stack(cols) if cols else np.empty((0, 0))
        else:
            arr = np.asarray(values, dtype=float)
            if arr.ndim == 1 and n_slots == 1:
                arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != n_slots:
            raise SimulationError(
                f"expected values of shape (n_samples, {n_slots}), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise SimulationError("batched solve requires at least one sample")
        if not np.all(np.isfinite(arr)):
            raise SimulationError("non-finite component values in batch")
        stamped = arr.copy()
        for slot, kind in enumerate(self._slot_kinds):
            col = stamped[:, slot]
            if kind is Resistor:
                if np.any(col <= 0.0):
                    raise SimulationError(
                        f"{self.variable[slot]}: resistance must be > 0"
                    )
                stamped[:, slot] = 1.0 / col
            elif kind is Capacitor:
                if np.any(col < 0.0):
                    raise SimulationError(
                        f"{self.variable[slot]}: capacitance must be >= 0"
                    )
            elif kind is Inductor:
                if np.any(col <= 0.0):
                    raise SimulationError(
                        f"{self.variable[slot]}: inductance must be > 0"
                    )
        return stamped

    def assemble_batched(self, values) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(n, m, m)`` G and C plus the shared excitation ``b``."""
        stamped = self._slot_values(values)
        n = stamped.shape[0]
        size = self._size
        out = []
        for mat, base in ((_MAT_G, self._base_g), (_MAT_C, self._base_c)):
            stack = np.broadcast_to(base, (n, size, size)).copy()
            scatter = self._scatter[mat]
            if scatter is not None:
                uniq, projection = scatter
                flat = stack.reshape(n, size * size)
                flat[:, uniq] += stamped @ projection
            out.append(stack)
        return out[0], out[1], self._base_b.copy()

    # ------------------------------------------------------------------
    def _chunk_samples(
        self, n: int, n_freq: int, memory_budget_mb: float, poly: bool = False
    ) -> int:
        """Largest sample chunk whose working set fits the budget."""
        m = max(self.reduced_size, 1)
        if poly:
            # Polynomial path: a handful of real (chunk, n_freq) planes
            # (det/numerator parts, denominator, per-column temporaries).
            per_sample = n_freq * 8 * (8 + 6 * m)
        else:
            # Complex systems + RHS + solution + solver workspace headroom.
            per_sample = n_freq * (m * m + 2 * m) * 16 * 3
        chunk = int(memory_budget_mb * 2**20 / per_sample)
        if chunk < 1:
            # The stacked systems cannot hold even one sample: fail loudly
            # instead of silently blowing past the budget.
            raise SimulationError(
                f"MNA solve: one sample needs ~{per_sample / 2**20:.1f} MiB "
                f"(reduced size {m}, {n_freq} frequencies), which exceeds "
                f"memory_budget_mb={memory_budget_mb:g}; raise memory_budget_mb"
            )
        return min(n, chunk)

    def _output_columns(self, outputs) -> List[int]:
        """Reduced column indices to solve for (all of them by default)."""
        if outputs is None:
            return list(range(self.reduced_size))
        want = set()
        for name in outputs:
            if name == GROUND or name in self._known:
                continue
            if name in self._column_of:
                want.add(self._column_of[name])
            elif name in self._branch_column_of:
                want.add(self._branch_column_of[name])
            else:
                raise SimulationError(f"unknown output {name!r}")
        return sorted(want)

    def solve_batched(
        self,
        values,
        freqs,
        memory_budget_mb: float = 512.0,
        outputs: Optional[Sequence[Hashable]] = None,
    ) -> BatchedACSolution:
        """Solve all samples over the grid with chunked stacked solves.

        ``values`` is a mapping of component name to ``(n_samples,)``
        primitive values (resistance/capacitance/inductance/gm), or an
        equivalent ``(n_samples, n_variable)`` array in ``self.variable``
        order.  Peak memory is bounded by ``memory_budget_mb``.  When
        ``outputs`` names the only nodes/branches the caller will read,
        the solve skips the Cramer numerators of every other unknown.
        """
        check_memory_budget(memory_budget_mb)
        f = _validate_freqs(freqs)
        m = self._keep.size
        if m == 0:
            raise SimulationError("every unknown was eliminated; nothing to solve")
        # Refuse a solve whose single sample cannot fit the budget before
        # the (n, size, size) stacks below are assembled.
        self._chunk_samples(1, f.size, memory_budget_mb, poly=m <= 3)
        omega = 2.0 * np.pi * f
        want = self._output_columns(outputs)
        slot_of = {red: slot for slot, red in enumerate(want)}
        column_of = {
            node: slot_of[red]
            for node, red in self._column_of.items()
            if red in slot_of
        }
        branch_column_of = {
            name: slot_of[red]
            for name, red in self._branch_column_of.items()
            if red in slot_of
        }

        g_stack, c_stack, b = self.assemble_batched(values)
        n = g_stack.shape[0]
        keep = self._keep
        g_red = g_stack[:, keep[:, None], keep[None, :]]
        c_red = c_stack[:, keep[:, None], keep[None, :]]
        rhs0 = np.broadcast_to(b[keep], (n, m)).astype(complex)
        rhs1 = np.zeros((n, m), dtype=complex)
        if self._known_cols.size:
            kc = self._known_cols
            kv = self._known_values
            rhs0 = rhs0 - g_stack[:, keep[:, None], kc[None, :]] @ kv
            rhs1 = -(c_stack[:, keep[:, None], kc[None, :]] @ kv)

        # The fast path treats det(G + sC) and every Cramer numerator as
        # polynomials in s = j*omega with real (n,)-array coefficients:
        # coefficients are computed once per sample, then evaluated over
        # the grid with real outer products — no stacked (n, n_freq, m, m)
        # complex systems are ever materialised.  Requires a real
        # excitation (always true for the circuit testbenches here).
        use_poly = (
            m <= 3
            and np.all(rhs0.imag == 0.0)
            and np.all(rhs1.imag == 0.0)
        )
        solution = np.empty((len(want), n, f.size), dtype=complex)
        chunk = self._chunk_samples(n, f.size, memory_budget_mb, poly=use_poly)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            if use_poly and _polynomial_solve(
                g_red[start:stop],
                c_red[start:stop],
                rhs0[start:stop].real,
                rhs1[start:stop].real,
                omega,
                solution[:, start:stop],
                want,
            ):
                continue
            systems = (
                g_red[start:stop, None, :, :]
                + 1j * omega[None, :, None, None] * c_red[start:stop, None, :, :]
            )
            rhs = (
                rhs0[start:stop, None, :]
                + 1j * omega[None, :, None] * rhs1[start:stop, None, :]
            )
            x = self._solve_stacked(systems, rhs)
            for slot, red in enumerate(want):
                solution[slot, start:stop] = x[:, :, red]
        if not np.all(np.isfinite(solution)):
            raise SimulationError("non-finite AC solution in batch")
        return BatchedACSolution(
            f, solution, column_of, dict(self._known), branch_column_of
        )

    @staticmethod
    def _solve_stacked(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(k, n_freq, m, m) x = rhs`` — closed form for tiny m."""
        m = systems.shape[-1]
        if m <= 3:
            x = _cramer_solve(systems, rhs)
            if x is not None:
                return x
        try:
            return solve_batched(systems, rhs)
        except SingularMatrixError as exc:
            raise SimulationError(
                "singular MNA system in batch; check for floating nodes"
            ) from exc


# ---------------------------------------------------------------------------
# polynomial (transfer-function) solve for reduced cores of size <= 3
# ---------------------------------------------------------------------------
# A polynomial in s is a list of real (n,)-coefficient arrays, lowest
# degree first; every MNA entry of the reduced system is G + s*C, i.e.
# degree 1, so determinants and Cramer numerators have degree <= m.
_Poly = List[np.ndarray]


def _poly_mul(p: _Poly, q: _Poly) -> _Poly:
    out: List[Optional[np.ndarray]] = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            term = a * b
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return out  # type: ignore[return-value]


def _poly_add(p: _Poly, q: _Poly, sign: float = 1.0) -> _Poly:
    out = list(p) + [np.zeros_like(p[0])] * max(0, len(q) - len(p))
    for k, b in enumerate(q):
        out[k] = out[k] + sign * b
    return out


def _poly_det(mat: List[List[_Poly]]) -> _Poly:
    """Determinant polynomial of an ``m x m`` matrix of degree-1 entries."""
    m = len(mat)
    if m == 1:
        return mat[0][0]
    if m == 2:
        return _poly_add(
            _poly_mul(mat[0][0], mat[1][1]), _poly_mul(mat[0][1], mat[1][0]), -1.0
        )
    minor0 = _poly_add(
        _poly_mul(mat[1][1], mat[2][2]), _poly_mul(mat[1][2], mat[2][1]), -1.0
    )
    minor1 = _poly_add(
        _poly_mul(mat[1][0], mat[2][2]), _poly_mul(mat[1][2], mat[2][0]), -1.0
    )
    minor2 = _poly_add(
        _poly_mul(mat[1][0], mat[2][1]), _poly_mul(mat[1][1], mat[2][0]), -1.0
    )
    det = _poly_add(
        _poly_mul(mat[0][0], minor0), _poly_mul(mat[0][1], minor1), -1.0
    )
    return _poly_add(det, _poly_mul(mat[0][2], minor2))


def _poly_eval_jomega(
    p: _Poly, omega_powers: List[np.ndarray], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate ``sum_k p_k (j*omega)^k`` as real/imag ``(n, n_freq)`` parts.

    ``j^k`` cycles through ``1, j, -1, -j`` so even coefficients land in
    the real part and odd ones in the imaginary part, with alternating
    signs.  All-zero coefficients (common: real excitations kill the odd
    RHS terms) are skipped.
    """
    re: Optional[np.ndarray] = None
    im: Optional[np.ndarray] = None
    for k, coef in enumerate(p):
        if not np.any(coef):
            continue
        term = np.multiply.outer(coef, omega_powers[k])
        quadrant = k % 4
        if quadrant >= 2:
            np.negative(term, out=term)
        if quadrant % 2 == 0:
            re = term if re is None else np.add(re, term, out=re)
        else:
            im = term if im is None else np.add(im, term, out=im)
    shape = (n, omega_powers[0].size)
    if re is None:
        re = np.zeros(shape)
    if im is None:
        im = np.zeros(shape)
    return re, im


def _polynomial_solve(
    g: np.ndarray,
    c: np.ndarray,
    r0: np.ndarray,
    r1: np.ndarray,
    omega: np.ndarray,
    out: np.ndarray,
    want: Sequence[int],
) -> bool:
    """Cramer solve via per-sample polynomial coefficients in ``s = j*omega``.

    Writes the requested columns into ``out`` (``(n_columns, n, n_freq)``)
    and returns True; returns False (caller falls back to the pivoted
    LAPACK path) when the determinant vanishes anywhere on the grid.
    """
    n, m = g.shape[0], g.shape[-1]
    powers: List[np.ndarray] = [np.ones_like(omega)]
    for _ in range(m):
        powers.append(powers[-1] * omega)
    entries = [[[g[:, i, j], c[:, i, j]] for j in range(m)] for i in range(m)]
    det_re, det_im = _poly_eval_jomega(_poly_det(entries), powers, n)
    denom = det_re * det_re
    denom += det_im * det_im
    if not np.all(denom > 0.0):
        return False
    np.reciprocal(denom, out=denom)
    for slot, k in enumerate(want):
        numerator = [
            [[r0[:, i], r1[:, i]] if j == k else entries[i][j] for j in range(m)]
            for i in range(m)
        ]
        num_re, num_im = _poly_eval_jomega(_poly_det(numerator), powers, n)
        column = out[slot]
        real = num_re * det_re
        real += num_im * det_im
        real *= denom
        imag = num_im * det_re
        num_re *= det_im
        imag -= num_re
        imag *= denom
        column.real = real
        column.imag = imag
    return True


def _cramer_solve(a: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Vectorised Cramer solve for stacked 1x1/2x2/3x3 systems.

    Returns ``None`` when any determinant vanishes (caller falls back to
    the pivoted LAPACK path, which reports singularity properly).  For the
    well-conditioned macromodel cores this is an order of magnitude faster
    than per-matrix LAPACK calls because every operation is elementwise
    over the full (sample, frequency) batch.
    """
    m = a.shape[-1]
    if m == 1:
        det = a[..., 0, 0]
        if np.any(det == 0.0):
            return None
        return rhs / det
    if m == 2:
        a00, a01 = a[..., 0, 0], a[..., 0, 1]
        a10, a11 = a[..., 1, 0], a[..., 1, 1]
        det = a00 * a11 - a01 * a10
        if np.any(det == 0.0):
            return None
        x = np.empty_like(rhs)
        b0, b1 = rhs[..., 0], rhs[..., 1]
        x[..., 0] = (b0 * a11 - a01 * b1) / det
        x[..., 1] = (a00 * b1 - b0 * a10) / det
        return x
    if m == 3:
        a00, a01, a02 = a[..., 0, 0], a[..., 0, 1], a[..., 0, 2]
        a10, a11, a12 = a[..., 1, 0], a[..., 1, 1], a[..., 1, 2]
        a20, a21, a22 = a[..., 2, 0], a[..., 2, 1], a[..., 2, 2]
        c00 = a11 * a22 - a12 * a21
        c01 = a12 * a20 - a10 * a22
        c02 = a10 * a21 - a11 * a20
        det = a00 * c00 + a01 * c01 + a02 * c02
        if np.any(det == 0.0):
            return None
        b0, b1, b2 = rhs[..., 0], rhs[..., 1], rhs[..., 2]
        x = np.empty_like(rhs)
        x[..., 0] = (b0 * c00 + a01 * (a12 * b2 - b1 * a22) + a02 * (b1 * a21 - a11 * b2)) / det
        x[..., 1] = (a00 * (b1 * a22 - a12 * b2) + b0 * c01 + a02 * (a10 * b2 - b1 * a20)) / det
        x[..., 2] = (a00 * (a11 * b2 - b1 * a21) + a01 * (b1 * a20 - a10 * b2) + b0 * c02) / det
        return x
    return None
