"""MNA system assembly shared by the DC and transient solvers.

The assembler works on a *batch* of K runs: circuits with the same
elements, nodes and MOSFET model instances, whose element values and
source waveforms may differ (the stimulus runs of one cell).  A single
circuit is the batch of one run.  Estimates are (K, n) arrays, one row
per run; assemblies return stacked (K, n, n) matrices and (K, n)
vectors, unstacked for a 1-D estimate.  :meth:`MnaAssembler.select`
gives the assembler of a sub-batch, so a solver can drop the runs that
are done.  The dense systems are solved with one stacked
``np.linalg.solve``, which calls LAPACK once per matrix, exactly as a
call on that matrix alone does (30 unknowns at most, MUX2X1 2D).

There is one stamping protocol: plans, then a scatter plan, then one
scatter per assembly.  The constructor turns every element's
:class:`~repro.spice.elements.base.StampPlan` into one scatter plan
per assembly kind — static (matrix, then rhs) and dynamic (charge
vector, then capacitance matrix) — listing, in element-and-entry
order, each entry's value row, its sign and its slot.  An assembly's
values are (rows, K) blocks, one column per run: linear constants and
GMIN, source values (once per ``(time, scale)``; ``scale`` is 1
except in Newton's source continuation), capacitor charges and
capacitances, and the MOSFETs' arrays.  It concatenates them, gathers
every entry's value in every run, signs it (x·1.0 is x and x·-1.0 is
-x, exactly) and writes both targets of every run with one
``np.bincount``.  ``bincount`` adds in input order from zero, as a
``+=`` per entry does, so every entry sums its contributions in
element order, bit for bit.

Every MOSFET of the batch, n- and p-models together, is evaluated by
one ``ids_batch`` and one ``charges_batch`` call per assembly, on the
nominal and finite-difference points of every device in every run.
The constructor reads the models' parameters once, as it reads the
resistances and capacitances: one
:class:`~repro.compact.columns.DeviceColumns` in circuit order; each
batch and sub-batch takes its columns widened to the (m, points·K)
bias arrays, built once per width.  An assembly gathers every
terminal voltage difference with one ``take`` and adds the
finite-difference offsets of :class:`~repro.spice.elements.mosfet.Mosfet`
by broadcasting.  The compact model is elementwise, so each device's
values are bit for bit those of its own model called on its own
points.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.compact.columns import DeviceColumns
from repro.errors import SimulationError, SingularMatrixError
from repro.observe import get_tracer
from repro.spice.netlist import Circuit
from repro.spice.elements.base import GROUND, StampPlan
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.mosfet import Mosfet

#: Leak conductance from every node to ground — keeps cut-off transistor
#: networks non-singular, as real simulators do.
GMIN = 1e-12


def as_runs(x: np.ndarray) -> np.ndarray:
    """``x`` as a (K, n) batch: a 1-D estimate is the batch of one run."""
    return x[None] if x.ndim == 1 else x


def _topology(circuit: Circuit) -> List[Tuple]:
    """What the runs of one batch must share: every element's type, name
    and nodes in circuit order, and each MOSFET's model instance."""
    return [(type(e), e.name, e.nodes,
             id(e.model) if isinstance(e, Mosfet) else None)
            for e in circuit]


def _per_run(rows: List[List[float]]) -> np.ndarray:
    """Per-run value lists as a (values, K) block."""
    return np.array(rows, dtype=float).reshape(len(rows), -1).T


def _array_rows(base: int, parts: Sequence[int], devices: int,
                device: int, layout: Sequence[Tuple[int, int, float]]
                ) -> List[Tuple[int, float]]:
    """(value row, sign) of each of one MOSFET's values: ``layout``
    names (array, part, sign) among the (devices, parts[array], K)
    arrays that follow row ``base``."""
    starts = np.cumsum((base,) + tuple(devices * p for p in parts))
    return [(int(starts[a]) + device * parts[a] + part, sign)
            for a, part, sign in layout]


def _slot(at: Sequence[int], n: int) -> int:
    """The raveled slot of a plan's (row, col) or (row) position."""
    return at[0] * n + at[1] if len(at) == 2 else at[0]


class _Plan(NamedTuple):
    """One assembly's scatter plan: per entry, in write order, its value
    row and sign, and its output slot as ``unit·K + stride·run +
    slot`` of a (K·units)-long output."""

    rows: np.ndarray
    signs: np.ndarray
    slots: np.ndarray
    units: np.ndarray
    strides: np.ndarray
    size: int

    @classmethod
    def of(cls, targets: Sequence[Tuple[List[Tuple[int, int, float]],
                                        int, int]]) -> "_Plan":
        """The plan writing each ``(entries, unit, stride)`` target in
        turn, entries being (slot, value row, sign)."""
        slots, rows, signs, units, strides = np.array(
            [(slot, row, sign, unit, stride)
             for listed, unit, stride in targets
             for slot, row, sign in listed] or np.zeros((0, 5))).T
        return cls(rows.astype(np.intp), signs, slots.astype(np.intp),
                   units.astype(np.intp), strides.astype(np.intp),
                   sum(stride for _, _, stride in targets))

    def flat(self, runs: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       int]:
        """For K = ``runs``: every entry-and-run's position in the raveled
        value rows, its sign, its output position, and the output
        length."""
        run = np.arange(runs)
        gather = self.rows[:, None] * runs + run
        at = ((self.units * runs + self.slots)[:, None]
              + self.strides[:, None] * run)
        return (gather.ravel(), np.repeat(self.signs, runs), at.ravel(),
                self.size * runs)


def _scatter(flat: Tuple, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Every run's raveled output: the value rows of ``blocks``, each
    (rows, K) or (devices, parts..., K), gathered in entry order, signed
    and added up with one ``bincount``."""
    gather, signs, at, size = flat
    values = np.concatenate(blocks, axis=None).take(gather) * signs
    return np.bincount(at, values, size)


class MnaAssembler:
    """Builds linearised MNA systems for a batch of runs.

    Parameters
    ----------
    circuits:
        One circuit, or a sequence of circuits that share their
        elements, nodes and MOSFET model instances (raises
        :class:`~repro.errors.SimulationError` otherwise).  Their
        structure, their resistances and capacitances and their MOSFETs'
        model parameters are read once, here; source waveforms are read
        per ``(time, scale)``.
    """

    def __init__(self, circuits: Union[Circuit, Sequence[Circuit]]):
        self.circuits = ([circuits] if isinstance(circuits, Circuit)
                         else list(circuits))
        if not self.circuits:
            raise SimulationError("an MNA batch needs at least one circuit")
        for circuit in self.circuits:
            circuit.validate()
        circuit = self.circuit = self.circuits[0]
        #: Runs in the batch (K).
        self.n_runs = len(self.circuits)
        topology = _topology(circuit)
        if any(_topology(other) != topology for other in self.circuits[1:]):
            raise SimulationError(
                "the circuits of one batch must share their elements, "
                "nodes and MOSFET model instances")
        self.node_index = circuit.node_index()
        self.branch_index = circuit.branch_index()
        n = self.n_unknowns = circuit.n_unknowns
        self.n_nodes = len(self.node_index)
        #: Sub-batch assemblers made by :meth:`select`.
        self._selections: Dict[Tuple[int, ...], MnaAssembler] = {}
        #: Runs among the whole batch's, whose circuits and last
        #: ``[(time, scale), source rows]`` every sub-batch shares.
        self._columns = np.arange(self.n_runs)
        self._all_circuits = self.circuits
        self._sources_at: List = [None, None]

        elements = list(circuit)
        slots = [tuple(n if node == GROUND else self.node_index[node]
                       for node in e.nodes) for e in elements]
        plans = [e.stamp_plan(tuple(None if s == n else s for s in row),
                              self.branch_index.get(e.name))
                 for e, row in zip(elements, slots)]
        mosfets = [p for p, e in enumerate(elements)
                   if isinstance(e, Mosfet)]
        #: Element positions whose matrix / rhs values and capacitance
        #: are read per batch.
        self._at = {
            "matrix": [p for p, e in enumerate(elements)
                       if not isinstance(e, Mosfet) and e.matrix_values()],
            "rhs": [p for p, e in enumerate(elements)
                    if not isinstance(e, Mosfet) and e.rhs_values(0.0, 1.0)],
            "cap": [p for p, e in enumerate(elements)
                    if isinstance(e, Capacitor)]}
        m, c = len(mosfets), len(self._at["cap"])

        # The values of an assembly are (rows, K) blocks, one column per
        # run.  Static: the linear elements' matrix values, GMIN for
        # every node diagonal (added after every element), the sources'
        # rhs values, then the arrays of ``Mosfet.stamp_static``.
        # Dynamic: the capacitors' charges, their capacitances, then the
        # arrays of ``Mosfet.stamp_dynamic``.  Per target, the entries
        # (slot, value row, sign) in element-and-entry order.
        def count(p: int, target: str) -> int:
            return len(elements[p].matrix_values() if target == "matrix"
                       else elements[p].rhs_values(0.0, 1.0))

        gmin_row = sum(count(p, "matrix") for p in self._at["matrix"])
        row = {"matrix": 0, "rhs": gmin_row + self.n_nodes}
        mosfet_row = row["rhs"] + sum(count(p, "rhs")
                                      for p in self._at["rhs"])
        entries: Dict[str, List[Tuple[int, int, float]]] = {
            target: [] for target in StampPlan._fields}
        for p, plan in enumerate(plans):
            if p in mosfets:
                device = mosfets.index(p)
                for target, plan_entries in zip(StampPlan._fields, plan):
                    static = target in ("matrix", "rhs")
                    rows = _array_rows(
                        mosfet_row if static else 2 * c,
                        Mosfet.static_parts if static
                        else Mosfet.dynamic_parts,
                        m, device, getattr(Mosfet.value_layout, target))
                    entries[target] += [(_slot(at, n),) + rows[k]
                                        for *at, k in plan_entries]
                continue
            if p in self._at["cap"]:
                capacitor = self._at["cap"].index(p)
                for target, base in (("charge", 0), ("cap", c)):
                    entries[target] += [
                        (_slot(at, n), base + capacitor, (1.0, -1.0)[k])
                        for *at, k in getattr(plan, target)]
            for target in ("matrix", "rhs"):
                entries[target] += [(_slot(at, n), row[target] + k, 1.0)
                                    for *at, k in getattr(plan, target)]
                if p in self._at[target]:
                    row[target] += count(p, target)
        entries["matrix"] += [(i * n + i, gmin_row + i, 1.0)
                              for i in range(self.n_nodes)]
        self._plans = (_Plan.of(((entries["matrix"], 0, n * n),
                                 (entries["rhs"], n * n, n))),
                       _Plan.of(((entries["charge"], 0, n),
                                 (entries["cap"], n, n * n))))
        #: Every MOSFET's model parameters, read once here as one
        #: column set in circuit order (None without MOSFETs).
        self._devices = (DeviceColumns([elements[p].model
                                        for p in mosfets])
                         if mosfets else None)
        #: Slots of the (plus, minus) terminals of every voltage the
        #: assembly reads: each MOSFET's vgs, then each MOSFET's vds,
        #: then each capacitor's v1 - v2.
        self._terminals = np.array(
            [[slots[p][1] for p in mosfets] + [slots[p][0] for p in mosfets]
             + [slots[p][0] for p in self._at["cap"]],
             [slots[p][2] for p in mosfets] * 2
             + [slots[p][1] for p in self._at["cap"]]],
            dtype=np.intp).reshape(2, -1)
        self._capacitor_voltages = slice(2 * m, None)
        self._runs()

    def _runs(self) -> None:
        """Per-run constants as (rows, K) blocks, and flat indices."""
        runs = self.n_runs
        self._linear = _per_run(
            [[v for p in self._at["matrix"]
              for v in c.elements[p].matrix_values()] + [GMIN] * self.n_nodes
             for c in self.circuits])
        self._capacitance = _per_run([[c.elements[p].capacitance
                                       for p in self._at["cap"]]
                                      for c in self.circuits])
        self._sources: List = [None, None]
        self._static, self._dynamic = (plan.flat(runs)
                                       for plan in self._plans)
        #: Estimates are extended by one ground column (0 V); the
        #: terminals' positions in the raveled (K, n + 1) extension.
        self._ground = np.zeros((runs, 1))
        self._terminal_at = (self._terminals[..., None]
                             + (self.n_unknowns + 1) * np.arange(runs))
        if self._devices is not None:
            self._wide = tuple(
                self._devices.widened(offsets.shape[2] * runs)
                for offsets in (Mosfet.static_offsets,
                                Mosfet.dynamic_offsets))

    def select(self, runs: Sequence[int]) -> "MnaAssembler":
        """The assembler of the sub-batch ``runs`` — distinct indices
        into this batch, in increasing order — sharing this one's plans
        and device columns.  The whole batch is this assembler itself."""
        if len(runs) == self.n_runs:
            return self
        key = tuple(runs)
        sub = self._selections.get(key)
        if sub is None:
            sub = copy.copy(self)
            sub.n_runs = len(key)
            sub.circuits = [self.circuits[r] for r in key]
            sub.circuit = sub.circuits[0]
            sub._selections = {}
            sub._columns = self._columns[list(key)]
            sub._runs()
            self._selections[key] = sub
        return sub

    def voltages_from(self, x: np.ndarray) -> Dict[str, float]:
        """Node-voltage dict from one run's solution vector."""
        return {node: float(x[i]) for node, i in self.node_index.items()}

    def _batch(self, x: np.ndarray) -> np.ndarray:
        xs = as_runs(x)
        if len(xs) != self.n_runs:
            raise SimulationError(
                f"{len(xs)} estimates for a batch of {self.n_runs} runs")
        return xs

    def _voltages(self, xs: np.ndarray) -> np.ndarray:
        """Every voltage ``_terminals`` names, (rows, K): one gather from
        the estimates extended by the ground column, one subtraction."""
        plus, minus = np.concatenate((xs, self._ground), 1).take(
            self._terminal_at)
        return plus - minus

    def _points(self, voltages: np.ndarray, offsets: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Every MOSFET's nominal (vgs, vds) (2, m, K) from
        :meth:`_voltages`, and its finite-difference points at
        ``offsets`` (2, 1, P, 1) as (2, m, P·K)."""
        m = len(self._devices.models)
        nominal = voltages[:2 * m].reshape(2, m, -1)
        return nominal, (nominal[:, :, None] + offsets).reshape(2, m, -1)

    def _source_values(self, time: float, scale: float) -> np.ndarray:
        """Every source's rhs values in every run at ``(time, scale)``,
        computed for the whole batch once per ``(time, scale)``, and
        this sub-batch's columns of them once per ``(time, scale)``."""
        own = self._sources
        if own[0] != (time, scale):
            memo = self._sources_at
            if memo[0] != (time, scale):
                memo[:] = (time, scale), _per_run(
                    [[v for p in self._at["rhs"]
                      for v in c.elements[p].rhs_values(time, scale)]
                     for c in self._all_circuits])
            own[:] = (time, scale), memo[1][:, self._columns]
        return own[1]

    def assemble_static(self, x: np.ndarray, time: float,
                        scale: float = 1.0
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Linearised static systems ``(A, z)`` at the estimates x, every
        independent source multiplied by ``scale``."""
        xs = self._batch(x)
        runs, n = xs.shape
        blocks: List[np.ndarray] = [self._linear,
                                    self._source_values(time, scale)]
        if self._devices is not None:
            (vgs, vds), points = self._points(
                self._voltages(xs), Mosfet.static_offsets)
            blocks += Mosfet.stamp_static(
                self._devices.models[0].ids_batch(
                    *points, devices=self._wide[0]), vgs, vds)
        system = _scatter(self._static, blocks)
        matrix = system[:runs * n * n].reshape(runs, n, n)
        rhs = system[runs * n * n:].reshape(runs, n)
        return (matrix[0], rhs[0]) if x.ndim == 1 else (matrix, rhs)

    def assemble_dynamic(self, x: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Charge vectors q(x) and capacitance Jacobians C(x) = dq/dx."""
        xs = self._batch(x)
        runs, n = xs.shape
        voltages = self._voltages(xs)
        blocks: List[np.ndarray] = [
            self._capacitance * voltages[self._capacitor_voltages],
            self._capacitance]
        if self._devices is not None:
            _, points = self._points(voltages, Mosfet.dynamic_offsets)
            blocks += Mosfet.stamp_dynamic(
                self._devices.models[0].charges_batch(
                    *points, devices=self._wide[1]))
        system = _scatter(self._dynamic, blocks)
        charge = system[:runs * n].reshape(runs, n)
        cap = system[runs * n:].reshape(runs, n, n)
        return (charge[0], cap[0]) if x.ndim == 1 else (charge, cap)

    def solve_system(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = z for every run: one stacked ``np.linalg.solve``
        on (K, n, n) and (K, n), or on one (n, n) system and its (n,)
        rhs.

        Raises :class:`~repro.errors.SingularMatrixError` (code
        ``spice.singular_matrix``) when a matrix is singular.  Its
        ``runs`` lists the singular rows of the batch and its
        ``solution`` holds every other row's solution, so a solver can
        fail those runs alone.
        """
        single = matrix.ndim == 2
        matrices, rhs = (matrix[None], rhs[None]) if single else (matrix, rhs)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("spice.mna.solves").inc(len(matrices))
        try:
            x = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            error = SingularMatrixError(
                f"singular MNA matrix ({exc}); check for floating "
                f"subcircuits or voltage-source loops")
            error.runs, error.solution = [], np.full_like(rhs, np.nan)
            for r in range(len(matrices)):
                try:
                    error.solution[r] = np.linalg.solve(
                        matrices[r:r + 1], rhs[r:r + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    error.runs.append(r)
            raise error from None
        return x[0] if single else x
