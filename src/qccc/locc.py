"""The LOCC-assisted execution model.

A Protocol is a program of steps over a register: circuit chunks, single-qudit
measurements with fixed bases, and outcome-conditioned local corrections.
One step interpreter runs it under three outcome policies: `run_sampled`
samples one history, `replay` forces a recorded one, and `enumerate_branches`
explores every measurement branch and certifies determinism (all branches
agree up to a global phase and their probabilities sum to 1) plus, if a
target is given, the fidelity to it.

`enumerate_branches` has two engines, chosen before the run. On the tableau,
a program whose corrections all declare a PauliMap (GF(2)-affine Pauli fixes,
from which their fn is derived: GHZ, the toric code, the Choi gadgets) is
certified from one history (the first branch) whose Pauli frame is a
GF(2)-linear function of the r random outcomes, kept as r frame columns:
outcome flips enter as Aaronson-Gottesman destabilizers, and a Correct moves
the columns by one matrix product. That history counts the 2^r records
exactly, so the branch cap is checked right after it; below the cap one GF(2)
product with the record vectors expands every record's outcomes and its final
state, the first branch's with stabilizer signs flipped by its frame. Every
other program runs the depth-first search, one history per leaf.
Both engines score a branch by its final state's `fidelity` to the first
branch's and to the target (1 or 0 on the tableau, where it tests equality),
and one rule gives both verdicts. A target fits the backend that runs: a
PureState on dense states, stabilizer generators on the tableau.

A Correct may declare the outcome tags it reads (`reads`); the teleport fixes
and the fixed-point label alignment do, the GHZ, toric-code and Choi-gadget
corrections do not. On dense states, `enumerate_branches` runs the rest of
the program once for sibling histories that meet after a Correct with `reads`
with equal live outcomes (those read by a later Correct) and states equal up
to phase within MERGE_TOL: the later history reports the earlier one's leaves
under its own prefix. The rows are those of the plain depth-first search,
which is the same protocol with `reads` stripped.

The layer-exact circuit structure of each protocol is kept in a separate
Circuit object for depth accounting and validation; the program may order
commuting operations differently (ancillas created late, measured ancillas
dropped early) to keep dense states small.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import circuits as cx
from . import gates
from .lattice import Lattice
from .stabilizer import _PAULI_CHARS, StabilizerTableau, TableauState, _conjugate_rows
from .statevector import EntryKey, PureState, QuditRegister

DETERMINISM_TOL = 1e-9
DEFAULT_BRANCH_CAP = 2**16
DEFAULT_PROB_FLOOR = 1e-12
MERGE_TOL = 1e-12


class ProtocolError(RuntimeError):
    pass


class BranchCapExceeded(ProtocolError):
    pass


@dataclass
class MeasurementSpec:
    entry: EntryKey
    tag: str
    basis: Optional[np.ndarray] = None  # columns = basis vectors; None = computational
    remove: bool = True

    def __post_init__(self):
        self.entry = (int(self.entry[0]), str(self.entry[1]))


@dataclass
class ApplyLayers:
    layers: List[cx.Layer]


@dataclass
class Measure:
    spec: MeasurementSpec


@dataclass(eq=False)
class PauliMap:
    """A Pauli correction that is GF(2)-affine in the outcome bits: entry e
    gets X^x_e Z^z_e, named X, Y or Z, where (x | z) = matrix @ v + offset
    (mod 2) and v lists the outcome bits of `tags` in order."""

    tags: Tuple[str, ...]
    entries: Tuple[EntryKey, ...]  # distinct single qubits
    matrix: np.ndarray  # (2 * len(entries), len(tags)): the entries' x rows, then their z rows
    offset: Optional[np.ndarray] = None  # (2 * len(entries),); None is zero

    def __post_init__(self):
        self.tags, self.entries = tuple(self.tags), tuple(map(tuple, self.entries))
        shape = (2 * len(self.entries), len(self.tags))
        offset = np.zeros(shape[0]) if self.offset is None else self.offset
        self.matrix, self.offset = (np.asarray(a, dtype=np.uint8) % 2 for a in (self.matrix, offset))
        if len(set(self.entries)) < len(self.entries) or (self.matrix.shape, len(self.offset)) != (shape, shape[0]):
            raise ValueError(f"a Pauli map takes distinct entries, a {shape} matrix and {shape[0]} offset bits")

    def actions(self, outcomes: Dict[str, int]) -> List[cx.LocalAction]:
        """X, Y or Z on each entry whose bits are set, in entry order."""
        v = np.array([outcomes[t] for t in self.tags], dtype=np.uint8)
        bits = ((self.matrix @ v + self.offset) % 2).tolist()  # uint8 sums wrap mod 256, keeping parity
        n = len(self.entries)
        fixes = zip(self.entries, bits[:n], bits[n:])
        return [cx.local_op([e], [(_PAULI_CHARS[x, z], (0,))]) for e, x, z in fixes if x or z]


@dataclass
class Correct:
    """Outcome-conditioned local correction: fn(outcomes) -> list[LocalAction].

    `reads` declares the outcome tags fn reads; fn then sees only those.
    None means it reads every tag. A Correct that declares a `pauli` map
    takes its fn from it, and the tableau certifies it with Pauli frames.
    """

    fn: Optional[Callable[[Dict[str, int]], List[cx.LocalAction]]] = None
    name: str = "correction"
    reads: Optional[FrozenSet[str]] = None
    pauli: Optional[PauliMap] = None

    def __post_init__(self):
        if self.pauli is None and self.fn is None:
            raise ValueError(f"correction {self.name!r} needs fn or a Pauli map")
        if self.pauli is not None:
            reads_tags = self.reads is None or self.reads.issuperset(self.pauli.tags)
            if self.fn not in (None, self.pauli.actions) or not reads_tags:
                raise ValueError(f"correction {self.name!r}: its Pauli map sets fn and reads only `reads`")
            self.fn = self.pauli.actions


Step = Union[ApplyLayers, Measure, Correct]


@dataclass
class OutcomeRecord:
    outcomes: Tuple[Tuple[str, int, float], ...] = ()

    def probability(self) -> float:
        p = 1.0
        for _, _, pk in self.outcomes:
            p *= pk
        return p

    def key(self) -> Tuple[int, ...]:
        return tuple(k for _, k, _ in self.outcomes)


@dataclass
class BranchReport:
    record: OutcomeRecord
    probability: float
    fidelity: float


@dataclass
class EnumerationResult:
    reports: List[BranchReport]
    deterministic: bool
    min_fidelity: float
    max_fidelity: float
    reference: object  # final state of the first branch
    finals: Optional[List[object]] = None  # all branch states when requested
    n_merged: int = 0  # histories absorbed into an equal sibling's subtree
    merge_error: float = 0.0  # sum of their state difference norms
    engine: str = "dfs"  # "frames": one tableau history plus Pauli frames; "dfs": one history per leaf

    @property
    def verdict(self) -> str:
        return "DETERMINISTIC" if self.deterministic else "NOT_DETERMINISTIC"

    def total_probability(self) -> float:
        return sum(r.probability for r in self.reports)


@dataclass
class Protocol:
    name: str
    lattice: Lattice
    register: List[Tuple[int, str, int]]
    program: List[Step]
    circuit: cx.Circuit
    system_entries: List[EntryKey]
    target: Optional[PureState] = None
    target_generators: Optional[list] = None  # PauliStrings over system_entries order
    clifford: bool = False

    def __post_init__(self):
        # single-shot schedule: at most one measurement per qudit
        seen = set()
        for step in self.program:
            if isinstance(step, Measure):
                key = tuple(step.spec.entry)
                if key in seen:
                    raise ProtocolError(f"entry {key} is measured more than once")
                seen.add(key)

    def depth(self) -> int:
        return self.circuit.depth()

    def validate_circuit(self) -> List[cx.Violation]:
        return cx.validate(self.circuit, self.register)


def initial_state(protocol: Protocol, backend: str = "dense"):
    if backend == "dense":
        return PureState.product(QuditRegister(protocol.register))
    if backend == "tableau":
        if not protocol.clifford:
            raise ProtocolError(f"protocol {protocol.name!r} is not Clifford; tableau backend unavailable")
        return TableauState(protocol.register)
    raise ValueError(f"unknown backend {backend!r}")


def _apply_correction(state, actions: List[cx.LocalAction]) -> None:
    for act in actions:
        sites = {s for s, _ in act.entries}
        if act.kind == "op" and len(sites) != 1:
            raise ProtocolError("corrections must be strictly site-local")
    cx.apply_layer(state, cx.LocalLayer(actions))


def _finalize(state, protocol: Protocol):
    """Remove leftover ancillas (must be decoupled) and order the system register."""
    system = [tuple(e) for e in protocol.system_entries]
    leftover = [k for k in (state.register.keys if isinstance(state, PureState) else state.keys) if tuple(k) not in system]
    for k in leftover:
        try:
            state.remove_entry(k)
        except ValueError as exc:
            raise ProtocolError(
                f"ancilla {k} not decoupled at the end of protocol {protocol.name!r}: {exc}"
            ) from exc
    return state.permuted(system)


def _execute(program: Sequence[Step], state, choose, cap: Optional[int] = None, on_correct=None):
    """The step interpreter: run `program` on `state` and yield
    (final state, outcomes, probability) for every history it follows.

    `choose(state, spec, outcomes)` returns the `_measure_step` keyword
    arguments of each outcome to follow at a Measure step: one `rng` to sample,
    one `force` to replay, or one `force` per live outcome to enumerate. Every
    outcome but the last runs on a clone; the last, and a single one, reuse
    the state, so single-history policies mutate `state` in place. Pending
    outcomes wait on an explicit stack and are visited depth-first in order.

    After each Correct, `on_correct(state, j, step, outcomes, prob)` sees the
    history at position j, just past the Correct `step`. It may absorb the
    history: it returns the number of rows it reported for it, and the
    history stops there; None lets it go on.

    Every pending outcome yields at least one history, so the histories
    finished, pending and in progress bound the total from below; with a
    `cap`, BranchCapExceeded is raised as soon as that bound exceeds it.
    """
    stack = [(state, 0, (), 1.0, None)]
    histories = 1
    if cap is not None and cap < histories:
        raise BranchCapExceeded(f"more than {cap} branches")
    while stack:
        state, j, outcomes, prob, options = stack.pop()
        while j < len(program):
            step = program[j]
            if isinstance(step, ApplyLayers):
                for layer in step.layers:
                    cx.apply_layer(state, layer)
            elif isinstance(step, Measure):
                spec = step.spec
                if options is None:
                    options = choose(state, spec, outcomes)
                    if not options:  # every outcome is below the probability floor
                        histories -= 1
                        break
                    histories += len(options) - 1
                    if cap is not None and histories > cap:
                        raise BranchCapExceeded(f"more than {cap} branches")
                if len(options) > 1:
                    stack.append((state, j, outcomes, prob, options[1:]))
                    state = state.clone()
                k, p = _measure_step(state, spec, **options[0])
                options = None
                outcomes += ((spec.tag, int(k), float(p)),)
                prob *= p
            elif isinstance(step, Correct):
                reads = step.reads
                seen = {t: k for t, k, _ in outcomes if reads is None or t in reads}
                _apply_correction(state, step.fn(seen))
                if on_correct is not None:
                    rows = on_correct(state, j + 1, step, outcomes, prob)
                    if rows is not None:
                        histories += rows - 1
                        if cap is not None and histories > cap:
                            raise BranchCapExceeded(f"more than {cap} branches")
                        break
            else:
                raise TypeError(f"unknown step {step!r}")
            j += 1
        else:
            yield state, outcomes, prob


def _measure_step(state, spec: MeasurementSpec, force=None, rng=None):
    if spec.remove and hasattr(state, "measure_remove"):
        return state.measure_remove(spec.entry, basis=spec.basis, force=force, rng=rng)
    k, p = state.measure(spec.entry, basis=spec.basis, force=force, rng=rng)
    if spec.remove:
        state.remove_entry(spec.entry)
    return k, p


def _sample(rng: np.random.Generator):
    return lambda state, spec, outcomes: ({"rng": rng},)


def _force(record: OutcomeRecord):
    def choose(state, spec, outcomes):
        i = len(outcomes)
        if i >= len(record.outcomes) or record.outcomes[i][0] != spec.tag:
            raise ProtocolError("record does not match protocol schedule")
        return ({"force": record.outcomes[i][1]},)

    return choose


def _start(protocol: Protocol, backend: str, input_state):
    return input_state.clone() if input_state is not None else initial_state(protocol, backend)


def _run_one(protocol: Protocol, choose, backend: str, input_state) -> Tuple[object, OutcomeRecord]:
    state, outcomes, _ = next(_execute(protocol.program, _start(protocol, backend, input_state), choose))
    return _finalize(state, protocol), OutcomeRecord(outcomes)


def run_sampled(
    protocol: Protocol,
    seed: int,
    backend: str = "dense",
    input_state=None,
) -> Tuple[object, OutcomeRecord]:
    """Execute one sampled history; returns (final system state, record)."""
    return _run_one(protocol, _sample(np.random.default_rng(seed)), backend, input_state)


def replay(
    protocol: Protocol,
    record: OutcomeRecord,
    backend: str = "dense",
    input_state=None,
) -> Tuple[object, OutcomeRecord]:
    """Re-run the branch of a recorded history by forcing its outcomes."""
    return _run_one(protocol, _force(record), backend, input_state)


def enumerate_branches(
    protocol: Protocol,
    backend: str = "dense",
    prob_floor: float = DEFAULT_PROB_FLOOR,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    input_state=None,
    target: Optional[object] = "protocol",
    keep_states: bool = False,
) -> EnumerationResult:
    """Every measurement branch above prob_floor, with its probability and fidelity.

    Branch fidelity is measured against the protocol target when one exists,
    otherwise against the first branch. The DETERMINISTIC verdict additionally
    requires all branches to agree with the first branch up to global phase
    and their probabilities to sum to 1 within DETERMINISM_TOL.

    A tableau program whose corrections all declare a Pauli map is certified
    by `_enumerate_frames` (engine "frames"): one history and r frame
    columns, one per random outcome, with BranchCapExceeded raised as soon as
    that history has counted its 2^r records. Any other program, and every
    dense one, runs through the depth-first search `_enumerate_dfs` (engine
    "dfs"). The engine is chosen before the run; both report the same rows in
    the same order, and `_result` gives both verdicts. A target that does not
    fit the backend (see `_resolve_target`) raises ValueError before the run.
    """
    tableau = isinstance(input_state, TableauState) if input_state is not None else backend == "tableau"
    declared = all(step.pauli is not None for step in protocol.program if isinstance(step, Correct))
    if tableau and prob_floor < 0.5 and declared:
        start = _start(protocol, backend, input_state)
        return _enumerate_frames(protocol, start, branch_cap, _resolve_target(protocol, start, target), keep_states)
    return _enumerate_dfs(protocol, backend, prob_floor, branch_cap, input_state, target, keep_states)


def _resolve_target(protocol: Protocol, start, target):
    """The target on the backend of `start`: a PureState on dense states, a
    TableauState over `system_entries` built from stabilizer generators on the
    tableau, or None."""
    tableau = isinstance(start, TableauState)
    if target == "protocol":
        target = protocol.target_generators if tableau else protocol.target
    if target is not None and isinstance(target, PureState) == tableau:
        want = "stabilizer generators" if tableau else "a PureState"
        raise ValueError(f"the {'tableau' if tableau else 'dense'} backend takes a target as {want}")
    if target is None or not tableau:
        return target
    gens = list(target)
    if len(gens) != len(protocol.system_entries):
        raise ValueError(f"{len(gens)} target generators for {len(protocol.system_entries)} system entries")
    state = TableauState([(site, slot, 2) for site, slot in protocol.system_entries])
    state.tab = StabilizerTableau.from_generators(gens)
    return state


def _result(reports, agree, reference, finals, engine: str, n_merged=0, merge_error=0.0) -> EnumerationResult:
    """The one verdict: DETERMINISTIC when every branch agrees with the first
    (`agree`), the probabilities sum to 1 and every merged row is exact, each
    within DETERMINISM_TOL."""
    fids = [r.fidelity for r in reports]
    mass = sum(r.probability for r in reports)
    deterministic = bool(agree) and abs(1.0 - mass) <= DETERMINISM_TOL and 2 * merge_error <= DETERMINISM_TOL
    return EnumerationResult(
        reports, deterministic, min(fids), max(fids), reference, finals, n_merged, merge_error, engine
    )


def _enumerate_dfs(
    protocol: Protocol,
    backend: str = "dense",
    prob_floor: float = DEFAULT_PROB_FLOOR,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    input_state=None,
    target: Optional[object] = "protocol",
    keep_states: bool = False,
) -> EnumerationResult:
    """`enumerate_branches` by depth-first exploration: one history per leaf.

    Dense histories that meet at a merge point (see `_merge_points`) with the
    same live outcomes and states equal up to phase within MERGE_TOL run the
    rest of the program once: the later one reports the first one's leaves
    under its own prefix and probability. The report lists the same rows in
    the same order as the plain DFS, which is the protocol with `reads`
    stripped; 2 * merge_error bounds the fidelity error of a derived row.
    """
    start = _start(protocol, backend, input_state)
    target = _resolve_target(protocol, start, target)

    def live(state, spec, outcomes):
        probs = state.branch_probabilities(spec.entry, spec.basis)
        return [{"force": k} for k, p in enumerate(probs) if p > prob_floor]

    reports: List[BranchReport] = []
    finals: List[object] = []
    reference = None
    agree = True
    # merge points lie just past Corrects with `reads`, so one without never merges
    points = _merge_points(protocol.program) if isinstance(start, PureState) else {}
    # (position, live outcomes) -> [register, amplitudes, outcomes, first row, end row]
    memo: Dict[tuple, list] = {}
    n_merged, merge_error = 0, 0.0

    def merge(state, j, step, outcomes, prob):
        nonlocal n_merged, merge_error
        if j not in points:
            return None
        key = (j, tuple((t, k) for t, k, _ in outcomes if t in points[j]))
        amps = state.amps
        seen = memo.get(key)
        if seen is None:
            memo[key] = [state.register, amps, outcomes, len(reports), None]
            return None
        register, stored, prefix, first, end = seen
        if state.register != register:
            return None
        overlap = np.vdot(stored, amps)
        if overlap == 0:
            return None
        err = float(np.linalg.norm(amps - (overlap / abs(overlap)) * stored))
        if err > MERGE_TOL:
            return None
        n = len(outcomes)
        if end is None:
            # the stack is LIFO, so the stored history's subtree is finished
            # before any history outside it gets here: its rows are complete
            # and run contiguously from `first`
            end = first
            while end < len(reports) and reports[end].record.outcomes[:n] == prefix:
                end += 1
            seen[4] = end
        if len(reports) + end - first > branch_cap:
            raise BranchCapExceeded(f"more than {branch_cap} branches")
        for rep in reports[first:end]:
            suffix = rep.record.outcomes[n:]
            p = prob
            for _, _, pk in suffix:
                p *= pk
            reports.append(BranchReport(OutcomeRecord(outcomes + suffix), p, rep.fidelity))
        if keep_states:
            finals.extend(finals[first:end])
        n_merged += 1
        merge_error += err
        return end - first

    for state, outcomes, prob in _execute(protocol.program, start, live, branch_cap, merge):
        final = _finalize(state, protocol)
        if reference is None:
            reference = final
        agree_first = final.fidelity(reference)
        agree = agree and agree_first >= 1.0 - DETERMINISM_TOL
        fid = agree_first if target is None else final.fidelity(target)
        reports.append(BranchReport(OutcomeRecord(outcomes), prob, fid))
        if keep_states:
            finals.append(final)
    if not reports:
        raise ProtocolError(f"no branch of {protocol.name!r} lies above prob_floor={prob_floor}")
    return _result(reports, agree, reference, finals if keep_states else None, "dfs", n_merged, merge_error)


class _FramedTableau(TableauState):
    """The reference history of a Clifford program, with its Pauli frames kept
    as GF(2)-linear functions of the random outcomes, one frame column per
    random outcome: the Aaronson-Gottesman flip applied the way Stim's frame
    simulator applies it (Gidney, arXiv:2103.02202).

    The tableau follows the history that takes outcome 0 at every random
    measurement. A record is the vector v of its r random outcomes, and its
    state is F(v) |reference> up to phase, F(v) the sum of the columns i of
    `fx`/`fz` (qubit-major, shape (n, r)) with v_i = 1. Row t of `forms`
    (shape (m, 1 + r)) is measurement t's outcome as an affine form
    [reference bit | linear part]. Frame phases are not kept: F only moves
    stabilizer signs, which its bits fix.
    """

    def __init__(self, state: TableauState):
        self.keys, self.tab = state.keys, state.tab
        self.fx = np.zeros((self.tab.n, 0), dtype=np.uint8)
        self.fz = np.zeros_like(self.fx)
        self.forms = np.zeros((0, 1), dtype=np.uint8)

    def apply_named(self, name: str, entries) -> "_FramedTableau":
        qubits = [self.index(e) for e in entries]
        self.tab.apply_gate(name, *qubits)
        _conjugate_rows(self.fx.T, self.fz.T, np.zeros(self.fx.shape[1], dtype=np.uint8), name, qubits)
        return self

    def add_entry(self, site: int, slot: str, dim: int = 2, local_state=None) -> "_FramedTableau":
        super().add_entry(site, slot, dim, local_state)
        self.fx, self.fz = (np.vstack([f, np.zeros(f.shape[1], dtype=np.uint8)]) for f in (self.fx, self.fz))
        return self

    def remove_entry(self, entry) -> "_FramedTableau":
        q = self.index(entry)
        super().remove_entry(entry)
        self.fx, self.fz = (np.delete(f, q, axis=0) for f in (self.fx, self.fz))
        return self

    def measure(self, entry, basis=None, force=None, rng=None):
        """Measure Z on the reference, taking outcome 0 when it is random.

        A record reads the reference bit XOR x_q of its frame. A random
        measurement adds a variable t, the record's outcome; where t XOR x_q(F)
        is 1 the frame takes the flip Pauli D, the old stabilizer that
        anticommuted with Z_q, which `measure_pauli` leaves in the pivot's
        destabilizer row. So the columns gain D (e_t + x_q(F)).
        """
        q = self.index(entry)
        anti = np.flatnonzero(self.tab.x[self.tab.n :, q])
        if basis is not None or anti.size == 0:
            bit, p = super().measure(entry, basis)
            self.forms = np.vstack([self.forms, np.hstack([np.uint8(bit), self.fx[q]])])
            return bit, p
        bit, p = super().measure(entry, force=0)
        self.fx, self.fz, self.forms = (
            np.hstack([f, np.zeros((len(f), 1), dtype=np.uint8)]) for f in (self.fx, self.fz, self.forms)
        )
        e_t = np.zeros(self.forms.shape[1], dtype=np.uint8)
        e_t[-1] = 1
        self.forms = np.vstack([self.forms, e_t])
        flip = e_t[1:] ^ self.fx[q]
        d = int(anti[0])
        self.fx ^= self.tab.x[d][:, None] & flip
        self.fz ^= self.tab.z[d][:, None] & flip
        return bit, p

    def correct(self, j: int, step: Correct, outcomes, prob) -> None:
        """The `_execute` hook after a Correct (passed unbound, so `self` is the
        state): the reference took the map's Pauli at its own bits c, and
        record v reads c + L v, L the linear parts of the forms of the step's
        tags; so the columns gain M L, M the step's declared matrix, and the
        offset and c cancel."""
        pauli = step.pauli
        row = {t: i for i, (t, _, _) in enumerate(outcomes)}
        # uint8 sums wrap modulo 256, which keeps their parity
        flips = (pauli.matrix @ self.forms[[row[t] for t in pauli.tags], 1:]) % 2
        qubits, n = [self.index(e) for e in pauli.entries], len(pauli.entries)
        self.fx[qubits] ^= flips[:n]
        self.fz[qubits] ^= flips[n:]


def _enumerate_frames(
    protocol: Protocol, start: TableauState, branch_cap: int, target, keep_states: bool
) -> EnumerationResult:
    """`enumerate_branches` from one tableau history and its affine Pauli frames.

    Every record has probability 2^-r (deterministic steps contribute 1). The
    records are the vectors v in GF(2)^r in depth-first order: binary
    counting, first variable most significant. Record v's outcomes are its
    forms at v, and its final state is F(v) |reference>: the reference's
    canonical rows c_j with signs flipped by the symplectic products
    <F(v), c_j>, linear in v. So one GF(2) product of the record vectors with
    the forms' linear parts and the columns' products expands every row. A
    record agrees with the first branch iff every product is 0, and matches a
    target with the reference's bits iff the products equal the sign
    differences.
    """
    framed = _FramedTableau(start)
    history = _execute(protocol.program, framed, lambda *_: ({},), on_correct=_FramedTableau.correct)
    _, outcomes, prob = next(history)
    r, m = framed.fx.shape[1], len(outcomes)
    if 2**r > branch_cap:
        raise BranchCapExceeded(f"more than {branch_cap} branches: {2**r} records")
    reference = _finalize(framed, protocol)
    order = [framed.index(k) for k in reference.keys]
    fx, fz = framed.fx[order], framed.fz[order]
    tab, n = reference.tab, reference.tab.n
    rows, signs = tab._canonical_rows()
    # the canonical rows, then (for the finals) every tableau row
    paulis = np.concatenate([rows, np.concatenate([tab.x, tab.z], axis=1)] if keep_states else [rows])
    linear = np.concatenate([framed.forms[:, 1:], (paulis[:, n:] @ fx + paulis[:, :n] @ fz)]).T
    records = ((np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1)) & 1).astype(np.uint8)
    # uint8 sums and products wrap modulo 256, which keeps their parity
    expanded = (records @ linear) % 2
    bits, flips = expanded[:, :m] ^ framed.forms[:, 0], expanded[:, m : m + n]
    agree = ~flips.any(axis=1)
    if target is None:
        fids = agree.astype(float)
    else:
        target_rows, target_signs = target.tab._canonical_rows()
        diff = (target_signs - signs) % 4
        same = np.array_equal(rows, target_rows) and not np.any(diff % 2)
        fids = ((flips == diff // 2).all(axis=1) & same).astype(float)
    choices = [((t, 0, p), (t, 1, p)) for t, _, p in outcomes]
    reports = [
        BranchReport(OutcomeRecord(tuple(map(operator.getitem, choices, ks))), prob, fid)
        for ks, fid in zip(bits.tolist(), fids.tolist())
    ]
    finals = None
    if keep_states:
        finals = []
        for row in expanded[:, m + n :]:
            final = reference.clone()
            final.tab.r = ((tab.r + 2 * row) % 4).astype(np.uint8)
            finals.append(final)
    return _result(reports, agree.all(), reference, finals, "frames")


def _merge_points(program: Sequence[Step]) -> Dict[int, FrozenSet[str]]:
    """Map the position after each Correct with `reads` to its live tags, the
    tags read by every later Correct; a position with a Correct without `reads`
    after it reads everything, so it is no merge point."""
    points: Dict[int, FrozenSet[str]] = {}
    live: Optional[FrozenSet[str]] = frozenset()
    for j in reversed(range(len(program))):
        step = program[j]
        if isinstance(step, Correct):
            if step.reads is None:
                live = None
            elif live is not None:
                points[j + 1] = live
                live = live | step.reads
    return points


# -- teleportation ------------------------------------------------------------------


def bell_rotation_ops(source: EntryKey, partner: EntryKey, d: int) -> List[cx.LocalAction]:
    """Rotate the generalized Bell basis of (source, partner) to the computational one.

    The Bell state (X^a Z^b x 1)|Phi+> is mapped to |b>_source |(-a) mod d>_partner,
    so computational outcomes (m_s, m_p) identify a = -m_p mod d and b = m_s.
    """
    if d == 2:
        return [
            cx.local_op([source, partner], [("CNOT", (0, 1)), ("H", (0,))]),
        ]
    rot = np.kron(gates.fourier(d).conj().T, np.eye(d)) @ gates.cnot_d(d)
    return [cx.local_op([source, partner], rot)]


def bell_outcome_to_pauli(m_source: int, m_partner: int, d: int) -> Tuple[int, int]:
    """(a, b) of the measured Bell state from raw computational outcomes."""
    return (-m_partner) % d, m_source % d


def teleport_correction(target: EntryKey, a: int, b: int, d: int) -> List[cx.LocalAction]:
    """Pauli-frame fix X^a Z^b on the receiving qudit."""
    if d == 2:
        ops = []
        if b:
            ops.append(("Z", (0,)))
        if a:
            ops.append(("X", (0,)))
        return [cx.local_op([target], ops)] if ops else []
    return [cx.local_op([target], gates.shift_x(d, a) @ np.linalg.matrix_power(gates.clock_z(d), b))]


def teleport(
    state: PureState,
    source: EntryKey,
    pair: Tuple[EntryKey, EntryKey],
    d: int,
    rng: Optional[np.random.Generator] = None,
    force: Optional[Tuple[int, int]] = None,
    tol: float = 1e-9,
) -> PureState:
    """Teleport the quantum content of `source` onto pair[1] (in place).

    pair must hold the maximally entangled state sum_k |kk>/sqrt(d); source
    and pair[0] are measured and removed.
    """
    e1, e2 = pair
    for e in (source, e1, e2):
        if state.register.dim(e) != d:
            raise ValueError(f"entry {e} does not have dimension {d}")
    if source[0] != e1[0]:
        raise ProtocolError("source and pair[0] must share a site")
    rho = state.reduced_density([e1, e2])
    bell = gates.bell_state(d)
    if abs(np.vdot(bell, rho @ bell) - 1.0) > tol:
        raise ValueError("pair entries do not hold the maximally entangled state")
    if force is not None:
        choose = _force(OutcomeRecord((("ts", force[0], 0.0), ("tp", force[1], 0.0))))
    else:
        choose = _sample(rng if rng is not None else np.random.default_rng(0))
    next(_execute(_teleport_steps(source, e1, e2, d, "t"), state, choose))
    return state


def _teleport_steps(source: EntryKey, partner: EntryKey, target: EntryKey, d: int, tag: str) -> List[Step]:
    """Bell-rotate two co-located qudits, measure them, fix the receiver."""

    def fix(outcomes: Dict[str, int]) -> List[cx.LocalAction]:
        a, b = bell_outcome_to_pauli(outcomes[f"{tag}s"], outcomes[f"{tag}p"], d)
        return teleport_correction(target, a, b, d)

    return [
        ApplyLayers([cx.LocalLayer(bell_rotation_ops(source, partner, d))]),
        Measure(MeasurementSpec(source, f"{tag}s")),
        Measure(MeasurementSpec(partner, f"{tag}p")),
        Correct(fix, f"teleport fix {tag}", frozenset({f"{tag}s", f"{tag}p"})),
    ]


# -- channels ------------------------------------------------------------------------


@dataclass
class Ensemble:
    """Probability-weighted pure branches over a common register."""

    branches: List[Tuple[float, PureState]]

    def density_matrix(self) -> np.ndarray:
        dim = self.branches[0][1].register.total_dim
        rho = np.zeros((dim, dim), dtype=complex)
        for p, st in self.branches:
            rho += p * np.outer(st.amps, st.amps.conj())
        return rho

    def trace_distance_to_pure(self, target: PureState) -> float:
        """|| sigma - |t><t| ||_1 computed in the span of the branches and target."""
        vecs = [target.amps] + [st.amps for _, st in self.branches]
        basis: List[np.ndarray] = []
        for v in vecs:
            w = v.astype(complex).copy()
            for b in basis:
                w -= np.vdot(b, w) * b
            nw = np.linalg.norm(w)
            if nw > 1e-12:
                basis.append(w / nw)
        r = len(basis)
        coeff = np.array([[np.vdot(b, v) for b in basis] for v in vecs])  # vec x basis
        sigma = np.zeros((r, r), dtype=complex)
        for (p, _), c in zip(self.branches, coeff[1:]):
            sigma += p * np.outer(c, c.conj())
        t = coeff[0]
        diff = sigma - np.outer(t, t.conj())
        eig = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
        return float(np.sum(np.abs(eig)))


class Channel:
    """The quantum channel induced by a protocol (ancillas traced out)."""

    def __init__(self, protocol: Protocol, prob_floor: float = DEFAULT_PROB_FLOOR, branch_cap: int = DEFAULT_BRANCH_CAP):
        self.protocol = protocol
        self.prob_floor = prob_floor
        self.branch_cap = branch_cap

    def apply(self, input_state: Optional[PureState] = None) -> Ensemble:
        res = enumerate_branches(
            self.protocol,
            backend="dense",
            prob_floor=self.prob_floor,
            branch_cap=self.branch_cap,
            input_state=input_state,
            target=None,
            keep_states=True,
        )
        return Ensemble([(rep.probability, st) for rep, st in zip(res.reports, res.finals)])

    def then(self, other: "Channel") -> "ComposedChannel":
        return ComposedChannel([self, other])


class ComposedChannel:
    def __init__(self, channels: List[Channel]):
        self.channels = channels

    def apply(self, input_state: Optional[PureState] = None) -> Ensemble:
        ensembles = [(1.0, input_state)]
        for ch in self.channels:
            new: List[Tuple[float, Optional[PureState]]] = []
            for p, st in ensembles:
                out = ch.apply(st)
                for q, branch in out.branches:
                    new.append((p * q, branch))
            ensembles = new
        return Ensemble([(p, st) for p, st in ensembles])

    def then(self, other: Channel) -> "ComposedChannel":
        return ComposedChannel(self.channels + [other])


def as_channel(protocol: Protocol, **kw) -> Channel:
    return Channel(protocol, **kw)
