"""The LOCC-assisted execution model.

A Protocol is a program of steps over a register: circuit chunks, single-qudit
measurements with fixed bases, and outcome-conditioned local corrections.
One step interpreter runs it under three outcome policies: `run_sampled`
samples one history, `replay` forces a recorded one, and `enumerate_branches`
explores every measurement branch and certifies determinism (all branches
agree up to a global phase and their probabilities sum to 1) plus, if a
target is given, the fidelity to it.

Every correction is a Pauli by-product fix: a Correct holds a PauliMap, which
gives each entry it touches X^x Z^z with (x | z) affine over Z_d in the
outcomes of the tags it reads (the teleport fix X^a Z^b, the fixed-point
label alignment, the GHZ parity string, the toric-code sign fix, the Choi
gadgets' frames). The map is all the engines and the round splitter read of
it: its tags, its entries and its matrix.

`enumerate_branches` certifies a program from one history where it can
(engine "frames"), so the branch cap is checked right after it. On the
tableau, that history takes outcome 0 at every random measurement, and its
Pauli frame is a GF(2)-linear function of the r random outcomes, kept as r
frame columns: outcome flips enter as Aaronson-Gottesman destabilizers, and
a Correct moves the columns by one matrix product; one GF(2) product with
the record vectors then expands every record's outcomes and final state. On
dense states, each random outcome's slice, moved by the by-product that the
next Correct declares for it, must equal outcome 0's; then every record ends
in the history's state (`_enumerate_dense_frames`). Any other program runs
the depth-first search, one history per leaf, which the tests take as the
oracle. Every engine scores a branch by its final state's `fidelity` to the
first branch's and to the target (1 or 0 on the tableau, where it tests
equality), gives its verdict by one rule and writes its rows straight into
arrays (`BranchRows`), which build a BranchReport only for a row that is
read, and which the CLI writes from. A target fits the backend that runs: a
PureState on dense states, stabilizer generators on the tableau.

A protocol's depth is read from its program: `Protocol.schedule` packs the
gates of its ApplyLayers steps into site-disjoint layers (`cx.schedule`), so
the program may order commuting operations for a small dense state (ancillas
created late, measured ancillas dropped early) at no cost in depth. A gate
that depends on a correction starts a new quantum round (`Protocol.rounds`):
one on an entry of its map, or joined to one by local actions.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import circuits as cx
from . import gates
from .lattice import Lattice
from .stabilizer import _PAULI_CHARS, StabilizerTableau, TableauState, _conjugate_rows
from .statevector import EntryKey, ProtocolError, PureState, QuditRegister

DETERMINISM_TOL = 1e-9
DEFAULT_BRANCH_CAP = 2**16
DEFAULT_PROB_FLOOR = 1e-12
BYPRODUCT_TOL = 1e-12  # the by-product check's residual, on normalised states


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
    """A Pauli correction that is affine over Z_d in the outcomes: entry e
    gets X^x_e Z^z_e (Z first; on qubits named X, Y or Z), where
    (x | z) = matrix @ v + offset (mod d) and v lists the outcomes of `tags`
    in order."""

    tags: Tuple[str, ...]
    entries: Tuple[EntryKey, ...]  # distinct single qudits of dimension d
    matrix: np.ndarray  # (2 * len(entries), len(tags)): the entries' x rows, then their z rows
    offset: Optional[np.ndarray] = None  # (2 * len(entries),); None is zero
    d: int = 2

    def __post_init__(self):
        self.tags, self.entries = tuple(self.tags), tuple(map(tuple, self.entries))
        shape = (2 * len(self.entries), len(self.tags))
        raw = [np.asarray(a) for a in (self.matrix, np.zeros(shape[0]) if self.offset is None else self.offset)]
        if not all(np.array_equal(a, np.round(a)) for a in raw):
            raise ValueError("a Pauli map takes integer matrix and offset entries")
        self.matrix, self.offset = (a.astype(np.int64) % self.d for a in raw)
        if len(set(self.entries)) < len(self.entries) or (self.matrix.shape, len(self.offset)) != (shape, shape[0]):
            raise ValueError(f"a Pauli map takes distinct entries, a {shape} matrix and {shape[0]} offsets")

    def paulis(self, outcomes: Dict[str, int]) -> List[Tuple[EntryKey, int, int]]:
        """(entry, x, z) for each entry with x or z nonzero, in entry order."""
        v = np.array([outcomes[t] for t in self.tags], dtype=np.int64)
        powers = ((self.matrix @ v + self.offset) % self.d).tolist()
        n = len(self.entries)
        return [(e, x, z) for e, x, z in zip(self.entries, powers[:n], powers[n:]) if x or z]


@dataclass
class Correct:
    """An outcome-conditioned Pauli correction: the map's Pauli at the
    outcomes of its tags. It reads those tags and acts on the map's entries."""

    pauli: PauliMap
    name: str = "correction"


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


@dataclass(eq=False)
class BranchRows:
    """Every branch's row as arrays, in depth-first order, and a read-only
    sequence of BranchReports, each built when it is read. Row i has the
    outcomes `outcomes[i]` (one column per tag, in a type wide enough for
    each) with their probabilities, and its probability and fidelity."""

    tags: Tuple[str, ...]
    outcomes: np.ndarray  # (rows, m)
    outcome_probs: np.ndarray  # (rows, m)
    probabilities: np.ndarray  # (rows,)
    fidelities: np.ndarray  # (rows,)

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, i):
        reports = self._reports(i if isinstance(i, slice) else [i])  # numpy raises IndexError past the end
        return list(reports) if isinstance(i, slice) else next(reports)

    def __iter__(self):
        return self._reports(slice(None))

    def _reports(self, picked):
        columns = (self.outcomes, self.outcome_probs, self.probabilities, self.fidelities)
        report = lambda ks, ps, p, f: BranchReport(OutcomeRecord(tuple(zip(self.tags, ks, ps))), p, f)
        return map(report, *(a[picked].tolist() for a in columns))


@dataclass
class EnumerationResult:
    """The certificate of `enumerate_branches`. `reports` holds the rows as
    arrays (a BranchRows); it builds a BranchReport for each row read."""

    reports: BranchRows
    deterministic: bool
    min_fidelity: float
    max_fidelity: float
    reference: object  # final state of the first branch
    finals: Optional[List[object]] = None  # all branch states when requested
    engine: str = "dfs"  # "frames": one history, its random outcomes checked or framed; "dfs": one history per leaf

    @property
    def verdict(self) -> str:
        return "DETERMINISTIC" if self.deterministic else "NOT_DETERMINISTIC"

    def total_probability(self) -> float:
        """The rows' probabilities summed left to right, as `sum` did before 3.12."""
        return float(np.cumsum(self.reports.probabilities)[-1])


@dataclass
class Protocol:
    name: str
    lattice: Lattice
    register: List[Tuple[int, str, int]]
    program: List[Step]
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

    def rounds(self) -> List[cx.Circuit]:
        """The program's gates and local actions (not its measurements and
        corrections) split into quantum rounds, each packed by `cx.schedule`.
        A gate joins round r + 1 when an entry of it depends on the LOCC after
        round r, directly or through local actions that joined it to one."""
        # an entry's level is 2r - 1 after a gate of round r, 2r after the LOCC
        # that follows; local actions share their highest level, gates go odd
        level: Dict[EntryKey, int] = {}
        measured: Dict[str, int] = {}  # tag -> level of its measurement
        split: List[List[cx.Layer]] = []
        at = lambda entries: max([0] + [level.get(e, 0) for e in entries])
        for step in self.program:
            if isinstance(step, ApplyLayers):
                for layer in step.layers:
                    gate = isinstance(layer, cx.GateLayer)
                    parts: Dict[int, list] = {}
                    for item in layer.gates if gate else layer.actions:
                        lvl = at(item.entries) | gate
                        level.update(dict.fromkeys(item.entries, lvl))
                        parts.setdefault(lvl // 2, []).append(item)
                    for r, items in parts.items():
                        split += [[] for _ in range(r + 1 - len(split))]
                        split[r].append(type(layer)(items))
            elif isinstance(step, Measure):
                level[step.spec.entry] = measured[step.spec.tag] = max(2, at([step.spec.entry]) + 1 & ~1)
            else:
                lvl = max([2, at(step.pauli.entries)] + [measured.get(t, 0) for t in step.pauli.tags])
                lvl += lvl & 1
                level.update(dict.fromkeys(step.pauli.entries, lvl))
        if len(split) > 1 and not any(isinstance(layer, cx.GateLayer) for layer in split[-1]):
            split[-2:] = [split[-2] + split[-1]]  # trailing local actions join the last round
        return [cx.schedule(self.lattice, layers) for layers in split]

    def schedule(self) -> cx.Circuit:
        """The rounds' circuits, one after the other."""
        return cx.Circuit(self.lattice, [layer for c in self.rounds() for layer in c.layers])

    def depth(self) -> int:
        return self.schedule().depth()

    def validate_circuit(self) -> List[cx.Violation]:
        return cx.validate(self.schedule(), self.register)


def initial_state(protocol: Protocol, backend: str = "dense"):
    if backend == "dense":
        return PureState.product(QuditRegister(protocol.register))
    if backend == "tableau":
        if not protocol.clifford:
            raise ProtocolError(f"protocol {protocol.name!r} is not Clifford; tableau backend unavailable")
        return TableauState(protocol.register)
    raise ValueError(f"unknown backend {backend!r}")


def _apply_correction(state, pauli: PauliMap, outcomes) -> None:
    """The map's Pauli at `outcomes`, (tag, k, p) triples: on a dense state in
    one `apply_paulis`, on the tableau (qubits only) one named Pauli per
    entry, after which a `_FramedTableau` moves its frame columns."""
    paulis = pauli.paulis({t: k for t, k, _ in outcomes})
    if isinstance(state, PureState):
        state.apply_paulis(paulis, pauli.d)
    elif pauli.d != 2:
        raise ProtocolError(f"the tableau takes Pauli maps over Z_2, not Z_{pauli.d}")
    else:
        for e, x, z in paulis:
            state.apply_named(_PAULI_CHARS[x, z], [e])
        if isinstance(state, _FramedTableau):
            state.correct(pauli, outcomes)


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


def _execute(program: Sequence[Step], state, choose, cap: Optional[int] = None):
    """The step interpreter: run `program` on `state` and yield
    (final state, outcomes, probability) for every history it follows.

    `choose(state, spec, outcomes)` returns the `_measure_step` keyword
    arguments of each outcome to follow at a Measure step: one `rng` to sample,
    one `force` to replay, or one `force` per live outcome to enumerate, with
    its probability `p` on a dense state. Every outcome but the last runs on a
    clone; the last, and a single one, reuse the state, so single-history
    policies mutate `state` in place. Pending outcomes wait on an explicit
    stack and are visited depth-first in order.

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
                _apply_correction(state, step.pauli, outcomes)
            else:
                raise TypeError(f"unknown step {step!r}")
            j += 1
        else:
            yield state, outcomes, prob


def _measure_step(state, spec: MeasurementSpec, **options):
    if spec.remove and hasattr(state, "measure_remove"):
        return state.measure_remove(spec.entry, basis=spec.basis, **options)
    k, p = state.measure(spec.entry, basis=spec.basis, **options)
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

    Engine "frames" certifies from one history and raises BranchCapExceeded
    right after it: `_enumerate_frames` on the tableau below a floor of 0.5,
    `_enumerate_dense_frames` on dense states. The depth-first search
    `_enumerate_dfs` (engine "dfs") runs the rest, a dense fallback included.
    All give the same rows in the same order. A target that does not fit the
    backend (see `_resolve_target`) raises ValueError before the run.
    """
    start = _start(protocol, backend, input_state)
    resolved = _resolve_target(protocol, start, target)
    if isinstance(start, PureState):
        with contextlib.suppress(_Fallback):
            return _enumerate_dense_frames(protocol, start, prob_floor, branch_cap, resolved, keep_states)
    elif prob_floor < 0.5:
        return _enumerate_frames(protocol, start, branch_cap, resolved, keep_states)
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


def _result(tags, k, pk, fids, agree, reference, finals, engine: str) -> EnumerationResult:
    """The rows and the one verdict. Row i has outcomes k[i] (in the narrowest
    unsigned type), their probabilities pk[i], whose product left to right,
    as a history takes it, is its probability, and fidelity fids[i]; it is
    DETERMINISTIC when every branch agrees with the first (`agree`) and the
    probabilities sum to 1, within DETERMINISM_TOL."""
    p = np.ones(len(fids))
    for column in pk.T:
        p *= column
    k = k.astype(np.promote_types(np.uint8, np.min_scalar_type(k.max(initial=0))), copy=False)
    rows = BranchRows(tuple(tags), k, pk, p, np.asarray(fids, dtype=float))
    res = EnumerationResult(rows, bool(agree), float(np.min(fids)), float(np.max(fids)), reference, finals, engine)
    res.deterministic &= abs(1.0 - res.total_probability()) <= DETERMINISM_TOL
    return res


def _enumerate_dfs(
    protocol: Protocol,
    backend: str = "dense",
    prob_floor: float = DEFAULT_PROB_FLOOR,
    branch_cap: int = DEFAULT_BRANCH_CAP,
    input_state=None,
    target: Optional[object] = "protocol",
    keep_states: bool = False,
) -> EnumerationResult:
    """`enumerate_branches` by depth-first exploration: one history per leaf,
    each scored on its own final state (the fallback, and the tests' oracle)."""
    start = _start(protocol, backend, input_state)
    target = _resolve_target(protocol, start, target)

    def live(state, spec, outcomes):
        probs = state.branch_probabilities(spec.entry, spec.basis)
        if not isinstance(state, PureState):
            return [{"force": k} for k, p in enumerate(probs) if p > prob_floor]
        # a dense outcome takes its probability from this distribution, so its
        # slice is not summed again: the bits are the same (see statevector)
        return [{"force": k, "p": p} for k, p in enumerate(probs) if p > prob_floor]

    tags = [step.spec.tag for step in protocol.program if isinstance(step, Measure)]
    ks, pks, fs = [], [], []  # every history measures the tags in program order
    finals: List[object] = []
    reference = None
    agree = True
    for state, outcomes, _ in _execute(protocol.program, start, live, branch_cap):
        final = _finalize(state, protocol)
        if reference is None:
            reference = final
        agree_first = final.fidelity(reference)
        agree = agree and agree_first >= 1.0 - DETERMINISM_TOL
        ks.append([k for _, k, _ in outcomes])
        pks.append([p for _, _, p in outcomes])
        fs.append(agree_first if target is None else final.fidelity(target))
        if keep_states:
            finals.append(final)
    if not fs:
        raise ProtocolError(f"no branch of {protocol.name!r} lies above prob_floor={prob_floor}")
    k, pk = np.array(ks, dtype=np.int64).reshape(len(fs), len(tags)), np.reshape(pks, (len(fs), len(tags)))
    return _result(tags, k, pk, fs, agree, reference, finals if keep_states else None, "dfs")


class _Fallback(Exception):
    """A dense program that the by-product check cannot certify from one history."""


def _byproduct_plan(program: Sequence[Step]) -> Optional[Dict[str, tuple]]:
    """Each measured tag's `byproduct_residuals` arguments: the tag's column in
    the Correct right after its run of Measures, as (entry, x, z), that map's
    modulus, and the entries that the run measures later. None when a
    Correct reads a tag from outside the run right before it or touches an
    entry it measures, a measurement keeps its entry or takes a basis, or a
    tag repeats."""
    plan: Dict[str, tuple] = {}
    run: List[MeasurementSpec] = []
    for step in list(program) + [None]:
        if isinstance(step, Measure):
            if not step.spec.remove or step.spec.basis is not None or step.spec.tag in plan:
                return None
            run.append(step.spec)
            plan[step.spec.tag] = ()
            continue
        fix = step.pauli if isinstance(step, Correct) else PauliMap([], [], np.zeros((0, 0)))
        if not {s.tag for s in run} >= set(fix.tags) or {s.entry for s in run} & set(fix.entries):
            return None
        for i, spec in enumerate(run):
            c, n = fix.matrix[:, [t == spec.tag for t in fix.tags]].sum(axis=1) % fix.d, len(fix.entries)
            column = tuple((e, int(x), int(z)) for e, x, z in zip(fix.entries, c[:n], c[n:]) if x or z)
            plan[spec.tag] = (column, fix.d, tuple(s.entry for s in run[i + 1 :]))
        run = []
    return plan


def _enumerate_dense_frames(
    protocol: Protocol, start: PureState, prob_floor: float, branch_cap: int, target, keep_states: bool
) -> EnumerationResult:
    """`enumerate_branches` on a dense state from one history that takes the
    first live outcome of each measurement. At a random one of tag t, every
    outcome k must be live and its slice psi_k, moved by P_t^k, must equal
    psi_0 within BYPRODUCT_TOL (normalised), up to one phase per basis state
    of the entries that the same run measures later: P_t is the column for t
    of the Correct after the run, or the identity. Otherwise, or for a
    program that `_byproduct_plan` rejects, it raises _Fallback.

    Then every record ends in the history's state: with all records in one
    state before a run (by induction), outcomes k_1 ... k_r leave the slice
    psi[k_1, ..., k_r], which the Correct hits with P_1^k_1 ... P_r^k_r
    times a record-free Pauli. The first check gives P_1^k_1 psi[k_1, j] =
    c(j) psi[0, j] for each index j of the later entries, so it turns k_1
    into 0 at j = (k_2, ..., k_r); the second, on the history, turns k_2
    into 0, and so on, and the moved slices keep their norms. So the rows
    are all combinations of the random outcomes in depth-first order, with
    the history's probabilities and fidelity; 2 * the sum of the accepted
    residuals, which bounds a record's fidelity error, enters the verdict.
    """
    plan = _byproduct_plan(protocol.program)
    if plan is None:
        raise _Fallback
    dists: List[np.ndarray] = []  # each measurement's distribution, in program order
    random: List[int] = []  # the positions of the random ones
    residuals: List[float] = []  # the accepted ones, on normalised states

    def check(state, spec, outcomes):
        probs = state.branch_probabilities(spec.entry)
        live = np.flatnonzero(probs > prob_floor)
        if len(live) != 1:
            moved = state.byproduct_residuals(spec.entry, *plan[spec.tag]) if len(live) == len(probs) else None
            if moved is None or not moved.max() <= BYPRODUCT_TOL * np.sqrt(probs[0]):
                raise _Fallback
            residuals.append(moved.sum() / np.sqrt(probs[0]))
            random.append(len(dists))
        dists.append(probs)
        return ({"force": int(live[0]), "p": probs[live[0]]},)

    state, outcomes, _ = next(_execute(protocol.program, start, check))
    dims = [len(dists[i]) for i in random]
    count = math.prod(dims)
    if count > branch_cap:
        raise BranchCapExceeded(f"more than {branch_cap} branches: {count} records")
    reference = _finalize(state, protocol)
    agree_first = reference.fidelity(reference)
    fid = agree_first if target is None else reference.fidelity(target)
    k = np.tile(np.array([k for _, k, _ in outcomes], dtype=np.int64), (count, 1))
    k[:, random] = np.indices(dims).reshape(len(dims), count).T
    pk = np.array([dist[k[:, i]] for i, dist in enumerate(dists)]).reshape(len(dists), count).T
    agree = agree_first >= 1.0 - DETERMINISM_TOL and 2 * sum(residuals) <= DETERMINISM_TOL
    finals = [reference.clone() for _ in range(count)] if keep_states else None  # equal up to phase
    return _result([t for t, _, _ in outcomes], k, pk, np.full(count, fid), agree, reference, finals, "frames")


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

    `fx` and `fz` are views into one zero buffer that doubles along an axis
    it outgrows, so their rows move with the tableau's qubits: an added qubit
    takes a zero row, a removed one hands its row to the last qubit.
    """

    def __init__(self, state: TableauState):
        self.keys, self._index, self.tab = state.keys, state._index, state.tab
        self._frames = np.zeros((2, 0, 0), dtype=np.uint8)
        self._frame_view(len(self.keys), 0)
        self.forms = np.zeros((0, 1), dtype=np.uint8)

    def _frame_view(self, n: int, r: int) -> None:
        """Point fx, fz at the buffer's first n rows and r columns."""
        f = self._frames
        rows, cols = f.shape[1:]
        if n > rows or r > cols:
            grown = np.zeros((2, max(rows, 2 * n), max(cols, 2 * r)), dtype=np.uint8)
            grown[:, :rows, :cols] = f
            self._frames = f = grown
        self.fx, self.fz = f[0, :n, :r], f[1, :n, :r]

    def apply_named(self, name: str, entries) -> "_FramedTableau":
        qubits = [self.index(e) for e in entries]
        self.tab.apply_gate(name, *qubits)
        _conjugate_rows(self.fx.T, self.fz.T, np.zeros(self.fx.shape[1], dtype=np.uint8), name, qubits)
        return self

    def add_entry(self, site: int, slot: str, dim: int = 2, local_state=None) -> "_FramedTableau":
        super().add_entry(site, slot, dim, local_state)
        self._frame_view(len(self.keys), self.fx.shape[1])
        return self

    def remove_entry(self, entry) -> "_FramedTableau":
        q, last = self.index(entry), len(self.keys) - 1
        super().remove_entry(entry)
        self.fx[q], self.fz[q] = self.fx[last], self.fz[last]
        self.fx[last] = self.fz[last] = 0
        self._frame_view(last, self.fx.shape[1])
        return self

    def measure(self, entry, basis=None, force=None, rng=None):
        """Measure Z on the reference, taking outcome 0 when it is random.

        A record reads the reference bit XOR x_q of its frame. A random
        measurement adds a variable t, the record's outcome; where t XOR x_q(F)
        is 1 the frame takes the flip Pauli D, the old stabilizer that
        anticommuted with Z_q, which `measure_z` leaves in the pivot's
        destabilizer row. So the columns gain D (e_t + x_q(F)).
        """
        q, tab = self.index(entry), self.tab
        anti = np.flatnonzero(tab.x[tab.n :, q])
        if basis is not None or anti.size == 0:
            bit, p = super().measure(entry, basis)
            self.forms = np.vstack([self.forms, np.hstack([np.uint8(bit), self.fx[q]])])
            return bit, p
        bit, p = super().measure(entry, force=0)
        self._frame_view(len(self.keys), self.fx.shape[1] + 1)
        self.forms = np.hstack([self.forms, np.zeros((len(self.forms), 1), dtype=np.uint8)])
        e_t = np.zeros(self.forms.shape[1], dtype=np.uint8)
        e_t[-1] = 1
        self.forms = np.vstack([self.forms, e_t])
        flip = e_t[1:] ^ self.fx[q]
        d = tab._partner(tab.n + int(anti[0]))
        self.fx ^= tab.x[d][:, None] & flip
        self.fz ^= tab.z[d][:, None] & flip
        return bit, p

    def correct(self, pauli: PauliMap, outcomes) -> None:
        """After `_apply_correction`: the reference took the map's Pauli at its
        own bits c, and record v reads c + L v, L the linear parts of the
        forms of the map's tags; so the columns gain M L, M the map's declared
        matrix, and the offset and c cancel."""
        row = {t: i for i, (t, _, _) in enumerate(outcomes)}
        # a float32 product is exact below 2^24 terms and takes the BLAS path
        # that a uint8 product lacks
        forms = self.forms[[row[t] for t in pauli.tags], 1:].astype(np.float32)
        flips = ((pauli.matrix.astype(np.float32) @ forms) % 2).astype(np.uint8)
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
    _, outcomes, _ = next(_execute(protocol.program, framed, lambda *_: ({},)))
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
    ps = np.broadcast_to([p for _, _, p in outcomes], bits.shape)
    finals = None
    if keep_states:
        finals = []
        for row in expanded[:, m + n :]:
            final = reference.clone()
            final.tab.r = ((tab.r + 2 * row) % 4).astype(np.uint8)
            finals.append(final)
    return _result([t for t, _, _ in outcomes], bits, ps, fids, agree.all(), reference, finals, "frames")


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
    """Bell-rotate two co-located qudits, measure them, fix the receiver: the
    Bell state X^a Z^b reads a = -m_p and b = m_s, so X^a Z^b on the target."""
    fix = PauliMap([f"{tag}s", f"{tag}p"], [target], [[0, -1], [1, 0]], d=d)
    return [
        ApplyLayers([cx.LocalLayer(bell_rotation_ops(source, partner, d))]),
        Measure(MeasurementSpec(source, f"{tag}s")),
        Measure(MeasurementSpec(partner, f"{tag}p")),
        Correct(fix, f"teleport fix {tag}"),
    ]
