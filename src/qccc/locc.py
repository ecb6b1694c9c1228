"""The LOCC-assisted execution model.

A Protocol is a program of steps over a register: circuit chunks, single-qudit
measurements, and outcome-conditioned local corrections. A Measure reads one
entry in the computational basis and drops it from the register (another
basis is a local unitary before it, as `bell_rotation_ops` writes the Bell
basis).
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
(engine "frames"), and `_expand` turns that history into rows on either
backend, so the branch cap is checked right after it. On the tableau, the
history takes outcome 0 at every random measurement, and its Pauli frame is
a GF(2)-linear function of the r random outcomes, kept as r frame columns:
flips enter as Aaronson-Gottesman destabilizers, a Correct moves the columns
by one matrix product, and one GF(2) product scores every record. On dense
states, each random outcome's slice, moved by its by-product (the Correct's
column for it, pulled back through the Clifford steps between,
`_byproduct_plan`), must equal outcome 0's; then every record ends in the
history's state (`_enumerate_dense_frames`). Any other program runs
the depth-first search, one history per leaf, which the tests take as the
oracle, and the result says why (`fallback`). Every engine scores a branch
by its final state's `fidelity` to the first branch's and to the target (1
or 0 on the tableau, where it tests equality), gives its verdict by one rule
and writes its rows straight into arrays (`BranchRows`), which build a
BranchReport only for a row that is read, and which the CLI writes from. A
result keeps no state but the first branch's: a record's is `replay(protocol,
record)`. A target fits the backend that runs: a PureState on dense states,
stabilizer generators on the tableau.

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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import circuits as cx
from . import gates
from .lattice import Lattice
from .stabilizer import _PAULI_CHARS, StabilizerTableau, TableauState, _bit_matrix, _conjugate_rows, _gf2_solve_many
from .statevector import EntryKey, ProtocolError, PureState, QuditRegister

DETERMINISM_TOL = 1e-9
DEFAULT_BRANCH_CAP = 2**16
DEFAULT_PROB_FLOOR = 1e-12
BYPRODUCT_TOL = 1e-12  # the by-product check's residual, on normalised states
_CLIFFORD_NAMES = frozenset({"H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ", "SWAP"})


class BranchCapExceeded(ProtocolError):
    pass


@dataclass
class ApplyLayers:
    layers: List[cx.Layer]


@dataclass
class Measure:
    """Measure `entry` in the computational basis, record the outcome under
    `tag`, and drop the entry from the register."""

    entry: EntryKey
    tag: str

    def __post_init__(self):
        self.entry = (int(self.entry[0]), str(self.entry[1]))


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
    arrays (a BranchRows); it builds a BranchReport for each row read. It
    keeps no state but `reference`: a record's is `replay(protocol, record)`."""

    reports: BranchRows
    deterministic: bool
    min_fidelity: float
    max_fidelity: float
    reference: object  # final state of the first branch
    engine: str = "dfs"  # "frames": one history, its random outcomes checked or framed; "dfs": one history per leaf
    fallback: Optional[str] = None  # why `enumerate_branches` ran the "dfs" engine

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
    clifford: bool = field(init=False)  # the tableau runs it; read from the program at construction

    def __post_init__(self):
        # single-shot schedule: at most one measurement per qudit; the tableau
        # takes qubits, `_on_tableau` actions and Pauli maps over Z_2
        seen = set()
        clifford = all(d == 2 for _, _, d in self.register)
        for step in self.program:
            if isinstance(step, Measure):
                key = step.entry
                if key in seen:
                    raise ProtocolError(f"entry {key} is measured more than once")
                seen.add(key)
            elif isinstance(step, Correct):
                clifford = clifford and step.pauli.d == 2
            elif clifford and isinstance(step, ApplyLayers):
                clifford = all(_on_tableau(o) for layer in step.layers
                               for o in (layer.gates if isinstance(layer, cx.GateLayer) else layer.actions))
        self.clifford = clifford

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
                level[step.entry] = measured[step.tag] = max(2, at([step.entry]) + 1 & ~1)
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


def _on_tableau(op) -> bool:
    """A gate or local action the tableau runs: named Cliffords, a qubit
    ancilla added in |0>, or a removal."""
    kind = getattr(op, "kind", "op")
    if kind == "add":
        return op.dim == 2 and op.init_state is None
    return kind == "remove" or isinstance(op.spec, list) and all(str(g).upper() in _CLIFFORD_NAMES for g, _ in op.spec)


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
    kept = set(system)
    leftover = [k for k in (state.register.keys if isinstance(state, PureState) else state.keys) if tuple(k) not in kept]
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

    `choose(state, step, outcomes)` returns the `measure_remove` keyword
    arguments of each outcome to follow at a Measure step: one `rng` to sample,
    one `force` to replay, or one `force` per live outcome to enumerate, with
    its probability `p`. Every outcome but the last runs on a clone; the last,
    and a single one, reuse the state, so single-history policies mutate
    `state` in place. Pending outcomes wait on an explicit stack and are
    visited depth-first in order.

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
                if options is None:
                    options = choose(state, step, outcomes)
                    if not options:  # every outcome is below the probability floor
                        histories -= 1
                        break
                    histories += len(options) - 1
                    if cap is not None and histories > cap:
                        raise BranchCapExceeded(f"more than {cap} branches")
                if len(options) > 1:
                    stack.append((state, j, outcomes, prob, options[1:]))
                    state = state.clone()
                k, p = state.measure_remove(step.entry, **options[0])
                options = None
                outcomes += ((step.tag, int(k), float(p)),)
                prob *= p
            elif isinstance(step, Correct):
                _apply_correction(state, step.pauli, outcomes)
            else:
                raise TypeError(f"unknown step {step!r}")
            j += 1
        else:
            yield state, outcomes, prob


def _sample(rng: np.random.Generator):
    return lambda state, step, outcomes: ({"rng": rng},)


def _force(record: OutcomeRecord):
    def choose(state, step, outcomes):
        i = len(outcomes)
        if i >= len(record.outcomes) or record.outcomes[i][0] != step.tag:
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
    branch_cap: int = DEFAULT_BRANCH_CAP,
    input_state=None,
    target: Optional[object] = "protocol",
) -> EnumerationResult:
    """Every measurement branch above DEFAULT_PROB_FLOOR, as rows of outcomes,
    probability and fidelity, and the first branch's final state; a row's
    own state is `replay(protocol, row.record)`.

    Branch fidelity is measured against the protocol target when one exists,
    otherwise against the first branch. The DETERMINISTIC verdict additionally
    requires all branches to agree with the first branch up to global phase
    and their probabilities to sum to 1 within DETERMINISM_TOL.

    Engine "frames" certifies from one history and raises BranchCapExceeded
    right after it: `_enumerate_frames` on the tableau, always, and
    `_enumerate_dense_frames` on dense states. The depth-first search
    `_enumerate_dfs` (engine "dfs") runs a dense program that the latter
    cannot certify, and `fallback` says why. All give the same rows in the same order. The
    target is resolved once, here: one that does not fit the backend (see
    `_resolve_target`) raises ValueError before the run.
    """
    start = _start(protocol, backend, input_state)
    target = _resolve_target(protocol, start, target)
    if not isinstance(start, PureState):
        return _enumerate_frames(protocol, start, branch_cap, target)
    try:
        return _enumerate_dense_frames(protocol, start, branch_cap, target)
    except _Fallback as exc:  # the check ran its history on `start`
        reason, start = str(exc), _start(protocol, backend, input_state)
    res = _enumerate_dfs(protocol, start, target, branch_cap)
    res.fallback = reason
    return res


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


def _result(tags, k, pk, fids, agree, reference, engine: str) -> EnumerationResult:
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
    res = EnumerationResult(rows, bool(agree), float(np.min(fids)), float(np.max(fids)), reference, engine)
    res.deterministic &= abs(1.0 - res.total_probability()) <= DETERMINISM_TOL
    return res


def _enumerate_dfs(protocol: Protocol, start, target, branch_cap: int) -> EnumerationResult:
    """`enumerate_branches` by depth-first exploration from `start`, with the
    resolved `target`: one history per leaf, each scored on its own final
    state (the fallback, and the tests' oracle)."""

    def live(state, step, outcomes):
        # a dense outcome takes its probability from this distribution, so its
        # slice is not summed again: the bits are the same (see statevector)
        probs = state.branch_probabilities(step.entry)
        return [{"force": k, "p": p} for k, p in enumerate(probs) if p > DEFAULT_PROB_FLOOR]

    tags = [step.tag for step in protocol.program if isinstance(step, Measure)]
    ks, pks, fs = [], [], []  # every history measures the tags in program order
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
    if not fs:
        raise ProtocolError(f"no branch of {protocol.name!r} lies above the probability floor {DEFAULT_PROB_FLOOR}")
    k, pk = np.array(ks, dtype=np.int64).reshape(len(fs), len(tags)), np.reshape(pks, (len(fs), len(tags)))
    return _result(tags, k, pk, fs, agree, reference, "dfs")


class _Fallback(Exception):
    """A dense program that the by-product check cannot certify from one
    history; the message says why."""


def _byproduct_plan(program: Sequence[Step], start: PureState) -> Dict[str, Iterator[tuple]]:
    """Each tag's candidate by-products, each computed when it is read:
    (column as (entry, x, z), modulus, free entries, flipped tags), the
    first three `byproduct_residuals`' arguments (`_PullBack`).

    Tag t's Correct is the first after its Measure, and no other may read t.
    Raises _Fallback, with the reason, when one does, a Correct reads a tag
    that no Measure before it takes, or a tag repeats.
    """
    steps, ops, at, closing, closes, pending = list(program), {}, {}, {}, {}, []
    index = {e: i for i, e in enumerate(start.register.keys)}
    qudits = {e for e, d in zip(start.register.keys, start.register.dims) if d != 2}
    for j, step in enumerate(steps):
        if isinstance(step, Measure):
            if step.tag in at:
                raise _Fallback(f"tag {step.tag} repeats")
            at[step.tag] = j
            pending.append(j)
            continue
        if isinstance(step, Correct):
            closing.update((steps[i].tag, j) for i in pending)
            closes[j], pending = pending, []
            for t in step.pauli.tags:
                if closing.get(t) != j:
                    why = f"{steps[closing[t]].name!r} closes" if t in at else "no earlier Measure takes"
                    raise _Fallback(f"{step.name!r} reads {t}, which {why}")
        # each gate, local action or Correct as (its entries' indices, the
        # action when it adds or removes, its named gates as (name, indices)
        # or one matrix gate); a Correct, a Pauli, has none: it moves a phase
        raw = [(step.pauli.entries, None, [])] if isinstance(step, Correct) else [
            (o.entries, o if getattr(o, "kind", "op") != "op" else None, o.spec)
            for layer in step.layers for o in (layer.gates if isinstance(layer, cx.GateLayer) else layer.actions)]
        ops[j] = []
        for entries, action, spec in raw:
            index.update((e, len(index)) for e in entries if e not in index)
            if action is not None and action.kind == "add" and action.dim != 2:
                qudits.add(entries[0])
            on = [index[e] for e in entries]
            named = [(str(g).upper(), [on[k] for k in ks]) for g, ks in spec] if isinstance(spec, list) else None
            ops[j].append((on, action, [("a matrix gate", on)] if named is None else named))
    keys = list(index)
    qubit = np.array([e not in qudits for e in keys])
    free, ahead = {}, {}  # the entries a later Measure reads, with no step on them before it
    for j in reversed(range(len(steps))):
        if j in ops:
            for on, _, _ in ops[j]:
                for k in on:
                    ahead.pop(k, None)
        else:
            free[steps[j].tag] = tuple(keys[k] for k in ahead)
            ahead[index[steps[j].entry]] = None
    zero = {index[e] for e, v in start._lazy.items() if abs(v[0]) == 1.0}  # |0> factors, which Z stabilizes
    shared, pulled = (steps, ops, index, keys, qubit, zero, closes), {}

    def candidates(t: str, c: Optional[int]) -> Iterator[tuple]:
        """The first from the steps to t's Correct (None: the identity); the
        second, read only when the first fails the check, from the whole
        program. A Correct is pulled back when one of its tags is first read,
        unless only Measures lie between: then the first is t's column, as
        the pull-back would find it with no condition to meet."""
        if c is None:
            yield (), 2, free[t], set()
            return
        if any(j in ops for j in range(at[t], c)):
            back = pulled[c] = pulled.get(c) or _PullBack(shared, c)
            yield (first := back.solve(at[t], free[t], False))
        else:
            fix = steps[c].pauli
            col = fix.matrix[:, fix.tags.index(t)].tolist() if t in fix.tags else [0] * 2 * len(fix.entries)
            powers = sorted((index[e], e, x, z) for e, x, z in zip(fix.entries, col, col[len(fix.entries) :]) if x or z)
            yield (first := (tuple(p[1:] for p in powers), fix.d, free[t], set()))
        with contextlib.suppress(_Fallback):  # none for a qudit, and the whole program may admit none
            back = pulled[c] = pulled.get(c) or _PullBack(shared, c)
            if (i := at[t]) in back.flip and (second := back.solve(i, free[t], True)) != first:
                yield second

    return {t: candidates(t, closing.get(t)) for t in at}


class _PullBack:
    """The columns of the Correct at position c, pulled back through the steps
    before it in one backward sweep: named qubit Cliffords conjugate them
    (`_conjugate_rows`; each bit map is its own inverse), an ancilla added on
    the way may hold only Z (a phase on |0>), and any other operation must
    miss them. Conjugation is linear, so the sweep carries every column at
    once: one per tag the Correct reads, X (a flip) on the entry of each qubit
    Measure it closes, and Z (a phase once measured) on that of each qubit
    Measure before it. Each condition met on the way is a row over them.

    Tag t's by-product is its column plus a flip bit times X and the
    Correct's column of each qubit Measure after t's (an X there flips that
    tag, so the Correct adds its column) plus a phase bit times each Z after
    t's: unknown bits, in which the conditions are linear, solved with the
    free bits 0. The whole candidate also pulls X on t's entry times the
    by-product (then a stabilizer of the state before the Measure) back to
    the start, where it may hold only Z on |0> factors, with a phase bit per
    earlier qubit Measure. It fixes the bits that only the state decides,
    such as which later plaquette of the toric code the first one's
    by-product flips.
    """

    def __init__(self, shared: tuple, c: int):
        self.steps, self.ops, self.index, self.keys, self.qubit, self.zero, closes = shared
        fix, self.lo, self.whole = self.steps[c].pauli, (closes[c] or [c])[0], False
        self.d, self.tags = fix.d, {t: r for r, t in enumerate(fix.tags)}
        measures = [j for j in range(c) if j not in self.ops and fix.d == 2]
        qubits = [j for j in measures if self.qubit[self.index[self.steps[j].entry]]]
        self.flip = {j: len(self.tags) + r for r, j in enumerate(j for j in qubits if j >= self.lo)}
        self.phase = {j: len(self.tags) + len(self.flip) + r for r, j in enumerate(qubits)}
        self.x = np.zeros((len(self.index), len(self.tags) + len(self.flip) + len(qubits)), dtype=np.int64)
        self.z = np.zeros_like(self.x)
        n, cols = len(fix.entries), [self.index[e] for e in fix.entries]
        self.x[cols, : len(self.tags)], self.z[cols, : len(self.tags)] = fix.matrix[:n], fix.matrix[n:]
        self.support = set(cols)  # the entries whose bits may be nonzero
        self.rows: List[Tuple[int, np.ndarray, str]] = []  # the conditions: (position, bits, reason)
        self.at: Dict[int, np.ndarray] = {}  # (x | z) right after each Measure that c closes
        self.sweep(range(self.lo, c))

    def vanish(self, j: int, bits: np.ndarray, why: str) -> None:
        if (bits := bits % self.d).any():
            self.rows.append((j, bits, why))

    def miss(self, j: int, on, what: str) -> None:
        for k in self.support.intersection(on):
            for bits in (self.x[k], self.z[k]):
                self.vanish(j, bits, f"{what} on the pulled-back support")

    def sweep(self, part: range) -> None:
        x, z, keys, support = self.x, self.z, self.keys, self.support
        for j in reversed(part):
            if j not in self.ops:
                k = self.index[self.steps[j].entry]
                if j >= self.lo:
                    self.at[j] = np.concatenate([x, z])
                if j in self.flip:
                    x[k, self.flip[j]] = 1
                if j in self.phase:
                    z[k, self.phase[j]] = 1
                support.add(k)
                continue
            for on, action, gates in reversed(self.ops[j]):
                if support.isdisjoint(on) or action is not None and action.kind != "add":
                    continue  # a removed entry holds nothing
                if action is not None:
                    if action.init_state is not None:
                        self.miss(j, on, f"the ancilla {keys[on[0]]} in a given state")
                    self.vanish(j, x[on[0]], f"X on {keys[on[0]]} where it is added, in the by-product")
                    x[on[0]] = z[on[0]] = 0
                    support.discard(on[0])
                    continue
                for name, sub in reversed(gates):
                    if name == "I" or support.isdisjoint(sub):
                        continue
                    qudits = [keys[k] for k in sub if not self.qubit[k]]
                    if self.d == 2 and not qudits and name in _CLIFFORD_NAMES:
                        _conjugate_rows(x, z, name, sub)
                        support.update(sub)
                    else:
                        self.miss(j, sub, f"qudit {qudits[0]}" if qudits else name)

    def solve(self, i: int, free: tuple, whole: bool) -> tuple:
        """The first candidate of the tag measured at position i, from the
        conditions after it, or the whole one; raises _Fallback, with the
        reason, when they have no solution."""
        tag, later = self.steps[i].tag, [j for j in self.flip if j > i]
        if whole and not self.whole:
            self.whole = True
            self.sweep(range(self.lo))
            for k in self.support:  # at the start, only Z on |0> factors
                for bits in (self.x[k],) if k in self.zero else (self.x[k], self.z[k]):
                    self.vanish(-1, bits, "")
        phases = [p for j, p in self.phase.items() if whole or j > i]
        # the columns of each bit, as (column, bit): 1 (t's own), a flip per later qubit Measure, the phases
        ones = [(self.tags[t], r) for r, j in enumerate([i, *later]) if (t := self.steps[j].tag) in self.tags]
        ones += [(self.flip[j], r) for r, j in enumerate([i, *later]) if r or whole]
        ones += [(p, r) for r, p in enumerate(phases, 1 + len(later))]
        bits = [1] + [0] * (len(later) + len(phases))  # with no conditions, every bit is free
        if taken := [(row, why) for j, row, why in self.rows if whole or j > i]:
            w = np.zeros((self.x.shape[1], len(bits)), dtype=np.int64)
            w[tuple(np.array(ones, dtype=np.int64).reshape(-1, 2).T)] = 1
            conditions = np.array([row for row, _ in taken]) @ w % self.d
            for row, (_, why) in zip(conditions, taken):  # one that no unknown bit moves names its reason
                if row[0] and not row[1:].any():
                    raise _Fallback(f"{why} of {tag}")
            if (solved := _gf2_solve_many(conditions[:, 1:], conditions[:, 0])) is None:
                raise _Fallback(f"no flips of the later tags carry the by-product of {tag} to its Correct")
            bits[1:] = solved[:, 0].tolist()
        p, n = (self.at[i][:, [c for c, r in ones if bits[r]]].sum(1) % self.d).tolist(), len(self.keys)
        column = tuple((e, x, z) for e, x, z in zip(self.keys, p[:n], p[n:]) if x or z)
        return column, self.d, free, {self.steps[j].tag for j, b in zip(later, bits[1:]) if b}


def _expand(outcomes, dists, random: List[int], flipped: Dict[int, set], branch_cap: int):
    """A frames engine's rows (tags, outcomes, their probabilities) from its one
    history's (tag, k, p) `outcomes` and distributions `dists`, `random` the
    positions of the random ones and `flipped[j]` the later positions that
    random position j flips (f_ji = 1); raises BranchCapExceeded first. The
    records are all combinations of the random outcomes in depth-first order.
    A record's source at a random position i is s_i = k_i - sum_j f_ji s_j
    over the earlier random j; a deterministic position reads the history's
    outcome (its source) plus that sum. Conditional distributions move with
    the sources, so the record has probability prod_i dist_i[s_i], dist_i the
    history's; without flips each source is its outcome.
    """
    dims = [len(dists[i]) for i in random]
    count = math.prod(dims)
    if count > branch_cap:
        raise BranchCapExceeded(f"more than {branch_cap} branches: {count} records")
    # one uint8 row per measurement up to 256 levels; a flip shifts only qubits
    # (`_PullBack` makes flip columns only for qubit Measures), and wrapping keeps parity
    kind = np.min_scalar_type(max(map(len, dists), default=1) - 1)
    k = np.repeat(np.array([k for _, k, _ in outcomes], dtype=kind)[:, None], count, axis=1)
    k[random] = np.indices(dims, dtype=kind).reshape(len(dims), count)
    source = k.copy()
    for j in range(len(k)):
        if flips := [i for i in random if j in flipped[i]]:
            shift = sum(source[i] for i in flips)
            if j in random:
                source[j] = (k[j] - shift) % len(dists[j])
            else:
                k[j] = (k[j] + shift) % len(dists[j])
    pk = np.array([dist[s] for dist, s in zip(dists, source)]).reshape(len(dists), count).T
    return [t for t, _, _ in outcomes], k.T, pk


def _enumerate_dense_frames(protocol: Protocol, start: PureState, branch_cap: int, target) -> EnumerationResult:
    """`enumerate_branches` on a dense state from one history that takes the
    first live outcome of each measurement. At a random one of tag t, every
    outcome k must be live and, for one of `_byproduct_plan`'s candidates P_t,
    P_t^k psi_k must equal psi_0 within BYPRODUCT_TOL (normalised slices), up
    to one phase per basis state of the free entries; else it raises _Fallback.

    Then every record ends in the history's state. A record that agrees with
    the history before t and reads k at t has psi_k = P_t^-k D psi_0 up to
    phase, D diagonal on the free entries: a phase of the record once they are
    measured. The steps to t's Correct carry P_t^-k along (Cliffords conjugate
    it, an added ancilla sees at most Z, and X^-k on the entry of each later
    tag t' it flips, f_tt' = 1, shifts that outcome), so the record reaches
    the Correct as the one reading 0 at t and k' - f_t k at the later tags
    does, times columns that its own outcomes remove. By induction over the
    random measurements, every record ends as the history does: `_expand`
    lists the records. 2 * the sum of the accepted residuals, which bounds a
    record's fidelity error, enters the verdict.
    """
    plan = _byproduct_plan(protocol.program, start)
    dists: List[np.ndarray] = []  # each measurement's distribution, in program order
    random: List[int] = []  # the positions of the random ones
    residuals: List[float] = []  # the accepted ones, on normalised states
    flipped: Dict[int, set] = {}  # position of a random one -> the later tags its by-product flips

    def check(state, step, outcomes):
        probs = state.branch_probabilities(step.entry)
        live = np.flatnonzero(probs > DEFAULT_PROB_FLOOR)
        if len(live) != 1:
            if len(live) < len(probs):
                raise _Fallback(f"an outcome of {step.tag} lies below the probability floor")
            reason = None
            for column, d, free, flips in plan[step.tag]:
                moved = state.byproduct_residuals(step.entry, column, d, free)
                worst = np.inf if moved is None else moved.max() / np.sqrt(probs[0])
                if worst <= BYPRODUCT_TOL:
                    break
                reason = reason or (f"check failed at tag {step.tag}, residual {worst:.0e}" if moved is not None else
                                    f"{step.tag} measures a product factor, or its by-product names an absent entry")
            else:
                raise _Fallback(reason)
            residuals.append(moved.sum() / np.sqrt(probs[0]))
            random.append(len(dists))
            flipped[len(dists)] = flips
        dists.append(probs)
        return ({"force": int(live[0]), "p": probs[live[0]]},)

    state, outcomes, _ = next(_execute(protocol.program, start, check))
    at = {t: j for j, (t, _, _) in enumerate(outcomes)}  # a dense program's tags are distinct
    tags, k, pk = _expand(outcomes, dists, random, {i: {at[t] for t in f} for i, f in flipped.items()}, branch_cap)
    reference = _finalize(state, protocol)
    agree_first = reference.fidelity(reference)
    fid = agree_first if target is None else reference.fidelity(target)
    agree = agree_first >= 1.0 - DETERMINISM_TOL and 2 * sum(residuals) <= DETERMINISM_TOL
    return _result(tags, k, pk, np.full(len(k), fid), agree, reference, "frames")


class _FramedTableau(TableauState):
    """The reference history of a Clifford program, with its Pauli frames kept
    as GF(2)-linear functions of the random outcomes, one frame column per
    random outcome: the Aaronson-Gottesman flip applied the way Stim's frame
    simulator applies it (Gidney, arXiv:2103.02202).

    The tableau follows the history that takes outcome 0 at every random
    measurement. A record is the vector v of its r random outcomes, and its
    state is F(v) |reference> up to phase, F(v) the sum of the columns i of
    `fx`/`fz` (qubit-major, shape (n, r)) with v_i = 1. Row t of `forms`
    (shape (m, r)) is the linear part of measurement t's outcome, an affine
    form whose offset is the history's outcome. Frame phases are not kept: F
    only moves stabilizer signs, which its bits fix.

    As on the tableau, each qubit's frame bits are one int over the frame
    columns (`_fx[q]`, `_fz[q]`, bit i for column i), so a gate conjugates
    them with the tableau's own rule and a removed qubit hands its ints to the
    last qubit; each form is one int too (`_forms`). `fx`, `fz` and `forms`
    export them as 0/1 arrays.
    """

    def __init__(self, state: TableauState):
        self.keys, self._index, self.tab = state.keys, state._index, state.tab
        self._fx, self._fz = [0] * len(self.keys), [0] * len(self.keys)
        self._forms: List[int] = []
        self._columns = 0

    fx = property(lambda self: _bit_matrix(self._fx, self._columns))
    fz = property(lambda self: _bit_matrix(self._fz, self._columns))
    forms = property(lambda self: _bit_matrix(self._forms, self._columns))

    def apply_named(self, name: str, entries) -> "_FramedTableau":
        qubits = [self.index(e) for e in entries]
        self.tab.apply_gate(name, *qubits)
        _conjugate_rows(self._fx, self._fz, name, qubits)
        return self

    def add_entry(self, site: int, slot: str, dim: int = 2, local_state=None) -> "_FramedTableau":
        super().add_entry(site, slot, dim, local_state)
        self._fx.append(0)
        self._fz.append(0)
        return self

    def remove_entry(self, entry) -> "_FramedTableau":
        q = self.index(entry)
        super().remove_entry(entry)
        self._drop_frame(q)
        return self

    def _drop_frame(self, q: int) -> None:
        """Qubit q's frame bits go, and the last qubit's take its index."""
        fx, fz = self._fx.pop(), self._fz.pop()
        if q < len(self._fx):
            self._fx[q], self._fz[q] = fx, fz

    def measure_remove(self, entry, force=None, rng=None, p=None):
        """Measure Z on the reference, taking outcome 0 when it is random, and
        drop the entry.

        A record reads the history's bit XOR x_q(F). A random measurement adds
        a variable t, the record's outcome; where t XOR x_q(F) is 1 the frame
        takes the flip Pauli D, the old stabilizer that anticommuted with Z_q,
        whose support `StabilizerTableau.measure_remove` returns. So the
        columns gain D (e_t + x_q(F)).
        """
        q, tab = self.index(entry), self.tab
        bit, prob, d = tab.measure_remove(q, force=0 if tab.z_random(q) else None)
        if d is None:
            self._forms.append(self._fx[q])
        else:
            t = 1 << self._columns
            self._columns += 1
            self._forms.append(t)
            flip = t ^ self._fx[q]
            for k in d[0]:
                self._fx[k] ^= flip
            for k in d[1]:
                self._fz[k] ^= flip
        self._drop_key(q)
        self._drop_frame(q)
        return bit, prob

    def correct(self, pauli: PauliMap, outcomes) -> None:
        """After `_apply_correction`: the reference took the map's Pauli at its
        own bits c, and record v reads c + L v, L the rows of `forms` of the
        map's tags; so the columns gain M L, M the map's declared matrix, and
        the offset and c cancel."""
        row = {t: i for i, (t, _, _) in enumerate(outcomes)}
        forms = [self._forms[row[t]] for t in pauli.tags]
        qubits = [self.index(e) for e in pauli.entries]
        n = len(qubits)
        for i, j in np.argwhere(pauli.matrix % 2).tolist():
            if i < n:
                self._fx[qubits[i]] ^= forms[j]
            else:
                self._fz[qubits[i - n]] ^= forms[j]


def _enumerate_frames(protocol: Protocol, start: TableauState, branch_cap: int, target) -> EnumerationResult:
    """`enumerate_branches` from one tableau history and its affine Pauli frames.

    Every record has probability 2^-r (deterministic steps contribute 1). A
    record is the vector v in GF(2)^r of its random outcomes, and `_expand`
    lists them as it does the dense engine's, each random one flipping the
    outcomes whose forms read it. Record v's final state is F(v) |reference>:
    the reference's canonical rows c_j with signs flipped by the symplectic
    products <F(v), c_j>, linear in v, so one GF(2) product of the records
    with the columns' products scores every row. A record agrees with the
    first branch iff every product is 0, and matches a target with the
    reference's bits iff the products equal the sign differences.
    """
    framed = _FramedTableau(start)
    _, outcomes, _ = next(_execute(protocol.program, framed, lambda *_: ({},)))
    random = [j for j, (_, _, p) in enumerate(outcomes) if p == 0.5]
    forms = framed.forms
    flipped = {i: set(np.flatnonzero(forms[:, c]).tolist()) - {i} for c, i in enumerate(random)}
    tags, k, pk = _expand(outcomes, [np.full(2, p) for _, _, p in outcomes], random, flipped, branch_cap)
    reference = _finalize(framed, protocol)
    n, order = reference.tab.n, [framed.index(e) for e in reference.keys]
    rows, signs = reference.tab._canonical_rows()
    # uint8 sums and products wrap modulo 256, which keeps their parity
    flips = (k[:, random] @ (rows[:, n:] @ framed.fx[order] + rows[:, :n] @ framed.fz[order]).T) % 2
    target_rows, target_signs = (rows, signs) if target is None else target.tab._canonical_rows()
    diff = (target_signs - signs) % 4  # 0 without a target
    same = np.array_equal(rows, target_rows) and not np.any(diff % 2)
    fids = ((flips == diff // 2).all(axis=1) & same).astype(float)
    return _result(tags, k, pk, fids, not flips.any(), reference, "frames")


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


def _teleport_steps(source: EntryKey, partner: EntryKey, target: EntryKey, d: int, tag: str) -> List[Step]:
    """Bell-rotate two co-located qudits, measure them, fix the receiver: the
    Bell state X^a Z^b reads a = -m_p and b = m_s, so X^a Z^b on the target."""
    fix = PauliMap([f"{tag}s", f"{tag}p"], [target], [[0, -1], [1, 0]], d=d)
    return [
        ApplyLayers([cx.LocalLayer(bell_rotation_ops(source, partner, d))]),
        Measure(source, f"{tag}s"),
        Measure(partner, f"{tag}p"),
        Correct(fix, f"teleport fix {tag}"),
    ]
