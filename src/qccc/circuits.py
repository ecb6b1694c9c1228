"""Finite-depth circuits: gate layers, free local layers, scheduling,
validation, execution.

Depth counts gate layers only. A gate acts on exactly two qudits located at
two distinct nearest-neighbor sites; within one layer the gates must touch
pairwise-disjoint sites, since a site's ancillas belong to its local space.
Local layers act site-locally (a site's physical qudits plus its ancillas),
may create and destroy ancillas, and are free. `schedule` packs a sequence of
layers into the fewest gate layers this rule allows.

Gate payloads come in two forms: a dense matrix over the gate's qudits, or a
list of named Clifford primitives ("H", "CNOT", ...) referring to positions
within the gate's entry tuple. Only the named form can run on the tableau
backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import gates
from .lattice import Lattice, distance
from .statevector import EntryKey, PureState, QuditRegister, RegionOperator, check_amplitudes

OpSpec = Union[np.ndarray, List[Tuple[str, Tuple[int, ...]]]]
SUPPORT_TOL = 1e-9  # `operator_support`'s residual threshold, relative to max(||A||, 1)


@dataclass
class Gate:
    """Two-qudit gate on entries at two distinct nearest-neighbor sites."""

    entries: Tuple[EntryKey, ...]
    spec: OpSpec

    def __post_init__(self):
        self.entries = tuple((int(s), str(sl)) for s, sl in self.entries)

    def sites(self) -> Tuple[int, ...]:
        return tuple(sorted({s for s, _ in self.entries}))


@dataclass
class GateLayer:
    gates: List[Gate] = field(default_factory=list)


@dataclass
class LocalAction:
    """One site-local action: kind in {"op", "add", "remove"}."""

    kind: str
    entries: Tuple[EntryKey, ...] = ()
    spec: Optional[OpSpec] = None
    dim: int = 2
    init_state: Optional[np.ndarray] = None


def local_op(entries: Sequence[EntryKey], spec: OpSpec) -> LocalAction:
    return LocalAction("op", tuple(entries), spec)


def add_ancilla(site: int, slot: str, dim: int = 2, init_state=None) -> LocalAction:
    return LocalAction("add", ((site, slot),), None, dim, init_state)


def remove_ancilla(site: int, slot: str) -> LocalAction:
    return LocalAction("remove", ((site, slot),))


@dataclass
class LocalLayer:
    actions: List[LocalAction] = field(default_factory=list)


Layer = Union[GateLayer, LocalLayer]


@dataclass
class Circuit:
    lattice: Lattice
    layers: List[Layer] = field(default_factory=list)

    def depth(self) -> int:
        return sum(1 for layer in self.layers if isinstance(layer, GateLayer))

    def gate_count(self) -> int:
        return sum(len(l.gates) for l in self.layers if isinstance(l, GateLayer))


def schedule(lattice: Lattice, layers: Iterable[Layer]) -> Circuit:
    """The layers' gates packed as soon as possible into site-disjoint layers.

    Each gate, in order, goes into the first gate layer after the last gate on
    any of its entries in which neither of its sites is busy. Local actions
    cost no depth: each runs just before the first gate layer its entries are
    free for, and orders those entries. Entries are keyed by name, so one that
    is removed and added again is the same qudit. Every entry sees its gates
    and actions in their original order, and operations on distinct entries
    commute, so the circuit applies the same map as the layers in sequence.
    """
    gate_layers: List[List[Gate]] = []
    busy: List[set] = []  # the sites of each gate layer
    local: dict = {}  # t -> the actions that run before gate layer t
    ready: dict = {}  # entry -> the first gate layer it is free for
    for layer in layers:
        if isinstance(layer, GateLayer):
            for g in layer.gates:
                sites = {s for s, _ in g.entries}
                t = max(ready.get(e, 0) for e in g.entries)
                while t < len(busy) and not busy[t].isdisjoint(sites):
                    t += 1
                if t == len(busy):
                    busy.append(set())
                    gate_layers.append([])
                busy[t] |= sites
                gate_layers[t].append(g)
                for e in g.entries:
                    ready[e] = t + 1
        else:
            for act in layer.actions:
                t = max(ready.get(e, 0) for e in act.entries)
                local.setdefault(t, []).append(act)
                for e in act.entries:
                    ready[e] = t
    out: List[Layer] = []
    for t in range(len(gate_layers) + 1):
        if t in local:
            out.append(LocalLayer(local[t]))
        if t < len(gate_layers):
            out.append(GateLayer(gate_layers[t]))
    return Circuit(lattice, out)


@dataclass
class Violation:
    layer: int
    sites: Tuple[int, ...]
    reason: str


def validate(circuit: Circuit, register: List[Tuple[int, str, int]]) -> List[Violation]:
    """Structural validation against the initial register, which is required;
    returns an empty list when the circuit is valid.

    Entry existence and dimensions are tracked through add/remove actions, and
    dense gate payloads are checked for unitarity at the correct dimension.
    """
    out: List[Violation] = []
    lat = circuit.lattice
    dims = {(s, sl): d for s, sl, d in register}
    for li, layer in enumerate(circuit.layers):
        if isinstance(layer, GateLayer):
            used = set()
            for g in layer.gates:
                sites = {s for s, _ in g.entries}
                if len(g.entries) != 2 or len(sites) != 2:
                    out.append(Violation(li, tuple(sites), "gate must touch two qudits at two distinct sites"))
                    continue
                a, b = sorted(sites)
                if not lat.adjacent(a, b):
                    out.append(Violation(li, (a, b), "gate sites are not nearest neighbors"))
                for s in sites & used:
                    out.append(Violation(li, g.sites(), f"site {s} used twice in one layer"))
                used |= sites
                for e in g.entries:
                    if e not in dims:
                        out.append(Violation(li, g.sites(), f"entry {e} does not exist here"))
                if isinstance(g.spec, np.ndarray):
                    if not gates.is_unitary(g.spec):
                        out.append(Violation(li, g.sites(), "gate matrix is not unitary"))
                    elif all(e in dims for e in g.entries):
                        want = dims[g.entries[0]] * dims[g.entries[1]]
                        if g.spec.shape[0] != want:
                            out.append(Violation(li, g.sites(), "gate matrix dimension mismatch"))
        else:
            for act in layer.actions:
                sites = {s for s, _ in act.entries}
                if act.kind == "op":
                    if len(sites) != 1:
                        out.append(Violation(li, tuple(sites), "local op spans several sites"))
                    if isinstance(act.spec, np.ndarray) and not gates.is_unitary(act.spec):
                        out.append(Violation(li, tuple(sites), "local op matrix is not unitary"))
                    for e in act.entries:
                        if e not in dims:
                            out.append(Violation(li, tuple(sites), f"entry {e} does not exist here"))
                elif act.kind == "add":
                    e = act.entries[0]
                    if e in dims:
                        out.append(Violation(li, tuple(sites), f"entry {e} added twice"))
                    else:
                        dims[e] = act.dim
                elif act.kind == "remove":
                    e = act.entries[0]
                    if e not in dims:
                        out.append(Violation(li, tuple(sites), f"entry {e} removed but absent"))
                    else:
                        del dims[e]
    return out


# -- execution -----------------------------------------------------------------


_COMPOSED_CACHE: dict = {}


def composed_named_matrix(names: Tuple[Tuple[str, Tuple[int, ...]], ...], dims: Tuple[int, ...]) -> np.ndarray:
    """Dense matrix of a named-gate sequence over a small entry tuple."""
    key = (names, dims)
    cached = _COMPOSED_CACHE.get(key)
    if cached is not None:
        return cached
    total = int(np.prod(dims))
    m = np.eye(total, dtype=complex)
    for name, idx in names:
        g = gates.named_gate(name)
        m = _embed_matrix(g, idx, dims) @ m
    if len(_COMPOSED_CACHE) < 512:
        _COMPOSED_CACHE[key] = m
    return m


def _embed_matrix(g: np.ndarray, idx: Tuple[int, ...], dims: Tuple[int, ...]) -> np.ndarray:
    n = len(dims)
    axes = list(idx) + [a for a in range(n) if a not in idx]
    t = np.eye(int(np.prod(dims)), dtype=complex).reshape(tuple(dims) * 2)
    # act on the output axes of the identity, then restore axis order
    perm = axes + [n + a for a in range(n)]
    sub_dim = int(np.prod([dims[a] for a in idx]))
    t = t.transpose(perm).reshape(sub_dim, -1)
    t = g @ t
    t = t.reshape([dims[a] for a in axes] + list(dims))
    inv = np.argsort(axes).tolist()
    t = t.transpose(inv + [n + a for a in range(n)])
    return t.reshape(int(np.prod(dims)), int(np.prod(dims)))


def _apply_spec(state, entries: Tuple[EntryKey, ...], spec: OpSpec) -> None:
    if isinstance(spec, np.ndarray):
        if isinstance(state, PureState):
            state.apply(RegionOperator(entries, spec), unitary_check=False)
        else:
            raise TypeError("tableau backend cannot apply dense matrices")
        return
    if isinstance(state, PureState) and len(spec) > 1:
        dims = tuple(state.register.dim(e) for e in entries)
        if int(np.prod(dims)) <= 64:
            names = tuple((name, tuple(idx)) for name, idx in spec)
            m = composed_named_matrix(names, dims)
            state.apply(RegionOperator(entries, m), unitary_check=False)
            return
    for name, idx in spec:
        sub = tuple(entries[i] for i in idx)
        state.apply_named(name, sub)


def apply_layer(state, layer: Layer) -> None:
    if isinstance(layer, GateLayer):
        for g in layer.gates:
            _apply_spec(state, g.entries, g.spec)
    else:
        for act in layer.actions:
            if act.kind == "op":
                _apply_spec(state, act.entries, act.spec)
            elif act.kind == "add":
                (site, slot) = act.entries[0]
                state.add_entry(site, slot, act.dim, act.init_state)
            elif act.kind == "remove":
                state.remove_entry(act.entries[0])
            else:
                raise ValueError(f"unknown local action {act.kind!r}")


def run(circuit: Circuit, state):
    """Apply all layers in order to a dense or tableau state (in place)."""
    for layer in circuit.layers:
        apply_layer(state, layer)
    return state


def circuit_unitary(circuit: Circuit, register: List[Tuple[int, str, int]]) -> np.ndarray:
    """Dense unitary of a circuit over `register` (ancillas it adds, it removes).

    One run takes every basis column: a reference entry of dimension dim holds
    the column index, so the state starts as the identity and ends as U. The
    register refuses dim^2 amplitudes above the cap before np.eye allocates.
    """
    dim = QuditRegister(register).total_dim
    ref = QuditRegister(list(register) + [(-1, "columns", dim)])
    st = PureState(ref, np.eye(dim, dtype=complex), norm_tol=np.inf)
    run(circuit, st)
    return st.amps.reshape(dim, dim)


# -- the shift construction ------------------------------------------------------


def build_shift_circuit(lat: Lattice) -> Circuit:
    """Swap circuit implementing the left shift T on a 1D periodic chain:
    depth 2 at even n, 3 at odd n, where the ring's n edges need three
    site-disjoint layers.

    One "shift" ancilla per site; the combined action is T on the system and the
    inverse shift on the ancillas, which end in their initial product state
    and are removed at the end.
    """
    if lat.ndim != 1 or not lat.periodic:
        raise ValueError("shift circuit requires a 1D periodic lattice")
    n = lat.n_sites
    d = lat.local_dim
    swap = [("SWAP", (0, 1))]
    adds = LocalLayer([add_ancilla(j, "shift", d) for j in range(n)])
    swaps = GateLayer([Gate(((j, "s"), ((j - 1) % n, "shift")), swap) for j in range(n)])
    unswap = LocalLayer([local_op([(j, "s"), (j, "shift")], swap) for j in range(n)])
    removes = LocalLayer([remove_ancilla(j, "shift") for j in range(n)])
    return schedule(lat, [adds, swaps, unswap, removes])


def _shift_unitary(lat: Lattice) -> np.ndarray:
    """Dense permutation matrix of the left shift on a 1D periodic chain."""
    n, d = lat.n_sites, lat.local_dim
    dim = d**n
    check_amplitudes(dim * dim, "the shift unitary")
    digits = np.indices((d,) * n).reshape(n, dim)
    u = np.zeros((dim, dim), dtype=complex)
    u[np.ravel_multi_index(np.roll(digits, -1, axis=0), (d,) * n), np.arange(dim)] = 1.0
    return u


def _random_circuit(lat: Lattice, depth: int, rng: np.random.Generator) -> Circuit:
    """Brickwork of Haar-random two-site gates on the system qudits of a chain."""
    n = lat.n_sites
    d = lat.local_dim
    layers = []
    for layer_i in range(depth):
        offset = layer_i % 2
        gates_ = []
        for i in range(offset, n - 1, 2):
            gates_.append(Gate(((i, "s"), (i + 1, "s")), gates.random_unitary(d * d, rng)))
        layers.append(GateLayer(gates_))
    return Circuit(lat, layers)


# -- QCA range estimation ----------------------------------------------------------


def operator_support(op: np.ndarray, lat: Lattice) -> Tuple[int, ...]:
    """Sites where the operator acts nontrivially, by the partial-trace criterion.

    Site j is in the support when ||A - 1_j (x) tr_j A / d|| > SUPPORT_TOL max(||A||, 1).
    The residual is summed block by block over the (j, j') index pair: the
    off-diagonal blocks by their weight in |A|^2, the diagonal blocks A_aa by
    sum_a ||A_aa - mean||^2 = (1/d) sum_{a<b} ||A_aa - A_bb||^2 over strided
    views of A, never as a difference of large norms.
    """
    n = lat.n_sites
    d = lat.local_dim
    bound = SUPPORT_TOL * max(np.linalg.norm(op), 1.0)
    # block weights of every site at once: E^T |A|^2 E, E[r, (j, a)] = [digit j of r is a]
    digits = np.indices((d,) * n).reshape(n, -1).T
    e = (digits[:, :, None] == np.arange(d)).reshape(-1, n * d).astype(float)
    w = (e.T @ (np.abs(op) ** 2 @ e)).reshape(n, d, n, d)
    off = ~np.eye(d, dtype=bool)
    support = []
    for j in range(n):
        blocks = op.reshape((d**j, d, d ** (n - j - 1)) * 2)
        diffs = (blocks[:, a, :, :, a, :] - blocks[:, b, :, :, b, :] for a in range(d) for b in range(a + 1, d))
        res2 = w[j, :, j, :][off].sum() + sum(np.vdot(x, x).real for x in diffs) / d
        if np.sqrt(res2) > bound:
            support.append(j)
    return tuple(support)


def estimate_range(unitary: np.ndarray, lat: Lattice) -> int:
    """QCA range: the largest site-distance growth of Heisenberg-evolved
    single-site operators.

    Each site i evolves the d - 1 matrix units E_k = |k><k+1|_i: with U_k the
    rows of U whose digit i is k, U^dag E_k U = U_k^dag U_{k+1}, one product of
    inner size dim/d. The E_k and their adjoints generate the site's algebra
    (E_k E_k^dag = |k><k|, E_k E_{k+1} = |k><k+2|), supp(A^dag) = supp(A) and
    supp(U^dag A B U) lies within supp(U^dag A U) | supp(U^dag B U), so the
    union of their supports is the support of the whole evolved site algebra.
    """
    n = lat.n_sites
    d = lat.local_dim
    dim = d**n
    check_amplitudes(dim * dim, "estimate_range")
    if unitary.shape != (dim, dim):
        raise ValueError("unitary dimension does not match the lattice")
    u_sites = unitary.reshape((d,) * n + (dim,))
    r = 0
    for i in range(n):
        rows = [np.take(u_sites, k, axis=i).reshape(dim // d, dim) for k in range(d)]
        for k in range(d - 1):
            for j in operator_support(rows[k].conj().T @ rows[k + 1], lat):
                if j != i:
                    r = max(r, distance(lat, [i], [j]))
    return r
