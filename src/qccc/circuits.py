"""Finite-depth circuits: gate layers, free local layers, validation, execution.

Depth counts gate layers only. A gate acts on exactly two qudits located at
two distinct nearest-neighbor sites; within one layer the gates must touch
pairwise-disjoint qudits. Local layers act site-locally (a site's physical
qudits plus its ancillas), may create and destroy ancillas, and are free.

Gate payloads come in two forms: a dense matrix over the gate's qudits, or a
list of named Clifford primitives ("H", "CNOT", ...) referring to positions
within the gate's entry tuple. Only the named form can run on the tableau
backend.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import gates
from .lattice import Lattice, distance
from .statevector import EntryKey, PureState, QuditRegister, RegionOperator

OpSpec = Union[np.ndarray, List[Tuple[str, Tuple[int, ...]]]]


@dataclass
class Gate:
    """Two-qudit gate on entries at two distinct nearest-neighbor sites."""

    entries: Tuple[EntryKey, ...]
    spec: OpSpec

    def __post_init__(self):
        self.entries = tuple((int(s), str(sl)) for s, sl in self.entries)

    def sites(self) -> Tuple[int, ...]:
        return tuple(sorted({s for s, _ in self.entries}))

    def is_named(self) -> bool:
        return not isinstance(self.spec, np.ndarray)


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


def parallel(blocks: Sequence[Sequence[Layer]]) -> List[Layer]:
    """Run per-block layer sequences side by side: layer i of the result holds
    layer i of every block, and a shorter block idles. The blocks must act on
    disjoint qudits and agree on the kind of every layer they share."""
    out: List[Layer] = []
    for i, stage in enumerate(itertools.zip_longest(*blocks)):
        stage = [layer for layer in stage if layer is not None]
        if all(isinstance(layer, GateLayer) for layer in stage):
            out.append(GateLayer([g for layer in stage for g in layer.gates]))
        elif all(isinstance(layer, LocalLayer) for layer in stage):
            out.append(LocalLayer([a for layer in stage for a in layer.actions]))
        else:
            raise ValueError(f"blocks disagree on the kind of layer {i}")
    return out


@dataclass
class Violation:
    layer: int
    sites: Tuple[int, ...]
    reason: str


def validate(circuit: Circuit, register: Optional[List[Tuple[int, str, int]]] = None) -> List[Violation]:
    """Structural validation; returns an empty list when the circuit is valid.

    When an initial register is given, entry existence and dimensions are
    tracked through add/remove actions and dense gate payloads are checked for
    unitarity at the correct dimension.
    """
    out: List[Violation] = []
    lat = circuit.lattice
    dims = {(s, sl): d for s, sl, d in register} if register is not None else None
    for li, layer in enumerate(circuit.layers):
        if isinstance(layer, GateLayer):
            used = set()
            for g in layer.gates:
                sites = {s for s, _ in g.entries}
                if len(g.entries) != 2 or len(sites) != 2:
                    out.append(Violation(li, tuple(sites), "gate must touch two qudits at two distinct sites"))
                    continue
                a, b = sorted(sites)
                if distance(lat, [a], [b]) != 1:
                    out.append(Violation(li, (a, b), "gate sites are not nearest neighbors"))
                for e in g.entries:
                    if e in used:
                        out.append(Violation(li, g.sites(), f"qudit {e} used twice in one layer"))
                    used.add(e)
                    if dims is not None and e not in dims:
                        out.append(Violation(li, g.sites(), f"entry {e} does not exist here"))
                if isinstance(g.spec, np.ndarray):
                    if not gates.is_unitary(g.spec):
                        out.append(Violation(li, g.sites(), "gate matrix is not unitary"))
                    elif dims is not None and all(e in dims for e in g.entries):
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
                    if dims is not None:
                        for e in act.entries:
                            if e not in dims:
                                out.append(Violation(li, tuple(sites), f"entry {e} does not exist here"))
                elif act.kind == "add" and dims is not None:
                    e = act.entries[0]
                    if e in dims:
                        out.append(Violation(li, tuple(sites), f"entry {e} added twice"))
                    else:
                        dims[e] = act.dim
                elif act.kind == "remove" and dims is not None:
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
    """Dense unitary of a circuit without add/remove actions (small registers)."""
    reg = QuditRegister(register)
    dim = reg.total_dim
    if dim > 2**14:
        raise ValueError("circuit_unitary capped at total dimension 2^14")
    cols = []
    for b in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[b] = 1.0
        st = PureState(reg, amps)
        run(circuit, st)
        cols.append(st.amps)
    return np.array(cols).T


# -- the shift construction ------------------------------------------------------


def build_shift_circuit(lat: Lattice, slot: str = "shift") -> Circuit:
    """Depth-2 swap circuit implementing the left shift T on a 1D periodic chain.

    One ancilla per site; the combined action is T on the system and the
    inverse shift on the ancillas, which end in their initial product state
    and are removed at the end.
    """
    if lat.ndim != 1 or not lat.periodic:
        raise ValueError("shift circuit requires a 1D periodic lattice")
    n = lat.n_sites
    d = lat.local_dim
    swap = gates.swap_d(d, d)
    adds = LocalLayer([add_ancilla(j, slot, d) for j in range(n)])
    even = GateLayer(
        [Gate(((j, "s"), ((j - 1) % n, slot)), swap) for j in range(0, n, 2)]
    )
    odd = GateLayer(
        [Gate(((j, "s"), ((j - 1) % n, slot)), swap) for j in range(1, n, 2)]
    )
    unswap = LocalLayer([local_op([(j, "s"), (j, slot)], swap) for j in range(n)])
    removes = LocalLayer([remove_ancilla(j, slot) for j in range(n)])
    return Circuit(lat, [adds, even, odd, unswap, removes])


def _shift_unitary(lat: Lattice) -> np.ndarray:
    """Dense permutation matrix of the left shift on a 1D periodic chain."""
    n, d = lat.n_sites, lat.local_dim
    dim = d**n
    u = np.zeros((dim, dim), dtype=complex)
    for basis in np.ndindex(*(d,) * n):
        src = 0
        for i in range(n):
            src = src * d + basis[i]
        shifted = tuple(basis[(i + 1) % n] for i in range(n))
        dst = 0
        for i in range(n):
            dst = dst * d + shifted[i]
        u[dst, src] = 1.0
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


def _site_operator_basis(d: int) -> List[np.ndarray]:
    """d^2 - 1 traceless unitary basis ops (shift/clock monomials)."""
    ops = []
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(gates.shift_x(d, a) @ gates.clock_z(d, b))
    return ops


def operator_support(op: np.ndarray, lat: Lattice, tol: float = 1e-9) -> Tuple[int, ...]:
    """Sites where the operator acts nontrivially, by the partial-trace criterion."""
    n = lat.n_sites
    d = lat.local_dim
    norm = np.linalg.norm(op)
    support = []
    t = op.reshape((d,) * (2 * n))
    for j in range(n):
        # trace out site j, then rebuild 1_j (x) tr_j/d at the same axis position
        tr = np.trace(t, axis1=j, axis2=n + j) / d
        rebuilt = np.tensordot(np.eye(d), tr.reshape((d,) * (2 * (n - 1))), axes=0)
        perm_out = list(range(2, 2 + (n - 1)))
        perm_in = list(range(2 + (n - 1), 2 + 2 * (n - 1)))
        perm_out.insert(j, 0)
        perm_in.insert(j, 1)
        rebuilt = np.transpose(rebuilt, perm_out + perm_in)
        if np.linalg.norm(op - rebuilt.reshape(op.shape)) > tol * max(norm, 1.0):
            support.append(j)
    return tuple(support)


def estimate_range(unitary: np.ndarray, lat: Lattice, tol: float = 1e-9) -> int:
    """QCA range: the largest site-distance growth of Heisenberg-evolved
    single-site operators."""
    n = lat.n_sites
    d = lat.local_dim
    dim = d**n
    if dim > 2**14:
        raise ValueError("estimate_range capped at total dimension 2^14")
    if unitary.shape != (dim, dim):
        raise ValueError("unitary dimension does not match the lattice")
    basis = _site_operator_basis(d)
    udag = unitary.conj().T
    r = 0
    for i in range(n):
        for op in basis:
            full = _embed_site_op(op, i, n, d)
            evolved = udag @ full @ unitary
            supp = operator_support(evolved, lat, tol)
            for j in supp:
                if j != i:
                    r = max(r, distance(lat, [i], [j]))
    return r


def _embed_site_op(op: np.ndarray, site: int, n: int, d: int) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for j in range(n):
        m = np.kron(m, op if j == site else np.eye(d))
    return m


# -- serialization -----------------------------------------------------------------


def _spec_to_json(spec: OpSpec):
    if isinstance(spec, np.ndarray):
        return {"matrix": [[[float(v.real), float(v.imag)] for v in row] for row in spec]}
    return {"named": [[name, list(idx)] for name, idx in spec]}


def _spec_from_json(data) -> OpSpec:
    if "matrix" in data:
        return np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    return [(name, tuple(idx)) for name, idx in data["named"]]


def circuit_to_json(circuit: Circuit) -> str:
    layers = []
    for layer in circuit.layers:
        if isinstance(layer, GateLayer):
            layers.append(
                {
                    "type": "gates",
                    "gates": [
                        {"entries": [list(e) for e in g.entries], "spec": _spec_to_json(g.spec)}
                        for g in layer.gates
                    ],
                }
            )
        else:
            acts = []
            for a in layer.actions:
                item = {"kind": a.kind, "entries": [list(e) for e in a.entries]}
                if a.kind == "op":
                    item["spec"] = _spec_to_json(a.spec)
                elif a.kind == "add":
                    item["dim"] = a.dim
                    if a.init_state is not None:
                        item["state"] = [[float(v.real), float(v.imag)] for v in a.init_state]
                acts.append(item)
            layers.append({"type": "local", "actions": acts})
    return json.dumps({"lattice": circuit.lattice.to_config(), "layers": layers})


def circuit_from_json(text: str) -> Circuit:
    data = json.loads(text)
    lat = Lattice.from_config(data["lattice"])
    layers: List[Layer] = []
    for ld in data["layers"]:
        if ld["type"] == "gates":
            layers.append(
                GateLayer(
                    [
                        Gate(tuple(tuple(e) for e in g["entries"]), _spec_from_json(g["spec"]))
                        for g in ld["gates"]
                    ]
                )
            )
        else:
            acts = []
            for a in ld["actions"]:
                entries = tuple(tuple(e) for e in a["entries"])
                if a["kind"] == "op":
                    acts.append(LocalAction("op", entries, _spec_from_json(a["spec"])))
                elif a["kind"] == "add":
                    init = None
                    if "state" in a:
                        init = np.array([complex(re, im) for re, im in a["state"]])
                    acts.append(LocalAction("add", entries, None, a.get("dim", 2), init))
                else:
                    acts.append(LocalAction("remove", entries))
            layers.append(LocalLayer(acts))
    return Circuit(lat, layers)
