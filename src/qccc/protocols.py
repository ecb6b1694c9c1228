"""Measurement-assisted preparation protocols: GHZ, W, 1D RG fixed points,
and the toric code.

Each constructor returns a Protocol whose `program` is the runnable step
sequence; its depth is that of the program's gates packed into site-disjoint
layers (`Protocol.schedule`), and tests assert it. Commuting blocks are
ordered so that ancillas live only while needed, which keeps the dense
backend inside its amplitude cap without costing depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import circuits as cx
from . import gates
from .lattice import Lattice
from .locc import (
    ApplyLayers,
    Correct,
    Measure,
    PauliMap,
    Protocol,
    ProtocolError,
    _teleport_steps,
)
from .stabilizer import InternalError, PauliString, StabilizerTableau
from .statevector import EntryKey, PureState, QuditRegister


# -- GHZ (ring of qubits, one ancilla per site except the first) --------------------


def ghz_state(n: int) -> PureState:
    reg = QuditRegister([(i, "s", 2) for i in range(n)])
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(reg, amps)


def ghz_generators(n: int) -> List[PauliString]:
    gens = [PauliString.from_label("+" + "X" * n)]
    for i in range(n - 1):
        z = ["I"] * n
        z[i] = z[i + 1] = "Z"
        gens.append(PauliString.from_label("+" + "".join(z)))
    return gens


def ghz_protocol(n: int) -> Tuple[Protocol, PureState]:
    """GHZ_n by a depth-2 circuit (1 at n = 2), ancilla parity measurements
    and X-string fixes. Each ancilla is measured as soon as its parity is
    written, after the next one and its pair gate, so the dense register
    stays at n + 2 qubits or fewer; the one prefix-parity Correct comes last
    (`locc._byproduct_plan` pulls it back through the later pair gates)."""
    if n < 2:
        raise ValueError("GHZ protocol needs n >= 2")
    lat = Lattice((n,))
    register = [(i, "s", 2) for i in range(n)]
    system = [(i, "s") for i in range(n)]

    pair_gate = [("H", (0,)), ("CNOT", (0, 1))]
    program: List = []
    for i in range(n):
        # a_{i+1} and its pair gate with s_i; then v|0> = |+> on the last site
        # and the parity CNOT into a_i, both site-local, hence free
        pair = cx.Gate(((i, "s"), (i + 1, "a")), list(pair_gate))
        layers = [cx.LocalLayer([cx.add_ancilla(i + 1, "a", 2)]), cx.GateLayer([pair])] if i < n - 1 else []
        if i:
            last = [cx.local_op([(i, "s")], [("Z", (0,)), ("H", (0,))])] if i == n - 1 else []
            layers.append(cx.LocalLayer(last + [cx.local_op([(i, "s"), (i, "a")], [("CNOT", (0, 1))])]))
        program += [ApplyLayers(layers)] + ([Measure((i, "a"), f"k{i}")] if i else [])
    # X on site i when k1 + ... + ki is odd: a lower-triangular prefix-parity map
    prefix = np.tril(np.ones((n - 1, n - 1), dtype=np.uint8))
    parity = PauliMap([f"k{i}" for i in range(1, n)], system[1:], np.concatenate([prefix, 0 * prefix]))
    program.append(Correct(name="parity X string", pauli=parity))
    from .statevector import max_amplitudes

    target = ghz_state(n) if 2**n <= max_amplitudes() else None
    proto = Protocol(
        name=f"ghz[{n}]",
        lattice=lat,
        register=register,
        program=program,
        system_entries=system,
        target=target,
        target_generators=ghz_generators(n),
    )
    return proto, target


# -- W state (token-passing with teleport hops) ----------------------------------------


def w_state(n: int) -> PureState:
    reg = QuditRegister([(i, "s", 2) for i in range(n)])
    amps = np.zeros(2**n, dtype=complex)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 1 / np.sqrt(n)
    return PureState(reg, amps)


def w_z_sequence(n: int) -> np.ndarray:
    """z_k = 1/sqrt(n - k + 1) for k = 1..n (closed form of the recursion)."""
    return np.array([1.0 / np.sqrt(n - k + 1) for k in range(1, n + 1)])


def _w_split_gate(z: float) -> np.ndarray:
    s = np.sqrt(max(0.0, 1.0 - z * z))
    return np.array(
        [
            [1, 0, 0, 0],
            [0, z, -s, 0],
            [0, s, z, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def w_protocol(n: int) -> Tuple[Protocol, PureState]:
    """W_n via pre-shared Bell pairs, local amplitude splitters and teleport hops."""
    if n < 2:
        raise ValueError("W protocol needs n >= 2")
    lat = Lattice((n,))
    register = [(i, "s", 2) for i in range(n)]
    system = [(i, "s") for i in range(n)]
    zs = w_z_sequence(n)

    pair_gate = [("H", (0,)), ("CNOT", (0, 1))]

    # one lazily built hop per site so only one Bell pair is alive at a time;
    # the pair gates pack into two layers (one at n = 2)
    program: List = [
        ApplyLayers(
            [
                cx.LocalLayer(
                    [
                        cx.add_ancilla(0, "al", 2),
                        cx.local_op([(0, "s")], [("X", (0,))]),
                    ]
                )
            ]
        )
    ]
    for i in range(n):
        hop_target = (i + 1, "al") if i < n - 1 else (n - 1, "al2")
        steps: List[cx.LocalAction] = [
            cx.add_ancilla(i, "ar", 2),
            cx.add_ancilla(hop_target[0], hop_target[1], 2),
        ]
        layers: List[cx.Layer] = [cx.LocalLayer(steps)]
        if i < n - 1:
            layers.append(cx.GateLayer([cx.Gate(((i, "ar"), hop_target), list(pair_gate))]))
        else:
            layers.append(cx.LocalLayer([cx.local_op([(i, "ar"), hop_target], list(pair_gate))]))
        token_ops: List[cx.LocalAction] = []
        if i > 0:
            token_ops.append(cx.local_op([(i, "al"), (i, "s")], [("SWAP", (0, 1))]))
        token_ops.append(cx.local_op([(i, "al"), (i, "s")], _w_split_gate(zs[i])))
        layers.append(cx.LocalLayer(token_ops))
        program.append(ApplyLayers(layers))
        program.extend(_teleport_steps((i, "al"), (i, "ar"), hop_target, 2, f"t{i}"))
    target = w_state(n)
    proto = Protocol(
        name=f"w[{n}]",
        lattice=lat,
        register=register,
        program=program,
        system_entries=system,
        target=target,
    )
    return proto, target


# -- RG fixed points (label/bond normal-form states on C/L/R triples) ------------------


@dataclass
class RGFixedPointSpec:
    """The target Sum_k alpha_k (x)_n |k>_{C_n} |psi_k>_{R_n, L_{n+1}} on a ring.

    bond_states may be a single (D*D,) vector shared by all k (the literal
    fixed-point form) or one vector per k (the general block case); vectors are
    indexed (r, l) with the R leg slowest.
    """

    B: int
    alphas: np.ndarray
    bond_states: Union[np.ndarray, Sequence[np.ndarray]]
    N: int
    bond_dim: int = 2

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=complex).reshape(-1)
        if self.B < 1 or len(self.alphas) != self.B:
            raise ValueError("need B >= 1 and one alpha per superposition term")
        if abs(np.linalg.norm(self.alphas) - 1.0) > 1e-10:
            raise ValueError("alphas must be l2-normalized")
        if self.N < 2:
            raise ValueError("need N >= 2 sites")
        bonds = self.bond_states
        if isinstance(bonds, np.ndarray) and bonds.ndim == 1:
            bonds = [bonds] * self.B
        bonds = [np.asarray(b, dtype=complex).reshape(-1) for b in bonds]
        if len(bonds) != self.B:
            raise ValueError("need one bond state per term (or a single shared one)")
        d2 = self.bond_dim * self.bond_dim
        for b in bonds:
            if b.size != d2:
                raise ValueError("bond states must live on C^D (x) C^D")
            if abs(np.linalg.norm(b) - 1.0) > 1e-10:
                raise ValueError("bond states must be normalized")
        self.bond_states = bonds

    @property
    def c_dim(self) -> int:
        return max(self.B, 2)


def rg_target_state(spec: RGFixedPointSpec) -> PureState:
    """Direct dense construction of the target, independent of the protocol."""
    n, ddim, cdim = spec.N, spec.bond_dim, spec.c_dim
    reg = QuditRegister(
        [(i, slot, cdim if slot == "C" else ddim) for i in range(n) for slot in ("C", "L", "R")]
    )
    dims = reg.dims
    amps = np.zeros(dims, dtype=complex)
    bonds = [b.reshape(ddim, ddim) for b in spec.bond_states]
    # bond i connects R_i with L_{i+1}; sum over all bond index assignments
    for k in range(spec.B):
        psi = bonds[k]
        for rvals in np.ndindex(*(ddim,) * n):
            for lvals in np.ndindex(*(ddim,) * n):
                c = spec.alphas[k]
                for i in range(n):
                    c = c * psi[rvals[i], lvals[(i + 1) % n]]
                if c == 0:
                    continue
                idx = []
                for i in range(n):
                    idx.extend([k, lvals[i], rvals[i]])
                amps[tuple(idx)] += c
    flat = amps.reshape(-1)
    flat = flat / np.linalg.norm(flat)
    return PureState(reg, flat)


def rg_fixed_point_protocol(spec: RGFixedPointSpec) -> Tuple[Protocol, PureState]:
    """Example-2 style preparation: bond Bell pairs, a C-register superposition,
    conditioned bond writing, and teleport hops. Gate-layer depth 4 at even N
    (2 if B=1; 3 for B > 1 at N = 2), one more at odd N, whose ring of bond
    pairs needs a third layer."""
    bonds = [b.reshape(spec.bond_dim, spec.bond_dim) for b in spec.bond_states]
    target = rg_target_state(spec)
    proto = _fixed_point_protocol(
        f"rg[B={spec.B},N={spec.N}]", Lattice((spec.N,)), 1, spec.alphas, bonds, target=target
    )
    return proto, target


def _polished_columns(cols: Dict[int, np.ndarray]) -> Tuple[Dict[int, np.ndarray], float]:
    """Gram-Schmidt polish of prescribed writer columns; returns the defect."""
    defect = 0.0
    basis: List[np.ndarray] = []
    out = {}
    for k in sorted(cols):
        orig = np.asarray(cols[k], dtype=complex)
        v = orig.copy()
        for b in basis:
            v = v - np.vdot(b, v) * b
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            raise ValueError("writer columns are not independent; blocks overlap")
        v = v / nv
        defect = max(defect, float(np.linalg.norm(v - orig)))
        basis.append(v)
        out[k] = v
    return out, defect


def _conveyor(src: EntryKey, dst: EntryKey, dim: int, via: str) -> List[cx.Layer]:
    """Layers moving the content of entry `src` into a new entry `dst` along
    the chain, one nearest-neighbor SWAP per hop through temps in slot `via`;
    `src` and the temps end in |0> and are removed."""
    if src == dst:
        return []
    s, t = src[0], dst[0]
    step = 1 if t > s else -1
    chain = [src] + [(site, via) for site in range(s + step, t, step)] + [dst]
    swap = [("SWAP", (0, 1))]
    return [
        cx.LocalLayer([cx.add_ancilla(site, slot, dim) for site, slot in chain[1:]]),
        cx.GateLayer([cx.Gate((a, b), swap) for a, b in zip(chain, chain[1:])]),
        cx.LocalLayer([cx.remove_ancilla(site, slot) for site, slot in chain[:-1]]),
    ]


def _fixed_point_protocol(
    name: str,
    lat: Lattice,
    q: int,
    alphas: np.ndarray,
    bonds: Sequence[np.ndarray],
    writer: Optional[np.ndarray] = None,
    target: Optional[PureState] = None,
) -> Protocol:
    """The renormalization fixed point sum_k alpha_k |k>_C (x)_b psi_k on blocks
    of q sites: bond Bell pairs, a C-register GHZ with its alignment fix, a
    conditioned bond writer, and teleport hops.

    Block b spans sites bq..bq+q-1 and works at its hub (first site), which
    holds the label C and the bond legs L and R. Each bond matrix psi_k is
    indexed (R leg, L leg). C takes part only with more than one label, and
    the bonds only at bond dimension > 1.

    Without `writer`, q is 1 and C, L and R are the system. A `writer` is a
    unitary on (C, L, R, s_hub, w_1 ... w_{q-1}) that writes every block onto
    the hub's site and fresh hub entries w_j, and leaves C, L and R in |0>;
    they are then ancillas, added and removed. Each w_j replaces the |0> qudit
    of site hub + j.

    Every gate joins neighboring sites. A label link is one gate from a hub
    to its neighbor and a bond pair one gate across a block boundary; SWAP
    conveyors (`_conveyor`) carry the link's far half on to the next hub, the
    pair's Rp back to its hub, and each w_j out to its site. The program runs
    block by block so that few ancillas are alive at once; `Protocol.schedule`
    runs the same stage of every block side by side, so the depth does not
    grow with the chain length. The w_j conveyors are a second quantum round.
    """
    n = lat.n_sites
    m = n // q
    hub = lambda b: b * q
    tail = lambda b: b * q + q - 1
    alphas = np.asarray(alphas, dtype=complex)
    cdim = max(len(alphas), 2)
    ddim = bonds[0].shape[0]
    use_c = len(alphas) > 1
    use_bonds = ddim > 1
    label = lambda b: [(hub(b), "C")] if use_c else []
    if writer is None:
        register = [(hub(b), slot, cdim if slot == "C" else ddim) for b in range(m) for slot in ("C", "L", "R")]
    else:
        register = [(i, "s", lat.local_dim) for i in range(n)]

    # conditioned bond writer |k>|0>|0> -> |k> psi_k on (C, Lp, R)
    cols = {}
    for k, psi in enumerate(bonds):
        vec = np.zeros((len(bonds), ddim, ddim), dtype=complex)
        vec[k] = psi.T
        cols[k * ddim * ddim] = vec.reshape(-1)
    bond_writer = gates.complete_to_unitary(_polished_columns(cols)[0])
    bell = gates.bell_pair_gate(ddim)

    def bond_pair(b: int) -> List[cx.Layer]:
        """A Bell pair on (Rp, L) across bond b, Rp carried to the hub, and
        psi_k written on (Lp, R) there."""
        legs = [(tail(b), "Rp"), (hub(b), "Lp")]
        if writer is not None:
            legs += [(hub((b + 1) % m), "L"), (hub(b), "R")]
        return (
            [
                cx.LocalLayer([cx.add_ancilla(site, slot, ddim) for site, slot in legs]),
                cx.GateLayer([cx.Gate(((tail(b), "Rp"), (hub((b + 1) % m), "L")), bell)]),
            ]
            + _conveyor((tail(b), "Rp"), (hub(b), "Rp"), ddim, "Rp")
            + [cx.LocalLayer([cx.local_op(label(b) + [(hub(b), "Lp"), (hub(b), "R")], bond_writer)])]
        )

    def block_write(b: int) -> List[cx.Layer]:
        """The writer at the hub, then each w_j carried to site hub + j."""
        d = lat.local_dim
        legs = label(b) + ([(hub(b), "L"), (hub(b), "R")] if use_bonds else [])
        fresh = [(hub(b), f"w{j}") for j in range(1, q)]
        sites = [(hub(b) + j, "s") for j in range(1, q)]
        write = cx.LocalLayer(
            [cx.remove_ancilla(site, slot) for site, slot in sites]
            + [cx.add_ancilla(site, slot, d) for site, slot in fresh]
            + [cx.local_op(legs + [(hub(b), "s")] + fresh, writer)]
            + [cx.remove_ancilla(site, slot) for site, slot in legs]
        )
        return [write] + [layer for w, e in zip(fresh, sites) for layer in _conveyor(w, e, d, w[1])]

    program: List = []
    if use_c:
        bell_c = gates.bell_pair_gate(cdim)
        program.append(
            ApplyLayers(
                [
                    cx.LocalLayer(
                        [cx.add_ancilla(hub(b), "C", cdim) for b in range(m) if writer is not None]
                        + [cx.local_op([(hub(m - 1), "C")], gates.complete_to_unitary({0: alphas}))]
                        + [cx.add_ancilla(hub(b) + 1, "Cp", cdim) for b in range(m - 1)]
                    ),
                    cx.GateLayer([cx.Gate(((hub(b), "C"), (hub(b) + 1, "Cp")), bell_c) for b in range(m - 1)]),
                ]
                + [
                    layer
                    for b in range(m - 1)
                    for layer in _conveyor((hub(b) + 1, "Cp"), (hub(b + 1), "Cp"), cdim, "Cp")
                ]
                + [
                    cx.LocalLayer(
                        [cx.local_op([(hub(b), "C"), (hub(b), "Cp")], gates.cnot_d(cdim)) for b in range(1, m)]
                    )
                ]
            )
        )
        program += [Measure((hub(b), "Cp"), f"c{b}") for b in range(1, m)]

        # hub b's label takes X^(-c_{b+1} - ... - c_{m-1})
        shifts = -np.triu(np.ones((m - 1, m - 1), dtype=int))
        labels = [(hub(b), "C") for b in range(m - 1)]
        align = PauliMap([f"c{b}" for b in range(1, m)], labels, np.vstack([shifts, 0 * shifts]), d=cdim)
        program.append(Correct(align, "label alignment"))

    for b in range(m):
        if use_bonds:
            program.append(ApplyLayers(bond_pair(b)))
        if writer is not None and b >= 1:
            program.append(ApplyLayers(block_write(b)))
        if use_bonds:
            program += _teleport_steps((hub(b), "Lp"), (hub(b), "Rp"), (hub((b + 1) % m), "L"), ddim, f"T{b}")
    if writer is not None:
        program.append(ApplyLayers(block_write(0)))

    return Protocol(
        name=name,
        lattice=lat,
        register=register,
        program=program,
        system_entries=[(site, slot) for site, slot, _ in register],
        target=target,
    )


# -- toric code ------------------------------------------------------------------------


@dataclass
class ToricCodeLayout:
    """Vertex qubits on an N x N torus; A-plaquettes on the chessboard pattern."""

    N: int

    def __post_init__(self):
        if self.N < 4 or self.N % 2:
            raise ValueError("toric code layout needs even N >= 4")
        self.lattice = Lattice((self.N, self.N))
        plaquettes = self.plaquettes_a
        row = {p: r for r, p in enumerate(plaquettes)}
        self.incidence = np.zeros((len(plaquettes), self.N * self.N), dtype=np.uint8)
        for r, p in enumerate(plaquettes):
            self.incidence[r, self.plaquette_sites(p)] = 1
        # breadth-first spanning tree of the A-plaquette graph, rooted at
        # plaquettes[0]; an edge is the qubit its two plaquettes share. Row r of
        # tree_paths marks the qubits on plaquette r's (shortest) path to the root.
        self.tree_paths = np.zeros_like(self.incidence)
        queue, seen = [plaquettes[0]], {plaquettes[0]}
        for cur in queue:
            for nb in self.plaquette_neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    self.tree_paths[row[nb]] = self.tree_paths[row[cur]]
                    self.tree_paths[row[nb], self.shared_qubit(cur, nb)] ^= 1
                    queue.append(nb)

    @property
    def plaquettes_a(self) -> List[Tuple[int, int]]:
        return [(i, j) for i in range(self.N) for j in range(self.N) if (i + j) % 2 == 0]

    def plaquette_sites(self, p: Tuple[int, int]) -> List[int]:
        i, j = p
        n = self.N
        return [
            self.lattice.site_index(((i + di) % n, (j + dj) % n))
            for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1))
        ]

    def x_p(self, p: Tuple[int, int]) -> PauliString:
        sites = self.plaquette_sites(p)
        ps = PauliString.identity(self.N * self.N)
        for s in sites:
            ps.x[s] = 1
        return ps

    def plaquette_neighbors(self, p: Tuple[int, int]) -> List[Tuple[int, int]]:
        i, j = p
        n = self.N
        return [((i + di) % n, (j + dj) % n) for di in (-1, 1) for dj in (-1, 1)]

    def shared_qubit(self, p: Tuple[int, int], q: Tuple[int, int]) -> int:
        a = set(self.plaquette_sites(p))
        b = set(self.plaquette_sites(q))
        shared = a & b
        if len(shared) != 1:
            raise ValueError(f"plaquettes {p} and {q} share {len(shared)} qubits")
        return shared.pop()


def find_tc_correction(layout: ToricCodeLayout, outcomes: Dict[Tuple[int, int], int]) -> List[int]:
    """Qubits whose sigma^z product flips exactly the negative plaquettes.

    Each negative plaquette toggles the qubits on its path to the root of the
    layout's breadth-first spanning tree (`tree_paths`); the root's own
    toggles cancel because the negatives are even in number. The result is a
    linear GF(2) map of the outcome bits. Any Z string with this syndrome
    will do, since the target is a +1 eigenstate of every closed Z loop.
    Requires prod k_p = +1. `toric_code_protocol` declares the same map
    (`_tc_sign_map`), so its runs do not call this.
    """
    negative = np.array([outcomes[p] == -1 for p in layout.plaquettes_a], dtype=np.uint8)
    if negative.sum() % 2:
        raise ValueError("product of outcomes is -1; impossible measurement record")
    # uint8 sums wrap modulo 256, which keeps their parity
    chosen = (negative @ layout.tree_paths) % 2
    bad = np.flatnonzero((layout.incidence @ chosen) % 2 != negative)
    if bad.size:
        p = layout.plaquettes_a[bad[0]]
        raise ProtocolError(f"correction parity check failed at plaquette {p}")
    return np.flatnonzero(chosen).tolist()


def _tc_sign_map(layout: ToricCodeLayout) -> PauliMap:
    """`find_tc_correction` as a declared map, k_p = 1 (a negative plaquette)
    putting Z on row p of `tree_paths`. Its table is checked once: the Z string
    of row p must flip exactly plaquettes p and the root (the root's, none), so
    with an even number of negatives every record's fix clears its syndrome."""
    paths = layout.tree_paths.T
    expected = np.eye(paths.shape[1], dtype=np.uint8)
    expected[0] ^= 1  # the root is plaquettes_a[0]
    bad = np.flatnonzero(((layout.incidence @ paths) % 2 != expected).any(axis=0))
    if bad.size:
        raise InternalError(f"the tree path of plaquette {layout.plaquettes_a[bad[0]]} has the wrong syndrome")
    tags = [f"k{i},{j}" for i, j in layout.plaquettes_a]
    return PauliMap(tags, [(s, "s") for s in range(paths.shape[0])], np.concatenate([0 * paths, paths]))


def tc_target_state(layout: ToricCodeLayout) -> PureState:
    """Dense prod_p (1 + X_p)|0...0> / norm, for N = 4 scale."""
    m = layout.N * layout.N
    reg = QuditRegister([(s, "s", 2) for s in range(m)])
    vec = np.zeros(2**m, dtype=complex)
    vec[0] = 1.0
    for p in layout.plaquettes_a:
        vec = (vec + layout.x_p(p).apply_to_vector(vec)) / np.sqrt(2)
    vec /= np.linalg.norm(vec)
    return PureState(reg, vec)


def tc_target_generators(layout: ToricCodeLayout) -> List[PauliString]:
    """Stabilizer generators of |TC> via forced X_p measurements on |0...0>."""
    m = layout.N * layout.N
    tab = StabilizerTableau(m)
    for p in layout.plaquettes_a:
        tab.measure_pauli(layout.x_p(p), force=0)
    return tab.canonical_stabilizers()


def _tc_plaquette_block(layout: ToricCodeLayout, p: Tuple[int, int]) -> List[cx.Layer]:
    """Swap-in / local V_p / swap-out gadget for one plaquette: 8 gate layers
    with the local ones in between."""
    i, j = p
    n = layout.N
    lat = layout.lattice
    c = lat.site_index((i, j))
    q_ur = lat.site_index((i, (j + 1) % n))
    q_ll = lat.site_index(((i + 1) % n, j))
    q_lr = lat.site_index(((i + 1) % n, (j + 1) % n))
    swap = [("SWAP", (0, 1))]
    g = [
        cx.GateLayer([cx.Gate(((q_ur, "s"), (c, "q1")), list(swap))]),
        cx.GateLayer([cx.Gate(((q_ll, "s"), (c, "q2")), list(swap))]),
        cx.GateLayer([cx.Gate(((q_lr, "s"), (q_ll, "h")), list(swap))]),
        cx.GateLayer([cx.Gate(((q_ll, "h"), (c, "q3")), list(swap))]),
        cx.GateLayer([cx.Gate(((c, "q3"), (q_ll, "h")), list(swap))]),
        cx.GateLayer([cx.Gate(((q_ll, "h"), (q_lr, "s")), list(swap))]),
        cx.GateLayer([cx.Gate(((c, "q2"), (q_ll, "s")), list(swap))]),
        cx.GateLayer([cx.Gate(((c, "q1"), (q_ur, "s")), list(swap))]),
    ]
    adds = cx.LocalLayer(
        [
            cx.add_ancilla(c, "ap", 2),
            cx.add_ancilla(c, "q1", 2),
            cx.add_ancilla(c, "q2", 2),
            cx.add_ancilla(c, "q3", 2),
            cx.add_ancilla(q_ll, "h", 2),
        ]
    )
    vp = cx.LocalLayer(
        [
            cx.local_op(
                [(c, "ap"), (c, "s"), (c, "q1"), (c, "q2"), (c, "q3")],
                [
                    ("H", (0,)),
                    ("CNOT", (0, 1)),
                    ("CNOT", (0, 2)),
                    ("CNOT", (0, 3)),
                    ("CNOT", (0, 4)),
                    ("H", (0,)),
                ],
            )
        ]
    )
    removes = cx.LocalLayer(
        [
            cx.remove_ancilla(c, "q1"),
            cx.remove_ancilla(c, "q2"),
            cx.remove_ancilla(c, "q3"),
            cx.remove_ancilla(q_ll, "h"),
        ]
    )
    return [adds, g[0], g[1], g[2], g[3], vp, g[4], g[5], g[6], g[7], removes]


def toric_code_protocol(n: int) -> Tuple[Protocol, Optional[PureState]]:
    """|0...0> -> |TC> with depth-11 nearest-neighbor gates plus LOCC.

    The dense target state is attached for N = 4; larger sizes certify against
    the stabilizer generators on the tableau backend.
    """
    layout = ToricCodeLayout(n)
    lat = layout.lattice
    m = n * n
    register = [(s, "s", 2) for s in range(m)]
    system = [(s, "s") for s in range(m)]

    # plaquette blocks, even rows first, each measured and dropped right away
    program: List = []
    for p in sorted(layout.plaquettes_a, key=lambda p: p[0] % 2):
        program.append(ApplyLayers(_tc_plaquette_block(layout, p)))
        corner = lat.site_index(p)
        program.append(Measure((corner, "ap"), f"k{p[0]},{p[1]}"))

    program.append(Correct(name="plaquette sign fix", pauli=_tc_sign_map(layout)))

    target = tc_target_state(layout) if n == 4 else None
    proto = Protocol(
        name=f"tc[{n}]",
        lattice=lat,
        register=register,
        program=program,
        system_entries=system,
        target=target,
        target_generators=tc_target_generators(layout),
    )
    return proto, target
