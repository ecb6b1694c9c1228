"""Executable no-go criteria and the measurement-based Clifford gadget.

Three families of checks:

* factorization witness: far-separated operators must have factorizing
  expectation values in any state produced by a depth-ell circuit, so a
  nonzero residual at distance > 2 ell rules such circuits out;
* area-law audit: max-entropy across every cut, compared against a
  per-boundary-site budget;
* Choi-state unitaries: a stabilizer resource, entangled site-by-site with
  ancillas, implements a Clifford deterministically through Bell measurements
  and Pauli frame fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import circuits as cx
from . import gates
from .lattice import Lattice, boundary, distance
from .locc import (
    DETERMINISM_TOL,
    ApplyLayers,
    Correct,
    Measure,
    PauliMap,
    Protocol,
    bell_rotation_ops,
    enumerate_branches,
    run_sampled,
)
from .stabilizer import (
    CliffordMap,
    GraphState,
    InternalError,
    PauliString,
    StabilizerTableau,
    TableauState,
    _gf2_solve_many,
    _product,
    to_graph_state,
)
from .statevector import PureState, QuditRegister, RegionOperator

# -- factorization of distant observables ------------------------------------------


@dataclass
class FactorizationReport:
    region_a: Tuple[int, ...]
    region_b: Tuple[int, ...]
    separation: int
    lhs: complex
    rhs: complex
    residual: float
    depth_claim: Optional[int] = None
    violates_depth_claim: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "region_a": list(self.region_a),
            "region_b": list(self.region_b),
            "separation": self.separation,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "depth_claim": self.depth_claim,
            "violates_depth_claim": self.violates_depth_claim,
        }


def check_factorization(
    state: PureState,
    lat: Lattice,
    op_a: RegionOperator,
    op_b: RegionOperator,
    depth_claim: Optional[int] = None,
    tol: float = 1e-6,
) -> FactorizationReport:
    """Compare <X_A Y_B> with <X_A><Y_B> for operators on disjoint supports.

    A residual above tol at separation d(A, B) > 2 ell witnesses that no
    depth-ell circuit (without measurements) prepares the state.
    """
    sites_a = tuple(sorted({s for s, _ in op_a.entries}))
    sites_b = tuple(sorted({s for s, _ in op_b.entries}))
    if set(op_a.entries) & set(op_b.entries):
        raise ValueError("operators must have disjoint supports")
    sep = distance(lat, sites_a, sites_b)
    joint = RegionOperator(op_a.entries + op_b.entries, np.kron(op_a.matrix, op_b.matrix))
    lhs = state.expectation(joint)
    rhs = complex(state.expectation(op_a) * state.expectation(op_b))
    residual = abs(lhs - rhs)
    violates = None
    if depth_claim is not None:
        violates = bool(residual > tol and sep > 2 * depth_claim)
    return FactorizationReport(sites_a, sites_b, sep, lhs, rhs, residual, depth_claim, violates)


# -- area law ------------------------------------------------------------------------


@dataclass
class AreaLawEntry:
    region: Tuple[int, ...]
    boundary_size: int
    s0: float
    budget: float
    passes: bool


@dataclass
class AreaLawReport:
    constant: float
    depth: int
    entries: List[AreaLawEntry]

    @property
    def passes(self) -> bool:
        return all(e.passes for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "constant": self.constant,
            "depth": self.depth,
            "passes": self.passes,
            "entries": [
                {
                    "region": list(e.region),
                    "boundary": e.boundary_size,
                    "s0": e.s0,
                    "budget": e.budget,
                    "passes": e.passes,
                }
                for e in self.entries
            ],
        }


def area_law_audit(
    subject,
    regions: Sequence[Sequence[int]],
    c: Optional[float] = None,
    depth: Optional[int] = None,
    lat: Optional[Lattice] = None,
    seed: int = 1,
    rank_tol: float = 1e-10,
) -> AreaLawReport:
    """Audit S0(A) <= c |dA| over the given regions.

    `subject` is a Protocol (one sampled branch is prepared; deterministic
    protocols make the branch choice irrelevant) or a PureState with `lat` and
    `depth` supplied. The default budget constant is c = 2 * depth * log2(d):
    each gate layer can add at most one cut-crossing two-qudit gate per
    boundary site.
    """
    if isinstance(subject, Protocol):
        lat = subject.lattice
        depth = subject.depth() if depth is None else depth
        state, _ = run_sampled(subject, seed=seed, backend="dense")
    else:
        state = subject
        if lat is None or depth is None:
            raise ValueError("state audits need an explicit lattice and depth")
    if c is None:
        c = 2.0 * depth * math.log2(lat.local_dim)
    entries = []
    for sites in regions:
        reg = lat.region(sites)
        _, bsize = boundary(lat, reg)
        keys = [k for k in state.register.keys if k[0] in set(reg.sites)]
        s0 = state.max_entropy(keys, rank_tol=rank_tol)
        budget = c * bsize
        entries.append(AreaLawEntry(tuple(reg.sites), bsize, s0, budget, s0 <= budget + 1e-9))
    return AreaLawReport(c, depth, entries)


# -- deterministic Clifford unitaries from stabilizer resources ------------------------


@dataclass
class CJProtocol:
    """A stabilizer resource compiled into a deterministic unitary gadget.

    The resource (on the "s" carriers) is entangled with one ancilla per site,
    producing the Choi state of a Clifford U; Bell-measuring the ancillas
    against an input register and fixing the Pauli frame applies U to the
    input, deterministically on every branch.
    """

    n: int
    resource: StabilizerTableau  # state placed on the s register (graph form)
    prep_gates: List[Tuple[str, int]]  # local gates from the raw resource to `resource`
    entangler: str  # "CZ" (graph resources) or "CNOT" (Bell-pair convention)
    u_map: CliffordMap
    graph: Optional[GraphState] = None

    def u_dense(self) -> np.ndarray:
        """Dense matrix of the implied unitary (small n): columns from the
        Choi state, U|j> = sqrt(2^n) <j|_a R. Global phase fixed so that the
        first entry of largest magnitude in column 0 is real positive."""
        r = self._choi_tableau()
        vec = r.tab.to_statevector()
        dim = 1 << self.n
        t = vec.reshape(dim, dim)  # s-block slowest: rows = s, cols = a
        u = t * math.sqrt(dim)
        col = u[:, 0]
        pivot = int(np.argmax(np.abs(col) > np.max(np.abs(col)) - 1e-9))
        u = u * (abs(col[pivot]) / col[pivot])
        return u

    def _choi_tableau(self) -> TableauState:
        ts = TableauState(self._entries("s", "a"))
        ts.tab = self.resource.copy().add_qubits(self.n)
        cx.apply_layer(ts, self._entangler_layer())
        return ts

    def _entries(self, *slots: str) -> List[Tuple[int, str, int]]:
        return [(k, slot, 2) for slot in slots for k in range(self.n)]

    def _entangler_layer(self) -> cx.LocalLayer:
        """H on every ancilla, then the entangler from it onto its resource carrier."""
        return cx.LocalLayer(
            [
                cx.local_op([(k, "a"), (k, "s")], [("H", (0,)), (self.entangler, (0, 1))])
                for k in range(self.n)
            ]
        )

    def initial_state(self, input_state, backend: str = "dense"):
        """resource (x) |0...0>_a (x) input, over the s, a and in carriers.

        input_state is a PureState over (k, "in") for the dense backend, or a
        list of named Clifford gates preparing it from |0...0> for the tableau.
        """
        if backend == "dense":
            ancillas = np.zeros(1 << self.n)
            ancillas[0] = 1.0
            amps = np.kron(np.kron(self.resource.to_statevector(), ancillas), input_state.amps)
            return PureState(QuditRegister(self._entries("s", "a", "in")), amps)
        if backend == "tableau":
            ts = TableauState(self._entries("s", "a", "in"))
            ts.tab = self.resource.copy().add_qubits(2 * self.n)
            for name, qubits in input_state or []:
                ts.apply_named(name, [(q, "in") for q in qubits])
            return ts
        raise ValueError(f"unknown backend {backend!r}")

    def protocol(self) -> Protocol:
        """The gadget program: H and the entangler on every (a, s) pair, then per
        site the Bell rotation of (a, in) and its two measurements, then w^dag."""
        n = self.n
        if n < 2:
            raise ValueError(f"a gadget's protocol runs on n >= 2 sites, got n = {n}")
        program: List = [ApplyLayers([self._entangler_layer()])]
        for k in range(n):
            program += [
                ApplyLayers([cx.LocalLayer(bell_rotation_ops((k, "a"), (k, "in"), 2))]),
                Measure((k, "in"), f"in{k}"),
                Measure((k, "a"), f"a{k}"),
            ]

        # the rotation CNOT(a -> in), H(a) maps (X^alpha Z^beta x 1)_{a,in}|Phi+>
        # to |beta>_a |alpha>_in, so site k's outcomes insert X_k^{m_in} Z_k^{m_a}
        # on the input, which w^dag = U X_k^{m_in} Z_k^{m_a} U^dag undoes up to phase:
        # column in{k} is the x|z image of X_k (row k of u_map), a{k} that of Z_k
        tags = [f"in{k}" for k in range(n)] + [f"a{k}" for k in range(n)]
        images = np.concatenate([self.u_map.x, self.u_map.z], axis=1).T
        frame = PauliMap(tags, [(k, "s") for k in range(n)], images)
        program.append(Correct(name="Pauli frame w^dag", pauli=frame))
        return Protocol(
            name=f"cj[{n}]",
            lattice=Lattice((n,)),
            register=self._entries("s", "a", "in"),
            program=program,
            system_entries=[(k, "s") for k in range(n)],
            clifford=True,
        )


def _extract_clifford_map(choi: TableauState, n: int) -> CliffordMap:
    """Read off U X_k U^dag and U Z_k U^dag from the Choi state's stabilizers.

    Phi+ pairs are stabilized by X_s X_a and Z_s Z_a, so R = (U x 1) Phi+ has
    group elements (U X_k U^dag)_s X_{a_k} and (U Z_k U^dag)_s Z_{a_k}; they
    are isolated by solving a GF(2) system over the generators' a-side bits.
    """
    tab = choi.tab
    gx, gz, gr = tab.x[tab.n :], tab.z[tab.n :], tab.r[tab.n :]
    # column j: generator j's a-side bits, x then z; all 2n targets X_k, Z_k in one solve
    a_cols = np.concatenate([gx[:, n:], gz[:, n:]], axis=1).T
    sols = _gf2_solve_many(a_cols, np.eye(2 * n, dtype=np.uint8))
    if sols is None:
        raise ValueError("resource is not maximally entangled with the ancillas")
    images = [_product(gx[sel], gz[sel], gr[sel]) for sel in sols.T.astype(bool)]
    x, z, r = map(np.array, zip(*images))
    # sanity: the a-side of each product must be exactly its single target Pauli
    if not np.array_equal(np.concatenate([x[:, n:], z[:, n:]], axis=1), np.eye(2 * n)):
        raise InternalError("a-side isolation failed")
    return CliffordMap._from_rows(x[:, :n], z[:, :n], r.astype(np.uint8))


def build_cj_protocol(resource: StabilizerTableau) -> CJProtocol:
    """General resource path: convert to graph form, entangle with CZ."""
    gs = to_graph_state(resource)
    graph_tab = gs.tableau()
    cj = CJProtocol(
        n=resource.n,
        resource=graph_tab,
        prep_gates=list(gs.local_cliffords),
        entangler="CZ",
        u_map=CliffordMap.identity(resource.n),
        graph=gs,
    )
    cj.u_map = _extract_clifford_map(cj._choi_tableau(), resource.n)
    return cj


def ghz_unitary_cj(n: int, dagger: bool = False) -> CJProtocol:
    """The GHZ-resource construction: a phase gate on one qubit, then CNOTs
    onto |+> ancillas (ancilla = control). The implied unitary is exactly
    (1 +- i X^(x)n) / sqrt(2)."""
    from .protocols import ghz_generators

    if n < 1:
        raise ValueError(f"GHZ unitary gadget needs n >= 1, got n = {n}")
    tab = StabilizerTableau.from_generators(ghz_generators(n))
    phase = [("S", 0)] if not dagger else [("SDG", 0)]
    for name, q in phase:
        tab.apply_gate(name, q)
    cj = CJProtocol(
        n=n,
        resource=tab,
        prep_gates=list(phase),
        entangler="CNOT",
        u_map=CliffordMap.identity(n),
        graph=None,
    )
    cj.u_map = _extract_clifford_map(cj._choi_tableau(), n)
    return cj


def verify_clifford_table(cj: CJProtocol, dense_max: int = 4) -> bool:
    """Every single-site Pauli must conjugate to a Hermitian Pauli string;
    dense cross-check of the map at small sizes."""
    for k in range(cj.n):
        for p in ("X", "Y", "Z"):
            img = cj.u_map.conjugate(PauliString.single(cj.n, k, p))
            if img.phase % 2 != 0:
                return False
    if cj.n <= dense_max:
        u = cj.u_dense()
        if not gates.is_unitary(u, tol=1e-9):
            return False
        for k in range(cj.n):
            for p in ("X", "Z"):
                img = cj.u_map.conjugate(PauliString.single(cj.n, k, p))
                lhs = u @ PauliString.single(cj.n, k, p).dense() @ u.conj().T
                if np.linalg.norm(lhs - img.dense()) > 1e-8:
                    return False
    return True


def run_cj_unitary(cj: CJProtocol, input_state, backend: str = "dense", seed: int = 0):
    """Apply the implied unitary to an input via Bell measurements + frame fix.

    input_state: PureState over entries (k, "in") for the dense backend, or a
    list of named Clifford gates preparing the input from |0...0> for the
    tableau backend. Returns the output state on the (k, "s") register.
    """
    state, _ = run_sampled(cj.protocol(), seed, backend, input_state=cj.initial_state(input_state, backend))
    return state


def enumerate_cj_branches(
    cj: CJProtocol, input_state: PureState, reference: Optional[np.ndarray] = None
) -> Tuple[bool, float, int]:
    """Run every Bell-outcome pattern; returns (deterministic, min fidelity,
    number of branches).

    Fidelity is against `reference` amplitudes when given, else against the
    first branch.
    """
    target = None
    if reference is not None:
        target = PureState(QuditRegister([(k, "s", 2) for k in range(cj.n)]), reference)
    res = enumerate_branches(cj.protocol(), input_state=cj.initial_state(input_state), target=target)
    deterministic = res.deterministic and res.min_fidelity >= 1 - DETERMINISM_TOL
    return deterministic, res.min_fidelity, len(res.reports)

