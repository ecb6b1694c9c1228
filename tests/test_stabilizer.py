import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccc import circuits as cx
from qccc import gates
from qccc.lattice import Lattice
from qccc.locc import ApplyLayers, Correct, Measure, PauliMap, Protocol, enumerate_branches, replay
from qccc.stabilizer import (
    CliffordMap,
    GraphState,
    InternalError,
    PauliString,
    StabilizerTableau,
    TableauState,
    _g_exponent_sum,
    _product,
    conjugate_pauli,
    to_graph_state,
)
from qccc.statevector import PureState, QuditRegister

from oracles import graph_clifford_unitary, random_stabilizer_tableau, tableau_from_text, tableau_text, to_pure_state


class TestGates:
    def test_h_z_to_x(self):
        t = StabilizerTableau(1)
        t.apply_gate("H", 0)
        assert tableau_text(t) == "+X"

    def test_cnot_conjugation(self):
        t = StabilizerTableau.from_generators(
            [PauliString.from_label("+XI"), PauliString.from_label("+IZ")]
        )
        t.apply_gate("CNOT", 0, 1)
        assert set(tableau_text(t).split()) == {"+XX", "+ZZ"}

    def test_cz_conjugation(self):
        t = StabilizerTableau.from_generators(
            [PauliString.from_label("+XI"), PauliString.from_label("+IX")]
        )
        t.apply_gate("CZ", 0, 1)
        assert set(tableau_text(t).split()) == {"+XZ", "+ZX"}

    def test_out_of_range(self):
        t = StabilizerTableau(2)
        with pytest.raises(ValueError):
            t.apply_gate("H", 5)

    @pytest.mark.parametrize(
        "gate",
        [("H", (2,)), ("H", (-1,)), ("CNOT", (0, 2)), ("CZ", (-1, 0)), ("CNOT", (0, 0)), ("CZ", (1, 1))],
        ids=["H-2", "H-neg", "CNOT-0-2", "CZ-neg-0", "CNOT-0-0", "CZ-1-1"],
    )
    @pytest.mark.parametrize("entry", ["conjugate_pauli", "clifford_map", "apply_gate"])
    def test_bad_qubits_rejected(self, entry, gate):
        name, qubits = gate
        with pytest.raises(ValueError):
            if entry == "conjugate_pauli":
                conjugate_pauli([gate], PauliString.from_label("+XI"))
            elif entry == "clifford_map":
                CliffordMap.from_gates(2, [gate])
            else:
                StabilizerTableau(2).apply_gate(name, *qubits)

    @pytest.mark.parametrize("q", [-1, 2])
    @pytest.mark.parametrize("entry", ["single", "measure_z", "remove_qubit"])
    def test_bad_qubit_index_rejected(self, entry, q):
        # qubit 1 holds |1>; a wrapped -1 would measure or remove it
        t = StabilizerTableau(2)
        t.apply_gate("X", 1)
        with pytest.raises(ValueError, match="out of range"):
            if entry == "single":
                PauliString.single(2, q, "Z")
            elif entry == "measure_z":
                t.measure_z(q)
            else:
                t.remove_qubit(q)

    def test_dependent_generators_rejected(self):
        gens = [PauliString.from_label("+ZI"), PauliString.from_label("+ZI")]
        with pytest.raises(ValueError, match="not independent over GF"):
            StabilizerTableau.from_generators(gens)

    def test_generators_stay_independent_and_commuting(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            t = random_stabilizer_tableau(n, rng, depth=40)
            gens = t.generators()
            for i in range(n):
                for j in range(i + 1, n):
                    assert gens[i].commutes(gens[j])
            # independence via reconstruction
            StabilizerTableau.from_generators(gens)


class TestMeasurement:
    def test_zero_state_deterministic(self):
        t = StabilizerTableau(1)
        bit, p, det = t.measure_z(0)
        assert bit == 0 and det and p == 1.0

    def test_plus_state_random(self):
        t = StabilizerTableau(1)
        t.apply_gate("H", 0)
        bit, p, det = t.measure_z(0, force=1)
        assert not det and p == 0.5 and bit == 1

    def test_bell_pair_second_follows_first(self):
        for forced in (0, 1):
            t = StabilizerTableau(2)
            t.apply_gate("H", 0)
            t.apply_gate("CNOT", 0, 1)
            b1, _, det1 = t.measure_z(0, force=forced)
            b2, _, det2 = t.measure_z(1)
            assert not det1 and det2 and b1 == b2 == forced

    def test_force_deterministic_contradiction(self):
        t = StabilizerTableau(1)
        with pytest.raises(ValueError):
            t.measure_z(0, force=1)

    def test_measure_pauli_xx_on_bell(self):
        t = StabilizerTableau(2)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        bit, p, det = t.measure_pauli(PauliString.from_label("+XX"))
        assert det and bit == 0


class TestStatesEqual:
    def test_order_irrelevant(self):
        a = StabilizerTableau.from_generators(
            [PauliString.from_label("+ZI"), PauliString.from_label("+IZ")]
        )
        b = StabilizerTableau.from_generators(
            [PauliString.from_label("+IZ"), PauliString.from_label("+ZI")]
        )
        assert a.states_equal(b)

    def test_sign_matters(self):
        a = StabilizerTableau.from_generators([PauliString.from_label("+Z")])
        b = StabilizerTableau.from_generators([PauliString.from_label("-Z")])
        assert not a.states_equal(b)

    def test_row_combinations(self):
        gens = [
            PauliString.from_label("+XXX"),
            PauliString.from_label("+ZZI"),
            PauliString.from_label("+IZZ"),
        ]
        a = StabilizerTableau.from_generators(gens)
        combo = [gens[0] * gens[1], gens[1], gens[1] * gens[2]]
        b = StabilizerTableau.from_generators(combo)
        assert a.states_equal(b)

    def test_text_round_trip(self):
        rng = np.random.default_rng(3)
        t = random_stabilizer_tableau(4, rng)
        t2 = tableau_from_text(tableau_text(t))
        assert t.states_equal(t2)


class TestGraphStates:
    def test_plus_product_empty_graph(self):
        t = StabilizerTableau(3)
        for q in range(3):
            t.apply_gate("H", q)
        gs = to_graph_state(t)
        assert not gs.adjacency.any()

    def test_ghz3_two_edges(self):
        t = StabilizerTableau(3)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        t.apply_gate("CNOT", 1, 2)
        gs = to_graph_state(t)
        # connected graph on 3 vertices, LU-equivalent to the star
        assert gs.adjacency.sum() in (4, 6)
        chk = t.copy()
        for name, q in gs.local_cliffords:
            chk.apply_gate(name, q)
        assert chk.states_equal(gs.tableau())

    def test_round_trip_200_random(self):
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = int(rng.integers(1, 11))
            t = random_stabilizer_tableau(n, rng, depth=30)
            gs = to_graph_state(t)
            chk = t.copy()
            for name, q in gs.local_cliffords:
                chk.apply_gate(name, q)
            assert chk.states_equal(gs.tableau()), trial

    def test_deterministic_output(self):
        rng = np.random.default_rng(8)
        t = random_stabilizer_tableau(5, rng)
        g1 = to_graph_state(t.copy())
        g2 = to_graph_state(t.copy())
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert g1.local_cliffords == g2.local_cliffords


class TestConjugation:
    def test_h_takes_x_to_z(self):
        out = conjugate_pauli([("H", (0,))], PauliString.from_label("+X"))
        assert out.label() == "+Z"

    def test_path_graph_clifford_map(self):
        # the graph-state unitary of a path maps the middle Z to X dressed
        # with Z on the neighbors (checked densely elsewhere)

        adj = np.zeros((3, 3), dtype=np.uint8)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        u = graph_clifford_unitary(adj)
        lhs = u @ PauliString.single(3, 1, "Z").dense() @ u.conj().T
        assert np.linalg.norm(lhs - PauliString.from_label("+ZXZ").dense()) < 1e-9

    def test_non_clifford_rejected(self):
        with pytest.raises(ValueError):
            conjugate_pauli([("T", (0,))], PauliString.from_label("+X"))

    def test_conjugation_vs_dense(self):
        rng = np.random.default_rng(4)
        names1 = ["H", "S", "SDG", "X", "Y", "Z"]
        for trial in range(25):
            n = int(rng.integers(1, 5))
            circuit = []
            for _ in range(12):
                if n > 1 and rng.integers(0, 2):
                    a, b = map(int, rng.choice(n, 2, replace=False))
                    circuit.append((["CNOT", "CZ", "SWAP"][rng.integers(0, 3)], (a, b)))
                else:
                    circuit.append((names1[rng.integers(0, len(names1))], (int(rng.integers(0, n)),)))
            p = PauliString(
                rng.integers(0, 2, n).astype(np.uint8),
                rng.integers(0, 2, n).astype(np.uint8),
                0,
            )
            out = conjugate_pauli(circuit, p)
            u = np.eye(2**n, dtype=complex)
            for name, qs in circuit:
                g = gates.named_gate(name)
                full = _embed(g, qs, n)
                u = full @ u
            lhs = u @ p.dense() @ u.conj().T
            assert np.linalg.norm(lhs - out.dense()) < 1e-9, trial
            mapped = CliffordMap.from_gates(n, circuit).conjugate(p)
            assert np.linalg.norm(lhs - mapped.dense()) < 1e-9, trial

    def test_clifford_map_inverse(self):
        rng = np.random.default_rng(6)
        circuit = [("H", (0,)), ("CNOT", (0, 1)), ("S", (1,)), ("CZ", (1, 2))]
        m = CliffordMap.from_gates(3, circuit)
        inv = m.inverse()
        for k in range(3):
            for pl in ("X", "Z"):
                p = PauliString.single(3, k, pl)
                assert inv.conjugate(m.conjugate(p)).label() == p.label()


def _embed(g, qubits, n):
    # order qubits as given: build via tensor placement
    dims = (2,) * n
    m = np.eye(2**n, dtype=complex).reshape(dims * 2)
    from qccc.circuits import _embed_matrix

    return _embed_matrix(g, tuple(qubits), dims)


class TestDenseAgreement:
    def test_tableau_matches_dense_backend(self):
        rng = np.random.default_rng(21)
        for trial in range(15):
            n = int(rng.integers(2, 9))
            tab = StabilizerTableau(n)
            reg = QuditRegister([(i, "s", 2) for i in range(n)])
            st = PureState.product(reg)
            for _ in range(30):
                kind = rng.integers(0, 3)
                if kind == 0:
                    g, q = ["H", "S", "X", "Z"][rng.integers(0, 4)], int(rng.integers(0, n))
                    tab.apply_gate(g, q)
                    st.apply_named(g, [(q, "s")])
                else:
                    a, b = map(int, rng.choice(n, 2, replace=False))
                    g = "CNOT" if kind == 1 else "CZ"
                    tab.apply_gate(g, a, b)
                    st.apply_named(g, [(a, "s"), (b, "s")])
            vec = tab.to_statevector()
            assert abs(abs(np.vdot(vec, st.amps)) - 1) < 1e-10, trial


class TestRemoveAddQubits:
    def test_remove_decoupled(self):
        t = StabilizerTableau(3)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        small = t.remove_qubit(2)
        bell = StabilizerTableau(2)
        bell.apply_gate("H", 0)
        bell.apply_gate("CNOT", 0, 1)
        assert small.states_equal(bell)

    def test_remove_entangled_rejected(self):
        t = StabilizerTableau(2)
        t.apply_gate("H", 0)
        t.apply_gate("CNOT", 0, 1)
        with pytest.raises(ValueError):
            t.remove_qubit(0)

    def test_remove_after_measurement(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = random_stabilizer_tableau(5, rng)
            t.measure_z(3, force=None, rng=rng)
            t.remove_qubit(3)

    def test_add_qubits(self):
        t = StabilizerTableau(2)
        t.apply_gate("H", 0)
        big = t.add_qubits(2)
        assert big.n == 4
        bit, _, det = big.measure_z(3)
        assert det and bit == 0


class TestInternalErrors:
    """A corrupted tableau breaks an invariant; that is an InternalError, not bad input."""

    def test_corrupted_stabilizer_row_fails_the_deterministic_bit(self):
        t = StabilizerTableau(2)
        t.z[t.n] = 1  # the stabilizer paired with X_0 becomes Z_0 Z_1
        with pytest.raises(InternalError, match="did not reproduce"):
            t.measure_z(0)

    def test_qubit_without_stabilizer_support(self):
        t = StabilizerTableau(2)
        t.z[t.n :, 1] = 0
        with pytest.raises(InternalError, match="no stabilizer acts"):
            t.remove_qubit(1)
        with pytest.raises(InternalError, match="empty pivot column"):
            to_graph_state(t)

    def test_internal_error_is_not_a_config_error(self):
        assert not issubclass(InternalError, (ValueError, KeyError, AssertionError))


class TestTableauState:
    def test_register_bridge(self):
        ts = TableauState([(0, "s", 2), (1, "s", 2), (0, "a", 2)])
        ts.apply_named("H", [(0, "s")])
        ts.apply_named("CNOT", [(0, "s"), (0, "a")])
        probs = ts.branch_probabilities((0, "a"))
        assert np.allclose(probs, [0.5, 0.5])
        bit, p = ts.measure((0, "a"), force=0)
        assert p == 0.5
        ts.remove_entry((0, "a"))
        assert len(ts.keys) == 2

    def test_remove_entry_moves_the_last_entry(self):
        keys = [(0, "s"), (1, "s"), (0, "a"), (1, "a")]
        ts = TableauState([(site, slot, 2) for site, slot in keys])
        ts.apply_named("X", [(1, "a")])
        ts.remove_entry((1, "s"))
        assert ts.keys == [(0, "s"), (1, "a"), (0, "a")]
        assert [ts.index(k) for k in ts.keys] == [0, 1, 2] and (1, "s") not in ts
        assert ts.branch_probabilities((1, "a"))[1] == 1.0  # its |1> moved with it
        with pytest.raises(KeyError, match="not in register"):
            ts.index((1, "s"))
        ts.remove_entry((0, "a"))  # the last entry itself
        assert ts.keys == [(0, "s"), (1, "a")] and ts.index((1, "a")) == 1
        ts.add_entry(1, "s")
        assert ts.index((1, "s")) == 2 and ts.tab.n == 3

    def test_to_pure_state(self):
        ts = TableauState([(0, "s", 2), (1, "s", 2)])
        ts.apply_named("H", [(0, "s")])
        ts.apply_named("CNOT", [(0, "s"), (1, "s")])
        st = to_pure_state(ts)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert abs(abs(np.vdot(st.amps, bell)) - 1) < 1e-10

    def test_qudit_rejected(self):
        with pytest.raises(ValueError):
            TableauState([(0, "s", 3)])

    def test_fidelity_is_state_equality(self):
        def bell(keys):
            ts = TableauState([(site, slot, 2) for site, slot in keys])
            ts.apply_named("H", [keys[0]])
            ts.apply_named("CNOT", keys)
            return ts

        keys = [(0, "s"), (1, "s")]
        a, b = bell(keys), bell(keys)
        b.apply_named("H", [keys[1]]).apply_named("H", [keys[1]])  # same state, other rows
        assert a.fidelity(b) == 1.0
        assert a.fidelity(b.apply_named("Z", [keys[0]])) == 0.0  # sign of XX flipped
        with pytest.raises(ValueError, match="identical registers"):
            a.fidelity(bell(keys[::-1]))
        with pytest.raises(ValueError, match="identical registers"):
            a.fidelity(bell([(0, "s"), (2, "s")]))


# -- properties of the tableau primitives against dense references ----------------

# fixed example budget and no example database: the same cases on every run
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def _embedding_reference(t: StabilizerTableau, k: int):
    """The (x, z, r) rows of t's state tensored with k qubits in |0>, in the
    tableau's row order: the destabilizers last to first (X on each new qubit,
    then the old ones padded with identities), then the stabilizers first to
    last (the old ones padded, then Z on each new qubit)."""
    n, pad = t.n, np.zeros(k, dtype=np.uint8)

    def padded(p: PauliString) -> PauliString:
        return PauliString(np.concatenate([p.x, pad]), np.concatenate([p.z, pad]), p.phase)

    rows = [padded(t.destabilizer(i)) for i in range(n)] + [PauliString.single(n + k, j, "X") for j in range(n, n + k)]
    rows = rows[::-1]
    rows += [padded(t.stabilizer(i)) for i in range(n)] + [PauliString.single(n + k, j, "Z") for j in range(n, n + k)]
    return tuple(np.array([getattr(p, a) for p in rows], dtype=np.uint8) for a in ("x", "z", "phase"))


def _symplectic(t: StabilizerTableau) -> bool:
    """<d_i, s_j> = delta_ij, everything else commutes, stabilizers Hermitian.

    Destabilizer i is row n-1-i and stabilizer i row n+i, so row j pairs with
    row 2n-1-j: the Gram matrix is the anti-diagonal identity."""
    x, z = t.x.astype(int), t.z.astype(int)
    gram = (x @ z.T + z @ x.T) % 2
    return np.array_equal(gram, np.eye(2 * t.n, dtype=int)[::-1]) and not np.any(t.r[t.n :] % 2)


def _placed_local_qubit(n: int, rng, entangle: bool):
    """A random n-qubit state with one extra qubit in a random single-qubit
    stabilizer state (or CNOT-entangled with another qubit), moved to a random
    position q. Returns (tableau, q); a decoupled qubit's stabilizer is still
    the row +/- P_q."""
    t = random_stabilizer_tableau(n, rng).add_qubits(1)
    if entangle:
        c = int(rng.integers(0, n))
        if not np.any(t.x[t.n :, c]):  # a Z eigenstate would not entangle
            t.apply_gate("H", c)
        t.apply_gate("CNOT", c, n)
    for name in rng.choice(["H", "S", "X", "Z"], size=int(rng.integers(0, 5))):
        t.apply_gate(str(name), n)
    q = int(rng.integers(0, n + 1))
    if q != n:
        t.apply_gate("SWAP", q, n)
    return t, q


def _with_local_qubit(n: int, rng, entangle: bool):
    """`_placed_local_qubit` with its generators multiplied together at random."""
    t, q = _placed_local_qubit(n, rng, entangle)
    return _mixed_generators(t, rng), q


def _mixed_generators(t: StabilizerTableau, rng) -> StabilizerTableau:
    """The same state rebuilt from generators multiplied together at random."""
    gens = t.generators()
    for _ in range(2 * t.n):
        i, j = rng.integers(0, t.n, size=2)
        if i != j:
            gens[i] = gens[i] * gens[j]
    return StabilizerTableau.from_generators(gens)


def _split_off(vec: np.ndarray, n: int, q: int):
    """Reduced state of qubit q of a dense n-qubit vector: (purity, rest | top local state)."""
    m = np.moveaxis(vec.reshape((2,) * n), q, 0).reshape(2, -1)
    rho = m @ m.conj().T
    _, v = np.linalg.eigh(rho)
    rest = v[:, -1].conj() @ m
    return float(np.real(np.trace(rho @ rho))), rest / np.linalg.norm(rest)


class TestPrimitiveProperties:
    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 6), seed=SEEDS)
    def test_remove_matches_dense_reduction(self, n, seed):
        t, q = _with_local_qubit(n, np.random.default_rng(seed), entangle=False)
        purity, rest = _split_off(t.to_statevector(), n + 1, q)
        assert purity > 1 - 1e-9
        small = t.remove_qubit(q)
        assert small.n == n and _symplectic(small)
        if q < n:  # the last qubit takes index q
            rest = np.moveaxis(rest.reshape((2,) * n), n - 1, q).reshape(-1)
        assert abs(np.vdot(small.to_statevector(), rest)) ** 2 > 1 - 1e-9

    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 7), k=st.integers(1, 3), seed=SEEDS)
    def test_add_qubits_matches_embedding(self, n, k, seed):
        t = random_stabilizer_tableau(n, np.random.default_rng(seed))
        big = t.copy().add_qubits(k)
        rows = _embedding_reference(t, k)
        assert big.n == n + k and _symplectic(big)
        assert all(a.dtype == np.uint8 and np.array_equal(a, b) for a, b in zip((big.x, big.z, big.r), rows))
        fresh = np.zeros(2**k)
        fresh[0] = 1
        assert abs(np.vdot(big.to_statevector(), np.kron(t.to_statevector(), fresh))) ** 2 > 1 - 1e-9

    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 6), seed=SEEDS)
    def test_remove_entangled_raises(self, n, seed):
        t, q = _with_local_qubit(n, np.random.default_rng(seed), entangle=True)
        purity, _ = _split_off(t.to_statevector(), n + 1, q)
        assert purity < 1 - 1e-9
        with pytest.raises(ValueError, match="entangled"):
            _remove_qubit_reference(t, q)
        before = t.copy()
        with pytest.raises(ValueError, match="entangled"):
            t.remove_qubit(q)
        # the rows may be recombined, the state is not
        assert t.n == n + 1 and _symplectic(t) and t.states_equal(before)

    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 7), seed=SEEDS)
    def test_canonical_form_decides_equality(self, n, seed):
        rng = np.random.default_rng(seed)
        t = random_stabilizer_tableau(n, rng)
        gens = t.generators()
        same = _mixed_generators(t, rng)
        flipped_gens = list(gens)
        k = int(rng.integers(0, n))
        flipped_gens[k] = PauliString(gens[k].x, gens[k].z, gens[k].phase + 2)
        flipped = StabilizerTableau.from_generators(flipped_gens)
        v = t.to_statevector()
        assert t.states_equal(same) and same.states_equal(t)
        assert abs(np.vdot(v, same.to_statevector())) ** 2 > 1 - 1e-9
        assert not t.states_equal(flipped)
        assert abs(np.vdot(v, flipped.to_statevector())) ** 2 < 1e-9

    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 4), seed=SEEDS)
    def test_pauli_product_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = (PauliString(*rng.integers(0, 2, (2, n)), rng.integers(0, 4)) for _ in "ab")
        assert np.allclose((a * b).dense(), a.dense() @ b.dense())

    @PROPERTY_SETTINGS
    @given(n=st.integers(1, 9), seed=SEEDS)
    def test_canonical_rows_match_loop_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        t = _mixed_generators(random_stabilizer_tableau(n, rng), rng)
        got = [g.label() for g in t.canonical_stabilizers()]
        assert got == [g.label() for g in _canonical_reference(t)]

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS)
    def test_backends_agree_on_random_clifford_protocols(self, seed):
        proto = _random_clifford_protocol(np.random.default_rng(seed))
        dense = enumerate_branches(proto, backend="dense", target=None)
        tab = enumerate_branches(proto, backend="tableau", target=None)
        assert dense.verdict == tab.verdict
        assert [r.record.key() for r in dense.reports] == [r.record.key() for r in tab.reports]
        for a, b in zip(dense.reports, tab.reports):
            assert [t for t, _, _ in a.record.outcomes] == [t for t, _, _ in b.record.outcomes]
            assert abs(a.probability - b.probability) < 1e-9
            sa, sb = replay(proto, a.record, backend="dense")[0], replay(proto, b.record, backend="tableau")[0]
            assert sa.fidelity(to_pure_state(sb)) > 1 - 1e-9


def _remove_qubit_reference(t: StabilizerTableau, q: int) -> StabilizerTableau:
    """The removal the tableau made before it worked in place, kept as the
    reference: row operations on a copy laid out as destabilizer i in row i
    and stabilizer i in row n + i, then that pair and column q deleted, so
    the other qubits keep their order."""
    n = t.n
    rows = [t.destabilizer(i) for i in range(n)] + t.generators()
    x = np.array([p.x for p in rows], dtype=np.uint8)
    z = np.array([p.z for p in rows], dtype=np.uint8)
    r = np.array([p.phase for p in rows], dtype=np.uint8)

    def rowmult(h, i):
        extra = _g_exponent_sum(x[h], z[h], x[i], z[i])
        r[h] = (r[h].astype(np.int64) + int(r[i]) + extra) % 4
        x[h] ^= x[i]
        z[h] ^= z[i]

    def rowmult_all(h, idx):
        if len(idx) == 0:
            return
        idx = np.concatenate([[h], idx]).astype(np.intp)
        x[h], z[h], r[h] = _product(x[idx], z[idx], r[idx])

    on_q = n + np.flatnonzero(x[n:, q] | z[n:, q])
    if on_q.size == 0:
        raise InternalError("no stabilizer acts on the qubit")
    entangled = ValueError(f"qubit {q} is entangled; cannot remove")
    p = int(on_q[0])
    if np.any(x[on_q, q] != x[p, q]) or np.any(z[on_q, q] != z[p, q]):
        raise entangled
    rowmult(on_q[1:], p)
    rowmult_all(p - n, on_q[1:] - n)
    rx, rz = x[p].astype(np.int64), z[p].astype(np.int64)
    rx[q] = rz[q] = 0
    c = (x[:n].astype(np.int64) @ rz + z[:n].astype(np.int64) @ rx) % 2
    if c[p - n]:
        raise entangled
    js = np.flatnonzero(c)
    rowmult_all(p, n + js)
    rowmult(js, p - n)
    if np.any(np.delete(x[p] | z[p], q)):
        raise entangled
    keep = [n + i for i in range(n) if n + i != p]
    return StabilizerTableau.from_generators([PauliString(np.delete(x[i], q), np.delete(z[i], q), r[i]) for i in keep])


def _removal_case(n: int, rng, path: str):
    """A random n-qubit state plus a decoupled qubit q, with rows that send
    `remove_qubit` down `path`:
    - "local": the stabilizer +/- P_q is kept and multiplied into random others;
    - "measured": q is entangled, then Z_q is measured at random, as a
      protocol does before it discards an ancilla;
    - "mixed": every generator is multiplied into others, and none is local.
    Returns (tableau, q)."""
    if path == "measured":
        t, q = _with_local_qubit(n, rng, entangle=True)
        t.measure_z(q, force=int(rng.integers(0, 2)))
        return t, q
    t, q = _placed_local_qubit(n, rng, entangle=False)
    gens = t.generators()
    local = next(i for i, g in enumerate(gens) if g.support() == (q,))
    for _ in range(2 * t.n):
        i, j = rng.integers(0, t.n, size=2)
        if i != j and (i != local or path == "mixed"):
            gens[i] = gens[i] * gens[j]
    if path == "mixed":
        k = next((i for i, g in enumerate(gens) if g.support() == (q,)), None)
        if k is not None:
            gens[k] = gens[k] * gens[k - 1]
    return StabilizerTableau.from_generators(gens), q


class TestRemovalAgainstReference:
    """In-place removal, on its local-pivot path and its general path, against
    the copy-and-delete removal it replaced (`test_remove_entangled_raises`
    holds it to the reference on entangled qubits)."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 7), path=st.sampled_from(["local", "measured", "mixed"]), seed=SEEDS)
    def test_same_state_as_reference(self, n, path, seed):
        t, q = _removal_case(n, np.random.default_rng(seed), path)
        # the local-pivot path needs a stabilizer that is exactly +/- P_q
        assert any(g.support() == (q,) for g in t.generators()) == (path != "mixed")
        want = _remove_qubit_reference(t, q)
        got = t.remove_qubit(q)
        assert got is t and got.n == n and _symplectic(got)
        perm = list(range(n))
        perm.insert(q, perm.pop())  # the last qubit takes index q
        want.x, want.z = want.x[:, perm], want.z[:, perm]
        assert got.states_equal(want)
        # the vacated row pair and column were zeroed: a fresh qubit is |0>
        assert got.add_qubits(1).states_equal(want.add_qubits(1)) and _symplectic(got)

    def test_adds_past_the_reserved_slots(self):
        from qccc.protocols import ghz_generators

        t = StabilizerTableau(1).apply_gate("H", 0)
        for k in range(1, 40):  # through several doublings of the buffer
            t.add_qubits(1).apply_gate("CNOT", k - 1, k)
        assert _symplectic(t) and t.states_equal(StabilizerTableau.from_generators(ghz_generators(40)))
        for k in range(39, 20, -1):  # disentangle and discard down to 21 qubits
            t.apply_gate("CNOT", k - 1, k).remove_qubit(k)
        assert _symplectic(t) and t.states_equal(StabilizerTableau.from_generators(ghz_generators(21)))


class TestConjugationRuleAgainstLoopReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 11), seed=SEEDS)
    def test_tableau_graph_and_maps_match_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        circuit = _random_circuit(n, rng, int(rng.integers(0, 40)))
        t = StabilizerTableau(n)
        for name, qubits in circuit:
            t.apply_gate(name, *qubits)
        rows = [t.destabilizer(i) for i in range(n)] + t.generators()
        ref_rows = [PauliString.single(n, k, pl) for pl in "XZ" for k in range(n)]
        for ref in ref_rows:
            for name, qubits in circuit:
                _conjugate_inplace_reference(ref, name, qubits)
        assert [p.label() for p in rows] == [p.label() for p in ref_rows]

        t = _mixed_generators(random_stabilizer_tableau(n, rng, depth=int(rng.integers(0, 60))), rng)
        for name, q in circuit[: int(rng.integers(0, 10))]:
            if len(q) == 1:
                t.apply_gate(name, *q)
        gs, ref_gs = to_graph_state(t), _graph_state_reference(t)
        assert np.array_equal(gs.adjacency, ref_gs.adjacency)
        assert gs.local_cliffords == ref_gs.local_cliffords

        p = PauliString(rng.integers(0, 2, n), rng.integers(0, 2, n), int(rng.integers(0, 4)))
        ref = p.copy()
        for name, qubits in circuit:
            _conjugate_inplace_reference(ref, name, qubits)
        ref_inv = p.copy()
        for name, qubits in reversed(circuit):
            _conjugate_inplace_reference(ref_inv, {"S": "SDG", "SDG": "S"}.get(name, name), qubits)
        m = CliffordMap.from_gates(n, circuit)
        assert conjugate_pauli(circuit, p).label() == ref.label()
        assert m.conjugate(p).label() == ref.label()
        assert m.inverse().conjugate(p).label() == ref_inv.label()


def _random_circuit(n: int, rng, length: int):
    one_q = ["H", "S", "SDG", "X", "Y", "Z"]
    circuit = []
    for _ in range(length):
        if n > 1 and rng.integers(0, 2):
            a, b = map(int, rng.choice(n, 2, replace=False))
            circuit.append((["CNOT", "CZ", "SWAP"][rng.integers(0, 3)], (a, b)))
        else:
            circuit.append((one_q[rng.integers(0, len(one_q))], (int(rng.integers(0, n)),)))
    return circuit


def _conjugate_inplace_reference(p: PauliString, name: str, qubits) -> None:
    """One gate's conjugation rule on the scalar bits of one Pauli string."""
    if name == "H":
        (q,) = qubits
        if p.x[q] and p.z[q]:
            p.phase = (p.phase + 2) % 4
        p.x[q], p.z[q] = p.z[q], p.x[q]
    elif name == "S":
        (q,) = qubits
        if p.x[q] and p.z[q]:
            p.phase = (p.phase + 2) % 4
        p.z[q] ^= p.x[q]
    elif name == "SDG":
        for _ in range(3):
            _conjugate_inplace_reference(p, "S", qubits)
    elif name == "X":
        (q,) = qubits
        if p.z[q]:
            p.phase = (p.phase + 2) % 4
    elif name == "Y":
        (q,) = qubits
        if p.x[q] ^ p.z[q]:
            p.phase = (p.phase + 2) % 4
    elif name == "Z":
        (q,) = qubits
        if p.x[q]:
            p.phase = (p.phase + 2) % 4
    elif name == "CNOT":
        a, b = qubits
        if p.x[a] and p.z[b] and (p.x[b] ^ p.z[a] ^ 1):
            p.phase = (p.phase + 2) % 4
        p.x[b] ^= p.x[a]
        p.z[a] ^= p.z[b]
    elif name == "CZ":
        a, b = qubits
        if p.x[a] and p.x[b] and (p.z[a] ^ p.z[b]):
            p.phase = (p.phase + 2) % 4
        p.z[a] ^= p.x[b]
        p.z[b] ^= p.x[a]
    elif name == "SWAP":
        a, b = qubits
        p.x[a], p.x[b] = p.x[b], p.x[a]
        p.z[a], p.z[b] = p.z[b], p.z[a]
    else:
        raise ValueError(name)


def _graph_state_reference(tab: StabilizerTableau) -> GraphState:
    """Graph reduction on a list of PauliString rows, one product at a time."""
    n = tab.n
    rows = tab.generators()
    applied = []

    def conj_gate(name, q):
        for p in rows:
            _conjugate_inplace_reference(p, name, (q,))
        applied.append((name, q))

    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i].x[col]), None)
        if pivot is None:
            assert any(rows[i].z[col] for i in range(col, n))
            conj_gate("H", col)
            pivot = next(i for i in range(col, n) if rows[i].x[col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(n):
            if i != col and rows[i].x[col]:
                rows[i] = rows[i] * rows[col]
    for q in range(n):
        if rows[q].z[q]:
            conj_gate("S", q)
    for q in range(n):
        if rows[q].phase == 2:
            conj_gate("Z", q)
    assert all(p.phase == 0 for p in rows)
    return GraphState(np.array([p.z for p in rows], dtype=np.uint8), applied)


def _canonical_reference(t: StabilizerTableau):
    """Row-reduced echelon form by one PauliString product at a time."""
    rows = t.generators()
    rank = 0
    for col in range(2 * t.n):
        def bit(p):
            return p.x[col] if col < t.n else p.z[col - t.n]

        pivot = next((i for i in range(rank, t.n) if bit(rows[i])), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(t.n):
            if i != rank and bit(rows[i]):
                rows[i] = rows[i] * rows[rank]
        rank += 1
    return rows


def _random_clifford_protocol(rng) -> Protocol:
    """System qubits on 2-3 sites plus at most two live ancillas (<= 5 qubits):
    random Clifford layers, ancillas entangled and measured, Pauli corrections."""
    k = int(rng.integers(2, 4))
    system = [(i, "s") for i in range(k)]
    one_q = ["H", "S", "X", "Z", "SDG"]

    def random_ops(entries):
        acts = []
        for _ in range(int(rng.integers(1, 4))):
            if len(entries) > 1 and rng.random() < 0.5:
                a, b = rng.choice(len(entries), size=2, replace=False)
                name = "CNOT" if rng.random() < 0.5 else "CZ"
                acts.append(cx.local_op([entries[a], entries[b]], [(name, (0, 1))]))
            else:
                e = entries[int(rng.integers(0, len(entries)))]
                acts.append(cx.local_op([e], [(str(rng.choice(one_q)), (0,))]))
        return acts

    program = [ApplyLayers([cx.LocalLayer(random_ops(system))])]
    tags = []
    for a in range(int(rng.integers(1, 4))):
        site = int(rng.integers(0, k))
        anc = (site, f"a{a}")
        program.append(
            ApplyLayers(
                [
                    cx.LocalLayer([cx.add_ancilla(site, anc[1], 2)]),
                    cx.LocalLayer([cx.local_op([anc], [("H", (0,))])]),
                    cx.LocalLayer(random_ops(system + [anc])),
                    cx.LocalLayer([cx.local_op([anc, system[int(rng.integers(0, k))]], [("CZ", (0, 1))])]),
                ]
            )
        )
        tags.append(f"m{a}")
        program.append(Measure(anc, tags[-1]))
        fix_site = int(rng.integers(0, k))
        fix = str(rng.choice(["X", "Z", "Y"]))
        # the Pauli `fix` on fix_site when the outcomes so far have odd parity
        x, z = {"X": (1, 0), "Z": (0, 1), "Y": (1, 1)}[fix]
        program.append(Correct(PauliMap(tags, [(fix_site, "s")], [[x] * len(tags), [z] * len(tags)])))
    register = [(i, "s", 2) for i in range(k)]
    return Protocol(
        "random-clifford", Lattice((k,)), register, program, system,
        clifford=True,
    )
