import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from qccc import gates
from qccc.statevector import (
    FORCE_FLOOR,
    CapacityError,
    ProtocolError,
    PureState,
    QuditRegister,
    RegionOperator,
    pauli_on,
)

from oracles import is_product_across, purity, swap_d


def qubits(n):
    return QuditRegister([(i, "s", 2) for i in range(n)])


def ghz(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(qubits(n), amps)


class TestInitProduct:
    def test_all_zero(self):
        st = PureState.product(qubits(3))
        assert st.amps[0] == 1 and np.count_nonzero(st.amps) == 1

    def test_plus(self):
        st = PureState.product(qubits(1), {(0, "s"): np.array([1, 1]) / np.sqrt(2)})
        assert np.allclose(st.amps, [1 / np.sqrt(2)] * 2)

    def test_mixed_dims_index_arithmetic(self):
        reg = QuditRegister([(0, "s", 2), (1, "s", 3)])
        st = PureState.product(reg, {(1, "s"): [0, 0, 1]})
        assert st.amps[2] == 1

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            PureState.product(qubits(1), {(0, "s"): [1.0, 1.0]})

    def test_unknown_entry_rejected(self):
        with pytest.raises(ValueError):
            PureState.product(qubits(2), {(5, "s"): [1.0, 0.0]})

    @given(
        entries=hst.lists(hst.tuples(hst.sampled_from([2, 3]), hst.booleans()), min_size=1, max_size=5),
        seed=hst.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_matches_kron_reference(self, entries, seed):
        rng = np.random.default_rng(seed)
        reg = QuditRegister([(i, "s", d) for i, (d, _) in enumerate(entries)])
        assignment, ref = {}, np.ones(1, dtype=complex)
        for i, (d, assigned) in enumerate(entries):
            local = np.eye(d, dtype=complex)[0]
            if assigned:
                local = rng.normal(size=d) + 1j * rng.normal(size=d)
                local /= np.linalg.norm(local)
                assignment[(i, "s")] = local
            ref = np.kron(ref, local)
        st = PureState.product(reg, assignment)
        assert st.register == reg
        assert np.allclose(st.amps, ref, atol=1e-12)


class TestApply:
    def test_x_flip(self):
        st = PureState.product(qubits(1))
        st.apply(pauli_on((0, "s"), "X"))
        assert abs(st.amps[1] - 1) < 1e-12

    def test_cnot(self):
        st = PureState.product(qubits(2), {(0, "s"): [0, 1]})
        st.apply(RegionOperator(((0, "s"), (1, "s")), gates.CNOT))
        assert abs(st.amps[3] - 1) < 1e-12

    def test_cat_rotation(self):
        # direct 8x8 matrix-vector oracle
        m = (np.eye(8) + 1j * np.kron(np.kron(gates.X, gates.X), gates.X)) / np.sqrt(2)
        st = PureState.product(qubits(3))
        st.apply(RegionOperator(((0, "s"), (1, "s"), (2, "s")), m))
        oracle = m @ np.eye(8)[0]
        assert np.allclose(st.amps, oracle)

    def test_nonunitary_rejected(self):
        st = PureState.product(qubits(1))
        with pytest.raises(ValueError):
            st.apply(RegionOperator(((0, "s"),), np.array([[1, 0], [0, 2.0]])))

    def test_norm_preserved_over_many_gates(self):
        rng = np.random.default_rng(0)
        st = PureState.product(qubits(5))
        for _ in range(1000):
            i, j = map(int, rng.choice(5, 2, replace=False))
            st.apply(
                RegionOperator(((i, "s"), (j, "s")), gates.random_unitary(4, rng)),
                unitary_check=False,
            )
        assert abs(np.linalg.norm(st.amps) - 1) < 1e-10

    def test_swap_is_exact(self):
        rng = np.random.default_rng(2)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        st = PureState(qubits(3), psi)
        st.apply_named("SWAP", [(0, "s"), (2, "s")])
        oracle = psi.reshape(2, 2, 2).transpose(2, 1, 0).reshape(-1)
        assert np.allclose(st.amps, oracle)


class TestMeasure:
    """`measure_remove` reads one entry in the computational basis and drops it."""

    def test_plus_forced_zero(self):
        st = PureState.product(qubits(2), {(0, "s"): np.array([1, 1]) / np.sqrt(2)})
        k, p = st.measure_remove((0, "s"), force=0)
        assert k == 0 and abs(p - 0.5) < 1e-12
        assert st.register.keys == ((1, "s"),) and np.allclose(st.amps, [1, 0])

    def test_zero_state_deterministic(self):
        st = PureState.product(qubits(1))
        k, p = st.measure_remove((0, "s"), rng=np.random.default_rng(0))
        assert k == 0 and abs(p - 1) < 1e-12 and st.register.size == 0

    def test_bell_correlation(self):
        st = PureState.product(qubits(2))
        st.apply_named("H", [(0, "s")])
        st.apply_named("CNOT", [(0, "s"), (1, "s")])
        k, p = st.measure_remove((0, "s"), force=1)
        assert abs(p - 0.5) < 1e-12
        assert abs(st.amps[1] - 1) < 1e-12

    def test_probabilities_sum_to_one(self):
        """Also in another basis: its rotation, then the computational one."""
        rng = np.random.default_rng(7)
        reg = QuditRegister([(0, "s", 3), (1, "s", 2)])
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        st = PureState(reg, psi)
        assert abs(st.branch_probabilities((0, "s")).sum() - 1) < 1e-10
        st.apply(RegionOperator(((0, "s"),), gates.random_unitary(3, rng).conj().T))
        assert abs(st.branch_probabilities((0, "s")).sum() - 1) < 1e-10

    def test_forced_vanishing_probability(self):
        st = PureState.product(qubits(1))
        with pytest.raises(ValueError):
            st.measure_remove((0, "s"), force=1)

    def test_non_orthonormal_basis_rejected(self):
        """Another basis is the rotation to it before the measurement; a frame
        that is not orthonormal is not unitary, and `apply` rejects it."""
        st = PureState.product(qubits(1))
        with pytest.raises(ValueError, match="not unitary"):
            st.apply(RegionOperator(((0, "s"),), np.array([[1, 1], [0, 1.0]]).conj().T))

    def test_measure_remove_matches_measure_plus_remove(self):
        """The outcome's normalised slice, as a projection followed by the
        entry's removal leaves it."""
        rng = np.random.default_rng(11)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        b = PureState(qubits(3), psi.copy())
        kb, pb = b.measure_remove((1, "s"), force=1)
        rest = psi.reshape(2, 2, 2)[:, 1, :].reshape(-1)
        assert kb == 1 and abs(np.vdot(rest, rest).real - pb) < 1e-12
        assert b.register.keys == ((0, "s"), (2, "s"))
        assert abs(abs(np.vdot(rest / np.linalg.norm(rest), b.amps)) - 1) < 1e-12


class TestExpectation:
    def test_z_on_zero(self):
        st = PureState.product(qubits(1))
        assert abs(st.expectation(pauli_on((0, "s"), "Z")) - 1) < 1e-12

    def test_ghz4_zz(self):
        st = ghz(4)
        op = RegionOperator(((0, "s"), (2, "s")), np.kron(gates.Z, gates.Z))
        assert abs(st.expectation(op) - 1) < 1e-12

    def test_ghz4_single_z(self):
        st = ghz(4)
        assert abs(st.expectation(pauli_on((0, "s"), "Z"))) < 1e-12

    def test_hermitian_real(self):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        st = PureState(qubits(2), psi)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        val = st.expectation(RegionOperator(((0, "s"), (1, "s")), h))
        assert abs(val.imag) < 1e-10


class TestEntropyAndTrace:
    def test_product_zero_entropy(self):
        st = PureState.product(qubits(4))
        assert st.max_entropy([(0, "s"), (1, "s")]) == 0.0

    def test_ghz6_half_cut(self):
        st = ghz(6)
        assert st.max_entropy([(i, "s") for i in range(3)]) == 1.0

    def test_three_bell_pairs(self):
        st = PureState.product(qubits(6))
        for i in range(3):
            st.apply_named("H", [(i, "s")])
            st.apply_named("CNOT", [(i, "s"), (i + 3, "s")])
        assert st.max_entropy([(i, "s") for i in range(3)]) == 3.0

    def test_entropy_symmetric(self):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        st = PureState(qubits(5), psi)
        a = [(0, "s"), (2, "s")]
        ac = [(1, "s"), (3, "s"), (4, "s")]
        assert st.max_entropy(a) == st.max_entropy(ac)

    def test_bell_reduced_maximally_mixed(self):
        st = PureState.product(qubits(2))
        st.apply_named("H", [(0, "s")])
        st.apply_named("CNOT", [(0, "s"), (1, "s")])
        rho = st.reduced_density([(0, "s")])
        assert np.allclose(rho, np.eye(2) / 2)

    def test_product_purity_one(self):
        st = PureState.product(qubits(3), {(1, "s"): np.array([1, 1j]) / np.sqrt(2)})
        assert abs(purity(st, [(1, "s")]) - 1) < 1e-12
        assert is_product_across(st, [(1, "s")])

    def test_ghz3_partial_trace(self):
        st = ghz(3)
        rho = st.reduced_density([(0, "s"), (1, "s")])
        assert np.allclose(rho, np.diag([0.5, 0, 0, 0.5]))

    def test_trace_everything_rejected(self):
        st = PureState.product(qubits(2))
        with pytest.raises(ValueError):
            st.reduced_density([])


class TestFidelity:
    def test_identical(self):
        st = ghz(3)
        assert abs(st.fidelity(st) - 1) < 1e-12

    def test_global_phase(self):
        st = PureState.product(qubits(1))
        st2 = PureState(qubits(1), np.exp(0.7j) * np.eye(2)[0])
        assert st.fidelity(st2) >= 1 - 1e-9

    def test_orthogonal_component(self):
        a = PureState.product(qubits(1))
        b = PureState.product(qubits(1), {(0, "s"): np.array([1, 1]) / np.sqrt(2)})
        assert abs(a.fidelity(b) - 0.5) < 1e-12

    def test_register_mismatch(self):
        a = PureState.product(qubits(2))
        b = PureState.product(QuditRegister([(0, "s", 2), (5, "s", 2)]))
        with pytest.raises(ValueError):
            a.fidelity(b)


class TestDynamicRegister:
    def test_add_then_remove(self):
        st = PureState.product(qubits(2))
        st.add_entry(0, "a", 3, [0, 1, 0])
        assert st.register.size == 3
        st.remove_entry((0, "a"))
        assert st.register.size == 2 and abs(st.amps[0]) > 1 - 1e-12

    def test_remove_entangled_rejected(self):
        st = PureState.product(qubits(2))
        st.apply_named("H", [(0, "s")])
        st.apply_named("CNOT", [(0, "s"), (1, "s")])
        with pytest.raises(ValueError):
            st.remove_entry((1, "s"))

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("QCCC_MAX_AMPLITUDES", "64")
        with pytest.raises(CapacityError):
            QuditRegister([(i, "s", 2) for i in range(7)])

    def test_permuted(self):
        rng = np.random.default_rng(4)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        st = PureState(qubits(3), psi)
        perm = st.permuted([(2, "s"), (0, "s"), (1, "s")])
        oracle = psi.reshape(2, 2, 2).transpose(2, 0, 1).reshape(-1)
        assert np.allclose(perm.amps, oracle)


class TestDump:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        reg = QuditRegister([(0, "s", 2), (0, "a", 3)])
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        st = PureState(reg, psi)
        st2 = PureState.load(st.dumps())
        assert st2.register == reg
        assert np.allclose(st2.amps, st.amps)



# -- differential tests against a plain numpy reference -------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = hst.integers(0, 2**32 - 1)
LETTERS = "abcdefghijklmnopqrstuvwxyz"
ONE_QUBIT = ["H", "S", "SDG", "X", "Y", "Z"]
TWO_QUBIT = ["CNOT", "CZ", "SWAP"]


class _Reference:
    """Amplitudes in register order, updated with np.kron and np.einsum only."""

    def __init__(self, entries, vec):
        self.entries = list(entries)  # [(key, dim)] in register order
        self.vec = np.asarray(vec, dtype=complex)

    def copy(self):
        return _Reference(self.entries, self.vec.copy())

    @property
    def keys(self):
        return [k for k, _ in self.entries]

    @property
    def dims(self):
        return [d for _, d in self.entries]

    def dim(self, key):
        return dict(self.entries)[key]

    def applied(self, keys, matrix):
        n = len(self.entries)
        axes = [self.keys.index(k) for k in keys]
        ins = LETTERS[:n]
        new = LETTERS[n : n + len(axes)]
        outs = list(ins)
        for j, a in enumerate(axes):
            outs[a] = new[j]
        op = np.asarray(matrix).reshape([self.dims[a] for a in axes] * 2)
        spec = f"{new}{''.join(ins[a] for a in axes)},{ins}->{''.join(outs)}"
        return np.einsum(spec, op, self.vec.reshape(self.dims)).reshape(-1)

    def apply(self, keys, matrix):
        self.vec = self.applied(keys, matrix)

    def add(self, key, local):
        self.entries.append((key, len(local)))
        self.vec = np.kron(self.vec, local)

    def grouped(self, keys):
        """Rows over `keys` in the given order, columns over the other entries."""
        n = len(self.entries)
        axes = [self.keys.index(k) for k in keys]
        rest = [a for a in range(n) if a not in axes]
        t = np.einsum(f"{LETTERS[:n]}->{''.join(LETTERS[a] for a in axes + rest)}",
                      self.vec.reshape(self.dims))
        return t.reshape(int(np.prod([self.dims[a] for a in axes])), -1)

    def top_local(self, key):
        """Largest eigenvalue and its eigenvector of the entry's reduced state."""
        mat = self.grouped([key])
        w, v = np.linalg.eigh(mat @ mat.conj().T)
        return w[-1], v[:, -1]

    def drop(self, key, local):
        rest = local.conj() @ self.grouped([key])
        self.entries = [e for e in self.entries if e[0] != key]
        self.vec = rest / np.linalg.norm(rest)

    def probabilities(self, key):
        return (np.abs(self.grouped([key])) ** 2).sum(axis=1)

    def expectation(self, keys, matrix):
        return np.vdot(self.vec, self.applied(keys, matrix))

    def collapse(self, key, k):
        self.drop(key, np.eye(self.dim(key))[k])


def _unit_vector(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _assert_same(st, ref):
    assert st.register.keys == tuple(ref.keys)
    assert st.register.dims == tuple(ref.dims)
    got = st.amps
    overlap = np.vdot(ref.vec, got)
    assert abs(abs(overlap) - 1) < 1e-9
    assert np.allclose(got, overlap / abs(overlap) * ref.vec, atol=1e-9)
    assert st.tensor().shape == tuple(ref.dims)


class _Program:
    """One random program run on a PureState and on the reference side by side."""

    def __init__(self, sys_dims, rng):
        self.rng = rng
        psi = _unit_vector(int(np.prod(sys_dims)), rng)
        entries = [(i, "s", d) for i, d in enumerate(sys_dims)]
        self.st = PureState(QuditRegister(entries), psi)
        self.ref = _Reference([((i, "s"), d) for i, _, d in entries], psi)
        self.n_sites = len(sys_dims)
        self.fresh = 0

    def pick(self, keys):
        return keys[int(self.rng.integers(0, len(keys)))]

    def ancillas(self):
        return [k for k in self.ref.keys if k[1] != "s"]

    def add(self):
        key = (int(self.rng.integers(0, self.n_sites)), f"a{self.fresh}")
        self.fresh += 1
        d = int(self.rng.choice([2, 3]))
        local = _unit_vector(d, self.rng) if self.rng.random() < 0.5 else None
        self.st.add_entry(*key, d, local)
        self.ref.add(key, np.eye(d)[0] if local is None else local)
        return key

    def gate(self, keys, matrix):
        self.st.apply(RegionOperator(tuple(keys), matrix))
        self.ref.apply(keys, matrix)

    def random_gate(self, first=None):
        keys = self.ref.keys
        support = [first if first is not None else self.pick(keys)]
        if len(keys) > 1 and self.rng.random() < 0.6:
            support.append(self.pick([k for k in keys if k != support[0]]))
        d = int(np.prod([self.ref.dim(k) for k in support]))
        return support, gates.random_unitary(d, self.rng)

    def named(self):
        qubits = [k for k in self.ref.keys if self.ref.dim(k) == 2]
        if not qubits:
            return
        if len(qubits) > 1 and self.rng.random() < 0.5:
            a = self.pick(qubits)
            keys, name = [a, self.pick([k for k in qubits if k != a])], self.pick(TWO_QUBIT)
        else:
            keys, name = [self.pick(qubits)], self.pick(ONE_QUBIT)
        self.st.apply_named(name, keys)
        self.ref.apply(keys, gates.named_gate(name))

    def swap(self, a=None):
        a = a if a is not None else self.pick(self.ref.keys)
        partners = [k for k in self.ref.keys if k != a and self.ref.dim(k) == self.ref.dim(a)]
        if not partners:
            return None
        b = self.pick(partners)
        self.st.apply_named("SWAP", [a, b])
        self.ref.apply([a, b], swap_d(self.ref.dim(a), self.ref.dim(b)))
        return b

    def remove(self, key):
        """Remove when the reference says the entry is decoupled; expect a raise when not."""
        if len(self.ref.keys) == 1:
            return
        top, local = self.ref.top_local(key)
        if top >= 1 - 1e-9:
            self.st.remove_entry(key)
            self.ref.drop(key, local)
        elif top < 1 - 1e-6:
            with pytest.raises(ValueError, match="not decoupled"):
                self.st.remove_entry(key)

    def roundtrip(self):
        """A fresh ancilla left untouched, swapped only, touched and undone, or entangled."""
        key = self.add()
        kind = int(self.rng.integers(0, 4))
        if kind == 1:
            key = self.swap(key) or key
        elif kind >= 2:
            support, u = self.random_gate(first=key)
            self.gate(support, u)
            if kind == 2:
                self.gate(support, u.conj().T)
        self.remove(key)

    def measure(self):
        if len(self.ref.keys) == 1:
            return
        key = self.pick(self.ref.keys)
        probs = self.ref.probabilities(key)
        assert np.allclose(self.st.branch_probabilities(key), probs, atol=1e-10)
        live = np.flatnonzero(probs > 1e-6)
        k = int(self.rng.choice(live, p=probs[live] / probs[live].sum()))
        got, p = self.st.measure_remove(key, force=k)
        assert got == k and abs(p - probs[k]) < 1e-10
        self.ref.collapse(key, k)

    def clone(self):
        """Edit a clone; the original must not move. Continue with either one."""
        other, ref2 = self.st.clone(), self.ref.copy()
        support, u = self.random_gate()
        other.apply(RegionOperator(tuple(support), u))
        ref2.apply(support, u)
        _assert_same(other, ref2)
        _assert_same(self.st, self.ref)
        if self.rng.random() < 0.5:
            self.st, self.ref = other, ref2

    def read(self):
        keys = self.ref.keys
        support, _ = self.random_gate()
        d = int(np.prod([self.ref.dim(k) for k in support]))
        h = self.rng.normal(size=(d, d)) + 1j * self.rng.normal(size=(d, d))
        h = h + h.conj().T
        val = self.st.expectation(RegionOperator(tuple(support), h))
        assert abs(val - self.ref.expectation(support, h)) < 1e-9
        keep = [keys[i] for i in self.rng.permutation(len(keys))[: int(self.rng.integers(1, len(keys) + 1))]]
        mat = self.ref.grouped(keep)
        assert np.allclose(self.st.reduced_density(keep), mat @ mat.conj().T, atol=1e-10)
        order = [keys[i] for i in self.rng.permutation(len(keys))]
        ref_perm = _Reference([(k, self.ref.dim(k)) for k in order], self.ref.grouped(order).reshape(-1))
        _assert_same(self.st.permuted(order), ref_perm)

    def step(self):
        moves = [self.named, self.swap, self.measure, self.clone, self.read, self.roundtrip]
        if len(self.ref.keys) < 6:
            moves += [self.add, self.roundtrip]
        moves[int(self.rng.integers(0, len(moves)))]()
        ancillas = self.ancillas()
        if ancillas and self.rng.random() < 0.3:
            self.remove(self.pick(ancillas))
        _assert_same(self.st, self.ref)


class TestDifferential:
    @PROPERTY_SETTINGS
    @given(sys_dims=hst.lists(hst.sampled_from([2, 3]), min_size=1, max_size=3), seed=SEEDS)
    def test_random_programs_match_reference(self, sys_dims, seed):
        prog = _Program(sys_dims, np.random.default_rng(seed))
        for _ in range(30):
            prog.step()

    def test_entangled_ancilla_still_raises(self):
        st = PureState.product(qubits(2))
        st.add_entry(0, "a", 2)
        st.apply_named("H", [(0, "s")])
        st.apply_named("CNOT", [(0, "s"), (0, "a")])
        st.add_entry(1, "b", 2)
        st.apply_named("SWAP", [(0, "a"), (1, "b")])
        with pytest.raises(ValueError, match="not decoupled"):
            st.remove_entry((1, "b"))
        st.remove_entry((0, "a"))
        assert st.register.keys == ((0, "s"), (1, "s"), (1, "b"))


# -- the index-moving Paulis, one-slice forced outcomes and derived registers ----------


def _scrambled_state(rng, dims, n_ancillas):
    """A random state over `dims` whose tensor axes are out of register order,
    with `n_ancillas` fresh qubit ancillas left as product factors."""
    psi = _unit_vector(int(np.prod(dims)), rng)
    st = PureState(QuditRegister([(i, "s", d) for i, d in enumerate(dims)]), psi)
    if len(dims) > 1:
        i, j = (int(x) for x in rng.permutation(len(dims))[:2])
        st.apply(RegionOperator(((j, "s"), (i, "s")), gates.random_unitary(dims[i] * dims[j], rng)))
    for a in range(n_ancillas):
        st.add_entry(a, "a", 2, _unit_vector(2, rng) if rng.random() < 0.5 else None)
    return st


class TestPauliMoves:
    @PROPERTY_SETTINGS
    @given(
        dims=hst.lists(hst.sampled_from([2, 2, 3]), min_size=1, max_size=4),
        n_ancillas=hst.integers(1, 2),
        seed=SEEDS,
    )
    def test_paulis_match_their_matrices(self, dims, n_ancillas, seed):
        """X, Y and Z on materialised axes, on product factors and on axes
        already flipped by an earlier Pauli, then every reader and editor."""
        rng = np.random.default_rng(seed)
        fast = _scrambled_state(rng, dims, n_ancillas)
        ref = fast.clone()
        qubits_ = [k for k, d in zip(fast.register.keys, fast.register.dims) if d == 2]
        for _ in range(8):
            key, name = qubits_[int(rng.integers(len(qubits_)))], "XYZ"[int(rng.integers(3))]
            fast.apply_named(name, [key])
            ref.apply(RegionOperator((key,), gates.named_gate(name)))
            # equal up to the rounding of the reference's own factor contraction
            np.testing.assert_allclose(fast.amps, ref.amps, rtol=0, atol=1e-15)
        assert all(k in fast._lazy for k in fast.register.keys if k[1] == "a")
        copy = fast.clone()
        assert np.array_equal(copy.amps, fast.amps) and abs(copy.fidelity(ref) - 1) < 1e-12
        np.testing.assert_allclose(fast.tensor(), ref.tensor(), rtol=0, atol=1e-15)
        for _ in range(2):
            # a product factor leaves without a test; its reference sits in the tensor
            lazy = [k for k in fast.register.keys if k in fast._lazy]
            if lazy:
                key = lazy[int(rng.integers(len(lazy)))]
                fast.remove_entry(key)
                ref.remove_entry(key)
                assert abs(fast.fidelity(ref) - 1) < 1e-12
            if fast.register.size > 1:
                key = fast.register.keys[int(rng.integers(fast.register.size))]
                k = int(np.argmax(ref.branch_probabilities(key)))
                (kf, pf), (kr, pr) = fast.measure_remove(key, force=k), ref.measure_remove(key, force=k)
                assert kf == kr == k and abs(pf - pr) <= 1e-15
                assert fast.register == ref.register and abs(fast.fidelity(ref) - 1) < 1e-12

    @PROPERTY_SETTINGS
    @given(
        dims=hst.lists(hst.sampled_from([2, 2, 3]), min_size=1, max_size=5),
        n_ancillas=hst.integers(0, 2),
        seed=SEEDS,
    )
    def test_a_string_matches_its_letters(self, dims, n_ancillas, seed):
        """`apply_paulis` against `apply_named` letter by letter, bit for bit
        up to the sign of a zero: on tensor axes in any order, on product
        factors, on axes and factors an earlier X left flipped, and on the
        exact zeros a CNOT onto an ancilla writes into the tensor."""
        rng = np.random.default_rng(seed)
        st = _scrambled_state(rng, dims, n_ancillas)
        qubits_ = [k for k, d in zip(st.register.keys, st.register.dims) if d == 2]
        assume(qubits_)
        control = next((k for k in qubits_ if k[1] == "s"), None)
        if n_ancillas and control is not None and rng.random() < 0.5:
            st.apply(RegionOperator((control, (0, "a")), gates.named_gate("CNOT")))
        for key in qubits_:
            if rng.random() < 0.3:
                st.apply_named("X", [key])
        powers = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
        for _ in range(3):
            chosen = rng.permutation(len(qubits_))[: int(rng.integers(1, len(qubits_) + 1))]
            letters = [(qubits_[int(i)], "XYZ"[int(rng.integers(3))]) for i in chosen]
            before, amps = st.clone(), st.amps.copy()
            ref = st.clone()
            for key, name in letters:
                ref.apply_named(name, [key])
            st.apply_paulis([(key, *powers[name]) for key, name in letters])
            # + 0 clears the sign of a zero, which one combined phase may set differently
            assert (st.amps + 0).tobytes() == (ref.amps + 0).tobytes()
            assert st._keys == ref._keys and st._lazy.keys() == ref._lazy.keys()
            assert np.array_equal(before.amps, amps)  # the clone kept its amplitudes

    @PROPERTY_SETTINGS
    @given(
        d=hst.sampled_from([2, 3, 4]),
        x=hst.integers(0, 3),
        z=hst.integers(0, 3),
        on_factor=hst.booleans(),
        n_axes=hst.integers(1, 3),
        seed=SEEDS,
    )
    def test_qudit_paulis_match_their_matrices(self, d, x, z, on_factor, n_axes, seed):
        """X^x Z^z against the matrix shift_x(d, x) @ clock_z(d, z), up to one
        global phase (a qubit's XZ is applied as Y): on a tensor axis in a
        scrambled axis order or on a product factor, with other Paulis of
        the same string on the other entries."""
        rng = np.random.default_rng(seed)
        st = _scrambled_state(rng, [d] * n_axes, 0)
        for a in range(2):
            st.add_entry(a, "a", d, _unit_vector(d, rng))
        keys = list(st.register.keys)
        target = (0, "a") if on_factor else keys[int(rng.integers(n_axes))]
        others = [k for k in keys if k != target and rng.random() < 0.5]
        paulis = [(k, int(rng.integers(d)), int(rng.integers(d))) for k in others]
        paulis.insert(int(rng.integers(len(paulis) + 1)), (target, x % d, z % d))
        ref, factors = st.clone(), set(st._lazy)
        for key, xk, zk in paulis:
            ref.apply(RegionOperator((key,), gates.shift_x(d, xk) @ gates.clock_z(d, zk)))
        st.apply_paulis(paulis, d)
        assert set(st._lazy) == factors  # no factor joined the tensor
        phase = np.vdot(ref.amps, st.amps)
        assert abs(abs(phase) - 1) < 1e-12
        np.testing.assert_allclose(st.amps, phase * ref.amps, rtol=0, atol=1e-12)

    def test_a_map_over_another_dimension_raises(self):
        st = PureState.product(QuditRegister([(0, "s", 2), (1, "s", 3)]))
        with pytest.raises(ProtocolError, match="Z_2 on entry \\(1, 's'\\) of dimension 3"):
            st.apply_paulis([((0, "s"), 1, 0), ((1, "s"), 1, 0)])
        with pytest.raises(ProtocolError, match="Z_3"):
            st.apply_paulis([((0, "s"), 1, 0)], 3)

    def test_a_wrong_dimension_raises_before_any_edit(self):
        """An X on a qubit factor, then an entry that is a qutrit: nothing moves."""
        st = PureState.product(QuditRegister([(0, "s", 2), (1, "s", 3)]), {(0, "s"): [0.6, 0.8]})
        before = st.amps.copy()
        with pytest.raises(ProtocolError, match="dimension 3"):
            st.apply_paulis([((0, "s"), 1, 0), ((1, "s"), 1, 0)])
        assert np.array_equal(st.amps, before) and np.array_equal(st._lazy[(0, "s")], [0.6, 0.8])

    @pytest.mark.parametrize("d", [2, 3])
    def test_byproduct_residuals_read_slices(self, d):
        """A maximally entangled pair (a, s): outcome k of a leaves |k> on s,
        which X^(-k) takes back to outcome 0's |0>; the identity leaves it
        orthogonal, at distance sqrt(2/d) between unnormalised slices."""
        reg = QuditRegister([(0, "a", d), (0, "s", d)])
        st = PureState(reg, np.eye(d).reshape(-1) / np.sqrt(d))
        amps = st.amps.copy()
        np.testing.assert_allclose(st.byproduct_residuals((0, "a"), [((0, "s"), d - 1, 0)], d), 0, atol=1e-15)
        np.testing.assert_allclose(st.byproduct_residuals((0, "a"), [], d), np.sqrt(2 / d))
        assert np.array_equal(st.amps, amps)  # slices are read, never written
        st.add_entry(1, "b", d)  # a |0> product factor: Z adds nothing, X its slice's norm times sqrt(2)
        right = [((0, "s"), d - 1, 0), ((1, "b"), 0, 1)]
        np.testing.assert_allclose(st.byproduct_residuals((0, "a"), right, d), 0, atol=1e-15)
        np.testing.assert_allclose(st.byproduct_residuals((0, "a"), [((1, "b"), 1, 0)], d), 2 * np.sqrt(2 / d))
        assert st.byproduct_residuals((1, "b"), [], d) is None  # no slice shows a product factor
        assert st.byproduct_residuals((0, "a"), [((2, "c"), 1, 0)], d) is None  # nor an entry the state lacks

    def test_byproduct_residuals_free_a_later_entry(self):
        """|+>|+> joined by CZ: outcome 1 of a leaves Z on b, equal to outcome
        0's slice only up to one phase per basis state of b."""
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        st = PureState(QuditRegister([(0, "a", 2), (0, "b", 2)]), cz @ np.full(4, 0.5))
        assert st.byproduct_residuals((0, "a"), [], 2)[0] > 0.5
        assert st.byproduct_residuals((0, "a"), [], 2, free=[(0, "b")])[0] < 1e-15

    def test_x_is_a_view(self):
        st = ghz(3)
        before = st._t
        st.apply_named("X", [(1, "s")])
        assert np.shares_memory(st._t, before) and st._keys == [(0, "s"), (1, "s"), (2, "s")]
        oracle = np.zeros(8)
        oracle[[2, 5]] = 1 / np.sqrt(2)
        assert np.array_equal(st.amps, oracle) and np.array_equal(before.reshape(-1), ghz(3).amps)

    def test_qutrit_x_still_raises(self):
        st = PureState.product(QuditRegister([(0, "s", 3)]))
        with pytest.raises(ValueError, match="does not match support dimension"):
            st.apply_named("X", [(0, "s")])


class TestControlledMoves:
    @PROPERTY_SETTINGS
    @given(
        dims=hst.lists(hst.sampled_from([2, 2, 3]), min_size=1, max_size=4),
        n_ancillas=hst.integers(1, 2),
        seed=SEEDS,
    )
    def test_cnot_cz_match_their_matrices(self, dims, n_ancillas, seed):
        """CNOT and CZ through `apply_named` against `apply` of their matrices
        on the same state, bit for bit: on tensor axes in any order, on one
        and on two product factors, and on axes an earlier X left flipped."""
        rng = np.random.default_rng(seed)
        st = _scrambled_state(rng, dims, n_ancillas)
        qubits_ = [k for k, d in zip(st.register.keys, st.register.dims) if d == 2]
        assume(len(qubits_) >= 2)
        for _ in range(10):
            if rng.random() < 0.3:
                st.apply_named("X", [qubits_[int(rng.integers(len(qubits_)))]])
                continue
            a, b = (qubits_[int(i)] for i in rng.permutation(len(qubits_))[:2])
            name = ("CNOT", "CZ")[int(rng.integers(2))]
            before, amps = st.clone(), st.amps.copy()
            want = before.clone().apply(RegionOperator((a, b), gates.named_gate(name)))
            st.apply_named(name, [a, b])
            assert np.array_equal(st.amps, want.amps) and st.register == want.register
            assert np.array_equal(before.amps, amps)  # the clone kept its amplitudes

    @pytest.mark.parametrize("name", ["CNOT", "CZ"])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_qutrit_entry_still_raises(self, name, lazy):
        psi = _unit_vector(6, np.random.default_rng(1))
        st = PureState(QuditRegister([(0, "s", 2), (1, "s", 3)]), psi)
        if lazy:
            st.add_entry(2, "a", 3)
        qutrit = (2, "a") if lazy else (1, "s")
        for pair in ([(0, "s"), qutrit], [qutrit, (0, "s")]):
            with pytest.raises(ValueError, match="does not match support dimension"):
                st.apply_named(name, pair)
        with pytest.raises(ValueError, match="duplicate"):
            st.apply_named(name, [(0, "s"), (0, "s")])

    def test_mutating_a_clone_leaves_the_original_bit_equal(self):
        rng = np.random.default_rng(5)
        st = _scrambled_state(rng, [2, 2, 3, 2], 2)
        st.apply_named("X", [(1, "s")])
        st.apply_named("CNOT", [(0, "s"), (0, "a")])
        amps, layout = st.amps.copy(), (list(st._keys), dict(st._lazy))
        for edit in ("measure_remove", "CNOT", "CZ", "X", "remove_entry"):
            copy = st.clone()
            assert copy._t is st._t
            if edit == "measure_remove":
                copy.measure_remove((1, "s"), force=int(np.argmax(copy.branch_probabilities((1, "s")))))
            elif edit == "remove_entry":
                # undo the CNOT, so the materialised ancilla leaves through its slice
                copy.apply_named("CNOT", [(0, "s"), (0, "a")])
                copy.remove_entry((0, "a"))
                assert (0, "a") not in copy.register
            elif edit == "X":
                copy.apply_named("X", [(3, "s")])
            else:
                copy.apply_named(edit, [(3, "s"), (0, "s")])
            assert np.array_equal(st.amps, amps) and (list(st._keys), dict(st._lazy)) == layout


class TestForcedOutcomes:
    @PROPERTY_SETTINGS
    @given(dims=hst.lists(hst.sampled_from([2, 3]), min_size=1, max_size=4), seed=SEEDS)
    def test_forced_probability_matches_the_distribution(self, dims, seed):
        """A forced outcome's slice sums in the distribution's order, so the
        bits agree."""
        rng = np.random.default_rng(seed)
        st = _scrambled_state(rng, dims, 1)
        if rng.random() < 0.5:
            st.apply_named("X", [st.register.keys[-1]])
        for key in st.register.keys:
            probs = st.branch_probabilities(key)
            for k in np.flatnonzero(probs >= 2 * FORCE_FLOOR):
                got, p = st.clone().measure_remove(key, force=k)
                assert got == k and p == probs[k]

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("op", ["measure", "measure_remove"])
    def test_vanishing_and_out_of_range_still_raise(self, lazy, op):
        """Through `measure_remove`, or through a forced Measure step of the
        LOCC engine ("measure"), which calls it: nothing moves before the raise."""
        from qccc.locc import Measure, OutcomeRecord, _execute, _force

        measure = {
            "measure": lambda key, k: next(_execute([Measure(key, "k")], st, _force(OutcomeRecord((("k", k, 0.0),))))),
            "measure_remove": lambda key, k: st.measure_remove(key, force=k),
        }[op]
        one, plus = np.array([0, 1.0]), np.array([1, 1]) / np.sqrt(2)
        st = PureState(qubits(2), np.array([0, 1, 0, 0]))  # |01>
        st.add_entry(0, "a", 2, one if lazy else plus)
        if not lazy:
            st.apply_named("H", [(0, "a")])  # materialised, now |0>
        key = (0, "a") if lazy else (1, "s")  # a |1> factor, or |1> in the tensor
        before, layout = st.amps.copy(), (list(st._keys), dict(st._lazy))
        for force, match in [(0, "vanishing"), (2, "out of range"), (-1, "out of range")]:
            with pytest.raises(ValueError, match=match):
                measure(key, force)
        assert st.register.size == 3 and np.array_equal(st.amps, before)
        assert (list(st._keys), dict(st._lazy)) == layout
        assert not lazy or np.array_equal(st._lazy[key], one)


class TestRegisterEdits:
    @PROPERTY_SETTINGS
    @given(seed=SEEDS)
    def test_edits_match_the_constructor(self, seed):
        rng = np.random.default_rng(seed)
        entries, reg = [], QuditRegister([])
        for _ in range(12):
            if entries and rng.random() < 0.4:
                site, slot, _ = entries.pop(int(rng.integers(len(entries))))
                reg = reg.without((site, slot))
            else:
                entry = (int(rng.integers(4)), str(rng.choice(["s", "a", "b"])), int(rng.integers(2, 4)))
                if (entry[0], entry[1]) in reg:
                    with pytest.raises(ValueError, match="duplicate"):
                        reg.appended(*entry)
                    continue
                entries.append(entry)
                reg = reg.appended(*entry)
            built = QuditRegister(entries)
            assert reg == built and reg.total_dim == built.total_dim and reg.entries() == entries
            assert [reg.index(k) for k in built.keys] == list(range(len(entries)))

    def test_bad_edits_raise(self):
        reg = qubits(2)
        with pytest.raises(ValueError, match="local dimension"):
            reg.appended(5, "a", 1)
        with pytest.raises(KeyError):
            reg.without((5, "a"))

    def test_append_past_the_cap_raises_before_it_allocates(self, monkeypatch):
        monkeypatch.setenv("QCCC_MAX_AMPLITUDES", "64")
        st = PureState.product(qubits(5))
        st.add_entry(5, "a", 2)
        st.apply_named("H", [(5, "a")])
        before = st.amps.copy()
        with pytest.raises(CapacityError, match="128 amplitudes"):
            st.add_entry(6, "a", 2)
        assert st.register == qubits(5).appended(5, "a", 2) and (6, "a") not in st._lazy
        assert np.array_equal(st.amps, before)

    def test_permuted_to_its_order_keeps_the_register(self):
        st = ghz(3)
        st.apply_named("CNOT", [(2, "s"), (0, "s")])
        same = st.permuted(st.register.keys)
        assert same.register is st.register and np.array_equal(same.amps, st.amps)
