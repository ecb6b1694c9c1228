"""Differential tests of the vectorised circuit and MPS kernels.

Each kernel is checked against the implementation it replaced, kept here as a
plain reference: the column-by-column `circuit_unitary`, the basis-state loop
of `_shift_unitary`, the rebuild-and-subtract `operator_support` with the `np.kron` site embedding
and every shift-clock monomial evolved in `estimate_range`,
the `einsum` forms of `block`, the transfer matrices and `state_from_mps`,
and the Gram-Schmidt `complete_to_unitary`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qccc import circuits as cx
from qccc import gates, locc
from qccc import mps as M
from qccc.lattice import Lattice, distance
from qccc.protocols import RGFixedPointSpec, rg_fixed_point_protocol
from qccc.statevector import CapacityError, PureState, QuditRegister

from oracles import random_normal_mps

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = hst.integers(0, 2**32 - 1)


# -- references: the implementations the kernels replaced ---------------------------------


def ref_circuit_unitary(circuit, register):
    reg = QuditRegister(register)
    cols = []
    for b in range(reg.total_dim):
        amps = np.zeros(reg.total_dim, dtype=complex)
        amps[b] = 1.0
        st = PureState(reg, amps)
        cx.run(circuit, st)
        cols.append(st.amps)
    return np.array(cols).T


def ref_shift_unitary(lat):
    n, d = lat.n_sites, lat.local_dim
    u = np.zeros((d**n, d**n), dtype=complex)
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


def ref_operator_support(op, lat, tol=1e-9):
    n, d = lat.n_sites, lat.local_dim
    norm = np.linalg.norm(op)
    support = []
    t = op.reshape((d,) * (2 * n))
    for j in range(n):
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


def ref_residuals(op, lat):
    """||A - 1_j (x) tr_j A / d|| for every site j, by rebuilding the operator."""
    n, d = lat.n_sites, lat.local_dim
    t = op.reshape((d,) * (2 * n))
    out = []
    for j in range(n):
        tr = np.trace(t, axis1=j, axis2=n + j) / d
        rebuilt = np.tensordot(np.eye(d), tr.reshape((d,) * (2 * (n - 1))), axes=0)
        perm_out = list(range(2, 2 + (n - 1)))
        perm_in = list(range(2 + (n - 1), 2 + 2 * (n - 1)))
        perm_out.insert(j, 0)
        perm_in.insert(j, 1)
        rebuilt = np.transpose(rebuilt, perm_out + perm_in)
        out.append(np.linalg.norm(op - rebuilt.reshape(op.shape)))
    return out


def ref_embed(op, site, n, d):
    m = np.eye(1, dtype=complex)
    for j in range(n):
        m = np.kron(m, op if j == site else np.eye(d))
    return m


def ref_site_operator_basis(d):
    """All d^2 - 1 nontrivial shift-clock monomials X^a Z^b of one site."""
    return [
        gates.shift_x(d, a) @ gates.clock_z(d, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)
    ]


def ref_estimate_range(unitary, lat, tol=1e-9):
    n, d = lat.n_sites, lat.local_dim
    r = 0
    for i in range(n):
        for op in ref_site_operator_basis(d):
            evolved = unitary.conj().T @ ref_embed(op, i, n, d) @ unitary
            for j in ref_operator_support(evolved, lat, tol):
                if j != i:
                    r = max(r, distance(lat, [i], [j]))
    return r


def ref_block(a, q):
    chi = a.shape[1]
    out = a
    for _ in range(q - 1):
        out = np.einsum("aij,sjk->asik", out, a).reshape(-1, chi, chi)
    return out


def ref_transfer(a, chain=True):
    chi = a.shape[1]
    if chain:
        return np.einsum("sij,skl->ikjl", a, a.conj()).reshape(chi * chi, chi * chi)
    return np.einsum("sij,skl->ijkl", a.conj(), a).reshape(chi * chi, chi * chi)


def ref_mixed_transfer(a, b):
    chi = a.shape[1]
    return np.einsum("sij,skl->ikjl", a, b.conj()).reshape(chi * chi, chi * chi)


def ref_chain_amplitudes(a, n):
    return np.trace(ref_block(a, n), axis1=1, axis2=2)


def ref_complete_to_unitary(columns, fallbacks=None):
    """Gram-Schmidt against the canonical basis; the free columns whose
    canonical seed fell in the span so far are appended to `fallbacks`."""
    n = len(next(iter(columns.values())))
    u = np.zeros((n, n), dtype=complex)
    basis = []
    for j in sorted(columns):
        v = np.asarray(columns[j], dtype=complex)
        u[:, j] = v
        basis.append(v)
    for j in [j for j in range(n) if j not in columns]:
        v = np.zeros(n, dtype=complex)
        v[j] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - np.vdot(b, v) * b
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            if fallbacks is not None:
                fallbacks.append(j)
            rng = np.random.default_rng(j)
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            for _ in range(2):
                for b in basis:
                    v = v - np.vdot(b, v) * b
            nv = np.linalg.norm(v)
        v /= nv
        u[:, j] = v
        basis.append(v)
    return u


# -- circuits ----------------------------------------------------------------------------


class TestCircuitUnitary:
    @pytest.mark.parametrize("seed", range(6))
    def test_brickwork_bit_identical_to_column_loop(self, seed):
        lat = Lattice((8,))
        circuit = cx._random_circuit(lat, 1 + seed % 3, np.random.default_rng(seed))
        reg = [(i, "s", 2) for i in range(8)]
        assert np.array_equal(cx.circuit_unitary(circuit, reg), ref_circuit_unitary(circuit, reg))

    def test_qutrit_register(self):
        # 9 x 9 gates: BLAS may sum a product in another order when it sees
        # more columns, so only the last bits may differ
        lat = Lattice((5,), local_dim=3)
        circuit = cx._random_circuit(lat, 2, np.random.default_rng(9))
        reg = [(i, "s", 3) for i in range(5)]
        u = cx.circuit_unitary(circuit, reg)
        assert np.allclose(u, ref_circuit_unitary(circuit, reg), rtol=0, atol=1e-14)
        assert gates.is_unitary(u)

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)])
    def test_shift_circuit_is_the_shift_permutation(self, d, n):
        # the depth-2 swap circuit, its ancillas added and removed, against
        # the permutation the range tests use and that permutation's loop form
        lat = Lattice((n,), local_dim=d)
        u = cx.circuit_unitary(cx.build_shift_circuit(lat), [(i, "s", d) for i in range(n)])
        assert np.array_equal(u, cx._shift_unitary(lat))
        assert np.array_equal(u, ref_shift_unitary(lat))

    def test_named_gates_and_swaps(self):
        lat = Lattice((4,))
        layers = [
            cx.GateLayer([cx.Gate(((0, "s"), (1, "s")), [("H", (0,)), ("CNOT", (0, 1))])]),
            cx.GateLayer([cx.Gate(((1, "s"), (2, "s")), [("SWAP", (0, 1))])]),
            cx.GateLayer([cx.Gate(((2, "s"), (3, "s")), [("CZ", (0, 1)), ("S", (1,))])]),
        ]
        circuit = cx.Circuit(lat, layers)
        reg = [(i, "s", 2) for i in range(4)]
        assert np.array_equal(cx.circuit_unitary(circuit, reg), ref_circuit_unitary(circuit, reg))


def _random_operator(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestAmplitudeCap:
    """One cap bounds every dense array, checked before it is allocated."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_dim_squared_unitaries(self, n, monkeypatch):
        lat = Lattice((n,))
        circuit = cx._random_circuit(lat, 3, np.random.default_rng(4))
        reg = [(i, "s", 2) for i in range(n)]
        ref = ref_circuit_unitary(circuit, reg)
        dim = 2**n
        monkeypatch.setenv("QCCC_MAX_AMPLITUDES", str(dim * dim - 1))
        with pytest.raises(CapacityError):
            cx.circuit_unitary(circuit, reg)
        with pytest.raises(CapacityError):
            cx.estimate_range(ref, lat)
        with pytest.raises(CapacityError):
            cx._shift_unitary(lat)
        monkeypatch.setenv("QCCC_MAX_AMPLITUDES", str(dim * dim))
        assert np.array_equal(cx.circuit_unitary(circuit, reg), ref)
        assert cx.estimate_range(ref, lat) == ref_estimate_range(ref, lat)
        assert np.array_equal(cx._shift_unitary(lat), ref_shift_unitary(lat))

    def test_block(self, monkeypatch):
        # AKLT: d = 3, chi = 2, so q = 3 holds 27 * 4 = 108 amplitudes
        aklt = M.aklt_mps()
        monkeypatch.setenv("QCCC_MAX_AMPLITUDES", "108")
        assert np.allclose(M.block(aklt, 3).tensor, ref_block(aklt.tensor, 3), rtol=0, atol=1e-14)
        with pytest.raises(CapacityError):
            M.block(aklt, 4)
        monkeypatch.setenv("QCCC_MAX_AMPLITUDES", "107")
        with pytest.raises(CapacityError):
            M.block(aklt, 3)


class TestOperatorSupport:
    @PROPERTY_SETTINGS
    @given(n=hst.integers(2, 5), d=hst.sampled_from([2, 3]), seed=SEEDS)
    def test_identity_padded_operators(self, n, d, seed):
        # a random operator on a random subset of sites, identity elsewhere
        if d**n > 512:
            n -= 1
        rng = np.random.default_rng(seed)
        lat = Lattice((n,), local_dim=d)
        acting = [bool(b) for b in rng.integers(0, 2, size=n)]
        op = np.eye(1, dtype=complex)
        for act in acting:
            op = np.kron(op, _random_operator(rng, d) if act else np.eye(d))
        assert cx.operator_support(op, lat) == ref_operator_support(op, lat)
        assert cx.operator_support(op, lat) == tuple(j for j in range(n) if acting[j])

    @PROPERTY_SETTINGS
    @given(n=hst.integers(2, 5), d=hst.sampled_from([2, 3]), seed=SEEDS)
    def test_random_operators(self, n, d, seed):
        if d**n > 512:
            n -= 1
        rng = np.random.default_rng(seed)
        lat = Lattice((n,), local_dim=d)
        op = _random_operator(rng, d**n)
        assert cx.operator_support(op, lat) == ref_operator_support(op, lat)

    @pytest.mark.parametrize("scale", [0.3, 0.8, 1.25, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_residual_near_tolerance(self, scale, seed):
        # U^dag X_1 U on sites {0, 1}, plus Z_4 scaled so that its residual at
        # site 4 is `scale` times the threshold tol * ||A||
        n, tol = 6, 1e-9
        lat = Lattice((n,))
        u = cx.circuit_unitary(cx._random_circuit(lat, 1, np.random.default_rng(seed)), [(i, "s", 2) for i in range(n)])
        base = u.conj().T @ ref_embed(gates.X, 1, n, 2) @ u
        pert = ref_embed(gates.Z, 4, n, 2)
        op = base + scale * tol * np.linalg.norm(base) / ref_residuals(pert, lat)[4] * pert
        want = ref_operator_support(op, lat, tol)
        assert cx.operator_support(op, lat, tol) == want
        assert want == ((0, 1, 4) if scale > 1 else (0, 1))

    @pytest.mark.parametrize("seed", range(3))
    def test_estimate_range_matches_embedding(self, seed):
        lat = Lattice((6,))
        circuit = cx._random_circuit(lat, 1 + seed, np.random.default_rng(seed))
        u = cx.circuit_unitary(circuit, [(i, "s", 2) for i in range(6)])
        assert cx.estimate_range(u, lat) == ref_estimate_range(u, lat)

    def test_estimate_range_qutrits(self):
        lat = Lattice((4,), local_dim=3)
        circuit = cx._random_circuit(lat, 2, np.random.default_rng(5))
        u = cx.circuit_unitary(circuit, [(i, "s", 3) for i in range(4)])
        assert cx.estimate_range(u, lat) == ref_estimate_range(u, lat) == 2

    @PROPERTY_SETTINGS
    @given(d=hst.sampled_from([2, 3]), n=hst.integers(2, 6), depth=hst.integers(0, 3), seed=SEEDS)
    def test_estimate_range_random_brickworks(self, d, n, depth, seed):
        # the d - 1 matrix units |k><k+1| against all d^2 - 1 shift-clock monomials
        n = min(n, 4) if d == 3 else n
        lat = Lattice((n,), local_dim=d)
        u = cx.circuit_unitary(cx._random_circuit(lat, depth, np.random.default_rng(seed)), [(i, "s", d) for i in range(n)])
        assert cx.estimate_range(u, lat) == ref_estimate_range(u, lat)

    @pytest.mark.parametrize("d,n", [(2, 5), (2, 6), (3, 3), (3, 4)])
    def test_estimate_range_ring_shift(self, d, n):
        lat = Lattice((n,), local_dim=d)
        u = cx._shift_unitary(lat)
        assert cx.estimate_range(u, lat) == ref_estimate_range(u, lat) == 1
        # a real float64 permutation matrix, as the benchmark builds the shift
        assert cx.estimate_range(u.real.copy(), lat) == 1


# -- MPS ---------------------------------------------------------------------------------


def _tensors():
    return {
        "aklt": M.aklt_mps(),
        "cluster": M.cluster_mps(),
        "random": random_normal_mps(2, 3, np.random.default_rng(7)),
    }


TENSORS = _tensors()


class TestMpsKernels:
    @pytest.mark.parametrize("name", sorted(TENSORS))
    @pytest.mark.parametrize("q", range(1, 7))
    def test_block_and_transfer(self, name, q):
        m = TENSORS[name]
        blocked = M.block(m, q)
        ref = ref_block(m.tensor, q)
        assert blocked.tensor.shape == ref.shape
        assert np.allclose(blocked.tensor, ref, rtol=0, atol=1e-14)
        for chain in (True, False):
            assert np.allclose(
                M.transfer_matrix(blocked, chain=chain), ref_transfer(ref, chain), rtol=0, atol=1e-13
            )
        other = random_normal_mps(m.d, m.chi, np.random.default_rng(q))
        other_b = ref_block(other.tensor, q)
        assert np.allclose(
            M.mixed_transfer(ref, other_b), ref_mixed_transfer(ref, other_b), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("name", sorted(TENSORS))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_state_from_mps(self, name, n):
        m = TENSORS[name]
        amps = M.state_from_mps(m, n, normalize=False).amps
        assert np.allclose(amps, ref_chain_amplitudes(m.tensor, n), rtol=0, atol=1e-14)

    def test_transfer_accepts_a_plain_real_array(self):
        a = np.random.default_rng(3).normal(size=(3, 2, 2))
        assert np.allclose(M.transfer_matrix(a), ref_transfer(a.astype(complex)), rtol=0, atol=1e-14)
        assert np.allclose(
            M.transfer_matrix(a, chain=False), ref_transfer(a.astype(complex), False), rtol=0, atol=1e-14
        )


# -- unitary completion ------------------------------------------------------------------


def _recorded_columns(monkeypatch, build):
    """Every columns dict passed to complete_to_unitary while `build()` runs."""
    seen = []
    real = gates.complete_to_unitary

    def record(columns):
        seen.append({k: np.array(v, dtype=complex) for k, v in columns.items()})
        return real(columns)

    monkeypatch.setattr(gates, "complete_to_unitary", record)
    build()
    monkeypatch.undo()
    return seen


def _rg_spec():
    alphas = np.array([0.6, 0.8j])
    bond = np.array([0.5, 0.5j, -0.5, 0.5])
    return RGFixedPointSpec(2, alphas, bond, 3)


class TestCompleteToUnitary:
    def _check(self, columns):
        u = gates.complete_to_unitary(columns)
        for j, v in columns.items():
            assert np.array_equal(u[:, j], np.asarray(v, dtype=complex))
        n = u.shape[0]
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
        assert np.array_equal(u, gates.complete_to_unitary(columns))
        ref = ref_complete_to_unitary(columns)
        assert np.linalg.norm(ref.conj().T @ ref - np.eye(n)) <= 1e-12 * n
        return u

    def test_aklt_pipeline_writer_columns(self, monkeypatch):
        calls = _recorded_columns(monkeypatch, lambda: M.preparation_pipeline(M.aklt_mps(), 4, 8))
        writer = max(calls, key=lambda c: len(next(iter(c.values()))))
        assert len(next(iter(writer.values()))) == 4 * 3**4
        # some canonical seeds lie in the span of the columns before them, so
        # the Gram-Schmidt reference had to draw random seeds for them
        fallbacks = []
        ref_complete_to_unitary(writer, fallbacks)
        assert fallbacks
        for columns in calls:
            self._check(columns)

    def test_rg_alphas_and_bond_writer(self, monkeypatch):
        calls = _recorded_columns(monkeypatch, lambda: rg_fixed_point_protocol(_rg_spec()))
        assert any(list(c) == [0] and len(c[0]) == 2 for c in calls)
        for columns in calls:
            self._check(columns)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bell_pair_gate(self, d):
        u = self._check({0: gates.bell_state(d)})
        assert np.array_equal(gates.bell_pair_gate(d), u)

    def test_all_columns_prescribed(self):
        q = gates.random_unitary(5, np.random.default_rng(2))
        assert np.array_equal(gates.complete_to_unitary({j: q[:, j] for j in range(5)}), q)

    def test_checks_unchanged(self):
        with pytest.raises(ValueError, match="normalized"):
            gates.complete_to_unitary({0: np.array([1.0, 1.0])})
        with pytest.raises(ValueError, match="orthogonal"):
            gates.complete_to_unitary({0: np.array([1.0, 0.0]), 1: np.array([1.0, 0.0])})


# -- the pipeline through the old and the new kernels -------------------------------------


def _enumerate_pipeline():
    res = M.preparation_pipeline(M.aklt_mps(), 4, 8)
    out = locc.enumerate_branches(res.protocol)
    return res, out


class TestPipelineRoute:
    def test_aklt_q4_n8_same_as_reference_kernels(self, monkeypatch):
        monkeypatch.setattr(M, "block", lambda m, q: M.MPS(ref_block(m.tensor, q), normal=m.normal))
        monkeypatch.setattr(M, "transfer_matrix", lambda m, chain=True: ref_transfer(
            m.tensor if isinstance(m, M.MPS) else np.asarray(m), chain))
        monkeypatch.setattr(M, "mixed_transfer", ref_mixed_transfer)
        monkeypatch.setattr(M, "state_from_mps", lambda m, n, normalize=True: PureState(
            QuditRegister([(i, "s", m.d) for i in range(n)]),
            ref_chain_amplitudes(m.tensor, n) / np.linalg.norm(ref_chain_amplitudes(m.tensor, n))))
        monkeypatch.setattr(gates, "complete_to_unitary", ref_complete_to_unitary)
        ref_res, ref_out = _enumerate_pipeline()
        monkeypatch.undo()
        res, out = _enumerate_pipeline()

        assert out.verdict == ref_out.verdict == "DETERMINISTIC"
        tags = lambda rep: [[(t, k) for t, k, _ in r.record.outcomes] for r in rep.reports]  # noqa: E731
        assert tags(out) == tags(ref_out)
        for new, old in zip(out.reports, ref_out.reports):
            assert abs(new.probability - old.probability) <= 1e-12
            assert abs(new.fidelity - old.fidelity) <= 1e-12
        assert abs(out.min_fidelity - ref_out.min_fidelity) <= 1e-12
        assert res.depth == ref_res.depth
        assert abs(res.writer_defect - ref_res.writer_defect) <= 1e-12
        new_rep, old_rep = res.report.to_dict(), ref_res.report.to_dict()
        assert new_rep.keys() == old_rep.keys()
        for key, val in old_rep.items():
            if isinstance(val, float):
                assert abs(new_rep[key] - val) <= 1e-12 * max(1.0, abs(val)), key
            else:
                assert new_rep[key] == val, key
