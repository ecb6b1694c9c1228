import numpy as np
import pytest

from qccc import gates
from qccc.diagnostics import (
    area_law_audit,
    build_cj_protocol,
    check_factorization,
    enumerate_cj_branches,
    ghz_unitary_cj,
    run_cj_unitary,
    verify_clifford_table,
)
from qccc.lattice import Lattice
from qccc.protocols import ghz_protocol, ghz_state, w_protocol, w_state
from qccc.stabilizer import PauliString, StabilizerTableau
from qccc.statevector import PureState, QuditRegister, RegionOperator, pauli_on

from oracles import graph_clifford_unitary, random_stabilizer_tableau


class TestFactorization:
    def test_ghz8_full_residual(self):
        lat = Lattice((8,))
        rep = check_factorization(
            ghz_state(8), lat, pauli_on((0, "s"), "Z"), pauli_on((4, "s"), "Z"), depth_claim=1
        )
        assert abs(rep.lhs - 1) < 1e-9
        assert abs(rep.rhs) < 1e-9
        assert abs(rep.residual - 1.0) < 1e-9
        assert rep.separation == 4
        assert rep.violates_depth_claim

    def test_product_state_factorizes(self):
        lat = Lattice((8,))
        st = PureState.product(QuditRegister([(i, "s", 2) for i in range(8)]))
        rep = check_factorization(st, lat, pauli_on((0, "s"), "X"), pauli_on((4, "s"), "Z"))
        assert rep.residual < 1e-12

    def test_w8_residual_eighth(self):
        lat = Lattice((8,))
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        rep = check_factorization(
            w_state(8),
            lat,
            RegionOperator(((0, "s"),), sp),
            RegionOperator(((4, "s"),), sp.conj().T),
        )
        assert abs(rep.residual - 0.125) < 1e-9

    @pytest.mark.parametrize("case", ["ghz8", "w8", "random_two_site", "qutrit"])
    def test_joint_expectation_matches_clone_and_apply(self, case):
        # <A (x) B> from one expectation on the joint support, against
        # applying both operators to a clone of the state
        rng = np.random.default_rng(11)
        if case == "ghz8":
            st, lat = ghz_state(8), Lattice((8,))
            op_a, op_b = pauli_on((0, "s"), "Z"), pauli_on((4, "s"), "Z")
        elif case == "w8":
            st, lat = w_state(8), Lattice((8,))
            sp = np.array([[0, 1], [0, 0]], dtype=complex)
            op_a, op_b = RegionOperator(((0, "s"),), sp), RegionOperator(((4, "s"),), sp.conj().T)
        else:
            d = 3 if case == "qutrit" else 2
            n = 5
            reg = QuditRegister([(i, "s", d) for i in range(n)])
            amps = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
            st, lat = PureState(reg, amps / np.linalg.norm(amps)), Lattice((n,), local_dim=d)
            op_a = RegionOperator(((3, "s"), (0, "s")), rng.normal(size=(d * d, d * d)))
            op_b = RegionOperator(((2, "s"),), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        work = st.clone()
        work.apply(op_b, unitary_check=False)
        work.apply(op_a, unitary_check=False)
        lhs = complex(np.vdot(st.amps, work.amps))
        rhs = complex(st.expectation(op_a) * st.expectation(op_b))
        rep = check_factorization(st, lat, op_a, op_b)
        assert abs(rep.lhs - lhs) <= 1e-12
        assert abs(rep.rhs - rhs) <= 1e-12
        assert abs(rep.residual - abs(lhs - rhs)) <= 1e-12

    def test_overlapping_supports_rejected(self):
        lat = Lattice((4,))
        with pytest.raises(ValueError):
            check_factorization(
                ghz_state(4), lat, pauli_on((0, "s"), "Z"), pauli_on((0, "s"), "X")
            )

    def test_residual_invariant_under_global_phase_and_outside_lu(self):
        rng = np.random.default_rng(3)
        lat = Lattice((6,))
        st = ghz_state(6)
        op_a, op_b = pauli_on((0, "s"), "Z"), pauli_on((3, "s"), "Z")
        base = check_factorization(st, lat, op_a, op_b).residual
        ph = PureState(st.register, np.exp(0.3j) * st.amps)
        assert abs(check_factorization(ph, lat, op_a, op_b).residual - base) < 1e-12
        rot = st.clone()
        rot.apply(RegionOperator(((1, "s"),), gates.random_unitary(2, rng)))
        rot.apply(RegionOperator(((5, "s"),), gates.random_unitary(2, rng)))
        assert abs(check_factorization(rot, lat, op_a, op_b).residual - base) < 1e-10

    def test_random_shallow_circuits_factorize(self):
        # outputs of depth-l circuits factorize beyond separation 2 l
        rng = np.random.default_rng(17)
        lat = Lattice((10,))
        reg = QuditRegister([(i, "s", 2) for i in range(10)])
        for trial in range(20):
            ell = int(rng.integers(1, 3))
            st = PureState.product(reg)
            for li in range(ell):
                for i in range(li % 2, 9, 2):
                    st.apply(
                        RegionOperator(((i, "s"), ((i + 1) % 10, "s")), gates.random_unitary(4, rng)),
                        unitary_check=False,
                    )
            i = int(rng.integers(0, 10))
            j = (i + 2 * ell + 1 + int(rng.integers(0, 10 - 4 * ell - 1))) % 10
            sep = min((i - j) % 10, (j - i) % 10)
            if sep <= 2 * ell:
                continue
            op_a = RegionOperator(((i, "s"),), gates.random_unitary(2, rng))
            op_b = RegionOperator(((j, "s"),), gates.random_unitary(2, rng))
            rep = check_factorization(st, lat, op_a, op_b, depth_claim=ell)
            assert rep.residual < 1e-8, (trial, sep, ell)
            assert not rep.violates_depth_claim


class TestAreaLaw:
    def test_product_state_zero(self):
        lat = Lattice((6,))
        st = PureState.product(QuditRegister([(i, "s", 2) for i in range(6)]))
        rep = area_law_audit(st, [[0, 1], [0, 1, 2]], lat=lat, depth=1)
        assert rep.passes and all(e.s0 == 0 for e in rep.entries)

    def test_ghz_protocol_passes(self):
        proto, _ = ghz_protocol(10)
        regions = [list(range(k)) for k in range(1, 10)]
        rep = area_law_audit(proto, regions)
        assert rep.passes
        # contiguous regions of GHZ have S0 = 1 against budget c * 2
        inner = [e for e in rep.entries if 1 < len(e.region) < 9]
        assert all(abs(e.s0 - 1.0) < 1e-9 for e in inner)

    def test_w_protocol_passes(self):
        proto, _ = w_protocol(6)
        rep = area_law_audit(proto, [list(range(k)) for k in range(1, 6)])
        assert rep.passes

    def test_bell_pair_stack_fails_depth2_budget(self):
        # 10 pairs crossing one cut: S0 = 10 > 2*2*log2(2)*2 = 8
        lat = Lattice((20,))
        st = PureState.product(QuditRegister([(i, "s", 2) for i in range(20)]))
        for i in range(10):
            st.apply_named("H", [(i, "s")])
            st.apply_named("CNOT", [(i, "s"), (i + 10, "s")])
        rep = area_law_audit(st, [list(range(10))], lat=lat, depth=2)
        assert not rep.passes
        assert rep.entries[0].s0 == 10.0
        assert rep.entries[0].boundary_size == 2

    def test_random_depth2_rank_bound(self):
        rng = np.random.default_rng(23)
        lat = Lattice((10,))
        reg = QuditRegister([(i, "s", 2) for i in range(10)])
        st = PureState.product(reg)
        for li in range(2):
            for i in range(li % 2, 9, 2):
                st.apply(
                    RegionOperator(((i, "s"), (i + 1, "s")), gates.random_unitary(4, rng)),
                    unitary_check=False,
                )
        rep = area_law_audit(st, [list(range(5))], lat=lat, depth=2)
        assert rep.passes  # S0 <= 8 = 2*2*log2(2)*|dA| with |dA| = 2


class TestCJConstruction:
    def test_u_ghz_is_the_cat_rotation(self):
        for n in (1, 2, 3):
            cj = ghz_unitary_cj(n)
            xall = PauliString.from_label("+" + "X" * n).dense()
            expect = (np.eye(2**n) + 1j * xall) / np.sqrt(2)
            assert np.linalg.norm(cj.u_dense() - expect) < 1e-9

    def test_u_ghz_dagger(self):
        cj = ghz_unitary_cj(2, dagger=True)
        xall = PauliString.from_label("+XX").dense()
        expect = (np.eye(4) - 1j * xall) / np.sqrt(2)
        assert np.linalg.norm(cj.u_dense() - expect) < 1e-9

    def test_u_ghz_z_conjugation_full_support(self):
        cj = ghz_unitary_cj(3)
        img = cj.u_map.conjugate(PauliString.single(3, 0, "Z"))
        assert len(img.support()) == 3

    def test_empty_graph_swaps_x_and_z(self):
        tab = StabilizerTableau(3)
        for q in range(3):
            tab.apply_gate("H", q)
        cj = build_cj_protocol(tab)
        for k in range(3):
            ix = cj.u_map.conjugate(PauliString.single(3, k, "X"))
            iz = cj.u_map.conjugate(PauliString.single(3, k, "Z"))
            assert sorted(ix.support()) == [k] and ix.z[k] == 1 and ix.x[k] == 0
            assert sorted(iz.support()) == [k] and iz.x[k] == 1 and iz.z[k] == 0

    def test_path_graph_middle_z(self):
        tab = StabilizerTableau(3)
        for q in range(3):
            tab.apply_gate("H", q)
        tab.apply_gate("CZ", 0, 1)
        tab.apply_gate("CZ", 1, 2)
        cj = build_cj_protocol(tab)
        img = cj.u_map.conjugate(PauliString.single(3, 1, "Z"))
        assert img.label() == "+ZXZ"
        # dense cross-check against the explicit graph unitary
        adj = np.zeros((3, 3), dtype=np.uint8)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        u = graph_clifford_unitary(adj)
        lhs = u @ PauliString.single(3, 1, "Z").dense() @ u.conj().T
        assert np.linalg.norm(lhs - img.dense()) < 1e-9

    def test_graph_path_u_matches_formula(self):
        tab = StabilizerTableau(3)
        for q in range(3):
            tab.apply_gate("H", q)
        tab.apply_gate("CZ", 0, 1)
        cj = build_cj_protocol(tab)
        assert cj.graph is not None
        u = cj.u_dense()
        uf = graph_clifford_unitary(cj.graph.adjacency)
        assert np.linalg.norm(u - uf) < 1e-8

    @pytest.mark.parametrize("dagger", [False, True])
    def test_ghz_clifford_table_signs(self, dagger):
        # U_GHZ^dag maps Z_0 to -Y X ..., so a dropped image sign shows here
        for n in (2, 3, 4):
            assert verify_clifford_table(ghz_unitary_cj(n, dagger=dagger))

    def test_clifford_table_verified_random_resources(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            tab = random_stabilizer_tableau(n, rng)
            cj = build_cj_protocol(tab)
            assert verify_clifford_table(cj)


class TestCJExecution:
    def test_all_branches_random_inputs(self):
        rng = np.random.default_rng(9)
        cj = ghz_unitary_cj(2)
        u = cj.u_dense()
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            inp = PureState(QuditRegister([(k, "in", 2) for k in range(2)]), psi)
            det, fid, _ = enumerate_cj_branches(cj, inp, reference=u @ psi)
            assert det and fid > 1 - 1e-9

    def test_sampled_run_matches(self):
        cj = ghz_unitary_cj(3)
        u = cj.u_dense()
        rng = np.random.default_rng(2)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        inp = PureState(QuditRegister([(k, "in", 2) for k in range(3)]), psi)
        out = run_cj_unitary(cj, inp, seed=4)
        assert abs(np.vdot(u @ psi, out.amps)) ** 2 > 1 - 1e-9

    def test_identity_like_resource_teleports(self):
        # the empty-graph gadget acts as per-site H; applying it twice via two
        # gadgets returns the input (teleportation sanity)
        tab = StabilizerTableau(2)
        tab.apply_gate("H", 0)
        tab.apply_gate("H", 1)
        cj = build_cj_protocol(tab)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        inp = PureState(QuditRegister([(k, "in", 2) for k in range(2)]), psi)
        once = run_cj_unitary(cj, inp, seed=1)
        again = run_cj_unitary(
            cj, PureState(QuditRegister([(k, "in", 2) for k in range(2)]), once.amps), seed=2
        )
        # (per-site H-like)^2 = identity up to the recorded frame
        u = cj.u_dense()
        expect = u @ u @ psi
        assert abs(np.vdot(expect, again.amps)) ** 2 > 1 - 1e-9

    def test_composition_with_inverse(self):
        cj = ghz_unitary_cj(3)
        cjd = ghz_unitary_cj(3, dagger=True)
        rng = np.random.default_rng(5)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        inp = PureState(QuditRegister([(k, "in", 2) for k in range(3)]), psi)
        mid = run_cj_unitary(cj, inp, seed=3)
        back = run_cj_unitary(
            cjd, PureState(QuditRegister([(k, "in", 2) for k in range(3)]), mid.amps), seed=4
        )
        assert abs(np.vdot(psi, back.amps)) ** 2 > 1 - 1e-9

    def test_tableau_backend_u_on_zero(self):
        cj = ghz_unitary_cj(3)
        ts = run_cj_unitary(cj, [], backend="tableau", seed=6)
        target = StabilizerTableau.from_generators(
            [cj.u_map.conjugate(PauliString.single(3, k, "Z")) for k in range(3)]
        )
        assert ts.tab.states_equal(target)

    def test_tc_unitary_n4(self):
        from qccc.protocols import ToricCodeLayout, tc_target_generators

        layout = ToricCodeLayout(4)
        tc_tab = StabilizerTableau.from_generators(tc_target_generators(layout))
        cj = build_cj_protocol(tc_tab)
        graph_tab = cj.resource
        # U|0> is stabilized by the images of Z_k: must equal the graph form
        u0 = StabilizerTableau.from_generators(
            [cj.u_map.conjugate(PauliString.single(16, k, "Z")) for k in range(16)]
        )
        assert u0.states_equal(graph_tab)
        # and the operational run agrees
        ts = run_cj_unitary(cj, [], backend="tableau", seed=7)
        assert ts.tab.states_equal(graph_tab)
        assert verify_clifford_table(cj)

    def test_runs_leave_the_resource_alone(self):
        # a run adds its ancilla and input qubits to a copy of the resource
        from qccc.protocols import ToricCodeLayout, tc_target_generators

        cj = build_cj_protocol(StabilizerTableau.from_generators(tc_target_generators(ToricCodeLayout(4))))
        n, rows = cj.resource.n, [g.label() for g in cj.resource.canonical_stabilizers()]
        for seed in (1, 2):
            assert run_cj_unitary(cj, [], backend="tableau", seed=seed).tab.states_equal(cj.resource)
        assert cj.resource.n == n and [g.label() for g in cj.resource.canonical_stabilizers()] == rows

    def test_resource_prepared_by_its_own_protocol(self):
        # composability: prepare the GHZ resource with the LOCC protocol, then
        # feed it through the gadget instead of the analytic resource state
        from qccc.locc import run_sampled

        n = 3
        cj = ghz_unitary_cj(n)
        proto, _ = ghz_protocol(n)
        res_state, _ = run_sampled(proto, seed=9)
        for name, q in cj.prep_gates:
            res_state.apply_named(name, [(q, "s")])
        analytic = cj.resource.to_statevector()
        assert abs(np.vdot(analytic, res_state.amps)) ** 2 > 1 - 1e-9
