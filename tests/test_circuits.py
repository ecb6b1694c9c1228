import numpy as np
import pytest

from qccc import gates
from qccc import circuits as cx
from qccc.lattice import Lattice
from qccc.statevector import CapacityError, PureState, QuditRegister


def qreg(n, d=2):
    return [(i, "s", d) for i in range(n)]


class TestValidate:
    def test_single_cnot_ok(self):
        lat = Lattice((4,))
        c = cx.Circuit(lat, [cx.GateLayer([cx.Gate(((0, "s"), (1, "s")), [("CNOT", (0, 1))])])])
        assert cx.validate(c, qreg(4)) == []

    def test_shared_qudit_violation(self):
        lat = Lattice((4,))
        layer = cx.GateLayer(
            [
                cx.Gate(((0, "s"), (1, "s")), [("CNOT", (0, 1))]),
                cx.Gate(((1, "s"), (2, "s")), [("CNOT", (0, 1))]),
            ]
        )
        out = cx.validate(cx.Circuit(lat, [layer]), qreg(4))
        assert any("used twice" in v.reason for v in out)

    def test_distance_two_violation(self):
        lat = Lattice((6,))
        c = cx.Circuit(lat, [cx.GateLayer([cx.Gate(((0, "s"), (2, "s")), [("CZ", (0, 1))])])])
        out = cx.validate(c, qreg(6))
        assert any("nearest neighbors" in v.reason for v in out)

    def test_nonunitary_matrix_violation(self):
        lat = Lattice((4,))
        bad = np.eye(4)
        bad[0, 0] = 2.0
        c = cx.Circuit(lat, [cx.GateLayer([cx.Gate(((0, "s"), (1, "s")), bad)])])
        out = cx.validate(c, qreg(4))
        assert any("not unitary" in v.reason for v in out)

    def test_same_site_qudits_allowed_in_one_layer(self):
        # two gates may touch the same site provided the qudits differ
        lat = Lattice((3,))
        layer = cx.LocalLayer([cx.add_ancilla(1, "a", 2)])
        g = cx.GateLayer(
            [
                cx.Gate(((0, "s"), (1, "s")), [("CZ", (0, 1))]),
                cx.Gate(((1, "a"), (2, "s")), [("CZ", (0, 1))]),
            ]
        )
        out = cx.validate(cx.Circuit(lat, [layer, g]), qreg(3))
        assert out == []

    def test_register_tracking(self):
        lat = Lattice((3,))
        layers = [
            cx.LocalLayer([cx.add_ancilla(0, "a", 2)]),
            cx.LocalLayer([cx.remove_ancilla(0, "a")]),
            cx.LocalLayer([cx.remove_ancilla(0, "a")]),
        ]
        out = cx.validate(cx.Circuit(lat, layers), qreg(3))
        assert any("removed but absent" in v.reason for v in out)


class TestParallel:
    def test_stages_merge_layer_by_layer(self):
        def block(i):
            return [
                cx.LocalLayer([cx.add_ancilla(i, "a", 2)]),
                cx.GateLayer([cx.Gate(((i, "a"), (i + 1, "s")), [("SWAP", (0, 1))])]),
            ]

        merged = cx.parallel([block(0), block(2), block(4)[:1]])
        assert [type(layer) for layer in merged] == [cx.LocalLayer, cx.GateLayer]
        assert len(merged[0].actions) == 3 and len(merged[1].gates) == 2
        assert cx.validate(cx.Circuit(Lattice((6,)), merged), qreg(6)) == []

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cx.parallel([[cx.LocalLayer()], [cx.GateLayer()]])


class TestRun:
    def test_depth_zero_identity(self):
        lat = Lattice((3,))
        st = PureState.product(QuditRegister(qreg(3)))
        before = st.amps.copy()
        cx.run(cx.Circuit(lat, []), st)
        assert np.allclose(st.amps, before)

    def test_random_circuit_vs_gate_by_gate_oracle(self):
        rng = np.random.default_rng(17)
        lat = Lattice((5,))
        layers = []
        mats = []
        for li in range(3):
            layer = []
            for i in range(li % 2, 4, 2):
                u = gates.random_unitary(4, rng)
                layer.append(cx.Gate(((i, "s"), (i + 1, "s")), u))
                mats.append((i, u))
            layers.append(cx.GateLayer(layer))
        circuit = cx.Circuit(lat, layers)
        st = PureState.product(QuditRegister(qreg(5)))
        cx.run(circuit, st)
        # oracle: sequential dense matrix application
        psi = np.zeros(32, dtype=complex)
        psi[0] = 1.0
        for i, u in mats:
            full = np.eye(1, dtype=complex)
            for j in range(5):
                if j == i:
                    full = np.kron(full, u)
                elif j == i + 1:
                    continue
                else:
                    full = np.kron(full, np.eye(2))
            # rebuild with correct placement (u spans sites i, i+1)
            left = np.eye(2**i, dtype=complex)
            right = np.eye(2 ** (3 - i), dtype=complex)
            full = np.kron(np.kron(left, u), right)
            psi = full @ psi
        assert abs(abs(np.vdot(st.amps, psi)) - 1) < 1e-10

    def test_run_does_not_mutate_circuit(self):
        lat = Lattice((2,))
        g = cx.Gate(((0, "s"), (1, "s")), [("CNOT", (0, 1))])
        c = cx.Circuit(lat, [cx.GateLayer([g])])
        st = PureState.product(QuditRegister(qreg(2)))
        cx.run(c, st)
        assert c.layers[0].gates[0] is g


class TestShift:
    def test_n3_qutrits(self):
        lat = Lattice((3,), local_dim=3)
        circuit = cx.build_shift_circuit(lat)
        assert circuit.depth() == 2
        reg = QuditRegister(qreg(3, 3))
        st = PureState.product(
            reg, {(0, "s"): [1, 0, 0], (1, "s"): [0, 1, 0], (2, "s"): [0, 0, 1]}
        )
        cx.run(circuit, st)
        # |012> -> |120>
        idx = (1 * 3 + 2) * 3 + 0
        assert abs(st.amps[idx] - 1) < 1e-12

    def test_n2_swap(self):
        lat = Lattice((2,))
        circuit = cx.build_shift_circuit(lat)
        st = PureState.product(QuditRegister(qreg(2)), {(0, "s"): [0, 1]})
        cx.run(circuit, st)
        assert abs(st.amps[1] - 1) < 1e-12  # |10> -> |01>

    def test_all_basis_states_up_to_n6(self):
        for n in range(2, 7):
            lat = Lattice((n,))
            circuit = cx.build_shift_circuit(lat)
            assert circuit.depth() == 2
            reg = QuditRegister(qreg(n))
            for b in range(2**n):
                bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
                st = PureState.product(reg, {(i, "s"): np.eye(2)[bits[i]] for i in range(n)})
                cx.run(circuit, st)
                shifted = bits[1:] + bits[:1]
                idx = int("".join(map(str, shifted)), 2)
                assert abs(st.amps[idx]) > 1 - 1e-12, (n, b)

    def test_composing_n_times_is_identity(self):
        rng = np.random.default_rng(3)
        for n in (3, 4, 6):
            lat = Lattice((n,))
            circuit = cx.build_shift_circuit(lat)
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            st = PureState(QuditRegister(qreg(n)), psi.copy())
            for _ in range(n):
                cx.run(circuit, st)
            assert abs(abs(np.vdot(st.amps, psi)) - 1) < 1e-9

    def test_non_1d_rejected(self):
        with pytest.raises(ValueError):
            cx.build_shift_circuit(Lattice((4, 4)))


class TestRange:
    def test_identity(self):
        lat = Lattice((4,))
        assert cx.estimate_range(np.eye(16, dtype=complex), lat) == 0

    def test_shift_range_one(self):
        from qccc.circuits import _shift_unitary

        lat = Lattice((6,))
        assert cx.estimate_range(_shift_unitary(lat), lat) == 1

    def test_random_circuits_within_depth(self):
        rng = np.random.default_rng(23)
        lat = Lattice((8,))
        for _ in range(10):
            depth = int(rng.integers(1, 4))
            layers = []
            for li in range(depth):
                layer = [
                    cx.Gate(((i, "s"), ((i + 1) % 8, "s")), gates.random_unitary(4, rng))
                    for i in range(li % 2, 7, 2)
                ]
                layers.append(cx.GateLayer(layer))
            circuit = cx.Circuit(lat, layers)
            u = cx.circuit_unitary(circuit, qreg(8))
            assert cx.estimate_range(u, lat) <= depth

    def test_support_detection(self):
        lat = Lattice((3,))
        op = np.kron(np.kron(gates.X, np.eye(2)), gates.Z)
        assert cx.operator_support(op, lat) == (0, 2)

    def test_capacity(self):
        lat = Lattice((15,))
        with pytest.raises(CapacityError):
            cx.estimate_range(np.eye(2, dtype=complex), lat)


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(31)
        lat = Lattice((4,))
        circuit = cx.Circuit(
            lat,
            [
                cx.LocalLayer(
                    [
                        cx.add_ancilla(0, "a", 2),
                        cx.local_op([(0, "s"), (0, "a")], [("CNOT", (0, 1))]),
                    ]
                ),
                cx.GateLayer(
                    [
                        cx.Gate(((0, "s"), (1, "s")), [("H", (0,)), ("CNOT", (0, 1))]),
                        cx.Gate(((2, "s"), (3, "s")), gates.random_unitary(4, rng)),
                    ]
                ),
                cx.LocalLayer([cx.remove_ancilla(0, "a")]),
            ],
        )
        text = cx.circuit_to_json(circuit)
        back = cx.circuit_from_json(text)
        assert back.depth() == circuit.depth()
        st1 = PureState.product(QuditRegister(qreg(4)))
        st2 = PureState.product(QuditRegister(qreg(4)))
        cx.run(circuit, st1)
        cx.run(back, st2)
        assert abs(abs(np.vdot(st1.amps, st2.amps)) - 1) < 1e-12
