import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

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

    # (0, 5) closes the ring; on the 3 x 4 torus, (0, 3) wraps a row and (0, 8) a column
    @pytest.mark.parametrize("dims, pair", [((6,), (0, 5)), ((3, 4), (0, 3)), ((3, 4), (0, 8))])
    def test_gate_across_the_periodic_wrap_validates(self, dims, pair):
        lat = Lattice(dims, periodic=True)
        (a, b) = pair
        c = cx.Circuit(lat, [cx.GateLayer([cx.Gate(((a, "s"), (b, "s")), [("CZ", (0, 1))])])])
        assert cx.validate(c, qreg(lat.n_sites)) == []
        assert cx.validate(cx.Circuit(Lattice(dims, periodic=False), c.layers), qreg(lat.n_sites)) != []

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("dims, pair", [((6,), (1, 3)), ((6,), (0, 4)), ((4, 4), (0, 5)), ((4, 4), (0, 8))])
    def test_distance_two_flagged_open_and_periodic(self, dims, pair, periodic):
        lat = Lattice(dims, periodic=periodic)
        (a, b) = pair
        c = cx.Circuit(lat, [cx.GateLayer([cx.Gate(((a, "s"), (b, "s")), [("CZ", (0, 1))])])])
        reasons = [v.reason for v in cx.validate(c, qreg(lat.n_sites))]
        assert reasons == ["gate sites are not nearest neighbors"]

    def test_nonunitary_matrix_violation(self):
        lat = Lattice((4,))
        bad = np.eye(4)
        bad[0, 0] = 2.0
        c = cx.Circuit(lat, [cx.GateLayer([cx.Gate(((0, "s"), (1, "s")), bad)])])
        out = cx.validate(c, qreg(4))
        assert any("not unitary" in v.reason for v in out)

    def test_same_site_qudits_rejected_in_one_layer(self):
        # a site's ancillas belong to its local space: two gates of one layer
        # may not touch the same site, even on different qudits
        lat = Lattice((3,))
        layer = cx.LocalLayer([cx.add_ancilla(1, "a", 2)])
        g = cx.GateLayer(
            [
                cx.Gate(((0, "s"), (1, "s")), [("CZ", (0, 1))]),
                cx.Gate(((1, "a"), (2, "s")), [("CZ", (0, 1))]),
            ]
        )
        out = cx.validate(cx.Circuit(lat, [layer, g]), qreg(3))
        assert [v.reason for v in out] == ["site 1 used twice in one layer"]

    def test_register_tracking(self):
        lat = Lattice((3,))
        layers = [
            cx.LocalLayer([cx.add_ancilla(0, "a", 2)]),
            cx.LocalLayer([cx.remove_ancilla(0, "a")]),
            cx.LocalLayer([cx.remove_ancilla(0, "a")]),
        ]
        out = cx.validate(cx.Circuit(lat, layers), qreg(3))
        assert any("removed but absent" in v.reason for v in out)


@hst.composite
def _gate_programs(draw):
    """A ring of 3-5 qubit sites, some with an ancilla, and a random sequence
    of two-site gates and site-local ops over them, one per layer."""
    n = draw(hst.integers(3, 5))
    ancillas = draw(hst.sets(hst.integers(0, n - 1)))
    register = [(i, "s", 2) for i in range(n)] + [(i, "a", 2) for i in sorted(ancillas)]
    slot = lambda site: hst.sampled_from(["s", "a"] if site in ancillas else ["s"])
    layers = []
    for _ in range(draw(hst.integers(1, 12))):
        site = draw(hst.integers(0, n - 1))
        rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
        if draw(hst.booleans()):
            nb = (site + 1) % n
            gate = cx.Gate(((site, draw(slot(site))), (nb, draw(slot(nb)))), gates.random_unitary(4, rng))
            layers.append(cx.GateLayer([gate]))
        else:
            entries = [(site, "s")] + ([(site, "a")] if site in ancillas else [])
            u = gates.random_unitary(2 ** len(entries), rng)
            layers.append(cx.LocalLayer([cx.local_op(entries, u)]))
    return Lattice((n,)), register, layers


class TestSchedule:
    @settings(max_examples=60, deadline=None)
    @given(_gate_programs())
    def test_site_disjoint_in_order_and_equal(self, program):
        lat, register, layers = program
        circuit = cx.schedule(lat, layers)
        placed = {}
        for t, layer in enumerate(l for l in circuit.layers if isinstance(l, cx.GateLayer)):
            sites = [s for g in layer.gates for s, _ in g.entries]
            assert len(sites) == len(set(sites))
            placed.update((id(g), t) for g in layer.gates)
        gate_list = [g for l in layers if isinstance(l, cx.GateLayer) for g in l.gates]
        assert sorted(placed) == sorted(map(id, gate_list))
        for entry in {e for g in gate_list for e in g.entries}:
            ts = [placed[id(g)] for g in gate_list if entry in g.entries]
            assert ts == sorted(set(ts))
        expect = cx.circuit_unitary(cx.Circuit(lat, layers), register)
        assert np.allclose(cx.circuit_unitary(circuit, register), expect, atol=1e-12)

    def test_a_reused_entry_waits_for_its_previous_use(self):
        # gate B would fit in layer 0, but its entry (0, "t") was removed and
        # added again after gate A in layer 1: the same qudit, so B follows A
        swap = [("SWAP", (0, 1))]
        layers = [
            cx.LocalLayer([cx.add_ancilla(0, "t", 2)]),
            cx.GateLayer([cx.Gate(((1, "s"), (2, "s")), swap), cx.Gate(((0, "t"), (1, "s")), swap)]),
            cx.LocalLayer([cx.remove_ancilla(0, "t"), cx.add_ancilla(0, "t", 2)]),
            cx.GateLayer([cx.Gate(((3, "s"), (0, "t")), swap)]),
        ]
        circuit = cx.schedule(Lattice((4,)), layers)
        assert [len(l.gates) for l in circuit.layers if isinstance(l, cx.GateLayer)] == [1, 1, 1]
        assert cx.validate(circuit, qreg(4)) == []

    def test_a_local_action_orders_its_entries(self):
        # the op on (0, s) and (0, a) follows the gate on (0, a) in layer 1,
        # so the later gate on (0, s) may not move up into layer 0
        rng = np.random.default_rng(4)
        g = lambda a, b: cx.GateLayer([cx.Gate((a, b), gates.random_unitary(4, rng))])
        layers = [
            g((1, "s"), (2, "s")),
            g((0, "a"), (1, "s")),
            cx.LocalLayer([cx.local_op([(0, "s"), (0, "a")], gates.random_unitary(4, rng))]),
            g((0, "s"), (3, "s")),
        ]
        lat, register = Lattice((4,)), qreg(4) + [(0, "a", 2)]
        circuit = cx.schedule(lat, layers)
        assert [type(l) for l in circuit.layers] == [cx.GateLayer, cx.GateLayer, cx.LocalLayer, cx.GateLayer]
        expect = cx.circuit_unitary(cx.Circuit(lat, layers), register)
        assert np.allclose(cx.circuit_unitary(circuit, register), expect, atol=1e-12)

    def test_local_actions_cost_no_depth(self):
        g = lambda a, b: cx.GateLayer([cx.Gate(((a, "s"), (b, "s")), [("CZ", (0, 1))])])
        h = lambda a: cx.LocalLayer([cx.local_op([(a, "s")], [("H", (0,))])])
        circuit = cx.schedule(Lattice((4,)), [g(0, 1), h(1), h(2), g(2, 3), h(3), g(1, 2)])
        assert circuit.depth() == 2
        assert [type(l) for l in circuit.layers] == [cx.LocalLayer, cx.GateLayer, cx.LocalLayer, cx.GateLayer]


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
        assert circuit.depth() == 3  # an odd ring's three edges need three layers
        assert cx.validate(circuit, qreg(3, 3)) == []
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
            assert circuit.depth() == (2 if n % 2 == 0 else 3)
            assert cx.validate(circuit, qreg(n)) == []
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
