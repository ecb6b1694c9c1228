import re
import time

import numpy as np
import pytest

from qccc import gates
from qccc.locc import ProtocolError, enumerate_branches, replay, run_sampled
from qccc.protocols import (
    RGFixedPointSpec,
    ToricCodeLayout,
    find_tc_correction,
    ghz_generators,
    ghz_protocol,
    ghz_state,
    rg_fixed_point_protocol,
    rg_target_state,
    tc_target_generators,
    tc_target_state,
    toric_code_protocol,
    w_protocol,
    w_state,
    w_z_sequence,
)
from qccc.stabilizer import StabilizerTableau

from oracles import _assert_rows_replay, is_product_across, plaquettes_b, to_pure_state


class TestGHZ:
    def test_n2_all_branches(self):
        proto, target = ghz_protocol(2)
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC"
        assert len(res.reports) == 2
        assert res.min_fidelity > 1 - 1e-9

    def test_n3_branch_structure(self):
        proto, target = ghz_protocol(3)
        res = enumerate_branches(proto)
        assert len(res.reports) == 4
        for rep in res.reports:
            assert abs(rep.probability - 0.25) < 1e-12
        _assert_rows_replay(proto, res)
        # all-zero record needs no correction: the state is GHZ already
        zero = next(r for r in res.reports if r.record.key() == (0, 0))
        assert zero.fidelity > 1 - 1e-9
        assert replay(proto, zero.record)[0].fidelity(target) > 1 - 1e-9

    def test_depth_exactly_two(self):
        # one pair gate at n = 2
        for n in (2, 3, 5, 8):
            proto, _ = ghz_protocol(n)
            assert proto.depth() == (1 if n == 2 else 2)
            assert proto.validate_circuit() == []

    def test_merged_pair_layer_fails_validation(self):
        # the program's pair gates share sites; run as one layer they are not
        # a depth-1 circuit
        from qccc import circuits as cx

        proto, _ = ghz_protocol(6)
        layers = [layer for step in proto.program if hasattr(step, "layers") for layer in step.layers]
        merged = cx.Circuit(
            proto.lattice,
            [layer for layer in layers if isinstance(layer, cx.LocalLayer)]
            + [cx.GateLayer([g for layer in layers if isinstance(layer, cx.GateLayer) for g in layer.gates])],
        )
        assert sum(isinstance(layer, cx.GateLayer) for layer in merged.layers) == 1
        reasons = [v.reason for v in cx.validate(merged, proto.register)]
        assert reasons and all("used twice in one layer" in r for r in reasons)

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_each_ancilla_is_measured_before_the_next_but_one_is_added(self, n):
        """The dense register holds at most n + 2 qubits at a measurement,
        and the program is one quantum round."""
        from qccc.locc import _execute, _sample, initial_state

        proto, _ = ghz_protocol(n)
        widths = []
        sample = _sample(np.random.default_rng(0))
        choose = lambda state, spec, outcomes: widths.append(state.register.size) or sample(state, spec, outcomes)
        next(_execute(proto.program, initial_state(proto), choose))
        assert len(widths) == n - 1 and max(widths) <= n + 2 and len(proto.rounds()) == 1

    def test_tableau_n8_stabilizer_group(self):
        proto, _ = ghz_protocol(8)
        st, _ = run_sampled(proto, seed=3, backend="tableau")
        target = StabilizerTableau.from_generators(ghz_generators(8))
        assert st.tab.states_equal(target)

    def test_tableau_matches_dense(self):
        proto, _ = ghz_protocol(5)
        res_d = enumerate_branches(proto, backend="dense")
        res_t = enumerate_branches(proto, backend="tableau")
        assert res_d.verdict == res_t.verdict == "DETERMINISTIC"
        assert len(res_d.reports) == len(res_t.reports)
        assert res_t.min_fidelity == 1.0

    def test_backends_agree_statewise(self):
        # final states of both backends coincide exactly for Clifford runs
        for n in (6, 10, 12):
            proto, _ = ghz_protocol(n)
            st_t, rec = run_sampled(proto, seed=13, backend="tableau")
            from qccc.locc import replay

            st_d, _ = replay(proto, rec)
            assert to_pure_state(st_t).fidelity(st_d) > 1 - 1e-10, n

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            ghz_protocol(1)

    def test_premeasurement_state_is_bell_chain(self):
        # the entangling layers alone make (x)_n |Phi+>_{s_n, a_{n+1}} (x) |+>_N;
        # compare against a direct amplitude construction of that product
        from qccc import circuits as cx
        from qccc.statevector import PureState, QuditRegister

        n = 4
        proto, _ = ghz_protocol(n)
        st = PureState.product(QuditRegister(proto.register))
        for step in proto.program:  # the ancillas and pair gates, not the parity CNOTs
            for layer in getattr(step, "layers", []):
                if isinstance(layer, cx.GateLayer) or all(a.kind == "add" for a in layer.actions):
                    cx.apply_layer(st, layer)
        st.apply_named("Z", [(n - 1, "s")])
        st.apply_named("H", [(n - 1, "s")])
        # direct product: amplitudes assembled entry by entry
        order = [(i, "s") for i in range(n)] + [(i, "a") for i in range(1, n)]
        entries = [(s, sl, 2) for s, sl in order]
        amps = np.zeros((2,) * len(order), dtype=complex)
        bell = np.array([[1, 0], [0, 1]]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        for idx in np.ndindex(*(2,) * len(order)):
            s_bits = idx[:n]
            a_bits = idx[n:]
            coeff = plus[s_bits[n - 1]]
            for i in range(n - 1):
                coeff *= bell[s_bits[i], a_bits[i]]
            amps[idx] = coeff
        direct = PureState(QuditRegister(entries), amps.reshape(-1))
        assert st.permuted(order).fidelity(direct) > 1 - 1e-12


class TestW:
    def test_n2_target(self):
        proto, target = w_protocol(2)
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity > 1 - 1e-9
        expect = np.zeros(4)
        expect[1] = expect[2] = 1 / np.sqrt(2)
        assert abs(abs(np.vdot(target.amps, expect)) - 1) < 1e-12

    def test_z_sequence_closed_form(self):
        zs = w_z_sequence(4)
        assert np.allclose(zs, [0.5, 1 / np.sqrt(3), 1 / np.sqrt(2), 1.0], atol=1e-12)
        for n in range(2, 9):
            zs = w_z_sequence(n)
            # recursion x_{k+1} = sqrt(x_k^2 - 1/n) with z_k = 1/(x_k sqrt(n))
            x = 1.0
            for k in range(n):
                assert abs(zs[k] - 1 / (x * np.sqrt(n))) < 1e-12
                x = np.sqrt(max(x * x - 1 / n, 0.0))

    def test_exhaustive_small_n(self):
        for n in (3, 4, 5):
            proto, _ = w_protocol(n)
            res = enumerate_branches(proto)
            assert res.verdict == "DETERMINISTIC", n
            assert res.min_fidelity > 1 - 1e-9, n
            assert len(res.reports) == 4**n
            assert abs(res.total_probability() - 1) < 1e-9

    def test_entangling_depth_two(self):
        # one pair gate at n = 2
        for n in (2, 4, 7):
            proto, _ = w_protocol(n)
            assert proto.depth() == (1 if n == 2 else 2)
            assert proto.validate_circuit() == []


class TestRG:
    def test_product_bond(self):
        spec = RGFixedPointSpec(1, [1.0], np.array([1, 0, 0, 0], dtype=complex), 3)
        proto, target = rg_fixed_point_protocol(spec)
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity > 1 - 1e-9
        # a product bond makes the whole target a product state
        st = target
        for key in st.register.keys:
            assert is_product_across(st, [key])

    def test_bell_ring(self):
        spec = RGFixedPointSpec(1, [1.0], gates.bell_state(2), 3)
        proto, target = rg_fixed_point_protocol(spec)
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity > 1 - 1e-9
        # ring of three maximally entangled bonds: each (R_n, L_{n+1}) pair is
        # maximally mixed individually but pure jointly
        rho = target.reduced_density([(0, "R"), (1, "L")])
        assert np.allclose(rho, np.outer(gates.bell_state(2), gates.bell_state(2).conj()), atol=1e-9)

    def test_b2_eq3_state(self):
        spec = RGFixedPointSpec(2, np.array([1, 1]) / np.sqrt(2), gates.bell_state(2), 2)
        proto, target = rg_fixed_point_protocol(spec)
        assert proto.depth() == 3
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity > 1 - 1e-9

    def test_unequal_alphas_and_k_dependent_bonds(self):
        alphas = np.array([2.0, 1.0]) / np.sqrt(5.0)
        bonds = [gates.bell_state(2), np.array([0, 1, 0, 0], dtype=complex)]
        spec = RGFixedPointSpec(2, alphas, bonds, 2)
        proto, target = rg_fixed_point_protocol(spec)
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity > 1 - 1e-9

    def test_depth_two_when_single_term(self):
        spec = RGFixedPointSpec(1, [1.0], gates.bell_state(2), 4)
        proto, _ = rg_fixed_point_protocol(spec)
        assert proto.depth() == 2

    @pytest.mark.parametrize("b, n, depth", [(1, 2, 2), (1, 5, 3), (2, 2, 3), (2, 4, 4), (3, 5, 5)])
    def test_circuit_validates(self, b, n, depth):
        spec = RGFixedPointSpec(b, np.ones(b) / np.sqrt(b), gates.bell_state(2), n)
        proto, _ = rg_fixed_point_protocol(spec)
        assert proto.depth() == depth
        assert proto.validate_circuit() == []

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            RGFixedPointSpec(2, [1.0], gates.bell_state(2), 3)
        with pytest.raises(ValueError):
            RGFixedPointSpec(1, [1.0], np.array([1.0, 0, 0, 1.0]), 3)  # unnormalized

    def test_target_matches_manual_construction(self):
        # cross-check rg_target_state against explicit assembly for B=1
        spec = RGFixedPointSpec(1, [1.0], gates.bell_state(2), 2)
        target = rg_target_state(spec)
        # manual: C=|0>, bonds Phi+ on (R0,L1) and (R1,L0)
        from qccc.statevector import PureState, QuditRegister

        manual = PureState.product(target.register)
        manual.apply_named("H", [(0, "R")])
        manual.apply_named("CNOT", [(0, "R"), (1, "L")])
        manual.apply_named("H", [(1, "R")])
        manual.apply_named("CNOT", [(1, "R"), (0, "L")])
        assert manual.fidelity(target) > 1 - 1e-12


class TestToricCodeLayout:
    def test_counts(self):
        layout = ToricCodeLayout(4)
        assert len(layout.plaquettes_a) == 8
        assert len(plaquettes_b(layout)) == 8
        from collections import Counter

        cnt = Counter(s for p in layout.plaquettes_a for s in layout.plaquette_sites(p))
        assert all(v == 2 for v in cnt.values())
        assert len(cnt) == 16

    def test_product_of_all_xp_is_identity(self):
        layout = ToricCodeLayout(4)
        from qccc.stabilizer import PauliString

        acc = PauliString.identity(16)
        for p in layout.plaquettes_a:
            acc = acc * layout.x_p(p)
        assert not acc.x.any() and not acc.z.any() and acc.phase == 0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            ToricCodeLayout(3)
        with pytest.raises(ValueError):
            ToricCodeLayout(5)


class TestTCCorrection:
    def setup_method(self):
        self.layout = ToricCodeLayout(4)

    def test_all_plus_empty(self):
        out = {p: 1 for p in self.layout.plaquettes_a}
        assert find_tc_correction(self.layout, out) == []

    def test_adjacent_pair_single_shared_qubit(self):
        out = {p: 1 for p in self.layout.plaquettes_a}
        out[(0, 0)] = out[(1, 1)] = -1
        corr = find_tc_correction(self.layout, out)
        assert corr == [self.layout.shared_qubit((0, 0), (1, 1))]

    def test_antipodal_pair(self):
        out = {p: 1 for p in self.layout.plaquettes_a}
        out[(0, 0)] = out[(2, 2)] = -1
        corr = find_tc_correction(self.layout, out)
        assert len(corr) == 2  # N/2 path edges on the 4x4 torus

    def test_odd_parity_rejected(self):
        out = {p: 1 for p in self.layout.plaquettes_a}
        out[(0, 0)] = -1
        with pytest.raises(ValueError):
            find_tc_correction(self.layout, out)

    def test_conjugation_identity_symbolically(self):
        # sigma^z_i anticommutes with X_p iff i in p; the flip set must hit
        # exactly the negative plaquettes, for every even-parity pattern
        rng = np.random.default_rng(0)
        plist = self.layout.plaquettes_a
        for _ in range(25):
            k = 2 * int(rng.integers(0, len(plist) // 2 + 1))
            neg = rng.choice(len(plist), size=k, replace=False)
            out = {p: 1 for p in plist}
            for i in neg:
                out[plist[i]] = -1
            corr = set(find_tc_correction(self.layout, out))
            for p in plist:
                parity = len(corr & set(self.layout.plaquette_sites(p))) % 2
                assert parity == (1 if out[p] == -1 else 0)

    def test_correction_larger_size(self):
        layout = ToricCodeLayout(8)
        out = {p: 1 for p in layout.plaquettes_a}
        out[(0, 0)] = out[(4, 4)] = out[(2, 6)] = out[(6, 2)] = -1
        corr = set(find_tc_correction(layout, out))
        for p in layout.plaquettes_a:
            parity = len(corr & set(layout.plaquette_sites(p))) % 2
            assert parity == (1 if out[p] == -1 else 0)


def _random_even_syndrome(layout, rng):
    signs = {p: 1 - 2 * int(rng.integers(2)) for p in layout.plaquettes_a}
    if list(signs.values()).count(-1) % 2:
        signs[layout.plaquettes_a[0]] *= -1
    return signs


class TestTCDecoder:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_random_error_round_trip(self, n):
        # a random Z error and its decoded correction multiply to a closed Z
        # loop, contractible or not, which fixes the target state
        layout = ToricCodeLayout(n)
        target = StabilizerTableau.from_generators(tc_target_generators(layout))
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            error = set(np.flatnonzero(rng.random(n * n) < 0.3).tolist())
            signs = {
                p: -1 if len(error & set(layout.plaquette_sites(p))) % 2 else 1
                for p in layout.plaquettes_a
            }
            tab = target.copy()
            for q in sorted(error) + find_tc_correction(layout, signs):
                tab.apply_gate("Z", q)
            assert tab.states_equal(target)

    @pytest.mark.parametrize("n, n_seeds", [(8, 4), (16, 2)])
    def test_tableau_histories_match_target(self, n, n_seeds):
        proto, _ = toric_code_protocol(n)
        target = StabilizerTableau.from_generators(proto.target_generators)
        for seed in range(n_seeds):
            st, _ = run_sampled(proto, seed=seed, backend="tableau")
            assert st.tab.states_equal(target)

    def test_n24_decodes_fast(self):
        signs = _random_even_syndrome(ToricCodeLayout(24), np.random.default_rng(24))
        t0 = time.perf_counter()
        find_tc_correction(ToricCodeLayout(24), signs)
        assert time.perf_counter() - t0 < 0.1

    def test_corrupted_table_fails_the_parity_check(self):
        layout = ToricCodeLayout(8)
        layout.tree_paths[5, 0] ^= 1
        signs = {p: 1 for p in layout.plaquettes_a}
        signs[layout.plaquettes_a[0]] = signs[layout.plaquettes_a[5]] = -1
        with pytest.raises(ProtocolError):
            find_tc_correction(layout, signs)

    @pytest.mark.parametrize("n", [4, 8])
    def test_declared_map_matches_the_decoder(self, n):
        """The protocol's declared sign fix puts Z where find_tc_correction does."""
        layout = ToricCodeLayout(n)
        fix = toric_code_protocol(n)[0].program[-1]
        rng = np.random.default_rng(n)
        for _ in range(10):
            k = rng.integers(0, 2, size=len(layout.plaquettes_a))
            k[0] = k[1:].sum() % 2  # an even number of negative plaquettes
            paulis = fix.pauli.paulis({f"k{i},{j}": int(b) for (i, j), b in zip(layout.plaquettes_a, k)})
            assert all((x, z) == (0, 1) for _, x, z in paulis)
            signs = {p: 1 - 2 * int(b) for p, b in zip(layout.plaquettes_a, k)}
            assert [e[0] for e, _, _ in paulis] == find_tc_correction(layout, signs)

    @pytest.mark.parametrize("row", [0, 5])
    def test_corrupted_table_fails_when_the_protocol_is_built(self, monkeypatch, row):
        """The declared sign map is checked once, before any history runs."""
        from qccc import protocols
        from qccc.stabilizer import InternalError

        build = ToricCodeLayout.__post_init__

        def corrupted(layout):
            build(layout)
            layout.tree_paths[row, 3] ^= 1

        monkeypatch.setattr(protocols.ToricCodeLayout, "__post_init__", corrupted)
        plaquette = ToricCodeLayout(4).plaquettes_a[row]
        with pytest.raises(InternalError, match=re.escape(f"plaquette {plaquette}")):
            toric_code_protocol(4)


class TestToricCodeProtocol:
    def test_depth_eleven_and_valid(self):
        for n in (4, 8):
            proto, _ = toric_code_protocol(n)
            assert proto.depth() == 11
            assert proto.validate_circuit() == []

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            toric_code_protocol(3)

    def test_tableau_n4_sampled(self):
        proto, _ = toric_code_protocol(4)
        st, rec = run_sampled(proto, seed=3, backend="tableau")
        target = StabilizerTableau.from_generators(proto.target_generators)
        assert st.tab.states_equal(target)
        ks = [1 - 2 * k for _, k, _ in rec.outcomes]
        assert np.prod(ks) == 1

    def test_tableau_n4_several_seeds(self):
        proto, _ = toric_code_protocol(4)
        target = StabilizerTableau.from_generators(proto.target_generators)
        for seed in range(6):
            st, rec = run_sampled(proto, seed=seed, backend="tableau")
            assert st.tab.states_equal(target)

    def test_dense_single_branch_matches_target(self):
        proto, target = toric_code_protocol(4)
        st, _ = run_sampled(proto, seed=11, backend="dense")
        assert st.fidelity(target) > 1 - 1e-9

    def test_dense_history_materialises_at_most_17_qubits(self, monkeypatch):
        # the plaquette gadget's four carrier ancillas only move qubits by SWAP,
        # so only the measured one joins the 16 system qubits in the tensor
        from qccc import circuits as cx

        sizes = []
        apply_layer = cx.apply_layer

        def recording(state, layer):
            apply_layer(state, layer)
            sizes.append(state._t.size)

        monkeypatch.setattr(cx, "apply_layer", recording)
        proto, target = toric_code_protocol(4)
        st, _ = run_sampled(proto, seed=5, backend="dense")
        assert st.fidelity(target) > 1 - 1e-9
        assert len(sizes) > 0 and max(sizes) <= 2**17

    def test_all_plus_branch_is_tc_without_correction(self):
        # forcing every outcome to +1 must reproduce the target; the
        # correction is empty on this branch
        from qccc.locc import replay, OutcomeRecord

        proto, target = toric_code_protocol(4)
        order = sorted(ToricCodeLayout(4).plaquettes_a, key=lambda p: (p[0] % 2, p[0], p[1]))
        record = OutcomeRecord(tuple((f"k{p[0]},{p[1]}", 0, 0.5) for p in order))
        st, rec = replay(proto, record)
        assert st.fidelity(target) > 1 - 1e-9

    def test_circuit_vs_program_equivalence_tableau(self):
        # running the scheduled 11-layer circuit, then measuring, matches the
        # plaquette-sequential program on the same forced outcomes
        from qccc import circuits as cx
        from qccc.locc import replay, OutcomeRecord
        from qccc.stabilizer import TableauState

        rng = np.random.default_rng(5)
        for n in (4, 8):
            proto, _ = toric_code_protocol(n)
            layout = ToricCodeLayout(n)
            circuit = proto.schedule()
            assert circuit.depth() == 11
            order = sorted(layout.plaquettes_a, key=lambda p: (p[0] % 2, p[0], p[1]))
            for _ in range(5):
                # a random forced pattern with even parity
                bits = rng.integers(0, 2, size=len(order))
                bits[-1] = bits[:-1].sum() % 2
                ts = TableauState(proto.register)
                cx.run(circuit, ts)
                for p, b in zip(order, bits):
                    corner = layout.lattice.site_index(p)
                    ts.measure((corner, "ap"), force=int(b))
                    ts.remove_entry((corner, "ap"))
                signs = {p: 1 - 2 * int(b) for p, b in zip(order, bits)}
                for site in find_tc_correction(layout, signs):
                    ts.apply_named("Z", [(site, "s")])
                record = OutcomeRecord(tuple((f"k{p[0]},{p[1]}", int(b), 0.5) for p, b in zip(order, bits)))
                st2, _ = replay(proto, record, backend="tableau")
                assert ts.permuted(proto.system_entries).tab.states_equal(st2.tab), (n, bits)

    def test_plaquette_block_equals_direct_vp(self):
        # the 8-swap gadget with a local parity kick equals the direct
        # controlled-plaquette-flip on a standalone register
        from qccc import circuits as cx
        from qccc.statevector import PureState, QuditRegister, RegionOperator
        from qccc.protocols import _tc_plaquette_block

        layout = ToricCodeLayout(4)
        p = (0, 0)
        ordered = _tc_plaquette_block(layout, p)
        sites = layout.plaquette_sites(p)
        rng = np.random.default_rng(8)
        reg = QuditRegister([(s, "s", 2) for s in sites] + [])
        psi = rng.normal(size=2**4) + 1j * rng.normal(size=2**4)
        psi /= np.linalg.norm(psi)
        st = PureState(reg, psi)
        # run the gadget on a mini-lattice state (ancillas created on the fly)
        for layer in ordered:
            cx.apply_layer(st, layer)
        st = st.permuted([(s, "s") for s in sites] + [(layout.lattice.site_index(p), "ap")])
        # direct V_p: |phi>|0> -> ((1+X_p)|phi>|0> + (1-X_p)|phi>|1>)/2
        x4 = np.eye(1, dtype=complex)
        for _ in range(4):
            x4 = np.kron(x4, np.array([[0, 1], [1, 0]]))
        plusx = (np.eye(16) + x4) / 2
        minusx = (np.eye(16) - x4) / 2
        expect = np.kron(plusx @ psi, [1, 0]) + np.kron(minusx @ psi, [0, 1])
        assert abs(abs(np.vdot(st.amps, expect)) - 1) < 1e-10



def _builders():
    from qccc import diagnostics, mps

    rg = lambda b, n: rg_fixed_point_protocol(RGFixedPointSpec(b, np.ones(b) / np.sqrt(b), gates.bell_state(2), n))[0]
    tc4 = StabilizerTableau.from_generators(tc_target_generators(ToricCodeLayout(4)))
    return {
        "ghz5": lambda: ghz_protocol(5)[0],
        "w4": lambda: w_protocol(4)[0],
        "rg-B1-N3": lambda: rg(1, 3),
        "rg-B3-N4": lambda: rg(3, 4),
        "tc4": lambda: toric_code_protocol(4)[0],
        "aklt-q4": lambda: mps.preparation_pipeline(mps.aklt_mps(), 4, 8).protocol,
        "cluster-q3": lambda: mps.preparation_pipeline(mps.cluster_mps(), 3, 9).protocol,
        "ghz-mps-q2": lambda: mps.preparation_pipeline(mps.ghz_mps(), 2, 6).protocol,
        "cj-ghz3": lambda: diagnostics.ghz_unitary_cj(3).protocol(),
        "cj-tc4": lambda: diagnostics.build_cj_protocol(tc4).protocol(),
    }


@pytest.mark.parametrize("name", list(_builders()))
def test_programs_act_site_locally_between_gates(name):
    # every multi-site action of a program is a nearest-neighbor gate, so
    # the schedule accounts for all of its depth
    from qccc import circuits as cx
    from qccc.locc import ApplyLayers

    proto = _builders()[name]()
    for step in proto.program:
        for layer in step.layers if isinstance(step, ApplyLayers) else ():
            for act in layer.actions if isinstance(layer, cx.LocalLayer) else ():
                assert len({site for site, _ in act.entries}) == 1, (name, act.entries)
    assert proto.validate_circuit() == []
