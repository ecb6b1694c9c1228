import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qccc import circuits as cx
from qccc import gates
from qccc.lattice import Lattice
from qccc.locc import (
    ApplyLayers,
    BranchCapExceeded,
    Correct,
    Measure,
    MeasurementSpec,
    PauliMap,
    Protocol,
    ProtocolError,
    as_channel,
    enumerate_branches,
    replay,
    run_sampled,
    teleport,
    teleport_correction,
)
from qccc.stabilizer import _CHAR_BITS
from qccc.statevector import PureState, QuditRegister, RegionOperator


def _noop_protocol():
    lat = Lattice((2,))
    return Protocol("noop", lat, [(0, "s", 2)], [], cx.Circuit(lat, []), [(0, "s")])


def _forget_protocol():
    """Copy |+> onto an ancilla and measure it without correction."""
    lat = Lattice((2,))
    prog = [
        ApplyLayers(
            [
                cx.LocalLayer(
                    [
                        cx.local_op([(0, "s")], [("H", (0,))]),
                        cx.add_ancilla(0, "a", 2),
                        cx.local_op([(0, "s"), (0, "a")], [("CNOT", (0, 1))]),
                    ]
                )
            ]
        ),
        Measure(MeasurementSpec((0, "a"), "k")),
    ]
    return Protocol(
        "forget", lat, [(0, "s", 2)], prog, cx.Circuit(lat, []), [(0, "s")], clifford=True
    )


def _ghz(n):
    from qccc.protocols import ghz_protocol

    return ghz_protocol(n)[0], None


def _w(n):
    from qccc.protocols import w_protocol

    return w_protocol(n)[0], None


def _rg(b, n):
    from qccc.protocols import RGFixedPointSpec, rg_fixed_point_protocol

    spec = RGFixedPointSpec(b, np.ones(b) / np.sqrt(b), gates.bell_state(2), n)
    return rg_fixed_point_protocol(spec)[0], None


def _cj_ghz(n):
    from qccc.diagnostics import ghz_unitary_cj

    cj = ghz_unitary_cj(n)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    inp = PureState(QuditRegister([(k, "in", 2) for k in range(n)]), psi)
    return cj.protocol(), cj.initial_state(inp)


def _same_state(a, b):
    if isinstance(a, PureState):
        return a.fidelity(b) > 1 - 1e-12
    return a.states_equal(b)


class TestEngine:
    def test_empty_protocol(self):
        proto = _noop_protocol()
        st, rec = run_sampled(proto, seed=0)
        assert rec.outcomes == () and abs(st.amps[0] - 1) < 1e-12
        res = enumerate_branches(proto)
        assert res.verdict == "DETERMINISTIC" and len(res.reports) == 1

    def test_forgetting_is_not_deterministic(self):
        res = enumerate_branches(_forget_protocol(), target=None)
        assert res.verdict == "NOT_DETERMINISTIC"
        assert len(res.reports) == 2
        assert abs(res.total_probability() - 1) < 1e-12

    def test_branch_probabilities_multiply(self):
        from qccc.protocols import ghz_protocol

        proto, _ = ghz_protocol(4)
        res = enumerate_branches(proto)
        for rep in res.reports:
            assert abs(rep.record.probability() - rep.probability) < 1e-12

    def test_branch_cap(self):
        from qccc.protocols import ghz_protocol

        proto, _ = ghz_protocol(5)
        with pytest.raises(BranchCapExceeded):
            enumerate_branches(proto, branch_cap=3)

    @pytest.mark.parametrize("backend", ["dense", "tableau"])
    @pytest.mark.parametrize("cap", [1, 3, 15])
    def test_branch_cap_before_the_work(self, monkeypatch, backend, cap):
        """No history beyond the cap runs: neither its program nor its finalize."""
        from dataclasses import replace

        from qccc import locc
        from qccc.protocols import ghz_protocol

        finalized, completed = [], []
        real_finalize = locc._finalize

        def counting_finalize(state, protocol):
            finalized.append(protocol.name)
            return real_finalize(state, protocol)

        monkeypatch.setattr(locc, "_finalize", counting_finalize)
        ghz, _ = ghz_protocol(5)  # 16 branches
        # an undeclared last step, so the DFS runs: it is called once for every
        # history reaching the end of the program
        proto = replace(ghz, program=ghz.program + [Correct(lambda o: completed.append(o) or [])])
        with pytest.raises(BranchCapExceeded):
            enumerate_branches(proto, backend=backend, branch_cap=cap)
        assert len(finalized) <= cap and len(completed) <= cap
        finalized.clear()
        completed.clear()
        res = enumerate_branches(proto, backend=backend, branch_cap=16)
        assert res.engine == "dfs" and len(res.reports) == len(completed) == len(finalized) == 16
        if backend == "tableau":
            # GHZ's declared fix runs on the Pauli-frame engine, which raises
            # before it finalizes anything and otherwise finalizes only its reference
            finalized.clear()
            with pytest.raises(BranchCapExceeded):
                enumerate_branches(ghz, backend=backend, branch_cap=cap)
            assert finalized == []
            res = enumerate_branches(ghz, backend=backend, branch_cap=16)
            assert res.engine == "frames" and len(res.reports) == 16 and len(finalized) == 1

    def test_undetached_ancilla_raises(self):
        lat = Lattice((2,))
        prog = [
            ApplyLayers(
                [
                    cx.LocalLayer(
                        [
                            cx.local_op([(0, "s")], [("H", (0,))]),
                            cx.add_ancilla(0, "a", 2),
                            cx.local_op([(0, "s"), (0, "a")], [("CNOT", (0, 1))]),
                        ]
                    )
                ]
            ),
        ]
        proto = Protocol("bad", lat, [(0, "s", 2)], prog, cx.Circuit(lat, []), [(0, "s")])
        with pytest.raises(ProtocolError):
            run_sampled(proto, seed=0)

    def test_nonlocal_correction_rejected(self):
        lat = Lattice((2,))
        prog = [
            Correct(lambda o: [cx.local_op([(0, "s"), (1, "s")], [("CNOT", (0, 1))])]),
        ]
        proto = Protocol(
            "bad2", lat, [(0, "s", 2), (1, "s", 2)], prog, cx.Circuit(lat, []), [(0, "s"), (1, "s")]
        )
        with pytest.raises(ProtocolError):
            run_sampled(proto, seed=0)

    @pytest.mark.parametrize(
        "build, backend",
        [
            (lambda: _ghz(4), "dense"),
            (lambda: _ghz(4), "tableau"),
            (lambda: _w(3), "dense"),
            (lambda: _rg(2, 2), "dense"),
            (lambda: _cj_ghz(2), "dense"),
        ],
        ids=["ghz4-dense", "ghz4-tableau", "w3", "rg-B2-N2", "cj-ghz2"],
    )
    def test_sampled_matches_enumerated_branch(self, build, backend):
        """Sampling, replaying and enumerating are three policies of one executor."""
        proto, inp = build()
        res = enumerate_branches(proto, backend=backend, input_state=inp, keep_states=True)
        for seed in range(5):
            st, rec = run_sampled(proto, seed=seed, backend=backend, input_state=inp)
            match = [i for i, r in enumerate(res.reports) if r.record.key() == rec.key()]
            assert len(match) == 1
            assert abs(res.reports[match[0]].probability - rec.probability()) < 1e-12
            assert _same_state(st, res.finals[match[0]])
            again, rec2 = replay(proto, rec, backend=backend, input_state=inp)
            assert rec2.key() == rec.key()
            assert _same_state(st, again)

    def test_pruned_mass_is_not_deterministic(self):
        # one ancilla rotated to outcome probabilities 0.9 / 0.1, then measured
        lat = Lattice((2,))
        theta = 2 * np.arccos(np.sqrt(0.9))
        ry = np.array(
            [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]
        )
        prog = [
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "a", 2), cx.local_op([(0, "a")], ry)])]),
            Measure(MeasurementSpec((0, "a"), "k")),
        ]
        proto = Protocol("lossy", lat, [(0, "s", 2)], prog, cx.Circuit(lat, []), [(0, "s")])
        res = enumerate_branches(proto, prob_floor=0.2)
        assert len(res.reports) == 1
        assert abs(res.total_probability() - 0.9) < 1e-12
        assert res.verdict == "NOT_DETERMINISTIC"

    def test_tableau_eliminates_each_state_once(self, monkeypatch):
        # the first branch and the target are reduced once per enumeration,
        # not once per branch
        from qccc.protocols import ghz_protocol
        from qccc.stabilizer import StabilizerTableau

        calls = []
        rows = StabilizerTableau._canonical_rows
        monkeypatch.setattr(
            StabilizerTableau, "_canonical_rows", lambda self: calls.append(1) or rows(self)
        )
        res = enumerate_branches(ghz_protocol(10)[0], backend="tableau")
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity == 1.0
        assert len(calls) <= len(res.reports) + 2

    def test_lexicographic_branch_order(self):
        from qccc.protocols import ghz_protocol

        proto, _ = ghz_protocol(3)
        res = enumerate_branches(proto)
        keys = [r.record.key() for r in res.reports]
        assert keys == sorted(keys)


class TestTeleport:
    def _with_pair(self, psi, d):
        st = PureState.product(QuditRegister([(0, "src", d)]), {(0, "src"): psi})
        st.add_entry(0, "e1", d)
        st.add_entry(1, "e2", d)
        st.apply(RegionOperator(((0, "e1"), (1, "e2")), gates.bell_pair_gate(d)))
        return st

    def test_qubit_all_branches(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            for ms in range(2):
                for mp in range(2):
                    st = self._with_pair(psi, 2)
                    teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), 2, force=(ms, mp))
                    assert abs(np.vdot(st.amps, psi)) ** 2 > 1 - 1e-10

    def test_qutrit_all_branches(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            for ms in range(3):
                for mp in range(3):
                    st = self._with_pair(psi, 3)
                    teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), 3, force=(ms, mp))
                    assert abs(np.vdot(st.amps, psi)) ** 2 > 1 - 1e-10

    def test_zero_state(self):
        st = self._with_pair(np.array([1.0, 0.0]), 2)
        teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), 2, rng=np.random.default_rng(1))
        assert abs(st.amps[0]) > 1 - 1e-10

    def test_fifty_random_states_every_branch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            for ms in range(2):
                for mp in range(2):
                    st = self._with_pair(psi, 2)
                    teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), 2, force=(ms, mp))
                    assert abs(np.vdot(st.amps, psi)) ** 2 > 1 - 1e-10

    def test_pair_not_entangled_rejected(self):
        st = PureState.product(
            QuditRegister([(0, "src", 2), (0, "e1", 2), (1, "e2", 2)]),
            {(0, "src"): [0, 1]},
        )
        with pytest.raises(ValueError):
            teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), 2)

    def test_dimension_mismatch(self):
        st = PureState.product(QuditRegister([(0, "src", 2), (0, "e1", 3), (1, "e2", 3)]))
        with pytest.raises(ValueError):
            teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), 3)

    def test_qubit_correction_is_named_and_builds_no_matrix(self, monkeypatch):
        def no_matrix(*args, **kwargs):
            raise AssertionError("a qubit correction needs no dense matrix")

        monkeypatch.setattr(gates, "shift_x", no_matrix)
        monkeypatch.setattr(gates, "clock_z", no_matrix)
        target = (1, "e2")
        assert teleport_correction(target, 0, 0, 2) == []
        acts = teleport_correction(target, 1, 1, 2)
        assert [(a.entries, a.spec) for a in acts] == [((target,), [("Z", (0,)), ("X", (0,))])]

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (2, 1)])
    def test_qudit_correction_matrix(self, a, b):
        (act,) = teleport_correction((1, "e2"), a, b, 3)
        want = gates.shift_x(3, a) @ np.linalg.matrix_power(gates.clock_z(3), b)
        assert np.array_equal(act.spec, want)


class TestChannel:
    def test_deterministic_protocol_collapses(self):
        from qccc.protocols import ghz_protocol, ghz_state

        proto, target = ghz_protocol(3)
        ens = as_channel(proto).apply()
        assert ens.trace_distance_to_pure(target) < 1e-9

    def test_measure_and_forget_trace_distance(self):
        proto = _forget_protocol()
        ens = as_channel(proto).apply()
        plus = PureState(
            QuditRegister([(0, "s", 2)]), np.array([1, 1]) / np.sqrt(2)
        )
        td = ens.trace_distance_to_pure(plus)
        # oracle: diagonalize sigma - |+><+| directly
        sigma = ens.density_matrix()
        diff = sigma - np.outer(plus.amps, plus.amps.conj())
        oracle = np.sum(np.abs(np.linalg.eigvalsh(diff)))
        assert abs(td - oracle) < 1e-12
        assert abs(td - 1.0) < 1e-9

    def test_identity_composition(self):
        proto = _noop_protocol()
        composed = as_channel(proto).then(as_channel(proto))
        inp = PureState(QuditRegister([(0, "s", 2)]), np.array([0.6, 0.8]))
        ens = composed.apply(inp)
        assert len(ens.branches) == 1
        assert ens.trace_distance_to_pure(inp) < 1e-9

    def test_composed_forgetting(self):
        proto = _forget_protocol()
        # applying the channel twice from |0>: first H makes |+>, forget,
        # then H of |0> or |1> forgotten again: 4 branches
        composed = as_channel(proto).then(as_channel(proto))
        ens = composed.apply()
        assert len(ens.branches) == 4
        assert abs(sum(p for p, _ in ens.branches) - 1) < 1e-12


def _dfs(proto):
    """The plain DFS reference: the same protocol with every `reads` stripped."""
    from dataclasses import replace

    program = [replace(s, reads=None) if isinstance(s, Correct) else s for s in proto.program]
    return replace(proto, program=program)


def _random_rg(b, n, seed):
    from qccc.protocols import RGFixedPointSpec, rg_fixed_point_protocol

    rng = np.random.default_rng(seed)
    alphas = rng.normal(size=b) + 1j * rng.normal(size=b)
    bond = rng.normal(size=4) + 1j * rng.normal(size=4)
    spec = RGFixedPointSpec(b, alphas / np.linalg.norm(alphas), bond / np.linalg.norm(bond), n)
    return rg_fixed_point_protocol(spec)[0]


def _pipeline(fixture, q, n):
    from qccc import mps

    return mps.preparation_pipeline(mps.fixture(fixture), q, n).protocol


def _assert_same_as_dfs(proto):
    merged, dfs = enumerate_branches(proto), enumerate_branches(_dfs(proto))
    assert merged.verdict == dfs.verdict
    assert len(merged.reports) == len(dfs.reports)
    for a, b in zip(merged.reports, dfs.reports):
        assert a.record.key() == b.record.key()
        assert [t for t, _, _ in a.record.outcomes] == [t for t, _, _ in b.record.outcomes]
        assert abs(a.probability - b.probability) <= 1e-12
        assert abs(a.fidelity - b.fidelity) <= 1e-12
    assert dfs.n_merged == 0 and dfs.merge_error == 0.0
    return merged


def _kicked_sibling(theta):
    """Measure a |+> ancilla that rotates the system by Ry(theta) when it is 1,
    then run a no-op correction that declares it reads nothing."""
    lat = Lattice((2,))
    ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]])
    cry = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), ry]])
    prog = [
        ApplyLayers(
            [
                cx.LocalLayer(
                    [
                        cx.add_ancilla(0, "a", 2),
                        cx.local_op([(0, "a")], [("H", (0,))]),
                        cx.local_op([(0, "a"), (0, "s")], cry),
                    ]
                )
            ]
        ),
        Measure(MeasurementSpec((0, "a"), "k")),
        Correct(lambda o: [], "no-op", frozenset()),
    ]
    return Protocol("kick", lat, [(0, "s", 2)], prog, cx.Circuit(lat, []), [(0, "s")])


class TestBranchMerging:
    @pytest.mark.parametrize(
        "build",
        [lambda n=n: _w(n)[0] for n in range(2, 7)]
        + [
            lambda: _random_rg(2, 3, 0),
            lambda: _random_rg(3, 3, 1),
            lambda: _pipeline("aklt", 2, 8),
            lambda: _pipeline("aklt", 4, 8),
            lambda: _pipeline("cluster", 3, 9),
        ],
        ids=[f"w{n}" for n in range(2, 7)]
        + ["rg-B2-N3", "rg-B3-N3", "aklt-q2-N8", "aklt-q4-N8", "cluster-q3-N9"],
    )
    def test_merged_matches_dfs(self, build):
        res = _assert_same_as_dfs(build())
        assert res.verdict == "DETERMINISTIC"
        assert res.n_merged > 0 and 2 * res.merge_error <= 1e-12

    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(2, 3))
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    def test_random_rg_specs_match_dfs(self, seed, n):
        _assert_same_as_dfs(_random_rg(2, n, seed))

    def test_undeclared_corrections_never_merge(self):
        res = enumerate_branches(_ghz(6)[0])
        assert res.n_merged == 0 and len(res.reports) == 32

    def test_unequal_siblings_are_not_merged(self):
        res = enumerate_branches(_kicked_sibling(np.pi / 2))  # |0> against |+>
        assert res.verdict == "NOT_DETERMINISTIC"
        assert [r.fidelity for r in res.reports] == pytest.approx([1.0, 0.5])
        assert res.n_merged == 0

    def test_merge_error_enters_the_verdict(self, monkeypatch):
        """A merge accepted under a loose tolerance still fails the verdict."""
        from qccc import locc

        eps = 1e-6
        proto = _kicked_sibling(eps)
        assert enumerate_branches(proto).verdict == "DETERMINISTIC"  # fidelity 1 - eps^2/4
        monkeypatch.setattr(locc, "MERGE_TOL", 1e-3)
        res = enumerate_branches(proto)
        assert res.n_merged == 1 and len(res.reports) == 2
        assert res.merge_error == pytest.approx(eps / 2, rel=1e-3)
        assert res.verdict == "NOT_DETERMINISTIC"

    @pytest.mark.parametrize("flip_reads", [frozenset({"k"}), None], ids=["declared", "undeclared"])
    def test_live_tags_keep_equal_siblings_apart(self, flip_reads):
        """Equal states still differ in what a later correction reads."""
        lat = Lattice((2,))
        prog = [
            ApplyLayers(
                [cx.LocalLayer([cx.add_ancilla(0, "a", 2), cx.local_op([(0, "a")], [("H", (0,))])])]
            ),
            Measure(MeasurementSpec((0, "a"), "k")),
            Correct(lambda o: [], "no-op", frozenset()),
            Correct(lambda o: [cx.local_op([(0, "s")], [("X", (0,))])] * o["k"], "flip", flip_reads),
        ]
        proto = Protocol("late-flip", lat, [(0, "s", 2)], prog, cx.Circuit(lat, []), [(0, "s")])
        res = enumerate_branches(proto)
        assert res.verdict == "NOT_DETERMINISTIC"
        assert [r.fidelity for r in res.reports] == pytest.approx([1.0, 0.0])
        assert res.n_merged == 0

    def test_undeclared_read_raises(self):
        proto = _forget_protocol()
        proto.program.append(Correct(lambda o: [] if o["k"] else [], "reads k", frozenset()))
        with pytest.raises(KeyError):
            enumerate_branches(proto)
        with pytest.raises(KeyError):
            run_sampled(proto, seed=0)

    def test_cap_counts_derived_rows(self, monkeypatch):
        from qccc import locc

        rows = []
        report = locc.BranchReport
        monkeypatch.setattr(locc, "BranchReport", lambda *a: rows.append(1) or report(*a))
        with pytest.raises(BranchCapExceeded):
            enumerate_branches(_w(4)[0], branch_cap=100)  # 256 rows
        assert 0 < len(rows) <= 100

    def test_w8_at_the_cap(self):
        import time

        t0 = time.perf_counter()
        res = enumerate_branches(_w(8)[0])
        assert time.perf_counter() - t0 < 10.0
        assert len(res.reports) == 2**16 and res.verdict == "DETERMINISTIC"
        assert res.min_fidelity > 1 - 1e-9


# -- the Pauli-frame engine against the DFS -----------------------------------------


def _assert_frames_match_dfs(proto, input_state=None, target="protocol", keep_states=True):
    """Frames and DFS give the same verdict, records in order, bit-equal
    probabilities, equal fidelities and equal reference and final states."""
    from qccc import locc

    kw = dict(backend="tableau", input_state=input_state, target=target, keep_states=keep_states)
    frames, dfs = enumerate_branches(proto, **kw), locc._enumerate_dfs(proto, **kw)
    assert (frames.engine, dfs.engine) == ("frames", "dfs")
    assert frames.verdict == dfs.verdict
    assert [r.record.outcomes for r in frames.reports] == [r.record.outcomes for r in dfs.reports]
    assert [(r.probability, r.fidelity) for r in frames.reports] == [
        (r.probability, r.fidelity) for r in dfs.reports
    ]
    assert (frames.min_fidelity, frames.max_fidelity) == (dfs.min_fidelity, dfs.max_fidelity)
    assert frames.total_probability() == dfs.total_probability()
    assert frames.reference.keys == dfs.reference.keys and frames.reference.states_equal(dfs.reference)
    if keep_states:
        assert len(frames.finals) == len(dfs.finals)
        assert all(a.states_equal(b) for a, b in zip(frames.finals, dfs.finals))
    return frames, dfs


def _random_pauli_program(rng) -> Protocol:
    """System qubits on 2-3 sites under random Clifford layers. Each round adds
    an ancilla, entangles it, measures it in place, applies a declared Pauli
    correction whose entries each read a random parity of the outcomes so far
    plus a random offset (and may flip the ancilla), then copies the ancilla's
    Z value onto a fresh qubit and measures that: a deterministic measurement
    whose outcome the frames move."""
    k = int(rng.integers(2, 4))
    system = [(i, "s") for i in range(k)]

    def ops(entries, count):
        acts = []
        for _ in range(count):
            if len(entries) > 1 and rng.random() < 0.5:
                a, b = rng.choice(len(entries), size=2, replace=False)
                name = str(rng.choice(["CNOT", "CZ", "SWAP"]))
                acts.append(cx.local_op([entries[a], entries[b]], [(name, (0, 1))]))
            else:
                name = str(rng.choice(["H", "S", "SDG", "X", "Y", "Z"]))
                acts.append(cx.local_op([entries[int(rng.integers(len(entries)))]], [(name, (0,))]))
        return acts

    program = [ApplyLayers([cx.LocalLayer(ops(system, int(rng.integers(1, 5))))])]
    tags = []
    for j in range(int(rng.integers(1, 4))):
        anc, copy = (int(rng.integers(k)), f"a{j}"), (int(rng.integers(k)), f"c{j}")
        start = [cx.add_ancilla(*anc)] + ([cx.local_op([anc], [("H", (0,))])] if rng.random() < 0.8 else [])
        program += [
            ApplyLayers([cx.LocalLayer(start), cx.LocalLayer(ops(system + [anc], int(rng.integers(1, 4))))]),
            Measure(MeasurementSpec(anc, f"m{j}", remove=False)),
        ]
        tags.append(f"m{j}")
        read = [t for t in tags if rng.random() < 0.7]
        fixes = [
            (e, str(rng.choice(["X", "Y", "Z"])), [t for t in read if rng.random() < 0.6], int(rng.integers(2)))
            for e in system + [anc]
            if rng.random() < 0.6
        ]

        matrix = [[_CHAR_BITS[p][b] * (t in mask) for t in read] for b in (0, 1) for _, p, mask, _ in fixes]
        offset = [_CHAR_BITS[p][b] * offset for b in (0, 1) for _, p, _, offset in fixes]
        matrix = np.array(matrix, dtype=np.uint8).reshape(2 * len(fixes), len(read))
        fix = PauliMap(read, [e for e, *_ in fixes], matrix, offset)
        program += [
            Correct(name=f"fix {j}", reads=frozenset(read) if rng.random() < 0.5 else None, pauli=fix),
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(*copy), cx.local_op([anc, copy], [("CNOT", (0, 1))])])]),
            Measure(MeasurementSpec(copy, f"c{j}")),
        ]
        tags.append(f"c{j}")
        program.append(ApplyLayers([cx.LocalLayer(ops(system, int(rng.integers(0, 3))))]))
    register = [(i, "s", 2) for i in range(k)]
    lat = Lattice((k,))
    return Protocol("random-pauli", lat, register, program, cx.Circuit(lat, []), system, clifford=True)


def _ghz_with_fix(n, fix):
    """GHZ_n with its correction replaced by fix(outcomes, parity X string)."""
    from dataclasses import replace

    proto = _ghz(n)[0]
    step = proto.program[-1]
    program = proto.program[:-1] + [Correct(lambda o: fix(o, step.fn(o)), "edited fix")]
    return replace(proto, program=program)


def _ghz_with_map(n, edit):
    """GHZ_n with edit(matrix, offset) applied to copies of its declared map."""
    from dataclasses import replace

    proto = _ghz(n)[0]
    parity = proto.program[-1].pauli
    matrix, offset = parity.matrix.copy(), parity.offset.copy()
    edit(matrix, offset)
    fix = Correct(name="edited map", pauli=PauliMap(parity.tags, parity.entries, matrix, offset))
    return replace(proto, program=proto.program[:-1] + [fix])


class TestPauliFrames:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_ghz_matches_dfs(self, n):
        frames, _ = _assert_frames_match_dfs(_ghz(n)[0], keep_states=n <= 8)
        assert frames.verdict == "DETERMINISTIC" and len(frames.reports) == 2 ** (n - 1)

    def test_toric_code_n4_matches_dfs(self):
        from qccc.protocols import toric_code_protocol

        frames, _ = _assert_frames_match_dfs(toric_code_protocol(4)[0])
        assert frames.verdict == "DETERMINISTIC" and len(frames.reports) == 128
        # one plaquette sign is fixed by the others: a deterministic step in every record
        assert sorted({p for _, _, p in frames.reports[0].record.outcomes}) == [0.5, 1.0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_choi_gadgets_match_dfs(self, n):
        from qccc.diagnostics import ghz_unitary_cj

        cj = ghz_unitary_cj(n)
        prep = [("H", (0,)), ("S", (0,)), ("CNOT", (0, n - 1)), ("H", (n - 1,))]
        frames, _ = _assert_frames_match_dfs(cj.protocol(), input_state=cj.initial_state(prep, "tableau"))
        assert frames.verdict == "DETERMINISTIC" and len(frames.reports) == 4**n

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=hst.integers(0, 2**32 - 1))
    def test_random_pauli_programs_match_dfs(self, seed):
        proto = _random_pauli_program(np.random.default_rng(seed))
        frames, dfs = _assert_frames_match_dfs(proto, target=None)
        # against the last record's final state (sign differences enter) and
        # against |0...0>, whose stabilizer bits mostly differ from the finals'
        from qccc.stabilizer import PauliString

        n = len(proto.system_entries)
        for target in (dfs.finals[-1].tab.generators(), [PauliString.single(n, i, "Z") for i in range(n)]):
            _assert_frames_match_dfs(proto, target=target, keep_states=False)

    def test_wrong_correction_is_not_deterministic(self):
        # the X string is skipped whenever k1 = k2 = 1: not affine, so it cannot
        # be declared and the DFS certifies it
        proto = _ghz_with_fix(5, lambda o, acts: [] if o["k1"] and o["k2"] else acts)
        res = enumerate_branches(proto, backend="tableau")
        assert res.engine == "dfs" and res.verdict == "NOT_DETERMINISTIC"
        fids = [r.fidelity for r in res.reports]
        assert set(fids) == {0.0, 1.0} and fids.count(0.0) == 4

    def test_wrong_matrix_entry_is_not_deterministic(self):
        # site 1 also reads k2, so every record with k2 = 1 ends X_1-flipped
        def edit(matrix, offset):
            matrix[0, 1] ^= 1

        frames, _ = _assert_frames_match_dfs(_ghz_with_map(5, edit))
        assert frames.verdict == "NOT_DETERMINISTIC"
        fids = [r.fidelity for r in frames.reports]
        assert set(fids) == {0.0, 1.0} and fids.count(0.0) == 8

    def test_flipped_offset_misses_the_target(self):
        # X_1 on every record: the branches agree, but none is GHZ
        def edit(matrix, offset):
            offset[0] ^= 1

        frames, _ = _assert_frames_match_dfs(_ghz_with_map(5, edit))
        assert frames.verdict == "DETERMINISTIC" and len(frames.reports) == 16
        assert frames.max_fidelity == 0.0

    def test_declarations_are_checked(self):
        entry = [(0, "s")]
        with pytest.raises(ValueError, match="distinct entries"):
            PauliMap(["k"], entry * 2, np.zeros((4, 1)))
        with pytest.raises(ValueError, match=r"\(2, 1\) matrix and 2 offset bits"):
            PauliMap(["k"], entry, np.zeros((1, 2)))
        fix = PauliMap(["k"], entry, [[1], [1]], offset=[0, 1])
        assert [a.spec for a in fix.actions({"k": 0})] == [[("Z", (0,))]]
        assert [a.spec for a in fix.actions({"k": 1})] == [[("X", (0,))]]
        assert Correct(pauli=fix).fn == fix.actions
        for bad in (dict(fn=lambda o: []), dict(reads=frozenset({"j"}))):
            with pytest.raises(ValueError, match="Pauli map"):
                Correct(pauli=fix, **bad)

    def test_ghz17_derives_one_fix(self, monkeypatch):
        """The declared fix runs once, for the reference history; the other
        2^16 - 1 records take it from one GF(2) product."""
        from qccc import locc

        calls = []
        actions = locc.PauliMap.actions
        monkeypatch.setattr(locc.PauliMap, "actions", lambda self, o: calls.append(1) or actions(self, o))
        res = enumerate_branches(_ghz(17)[0], backend="tableau")
        assert res.engine == "frames" and len(res.reports) == 2**16 and calls == [1]

    def test_non_pauli_correction_falls_back_to_the_dfs(self):
        from qccc import locc

        s_fix = [cx.local_op([(0, "s")], [("S", (0,))])]
        proto = _ghz_with_fix(4, lambda o, acts: acts + s_fix * o["k3"])
        res, dfs = enumerate_branches(proto, backend="tableau"), locc._enumerate_dfs(proto, backend="tableau")
        assert res.engine == "dfs" and res.verdict == dfs.verdict == "NOT_DETERMINISTIC"
        assert [(r.record.outcomes, r.probability, r.fidelity) for r in res.reports] == [
            (r.record.outcomes, r.probability, r.fidelity) for r in dfs.reports
        ]

    def test_ghz17_at_the_cap(self):
        import time

        proto = _ghz(17)[0]
        t0 = time.perf_counter()
        res = enumerate_branches(proto, backend="tableau")
        assert time.perf_counter() - t0 < 10.0
        assert res.engine == "frames" and len(res.reports) == 2**16
        assert res.verdict == "DETERMINISTIC" and res.min_fidelity == 1.0

    def test_ghz17_keeps_one_frame_column_per_random_outcome(self, monkeypatch):
        """After the one history the frames hold r = 16 columns, not one per
        record (2^16), and every measurement has one affine form over them."""
        from qccc import locc

        shapes = []
        finalize = locc._finalize

        def spy(state, protocol):
            shapes.append((state.fx.shape[1], state.fz.shape[1], state.forms.shape))
            return finalize(state, protocol)

        monkeypatch.setattr(locc, "_finalize", spy)
        res = enumerate_branches(_ghz(17)[0], backend="tableau")
        assert res.engine == "frames" and len(res.reports) == 2**16
        assert shapes == [(16, 16, (16, 17))]

    @pytest.mark.parametrize(
        "protocol, n, records",
        [("ghz", 18, 2**17), ("tc", 8, 2**31), ("ghz", 256, 2**255)],
        ids=["ghz18", "tc8", "ghz256"],
    )
    def test_cap_raised_after_one_history(self, protocol, n, records):
        import re
        import time

        from qccc.protocols import ghz_protocol, toric_code_protocol

        proto = {"ghz": ghz_protocol, "tc": toric_code_protocol}[protocol](n)[0]
        t0 = time.perf_counter()
        with pytest.raises(BranchCapExceeded, match=re.escape(f"more than 65536 branches: {records} records")):
            enumerate_branches(proto, backend="tableau")
        assert time.perf_counter() - t0 < 2.0


class TestTargets:
    """A target must fit the backend that runs, on either engine."""

    def test_dense_target_on_the_tableau_raises(self):
        # such a target once gave NaN fidelities under a DETERMINISTIC verdict
        from qccc import locc
        from qccc.protocols import ghz_state

        for run in (enumerate_branches, locc._enumerate_dfs):
            with pytest.raises(ValueError, match="stabilizer generators"):
                run(_ghz(4)[0], backend="tableau", target=ghz_state(4))

    def test_generator_target_on_dense_raises(self):
        from qccc.protocols import ghz_generators

        with pytest.raises(ValueError, match="a PureState"):
            enumerate_branches(_ghz(4)[0], target=ghz_generators(4))

    @pytest.mark.parametrize("count", [3, 5])
    def test_generator_count_must_match_the_system(self, count):
        from qccc import locc
        from qccc.protocols import ghz_generators

        for run in (enumerate_branches, locc._enumerate_dfs):
            with pytest.raises(ValueError, match="4 system entries"):
                run(_ghz(4)[0], backend="tableau", target=ghz_generators(count))
