import functools
import operator
from dataclasses import fields

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
    enumerate_branches,
    replay,
    run_sampled,
    teleport,
)
from qccc.stabilizer import _CHAR_BITS
from qccc.statevector import PureState, QuditRegister, RegionOperator


def _noop_protocol():
    lat = Lattice((2,))
    return Protocol("noop", lat, [(0, "s", 2)], [], [(0, "s")])


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
        "forget", lat, [(0, "s", 2)], prog, [(0, "s")], clifford=True
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


def _no_op():
    """A correction that reads no tag and touches no entry."""
    return Correct(PauliMap([], [], np.zeros((0, 0))), "no-op")


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
        real_finalize, real_correction = locc._finalize, locc._apply_correction

        def counting_finalize(state, protocol):
            finalized.append(protocol.name)
            return real_finalize(state, protocol)

        def counting_correction(state, pauli, outcomes):
            if pauli is end.pauli:
                completed.append(outcomes)
            return real_correction(state, pauli, outcomes)

        monkeypatch.setattr(locc, "_finalize", counting_finalize)
        monkeypatch.setattr(locc, "_apply_correction", counting_correction)
        ghz, _ = ghz_protocol(5)  # 16 branches
        # a last step that every history reaching the end of the program runs once
        end = _no_op()
        proto = replace(ghz, program=ghz.program + [end])
        dfs = locc._enumerate_dfs  # the tableau would otherwise take the frames
        with pytest.raises(BranchCapExceeded):
            dfs(proto, backend=backend, branch_cap=cap)
        assert len(finalized) <= cap and len(completed) <= cap
        finalized.clear()
        completed.clear()
        res = dfs(proto, backend=backend, branch_cap=16)
        assert res.engine == "dfs" and len(res.reports) == len(completed) == len(finalized) == 16
        if backend == "tableau":
            # `enumerate_branches` runs GHZ on the Pauli-frame engine, which raises
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
        proto = Protocol("bad", lat, [(0, "s", 2)], prog, [(0, "s")])
        with pytest.raises(ProtocolError):
            run_sampled(proto, seed=0)

    def test_gate_after_a_correction_starts_a_round(self):
        # a gate on an entry of a correction's map, directly or through a local
        # op that joined it to a corrected entry, follows the LOCC in a second
        # round
        lat = Lattice((3,))
        register = [(i, "s", 2) for i in range(3)]
        gate = lambda a, b: ApplyLayers([cx.GateLayer([cx.Gate(((a, "s"), (b, "s")), [("CZ", (0, 1))])])])
        fix = lambda entries: Correct(PauliMap([], entries, np.zeros((2 * len(entries), 0))), "fix")
        system = [(i, "s") for i in range(3)]
        later = Protocol("later", lat, register, [gate(0, 1), fix([(2, "s")]), gate(0, 1)], system)
        assert later.depth() == 2 and [c.depth() for c in later.rounds()] == [2]
        proto = Protocol("after", lat, register, [gate(0, 1), fix([(1, "s")]), gate(1, 2)], system)
        assert [c.depth() for c in proto.rounds()] == [1, 1]
        ancilla = [(0, "a")]
        joined = [
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "a", 2)])]),
            gate(1, 2),
            fix(ancilla),
            ApplyLayers([cx.LocalLayer([cx.local_op(ancilla + [(0, "s")], [("CNOT", (0, 1))])])]),
            gate(0, 1),
            ApplyLayers([cx.LocalLayer([cx.remove_ancilla(0, "a")])]),
        ]
        proto = Protocol("joined", lat, register, joined, system)
        first, second = proto.rounds()
        assert (first.depth(), second.depth()) == (1, 1)
        assert [len(layer.actions) for layer in second.layers if isinstance(layer, cx.LocalLayer)] == [2]
        assert proto.validate_circuit() == []

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
        proto = Protocol("lossy", lat, [(0, "s", 2)], prog, [(0, "s")])
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
        """The fix X^a Z^b moves indices on qubits and qutrits alike."""

        def no_matrix(*args, **kwargs):
            raise AssertionError("a Pauli correction needs no dense matrix")

        monkeypatch.setattr(gates, "shift_x", no_matrix)
        monkeypatch.setattr(gates, "clock_z", no_matrix)
        psi = {2: np.array([0.6, 0.8j]), 3: np.array([0.6, 0.0, 0.8j])}
        for d in (2, 3):
            for ms in range(d):
                for mp in range(d):
                    st = self._with_pair(psi[d], d)
                    teleport(st, (0, "src"), ((0, "e1"), (1, "e2")), d, force=(ms, mp))
                    assert abs(np.vdot(st.amps, psi[d])) ** 2 > 1 - 1e-12

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (2, 1)])
    def test_qudit_correction_matrix(self, a, b):
        """The fix read off outcomes (m_s, m_p) = (b, -a) is X^a Z^b on the receiver."""
        from qccc.locc import _teleport_steps

        target = (1, "e2")
        fix = _teleport_steps((0, "src"), (0, "e1"), target, 3, "t")[-1].pauli
        assert fix.paulis({"ts": b, "tp": -a % 3}) == ([(target, a, b)] if a or b else [])
        psi = np.array([0.6, 0.48j, 0.64])
        st = PureState.product(QuditRegister([(0, "e1", 3), (*target, 3)]), {target: psi})
        st.apply_paulis(fix.paulis({"ts": b, "tp": -a % 3}), 3)
        want = gates.shift_x(3, a) @ np.linalg.matrix_power(gates.clock_z(3), b) @ psi
        np.testing.assert_allclose(st.amps[:3], want, rtol=0, atol=1e-15)


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
    """`enumerate_branches` against the plain depth-first search: the same
    verdict and records in the same order, probabilities and fidelities
    within 1e-12."""
    from qccc import locc

    res, dfs = enumerate_branches(proto), locc._enumerate_dfs(proto)
    assert dfs.engine == "dfs"
    assert res.verdict == dfs.verdict
    assert res.reports.tags == dfs.reports.tags
    assert np.array_equal(res.reports.outcomes, dfs.reports.outcomes)
    assert np.abs(res.reports.outcome_probs - dfs.reports.outcome_probs).max(initial=0) <= 1e-12
    assert np.abs(res.reports.probabilities - dfs.reports.probabilities).max() <= 1e-12
    assert np.abs(res.reports.fidelities - dfs.reports.fidelities).max() <= 1e-12
    return res


def _kicked_sibling(theta):
    """Measure a |+> ancilla that rotates the system by Ry(theta) when it is 1,
    then run a correction that reads nothing, and measure a fresh |0> ancilla
    after it: the outcome 1 slice is outcome 0's only when theta = 0."""
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
        _no_op(),
        ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "b", 2)])]),
        Measure(MeasurementSpec((0, "b"), "m")),
    ]
    return Protocol("kick", lat, [(0, "s", 2)], prog, [(0, "s")])


def _kept_entry():
    """H on the system qubit, then a measurement that keeps it: the outcome
    lives in the kept entry, which no slice of the rest shows."""
    lat = Lattice((2,))
    prog = [
        ApplyLayers([cx.LocalLayer([cx.local_op([(0, "s")], [("H", (0,))])])]),
        Measure(MeasurementSpec((0, "s"), "k", remove=False)),
    ]
    return Protocol("kept", lat, [(0, "s", 2)], prog, [(0, "s")])


def _cz_d(d):
    """Controlled-Z over Z_d: |a b> -> w^(a b) |a b>."""
    return np.diag(np.exp(2j * np.pi / d * np.outer(np.arange(d), np.arange(d)).reshape(-1)))


def _random_byproduct_program(rng) -> Protocol:
    """Qudits of dimension d = 2 or 3 on 2-3 sites under random unitaries.
    Each round adds |+> ancillas at random sites, kicks system qudits by
    X^a or Z^a controlled on them (sometimes by a random unitary instead),
    may join two of them by a controlled-Z (a by-product on a partner that
    the same run measures later), measures them in one run and applies a
    declared map over Z_d: the fix that undoes the kicks in half the rounds,
    in the others each entry random with probability 0.3; and a rare offset. A fresh |0> ancilla measured after it
    gives a deterministic outcome, and a rare measurement keeps its entry."""
    d, k = int(rng.choice([2, 3])), int(rng.integers(2, 4))
    system = [(i, "s") for i in range(k)]
    plus = gates.fourier(d)[:, 0]
    program = [
        ApplyLayers([cx.LocalLayer([cx.local_op([e], gates.random_unitary(d, rng)) for e in system])]),
        ApplyLayers([cx.LocalLayer([cx.local_op(system[:2], gates.random_unitary(d * d, rng))])]),
    ]
    for j in range(int(rng.integers(1, 3))):
        ancillas = [(int(rng.integers(k)), f"a{j}{i}") for i in range(int(rng.integers(1, 3)))]
        acts = [cx.add_ancilla(*a, d, plus) for a in ancillas]
        right = {}  # (tag, entry) -> (x, z) of the fix that undoes the kick
        for i, a in enumerate(ancillas):
            e = system[int(rng.integers(k))]
            kind = rng.choice(["X", "Z", "U"], p=[0.45, 0.45, 0.1])
            if kind == "U":
                u = np.kron(np.diag(np.eye(d)[0]), np.eye(d)) + np.kron(np.diag(1 - np.eye(d)[0]), gates.random_unitary(d, rng))
                acts.append(cx.local_op([a, e], u))
            else:
                acts.append(cx.local_op([a, e], gates.cnot_d(d) if kind == "X" else _cz_d(d)))
                right[a[1], e] = (-1, 0) if kind == "X" else (0, -1)
        if len(ancillas) == 2 and rng.random() < 0.5:
            acts.append(cx.local_op(ancillas, _cz_d(d)))
        program.append(ApplyLayers([cx.LocalLayer(acts)]))
        keep = rng.random() < 0.1
        program += [Measure(MeasurementSpec(a, a[1], remove=not keep)) for a in ancillas]
        tags, wrong = [a[1] for a in ancillas], 0.3 * (rng.random() < 0.5)
        matrix = np.zeros((2 * k, len(tags)), dtype=int)
        for c, t in enumerate(tags):
            for r, e in enumerate(system):
                x, z = right.get((t, e), (0, 0))
                if rng.random() < wrong:
                    x, z = rng.integers(d, size=2)
                matrix[r, c], matrix[k + r, c] = x, z
        offset = (rng.random(2 * k) < 0.1) * rng.integers(d, size=2 * k)
        program.append(Correct(PauliMap(tags, system, matrix, offset, d=d), f"fix {j}"))
        fresh = (int(rng.integers(k)), f"z{j}")
        program += [ApplyLayers([cx.LocalLayer([cx.add_ancilla(*fresh, d)])]), Measure(MeasurementSpec(fresh, f"z{j}"))]
    return Protocol("random-byproduct", Lattice((k,)), [(i, "s", d) for i in range(k)], program, system)


class TestBranchMerging:
    """The dense engine that checks by-products on one history, against the
    plain depth-first search."""

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
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC"

    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(2, 3))
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    def test_random_rg_specs_match_dfs(self, seed, n):
        assert _assert_same_as_dfs(_random_rg(2, n, seed)).engine == "frames"

    @pytest.mark.parametrize("n", [2, 3])
    def test_rg_b3_matches_dfs(self, n):
        res = _assert_same_as_dfs(_rg(3, n)[0])
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC"

    @pytest.mark.parametrize(
        "build",
        [lambda: _w(7)[0], lambda: _rg(3, 4)[0], lambda: _pipeline("aklt", 2, 12)],
        ids=["w7", "rg-B3-N4", "aklt-q2-N12"],
    )
    def test_frames_certify_where_the_dfs_is_slow(self, build):
        res = enumerate_branches(build())  # the AKLT pipeline's fidelity is 1 - O(eps_q)
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC" and res.min_fidelity > 0.9

    @given(seed=hst.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_random_byproduct_programs_match_dfs(self, seed):
        _assert_same_as_dfs(_random_byproduct_program(np.random.default_rng(seed)))

    def test_undeclared_corrections_never_merge(self):
        res = enumerate_branches(_ghz(6)[0])
        assert res.engine == "frames" and len(res.reports) == 32

    def test_unequal_siblings_are_not_merged(self):
        res = enumerate_branches(_kicked_sibling(np.pi / 2))  # |0> against |+>
        assert res.engine == "dfs" and res.verdict == "NOT_DETERMINISTIC"
        assert [r.fidelity for r in res.reports] == pytest.approx([1.0, 0.5])

    def test_merge_error_enters_the_verdict(self, monkeypatch):
        """A by-product accepted under a loose tolerance still fails the verdict."""
        from qccc import locc

        proto = _kicked_sibling(1e-6)
        res = enumerate_branches(proto)  # fidelity 1 - eps^2/4: the check fails, the DFS certifies
        assert res.engine == "dfs" and res.verdict == "DETERMINISTIC"
        monkeypatch.setattr(locc, "BYPRODUCT_TOL", 1e-3)
        res = enumerate_branches(proto)  # residual eps/2 accepted
        assert res.engine == "frames" and len(res.reports) == 2
        assert res.verdict == "NOT_DETERMINISTIC"

    def test_live_tags_keep_equal_siblings_apart(self):
        """Equal states still differ in what a later correction reads."""
        lat = Lattice((2,))
        prog = [
            ApplyLayers(
                [cx.LocalLayer([cx.add_ancilla(0, "a", 2), cx.local_op([(0, "a")], [("H", (0,))])])]
            ),
            Measure(MeasurementSpec((0, "a"), "k")),
            _no_op(),
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "b", 2)])]),
            Measure(MeasurementSpec((0, "b"), "m")),
            Correct(PauliMap(["k"], [(0, "s")], [[1], [0]]), "flip"),
        ]
        proto = Protocol("late-flip", lat, [(0, "s", 2)], prog, [(0, "s")])
        res = enumerate_branches(proto)
        assert res.engine == "dfs" and res.verdict == "NOT_DETERMINISTIC"
        assert [r.fidelity for r in res.reports] == pytest.approx([1.0, 0.0])

    def test_kept_entry_is_never_certified(self):
        """The kept outcome is invisible to a slice of the rest: the program
        runs the DFS, whose records end in |0> and |1>."""
        res = enumerate_branches(_kept_entry())
        assert res.engine == "dfs" and res.verdict == "NOT_DETERMINISTIC"
        assert [r.fidelity for r in res.reports] == pytest.approx([1.0, 0.0])

    @pytest.mark.parametrize(
        "build, name, edit",
        [
            # the first hop's Z^b (b = m_s) dropped
            (lambda: _w(4)[0], "teleport fix", lambda fix: fix.matrix.__setitem__((1, 0), 0)),
            # the first hop's X^a (a = -m_p) dropped
            (lambda: _w(4)[0], "teleport fix", lambda fix: fix.matrix.__setitem__((0, 1), 0)),
            # hub 0's label shifted by one more step of Z_3
            (lambda: _rg(3, 3)[0], "label alignment", lambda fix: fix.offset.__setitem__(0, 1)),
        ],
        ids=["w4-no-z", "w4-no-x", "rg-B3-N3-offset"],
    )
    def test_edited_map_is_never_certified(self, build, name, edit):
        """A one-entry edit of a map, found by both engines alike."""
        proto = build()
        edit(next(s.pauli for s in proto.program if isinstance(s, Correct) and s.name.startswith(name)))
        res = _assert_same_as_dfs(proto)
        assert res.verdict == "NOT_DETERMINISTIC" or res.min_fidelity < 1 - 1e-9

    def test_cap_counts_derived_rows(self, monkeypatch):
        """W n=4 (256 records) at a cap of 100 raises after one history."""
        from qccc import locc

        proto = _w(4)[0]
        measured = []
        measure = PureState.measure_remove
        monkeypatch.setattr(PureState, "measure_remove", lambda *a, **k: measured.append(1) or measure(*a, **k))
        with pytest.raises(BranchCapExceeded, match="more than 100 branches: 256 records"):
            enumerate_branches(proto, branch_cap=100)
        assert len(measured) == sum(isinstance(step, Measure) for step in proto.program)

    def test_w8_at_the_cap(self):
        import time

        t0 = time.perf_counter()
        res = enumerate_branches(_w(8)[0])
        assert time.perf_counter() - t0 < 10.0
        assert res.engine == "frames" and len(res.reports) == 2**16 and res.verdict == "DETERMINISTIC"
        assert res.min_fidelity > 1 - 1e-9


class TestBranchRows:
    """`reports` is a read-only sequence of BranchReports over the row arrays."""

    @pytest.mark.parametrize(
        "build",
        [lambda: enumerate_branches(_w(4)[0]), lambda: enumerate_branches(_ghz(6)[0], backend="tableau")],
        ids=["w4-merged", "ghz6-frames"],
    )
    def test_sequence(self, build):
        res = build()
        rows, listed = res.reports, list(res.reports)
        assert len(rows) == len(listed) > 8 and listed == [rows[i] for i in range(len(rows))]
        assert rows[-1] == listed[-1] and rows[-len(rows)] == listed[0]
        assert rows[:4] == listed[:4] and rows[3:-2:5] == listed[3:-2:5] and rows[::-1] == listed[::-1]
        for i in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                rows[i]
        rep = rows[1]
        assert type(rep.probability) is float and type(rep.fidelity) is float
        assert all(type(k) is int and type(p) is float for _, k, p in rep.record.outcomes)
        # left to right, as `sum` added floats before Python 3.12
        assert res.total_probability() == functools.reduce(operator.add, [r.probability for r in listed])

    def test_outcomes_past_a_byte(self):
        """Outcome 299 of a 300-level ancilla widens the search's outcome
        column, on a row that needs no more room."""
        d, levels = 300, [0, 1, 2, 299]
        init = np.zeros(d)
        init[levels] = 0.5
        program = [
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "a", d, init)])]),
            Measure(MeasurementSpec((0, "a"), "k")),
        ]
        res = enumerate_branches(Protocol("dial", Lattice((2,)), [(0, "s", 2)], program, [(0, "s")]))
        assert res.verdict == "DETERMINISTIC" and res.reports.outcomes.dtype == np.uint16
        assert [r.record.key() for r in res.reports] == [(k,) for k in levels]


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
            Correct(fix, f"fix {j}"),
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(*copy), cx.local_op([anc, copy], [("CNOT", (0, 1))])])]),
            Measure(MeasurementSpec(copy, f"c{j}")),
        ]
        tags.append(f"c{j}")
        program.append(ApplyLayers([cx.LocalLayer(ops(system, int(rng.integers(0, 3))))]))
    register = [(i, "s", 2) for i in range(k)]
    lat = Lattice((k,))
    return Protocol("random-pauli", lat, register, program, system, clifford=True)


def _ghz_with_map(n, edit):
    """GHZ_n with edit(matrix, offset) applied to copies of its declared map."""
    from dataclasses import replace

    proto = _ghz(n)[0]
    parity = proto.program[-1].pauli
    matrix, offset = parity.matrix.copy(), parity.offset.copy()
    edit(matrix, offset)
    fix = Correct(name="edited map", pauli=PauliMap(parity.tags, parity.entries, matrix, offset))
    return replace(proto, program=proto.program[:-1] + [fix])


def _rows_digest(res) -> str:
    """SHA-256 prefix of every row's outcomes, probability and fidelity, bit for bit."""
    import hashlib

    reps, h = res.reports, hashlib.sha256()
    tags, bits, probs = zip(*[o for rep in reps for o in rep.record.outcomes])
    h.update("/".join(tags).encode())
    for col in ([len(rep.record.outcomes) for rep in reps], bits, probs, [rep.probability for rep in reps],
                [rep.fidelity for rep in reps]):
        h.update(np.array(col, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _recorded_cases():
    """`_rows_digest` of the tableau enumerations of GHZ 2-17, TC N=4 and the
    Choi gadgets at n = 2, 3."""
    from qccc.diagnostics import ghz_unitary_cj
    from qccc.protocols import toric_code_protocol

    got = {f"ghz{n}": _rows_digest(enumerate_branches(_ghz(n)[0], backend="tableau")) for n in range(2, 18)}
    got["tc4"] = _rows_digest(enumerate_branches(toric_code_protocol(4)[0], backend="tableau"))
    for n in (2, 3):
        cj = ghz_unitary_cj(n)
        prep = [("H", (0,)), ("S", (0,)), ("CNOT", (0, n - 1)), ("H", (n - 1,))]
        got[f"cj{n}"] = _rows_digest(enumerate_branches(cj.protocol(), input_state=cj.initial_state(prep, "tableau")))
    return got


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

    # SHA-256 prefixes of `_rows_digest`, recorded with the tableau that
    # copied itself on every qubit add and removal
    RECORDED_ROWS = {
        "ghz2": "bd330983da6d7b52",
        "ghz3": "691fb01da5f58d6a",
        "ghz4": "e94c91b0e6fee353",
        "ghz5": "24e9894c2c181ea0",
        "ghz6": "b0a2392527ca0bd2",
        "ghz7": "ce9ac354e8f60593",
        "ghz8": "8598dac673197aa7",
        "ghz9": "d97cc640afa2644e",
        "ghz10": "b6eb56818b808db7",
        "ghz11": "79e0987d4db72262",
        "ghz12": "e53c1ee84eb04e9f",
        "ghz13": "2ff128a8f4b7f21a",
        "ghz14": "d0e74e5841fe23d3",
        "ghz15": "b9e4d8764d7b3089",
        "ghz16": "a4d3e4d60a1564fb",
        "ghz17": "19201509e5f551db",
        "tc4": "58aea3a54c3c139c",
        "cj2": "99473bb90a9c37ed",
        "cj3": "2e0847ef632ed09c",
    }

    def test_rows_bit_equal_to_recorded(self):
        """The in-place tableau relabels qubits on removal; the rows must not move."""
        assert _recorded_cases() == self.RECORDED_ROWS

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
        # the last site's X is dropped, so every record with k1 + ... + k4 odd
        # ends X_4-flipped
        def edit(matrix, offset):
            matrix[3] = 0

        frames, _ = _assert_frames_match_dfs(_ghz_with_map(5, edit))
        assert frames.verdict == "NOT_DETERMINISTIC"
        fids = [r.fidelity for r in frames.reports]
        assert set(fids) == {0.0, 1.0} and fids.count(0.0) == 8

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
        with pytest.raises(ValueError, match=r"\(2, 1\) matrix and 2 offsets"):
            PauliMap(["k"], entry, np.zeros((1, 2)))
        fix = PauliMap(["k"], entry, [[1], [1]], offset=[0, 1])
        assert fix.paulis({"k": 0}) == [((0, "s"), 0, 1)]
        assert fix.paulis({"k": 1}) == [((0, "s"), 1, 0)]
        # over Z_3, -1 is 2 and the offset wraps
        fix = PauliMap(["j", "k"], entry, [[0, -1], [1, 0]], offset=[0, 4], d=3)
        assert fix.matrix.tolist() == [[0, 2], [1, 0]] and fix.offset.tolist() == [0, 1]
        assert fix.paulis({"j": 2, "k": 1, "i": 5}) == [((0, "s"), 2, 0)]
        assert fix.paulis({"j": 2, "k": 0}) == []
        assert [f.name for f in fields(Correct)] == ["pauli", "name"]

    def test_fractional_entries_raise(self):
        entry = [(0, "s")]
        with pytest.raises(ValueError, match="integer matrix and offset entries"):
            PauliMap(["k"], entry, [[0.5], [1.7]])
        with pytest.raises(ValueError, match="integer matrix and offset entries"):
            PauliMap(["k"], entry, [[1], [0]], offset=[0, 0.5])
        assert PauliMap(["k"], entry, [[1.0], [-1.0]], d=3).matrix.tolist() == [[1], [2]]

    def test_ghz17_derives_one_fix(self, monkeypatch):
        """The declared fix runs once, for the reference history; the other
        2^16 - 1 records take it from one GF(2) product."""
        from qccc import locc

        calls = []
        paulis = locc.PauliMap.paulis
        monkeypatch.setattr(locc.PauliMap, "paulis", lambda self, o: calls.append(1) or paulis(self, o))
        res = enumerate_branches(_ghz(17)[0], backend="tableau")
        assert res.engine == "frames" and len(res.reports) == 2**16 and calls == [1]

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


class TestDenseRows:
    """The dense engines move indices for Pauli fixes and read a forced
    outcome's probability from its own slice; the rows must not move. The
    one-history engine gives every record the probabilities of the history's
    distributions, which must be the bits each record's own state gives."""

    # SHA-256 prefixes of `_rows_digest`, recorded (numpy 2.4, OpenBLAS,
    # x86-64) with the state that applied every Pauli as a matrix and summed
    # the whole distribution for each forced outcome
    RECORDED_ROWS = {
        "ghz2": "a36d03bde0331857",
        "ghz3": "8ca570a33529bdb2",
        "ghz4": "85eeab770d129f3b",
        "ghz5": "f2578baee53a9b1d",
        "ghz6": "058aed171ed63227",
        "ghz7": "b205ca1315718bb3",
        "ghz8": "d0afc2ab6499c7d4",
        "ghz9": "f21ea222c21321ee",
        "ghz10": "d1e1f296cd10deaa",
        "ghz11": "19b5923682520874",
        "ghz12": "b038abbe8606d09c",
        "w2": "8612bae96ddf1f19",
        "w3": "2fa0cea21b52d0dd",
        "w4": "eff7aea8e057e69e",
        "w5": "e9ec93ebd152e342",
        "w6": "d47c673f49c3df9e",
    }

    @pytest.mark.parametrize("case", list(RECORDED_ROWS))
    def test_rows_bit_equal_to_recorded(self, case):
        family, n = case.rstrip("0123456789"), int(case.lstrip("ghzw"))
        res = enumerate_branches({"ghz": _ghz, "w": _w}[family](n)[0])
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC"
        assert _rows_digest(res) == self.RECORDED_ROWS[case]

    @pytest.mark.parametrize(
        "case", [f"ghz{n}" for n in range(2, 9)] + [f"w{n}" for n in range(2, 5)] + ["rg2"]
    )
    def test_replay_sums_the_bits_the_rows_were_given(self, case):
        """The DFS hands each forced outcome its probability from the parent's
        distribution; `replay` sums the outcome's own slice. Every row,
        those the one history derives included, must read the same bits both ways."""
        family, n = case.rstrip("0123456789"), int(case.lstrip("ghzwrg"))
        proto = {"ghz": _ghz, "w": _w, "rg": lambda b: _rg(b, 3)}[family](n)[0]
        res = enumerate_branches(proto)
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC"
        for row in res.reports:
            _, record = replay(proto, row.record)
            assert record.outcomes == row.record.outcomes

    def test_toric_code_n4_rows_within_rounding_of_recorded(self):
        """Same records in the same order; every row's probability within
        1e-15 and fidelity within 1e-14 of the recorded ones (each the same
        for all 128 rows)."""
        import hashlib

        from qccc.protocols import toric_code_protocol

        res = enumerate_branches(toric_code_protocol(4)[0])
        assert res.engine == "dfs" and res.verdict == "DETERMINISTIC" and len(res.reports) == 128
        h = hashlib.sha256()
        for rep in res.reports:
            tags, bits, _ = zip(*rep.record.outcomes)
            h.update(("/".join(tags) + ":" + "".join(map(str, bits)) + ";").encode())
        assert h.hexdigest()[:16] == "b087f718ef331a46"
        assert max(abs(r.probability - 0.007812499999999979) for r in res.reports) <= 1e-15
        assert max(abs(r.fidelity - 0.9999999999999998) for r in res.reports) <= 1e-14


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
