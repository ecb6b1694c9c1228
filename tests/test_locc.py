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
    DEFAULT_BRANCH_CAP,
    ApplyLayers,
    BranchCapExceeded,
    Correct,
    Measure,
    OutcomeRecord,
    PauliMap,
    Protocol,
    ProtocolError,
    _teleport_steps,
    enumerate_branches,
    replay,
    run_sampled,
)
from qccc.stabilizer import _CHAR_BITS
from qccc.statevector import PureState, QuditRegister, RegionOperator

from oracles import _assert_rows_replay


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
        Measure((0, "a"), "k"),
    ]
    return Protocol("forget", lat, [(0, "s", 2)], prog, [(0, "s")])


def _ghz(n):
    from qccc.protocols import ghz_protocol

    return ghz_protocol(n)[0], None


def _ghz_batched(n):
    """GHZ_n as `ghz_protocol` built it before it measured each ancilla early:
    every ancilla added, paired and given its parity, then all measured, then
    the same prefix-parity Correct. The dense register holds 2n - 1 qubits."""
    from dataclasses import replace

    from qccc.protocols import ghz_protocol

    proto = ghz_protocol(n)[0]
    pair_gate = [("H", (0,)), ("CNOT", (0, 1))]
    layers = [
        cx.LocalLayer([cx.add_ancilla(i, "a", 2) for i in range(1, n)]),
        cx.GateLayer([cx.Gate(((i, "s"), (i + 1, "a")), list(pair_gate)) for i in range(n - 1)]),
        cx.LocalLayer(
            [cx.local_op([(n - 1, "s")], [("Z", (0,)), ("H", (0,))])]
            + [cx.local_op([(i, "s"), (i, "a")], [("CNOT", (0, 1))]) for i in range(1, n)]
        ),
    ]
    measures = [Measure((i, "a"), f"k{i}") for i in range(1, n)]
    program = [ApplyLayers(layers), *measures, proto.program[-1]]
    return replace(proto, program=program), None


def _tc(n):
    from qccc.protocols import toric_code_protocol

    return toric_code_protocol(n)[0], None


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


def _dfs(proto, backend="dense", input_state=None, target="protocol", branch_cap=DEFAULT_BRANCH_CAP):
    """The depth-first search, the oracle, from the start and target that
    `enumerate_branches` would resolve."""
    from qccc import locc

    start = locc._start(proto, backend, input_state)
    return locc._enumerate_dfs(proto, start, locc._resolve_target(proto, start, target), branch_cap)


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
        with pytest.raises(BranchCapExceeded):  # the DFS: the tableau would otherwise take the frames
            _dfs(proto, backend=backend, branch_cap=cap)
        assert len(finalized) <= cap and len(completed) <= cap
        finalized.clear()
        completed.clear()
        res = _dfs(proto, backend=backend, branch_cap=16)
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
        """Sampling, replaying and enumerating are three policies of one
        executor: every row matches its replay, and a sampled history is one
        row, whose replay rebuilds the sampled state."""
        proto, inp = build()
        res = enumerate_branches(proto, backend=backend, input_state=inp)
        _assert_rows_replay(proto, res, backend, inp, limit=64)
        for seed in range(5):
            st, rec = run_sampled(proto, seed=seed, backend=backend, input_state=inp)
            match = [r for r in res.reports if r.record.key() == rec.key()]
            assert len(match) == 1
            assert abs(match[0].probability - rec.probability()) < 1e-12
            again, rec2 = replay(proto, match[0].record, backend=backend, input_state=inp)
            assert rec2.key() == rec.key()
            assert _same_state(st, again)

    def test_pruned_mass_is_not_deterministic(self, monkeypatch):
        # one ancilla rotated to outcome probabilities 0.9 / 0.1, then measured
        # under a probability floor raised to 0.2
        from qccc import locc

        monkeypatch.setattr(locc, "DEFAULT_PROB_FLOOR", 0.2)
        lat = Lattice((2,))
        theta = 2 * np.arccos(np.sqrt(0.9))
        ry = np.array(
            [[np.cos(theta / 2), -np.sin(theta / 2)], [np.sin(theta / 2), np.cos(theta / 2)]]
        )
        prog = [
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "a", 2), cx.local_op([(0, "a")], ry)])]),
            Measure((0, "a"), "k"),
        ]
        proto = Protocol("lossy", lat, [(0, "s", 2)], prog, [(0, "s")])
        res = enumerate_branches(proto)
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
    """`_teleport_steps` run as a program over a source and a Bell pair."""

    def _with_pair(self, psi, d):
        st = PureState.product(QuditRegister([(0, "src", d)]), {(0, "src"): psi})
        st.add_entry(0, "e1", d)
        st.add_entry(1, "e2", d)
        st.apply(RegionOperator(((0, "e1"), (1, "e2")), gates.bell_pair_gate(d)))
        return st

    def _protocol(self, source_dim, d):
        register = [(0, "src", source_dim), (0, "e1", d), (1, "e2", d)]
        steps = _teleport_steps((0, "src"), (0, "e1"), (1, "e2"), d, "t")
        return Protocol("teleport", Lattice((2,)), register, steps, [(1, "e2")])

    def _teleported(self, psi, d, ms, mp):
        """The receiver's state after the branch that reads (ms, mp)."""
        record = OutcomeRecord((("ts", ms, 0.0), ("tp", mp, 0.0)))
        state, _ = replay(self._protocol(d, d), record, input_state=self._with_pair(psi, d))
        return state

    def test_qubit_all_branches(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            for ms in range(2):
                for mp in range(2):
                    st = self._teleported(psi, 2, ms, mp)
                    assert abs(np.vdot(st.amps, psi)) ** 2 > 1 - 1e-10

    def test_qutrit_all_branches(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            for ms in range(3):
                for mp in range(3):
                    st = self._teleported(psi, 3, ms, mp)
                    assert abs(np.vdot(st.amps, psi)) ** 2 > 1 - 1e-10

    def test_zero_state(self):
        st, _ = run_sampled(self._protocol(2, 2), seed=1, input_state=self._with_pair(np.array([1.0, 0.0]), 2))
        assert abs(st.amps[0]) > 1 - 1e-10

    def test_fifty_random_states_every_branch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            for ms in range(2):
                for mp in range(2):
                    st = self._teleported(psi, 2, ms, mp)
                    assert abs(np.vdot(st.amps, psi)) ** 2 > 1 - 1e-10

    def test_pair_not_entangled_rejected(self):
        """A product pair does not teleport: no branch reaches the source state."""
        psi = np.array([0.6, 0.8j])
        st = PureState.product(QuditRegister([(0, "src", 2), (0, "e1", 2), (1, "e2", 2)]), {(0, "src"): psi})
        target = PureState(QuditRegister([(1, "e2", 2)]), psi)
        res = enumerate_branches(self._protocol(2, 2), input_state=st, target=target)
        assert len(res.reports) == 4 and max(res.reports.fidelities) < 1 - 1e-3

    def test_dimension_mismatch(self):
        """The qutrit Bell rotation does not fit a qubit source."""
        with pytest.raises(ValueError, match="operator dimension 9 does not match support dimension 6"):
            run_sampled(self._protocol(2, 3), seed=0)

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
                    st = self._teleported(psi[d], d, ms, mp)
                    assert abs(np.vdot(st.amps, psi[d])) ** 2 > 1 - 1e-12

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (2, 1)])
    def test_qudit_correction_matrix(self, a, b):
        """The fix read off outcomes (m_s, m_p) = (b, -a) is X^a Z^b on the receiver."""
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


def _assert_same_as_dfs(proto, input_state=None):
    """`enumerate_branches` against the plain depth-first search: the same
    verdict and records in the same order, probabilities and fidelities
    within 1e-12."""
    res, dfs = enumerate_branches(proto, input_state=input_state), _dfs(proto, input_state=input_state)
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
        Measure((0, "a"), "k"),
        _no_op(),
        ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "b", 2)])]),
        Measure((0, "b"), "m"),
    ]
    return Protocol("kick", lat, [(0, "s", 2)], prog, [(0, "s")])


def _kept_entry():
    """H on the system qubit, then a measurement that keeps it, written as a
    CNOT onto a fresh ancilla that is then measured: the outcome lives in
    the kept entry, which no by-product on the rest moves back."""
    lat = Lattice((2,))
    copy = [cx.add_ancilla(0, "k", 2), cx.local_op([(0, "s"), (0, "k")], [("CNOT", (0, 1))])]
    prog = [
        ApplyLayers([cx.LocalLayer([cx.local_op([(0, "s")], [("H", (0,))]), *copy])]),
        Measure((0, "k"), "k"),
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
    in the others each entry random with probability 0.3; and a rare offset.
    A fresh |0> ancilla measured after it gives a deterministic outcome."""
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
        program += [Measure(a, a[1]) for a in ancillas]
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
        program += [ApplyLayers([cx.LocalLayer([cx.add_ancilla(*fresh, d)])]), Measure(fresh, f"z{j}")]
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
            Measure((0, "a"), "k"),
            _no_op(),
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(0, "b", 2)])]),
            Measure((0, "b"), "m"),
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

    def test_w8_rows_replay(self):
        """A seeded sample of the 2^16 rows that one history derives, each
        against its own replay and `w_state(8)`."""
        from qccc.protocols import w_state

        proto = _w(8)[0]
        _assert_rows_replay(proto, enumerate_branches(proto), limit=256, target=w_state(8))


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
            Measure((0, "a"), "k"),
        ]
        res = enumerate_branches(Protocol("dial", Lattice((2,)), [(0, "s", 2)], program, [(0, "s")]))
        assert res.verdict == "DETERMINISTIC" and res.reports.outcomes.dtype == np.uint16
        assert [r.record.key() for r in res.reports] == [(k,) for k in levels]


# -- the Pauli-frame engine against the DFS -----------------------------------------


def _assert_frames_match_dfs(proto, input_state=None, target="protocol"):
    """Frames and DFS give the same verdict, records in order, bit-equal
    probabilities, equal fidelities and equal reference states; and the
    frames' rows match their replays (`_assert_rows_replay`)."""
    kw = dict(backend="tableau", input_state=input_state, target=target)
    frames, dfs = enumerate_branches(proto, **kw), _dfs(proto, **kw)
    assert (frames.engine, dfs.engine) == ("frames", "dfs")
    assert frames.verdict == dfs.verdict
    assert [r.record.outcomes for r in frames.reports] == [r.record.outcomes for r in dfs.reports]
    assert [(r.probability, r.fidelity) for r in frames.reports] == [
        (r.probability, r.fidelity) for r in dfs.reports
    ]
    assert (frames.min_fidelity, frames.max_fidelity) == (dfs.min_fidelity, dfs.max_fidelity)
    assert frames.total_probability() == dfs.total_probability()
    assert frames.reference.keys == dfs.reference.keys and frames.reference.states_equal(dfs.reference)
    _assert_rows_replay(proto, frames, "tableau", input_state, limit=32, target=target)
    return frames, dfs


def _random_pauli_program(rng) -> Protocol:
    """System qubits on 2-3 sites under random Clifford layers. Each round adds
    an ancilla, entangles it, copies its Z value onto a fresh qubit and
    measures that, applies a declared Pauli correction whose entries each
    read a random parity of the outcomes so far plus a random offset (and may
    flip the ancilla), then measures the ancilla: a deterministic measurement
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
            ApplyLayers([cx.LocalLayer([cx.add_ancilla(*copy), cx.local_op([anc, copy], [("CNOT", (0, 1))])])]),
            Measure(copy, f"m{j}"),
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
        program += [Correct(fix, f"fix {j}"), Measure(anc, f"c{j}")]
        tags.append(f"c{j}")
        program.append(ApplyLayers([cx.LocalLayer(ops(system, int(rng.integers(0, 3))))]))
    register = [(i, "s", 2) for i in range(k)]
    lat = Lattice((k,))
    return Protocol("random-pauli", lat, register, program, system)


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
        frames, _ = _assert_frames_match_dfs(_ghz(n)[0])
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
        _, dfs = _assert_frames_match_dfs(proto, target=None)
        # against the last record's replayed state (sign differences enter)
        # and against |0...0>, whose stabilizer bits mostly differ from the
        # records' states
        from qccc.stabilizer import PauliString

        n = len(proto.system_entries)
        last, _ = replay(proto, dfs.reports[-1].record, backend="tableau")
        for target in (last.tab.generators(), [PauliString.single(n, i, "Z") for i in range(n)]):
            _assert_frames_match_dfs(proto, target=target)

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

    # the same for the GHZ program that measures each ancilla as soon as its
    # parity is written, whose Correct the engine pulls back through later pair
    # gates (recorded when that program was introduced)
    RECORDED_INTERLEAVED_GHZ = {
        "ghz2": "a36d03bde0331857",
        "ghz3": "8ca570a33529bdb2",
        "ghz4": "e0fb987b008d5400",
        "ghz5": "e5b82c1a835fa50e",
        "ghz6": "1bb913de7d1f3242",
        "ghz7": "912ad57c17009d82",
        "ghz8": "42139330ce3bf909",
        "ghz9": "8ae6745b87d6852d",
        "ghz10": "17e53b18a662ddef",
        "ghz11": "1587fd9f91b1639e",
        "ghz12": "45640160448aba48",
    }

    @pytest.mark.parametrize("case", list(RECORDED_ROWS))
    def test_rows_bit_equal_to_recorded(self, case):
        """GHZ in the program order these rows were recorded with (`_ghz_batched`)."""
        family, n = case.rstrip("0123456789"), int(case.lstrip("ghzw"))
        res = enumerate_branches({"ghz": _ghz_batched, "w": _w}[family](n)[0])
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC"
        assert _rows_digest(res) == self.RECORDED_ROWS[case]

    @pytest.mark.parametrize("case", list(RECORDED_INTERLEAVED_GHZ))
    def test_interleaved_ghz_rows_bit_equal_to_recorded(self, case):
        res = enumerate_branches(_ghz(int(case[3:]))[0])
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC" and res.fallback is None
        assert _rows_digest(res) == self.RECORDED_INTERLEAVED_GHZ[case]

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
        for all 128 rows). Recorded on the depth-first search; the one history
        now derives them, its by-products pulled back through the later
        plaquette blocks."""
        import hashlib

        from qccc.protocols import toric_code_protocol

        res = enumerate_branches(toric_code_protocol(4)[0])
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC" and len(res.reports) == 128
        h = hashlib.sha256()
        for rep in res.reports:
            tags, bits, _ = zip(*rep.record.outcomes)
            h.update(("/".join(tags) + ":" + "".join(map(str, bits)) + ";").encode())
        assert h.hexdigest()[:16] == "b087f718ef331a46"
        assert max(abs(r.probability - 0.007812499999999979) for r in res.reports) <= 1e-15
        assert max(abs(r.fidelity - 0.9999999999999998) for r in res.reports) <= 1e-14


class TestTargets:
    """A target must fit the backend that runs. The target is resolved once,
    before any history runs."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The histories that `_execute` starts."""
        from qccc import locc

        started, execute = [], locc._execute
        monkeypatch.setattr(locc, "_execute", lambda *a, **k: started.append(a[1]) or execute(*a, **k))
        return started

    def test_dense_target_on_the_tableau_raises(self, runs):
        # such a target once gave NaN fidelities under a DETERMINISTIC verdict
        from qccc.protocols import ghz_state

        with pytest.raises(ValueError, match="stabilizer generators"):
            enumerate_branches(_ghz(4)[0], backend="tableau", target=ghz_state(4))
        assert runs == []

    def test_generator_target_on_dense_raises(self):
        from qccc.protocols import ghz_generators

        with pytest.raises(ValueError, match="a PureState"):
            enumerate_branches(_ghz(4)[0], target=ghz_generators(4))

    @pytest.mark.parametrize("count", [3, 5])
    def test_generator_count_must_match_the_system(self, runs, count):
        from qccc.protocols import ghz_generators

        with pytest.raises(ValueError, match="4 system entries"):
            enumerate_branches(_ghz(4)[0], backend="tableau", target=ghz_generators(count))
        assert runs == []

    def test_generator_target_built_once(self, runs, monkeypatch):
        """Once for the one history that the frames engine runs."""
        from qccc.stabilizer import StabilizerTableau

        built, build = [], StabilizerTableau.from_generators
        monkeypatch.setattr(StabilizerTableau, "from_generators", classmethod(lambda _, g: built.append(1) or build(g)))
        res = enumerate_branches(_ghz(4)[0], backend="tableau")
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC" and res.min_fidelity == 1.0
        assert len(built) == 1 and len(runs) == 1


# -- dense by-products pulled back through Clifford steps -----------------------------


def _random_clifford_rounds(rng, wrong: bool) -> Protocol:
    """System qubits on 2-3 sites under random Clifford layers, then 2-3
    runs: each adds 1-2 ancillas (half the time before the previous run is
    measured), joins them to the system by random Clifford gates and
    measures them, with random Clifford gates on the system between runs.
    One Correct at the end reads every tag. Its right map is the frame that
    the tableau engine keeps; `wrong` flips one random bit of it in the
    column of a random outcome."""
    from qccc import locc

    k = int(rng.integers(2, 4))
    system = [(i, "s") for i in range(k)]

    def ops(entries, count):
        acts = []
        for _ in range(count):
            if len(entries) > 1 and rng.random() < 0.6:
                a, b = rng.choice(len(entries), size=2, replace=False)
                name = str(rng.choice(["CNOT", "CZ", "SWAP"]))
                acts.append(cx.local_op([entries[a], entries[b]], [(name, (0, 1))]))
            else:
                name = str(rng.choice(["H", "S", "SDG", "X", "Y", "Z"]))
                acts.append(cx.local_op([entries[int(rng.integers(len(entries)))]], [(name, (0,))]))
        return acts

    program = [ApplyLayers([cx.LocalLayer(ops(system, int(rng.integers(1, 5))))])]
    sizes = rng.integers(1, 3, size=int(rng.integers(2, 4)))
    runs = [[(int(rng.integers(k)), f"a{j}{i}") for i in range(size)] for j, size in enumerate(sizes)]
    early = [rng.random() < 0.5 for _ in runs]
    for j, run in enumerate(runs):
        acts = [] if j and early[j] else [cx.add_ancilla(*a) for a in run]
        acts += [cx.local_op([a], [("H", (0,))]) for a in run if rng.random() < 0.7]
        if j + 1 < len(runs) and early[j + 1]:
            acts += [cx.add_ancilla(*a) for a in runs[j + 1]]
        acts += ops(system + run, int(rng.integers(2, 6)))
        program += [ApplyLayers([cx.LocalLayer(acts)]), *[Measure(a, a[1]) for a in run]]
        program.append(ApplyLayers([cx.LocalLayer(ops(system, int(rng.integers(0, 4))))]))
    proto = Protocol("clifford-rounds", Lattice((k,)), [(i, "s", 2) for i in range(k)], program, system)
    framed = locc._FramedTableau(locc.initial_state(proto, "tableau"))
    next(locc._execute(program, framed, lambda *_: ({},)))
    tags = [a[1] for run in runs for a in run]
    matrix = np.zeros((2 * k, len(tags)), dtype=np.uint8)
    rows = [framed.index(e) for e in system]
    made = [int(np.flatnonzero(framed.forms[:, 1 + c])[0]) for c in range(framed.fx.shape[1])]
    for c, t in enumerate(made):  # column c entered at the first form that reads it, tag t's
        matrix[:, t] = np.concatenate([framed.fx[rows, c], framed.fz[rows, c]])
    if wrong:
        matrix[int(rng.integers(2 * k)), made[int(rng.integers(len(made)))] if made else 0] ^= 1
    program.append(Correct(PauliMap(tags, system, matrix), "frame"))
    return proto


class TestPulledBack:
    """The dense engine pulls each Correct's columns back through the
    Clifford steps after a Measure; the depth-first search is the oracle."""

    @given(seed=hst.integers(0, 2**32 - 1), wrong=hst.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_random_clifford_rounds_match_dfs(self, seed, wrong):
        res = _assert_same_as_dfs(_random_clifford_rounds(np.random.default_rng(seed), wrong))
        if not wrong:
            assert res.verdict == "DETERMINISTIC" and res.engine == "frames"

    @pytest.mark.parametrize("n", range(2, 18))
    def test_ghz_certifies_from_one_history(self, n):
        import time

        proto = _ghz(n)[0]
        t0 = time.perf_counter()
        res = enumerate_branches(proto)
        seconds = time.perf_counter() - t0
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC" and len(res.reports) == 2 ** (n - 1)
        assert res.min_fidelity > 1 - 1e-9 and proto.depth() == (1 if n == 2 else 2)
        assert seconds < {12: 0.1, 17: 2.0}.get(n, 10.0)

    @pytest.mark.parametrize(
        "build",
        [lambda: _tc(4)] + [lambda n=n: _cj_ghz(n) for n in (2, 3)],
        ids=["tc4", "cj2", "cj3"],
    )
    def test_one_correct_over_many_runs_matches_dfs(self, build):
        res = _assert_same_as_dfs(*build())
        assert res.engine == "frames" and res.verdict == "DETERMINISTIC"

    @pytest.mark.parametrize(
        "build",
        [lambda: _w(4)[0], lambda: _rg(2, 3)[0], lambda: _ghz_batched(5)[0], lambda: _pipeline("aklt", 2, 4)],
        ids=["w4", "rg", "ghz-batched", "pipeline"],
    )
    def test_a_correct_right_after_its_run_gives_what_the_pull_back_gives(self, build):
        """With only Measures between a tag and its Correct, the first
        candidate is read off the Correct's column; an empty step before each
        Correct makes the pass pull the columns back, and it finds the same."""
        from qccc import locc

        proto = build()
        spaced = [s for step in proto.program for s in ([ApplyLayers([]), step] if isinstance(step, Correct) else [step])]

        def firsts(program):
            return {t: next(g) for t, g in locc._byproduct_plan(program, locc.initial_state(proto)).items()}

        assert firsts(spaced) == firsts(proto.program)

    def test_ghz_with_a_prefix_parity_entry_dropped_is_never_certified(self):
        """Each of GHZ_6's 15 prefix-parity entries dropped in turn."""
        parity = _ghz(6)[0].program[-1].pauli
        for row, col in zip(*np.nonzero(parity.matrix)):
            res = _assert_same_as_dfs(_ghz_with_map(6, lambda m, o: m.__setitem__((row, col), 0)))
            assert res.verdict == "NOT_DETERMINISTIC", (row, col)

    @pytest.mark.parametrize("entry", [0, 1], ids=["first", "last"])
    def test_toric_code_with_a_sign_map_entry_dropped_is_never_certified(self, entry):
        """The first or the last nonzero entry of TC N=4's `_tc_sign_map` dropped."""
        proto = _tc(4)[0]
        fix = proto.program[-1].pauli
        rows, cols = np.nonzero(fix.matrix)
        fix.matrix[rows[-entry], cols[-entry]] = 0
        res = enumerate_branches(proto)
        assert res.verdict == "NOT_DETERMINISTIC" and res.engine == "dfs" and res.fallback


def _one_site(*steps, register=((0, "s", 2),)) -> Protocol:
    return Protocol("one-site", Lattice((2,)), list(register), list(steps), [(0, "s")])


def _bell_ancilla(d=2):
    """An ancilla (0, "a") maximally entangled with the system qudit."""
    pair = [("H", (0,)), ("CNOT", (0, 1))] if d == 2 else gates.cnot_d(d) @ np.kron(gates.fourier(d), np.eye(d))
    return _local(cx.add_ancilla(0, "a", d), cx.local_op([(0, "a"), (0, "s")], pair))


def _local(*actions):
    return ApplyLayers([cx.LocalLayer(list(actions))])


def _measure(entry=(0, "a"), tag="k"):
    return Measure(entry, tag)


def _x_fix(tags=("k",), entry=(0, "s"), d=2, name="fix"):
    return Correct(PauliMap(list(tags), [entry], [[d - 1] * len(tags), [0] * len(tags)], d=d), name)


class TestFallbackReasons:
    """Why a dense program ran the depth-first search, one reason of each kind."""

    @pytest.mark.parametrize(
        "build, reason",
        [
            (lambda: _kept_entry(), "check failed at tag k, residual 1e+00"),
            (  # an X-basis measurement, H then Z, leaves Z on s: the X fix misses it
                lambda: _one_site(_bell_ancilla(), _local(cx.local_op([(0, "a")], gates.H)), _measure(), _x_fix()),
                "check failed at tag k, residual 1e+00",
            ),
            (
                lambda: _one_site(
                    _bell_ancilla(), _measure(), _local(cx.add_ancilla(0, "b")), _measure((0, "b")), _x_fix()
                ),
                "tag k repeats",
            ),
            (lambda: _one_site(_bell_ancilla(), _measure(), _no_op(), _x_fix()), "'fix' reads k, which 'no-op' closes"),
            (
                lambda: _one_site(
                    _bell_ancilla(), _measure(), _local(cx.local_op([(0, "s")], gates.fourier(2))), _x_fix()
                ),
                "a matrix gate on the pulled-back support of k",
            ),
            (
                lambda: _one_site(
                    _bell_ancilla(3), _measure(), _local(cx.local_op([(0, "s")], gates.fourier(3))), _x_fix(d=3),
                    register=((0, "s", 3),),
                ),
                "qudit (0, 's') on the pulled-back support of k",
            ),
            (  # CNOT(s -> b) carries the fix's X on s back onto the fresh b
                lambda: _one_site(
                    _bell_ancilla(), _measure(),
                    _local(cx.add_ancilla(0, "b"), cx.local_op([(0, "s"), (0, "b")], [("CNOT", (0, 1))])),
                    _x_fix(), _measure((0, "b"), "m"),
                ),
                "X on (0, 'b') where it is added, in the by-product of k",
            ),
            (  # b's outcome m must flip (X on b where it is added) and must not (X on c)
                lambda: _one_site(
                    _bell_ancilla(), _measure(),
                    _local(
                        cx.add_ancilla(0, "b"), cx.add_ancilla(0, "c"), cx.local_op([(0, "s"), (0, "b")], [("CNOT", (0, 1))])
                    ),
                    _measure((0, "b"), "m"),
                    Correct(PauliMap(["k", "m"], [(0, "s"), (0, "c")], [[1, 0], [0, 1], [0, 0], [0, 0]]), "fix"),
                ),
                "no flips of the later tags carry the by-product of k to its Correct",
            ),
            (lambda: _kicked_sibling(np.pi / 2), "check failed at tag k, residual 8e-01"),
            (
                lambda: _one_site(_local(cx.add_ancilla(0, "a", 3, np.array([1, 1, 0]) / np.sqrt(2))), _measure()),
                "an outcome of k lies below the probability floor",
            ),
            (
                lambda: _one_site(_local(cx.add_ancilla(0, "a", 2, np.array([1, 1]) / np.sqrt(2))), _measure()),
                "k measures a product factor, or its by-product names an absent entry",
            ),
        ],
        ids=["kept", "basis", "repeat", "closed", "matrix", "qudit", "ancilla-x", "no-flips", "check", "floor", "factor"],
    )
    def test_reason(self, build, reason):
        res = enumerate_branches(build())
        assert (res.engine, res.fallback) == ("dfs", reason)

    def test_a_tag_read_before_it_is_measured(self):
        from qccc import locc

        proto = _one_site(_bell_ancilla(), _x_fix(), _measure())
        with pytest.raises(locc._Fallback, match="^'fix' reads k, which no earlier Measure takes$"):
            locc._byproduct_plan(proto.program, locc.initial_state(proto))

    def test_tableau_floor(self):
        """The tableau has no floor to fall back at: a fresh ancilla's
        measurement, whose outcome 1 has probability 0, runs the frames."""
        program = [_local(cx.add_ancilla(0, "a")), _measure()]
        proto = Protocol("fresh", Lattice((2,)), [(0, "s", 2)], program, [(0, "s")])
        res = enumerate_branches(proto, backend="tableau")
        assert (res.engine, res.fallback) == ("frames", None) and len(res.reports) == 1

    def test_frames_name_no_reason(self):
        assert enumerate_branches(_ghz(3)[0]).fallback is None
        assert enumerate_branches(_ghz(3)[0], backend="tableau").fallback is None


def _ghz3_with(**edits):
    """GHZ_3 rebuilt with each named field f set to edits[f](its value)."""
    from dataclasses import replace

    proto = _ghz(3)[0]
    return replace(proto, **{f: edit(list(getattr(proto, f))) for f, edit in edits.items()})


def _pair_gate_as_matrix(program):
    """The first pair gate, a named H then CNOT, as its 4 x 4 matrix."""
    layers = list(program[0].layers)
    (gate,) = layers[1].gates
    names = tuple((name, tuple(idx)) for name, idx in gate.spec)
    layers[1] = cx.GateLayer([cx.Gate(gate.entries, cx.composed_named_matrix(names, (2, 2)))])
    return [ApplyLayers(layers)] + program[1:]


def _with_qutrit_ancilla(program):
    return [_local(cx.add_ancilla(0, "q", 3))] + program


def _with_ancilla_in_one(program):
    return [_local(cx.add_ancilla(0, "q", 2, np.array([0.0, 1.0])))] + program


def _parity_over_z3(program):
    parity = program[-1].pauli
    return program[:-1] + [Correct(PauliMap(parity.tags, parity.entries, parity.matrix, d=3), "parity over Z_3")]


def _cj_tc4():
    from qccc.diagnostics import build_cj_protocol
    from qccc.protocols import ToricCodeLayout, tc_target_generators
    from qccc.stabilizer import StabilizerTableau

    return build_cj_protocol(StabilizerTableau.from_generators(tc_target_generators(ToricCodeLayout(4)))).protocol()


class TestCliffordFlag:
    """`Protocol.clifford` is read from the program: qubits only, named
    Cliffords, qubit ancillas added in |0>, and Pauli maps over Z_2."""

    CLIFFORD = {
        **{f"ghz{n}": lambda n=n: _ghz(n)[0] for n in range(2, 7)},
        "tc4": lambda: _tc(4)[0],
        **{f"cj_ghz{n}": lambda n=n: _cj_ghz(n)[0] for n in (2, 3)},
        "cj_tc4": _cj_tc4,
    }
    NOT_CLIFFORD = {
        **{f"w{n}": lambda n=n: _w(n)[0] for n in range(2, 5)},
        "rg_b2": lambda: _rg(2, 3)[0],
        "rg_b3": lambda: _random_rg(3, 3, 0),
        "aklt_pipeline": lambda: _pipeline("aklt", 4, 8),
        "cluster_pipeline": lambda: _pipeline("cluster", 3, 9),
        "ghz_matrix_gate": lambda: _ghz3_with(program=_pair_gate_as_matrix),
        "ghz_qutrit_ancilla": lambda: _ghz3_with(program=_with_qutrit_ancilla),
        "ghz_qutrit_register_entry": lambda: _ghz3_with(register=lambda r: r + [(0, "q", 3)]),
        "ghz_ancilla_in_a_given_state": lambda: _ghz3_with(program=_with_ancilla_in_one),
        "ghz_correct_over_z3": lambda: _ghz3_with(program=_parity_over_z3),
    }

    @pytest.mark.parametrize("name", sorted(CLIFFORD))
    def test_clifford(self, name):
        assert self.CLIFFORD[name]().clifford is True

    @pytest.mark.parametrize("name", sorted(NOT_CLIFFORD))
    def test_not_clifford(self, name):
        from qccc import locc

        proto = self.NOT_CLIFFORD[name]()
        assert proto.clifford is False
        with pytest.raises(ProtocolError, match="is not Clifford; tableau backend unavailable"):
            locc.initial_state(proto, "tableau")

    def test_matrix_gate_certifies_on_dense(self):
        """The edit changes the program's form, not the state it prepares."""
        assert enumerate_branches(_ghz3_with(program=_pair_gate_as_matrix)).verdict == "DETERMINISTIC"
