"""End-to-end acceptance suite.

Each test implements one certification criterion at its stated tolerance and
prints one PASS line (pytest -s shows them; failures raise). Criteria with a
runtime budget assert it.
"""

import math
import time

import numpy as np
import pytest

from qccc import circuits as cx
from qccc import gates
from qccc import mps as M
from qccc.circuits import _random_circuit, _shift_unitary
from qccc.diagnostics import (
    area_law_audit,
    build_cj_protocol,
    check_factorization,
    enumerate_cj_branches,
    ghz_unitary_cj,
    run_cj_unitary,
)
from qccc.lattice import Lattice
from qccc.locc import enumerate_branches, run_sampled
from qccc.protocols import (
    RGFixedPointSpec,
    ToricCodeLayout,
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
from qccc.stabilizer import PauliString, StabilizerTableau
from qccc.statevector import PureState, QuditRegister, RegionOperator, pauli_on

from oracles import raw_overlap

FID_TOL = 1e-9


def _report(num, text):
    print(f"\nACCEPTANCE {num:>2}: PASS - {text}")


def test_criterion_01_ghz_determinism():
    t0 = time.time()
    proto, _ = ghz_protocol(8)
    res = enumerate_branches(proto, backend="dense")
    assert len(res.reports) == 2**7
    assert res.deterministic
    assert res.min_fidelity >= 1 - FID_TOL
    proto64, _ = ghz_protocol(64)
    st, _ = run_sampled(proto64, seed=2, backend="tableau")
    target = StabilizerTableau.from_generators(ghz_generators(64))
    assert st.tab.states_equal(target)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(1, f"GHZ: 128 dense branches fid>=1-1e-9; N=64 tableau group match ({elapsed:.1f}s)")


def test_criterion_02_w_determinism():
    t0 = time.time()
    for n in range(2, 8):
        proto, _ = w_protocol(n)
        res = enumerate_branches(proto)
        assert res.deterministic, n
        assert res.min_fidelity >= 1 - FID_TOL, (n, res.min_fidelity)
        zs = w_z_sequence(n)
        closed = np.array([1.0 / math.sqrt(n - k + 1) for k in range(1, n + 1)])
        assert np.max(np.abs(zs - closed)) < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(2, f"W: N=2..7 exhaustive fid>=1-1e-9; z-sequence closed form ({elapsed:.1f}s)")


def test_criterion_03_toric_code():
    t0 = time.time()
    proto, target = toric_code_protocol(4)
    assert proto.depth() == 11
    res = enumerate_branches(proto, backend="dense")
    assert res.deterministic
    assert res.min_fidelity >= 1 - FID_TOL
    for rep in res.reports:
        signs = [1 - 2 * k for _, k, _ in rep.record.outcomes]
        assert np.prod(signs) == 1
    proto8, _ = toric_code_protocol(8)
    assert proto8.depth() == 11
    st8, _ = run_sampled(proto8, seed=1, backend="tableau")
    target8 = StabilizerTableau.from_generators(proto8.target_generators)
    assert st8.tab.states_equal(target8)
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    _report(
        3,
        f"TC: N=4 dense {len(res.reports)} surviving branches -> |TC>, parity holds; "
        f"N=8 tableau group match; depth 11 ({elapsed:.0f}s)",
    )


def test_criterion_04_rg_fixed_point():
    spec = RGFixedPointSpec(2, np.array([1, 1]) / np.sqrt(2), gates.bell_state(2), 3)
    proto, target = rg_fixed_point_protocol(spec)
    assert proto.depth() == 5
    res = enumerate_branches(proto)
    assert res.deterministic
    assert res.min_fidelity >= 1 - FID_TOL
    _report(4, f"RG fixed point B=2 N=3: deterministic, fid>=1-1e-9, depth 5")


def test_criterion_05_factorization_witnesses():
    lat8 = Lattice((8,))
    rep = check_factorization(ghz_state(8), lat8, pauli_on((0, "s"), "Z"), pauli_on((4, "s"), "Z"))
    assert abs(rep.residual - 1.0) < 1e-9
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    rep_w = check_factorization(
        w_state(8), lat8, RegionOperator(((0, "s"),), sp), RegionOperator(((4, "s"),), sp.conj().T)
    )
    assert abs(rep_w.residual - 0.125) < 1e-9
    layout = ToricCodeLayout(4)
    tc = tc_target_state(layout)
    lat2 = layout.lattice
    row = lambda j: [lat2.site_index((j, k)) for k in range(4)]
    x4 = np.eye(1, dtype=complex)
    for _ in range(4):
        x4 = np.kron(x4, gates.X)
    op_a = RegionOperator(tuple((s, "s") for s in row(0)), x4)
    op_b = RegionOperator(tuple((s, "s") for s in row(2)), x4)
    rep_tc = check_factorization(tc, lat2, op_a, op_b)
    assert rep_tc.residual >= 0.99
    # 100 random shallow circuits: outputs factorize beyond separation 2l
    rng = np.random.default_rng(55)
    lat10 = Lattice((10,))
    reg = QuditRegister([(i, "s", 2) for i in range(10)])
    trials = 0
    while trials < 100:
        ell = int(rng.integers(1, 3))
        st = PureState.product(reg)
        for li in range(ell):
            for i in range(li % 2, 9, 2):
                st.apply(
                    RegionOperator(((i, "s"), (i + 1, "s")), gates.random_unitary(4, rng)),
                    unitary_check=False,
                )
        i = int(rng.integers(0, 10))
        j = int(rng.integers(0, 10))
        sep = min((i - j) % 10, (j - i) % 10)
        if sep <= 2 * ell:
            continue
        op_a = RegionOperator(((i, "s"),), gates.random_unitary(2, rng))
        op_b = RegionOperator(((j, "s"),), gates.random_unitary(2, rng))
        rep_r = check_factorization(st, lat10, op_a, op_b, depth_claim=ell)
        assert rep_r.residual < 1e-8, (trials, sep, ell, rep_r.residual)
        trials += 1
    _report(
        5,
        "witnesses: GHZ8 residual 1.0, W8 residual 0.125, TC4 rows >=0.99; "
        "100 random shallow circuits factorize beyond 2*depth",
    )


def test_criterion_06_area_law_audit():
    # every concrete protocol passes with c = 2 * depth * log2(d)
    proto_g, _ = ghz_protocol(10)
    rep_g = area_law_audit(proto_g, [list(range(k)) for k in range(1, 10)])
    assert rep_g.passes
    proto_w, _ = w_protocol(6)
    rep_w = area_law_audit(proto_w, [list(range(k)) for k in range(1, 6)])
    assert rep_w.passes
    spec = RGFixedPointSpec(2, np.array([1, 1]) / np.sqrt(2), gates.bell_state(2), 3)
    proto_r, _ = rg_fixed_point_protocol(spec)
    rep_r = area_law_audit(proto_r, [[0], [0, 1]])
    assert rep_r.passes
    proto_t, _ = toric_code_protocol(4)
    lat = proto_t.lattice
    bands = [
        [lat.site_index((i, j)) for i in range(rows) for j in range(4)] for rows in (1, 2, 3)
    ]
    rep_t = area_law_audit(proto_t, bands)
    assert rep_t.passes
    # volume-law counterexample: ten Bell pairs across one cut vs depth-2 budget
    lat20 = Lattice((20,))
    st = PureState.product(QuditRegister([(i, "s", 2) for i in range(20)]))
    for i in range(10):
        st.apply_named("H", [(i, "s")])
        st.apply_named("CNOT", [(i, "s"), (i + 10, "s")])
    rep_v = area_law_audit(st, [list(range(10))], lat=lat20, depth=2)
    assert not rep_v.passes
    assert rep_v.entries[0].s0 == 10.0 and rep_v.entries[0].boundary_size == 2
    _report(6, "area law: GHZ/W/RG/TC audits pass at c = 2*depth*log2(d); "
               "10-Bell-pair state correctly fails the depth-2 budget")


def test_criterion_07_bound_envelope_and_slope():
    t0 = time.time()
    aklt = M.aklt_mps()
    alpha = math.log(3)
    deficits = {}
    for q in (4, 6, 8, 10, 12):
        rep = M.bound_report(aklt, q, 6)
        assert abs(rep.alpha - alpha) < 1e-9
        deficits[q] = rep.measured_deficit
        if rep.epsilon_q < 1.0:
            budget = rep.epsilon_q + rep.epsilon_q**2 * math.exp(rep.epsilon_q) * (
                1 + rep.epsilon_q / 6
            )
            assert rep.measured_deficit <= budget + 1e-10
    qs = np.array(sorted(deficits))
    slope = np.polyfit(qs, np.log([deficits[q] for q in qs]), 1)[0]
    assert slope <= -alpha / 2 * (1 - 0.15), slope
    # transfer-matrix deficit equals the dense oracle wherever 3^(qM) <= 2^18
    checked = 0
    for q in range(2, 9):
        for m_sites in range(2, 7):
            if 3 ** (q * m_sites) > 2**18:
                continue
            bq = M.block(aklt, q)
            fp = M.rg_fixed_point_tensor(bq)
            d_tm = M.fidelity_deficit(bq, fp.b, m_sites)
            d_or = abs(raw_overlap(bq, fp.b, m_sites) - 1)
            assert abs(d_tm - d_or) < 1e-8, (q, m_sites)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _report(
        7,
        f"AKLT bounds: envelope respected, log-deficit slope {slope:.3f} <= "
        f"{-alpha/2*(1-0.15):.3f}; {checked} dense-oracle deficit matches ({elapsed:.0f}s)",
    )


def test_criterion_08_pipeline_end_to_end():
    res_g = M.preparation_pipeline(M.ghz_mps(), 2, 6)
    out_g = enumerate_branches(res_g.protocol)
    assert out_g.deterministic
    assert out_g.min_fidelity >= 1 - FID_TOL
    res_a = M.preparation_pipeline(M.aklt_mps(), 4, 8)
    out_a = enumerate_branches(res_a.protocol)
    assert out_a.deterministic
    assert out_a.min_fidelity >= 1 - res_a.report.epsilon_q
    _report(
        8,
        f"pipeline: GHZ-tensor q=2 N=6 fid {out_g.min_fidelity:.12f}; "
        f"AKLT q=4 N=8 fid {out_a.min_fidelity:.6f} >= 1 - eps_q",
    )


def test_criterion_09_clifford_unitaries():
    cj = ghz_unitary_cj(3)
    xall = PauliString.from_label("+XXX").dense()
    u_expect = (np.eye(8) + 1j * xall) / np.sqrt(2)
    assert np.linalg.norm(cj.u_dense() - u_expect) < 1e-9
    rng = np.random.default_rng(77)
    for trial in range(20):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        inp = PureState(QuditRegister([(k, "in", 2) for k in range(3)]), psi)
        det, min_fid, _ = enumerate_cj_branches(cj, inp, reference=u_expect @ psi)
        assert det and min_fid >= 1 - FID_TOL, (trial, min_fid)
    img = cj.u_map.conjugate(PauliString.single(3, 0, "Z"))
    assert len(img.support()) == 3
    layout = ToricCodeLayout(4)
    tc_tab = StabilizerTableau.from_generators(tc_target_generators(layout))
    cj_tc = build_cj_protocol(tc_tab)
    ts = run_cj_unitary(cj_tc, [], backend="tableau", seed=7)
    assert ts.tab.states_equal(cj_tc.resource)
    _report(
        9,
        "Clifford gadgets: U_GHZ M=3, 64 branches x 20 inputs match the dense cat "
        "rotation; conjugated Z has full support; U_TC|0> = V0|TC| on the tableau",
    )


def test_criterion_10_shift_and_range():
    for n in range(2, 7):
        lat = Lattice((n,))
        circuit = cx.build_shift_circuit(lat)
        assert circuit.depth() == (2 if n % 2 == 0 else 3)
        reg = QuditRegister([(i, "s", 2) for i in range(n)])
        for b in range(2**n):
            bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
            st = PureState.product(reg, {(i, "s"): np.eye(2)[bits[i]] for i in range(n)})
            cx.run(circuit, st)
            shifted = bits[1:] + bits[:1]
            idx = int("".join(map(str, shifted)), 2)
            assert abs(st.amps[idx]) > 1 - 1e-12
    lat6 = Lattice((6,))
    assert cx.estimate_range(_shift_unitary(lat6), lat6) == 1
    rng = np.random.default_rng(99)
    lat8 = Lattice((8,))
    reg8 = [(i, "s", 2) for i in range(8)]
    for trial in range(50):
        depth = int(rng.integers(1, 4))
        circuit = _random_circuit(lat8, depth, rng)
        u = cx.circuit_unitary(circuit, reg8)
        assert cx.estimate_range(u, lat8) <= depth, trial
    _report(
        10,
        "shift: depth-2 (odd N: 3) circuit reproduces the cyclic shift for N<=6; range(T)=1; "
        "50 random circuits never exceed their depth",
    )
