import math
import time

import numpy as np
import pytest

from qccc import circuits as cx
from qccc import gates
from qccc import mps as M
from qccc.locc import enumerate_branches, run_sampled
from qccc.mps import _sqrt_psd
from qccc.statevector import CapacityError


class TestCanonicalForm:
    def test_product_unchanged_normal(self):
        cf = M.canonicalize(M.product_mps())
        assert not cf.reducible
        assert M.is_normal(cf.blocks[0][1])

    def test_ghz_two_blocks(self):
        cf = M.canonicalize(M.ghz_mps())
        assert cf.reducible and len(cf.blocks) == 2
        assert all(abs(mu - 1) < 1e-10 for mu, _ in cf.blocks)
        assert all(b.chi == 1 for _, b in cf.blocks)

    def test_aklt_normalized_leading_eigenvalue(self):
        aklt = M.aklt_mps()
        vals = M.sorted_spectrum(M.transfer_matrix(aklt))
        assert abs(vals[0] - 1) < 1e-9
        assert np.allclose(vals[1:], -1 / 3, atol=1e-9)

    def test_aklt_rejects_reducible_canonical_form(self, monkeypatch):
        two = M.canonicalize(M.ghz_mps())
        monkeypatch.setattr(M, "canonicalize", lambda mps: two)
        with pytest.raises(ValueError):
            M.aklt_mps()

    def test_w_chi2_decomposes_into_product_blocks(self):
        cf = M.canonicalize(M.w_chi2_mps())
        assert len(cf.blocks) == 2
        assert all(b.chi == 1 for _, b in cf.blocks)

    def test_unequal_weights(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0] = np.diag([1.0, 0.5])
        cf = M.canonicalize(M.MPS(t))
        assert len(cf.blocks) == 2
        mus = sorted((mu for mu, _ in cf.blocks), reverse=True)
        assert abs(mus[0] - 1) < 1e-9 and abs(mus[1] - 0.5) < 1e-9

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            M.MPS(np.zeros((2, 2, 2)))


class TestIsNormal:
    def test_aklt_true(self):
        assert M.is_normal(M.aklt_mps())

    def test_ghz_false(self):
        assert not M.is_normal(M.MPS(M.ghz_mps().tensor))

    def test_chi_one_true(self):
        assert M.is_normal(M.product_mps())

    def test_cluster_true(self):
        cf = M.canonicalize(M.cluster_mps())
        assert len(cf.blocks) == 1 and M.is_normal(cf.blocks[0][1])

    def test_unscaled_rejected(self):
        t = 2.0 * M.aklt_mps().tensor
        with pytest.raises(ValueError):
            M.is_normal(M.MPS(t))


class TestBlocking:
    def test_q1_identity(self):
        aklt = M.aklt_mps()
        assert np.allclose(M.block(aklt, 1).tensor, aklt.tensor)

    def test_aklt_q2_second_eigenvalue(self):
        b2 = M.block(M.aklt_mps(), 2)
        vals = M.sorted_spectrum(M.transfer_matrix(b2))
        assert abs(abs(vals[1]) - 1 / 9) < 1e-9

    def test_product_stays_product(self):
        b = M.block(M.product_mps(), 3)
        assert b.chi == 1 and b.tensor.shape[0] == 8

    def test_spectral_multiplicativity_random(self):
        rng = np.random.default_rng(42)
        for i in range(20):
            chi = int(rng.integers(2, 4))
            d = int(rng.integers(2, 4))
            m = M.random_normal_mps(d, chi, rng)
            q = int(rng.integers(2, 4))
            v1 = M.sorted_spectrum(M.transfer_matrix(m))
            vq = M.sorted_spectrum(M.transfer_matrix(M.block(m, q)))
            assert abs(abs(vq[1]) - abs(v1[1]) ** q) < 1e-8, i

    def test_cap(self):
        with pytest.raises(CapacityError):
            M.block(M.aklt_mps(), 40)


class TestFixedPoint:
    def test_aklt_q4_normalized(self):
        fp = M.rg_fixed_point_tensor(M.block(M.aklt_mps(), 4))
        tbb = M.mixed_transfer(fp.b.tensor, fp.b.tensor)
        for m_sites in (2, 4, 6):
            assert abs(np.trace(np.linalg.matrix_power(tbb, m_sites)) - 1) < 1e-9

    def test_tau_bb_idempotent_rank_one(self):
        fp = M.rg_fixed_point_tensor(M.block(M.aklt_mps(), 4))
        tb = fp.data.tau_bb_chain
        assert np.linalg.norm(tb @ tb - tb) < 1e-9
        assert np.linalg.matrix_rank(tb, tol=1e-10) == 1

    def test_idempotent_input_returns_itself(self):
        fp = M.rg_fixed_point_tensor(M.block(M.aklt_mps(), 4))
        fp2 = M.rg_fixed_point_tensor(fp.b)
        assert M.fidelity_deficit(fp.b, fp2.b, 4) < 1e-9

    def test_chi_one_phase_tensor(self):
        ph = M.product_mps([1 / np.sqrt(2), 1j / np.sqrt(2)])
        fp = M.rg_fixed_point_tensor(M.block(ph, 2))
        assert M.fidelity_deficit(M.block(ph, 2), fp.b, 3) < 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            M.rg_fixed_point_tensor(M.block(M.aklt_mps(), 1))

    def test_random_normal_tensors(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = M.random_normal_mps(2, 2, rng)
            fp = M.rg_fixed_point_tensor(M.block(m, 4))
            tb = fp.data.tau_bb_chain
            assert np.linalg.norm(tb @ tb - tb) < 1e-8


class TestDeficit:
    def test_self_overlap(self):
        # B = A: deficit reduces to |<phi|phi> - 1| of the finite chain
        aklt4 = M.block(M.aklt_mps(), 4)
        val = M.fidelity_deficit(aklt4, aklt4, 3)
        t = M.transfer_matrix(aklt4)
        norm2 = np.trace(np.linalg.matrix_power(t, 3))
        assert abs(val - abs(norm2 - 1)) < 1e-12

    def test_matches_dense_oracle(self):
        aklt = M.aklt_mps()
        for (q, m_sites) in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]:
            bq = M.block(aklt, q)
            fp = M.rg_fixed_point_tensor(bq)
            d_tm = M.fidelity_deficit(bq, fp.b, m_sites)
            d_or = abs(M.raw_overlap(bq, fp.b, m_sites) - 1)
            assert abs(d_tm - d_or) < 1e-8, (q, m_sites)

    def test_product_zero(self):
        p2 = M.block(M.product_mps(), 2)
        assert M.fidelity_deficit(p2, p2, 4) < 1e-12

    def test_transfer_only_route(self):
        # bound_report's chi^2-sized deficit equals the one read off the
        # blocked tensor and its fixed point, and both refuse the same q:
        # those where d^q < chi^2 leaves the blocked tau_AA rank-deficient
        rng = np.random.default_rng(5)
        cases = [
            ("aklt", M.aklt_mps(), range(1, 13)),
            ("cluster", M.canonicalize(M.cluster_mps()).blocks[0][1], range(1, 7)),
            ("product", M.product_mps(), range(1, 5)),
        ] + [
            (f"random{d}x{chi}", M.random_normal_mps(d, chi, rng), range(1, 7))
            for d, chi in [(2, 2), (3, 2), (2, 3), (4, 3)]
        ]
        for name, tensor, qs in cases:
            for q in qs:
                bq = M.block(tensor, q)
                if tensor.d**q < tensor.chi**2:
                    with pytest.raises(ValueError):
                        M.rg_fixed_point_tensor(bq)
                    with pytest.raises(ValueError):
                        M.bound_report(tensor, q, 4)
                    continue
                fp = M.rg_fixed_point_tensor(bq)
                for m_sites in (2, 6):
                    d1 = M.fidelity_deficit(bq, fp.b, m_sites)
                    d2 = M.bound_report(tensor, q, m_sites).measured_deficit
                    assert abs(d1 - d2) < 1e-13, (name, q, m_sites)


class TestStateFromMPS:
    def test_ghz_tensor(self):
        st = M.state_from_mps(M.ghz_mps(), 3)
        assert abs(abs(st.amps[0]) - 1 / np.sqrt(2)) < 1e-12
        assert abs(abs(st.amps[7]) - 1 / np.sqrt(2)) < 1e-12

    def test_product(self):
        st = M.state_from_mps(M.product_mps(), 5)
        assert abs(st.amps[0] - 1) < 1e-12

    def test_aklt_vs_recursive_contraction(self):
        t = M.aklt_mps().tensor
        chi = 2

        def rec(tensors):
            if len(tensors) == 1:
                return tensors[0]
            mid = len(tensors) // 2
            l, r = rec(tensors[:mid]), rec(tensors[mid:])
            return np.einsum("aij,bjk->abik", l, r).reshape(-1, chi, chi)

        amps = np.trace(rec([t] * 6), axis1=1, axis2=2)
        st = M.state_from_mps(M.aklt_mps(), 6)
        assert abs(abs(np.vdot(amps / np.linalg.norm(amps), st.amps)) - 1) < 1e-12

    def test_cluster_state_identity(self):
        # the cluster tensor reproduces prod CZ |+...+> on a ring
        n = 5
        st = M.state_from_mps(M.cluster_mps(), n)
        from qccc.statevector import PureState, QuditRegister

        ref = PureState.product(QuditRegister([(i, "s", 2) for i in range(n)]))
        for i in range(n):
            ref.apply_named("H", [(i, "s")])
        for i in range(n):
            ref.apply_named("CZ", [(i, "s"), ((i + 1) % n, "s")])
        assert abs(abs(np.vdot(st.amps, ref.amps)) - 1) < 1e-10


class TestSqrtLemma:
    def test_operator_monotone_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x, y = a @ a.conj().T, b @ b.conj().T
            lhs = np.linalg.norm(_sqrt_psd(x) - _sqrt_psd(y), 2)
            rhs = math.sqrt(np.linalg.norm(x - y, 2))
            assert lhs <= rhs + 1e-9


class TestBoundReport:
    def test_aklt_alpha(self):
        rep = M.bound_report(M.aklt_mps(), 4, 6)
        assert abs(rep.alpha - math.log(3)) < 1e-9
        assert rep.delta_q == rep.epsilon_q / 6

    def test_epsilon_ratio_approaches_gap(self):
        aklt = M.aklt_mps()
        r1 = M.bound_report(aklt, 40, 6)
        r2 = M.bound_report(aklt, 42, 6)
        chi = 2
        expect = ((42 / 40) ** ((chi * chi - 1) / 2)) * math.exp(-r1.alpha)
        assert abs(r2.epsilon_q / r1.epsilon_q - expect) < 1e-12
        # the prefactor ratio tends to one, so the ratio tends to e^-alpha
        gap = math.exp(-r1.alpha)
        dev_small = abs(r2.epsilon_q / r1.epsilon_q - gap)
        r3 = M.bound_report(aklt, 400, 6)
        r4 = M.bound_report(aklt, 402, 6)
        dev_large = abs(r4.epsilon_q / r3.epsilon_q - gap)
        assert dev_large < dev_small / 5
        assert dev_large < 5e-3

    def test_measured_below_envelope(self):
        aklt = M.aklt_mps()
        for q in (4, 6, 8):
            rep = M.bound_report(aklt, q, 6)
            assert rep.measured_deficit < rep.epsilon_q

    def test_envelope_nonvacuous_regime(self):
        rep = M.bound_report(M.aklt_mps(), 46, 6)
        assert rep.epsilon_q < 1 and rep.envelope_holds

    def test_log_slope(self):
        aklt = M.aklt_mps()
        qs = np.array([4, 6, 8, 10, 12])
        defs = np.array([M.bound_report(aklt, int(q), 6).measured_deficit for q in qs])
        slope = np.polyfit(qs, np.log(defs), 1)[0]
        assert slope <= -math.log(3) / 2 * (1 - 0.15)

    def test_one_fixed_point_solve_per_report(self, monkeypatch):
        # the envelope and the measured deficit share one transfer matrix and
        # one set of fixed points
        aklt = M.aklt_mps()
        calls = {"transfer_matrix": 0, "transfer_fixed_points": 0, "fixed_point_data": 0}
        for name in calls:

            def counted(*a, fn=getattr(M, name), name=name, **k):
                calls[name] += 1
                return fn(*a, **k)

            monkeypatch.setattr(M, name, counted)
        reps = [M.bound_report(aklt, q, 6) for q in range(4, 13)]
        assert len(reps) == 9 and calls == dict.fromkeys(calls, 9)

    def test_chi_one_degenerate(self):
        rep = M.bound_report(M.product_mps(), 3, 4)
        assert rep.alpha == math.inf and rep.epsilon_q == 0.0
        assert rep.measured_deficit < 1e-12

    def test_not_normal_rejected(self):
        with pytest.raises(ValueError):
            M.bound_report(M.MPS(M.ghz_mps().tensor), 2, 4)

    def test_normal_tensor_with_subleading_near_one(self):
        # |lambda| = 1, 0.70, 0.70, 0.67: the subleading eigenvalues lie within
        # 0.5 of 1 but are separated from the leading one by the gap
        t = M.random_normal_mps(2, 2, np.random.default_rng(39))
        assert isinstance(M.bound_report(t, 4, 6), M.BoundReport)

    def test_aklt_gauge_condition_number_unchanged(self):
        c_v = M.gauge_condition_number(M.transfer_matrix(M.aklt_mps()))
        assert abs(c_v - 1.0000000000000002) < 1e-12


class TestFixtures:
    def test_files_match_builders(self):
        for name in M.FIXTURES:
            a = M.fixture(name)
            b = M.load_fixture_file(name)
            assert np.allclose(a.tensor, b.tensor), name

    def test_save_load_round_trip(self):
        rng = np.random.default_rng(2)
        m = M.random_normal_mps(2, 2, rng)
        m2 = M.MPS.load(m.save())
        assert np.allclose(m.tensor, m2.tensor)


class TestPipeline:
    def test_product_trivial(self):
        res = M.preparation_pipeline(M.product_mps(), 1, 4)
        out = enumerate_branches(res.protocol)
        assert out.verdict == "DETERMINISTIC" and out.min_fidelity > 1 - 1e-9
        assert res.report.measured_deficit < 1e-12

    def test_ghz_tensor_exact(self):
        res = M.preparation_pipeline(M.ghz_mps(), 2, 6)
        out = enumerate_branches(res.protocol)
        assert out.verdict == "DETERMINISTIC"
        assert out.min_fidelity > 1 - 1e-9
        assert len(out.reports) == 4  # 2-block label measurements on M-1 = 2 sites

    def test_aklt_q4(self):
        res = M.preparation_pipeline(M.aklt_mps(), 4, 8)
        out = enumerate_branches(res.protocol)
        assert out.verdict == "DETERMINISTIC"
        assert out.min_fidelity >= 1 - res.report.epsilon_q
        # the true gap to AKLT_8 is the finite-size normalization + deficit
        assert out.min_fidelity > 0.999
        assert res.writer_defect < 1e-10

    def test_aklt_q4_history_materialises_at_most_3_to_the_8(self, monkeypatch):
        # the product entries start as factors, so the tensor never holds
        # more than the 8 spin-1 sites
        sizes = []
        apply_layer = cx.apply_layer

        def recording(state, layer):
            apply_layer(state, layer)
            sizes.append(state._t.size)

        monkeypatch.setattr(cx, "apply_layer", recording)
        out = enumerate_branches(M.preparation_pipeline(M.aklt_mps(), 4, 8).protocol)
        assert out.verdict == "DETERMINISTIC" and len(out.reports) == 16
        assert abs(out.min_fidelity - 0.9995429616087764) < 1e-12
        assert len(sizes) > 0 and max(sizes) <= 3**8

    def test_aklt_q2(self):
        res = M.preparation_pipeline(M.aklt_mps(), 2, 8)
        out = enumerate_branches(res.protocol)
        assert out.verdict == "DETERMINISTIC"
        # q=2 is far from the fixed point; fidelity is lower but well-defined
        assert out.min_fidelity > 0.9

    def test_circuit_validates(self):
        res = M.preparation_pipeline(M.aklt_mps(), 4, 8)
        assert res.protocol.validate_circuit() == []
        res2 = M.preparation_pipeline(M.ghz_mps(), 2, 6)
        assert res2.protocol.validate_circuit() == []

    def test_writer_cap_before_the_work(self):
        # AKLT q=8 needs a 26,244 x 26,244 writer: refused before any block is built
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            M.preparation_pipeline(M.aklt_mps(), 8, 16)
        assert time.perf_counter() - t0 < 1.0

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError):
            M.preparation_pipeline(M.aklt_mps(), 3, 8)

    def test_cluster_pipeline(self):
        res = M.preparation_pipeline(M.cluster_mps(), 3, 9)
        out = enumerate_branches(res.protocol)
        assert out.verdict == "DETERMINISTIC"
        assert out.min_fidelity > 0.99

    @pytest.mark.parametrize(
        "tensor, q, lengths, parent_depth",
        [(M.ghz_mps, 2, (6, 8, 10, 12, 16), 10), (M.aklt_mps, 4, (8, 12), 32)],
        ids=["ghz-q2", "aklt-q4"],
    )
    def test_staged_depth_independent_of_length(self, tensor, q, lengths, parent_depth):
        # the same stage of every block shares its layers; parent_depth is the
        # depth at the smallest length before the blocks were merged
        depths = set()
        for n in lengths:
            res = M.preparation_pipeline(tensor(), q, n)
            assert res.protocol.validate_circuit() == []
            depths.add(res.depth)
        assert len(depths) == 1 and depths.pop() <= parent_depth

    @pytest.mark.parametrize(
        "tensor, q, n",
        [(lambda: M.random_normal_mps(4, 2, np.random.default_rng(3)), 1, 3), (M.aklt_mps, 2, 4)],
        ids=["random-q1", "aklt-q2"],
    )
    def test_staged_writer_reads_the_bond(self, tensor, q, n):
        # follow what each entry holds through the staged circuit: a fresh
        # ancilla holds "0", a local op or entangling gate leaves its own mark
        # on its entries, a swap exchanges contents. The writer reads
        # (L, R, sites); the bond writer is the op on Lp.
        res = M.preparation_pipeline(tensor(), q, n)
        held = {(i, "s"): "0" for i in range(n)}
        bond_marks, writer_inputs = set(), []
        for layer in res.protocol.circuit.layers:
            items = layer.gates if isinstance(layer, cx.GateLayer) else layer.actions
            for item in items:
                kind = getattr(item, "kind", "op")
                if kind == "add":
                    held[item.entries[0]] = "0"
                elif kind == "remove":
                    del held[item.entries[0]]
                elif len(item.entries) == 2 and _is_swap(item.spec):
                    a, b = item.entries
                    held[a], held[b] = held[b], held[a]
                else:
                    slots = [slot for _, slot in item.entries]
                    if "s" in slots:
                        writer_inputs.append(held[item.entries[slots.index("L") + 1]])
                    if "Lp" in slots:
                        bond_marks.add(item.entries)
                    for e in item.entries:
                        held[e] = item.entries
        assert len(writer_inputs) == n // q
        assert all(mark in bond_marks for mark in writer_inputs)
        assert not [e for e in held if e[1] == "R"]


def _is_swap(spec) -> bool:
    if not isinstance(spec, np.ndarray):
        return list(spec) == [("SWAP", (0, 1))]
    dim = math.isqrt(spec.shape[0])
    return dim * dim == spec.shape[0] and np.array_equal(spec, gates.swap_d(dim, dim))


def test_import_leaves_scipy_unloaded():
    """scipy is imported by the two mps functions that use it, not by `import qccc`."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, qccc; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
