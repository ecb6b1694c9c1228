import json
import sys
import time

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from qccc.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_NOT_NORMAL,
    EXIT_OK,
    _write_report,
    main,
)
from qccc.locc import BranchCapExceeded, BranchRows, ProtocolError
from qccc.stabilizer import InternalError

from oracles import save_mps


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def outcome_lines(text):
    """The lines of a report's `outcomes` column, one per row."""
    lines = text.splitlines()
    if '    "outcomes": [],' in lines:
        return []
    start = lines.index('    "outcomes": [') + 1
    return lines[start : lines.index("    ],", start)]


def assert_columns(branches, rows):
    """The parsed `branches` columns equal the BranchRows arrays bit for bit."""
    assert list(branches) == ["tags", "outcomes", "probability", "fidelity"]
    assert branches["tags"] == list(rows.tags)
    outcomes = np.array(branches["outcomes"], dtype=np.uint64).reshape(rows.outcomes.shape)
    assert len(branches["outcomes"]) == len(rows) and np.array_equal(outcomes, rows.outcomes)
    for key, column in (("probability", rows.probabilities), ("fidelity", rows.fidelities)):
        parsed = np.array(branches[key], dtype=np.float64)
        assert np.array_equal(parsed.view(np.uint64), column.astype(np.float64).view(np.uint64)), key


class TestPrepare:
    def test_ghz6_enumerate(self, tmp_path):
        code, rep = run_cli(
            ["prepare", "--protocol", "ghz", "--n", "6", "--mode", "enumerate"], tmp_path
        )
        assert code == EXIT_OK
        assert rep["verdict"] == "DETERMINISTIC"
        assert rep["n_branches"] == 32
        assert rep["min_fidelity"] > 1 - 1e-9
        assert rep["depth"] == 2

    def test_w4_sampled(self, tmp_path):
        code, rep = run_cli(
            ["prepare", "--protocol", "w", "--n", "4", "--mode", "sample", "--seed", "7"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert rep["fidelity"] > 1 - 1e-9

    def test_invalid_schedule_fails_the_run(self, tmp_path, monkeypatch):
        # a CZ between sites 0 and 2 leaves |0000> as it is, so the run
        # passes, but the schedule is not nearest-neighbor
        from qccc import circuits as cx
        from qccc import protocols
        from qccc.locc import ApplyLayers

        real = protocols.ghz_protocol

        def far_gate(n):
            proto, target = real(n)
            gate = cx.Gate(((0, "s"), (2, "s")), [("CZ", (0, 1))])
            proto.program.insert(0, ApplyLayers([cx.GateLayer([gate])]))
            return proto, target

        monkeypatch.setattr(protocols, "ghz_protocol", far_gate)
        code, rep = run_cli(["prepare", "--protocol", "ghz", "--n", "4", "--mode", "sample", "--seed", "1"], tmp_path)
        assert code == EXIT_FAIL and rep["fidelity"] > 1 - 1e-9
        assert rep["circuit_valid"] is False and rep["violations"]

    def test_sample_requires_seed(self):
        code = main(["prepare", "--protocol", "ghz", "--n", "4", "--mode", "sample"])
        assert code == EXIT_CONFIG

    def test_ghz_tableau_sampled(self, tmp_path):
        code, rep = run_cli(
            [
                "prepare",
                "--protocol",
                "ghz",
                "--n",
                "16",
                "--backend",
                "tableau",
                "--mode",
                "sample",
                "--seed",
                "3",
            ],
            tmp_path,
        )
        assert code == EXIT_OK and rep["stabilizer_match"]

    def test_non_clifford_on_tableau_is_config_error(self, capsys):
        code = main(["prepare", "--protocol", "w", "--n", "3", "--backend", "tableau"])
        assert code == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol, n, backend, engine, rows",
        [
            ("ghz", 4, "dense", "frames", 8),
            ("ghz", 4, "dense", "dfs", 8),  # every by-product check made to fail
            ("tc", 4, "dense", "frames", 128),  # its one correction reads the tags of many runs
            ("ghz", 4, "tableau", "frames", 8),
        ],
        ids=["dense-frames", "dense-dfs", "dense-tc-frames", "tableau-frames"],
    )
    def test_enumerate_reports_its_engine(self, tmp_path, monkeypatch, protocol, n, backend, engine, rows):
        """A "dfs" report also says why the program fell back; a "frames" one has no such field."""
        from qccc import locc

        if engine == "dfs":
            monkeypatch.setattr(locc, "BYPRODUCT_TOL", -1.0)
        code, rep = run_cli(
            ["prepare", "--protocol", protocol, "--n", str(n), "--backend", backend, "--mode", "enumerate"],
            tmp_path,
        )
        assert code == EXIT_OK and rep["engine"] == engine and rep["n_branches"] == rows
        assert rep.get("fallback", "").startswith("check failed at tag k1, residual") == (engine == "dfs")

    def test_tc8_tableau_enumeration_stops_at_the_cap(self, capsys):
        t0 = time.perf_counter()
        code = main(["prepare", "--protocol", "tc", "--n", "8", "--backend", "tableau", "--mode", "enumerate"])
        assert code == EXIT_CAPACITY and time.perf_counter() - t0 < 10.0
        assert "2147483648 records" in capsys.readouterr().err

    def test_internal_error_exit(self, monkeypatch, capsys):
        from qccc.stabilizer import StabilizerTableau

        real = StabilizerTableau.measure_remove

        def corrupted(self, q, **kwargs):
            self._x[q] &= ~self._sm  # no stabilizer acts on q
            self._z[q] &= ~self._sm
            return real(self, q, **kwargs)

        monkeypatch.setattr(StabilizerTableau, "measure_remove", corrupted)
        argv = ["prepare", "--protocol", "ghz", "--n", "3", "--backend", "tableau", "--mode", "sample"]
        code = main(argv + ["--seed", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_FAIL
        assert err == "internal error: no stabilizer acts on the qubit\n"

    def test_report_deterministic_given_seed(self, tmp_path):
        _, rep1 = run_cli(
            ["prepare", "--protocol", "ghz", "--n", "5", "--mode", "sample", "--seed", "11"],
            tmp_path,
            "a.json",
        )
        _, rep2 = run_cli(
            ["prepare", "--protocol", "ghz", "--n", "5", "--mode", "sample", "--seed", "11"],
            tmp_path,
            "b.json",
        )
        rep1.pop("timings")
        rep2.pop("timings")
        c1 = rep1["config"].pop("out")
        c2 = rep2["config"].pop("out")
        assert rep1 == rep2

    def test_rg_spec_file(self, tmp_path):
        spec = {
            "B": 2,
            "alphas": [[1 / np.sqrt(2), 0], [1 / np.sqrt(2), 0]],
            "bond_state": [[1 / np.sqrt(2), 0], [0, 0], [0, 0], [1 / np.sqrt(2), 0]],
            "N": 2,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, rep = run_cli(
            ["prepare", "--protocol", "rg", "--n", "2", "--spec", str(path)], tmp_path
        )
        assert code == EXIT_OK and rep["verdict"] == "DETERMINISTIC"


    def test_w_enumerate_reports_merges(self, tmp_path):
        code, rep = run_cli(
            ["prepare", "--protocol", "w", "--n", "4", "--mode", "enumerate"], tmp_path
        )
        assert code == EXIT_OK
        assert rep["verdict"] == "DETERMINISTIC" and rep["n_branches"] == 256
        assert rep["engine"] == "frames" and "n_merged" not in rep and "merge_error" not in rep
        lines = outcome_lines((tmp_path / "report.json").read_text())
        assert [json.loads(line.rstrip(",")) for line in lines] == rep["branches"]["outcomes"]
        assert len(lines) == len(rep["branches"]["probability"]) == len(rep["branches"]["fidelity"]) == 256

    @pytest.mark.parametrize("n_rows", [0, 1, 3])
    def test_branch_rows_one_per_line(self, tmp_path, n_rows):
        k = np.arange(n_rows)
        outcomes = np.stack([k, np.ones(n_rows, dtype=int)], axis=1).astype(np.uint8)
        rows = BranchRows(("t0s", "t0p"), outcomes, np.full((n_rows, 2), 0.5), 0.1 * k, np.full(n_rows, 1 - 1e-16))
        report = {"version": "0", "config": {"branches": [1, 2]}, "verdict": "DETERMINISTIC"}
        out = tmp_path / "report.json"
        _write_report(dict(report, branches=rows), str(out))
        text = out.read_text()
        parsed = json.loads(text)
        assert_columns(parsed.pop("branches"), rows)
        assert parsed == report
        assert outcome_lines(text) == [f"      [{i}, 1]" + ("," if i < n_rows - 1 else "") for i in k]

    def test_stdout_matches_the_out_file(self, tmp_path, capsys):
        argv = ["prepare", "--protocol", "w", "--n", "3", "--mode", "enumerate"]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        code, rep = run_cli(argv, tmp_path)
        assert code == EXIT_OK and rep["config"].pop("out") == str(tmp_path / "report.json")
        from_stdout = json.loads(printed)
        assert from_stdout.pop("timings").keys() == rep.pop("timings").keys()
        assert from_stdout == rep and rep["n_branches"] == 64
        assert outcome_lines(printed) == outcome_lines((tmp_path / "report.json").read_text())


class TestRowWriter:
    """The hand-written columns parse back to the BranchRows bit for bit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--protocol", "ghz", "--n", "5"],
            ["--protocol", "ghz", "--n", "6", "--backend", "tableau"],
            ["--protocol", "w", "--n", "3"],
            ["--protocol", "rg", "--n", "3"],
        ],
    )
    def test_reports_match_the_encoder(self, tmp_path, argv):
        from qccc.cli import _build_protocol, build_parser
        from qccc.locc import enumerate_branches

        code, rep = run_cli(["prepare", *argv, "--mode", "enumerate"], tmp_path)
        assert code == EXIT_OK and rep["n_branches"] == len(rep["branches"]["outcomes"]) > 1
        args = build_parser().parse_args(["prepare", *argv])
        assert_columns(rep["branches"], enumerate_branches(_build_protocol(args)[0], backend=args.backend).reports)

    def test_crafted_rows_match_the_encoder(self, tmp_path):
        tag = 'a"b\\c\n\u00e9\u2028'  # a quote, a backslash, a newline and two non-ASCII characters
        big, inf, nan = 2**64 - 1, float("inf"), float("nan")  # big: the largest uint64 outcome
        tables = [
            ((tag, "k1"), [[1, 0], [2, 1], [0, big], [1, 0]], [0.25, 5e-324, inf, 1e16], [1 - 2**-52, nan, -0.0, 0.0]),
            ((), [[]], [-inf], [1.0]),  # a row with no outcomes
        ]
        texts = []
        for tags, ks, probs, fids in tables:
            outcomes = np.array(ks, dtype=np.uint64).reshape(len(probs), len(tags))
            rows = BranchRows(tags, outcomes, np.zeros(outcomes.shape), np.array(probs), np.array(fids))
            out = tmp_path / "report.json"
            _write_report({"branches": rows, "verdict": "NOT_DETERMINISTIC"}, str(out))
            texts.append(out.read_text())
            assert_columns(json.loads(texts[-1])["branches"], rows)
        assert "NaN" in texts[0] and "Infinity" in texts[0] and "-Infinity" in texts[1]
        assert outcome_lines(texts[1]) == ["      []"]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=hst.data())
    def test_random_rows_round_trip(self, tmp_path, data):
        # JSON has one NaN, so the canonical NaN is the one drawn; the edge
        # values are drawn often, so that one column holds several of them
        edges = [0.0, -0.0, 5e-324, float("inf"), float("-inf"), float("nan")]
        floats = hst.sampled_from(edges) | hst.floats(allow_nan=False)
        tags = data.draw(hst.lists(hst.text(hst.sampled_from('"\\\n\u2028\u00e9') | hst.characters(), max_size=6), max_size=4))
        n_rows = data.draw(hst.integers(0, 6))
        outcomes = data.draw(hnp.arrays(np.uint64, (n_rows, len(tags))))
        probs, fids = (data.draw(hnp.arrays(np.float64, n_rows, elements=floats)) for _ in range(2))
        rows = BranchRows(tuple(tags), outcomes, np.zeros(outcomes.shape), probs, fids)
        out = tmp_path / "report.json"
        _write_report({"branches": rows, "n_branches": n_rows}, str(out))
        text = out.read_text()
        assert_columns(json.loads(text)["branches"], rows)
        assert len(outcome_lines(text)) == n_rows


class TestMps:
    def test_aklt_sweep_monotone(self, tmp_path):
        code, rep = run_cli(
            ["mps", "--fixture", "aklt", "--q-list", "2,4,6,8", "--m-sites", "6"], tmp_path
        )
        assert code == EXIT_OK
        defs = [row["measured_deficit"] for row in rep["bound_sweep"]]
        assert all(a > b for a, b in zip(defs, defs[1:]))

    def test_product_zero_deficit(self, tmp_path):
        code, rep = run_cli(["mps", "--fixture", "product", "--q-list", "2,3"], tmp_path)
        assert code == EXIT_OK
        assert all(row["measured_deficit"] < 1e-10 for row in rep["bound_sweep"])

    def test_deficit_above_envelope_fails_without_raising(self, tmp_path, monkeypatch):
        from qccc import mps

        # for AKLT the envelope is vacuous (epsilon_q >= 1) up to q = 18 and
        # below 1 from q = 19; at q = 22 it is about 0.21
        monkeypatch.setattr(mps, "_deficit", lambda *a, **k: 1.0)
        rep = mps.bound_report(mps.aklt_mps(), 22, 6)
        assert rep.epsilon_q < 1 and rep.envelope_holds is False
        code, out = run_cli(["mps", "--fixture", "aklt", "--q-list", "4,22"], tmp_path)
        assert code == EXIT_FAIL and out["passed"] is False
        assert [row["envelope_holds"] for row in out["bound_sweep"]] == [None, False]

    def test_ghz_requires_allow_blocks(self, tmp_path):
        code, rep = run_cli(["mps", "--fixture", "ghz"], tmp_path)
        assert code == EXIT_NOT_NORMAL

    def test_ghz_with_allow_blocks(self, tmp_path):
        code, rep = run_cli(["mps", "--fixture", "ghz", "--allow-blocks"], tmp_path)
        assert code == EXIT_OK
        assert len(rep["blocks"]) == 2

    @pytest.mark.parametrize("fixture", ["ghz", "w_chi2"])
    def test_reducible_sweep_runs_with_allow_blocks(self, tmp_path, fixture):
        code, rep = run_cli(["mps", "--fixture", fixture, "--allow-blocks", "--q-list", "2,4"], tmp_path)
        assert code == EXIT_OK and len(rep["blocks"]) == 2
        assert [row["q"] for row in rep["bound_sweep"]] == [2, 4]

    def test_reducible_sweep_reports_the_worst_block(self, tmp_path, monkeypatch):
        from qccc import mps as M

        # a heavier product block (chi = 1, epsilon_q = 0) comes first and an
        # AKLT block (chi = 2) second: the sweep reports the AKLT block, the
        # one with the larger epsilon_q
        tensor = np.zeros((3, 3, 3), dtype=complex)
        tensor[:, :2, :2] = M.aklt_mps().tensor
        tensor[0, 2, 2] = 2.0
        path = tmp_path / "tensor.json"
        path.write_text(save_mps(M.MPS(tensor)))
        cf = M.canonicalize(M.MPS(tensor))
        assert [blk.chi for _, blk in cf.blocks] == [1, 2]
        code, rep = run_cli(["mps", "--file", str(path), "--allow-blocks", "--q-list", "4,22"], tmp_path)
        assert code == EXIT_OK
        assert rep["bound_sweep"] == [M.bound_report(cf.blocks[1][1], q, 6).to_dict() for q in (4, 22)]
        # a deficit above the envelope in that block fails the run
        monkeypatch.setattr(M, "_deficit", lambda *a, **k: 1.0)
        code, rep = run_cli(["mps", "--file", str(path), "--allow-blocks", "--q-list", "4,22"], tmp_path)
        assert code == EXIT_FAIL and rep["passed"] is False
        assert [row["envelope_holds"] for row in rep["bound_sweep"]] == [None, False]

    def test_pipeline(self, tmp_path):
        code, rep = run_cli(
            ["mps", "--fixture", "ghz", "--allow-blocks", "--pipeline", "--q", "2", "--n", "6"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert rep["pipeline"]["verdict"] == "DETERMINISTIC"
        assert rep["pipeline"]["min_fidelity"] > 1 - 1e-9
        assert (rep["pipeline"]["depth"], rep["pipeline"]["rounds"]) == (4, 2)
        assert "n_merged" not in rep["pipeline"] and "merge_error" not in rep["pipeline"]

    def test_bound_sweep_blocks_nothing(self, tmp_path):
        # q = 30 would be a 2^30 x 4 blocked tensor; the deficit needs only T^30
        code, rep = run_cli(["mps", "--fixture", "cluster", "--q-list", "30"], tmp_path)
        assert code == EXIT_OK
        assert rep["bound_sweep"][0]["measured_deficit"] < 1e-12

    def test_file_input(self, tmp_path):
        from qccc import mps as M

        path = tmp_path / "tensor.json"
        path.write_text(save_mps(M.aklt_mps()))
        code, rep = run_cli(["mps", "--file", str(path), "--q-list", "4"], tmp_path)
        assert code == EXIT_OK


class TestDiagnose:
    def test_prop1_ghz(self, tmp_path):
        code, rep = run_cli(
            ["diagnose", "--check", "prop1", "--target", "ghz", "--n", "8", "--depth-claim", "1"],
            tmp_path,
        )
        assert code == EXIT_OK
        assert abs(rep["factorization"]["residual"] - 1.0) < 1e-9
        assert rep["factorization"]["violates_depth_claim"]

    def test_arealaw_ghz_protocol(self, tmp_path):
        code, rep = run_cli(
            ["diagnose", "--check", "arealaw", "--protocol", "ghz", "--n", "10"], tmp_path
        )
        assert code == EXIT_OK and rep["arealaw"]["passes"]

    def test_arealaw_without_protocol_names_it(self, capsys):
        assert main(["diagnose", "--check", "arealaw"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: --check arealaw needs --protocol\n"

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_cj_small_n_names_n(self, n, capsys):
        assert main(["diagnose", "--check", "cj", "--target", "ghz", "--n", str(n)]) == EXIT_CONFIG
        assert capsys.readouterr().err.endswith(f"got n = {n}\n")

    def test_cj_ghz(self, tmp_path):
        code, rep = run_cli(
            ["diagnose", "--check", "cj", "--target", "ghz", "--n", "3", "--seed", "5"], tmp_path
        )
        assert code == EXIT_OK
        assert rep["clifford_table"] and rep["deterministic"]
        assert rep["min_fidelity"] > 1 - 1e-9

    def test_cj_ghz_large_n_claims_no_branches(self, tmp_path):
        code, rep = run_cli(
            ["diagnose", "--check", "cj", "--target", "ghz", "--n", "5", "--seed", "1"], tmp_path
        )
        assert code == EXIT_OK
        assert rep["branches_checked"] == 0
        assert rep["deterministic"] is None and rep["min_fidelity"] is None
        assert rep["clifford_table"] and rep["passed"]

    @pytest.mark.parametrize("seed_args,expected", [(["--seed", "0"], 0), ([], 1)])
    def test_arealaw_seed_reaches_audit(self, seed_args, expected, tmp_path, monkeypatch):
        from qccc import diagnostics

        seeds = []
        audit = diagnostics.area_law_audit

        def spy(*a, **kw):
            seeds.append(kw["seed"])
            return audit(*a, **kw)

        monkeypatch.setattr(diagnostics, "area_law_audit", spy)
        code, _ = run_cli(
            ["diagnose", "--check", "arealaw", "--protocol", "ghz", "--n", "4"] + seed_args, tmp_path
        )
        assert code == EXIT_OK and seeds == [expected]

    @pytest.mark.parametrize("seed_args,expected", [(["--seed", "0"], 0), ([], 1)])
    def test_cj_seed_reaches_rng(self, seed_args, expected, tmp_path, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            # only the CLI's own call: the library seeds other generators
            if sys._getframe(1).f_globals["__name__"] == "qccc.cli":
                seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        code, _ = run_cli(["diagnose", "--check", "cj", "--target", "ghz", "--n", "2"] + seed_args, tmp_path)
        assert code == EXIT_OK and seeds == [expected]

    @pytest.mark.parametrize("seed_args,expected", [(["--seed", "0"], 0), ([], 1)])
    @pytest.mark.parametrize("check", [["cj", "--target", "ghz", "--n", "2"], ["arealaw", "--protocol", "ghz", "--n", "4"]])
    def test_report_records_the_seed_used(self, check, seed_args, expected, tmp_path):
        code, rep = run_cli(["diagnose", "--check"] + check + seed_args, tmp_path)
        assert code == EXIT_OK and rep["config"]["seed"] == expected


class TestRangeAndShift:
    def test_shift_range_one(self, tmp_path):
        code, rep = run_cli(["range", "--shift", "--n", "6"], tmp_path)
        assert code == EXIT_OK and rep["range"] == 1

    def test_random_circuit_range(self, tmp_path):
        code, rep = run_cli(
            ["range", "--n", "8", "--depth", "2", "--seed", "4"], tmp_path
        )
        assert code == EXIT_OK and rep["range"] <= 2

    def test_depth_zero_is_the_identity(self, tmp_path):
        code, rep = run_cli(["range", "--n", "4", "--depth", "0", "--seed", "1"], tmp_path)
        assert code == EXIT_OK and rep["range"] == 0 and rep["depth"] == 0

    def test_shift_verification(self, tmp_path):
        code, rep = run_cli(["shift", "--n", "5"], tmp_path)
        assert code == EXIT_OK
        assert rep["depth"] == 3 and rep["circuit_valid"] is True
        assert rep["basis_states_checked"] == 32

    def test_shift_qutrits(self, tmp_path):
        code, rep = run_cli(["shift", "--n", "3", "--d", "3"], tmp_path)
        assert code == EXIT_OK and rep["basis_states_checked"] == 27


class TestFailures:
    """Every failure exits through one row of the failure table with one
    stderr line and no traceback."""

    RG = ["prepare", "--protocol", "rg", "--n", "3", "--spec"]
    AREALAW = ["diagnose", "--check", "arealaw", "--protocol", "ghz", "--n", "6", "--rank-tol"]
    CASES = {
        "arealaw_rank_tol_1": (AREALAW + ["1"], None, EXIT_CONFIG),
        "arealaw_rank_tol_nan": (AREALAW + ["nan"], None, EXIT_CONFIG),
        "arealaw_rank_tol_negative": (AREALAW + ["-1"], None, EXIT_CONFIG),
        "tc_odd_n": (["prepare", "--protocol", "tc", "--n", "3"], None, EXIT_CONFIG),
        "ghz_n1": (["prepare", "--protocol", "ghz", "--n", "1"], None, EXIT_CONFIG),
        "cj_n0": (["diagnose", "--check", "cj", "--target", "ghz", "--n", "0"], None, EXIT_CONFIG),
        "cj_n1": (["diagnose", "--check", "cj", "--target", "ghz", "--n", "1"], None, EXIT_CONFIG),
        "bad_json": (RG + ["bad.json"], None, EXIT_CONFIG),
        "missing_key": (RG + ["no_key.json"], None, EXIT_CONFIG),
        "missing_spec": (RG + ["missing.json"], None, EXIT_CONFIG),
        "spec_is_a_directory": (RG + ["."], None, EXIT_CONFIG),
        "missing_file": (["mps", "--file", "missing.json"], None, EXIT_CONFIG),
        "missing_in": (["diagnose", "--check", "prop1", "--in", "missing.json"], None, EXIT_CONFIG),
        "out_in_missing_dir": (["shift", "--n", "3", "--out", "missing/r.json"], None, EXIT_CONFIG),
        "unitary_cap": (["range", "--n", "20", "--seed", "1"], None, EXIT_CAPACITY),
        "shift_unitary_cap": (["range", "--shift", "--n", "15"], None, EXIT_CAPACITY),
        "unitary_cap_dim_squared": (["range", "--n", "7", "--seed", "1"], "4096", EXIT_CAPACITY),
        "pipeline_writer_cap": (
            ["mps", "--fixture", "aklt", "--pipeline", "--q", "8", "--n", "16"],
            None,
            EXIT_CAPACITY,
        ),
        "pipeline_q0": (["mps", "--fixture", "aklt", "--pipeline", "--n", "4", "--q", "0"], None, EXIT_CONFIG),
        "range_negative_depth": (["range", "--n", "4", "--depth", "-1", "--seed", "1"], None, EXIT_CONFIG),
        "spec_is_a_list": (RG + ["list.json"], None, EXIT_CONFIG),
        "spec_alphas_not_pairs": (RG + ["not_pairs.json"], None, EXIT_CONFIG),
        "spec_b_not_an_integer": (RG + ["b_list.json"], None, EXIT_CONFIG),
        "amplitude_cap": (["prepare", "--protocol", "ghz", "--n", "16"], "4096", EXIT_CAPACITY),
        "mps_entries_not_pairs": (["mps", "--file", "flat_tensor.json"], None, EXIT_CONFIG),
        "mps_tensor_not_a_list": (["mps", "--file", "int_tensor.json"], None, EXIT_CONFIG),
        "mps_file_is_a_list": (["mps", "--file", "list.json"], None, EXIT_CONFIG),
        "state_amplitudes_not_pairs": (["diagnose", "--check", "prop1", "--in", "flat_state.json"], None, EXIT_CONFIG),
        "state_file_is_a_list": (["diagnose", "--check", "prop1", "--in", "list.json"], None, EXIT_CONFIG),
        "state_register_not_objects": (["diagnose", "--check", "prop1", "--in", "int_reg.json"], None, EXIT_CONFIG),
        "state_register_without_dim": (["diagnose", "--check", "prop1", "--in", "no_dim.json"], None, EXIT_CONFIG),
        "prop1_negative_depth_claim": (
            ["diagnose", "--check", "prop1", "--target", "w", "--n", "2", "--depth-claim", "-1"],
            None,
            EXIT_CONFIG,
        ),
        "usage_unknown_protocol": (["prepare", "--protocol", "nope"], None, EXIT_CONFIG),
        "usage_n_not_an_integer": (["prepare", "--protocol", "ghz", "--n", "x"], None, EXIT_CONFIG),
    }
    LABELS = {EXIT_CONFIG: "configuration error: ", EXIT_CAPACITY: "capacity exceeded: "}
    USAGE_LABEL = "qccc prepare: error: "  # argparse's line for the usage_ cases

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_path(self, case, tmp_path, monkeypatch, capsys):
        argv, max_amplitudes, expected = self.CASES[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "no_key.json").write_text(json.dumps({"alphas": [[1, 0]], "bond_state": [[1, 0]]}))
        (tmp_path / "list.json").write_text(json.dumps([1, 2]))
        (tmp_path / "not_pairs.json").write_text(json.dumps({"B": 2, "alphas": [1, 0], "bond_state": [[1, 0]]}))
        (tmp_path / "b_list.json").write_text(json.dumps({"B": [2], "alphas": [[1, 0]], "bond_state": [[1, 0]]}))
        (tmp_path / "flat_tensor.json").write_text(json.dumps({"d": 2, "chi": 1, "tensor": [[[1, 0]], [[0, 0]]]}))
        (tmp_path / "int_tensor.json").write_text(json.dumps({"tensor": 5}))
        register = [{"site": 0, "slot": "s", "dim": 2}]
        (tmp_path / "flat_state.json").write_text(json.dumps({"register": register, "amplitudes": [1, 0]}))
        (tmp_path / "int_reg.json").write_text(json.dumps({"register": [1], "amplitudes": [[1, 0]]}))
        no_dim = [{"site": 0, "slot": "s"}]
        (tmp_path / "no_dim.json").write_text(json.dumps({"register": no_dim, "amplitudes": [[1, 0], [0, 0]]}))
        if max_amplitudes:
            monkeypatch.setenv("QCCC_MAX_AMPLITUDES", max_amplitudes)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == expected
        label = self.USAGE_LABEL if case.startswith("usage_") else self.LABELS[expected]
        assert err.startswith(label) and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "exc, expected, line",
        [
            (BranchCapExceeded("cap"), EXIT_CAPACITY, "capacity exceeded: cap"),
            (ProtocolError("bad record"), EXIT_FAIL, "protocol error: bad record"),
            (InternalError("broken"), EXIT_FAIL, "internal error: broken"),
            (KeyError("B"), EXIT_CONFIG, "configuration error: 'B'"),
            (ZeroDivisionError("two\nlines"), EXIT_FAIL, "internal error: two lines"),
        ],
        ids=["branch_cap", "protocol", "internal", "key", "other"],
    )
    def test_table_rows(self, exc, expected, line, monkeypatch, capsys):
        from qccc import cli

        def fail(args, report):
            raise exc

        monkeypatch.setattr(cli, "cmd_shift", fail)
        assert main(["shift"]) == expected
        assert capsys.readouterr().err == line + "\n"


class TestGoldenState:
    def test_state_dump_golden(self, tmp_path):
        # the dense GHZ protocol output dumped to JSON is stable across runs
        from qccc.locc import run_sampled
        from qccc.protocols import ghz_protocol
        from qccc.statevector import PureState

        proto, _ = ghz_protocol(3)
        st, _ = run_sampled(proto, seed=5)
        text1 = st.dumps()
        st2, _ = run_sampled(proto, seed=5)
        assert st2.dumps() == text1
        reload = PureState.load(text1)
        assert reload.fidelity(st) > 1 - 1e-12
