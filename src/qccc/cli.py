"""Command-line front end: protocol runs, MPS sweeps, diagnostics, reports.

`main` runs every command: it parses the arguments, times the command, sets
the report's `passed` and `timings.total_s`, and writes the JSON report. Each
`cmd_x(args, report)` fills in its own fields and returns its exit code: 0 when
the certification passed, 1 when it failed, 4 for a non-normal tensor without
--allow-blocks (that report carries an `error` field).

A failure prints one stderr line, never a traceback, and exits through the
first matching row of `FAILURES`:

  BranchCapExceeded, CapacityError  3  capacity exceeded
  ProtocolError                     1  protocol error
  InternalError                     1  internal error (a broken invariant)
  ValueError, KeyError, OSError     2  configuration error (bad arguments or
                                       spec, an unreadable input file, an
                                       unwritable --out)
  any other exception               1  internal error

A usage error found by argparse exits 2 with argparse's own message.

`prepare --mode enumerate` reports hold the branch rows as columns: row i
is outcomes[i], probability[i] and fidelity[i], in depth-first order.

Sampling commands require an explicit --seed so reports are reproducible;
`diagnose`, whose random inputs only probe a certificate, defaults to seed 1.
Identical configurations produce identical reports except for the timing
fields. QCCC_MAX_AMPLITUDES (default 2^27) bounds every dense array, checked
before it is allocated: registers, dim^2 unitaries, blocked tensors and the
pipeline writer. Qubit `qccc range` reaches n = 13 at the default cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import circuits as cx
from . import gates, mps
from .lattice import Lattice
from .locc import DETERMINISM_TOL, BranchCapExceeded, ProtocolError, _resolve_target, enumerate_branches, run_sampled
from .stabilizer import InternalError
from .statevector import CapacityError, PureState, QuditRegister, RegionOperator, complex_pairs, pauli_on

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_NOT_NORMAL = 4

# (errors, exit code, stderr label): the first row that matches wins
FAILURES = (
    ((BranchCapExceeded, CapacityError), EXIT_CAPACITY, "capacity exceeded"),
    (ProtocolError, EXIT_FAIL, "protocol error"),
    (InternalError, EXIT_FAIL, "internal error"),
    ((ValueError, KeyError, OSError), EXIT_CONFIG, "configuration error"),
    (Exception, EXIT_FAIL, "internal error"),
)


class ConfigError(ValueError):
    pass


def _write_report(report: dict, out_path):
    """Indented JSON with sorted keys, except `branches`, a BranchRows, written
    as its columns: `tags` once, `outcomes` (a line per row, an integer per tag
    in `tags` order), `probability` and `fidelity`. They are written by hand, each
    distinct value once: the indented encoder is slow on thousands of rows."""
    rows = report.get("branches")
    text = json.dumps(report if rows is None else dict(report, branches=[]), indent=2, sort_keys=True)
    parts = [text, "\n"]
    if rows is not None:
        table = np.full((len(rows), len(rows.tags) + 2), "]", object)
        table[:, 0] = ",\n      ["
        for c in range(len(rows.tags)):
            table[:, c + 1] = _column_text(rows.outcomes[:, c], lambda k: (", " if c else "") + str(k))
        outcomes = f"[{''.join(table.ravel().tolist())[1:]}\n    ]" if len(rows) else "[]"
        p, f = (", ".join(_column_text(a, json.dumps).tolist()) for a in (rows.probabilities, rows.fidelities))
        head, tail = text.split('\n  "branches": []', 1)
        parts = [head, f'\n  "branches": {{\n    "tags": {json.dumps(list(rows.tags))},\n    "outcomes": {outcomes},',
                 f'\n    "probability": [{p}],\n    "fidelity": [{f}]\n  }}{tail}\n']
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _column_text(values: np.ndarray, write) -> np.ndarray:
    """An object array of write(v) for each value, called once per distinct
    value (by bit pattern, so -0.0 is not 0.0)."""
    distinct, at = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    return np.array([write(v) for v in distinct.view(values.dtype).tolist()], object)[at]


def _int_field(value, name: str) -> int:
    """A spec field that must be a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"spec field {name!r} must be an integer")
    return value


def _build_protocol(args):
    from . import protocols as P

    name = args.protocol
    if name == "ghz":
        return P.ghz_protocol(args.n)
    if name == "w":
        return P.w_protocol(args.n)
    if name == "tc":
        return P.toric_code_protocol(args.n)
    if name == "rg":
        if args.spec:
            raw = json.loads(Path(args.spec).read_text())
            if not isinstance(raw, dict):
                raise ConfigError("an RG spec must be a JSON object")
            spec = P.RGFixedPointSpec(
                B=_int_field(raw["B"], "B"),
                alphas=complex_pairs(raw["alphas"], "spec field 'alphas'"),
                bond_states=(
                    [complex_pairs(b, "spec field 'bond_states'") for b in raw["bond_states"]]
                    if "bond_states" in raw
                    else complex_pairs(raw["bond_state"], "spec field 'bond_state'")
                ),
                N=_int_field(raw.get("N", args.n), "N"),
                bond_dim=_int_field(raw.get("bond_dim", 2), "bond_dim"),
            )
        else:
            spec = P.RGFixedPointSpec(
                2, np.array([1.0, 1.0]) / np.sqrt(2.0), gates.bell_state(2), args.n
            )
        return P.rg_fixed_point_protocol(spec)
    raise ConfigError(f"unknown protocol {name!r}")


def _report_circuit(report: dict, circuit: cx.Circuit, register) -> bool:
    """Write the circuit's depth and validity (with any violations); True when valid."""
    report["depth"] = circuit.depth()
    violations = cx.validate(circuit, register)
    report["circuit_valid"] = not violations
    if violations:
        report["violations"] = [
            {"layer": v.layer, "sites": list(v.sites), "reason": v.reason} for v in violations
        ]
    return not violations


def cmd_prepare(args, report: dict) -> int:
    proto, _target = _build_protocol(args)
    if args.backend == "tableau" and not proto.clifford:
        raise ConfigError(f"protocol {proto.name!r} is not Clifford; use --backend dense")
    report["protocol"] = proto.name
    valid = _report_circuit(report, proto.schedule(), proto.register)
    ok = True
    if args.mode == "enumerate":
        res = enumerate_branches(proto, backend=args.backend)
        report["verdict"] = res.verdict
        report["n_branches"] = len(res.reports)
        report["min_fidelity"] = res.min_fidelity
        report["max_fidelity"] = res.max_fidelity
        report["total_probability"] = res.total_probability()
        report["engine"] = res.engine
        if res.fallback is not None:
            report["fallback"] = res.fallback
        report["branches"] = res.reports
        ok = res.deterministic and res.min_fidelity >= 1 - DETERMINISM_TOL
    else:
        if args.seed is None:
            raise ConfigError("sample mode requires --seed")
        state, record = run_sampled(proto, seed=args.seed, backend=args.backend)
        report["outcomes"] = [[t, k] for t, k, _ in record.outcomes]
        target = _resolve_target(proto, state, "protocol")
        if target is not None:
            fid = state.fidelity(target)  # 1.0 or 0.0 on the tableau
            if args.backend == "dense":
                report["fidelity"] = fid
            else:
                report["stabilizer_match"] = fid == 1.0
            ok = fid >= 1 - DETERMINISM_TOL
    return EXIT_OK if ok and valid else EXIT_FAIL


def cmd_mps(args, report: dict) -> int:
    if args.fixture:
        tensor = mps.fixture(args.fixture)
    elif args.file:
        tensor = mps.MPS.load(Path(args.file).read_text())
    else:
        raise ConfigError("provide --fixture or --file")
    cf = mps.canonicalize(tensor)
    report["blocks"] = [
        {"mu": mu, "chi": blk.chi, "normal": bool(mps.is_normal(blk))} for mu, blk in cf.blocks
    ]
    if cf.reducible and not args.allow_blocks:
        report["error"] = "tensor is not normal; rerun with --allow-blocks"
        return EXIT_NOT_NORMAL
    qs = [int(x) for x in args.q_list.split(",")] if args.q_list else []
    if qs and not cf.reducible:
        report["bound_sweep"] = [
            mps.bound_report(cf.blocks[0][1], q, args.m_sites).to_dict() for q in qs
        ]
    # a deficit above its envelope fails the run; a vacuous bound (None) does not
    ok = all(row["envelope_holds"] is not False for row in report.get("bound_sweep", []))
    if args.pipeline:
        if args.n is None:
            raise ConfigError("--pipeline needs --n")
        res = mps.preparation_pipeline(tensor, args.q, args.n)
        out = enumerate_branches(res.protocol)
        report["pipeline"] = {
            "depth": res.depth,
            "rounds": len(res.protocol.rounds()),
            "verdict": out.verdict,
            "n_branches": len(out.reports),
            "min_fidelity": out.min_fidelity,
            "epsilon_q": res.report.epsilon_q,
            "measured_deficit": res.report.measured_deficit,
            "envelope_holds": res.report.envelope_holds,
            "writer_defect": res.writer_defect,
        }
        ok = (
            ok
            and res.report.envelope_holds is not False
            and out.deterministic
            and out.min_fidelity >= 1 - max(res.report.epsilon_q, DETERMINISM_TOL)
        )
    return EXIT_OK if ok else EXIT_FAIL


def cmd_diagnose(args, report: dict) -> int:
    from . import diagnostics as dg
    from . import protocols as P

    ok = True
    if args.check == "prop1":
        n = args.n
        lat = Lattice((n,))
        if args.state_in:
            state = PureState.load(Path(args.state_in).read_text())
            n = state.register.size
            lat = Lattice((n,))
            op_a = pauli_on((args.site_a, "s"), args.op_a)
            op_b = pauli_on((args.site_b if args.site_b is not None else n // 2, "s"), args.op_b)
        elif args.target == "ghz":
            state = P.ghz_state(n)
            op_a, op_b = pauli_on((0, "s"), "Z"), pauli_on((n // 2, "s"), "Z")
        elif args.target == "w":
            state = P.w_state(n)
            sp = np.array([[0, 1], [0, 0]], dtype=complex)
            op_a = RegionOperator(((0, "s"),), sp)
            op_b = RegionOperator(((n // 2, "s"),), sp.conj().T)
        elif args.target == "product":
            state = PureState.product(QuditRegister([(i, "s", 2) for i in range(n)]))
            op_a, op_b = pauli_on((0, "s"), "X"), pauli_on((n // 2, "s"), "Z")
        else:
            raise ConfigError("prop1 targets: ghz, w, product")
        rep = dg.check_factorization(state, lat, op_a, op_b, depth_claim=args.depth_claim)
        report["factorization"] = rep.to_dict()
    elif args.check == "arealaw":
        if args.protocol is None:
            raise ConfigError("--check arealaw needs --protocol")
        proto, _ = _build_protocol(args)
        n_sites = proto.lattice.n_sites
        regions = []
        if proto.lattice.ndim == 1:
            for ln in range(1, n_sites):
                regions.append(list(range(ln)))
        else:
            side = proto.lattice.dims[0]
            for rows in range(1, side):
                regions.append(
                    [proto.lattice.site_index((i, j)) for i in range(rows) for j in range(side)]
                )
        rep = dg.area_law_audit(proto, regions, seed=args.seed, rank_tol=args.rank_tol)
        report["arealaw"] = rep.to_dict()
        report["rank_tol"] = args.rank_tol
        ok = rep.passes
    else:  # cj
        if args.target != "ghz":
            raise ConfigError("cj targets: ghz")
        cj = dg.ghz_unitary_cj(args.n)
        table_ok = dg.verify_clifford_table(cj)
        report["clifford_table"] = table_ok
        rng = np.random.default_rng(args.seed)
        # branches are enumerated on random dense inputs for n <= 3 only; for
        # larger n the verdict rests on the Clifford table alone
        det = minf = None
        branches = 0
        if args.n <= 3:
            u = cj.u_dense()
            det, minf = True, 1.0
            for _ in range(5):
                psi = rng.normal(size=2**args.n) + 1j * rng.normal(size=2**args.n)
                psi /= np.linalg.norm(psi)
                inp = PureState(QuditRegister([(k, "in", 2) for k in range(args.n)]), psi)
                d, f, k = dg.enumerate_cj_branches(cj, inp, reference=u @ psi)
                det = det and d
                minf = min(minf, f)
                branches += k
        report["branches_checked"] = branches
        report["deterministic"] = det
        report["min_fidelity"] = minf
        ok = table_ok and det is not False
    return EXIT_OK if ok else EXIT_FAIL


def cmd_range(args, report: dict) -> int:
    lat = Lattice((args.n,), local_dim=args.d)
    if args.shift:
        u = cx._shift_unitary(lat)
        report["operator"] = "shift"
    else:
        if args.seed is None:
            raise ConfigError("random circuits require --seed")
        if args.depth < 0:
            raise ConfigError("--depth must be >= 0")
        rng = np.random.default_rng(args.seed)
        circuit = cx._random_circuit(lat, args.depth, rng)
        u = cx.circuit_unitary(circuit, [(i, "s", lat.local_dim) for i in range(lat.n_sites)])
        report["operator"] = f"random depth-{args.depth} circuit"
        report["depth"] = args.depth
    report["range"] = cx.estimate_range(u, lat)
    return EXIT_OK


def cmd_shift(args, report: dict) -> int:
    lat = Lattice((args.n,), local_dim=args.d)
    circuit = cx.build_shift_circuit(lat)
    n, d = lat.n_sites, lat.local_dim
    reg = QuditRegister([(i, "s", d) for i in range(n)])
    ok = _report_circuit(report, circuit, reg.entries())
    checked = 0
    for basis in np.ndindex(*(d,) * n):
        st = PureState.product(reg, {(i, "s"): np.eye(d)[basis[i]] for i in range(n)})
        cx.run(circuit, st)
        shifted = tuple(basis[(i + 1) % n] for i in range(n))
        idx = 0
        for i in range(n):
            idx = idx * d + shifted[i]
        if abs(st.amps[idx]) < 1 - 1e-9:
            ok = False
            break
        checked += 1
    report["basis_states_checked"] = checked
    return EXIT_OK if ok else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `qccc` parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="qccc",
        description="Simulate and certify measurement-assisted (LOCC) constant-depth circuits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="run a preparation protocol and certify it")
    p.add_argument("--protocol", required=True, choices=["ghz", "w", "rg", "tc"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spec", help="JSON spec file (rg only)")
    p.add_argument("--backend", default="dense", choices=["dense", "tableau"])
    p.add_argument("--mode", default="enumerate", choices=["sample", "enumerate"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("mps", help="canonical form, bound sweeps, pipeline certification")
    p.add_argument("--fixture", choices=sorted(mps.FIXTURES))
    p.add_argument("--file")
    p.add_argument("--q-list", default="")
    p.add_argument("--m-sites", type=int, default=6)
    p.add_argument("--allow-blocks", action="store_true")
    p.add_argument("--pipeline", action="store_true")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--out")

    p = sub.add_parser("diagnose", help="factorization witness, area law, Clifford gadget")
    p.add_argument("--check", required=True, choices=["prop1", "arealaw", "cj"])
    p.add_argument("--target", default="ghz")
    p.add_argument("--protocol", choices=["ghz", "w", "rg", "tc"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--depth-claim", type=int)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--spec")
    p.add_argument("--in", dest="state_in", help="state JSON for prop1 checks")
    p.add_argument("--site-a", type=int, default=0)
    p.add_argument("--site-b", type=int)
    p.add_argument("--op-a", default="Z")
    p.add_argument("--op-b", default="Z")
    p.add_argument("--rank-tol", type=float, default=1e-10)
    p.add_argument("--out")

    p = sub.add_parser("range", help="estimate the light-cone range of a unitary")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--shift", action="store_true")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("shift", help="build and verify the shift circuit (depth 2, or 3 on an odd ring)")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    cfg = {k: v for k, v in vars(args).items() if v is not None}
    report = {"version": __version__, "config": cfg, "timings": {}}
    t0 = time.time()
    try:
        code = globals()[f"cmd_{args.command}"](args, report)  # the command is looked up when it runs
        report["passed"] = code == EXIT_OK
        report["timings"]["total_s"] = time.time() - t0
        _write_report(report, args.out)
    except Exception as exc:
        code, label = next((c, label) for errors, c, label in FAILURES if isinstance(exc, errors))
        print(f"{label}: {' '.join(str(exc).splitlines())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
