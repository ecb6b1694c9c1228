"""The four benchmark workloads: inputs made from the seed, tasks, and checks.

Each workload is a function ``(seed, workdir) -> list[Task]`` returning one
pass, the workload's base task list. Calling it is the workload's set-up: it
builds the protocols and their independent targets, generates every input
from the seed, and runs one small warm-up task. A task runs the program on its
inputs and checks the output with quantities built independently of the code
path under test; a wrong output raises ``CheckFailed``. Tasks can run any
number of times; the runner repeats the pass.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

FID_TOL = 1e-9
PROB_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its independent expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Task:
    name: str
    # runs the program and checks its output; may return counters to add to a trace
    fn: Callable[[], Optional[Dict[str, float]]]


def _task_seeds(seed: int, n: int) -> List[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# -- task constructors, shared with the self-check ---------------------------------------


def sampled_dense_task(name, protocol, target, seed: int, parity_check: bool = False) -> Task:
    """One dense ``run_sampled`` history, fidelity against an independent target."""
    from qccc import locc

    def fn():
        state, record = locc.run_sampled(protocol, seed=seed, backend="dense")
        fid = state.fidelity(target)
        expect(fid >= 1 - FID_TOL, f"{name}: fidelity {fid!r} < 1 - {FID_TOL}")
        if parity_check:
            sign = 1
            for _, k, _ in record.outcomes:
                sign *= 1 - 2 * k
            expect(sign == 1, f"{name}: plaquette sign product {sign}")

    return Task(name, fn)


def sampled_tableau_task(name, protocol, target_tab, seed: int) -> Task:
    """One tableau ``run_sampled`` history, group match against independent generators."""
    from qccc import locc

    def fn():
        state, _ = locc.run_sampled(protocol, seed=seed, backend="tableau")
        expect(state.tab.states_equal(target_tab), f"{name}: stabilizer group mismatch")

    return Task(name, fn)


def cj_task(name, cj, seeds: List[int]) -> Task:
    """Choi-gadget unitary applied to |0...0> on the tableau backend, once per seed.

    U|0> must be the gadget's graph-form resource state on every branch.
    """
    from qccc import diagnostics

    def fn():
        for seed in seeds:
            out = diagnostics.run_cj_unitary(cj, [], backend="tableau", seed=seed)
            expect(out.tab.states_equal(cj.resource), f"{name}: U|0> is not the resource state")

    return Task(name, fn)


def cli_enumerate_task(name, argv: List[str], expected_branches: int, out_path: str) -> Task:
    """``qccc prepare --mode enumerate`` through ``cli.main``, report checked field by field."""
    from qccc import cli

    def fn():
        if os.path.exists(out_path):
            os.remove(out_path)
        rc = cli.main(argv + ["--mode", "enumerate", "--out", out_path])
        expect(rc == 0, f"{name}: exit code {rc}")
        with open(out_path) as fh:
            text = fh.read()
        report = json.loads(text)
        expect(report["verdict"] == "DETERMINISTIC", f"{name}: verdict {report['verdict']}")
        expect(
            report["n_branches"] == expected_branches,
            f"{name}: {report['n_branches']} branches, expected {expected_branches}",
        )
        expect(
            abs(report["total_probability"] - 1.0) <= PROB_TOL,
            f"{name}: total probability {report['total_probability']!r}",
        )
        expect(report["min_fidelity"] >= 1 - FID_TOL, f"{name}: min fidelity {report['min_fidelity']!r}")
        return {"cli.report_bytes": len(text.encode())}

    return Task(name, fn)


def range_task(name, circuit, register, lat, depth: int) -> Task:
    """Light-cone range of a depth-``depth`` brickwork circuit: 1 <= range <= depth."""
    from qccc import circuits as cx

    def fn():
        u = cx.circuit_unitary(circuit, register)
        r = cx.estimate_range(u, lat)
        expect(1 <= r <= depth, f"{name}: range {r} outside [1, {depth}]")

    return Task(name, fn)


# -- inputs the benchmark makes itself ---------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brickwork_circuit(lat, depth: int, rng: np.random.Generator):
    """Open-boundary brickwork of Haar two-qubit gates, alternating offsets 0 and 1."""
    from qccc import circuits as cx

    n = lat.n_sites
    layers = []
    for li in range(depth):
        layer = [
            cx.Gate(((i, "s"), (i + 1, "s")), haar_unitary(4, rng)) for i in range(li % 2, n - 1, 2)
        ]
        layers.append(cx.GateLayer(layer))
    return cx.Circuit(lat, layers)


def shift_permutation(n: int) -> np.ndarray:
    """Cyclic shift |b_0 ... b_{n-1}> -> |b_1 ... b_{n-1} b_0> as a 2^n permutation matrix."""
    dim = 1 << n
    src = np.arange(dim)
    dst = ((src << 1) | (src >> (n - 1))) & (dim - 1)
    u = np.zeros((dim, dim))
    u[dst, src] = 1.0
    return u


def random_rg_spec(rng: np.random.Generator, n_sites: int) -> dict:
    """A B=2 renormalization fixed-point spec with random weights and bond state."""
    alphas = rng.normal(size=2) + 1j * rng.normal(size=2)
    alphas /= np.linalg.norm(alphas)
    bond = rng.normal(size=4) + 1j * rng.normal(size=4)
    bond /= np.linalg.norm(bond)
    pairs = lambda v: [[float(x.real), float(x.imag)] for x in v]  # noqa: E731
    return {"B": 2, "alphas": pairs(alphas), "bond_state": pairs(bond), "N": n_sites}


# -- the workloads -----------------------------------------------------------------------


def tc_dense(seed: int, workdir: str) -> List[Task]:
    """Toric code N=4, one dense sampled branch per task (register up to 2^21 amplitudes)."""
    from qccc import locc, protocols

    proto, _ = protocols.toric_code_protocol(4)
    target = protocols.tc_target_state(protocols.ToricCodeLayout(4))
    warm, _ = protocols.ghz_protocol(4)
    locc.run_sampled(warm, seed=seed, backend="dense")
    return [
        sampled_dense_task(f"tc4_dense[{s}]", proto, target, s, parity_check=True)
        for s in _task_seeds(seed, 2)
    ]


def enum_small(seed: int, workdir: str) -> List[Task]:
    """Exhaustive certification of many small branches through ``qccc prepare``."""
    rng = np.random.default_rng(seed)
    spec_path = os.path.join(workdir, "rg_spec.json")
    with open(spec_path, "w") as fh:
        json.dump(random_rg_spec(rng, 3), fh)
    items = [(f"w{n}", ["--protocol", "w", "--n", str(n)], 4**n) for n in (3, 4, 5, 6)] + [
        ("ghz6_dense", ["--protocol", "ghz", "--n", "6"], 2**5),
        ("ghz10_dense", ["--protocol", "ghz", "--n", "10"], 2**9),
        ("ghz8_tableau", ["--protocol", "ghz", "--n", "8", "--backend", "tableau"], 2**7),
        ("ghz10_tableau", ["--protocol", "ghz", "--n", "10", "--backend", "tableau"], 2**9),
        ("rg3", ["--protocol", "rg", "--n", "3", "--spec", spec_path], 4**4),
    ]
    tasks = []
    for i in rng.permutation(len(items)):
        name, argv, branches = items[i]
        out = os.path.join(workdir, f"{name}.json")
        tasks.append(cli_enumerate_task(name, ["prepare"] + argv, branches, out))
    cli_enumerate_task(
        "warmup", ["prepare", "--protocol", "ghz", "--n", "3"], 4, os.path.join(workdir, "warmup.json")
    ).fn()
    return tasks


def tableau_large(seed: int, workdir: str) -> List[Task]:
    """Long sampled Clifford histories on tableaux of tens to hundreds of qubits."""
    from qccc import diagnostics, locc, protocols
    from qccc.stabilizer import StabilizerTableau

    s_ghz, s_tc8, *s_cj = _task_seeds(seed, 8)
    ghz48, _ = protocols.ghz_protocol(48)
    ghz48_target = StabilizerTableau.from_generators(protocols.ghz_generators(48))
    tc8, _ = protocols.toric_code_protocol(8)
    tc8_target = StabilizerTableau.from_generators(
        protocols.tc_target_generators(protocols.ToricCodeLayout(8))
    )
    cj = diagnostics.build_cj_protocol(
        StabilizerTableau.from_generators(protocols.tc_target_generators(protocols.ToricCodeLayout(4)))
    )
    tasks = [
        sampled_tableau_task(f"ghz48_tableau[{s_ghz}]", ghz48, ghz48_target, s_ghz),
        sampled_tableau_task(f"tc8_tableau[{s_tc8}]", tc8, tc8_target, s_tc8),
        # three gadget histories per task, so the tail percentile (the second
        # fastest of these six runs) is not set by the noise of 0.2 s runs
        cj_task(f"cj_tc4x3[{s_cj[0]}]", cj, s_cj[:3]),
        cj_task(f"cj_tc4x3[{s_cj[3]}]", cj, s_cj[3:]),
    ]
    warm, _ = protocols.ghz_protocol(8)
    locc.run_sampled(warm, seed=seed, backend="tableau")
    return tasks


def _bound_sweep_task(aklt, qs, m_sites: int) -> Task:
    """AKLT deficit envelope at every q, and the deficit's exponential decay in q."""
    from qccc import mps

    def fn():
        reps = [mps.bound_report(aklt, q, m_sites) for q in qs]
        alpha = reps[0].alpha
        for rep in reps:
            if rep.epsilon_q < 1.0:
                eps = rep.epsilon_q
                budget = eps + eps**2 * math.exp(eps) * (1 + eps / m_sites)
                expect(rep.measured_deficit <= budget + 1e-10, f"q={rep.q}: envelope violated")
        slope = np.polyfit(qs, np.log([rep.measured_deficit for rep in reps]), 1)[0]
        expect(slope <= -alpha / 2 * (1 - 0.15), f"deficit slope {slope:.3f} too shallow")

    return Task("aklt_bound_sweep", fn)


def _pipeline_task(aklt, q: int, n_sites: int) -> Task:
    from qccc import locc, mps

    def fn():
        res = mps.preparation_pipeline(aklt, q, n_sites)
        out = locc.enumerate_branches(res.protocol)
        expect(out.deterministic, "pipeline: not deterministic")
        expect(abs(out.total_probability() - 1.0) <= PROB_TOL, "pipeline: probability mass")
        expect(
            out.min_fidelity >= 1 - res.report.epsilon_q,
            f"pipeline: fidelity {out.min_fidelity!r} < 1 - eps_q",
        )

    return Task(f"aklt_pipeline_q{q}_n{n_sites}", fn)


def range_mps(seed: int, workdir: str) -> List[Task]:
    """Light-cone range estimation and MPS bound sweeps, the circuits and mps layers."""
    from qccc import circuits as cx
    from qccc import mps
    from qccc.lattice import Lattice

    rng = np.random.default_rng(seed)
    lat8 = Lattice((8,))
    reg8 = [(i, "s", 2) for i in range(8)]
    lat6 = Lattice((6,))
    shift = shift_permutation(6)
    aklt = mps.aklt_mps()
    cx.estimate_range(shift_permutation(4), Lattice((4,)))

    def shift_fn():
        r = cx.estimate_range(shift, lat6)
        expect(r == 1, f"shift range {r} != 1")

    tasks = [
        range_task(f"range_d{depth}[{i}]", brickwork_circuit(lat8, depth, rng), reg8, lat8, depth)
        for i, depth in enumerate((1, 2, 3))
    ]
    tasks.append(Task("shift_range", shift_fn))
    tasks.append(_bound_sweep_task(aklt, list(range(4, 13)), 6))
    tasks.append(_pipeline_task(aklt, 4, 8))
    return tasks


# name -> (set-up function, seconds one pass took when the benchmark was written,
# on a 2-core Xeon with one BLAS thread); a run repeats the pass about
# seconds / this times.
WORKLOADS = {
    "tc_dense": (tc_dense, 3.4),
    "enum_small": (enum_small, 6.0),
    "tableau_large": (tableau_large, 6.0),
    "range_mps": (range_mps, 2.9),
}
