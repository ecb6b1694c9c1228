"""Test oracles and random inputs that no command, demo or benchmark needs, so
they live with the tests rather than in `qccc`."""

import json
import math

import numpy as np

from qccc import mps as M
from qccc.stabilizer import PauliString, StabilizerTableau
from qccc.statevector import DECOUPLE_TOL, PureState, QuditRegister


def purity(state, keep) -> float:
    """tr(rho^2) of the reduced state on the `keep` entries."""
    rho = state.reduced_density(keep)
    return float(np.trace(rho @ rho).real)


def is_product_across(state, entries, tol: float = DECOUPLE_TOL) -> bool:
    """True when the state has Schmidt rank one across `entries` | the rest:
    the top eigenvalue of the reduced state on `entries` is 1 within `tol`."""
    w = np.linalg.eigvalsh(state.reduced_density(entries))
    return bool(1.0 - w[-1] <= tol)


def swap_d(d1: int, d2: int) -> np.ndarray:
    """SWAP between two qudits of equal dimension (d1 must equal d2)."""
    if d1 != d2:
        raise ValueError("swap requires equal local dimensions")
    d = d1
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            m[j * d + i, i * d + j] = 1.0
    return m


def graph_clifford_unitary(adjacency: np.ndarray) -> np.ndarray:
    """Dense graph-Clifford: U = sum_i Z^{i_1}...Z^{i_n} (prod_e CZ)|+...+><i|."""
    n = adjacency.shape[0]
    dim = 1 << n
    t = (np.ones(dim, dtype=complex) / math.sqrt(dim)).reshape((2,) * n)
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j]:
                idx = [slice(None)] * n
                idx[i] = idx[j] = 1
                t[tuple(idx)] *= -1
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        col = t.copy()
        for k in range(n):
            if (i >> (n - 1 - k)) & 1:
                idx = [slice(None)] * n
                idx[k] = 1
                col[tuple(idx)] *= -1
        u[:, i] = col.reshape(-1)
    return u


def random_stabilizer_tableau(n: int, rng: np.random.Generator, depth: int = 30) -> StabilizerTableau:
    """Random stabilizer state from a random Clifford circuit on |0...0>."""
    tab = StabilizerTableau(n)
    one_q = ["H", "S", "X", "Z"]
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 0 or n == 1:
            tab.apply_gate(one_q[rng.integers(0, len(one_q))], int(rng.integers(0, n)))
        else:
            a, b = rng.choice(n, size=2, replace=False)
            tab.apply_gate("CNOT" if rng.integers(0, 2) else "CZ", int(a), int(b))
    return tab


def tableau_text(tab: StabilizerTableau) -> str:
    """The stabilizer generators' labels, one per line."""
    return "\n".join(g.label() for g in tab.generators())


def tableau_from_text(text: str) -> StabilizerTableau:
    """The tableau whose generators `tableau_text` wrote."""
    return StabilizerTableau.from_generators([PauliString.from_label(g.strip()) for g in text.strip().splitlines()])


def to_pure_state(ts, seed: int = 7) -> PureState:
    """A TableauState as a dense state over the same keys."""
    reg = QuditRegister([(s, sl, 2) for s, sl in ts.keys])
    return PureState(reg, ts.tab.to_statevector(seed=seed))


def random_normal_mps(d: int, chi: int, rng: np.random.Generator, attempts: int = 20) -> M.MPS:
    """A random canonically-scaled normal tensor (rejection sampled)."""
    for _ in range(attempts):
        t = rng.normal(size=(d, chi, chi)) + 1j * rng.normal(size=(d, chi, chi))
        cf = M.canonicalize(M.MPS(t))
        if not cf.reducible and M.is_normal(cf.blocks[0][1]):
            return cf.blocks[0][1]
    raise RuntimeError("failed to sample a normal tensor")


def save_mps(m: M.MPS) -> str:
    """The JSON text that `MPS.load` reads."""
    tensor = [[[[float(v.real), float(v.imag)] for v in row] for row in mat] for mat in m.tensor]
    return json.dumps({"d": m.d, "chi": m.chi, "tensor": tensor})


def raw_overlap(a: M.MPS, b: M.MPS, n: int) -> complex:
    """<chain(b)|chain(a)> without normalization (dense oracle partner)."""
    sa = M.state_from_mps(a, n, normalize=False)
    sb = M.state_from_mps(b, n, normalize=False)
    return complex(np.vdot(sb.amps, sa.amps))


def plaquettes_b(layout):
    """The toric-code layout's B-plaquettes, off the chessboard pattern."""
    return [(i, j) for i in range(layout.N) for j in range(layout.N) if (i + j) % 2 == 1]


def _assert_rows_replay(proto, res, backend="dense", input_state=None, limit=32, target="protocol"):
    """Check the rows of `enumerate_branches` against `replay` on the plain
    backend: every row below `limit`, and a seeded sample of `limit` rows past
    it. A row's outcomes must be the replay's, its outcome probabilities
    within 1e-12 of the replay's, and its fidelity within 1e-9 of the replayed
    state's fidelity to `target` (resolved as `enumerate_branches` resolves
    it), or to the first branch's state when there is none.

    Every row, sampled or not, must come after the one before it in
    lexicographic order of the outcomes: depth-first order with outcomes
    ascending, as every engine lists them. A replay cannot see a record
    listed twice; this order can."""
    from qccc import locc

    rows, past = res.reports, np.arange(limit, len(res.reports))
    step = np.diff(rows.outcomes.astype(np.int64), axis=0)
    if len(step):
        first = np.argmax(step != 0, axis=1)  # the first column where a row differs from the one before
        assert (step[np.arange(len(step)), first] > 0).all(), "rows not in strictly increasing order"
    target = locc._resolve_target(proto, locc._start(proto, backend, input_state), target)
    against = res.reference if target is None else target
    sample = np.random.default_rng(0).choice(past, min(limit, len(past)), replace=False)
    for i in [*range(min(limit, len(rows))), *np.sort(sample).tolist()]:
        row = rows[i]
        state, record = locc.replay(proto, row.record, backend, input_state)
        assert [o[:2] for o in record.outcomes] == [o[:2] for o in row.record.outcomes]
        assert np.abs([p for *_, p in record.outcomes] - rows.outcome_probs[i]).max(initial=0) <= 1e-12
        assert abs(state.fidelity(against) - row.fidelity) <= 1e-9, (i, row)
