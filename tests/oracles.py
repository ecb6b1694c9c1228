"""Test oracles and random inputs that no command, demo or benchmark needs, so
they live with the tests rather than in `qccc`."""

import json
import math
import operator
from typing import List, Optional, Sequence, Tuple

import numpy as np

from qccc import mps as M
from qccc.stabilizer import (
    InternalError,
    PauliString,
    StabilizerTableau,
    _check_qubit,
    _g_exponent_sum,
    _gf2_solve_many,
    _product,
)
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


def to_pure_state(ts) -> PureState:
    """A TableauState as a dense state over the same keys."""
    reg = QuditRegister([(s, sl, 2) for s, sl in ts.keys])
    return PureState(reg, ts.tab.to_statevector())


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


# -- the row-major tableau that the bitset columns replaced ---------------------------
#
# `RowTableau` and its conjugation rule are the stabilizer tableau as it stored
# its rows in numpy buffers, before it moved to one int per qubit column. The
# column store keeps its bookkeeping (pivot choice, removal moves, phases), so
# the two export equal rows after the same steps.


def _conjugate_rows_reference(x: np.ndarray, z: np.ndarray, r: np.ndarray, name: str, qubits: Sequence[int]) -> None:
    """Conjugate the k Pauli rows (x, z, r) of shape (k, n) by a named Clifford, in place.

    The one conjugation rule: the tableau, `CliffordMap` and the graph
    reduction all run their gates through it.
    """
    for q in qubits:
        _check_qubit(q, x.shape[1])
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{name} requires distinct qubits")
    name = name.upper()
    if name == "H":
        (q,) = qubits
        r += 2 * (x[:, q] & z[:, q])
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif name == "S":
        (q,) = qubits
        r += 2 * (x[:, q] & z[:, q])
        z[:, q] ^= x[:, q]
    elif name == "SDG":
        (q,) = qubits
        r += 2 * (x[:, q] & (z[:, q] ^ 1))
        z[:, q] ^= x[:, q]
    elif name == "X":
        (q,) = qubits
        r += 2 * z[:, q]
    elif name == "Z":
        (q,) = qubits
        r += 2 * x[:, q]
    elif name == "Y":
        (q,) = qubits
        r += 2 * (x[:, q] ^ z[:, q])
    elif name == "CNOT":
        a, b = qubits
        r += 2 * (x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1))
        x[:, b] ^= x[:, a]
        z[:, a] ^= z[:, b]
    elif name == "CZ":
        a, b = qubits
        r += 2 * (x[:, a] & x[:, b] & (z[:, a] ^ z[:, b]))
        z[:, a] ^= x[:, b]
        z[:, b] ^= x[:, a]
    elif name == "SWAP":
        a, b = qubits
        x[:, [a, b]] = x[:, [b, a]]
        z[:, [a, b]] = z[:, [b, a]]
    else:
        raise ValueError(f"gate {name!r} is not a supported Clifford primitive")
    r %= 4


def _capacity(n: int) -> int:
    """Qubit slots reserved for a tableau of n qubits: n plus bounded headroom."""
    return n + max(8, n // 8)


def _buffer_view(name: str) -> property:
    """The active rows of a buffer array: reading gives the view, and assigning
    writes into it, so the buffer stays the one store of the tableau."""
    attr = "_" + name

    def write(self, value) -> None:
        getattr(self, attr)[...] = value

    return property(operator.attrgetter(attr), write)


class RowTableau:
    """The row-major numpy tableau that `StabilizerTableau` replaced, kept as
    its reference: a CHP tableau of n qubits inside a buffer with room for C >= n.

    Destabilizer i lives in buffer row C-1-i and stabilizer i in row C+i, so
    the tableau is one (2n, n) view `buf[C-n : C+n, :n]` (`x`, `z`, `r`):
    rows 0..n-1 hold the destabilizers n-1..0, rows n..2n-1 the stabilizers
    0..n-1, and row j pairs with row 2n-1-j (`_partner`). Every buffer entry
    outside the view is zero, so adding a qubit writes one pair and widens the
    view by a row at each end and a column; the buffer doubles when full.
    """

    x = _buffer_view("x")
    z = _buffer_view("z")
    r = _buffer_view("r")  # phase exponent mod 4

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self._allocate(n, _capacity(n))
        self._write_fresh(0, n)

    # -- bookkeeping ---------------------------------------------------------

    def _allocate(self, n: int, cap: int) -> None:
        """Fresh zero buffers with room for `cap` qubits, viewed as n qubits."""
        self._cap = cap
        self._bx = np.zeros((2 * cap, cap), dtype=np.uint8)
        self._bz = np.zeros_like(self._bx)
        self._br = np.zeros(2 * cap, dtype=np.uint8)
        self._set_n(n)

    def _set_n(self, n: int) -> None:
        rows = slice(self._cap - n, self._cap + n)
        self.n = n
        self._x, self._z, self._r = self._bx[rows, :n], self._bz[rows, :n], self._br[rows]

    def _write_fresh(self, lo: int, hi: int) -> None:
        """Qubits lo..hi-1 in |0>: destabilizer X_j and stabilizer Z_j, written
        into their buffer rows, which lie outside the view until it widens."""
        j = np.arange(lo, hi)
        self._bx[self._cap - 1 - j, j] = 1
        self._bz[self._cap + j, j] = 1

    def _partner(self, rows):
        """The row paired with each of `rows`: destabilizer i <-> stabilizer i."""
        return 2 * self.n - 1 - rows

    def copy(self) -> "RowTableau":
        t = RowTableau.__new__(RowTableau)
        t._allocate(self.n, _capacity(self.n))
        t.x, t.z, t.r = self.x, self.z, self.r
        return t

    def stabilizer(self, i: int) -> PauliString:
        return PauliString(self.x[self.n + i].copy(), self.z[self.n + i].copy(), int(self.r[self.n + i]))

    def destabilizer(self, i: int) -> PauliString:
        row = self.n - 1 - i
        return PauliString(self.x[row].copy(), self.z[row].copy(), int(self.r[row]))

    def generators(self) -> List[PauliString]:
        return [self.stabilizer(i) for i in range(self.n)]

    def _rowmult(self, h, i: int) -> None:
        """row_h <- row_h * row_i with phase tracking; h may be an index array."""
        extra = _g_exponent_sum(self.x[h], self.z[h], self.x[i], self.z[i])
        self.r[h] = (self.r[h].astype(np.int64) + int(self.r[i]) + extra) % 4
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def _rowmult_all(self, h: int, rows: np.ndarray) -> None:
        """row_h <- row_h * row_rows[0] * row_rows[1] * ... with phase tracking."""
        if len(rows) == 0:
            return
        idx = np.concatenate([[h], rows]).astype(np.intp)
        self.x[h], self.z[h], self.r[h] = _product(self.x[idx], self.z[idx], self.r[idx])

    # -- gates ----------------------------------------------------------------

    def apply_gate(self, name: str, *qubits: int) -> "RowTableau":
        _conjugate_rows_reference(self.x, self.z, self.r, name, qubits)
        return self

    # -- measurement -----------------------------------------------------------

    def measure_z(
        self,
        q: int,
        force: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, float, bool]:
        """Measure Z on qubit q. Returns (outcome bit, probability, deterministic).

        The rows anticommuting with Z_q are those with an X bit on q.
        """
        _check_qubit(q, self.n)
        return self._measure(PauliString.single(self.n, q, "Z"), np.flatnonzero(self.x[:, q]), force, rng)

    def measure_pauli(
        self,
        p: PauliString,
        force: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, float, bool]:
        """Measure a Hermitian Pauli observable: outcome bit 0 <-> +1 eigenvalue."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        if p.phase % 2 != 0:
            raise ValueError("measured Pauli must be Hermitian")
        # the symplectic product with each row, read from the columns p acts on
        sym = self.x[:, p.z.nonzero()[0]].sum(axis=1) + self.z[:, p.x.nonzero()[0]].sum(axis=1)
        return self._measure(p, np.flatnonzero(sym & 1), force, rng)

    def _measure(self, p: PauliString, anti: np.ndarray, force, rng) -> Tuple[int, float, bool]:
        """Measure p, given the rows `anti` that anticommute with it."""
        n = self.n
        anti_stab = anti[anti >= n]
        if anti_stab.size:
            if force is not None:
                bit = int(force)
            elif rng is None:
                raise ValueError("sampled measurement requires an rng")
            else:
                bit = int(rng.integers(0, 2))
            pivot = int(anti_stab[0])
            self._rowmult(anti[anti != pivot], pivot)
            # pivot stabilizer row becomes +/- P; old row becomes its destabilizer
            d = self._partner(pivot)
            self.x[d], self.z[d], self.r[d] = self.x[pivot], self.z[pivot], self.r[pivot]
            self.x[pivot], self.z[pivot] = p.x, p.z
            self.r[pivot] = (p.phase + (2 if bit else 0)) % 4
            return bit, 0.5, False
        bit = self._deterministic_bit(p, anti)
        if force is not None and int(force) != bit:
            raise ValueError(f"forced outcome {force} has probability 0")
        return bit, 1.0, True

    def _deterministic_bit(self, p: PauliString, destabs: np.ndarray) -> int:
        """Outcome bit of a Pauli p that commutes with every stabilizer.

        `destabs` are the destabilizer rows anticommuting with p; the product
        of their stabilizer partners is +/- p, and its sign is the outcome.
        """
        rows = self._partner(destabs)
        x, z, phase = _product(self.x[rows], self.z[rows], self.r[rows])
        if not (np.array_equal(x, p.x) and np.array_equal(z, p.z)):
            raise InternalError("deterministic measurement did not reproduce the Pauli")
        return 0 if phase == p.phase else 1

    # -- structure ---------------------------------------------------------------

    @classmethod
    def from_generators(cls, gens: Sequence[PauliString]) -> "RowTableau":
        """Build a tableau from n independent commuting Hermitian generators."""
        n = gens[0].n
        if len(gens) != n:
            raise ValueError(f"need exactly {n} generators, got {len(gens)}")
        for g in gens:
            if g.n != n:
                raise ValueError("generator length mismatch")
            if g.phase % 2 != 0:
                raise ValueError("generator phases must be +/-1")
        # GF(2) products as float64 matrix products, exact while sums stay below 2^53
        gx = np.array([g.x for g in gens], dtype=np.float64)
        gz = np.array([g.z for g in gens], dtype=np.float64)
        anti = np.argwhere(np.triu((gx @ gz.T + gz @ gx.T) % 2, 1))
        if anti.size:
            i, j = anti[0]
            raise ValueError(f"generators {i} and {j} anticommute")
        # destabilizers: solve <d_i, g_j> = delta_ij; every right-hand side is
        # solvable exactly when the generators are independent
        a = np.concatenate([gz, gx], axis=1).astype(np.uint8)  # z parts multiply vx, x parts multiply vz
        sols = _gf2_solve_many(a, np.eye(n, dtype=np.uint8))
        if sols is None:
            raise ValueError("generators are not independent over GF(2)")
        d = sols.T.astype(np.float64)  # row i: destabilizer i as (x | z)
        # then make them commute: d_i += sum over j < i of <d_j, d_i> g_j, which
        # leaves every <d_i, g_j> as it was
        gram = (d[:, n:] @ d[:, :n].T + d[:, :n] @ d[:, n:].T) % 2
        d = (d + np.tril(gram, -1) @ np.concatenate([gx, gz], axis=1)) % 2
        tab = cls.__new__(cls)
        tab._allocate(n, _capacity(n))
        tab.x = np.concatenate([d[::-1, :n], gx])
        tab.z = np.concatenate([d[::-1, n:], gz])
        tab.r[n:] = [g.phase for g in gens]
        return tab

    def add_qubits(self, k: int) -> "RowTableau":
        """Append k fresh qubits in |0>, in place; amortised O(n) per qubit."""
        n = self.n + k
        if n > self._cap:
            x, z, r = self.x, self.z, self.r
            self._allocate(self.n, max(2 * self._cap, n))
            self.x, self.z, self.r = x, z, r
        self._write_fresh(self.n, n)
        self._set_n(n)
        return self

    def remove_qubit(self, q: int) -> "RowTableau":
        """Drop a decoupled qubit in place; the last qubit takes index q.

        One stabilizer s_p is brought to +/- P_q while every (destabilizer,
        stabilizer) pair stays symplectic; then the last qubit's pair and
        column move into p's pair and column q. After a random `measure_z` of
        q some stabilizer already is +/- Z_q and the w others on q carry Z
        there, so this costs O(n w); otherwise a row reduction finds s_p. An
        entangled qubit raises ValueError with the state unchanged, though its
        rows may be recombined.
        """
        n = self.n
        _check_qubit(q, n)
        x, z = self.x, self.z
        paulis = (x[n:, q] << 1) | z[n:, q]  # each stabilizer's Pauli on q, 0 for I
        on_q = np.flatnonzero(paulis)
        if on_q.size == 0:
            raise InternalError("no stabilizer acts on the qubit")
        entangled = ValueError(f"qubit {q} is entangled; cannot remove")
        if (paulis[on_q] != paulis[on_q[0]]).any():
            raise entangled
        on_q += n
        local = on_q[(x[on_q] | z[on_q]).sum(axis=1) == 1]
        if local.size:
            # s_p is +/- P_q, and the others carry the same P on q: each product
            # clears q and takes s_p's sign, with no other phase term. Only the
            # pivot's destabilizer stops pairing with them, and it is dropped.
            p = int(local[0])
            others = on_q[on_q != p]
            self.r[others] = (self.r[others] + self.r[p]) % 4
            x[others, q] = z[others, q] = 0
        else:
            p = int(on_q[0])
            d = self._partner(p)
            # clear q from the other stabilizers; the pivot's destabilizer absorbs theirs
            self._rowmult(on_q[1:], p)
            self._rowmult_all(d, self._partner(on_q[1:]))
            # s_p off q must be the product of the stabilizers paired with the
            # destabilizers that anticommute with it
            rx, rz = x[p].copy(), z[p].copy()
            rx[q] = rz[q] = 0
            # uint8 products wrap modulo 256, which keeps their parity
            c = (x[:n] @ rz + z[:n] @ rx) & 1
            if c[d]:
                raise entangled
            js = np.flatnonzero(c)
            self._rowmult_all(p, self._partner(js))
            self._rowmult(js, d)
            if np.count_nonzero(x[p] | z[p]) > 1:
                raise entangled
        # s_p = +/- P_q now, so every other destabilizer carries I or P on q and
        # dropping column q keeps all symplectic products
        self._drop(p, q)
        return self

    def measure_remove(self, q: int, force=None, rng=None) -> Tuple[int, float]:
        """`measure_z`, then `remove_qubit`: one LOCC measurement."""
        bit, prob, _ = self.measure_z(q, force=force, rng=rng)
        self.remove_qubit(q)
        return bit, prob

    def _drop(self, p: int, q: int) -> None:
        """Remove the pair of stabilizer row p and column q: the last pair and
        the last column move into their slots, and the vacated ones are zeroed."""
        n, last = self.n, 2 * self.n - 1
        d = self._partner(p)
        for a in (self._x, self._z, self._r):
            a[p], a[d] = a[last], a[0]
            a[0] = a[last] = 0
        for a in (self._x, self._z):
            a[:, q] = a[:, n - 1]
            a[:, n - 1] = 0
        self._set_n(n - 1)
