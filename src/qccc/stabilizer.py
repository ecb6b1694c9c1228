"""Binary-symplectic stabilizer tableau backend (Aaronson-Gottesman style).

Pauli strings use the Y convention: bits (x, z) = (1, 1) denote Y, and a
string is i^phase * (tensor of I/X/Y/Z). Stabilizer generators are kept
Hermitian with phase in {0, 2} (plus / minus).

The tableau stores n destabilizers and n stabilizers, giving O(n w)
measurements, w the rows that anticommute with the measured Pauli. Qubits can
be appended freely and removed again once they are decoupled, which is what
LOCC protocols need when they discard measured ancillas. Both work in place,
inside a buffer with spare slots (Stim-style in-place updates, Gidney,
arXiv:2103.02202): an add writes one destabilizer/stabilizer pair into reserved
slots, and a removal brings one stabilizer to the qubit's local Pauli, then
moves the last qubit's pair and column into the freed ones, so the last qubit
takes the removed one's index. After a random Z measurement that stabilizer is
already there and a removal costs O(n w), w the stabilizers on the qubit;
otherwise an O(n^2) row reduction finds it. Row products track phases with one
array expression per batch of rows (`_rowmult`, `_product`).

How each named Clifford conjugates a Pauli is written once, in
`_conjugate_rows`, which updates any stack of Pauli rows in place. The
tableau, the graph-state reduction, `conjugate_pauli` and `CliffordMap` all
run their gates through it; a `CliffordMap` holds the images of X_k and Z_k
as tableau-shaped rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_CHAR_BITS = {c: b for b, c in _PAULI_CHARS.items()}


class InternalError(RuntimeError):
    """A broken internal invariant: a fault in qccc, not in its input."""


# Exponent of i in the single-qubit product (x1, z1) * (x2, z2), indexed by
# the bits x1 z1 x2 z2 (the g function of Aaronson-Gottesman).
_G_EXPONENT = np.array([0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 1, 0, 1, -1, 0], dtype=np.int64)


def _g_exponent_sum(x1, z1, x2, z2):
    """Sum of the i-exponents over the last (qubit) axis; broadcasts over rows."""
    return _G_EXPONENT[(x1 << 3) | (z1 << 2) | (x2 << 1) | z2].sum(axis=-1)


def _product(x: np.ndarray, z: np.ndarray, r: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Ordered product of the k Pauli rows (x, z, r) of shape (k, n): its bits and phase.

    Row t is multiplied onto the running product of rows 0..t-1, whose bits
    are the prefix XORs, so every phase term comes from one array expression.
    """
    if len(x) == 0:
        return np.zeros(x.shape[1], dtype=np.uint8), np.zeros(z.shape[1], dtype=np.uint8), 0
    px = np.bitwise_xor.accumulate(x, axis=0)
    pz = np.bitwise_xor.accumulate(z, axis=0)
    extra = int(_g_exponent_sum(px[:-1], pz[:-1], x[1:], z[1:]).sum())
    return px[-1], pz[-1], (int(r.sum(dtype=np.int64)) + extra) % 4


def _check_qubit(q: int, n: int) -> None:
    """Reject a qubit outside 0..n-1, which numpy indexing would wrap or miss."""
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of range")


def _conjugate_rows(x: np.ndarray, z: np.ndarray, r: np.ndarray, name: str, qubits: Sequence[int]) -> None:
    """Conjugate the k Pauli rows (x, z, r) of shape (k, n) by a named Clifford, in place.

    The one conjugation rule: the tableau, `CliffordMap`, `conjugate_pauli` and
    the graph reduction all run their gates through it.
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


@dataclass
class PauliString:
    """i^phase times a tensor product of Paulis on n qubits."""

    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.uint8) % 2
        self.z = np.asarray(self.z, dtype=np.uint8) % 2
        if self.x.shape != self.z.shape:
            raise ValueError("x and z bit vectors must have equal length")
        self.phase = int(self.phase) % 4

    @property
    def n(self) -> int:
        return self.x.size

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse e.g. '+XZI', '-Y', 'iXX', '-iZZ'."""
        phase = 0
        s = label
        if s.startswith("+"):
            s = s[1:]
        elif s.startswith("-"):
            phase = 2
            s = s[1:]
        if s.startswith("i"):
            phase = (phase + 1) % 4
            s = s[1:]
        bits = [_CHAR_BITS[c] for c in s]
        x = np.array([b[0] for b in bits], dtype=np.uint8)
        z = np.array([b[1] for b in bits], dtype=np.uint8)
        return cls(x, z, phase)

    @classmethod
    def single(cls, n: int, qubit: int, pauli: str) -> "PauliString":
        _check_qubit(qubit, n)
        p = cls.identity(n)
        xb, zb = _CHAR_BITS[pauli]
        p.x[qubit] = xb
        p.z[qubit] = zb
        return p

    def label(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        return prefix + "".join(
            _PAULI_CHARS[(int(a), int(b))] for a, b in zip(self.x, self.z)
        )

    def copy(self) -> "PauliString":
        return PauliString(self.x.copy(), self.z.copy(), self.phase)

    def commutes(self, other: "PauliString") -> bool:
        sp = int(np.sum(self.x * other.z) + np.sum(self.z * other.x)) % 2
        return sp == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("length mismatch")
        extra = _g_exponent_sum(self.x, self.z, other.x, other.z)
        phase = (self.phase + other.phase + extra) % 4
        return PauliString(self.x ^ other.x, self.z ^ other.z, phase)

    def support(self) -> Tuple[int, ...]:
        return tuple(int(k) for k in np.nonzero(self.x | self.z)[0])

    def dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (small n only)."""
        from . import gates

        m = np.array([[1.0 + 0j]])
        for xb, zb in zip(self.x, self.z):
            p = gates.named_gate(_PAULI_CHARS[(int(xb), int(zb))])
            m = np.kron(m, p)
        return (1j**self.phase) * m

    def apply_to_vector(self, vec: np.ndarray) -> np.ndarray:
        """Apply to a dense 2^n amplitude vector, qubit 0 slowest-varying."""
        n = self.n
        dim = 1 << n
        idx = np.arange(dim, dtype=np.int64)
        xmask = 0
        zmask = 0
        for k in range(n):
            bitpos = n - 1 - k
            if self.x[k]:
                xmask |= 1 << bitpos
            if self.z[k]:
                zmask |= 1 << bitpos
        ny = int(np.sum(self.x & self.z))
        signs = (-1.0) ** _popcount64(idx & zmask)
        out = np.zeros(dim, dtype=complex)
        out[idx ^ xmask] = (1j ** ((self.phase + ny) % 4)) * signs * vec
        return out


def _popcount64(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


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


class StabilizerTableau:
    """CHP tableau of n qubits kept inside a buffer with room for C >= n.

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

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
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

    def apply_gate(self, name: str, *qubits: int) -> "StabilizerTableau":
        _conjugate_rows(self.x, self.z, self.r, name, qubits)
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
    def from_generators(cls, gens: Sequence[PauliString]) -> "StabilizerTableau":
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

    def canonical_stabilizers(self) -> List[PauliString]:
        """Row-reduced echelon form of the stabilizer group (deterministic)."""
        m, r = self._canonical_rows()
        n = self.n
        return [PauliString(m[i, :n], m[i, n:], r[i]) for i in range(n)]

    def _canonical_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """GF(2) elimination of the stabilizer rows: (x | z) bits (n, 2n) and phases.

        Columns are swept x first, then z; at each pivot every other row
        carrying the column is multiplied by the pivot row in one step.
        """
        n = self.n
        m = np.concatenate([self.x[n:], self.z[n:]], axis=1)
        r = self.r[n:].astype(np.int64)
        rank = 0
        for col in range(2 * n):
            hits = m[rank:, col].nonzero()[0]
            if hits.size == 0:
                continue
            pivot = rank + hits[0]
            if pivot != rank:
                m[[rank, pivot]] = m[[pivot, rank]]
                r[[rank, pivot]] = r[[pivot, rank]]
            # rows carrying the column: those above the pivot, and the other hits
            rows = np.concatenate([m[:rank, col].nonzero()[0], rank + hits[1:]])
            if rows.size:
                p = m[rank]
                r[rows] += r[rank] + _g_exponent_sum(m[rows, :n], m[rows, n:], p[:n], p[n:])
                m[rows] ^= p
            rank += 1
            if rank == n:
                break
        r %= 4
        return m, r

    def states_equal(self, other: "StabilizerTableau") -> bool:
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        ma, ra = self._canonical_rows()
        mb, rb = other._canonical_rows()
        return np.array_equal(ma, mb) and np.array_equal(ra, rb)

    def add_qubits(self, k: int) -> "StabilizerTableau":
        """Append k fresh qubits in |0>, in place; amortised O(n) per qubit."""
        n = self.n + k
        if n > self._cap:
            x, z, r = self.x, self.z, self.r
            self._allocate(self.n, max(2 * self._cap, n))
            self.x, self.z, self.r = x, z, r
        self._write_fresh(self.n, n)
        self._set_n(n)
        return self

    def remove_qubit(self, q: int) -> "StabilizerTableau":
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

    def to_statevector(self) -> np.ndarray:
        """Dense amplitude vector (2^n), qubit 0 slowest-varying, projected from
        seeded random vectors. Small n only."""
        if self.n > 20:
            raise ValueError("dense conversion capped at 20 qubits")
        dim = 1 << self.n
        rng = np.random.default_rng(7)
        for attempt in range(8):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            for g in self.generators():
                v = 0.5 * (v + g.apply_to_vector(v))
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                return v / nv
        raise RuntimeError("failed to project onto the stabilizer state")


# -- GF(2) helpers -------------------------------------------------------------


def _gf2_solve_many(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """Solutions V of A V = B over GF(2) (one column per RHS), or None."""
    rows, cols = a.shape
    b = (b % 2).astype(np.uint8)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n_rhs = b.shape[1]
    m = np.concatenate([a.copy().astype(np.uint8) % 2, b], axis=1)
    pivot_cols = []
    rank = 0
    for c in range(cols):
        hits = np.nonzero(m[rank:, c])[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        mask = m[:, c].copy().astype(bool)
        mask[rank] = False
        m[mask] ^= m[rank]
        pivot_cols.append(c)
        rank += 1
        if rank == rows:
            break
    if rank < rows and m[rank:, cols:].any():
        return None
    v = np.zeros((cols, n_rhs), dtype=np.uint8)
    for r, c in enumerate(pivot_cols):
        v[c] = m[r, cols:]
    return v


# -- graph states ----------------------------------------------------------------


@dataclass
class GraphState:
    """Adjacency matrix plus the per-site local Cliffords reaching graph form."""

    adjacency: np.ndarray
    local_cliffords: List[Tuple[str, int]]

    def tableau(self) -> StabilizerTableau:
        n = self.adjacency.shape[0]
        gens = []
        for v in range(n):
            x = np.zeros(n, dtype=np.uint8)
            z = np.zeros(n, dtype=np.uint8)
            x[v] = 1
            z[:] = self.adjacency[v] % 2
            gens.append(PauliString(x, z, 0))
        return StabilizerTableau.from_generators(gens)


def to_graph_state(tab: StabilizerTableau) -> GraphState:
    """Local-Clifford reduction of a stabilizer state to canonical graph form.

    Returns the adjacency matrix and the gate list (applied in order) that maps
    the input state to the graph state. Deterministic: pivots take the lowest
    available row, Hadamard fixes are used for rank repair, S for Y diagonals.
    """
    n = tab.n
    x, z, r = tab.x[n:].copy(), tab.z[n:].copy(), tab.r[n:].copy()
    applied: List[Tuple[str, int]] = []
    for col in range(n):
        if not x[col:, col].any():
            if not z[col:, col].any():
                raise InternalError("invalid tableau: empty pivot column")
            _conjugate_rows(x, z, r, "H", (col,))
            applied.append(("H", col))
        pivot = col + int(np.flatnonzero(x[col:, col])[0])
        for a in (x, z, r):
            a[[col, pivot]] = a[[pivot, col]]
        hits = np.flatnonzero(x[:, col])
        hits = hits[hits != col]
        r[hits] = (r[hits] + r[col] + _g_exponent_sum(x[hits], z[hits], x[col], z[col])) % 4
        x[hits] ^= x[col]
        z[hits] ^= z[col]
    for q in range(n):
        if z[q, q]:
            _conjugate_rows(x, z, r, "S", (q,))
            applied.append(("S", q))
    for q in range(n):
        if r[q] == 2:
            _conjugate_rows(x, z, r, "Z", (q,))
            applied.append(("Z", q))
    if r.any():
        raise InternalError("graph reduction left a nontrivial phase")
    if np.diagonal(z).any():
        raise InternalError("graph reduction left a diagonal entry")
    if not np.array_equal(z, z.T):
        raise InternalError("graph adjacency not symmetric")
    return GraphState(z, applied)


# -- Clifford maps (symbolic conjugation) ------------------------------------------


class CliffordMap:
    """A Clifford unitary U represented by the images U P U^dag of X_k and Z_k.

    The images are Pauli rows (x, z, r) of shape (2n, n): the image of X_k in
    row k and that of Z_k in row n + k.
    """

    def __init__(self, x_images: Sequence[PauliString], z_images: Sequence[PauliString]):
        images = list(x_images) + list(z_images)
        self.n = len(x_images)
        self.x = np.array([p.x for p in images], dtype=np.uint8).reshape(2 * self.n, self.n)
        self.z = np.array([p.z for p in images], dtype=np.uint8).reshape(2 * self.n, self.n)
        self.r = np.array([p.phase for p in images], dtype=np.uint8)

    @classmethod
    def _from_rows(cls, x: np.ndarray, z: np.ndarray, r: np.ndarray) -> "CliffordMap":
        m = cls.__new__(cls)
        m.n, m.x, m.z, m.r = x.shape[1], x, z, r
        return m

    @classmethod
    def identity(cls, n: int) -> "CliffordMap":
        eye, zero = np.eye(n, dtype=np.uint8), np.zeros((n, n), dtype=np.uint8)
        return cls._from_rows(np.concatenate([eye, zero]), np.concatenate([zero, eye]), np.zeros(2 * n, dtype=np.uint8))

    @classmethod
    def from_gates(cls, n: int, circuit: Iterable[Tuple[str, Tuple[int, ...]]]) -> "CliffordMap":
        m = cls.identity(n)
        for name, qubits in circuit:
            _conjugate_rows(m.x, m.z, m.r, name, qubits)
        return m

    def conjugate(self, p: PauliString) -> "PauliString":
        """U p U^dag for an arbitrary Pauli string."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        # X images first, then Z images: the image of X_j commutes with that of
        # Z_k for j != k, so this is the product in p's own qubit order
        rows = np.concatenate([p.x, p.z]).astype(bool)
        x, z, phase = _product(self.x[rows], self.z[rows], self.r[rows])
        # (x,z)=(1,1) denotes Y = i X Z
        return PauliString(x, z, phase + p.phase + int(np.sum(p.x & p.z)))

    def inverse(self) -> "CliffordMap":
        """Symplectic inverse: images of X_k, Z_k under U^dag . U."""
        n = self.n
        # column j of the GF(2) map on (x|z) bit vectors is the image in row j;
        # column t of the solution selects the images whose product is X_t (t < n) or Z_{t-n}
        mat = np.concatenate([self.x, self.z], axis=1).T
        sols = _gf2_solve_many(mat, np.eye(2 * n, dtype=np.uint8))
        if sols is None:
            raise ValueError("images are not independent over GF(2)")
        x, z = sols[:n].T.copy(), sols[n:].T.copy()
        # each preimage's sign cancels its product's phase and its Y = i X Z factors
        phases = np.array([_product(self.x[sel], self.z[sel], self.r[sel])[2] for sel in sols.T.astype(bool)])
        r = (-phases - np.sum(x & z, axis=1, dtype=np.int64)) % 4
        return self._from_rows(x, z, r.astype(np.uint8))


def conjugate_pauli(circuit: Iterable[Tuple[str, Tuple[int, ...]]], p: PauliString) -> PauliString:
    """U p U^dag for U given as an ordered gate list (first gate acts first)."""
    x, z, r = p.x[None].copy(), p.z[None].copy(), np.array([p.phase], dtype=np.uint8)
    for name, qubits in circuit:
        _conjugate_rows(x, z, r, name, qubits)
    return PauliString(x[0], z[0], r[0])


class TableauState:
    """Stabilizer tableau dressed with (site, slot) register keys.

    Mirrors the PureState mutation API closely enough that the LOCC engine can
    drive either backend: named Clifford gates, computational measurements,
    and dynamic add/remove of qubit entries.
    """

    def __init__(self, entries: Iterable[Tuple[int, str, int]]):
        self.keys: List[Tuple[int, str]] = []
        self._index: Dict[Tuple[int, str], int] = {}
        for site, slot, dim in entries:
            if dim != 2:
                raise ValueError("tableau backend supports qubits only")
            key = (int(site), str(slot))
            if key in self._index:
                raise ValueError(f"duplicate entry {key}")
            self._index[key] = len(self.keys)
            self.keys.append(key)
        self.tab = StabilizerTableau(len(self.keys))

    def index(self, key) -> int:
        try:
            return self._index[tuple(key)]
        except KeyError:
            raise KeyError(f"entry {key} not in register") from None

    def __contains__(self, key) -> bool:
        return tuple(key) in self._index

    def clone(self) -> "TableauState":
        s = TableauState.__new__(TableauState)
        s.keys, s._index = list(self.keys), dict(self._index)
        s.tab = self.tab.copy()
        return s

    def apply_named(self, name: str, entries) -> "TableauState":
        qubits = [self.index(e) for e in entries]
        self.tab.apply_gate(name, *qubits)
        return self

    def branch_probabilities(self, entry) -> np.ndarray:
        q = self.index(entry)
        tab = self.tab
        if np.any(tab.x[tab.n :, q]):
            return np.array([0.5, 0.5])
        bit = tab._deterministic_bit(PauliString.single(tab.n, q, "Z"), np.flatnonzero(tab.x[: tab.n, q]))
        probs = np.zeros(2)
        probs[bit] = 1.0
        return probs

    def measure(self, entry, force=None, rng=None):
        bit, prob, _ = self.tab.measure_z(self.index(entry), force=force, rng=rng)
        return bit, prob

    def measure_remove(self, entry, force=None, rng=None, p=None):
        """`measure`, then `remove_entry`: the one measurement the LOCC engine
        makes, as on dense states. `p` is not read; the tableau's
        probabilities are exact."""
        k, prob = self.measure(entry, force=force, rng=rng)
        self.remove_entry(entry)
        return k, prob

    def add_entry(self, site: int, slot: str, dim: int = 2, local_state=None) -> "TableauState":
        if dim != 2:
            raise ValueError("tableau backend supports qubits only")
        if local_state is not None:
            ls = np.asarray(local_state, dtype=complex)
            if not (abs(ls[0]) > 1 - 1e-9):
                raise ValueError("tableau ancillas must start in |0>")
        key = (int(site), str(slot))
        if key in self._index:
            raise ValueError(f"entry {key} already present")
        self.tab.add_qubits(1)
        self._index[key] = len(self.keys)
        self.keys.append(key)
        return self

    def remove_entry(self, entry) -> "TableauState":
        """Drop a decoupled entry; the last entry takes its index, as in
        `StabilizerTableau.remove_qubit`."""
        q = self.index(entry)
        self.tab.remove_qubit(q)
        del self._index[self.keys[q]]
        last = self.keys.pop()
        if q < len(self.keys):
            self.keys[q] = last
            self._index[last] = q
        return self

    def permuted(self, new_order) -> "TableauState":
        keys = [tuple(k) for k in new_order]
        if sorted(keys) != sorted(self.keys):
            raise ValueError("new order must be a permutation of the register")
        perm = [self.index(k) for k in keys]
        s = TableauState.__new__(TableauState)
        s.keys, s._index = keys, {k: i for i, k in enumerate(keys)}
        s.tab = self.tab.copy()
        s.tab.x, s.tab.z = s.tab.x[:, perm], s.tab.z[:, perm]
        return s

    def states_equal(self, other: "TableauState") -> bool:
        if self.keys != other.keys:
            other = other.permuted(self.keys)
        return self.tab.states_equal(other.tab)

    def fidelity(self, other: "TableauState") -> float:
        """1.0 when the states are equal, else 0.0: an equality test, since two
        distinct stabilizer states may still overlap."""
        if self.keys != other.keys:
            raise ValueError("fidelity requires identical registers")
        return float(self.states_equal(other))

