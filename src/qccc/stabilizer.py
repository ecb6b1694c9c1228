"""Binary-symplectic stabilizer tableau backend (Aaronson-Gottesman style).

Pauli strings use the Y convention: bits (x, z) = (1, 1) denote Y, and a
string is i^phase * (tensor of I/X/Y/Z). Stabilizer generators are kept
Hermitian with phase in {0, 2} (plus / minus).

The tableau of n qubits holds n destabilizer/stabilizer pairs, stored
qubit-major on bitset columns as in Stim (Gidney, arXiv:2103.02202): qubit
q's x column and z column are each one Python int whose bit b is row slot b.
Pair i sits in slot pair s = `_slot[i]`, its destabilizer at bit 2s and its
stabilizer at bit 2s + 1, and the phases mod 4 are two more ints used as bit
planes (`_r0` + 2 `_r1`). One int operation acts on every row at once, so,
with n qubits and w the rows an operation touches:

- a named Clifford is a few & and ^ on two columns and the sign plane;
- a measurement reads the rows that anticommute with its Pauli off the
  columns (Z_q: column x_q; a Pauli p: the XOR of the columns on p's
  support). A random outcome multiplies the pivot into them: one scan of the
  n columns finds the pivot's support, then each qubit of it costs a few int
  operations, the i-exponents of all the rows adding up in a bit-sliced
  two-bit counter. A determined outcome's sign is the product of the w
  stabilizers whose destabilizers anticommute with the Pauli, read by
  `_gather`: one byte copy of the columns (n S / 8 bytes, S the row slots)
  and O(n) per row;
- `remove_qubit` reads whether the qubit is decoupled off two columns; when
  one stabilizer is +/- P_q (exactly one destabilizer anticommutes with P_q)
  it costs O(1) int operations, otherwise an O(n w) row reduction finds it;
- `measure_remove`, the one measurement the LOCC engine makes, fuses a Z
  measurement with the removal: after a random outcome the stabilizers with
  Z on q take the outcome's sign, and the pivot's pair and column q go.

A removal moves the last pair and the last column into the freed ones, so
the last qubit takes the removed one's index. The freed slots stay in the
columns, masked out of every read by the live stabilizer bits `_sm`, until
they outnumber the live ones and `_compact` drops them in one batch (moving
the last pair's bits at once would cost a scan of the columns per removal).
Rows keep the bookkeeping of a row-major tableau: a random measurement's
pivot is the anticommuting stabilizer with the lowest index. `rows()` (and `x`, `z`, `r`) exports them as read-only
(2n, n) 0/1 arrays in that order, for the canonical form, the graph-state
reduction, dense conversion and the gadget extraction.

How each named Clifford conjugates a Pauli is written once, in
`_conjugate_rows`, over columns with & and ^ only: it runs on the int
columns of the tableau and of the frames engine, and on the numpy 0/1 rows of
the graph-state reduction, `CliffordMap` (which holds the images of X_k and
Z_k as tableau-shaped rows) and the by-product pull-back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    """Reject a qubit outside 0..n-1, which indexing would wrap or miss."""
    if not 0 <= q < n:
        raise ValueError(f"qubit {q} out of range")


def _conjugate_rows(x, z, name: str, qubits: Sequence[int]):
    """Conjugate Pauli rows by a named Clifford, in place, column by column.

    x[q] and z[q] are qubit q's columns: Python ints whose bit b is row b, or
    0/1 numpy arrays (the transpose of a (k, n) row stack). Only & and ^ touch
    them, so both kinds run through this one rule. Returns the rows whose
    sign flips, of the same kind: the tableau toggles its sign plane with it,
    a numpy caller applies `r ^= 2 * flip`.
    """
    n = len(x)
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range")
    name = name.upper()
    if len(qubits) == 2:
        a, b = qubits
        if a == b:
            raise ValueError(f"{name} requires distinct qubits")
        if name == "CNOT":
            t = x[a] & z[b]
            flip = t ^ (t & (x[b] ^ z[a]))
            x[b] ^= x[a]
            z[a] ^= z[b]
            return flip
        if name == "CZ":
            flip = x[a] & x[b] & (z[a] ^ z[b])
            z[a] ^= x[b]
            z[b] ^= x[a]
            return flip
        if name == "SWAP":
            for c in (x, z):
                c[a] ^= c[b]
                c[b] ^= c[a]
                c[a] ^= c[b]
            return 0
    elif name in _ONE_QUBIT:
        (q,) = qubits
        if name == "H":
            flip = x[q] & z[q]
            x[q] ^= z[q]
            z[q] ^= x[q]
            x[q] ^= z[q]
            return flip
        if name == "S":
            flip = x[q] & z[q]
            z[q] ^= x[q]
            return flip
        if name == "SDG":
            flip = x[q] ^ (x[q] & z[q])
            z[q] ^= x[q]
            return flip
        if name == "X":
            return z[q]
        if name == "Z":
            return x[q]
        return x[q] ^ z[q]
    raise ValueError(f"gate {name!r} is not a supported Clifford primitive")


_ONE_QUBIT = frozenset({"H", "S", "SDG", "X", "Y", "Z"})


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
        # (-1)^popcount(idx & zmask) as 1 - 2 * parity, and a scalar 1.0 when
        # there are no Z bits: the same products as one sign array, so the
        # same amplitudes, zero signs included
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & zmask) & 1) if zmask else 1.0
        out = np.zeros(dim, dtype=complex)
        out[idx ^ xmask] = (1j ** ((self.phase + ny) % 4)) * signs * vec
        return out


def _stabilizer_bits(k: int) -> int:
    """The stabilizer bits 1, 3, ..., 2k - 1 of k slot pairs."""
    return int("10" * k, 2) if k else 0


def _set_bits(m: int) -> Iterator[int]:
    """The positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _bit_matrix(cols: Sequence[int], nbits: int, bits: Optional[np.ndarray] = None) -> np.ndarray:
    """0/1 uint8 matrix of shape (len(cols), nbits), entry [k, b] bit b of
    cols[k]; or of shape (len(cols), len(bits)), entry [k, t] bit bits[t] of
    cols[k], when `bits` is given. The ints below nbits are copied as bytes
    (len(cols) nbits / 8 of them), and only the bytes that hold `bits` are
    read: a few bits cost one byte copy, not an nbits-wide unpack."""
    nbytes = (nbits + 7) // 8
    buf = b"".join([c.to_bytes(nbytes, "little") for c in cols])
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(cols), nbytes)
    if bits is None:
        return np.unpackbits(packed, axis=1, count=nbits, bitorder="little")
    return np.take(packed, bits >> 3, axis=1) >> (bits & 7).astype(np.uint8) & 1


def _int_columns(bits: np.ndarray) -> List[int]:
    """Each row of a 0/1 matrix as an int whose bit b is entry b (`_bit_matrix` inverted)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=1, bitorder="little")
    w, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[k * w : (k + 1) * w], "little") for k in range(len(packed))]


def _export(name: str) -> property:
    """One of the read-only row arrays of `rows()`; assigning one loads the
    rows back into the columns, the other two as they are."""
    k = "xzr".index(name)

    def write(self, value) -> None:
        rows = list(self.rows())
        rows[k] = np.asarray(value)
        self._load(*rows)

    return property(lambda self: self.rows()[k], write)


class StabilizerTableau:
    """CHP tableau of n qubits on bitset columns (see the module docstring).

    `_x[q]`, `_z[q]`: qubit q's columns; `_r0`, `_r1`: the phase bit planes;
    `_slot[i]`: the slot pair of destabilizer/stabilizer i; `_pair[s]`: the
    pair in slot s, -1 once freed; `_sm`: the live stabilizer bits.
    """

    x = _export("x")
    z = _export("z")
    r = _export("r")  # phase exponent mod 4

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n, self._x, self._z, self._r0, self._r1 = 0, [], [], 0, 0
        self._slot, self._pair, self._sm = [], [], 0
        self.add_qubits(n)

    # -- bookkeeping ---------------------------------------------------------

    def _load(self, x: np.ndarray, z: np.ndarray, r: np.ndarray) -> None:
        """Store the rows (x, z, r), of shapes (2n, n), (2n, n) and (2n,) in
        the order of `rows()`, with pair i in slot pair i."""
        n = x.shape[1]
        order = np.empty(2 * n, dtype=np.intp)
        order[0::2], order[1::2] = np.arange(n - 1, -1, -1), np.arange(n, 2 * n)
        r = np.asarray(r, dtype=np.uint8)[order]
        self._store(np.take(x.T, order, axis=1), np.take(z.T, order, axis=1), np.stack([r & 1, r >> 1 & 1]))

    def _store(self, x: np.ndarray, z: np.ndarray, r: np.ndarray) -> None:
        """Store 0/1 matrices x, z of shape (n, 2n), entry [q, b] the bit of
        qubit q in row slot b, and r (2, 2n), the phase bit planes, with pair
        i in slot pair i."""
        n = len(x)
        self._x, self._z, (self._r0, self._r1) = _int_columns(x), _int_columns(z), _int_columns(r)
        self.n, self._slot, self._pair, self._sm = n, list(range(n)), list(range(n)), _stabilizer_bits(n)

    def _columns_at(self, bits) -> List[np.ndarray]:
        """The x and z columns and the two phase planes cut down to the row
        bits `bits`, in that order: 0/1 arrays of shapes (n, k), (n, k), (2, k)."""
        bits, nbits = np.asarray(bits, dtype=np.intp), 2 * len(self._pair)
        return [_bit_matrix(cols, nbits, bits) for cols in (self._x, self._z, [self._r0, self._r1])]

    def _gather(self, bits) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows at bit positions `bits`, in that order, as 0/1 arrays x, z
        of shape (len(bits), n) and phases r: one byte copy of the columns,
        then O(n) per row."""
        x, z, (r0, r1) = self._columns_at(bits)
        return np.ascontiguousarray(x.T), np.ascontiguousarray(z.T), r0 | r1 << 1

    def rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tableau as read-only row arrays x, z (2n, n) and r (2n,): rows
        0..n-1 hold the destabilizers n-1..0 and rows n..2n-1 the stabilizers
        0..n-1, so row j pairs with row 2n-1-j."""
        slots = 2 * np.array(self._slot, dtype=np.intp)
        rows = self._gather(np.concatenate([slots[::-1], slots + 1]))
        for a in rows:
            a.flags.writeable = False
        return rows

    def _stabilizer_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows n..2n-1 of `rows()`: x, z (n, n) and r (n,), writable."""
        return self._gather(2 * np.array(self._slot, dtype=np.intp) + 1)

    def _compact(self) -> None:
        """Drop the freed slots: pair i moves to slot pair i."""
        slots = 2 * np.array(self._slot, dtype=np.intp)
        self._store(*self._columns_at(np.stack([slots, slots + 1], axis=1).ravel()))

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.__dict__.update(self.__dict__)
        t._x, t._z, t._slot, t._pair = self._x.copy(), self._z.copy(), self._slot.copy(), self._pair.copy()
        return t

    def permuted(self, perm: Sequence[int]) -> "StabilizerTableau":
        """A copy whose qubit k is this tableau's qubit perm[k]."""
        t = self.copy()
        t._x, t._z = [self._x[q] for q in perm], [self._z[q] for q in perm]
        return t

    def _phase(self, b: int) -> int:
        return (self._r0 >> b & 1) | (self._r1 >> b & 1) << 1

    def _add_phase(self, h: int, k: int) -> None:
        """r <- r + k (mod 4) on the rows of mask h."""
        if k & 1:
            self._r1 ^= self._r0 & h
            self._r0 ^= h
        if k & 2:
            self._r1 ^= h

    def _row(self, b: int) -> PauliString:
        return PauliString([c >> b & 1 for c in self._x], [c >> b & 1 for c in self._z], self._phase(b))

    def stabilizer(self, i: int) -> PauliString:
        return self._row(2 * self._slot[i] + 1)

    def destabilizer(self, i: int) -> PauliString:
        return self._row(2 * self._slot[i])

    def generators(self) -> List[PauliString]:
        x, z, r = self._stabilizer_rows()
        return [PauliString(x[i], z[i], r[i]) for i in range(self.n)]

    def _support(self, b: int) -> Tuple[List[int], List[int]]:
        """The qubits on which row bit b has an X bit, and those with a Z bit:
        one scan of the columns."""
        m, qubits = 1 << b, range(self.n)
        return list(compress(qubits, map(m.__and__, self._x))), list(compress(qubits, map(m.__and__, self._z)))

    def _rowmult(self, h: int, b: int, support=None) -> None:
        """Rows h (a mask) <- rows h * row b, with phase tracking, over row b's
        `support` (scanned when not given). At each qubit the rows that
        anticommute with row b's Pauli there add +1 or -1 to the i-exponent, in
        a two-bit counter (c0, c1) bit-sliced over the rows."""
        xs, zs = support or self._support(b)
        x, z, zset = self._x, self._z, set(zs)
        c0 = c1 = 0
        for q in xs:
            xh, zh = x[q] & h, z[q] & h
            if q in zset:  # Y: X rows +1, Z rows -1
                t = xh ^ zh
                minus = zh & t
                z[q] ^= h
            else:  # X: Z rows +1, Y rows -1
                t = zh
                minus = xh & t
            c1 ^= (c0 & t) ^ minus
            c0 ^= t
            x[q] ^= h
        for q in zset.difference(xs):  # Z: Y rows +1, X rows -1
            xh = x[q] & h
            t = xh
            minus = t ^ (z[q] & t)
            c1 ^= (c0 & t) ^ minus
            c0 ^= t
            z[q] ^= h
        self._r1 ^= c1 ^ (self._r0 & c0)
        self._r0 ^= c0
        self._add_phase(h, self._phase(b))

    def _pivot(self, stabs: int) -> int:
        """The bit of the stabilizer with the lowest index among the mask `stabs`."""
        if not stabs & (stabs - 1):
            return stabs.bit_length() - 1
        return 2 * self._slot[min(self._pair[b >> 1] for b in _set_bits(stabs))] + 1

    # -- gates ----------------------------------------------------------------

    def apply_gate(self, name: str, *qubits: int) -> "StabilizerTableau":
        self._r1 ^= _conjugate_rows(self._x, self._z, name, qubits)
        return self

    # -- measurement -----------------------------------------------------------

    def z_random(self, q: int) -> bool:
        """Whether measuring Z on qubit q has a random outcome: some stabilizer
        has an X bit there."""
        _check_qubit(q, self.n)
        return bool(self._x[q] & self._sm)

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
        return self._measure(PauliString.single(self.n, q, "Z"), self._x[q], force, rng)

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
        # the symplectic product with each row: the XOR of the columns p acts on
        anti = 0
        for q in np.flatnonzero(p.z).tolist():
            anti ^= self._x[q]
        for q in np.flatnonzero(p.x).tolist():
            anti ^= self._z[q]
        return self._measure(p, anti, force, rng)

    def _outcome(self, force, rng) -> int:
        if force is not None:
            return int(force)
        if rng is None:
            raise ValueError("sampled measurement requires an rng")
        return int(rng.integers(0, 2))

    def _measure(self, p: PauliString, anti: int, force, rng) -> Tuple[int, float, bool]:
        """Measure p, given the mask `anti` of the rows that anticommute with it."""
        sm = self._sm
        if anti & sm:
            bit = self._outcome(force, rng)
            b = self._pivot(anti & sm)
            support = self._support(b)
            self._rowmult(anti & (sm | sm >> 1) & ~(1 << b), b, support)
            # the pivot's destabilizer takes its row, and the pivot becomes +/- p
            d, mb, md = b - 1, 1 << b, 1 << b - 1
            for cols, old, row, new in zip((self._x, self._z), self._support(d), support, (p.x, p.z)):
                for q in old:
                    cols[q] ^= md
                for q in row:
                    cols[q] ^= mb | md
                for q in np.flatnonzero(new).tolist():
                    cols[q] |= mb
            keep = ~(mb | md)
            self._r0 = self._r0 & keep | self._r0 >> 1 & md | (p.phase & 1) << b
            self._r1 = self._r1 & keep | self._r1 >> 1 & md | (p.phase >> 1 ^ bit) << b
            return bit, 0.5, False
        bit = self._deterministic_bit(p, anti & sm >> 1)
        if force is not None and int(force) != bit:
            raise ValueError(f"forced outcome {force} has probability 0")
        return bit, 1.0, True

    def _deterministic_bit(self, p: PauliString, destabs: int) -> int:
        """Outcome bit of a Pauli p that commutes with every stabilizer.

        `destabs` masks the destabilizers anticommuting with p; the product of
        their stabilizer partners is +/- p, and its sign is the outcome.
        """
        x, z, phase = _product(*self._gather([b + 1 for b in _set_bits(destabs)]))
        if not (np.array_equal(x, p.x) and np.array_equal(z, p.z)):
            raise InternalError("deterministic measurement did not reproduce the Pauli")
        return 0 if phase == p.phase else 1

    def measure_remove(
        self,
        q: int,
        force: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, float, Optional[Tuple[List[int], List[int]]]]:
        """Measure Z on qubit q and remove it, in one step: the state and rows
        of `measure_z` then `remove_qubit`. Returns (outcome bit, probability,
        flip); flip is None for a determined outcome, else the qubits (before
        the removal) on which the stabilizer that the outcome replaced has X
        bits and Z bits: the Pauli that maps one outcome's state to the other's.

        A random outcome multiplies the pivot into the rows that anticommute
        with Z_q; then the pivot is +/- Z_q, the other stabilizers with Z on q
        take its sign, and the pivot's pair and column q go.
        """
        _check_qubit(q, self.n)
        sm = self._sm
        stabs = self._x[q] & sm
        if not (stabs or self._z[q] & sm):
            raise InternalError("no stabilizer acts on the qubit")
        if not stabs:
            bit, prob, _ = self.measure_z(q, force, rng)
            self.remove_qubit(q)
            return bit, prob, None
        bit = self._outcome(force, rng)
        b = self._pivot(stabs)
        flip = self._support(b)
        self._rowmult(self._x[q] & (sm | sm >> 1) & ~(3 << b - 1), b, flip)
        if bit:
            self._r1 ^= self._z[q] & sm & ~(1 << b)
        self._drop(b, q)
        return bit, 0.5, flip

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
        x = np.concatenate([d[::-1, :n], gx]).astype(np.uint8)
        z = np.concatenate([d[::-1, n:], gz]).astype(np.uint8)
        tab._load(x, z, np.concatenate([np.zeros(n, dtype=np.uint8), [g.phase for g in gens]]))
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
        x, z, r = self._stabilizer_rows()
        m = np.concatenate([x, z], axis=1)
        r = r.astype(np.int64)
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
        """Append k fresh qubits in |0>, in place: destabilizer X_j and
        stabilizer Z_j in new slots, which every old column has clear."""
        s0, n = len(self._pair), self.n
        self._slot += range(s0, s0 + k)
        self._pair += range(n, n + k)
        self._x += [1 << 2 * s for s in range(s0, s0 + k)]
        self._z += [2 << 2 * s for s in range(s0, s0 + k)]
        self._sm |= _stabilizer_bits(k) << 2 * s0
        self.n = n + k
        return self

    def remove_qubit(self, q: int) -> "StabilizerTableau":
        """Drop a decoupled qubit in place; the last qubit takes index q.

        q is decoupled iff every stabilizer acting on it carries the same Pauli
        P there, read off columns x_q and z_q; else it is entangled and this
        raises ValueError with the state and rows unchanged. Then one
        stabilizer s_p is brought to +/- P_q while every (destabilizer,
        stabilizer) pair stays symplectic, and the last qubit's pair and column
        move into p's pair and column q. When exactly one destabilizer
        anticommutes with P_q its partner already is +/- P_q, found with no
        scan, and the w others on q lose P by taking its sign; otherwise an
        O(n w) row reduction finds s_p.
        """
        _check_qubit(q, self.n)
        sm = self._sm
        xs, zs = self._x[q] & sm, self._z[q] & sm
        on = xs | zs
        if not on:
            raise InternalError("no stabilizer acts on the qubit")
        if xs not in (0, on) or zs not in (0, on):
            raise ValueError(f"qubit {q} is entangled; cannot remove")
        # the destabilizers anticommuting with P_q
        anti = ((self._z[q] if xs else 0) ^ (self._x[q] if zs else 0)) & sm >> 1
        if anti and not anti & (anti - 1):
            b = anti.bit_length()  # its partner's bit
            self._add_phase(on & ~(1 << b), self._phase(b))
        else:
            b = self._reduce(q, on)
        self._drop(b, q)
        return self

    def _reduce(self, q: int, on: int) -> int:
        """Row-reduce until the stabilizer with the lowest index among `on`
        (those acting on q) is +/- P_q; returns its bit. The row operations
        are those of a row-major tableau, so the rows match its rows."""
        b = self._pivot(on)
        d, others = b - 1, on & ~(1 << b)
        support = self._support(b)
        # clear q from the other stabilizers; the pivot's destabilizer absorbs theirs
        self._rowmult(others, b, support)
        dsupport = self._absorb(d, [s - 1 for s in _set_bits(others)])
        # s_p off q must be the product of the stabilizers paired with the
        # destabilizers that anticommute with it
        c = 0
        for k in support[0]:
            c ^= self._z[k] if k != q else 0
        for k in support[1]:
            c ^= self._x[k] if k != q else 0
        c &= self._sm >> 1
        if c >> d & 1:
            raise InternalError("the pivot's destabilizer anticommutes with the rest of its stabilizer")
        xs, zs = self._absorb(b, [j + 1 for j in _set_bits(c)])
        if c:
            self._rowmult(c, d, dsupport)
        if set(xs + zs) != {q}:
            raise InternalError("row reduction left the stabilizer off the qubit")
        return b

    def _absorb(self, b: int, bits: List[int]) -> Tuple[List[int], List[int]]:
        """Row b <- row b times the rows at `bits`, all commuting with it, as
        one product of gathered rows, written back on the qubits where row b
        changes; returns row b's support as `_support` does."""
        if not bits:
            return self._support(b)
        rows = self._gather([b, *bits])
        x, z, r = _product(*rows)
        m = 1 << b
        for cols, new, old in ((self._x, x, rows[0][0]), (self._z, z, rows[1][0])):
            for q in np.flatnonzero(new ^ old).tolist():
                cols[q] ^= m
        self._r0 = self._r0 & ~m | (r & 1) << b
        self._r1 = self._r1 & ~m | (r >> 1) << b
        return np.flatnonzero(x).tolist(), np.flatnonzero(z).tolist()

    def _drop(self, b: int, q: int) -> None:
        """Remove the pair of stabilizer bit b and column q: the last pair and
        the last column take their places. The pair's slots are freed, and
        dropped in one batch once they outnumber the live ones: the batch
        rewrites every column, O(n) bits per freed pair."""
        s, last = b >> 1, self.n - 1
        i = self._pair[s]
        self._sm &= ~(1 << b)
        self._pair[s] = -1
        moved = self._slot.pop()
        if i < last:
            self._slot[i] = moved
            self._pair[moved] = i
        x, z = self._x.pop(), self._z.pop()
        if q < last:
            self._x[q], self._z[q] = x, z
        self.n = last
        if len(self._pair) > 2 * self.n:
            self._compact()

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
    x, z, r = tab._stabilizer_rows()
    applied: List[Tuple[str, int]] = []
    for col in range(n):
        if not x[col:, col].any():
            if not z[col:, col].any():
                raise InternalError("invalid tableau: empty pivot column")
            r ^= 2 * _conjugate_rows(x.T, z.T, "H", (col,))
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
            r ^= 2 * _conjugate_rows(x.T, z.T, "S", (q,))
            applied.append(("S", q))
    for q in range(n):
        if r[q] == 2:
            r ^= 2 * _conjugate_rows(x.T, z.T, "Z", (q,))
            applied.append(("Z", q))
    if r.any():
        raise InternalError("graph reduction left a nontrivial phase")
    if np.diagonal(z).any():
        raise InternalError("graph reduction left a diagonal entry")
    if not np.array_equal(z, z.T):
        raise InternalError("graph adjacency not symmetric")
    return GraphState(z, applied)


# -- Clifford maps (symbolic conjugation) ------------------------------------------


@dataclass(eq=False)  # rows are arrays: compare them with np.array_equal
class CliffordMap:
    """A Clifford unitary U represented by the images U P U^dag of X_k and Z_k.

    The images are Pauli rows (x, z, r) of shape (2n, n): the image of X_k in
    row k and that of Z_k in row n + k.
    """

    x: np.ndarray
    z: np.ndarray
    r: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_gates(cls, n: int, circuit: Iterable[Tuple[str, Tuple[int, ...]]]) -> "CliffordMap":
        """The map of an ordered gate list (first gate acts first) on n qubits."""
        m = cls(np.eye(2 * n, n, dtype=np.uint8), np.eye(2 * n, n, -n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))
        for name, qubits in circuit:
            m.r ^= 2 * _conjugate_rows(m.x.T, m.z.T, name, qubits)
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
        if tab.z_random(q):
            return np.array([0.5, 0.5])
        bit = tab._deterministic_bit(PauliString.single(tab.n, q, "Z"), tab._x[q] & tab._sm >> 1)
        probs = np.zeros(2)
        probs[bit] = 1.0
        return probs

    def measure(self, entry, force=None, rng=None):
        bit, prob, _ = self.tab.measure_z(self.index(entry), force=force, rng=rng)
        return bit, prob

    def measure_remove(self, entry, force=None, rng=None, p=None):
        """`measure`, then `remove_entry`, fused in `StabilizerTableau.measure_remove`:
        the one measurement the LOCC engine makes, as on dense states. `p` is
        not read; the tableau's probabilities are exact."""
        q = self.index(entry)
        k, prob, _ = self.tab.measure_remove(q, force=force, rng=rng)
        self._drop_key(q)
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
        self._drop_key(q)
        return self

    def _drop_key(self, q: int) -> None:
        """Forget the key at index q; the last key takes the index."""
        del self._index[self.keys[q]]
        last = self.keys.pop()
        if q < len(self.keys):
            self.keys[q] = last
            self._index[last] = q

    def permuted(self, new_order) -> "TableauState":
        keys = [tuple(k) for k in new_order]
        if sorted(keys) != sorted(self.keys):
            raise ValueError("new order must be a permutation of the register")
        perm = [self.index(k) for k in keys]
        s = TableauState.__new__(TableauState)
        s.keys, s._index = keys, {k: i for i, k in enumerate(keys)}
        s.tab = self.tab.permuted(perm)
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

