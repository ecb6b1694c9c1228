"""Exact dense pure-state backend over a register of heterogeneous qudits.

A register entry is keyed by (site, slot): the slot "s" is the physical qudit
of that site (protocols with composite physical spaces use several system
slots), everything else is an ancilla. Entries can be added and removed
dynamically; removal requires the entry to be decoupled from the rest.

Amplitude layout: C order over the register, first entry slowest-varying.
Internally the state is a tensor whose axes are labelled by entry key, in
whatever order the applied operators left them, times one small product factor
per entry known to be unentangled, such as a fresh ancilla. A factor joins
the tensor only when an operation other than SWAP acts on it. A SWAP is a
relabelling, whatever each side holds, so carrier ancillas that only move
qudits around never grow the tensor, and removing a factor costs O(1). A tensor entry back in |0> is removed by taking its
index-0 slice; only other entries need the reduced-state test. `amps`,
`tensor` and every other reader see the logical state in register order;
when the tensor already follows the register, `amps` is a reshape of it.

A Pauli X^x Z^z on a qudit moves indices instead of multiplying by a matrix
(`apply_paulis`, which `apply_named` uses for X, Y and Z on a qubit): X^x
rolls the entry's axis by x, a flip on a qubit (a view, so the tensor may be
strided), Z^z multiplies by one phase per index, and a product factor rolls
and phases its own vector. A whole string takes one flip of its qubit axes,
one roll of its other axes and one multiply, and `byproduct_residuals` moves
a measurement outcome's slice (a view) the same way. CNOT and CZ between two
materialised qubit axes move indices too: CNOT joins the control's 0-slice
to its 1-slice flipped on the target axis, and CZ negates the target's
1-half of the control's 1-slice. Each is exact, so it gives the bits of the
matrix product; the tensor keeps its axis order.
Nothing writes `_t` in place, so a clone shares it.

A measurement (`measure_remove`) reads one entry in the computational basis
and drops it from the register. A forced outcome reads only its own slice, and
divides it by the norm in the same pass. Its probability is the slice's
squared norm, summed in the order that `branch_probabilities` sums the whole
distribution, so both give the same bits; a caller that already holds that
distribution passes the outcome's entry as `p`, and the slice is not summed
again. Adding or dropping an entry edits the register in O(n) without
re-validating the other entries.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import gates

EntryKey = Tuple[int, str]

DEFAULT_MAX_AMPLITUDES = 2**27
NORM_TOL = 1e-10
DECOUPLE_TOL = 1e-9
FORCE_FLOOR = 1e-12  # a forced outcome below this probability raises


class CapacityError(RuntimeError):
    """Raised instead of allocating a dense array beyond the amplitude cap."""


class ProtocolError(RuntimeError):
    """A protocol step that cannot run on its state (see `qccc.locc`)."""


def max_amplitudes() -> int:
    return int(os.environ.get("QCCC_MAX_AMPLITUDES", DEFAULT_MAX_AMPLITUDES))


def check_amplitudes(count: int, what: str) -> None:
    """The one size cap: call before allocating a dense array of `count`
    complex entries that grows with the system (a register, a dim x dim
    unitary, a blocked tensor, a writer)."""
    cap = max_amplitudes()
    if count > cap:
        raise CapacityError(f"{what} needs {count} amplitudes, over the cap {cap}")


class QuditRegister:
    """Ordered collection of (site, slot, dim) entries with unique (site, slot) keys."""

    def __init__(self, entries: Iterable[Tuple[int, str, int]]):
        self._pos: Dict[EntryKey, int] = {}
        dims: List[int] = []
        for site, slot, dim in entries:
            key = self._new_key(site, slot, dim)
            self._pos[key] = len(dims)
            dims.append(int(dim))
        total = math.prod(dims)
        check_amplitudes(total, "the register")
        self._keys: Tuple[EntryKey, ...] = tuple(self._pos)
        self._dims: Tuple[int, ...] = tuple(dims)
        self._total = total

    @property
    def keys(self) -> Tuple[EntryKey, ...]:
        return self._keys

    @property
    def dims(self) -> Tuple[int, ...]:
        return self._dims

    @property
    def size(self) -> int:
        return len(self._keys)

    @property
    def total_dim(self) -> int:
        return self._total

    def index(self, key: EntryKey) -> int:
        try:
            return self._pos[tuple(key)]
        except KeyError:
            raise KeyError(f"entry {key} not in register") from None

    def dim(self, key: EntryKey) -> int:
        return self._dims[self.index(key)]

    def __contains__(self, key) -> bool:
        return tuple(key) in self._pos

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuditRegister)
            and self._keys == other._keys
            and self._dims == other._dims
        )

    def entries(self) -> List[Tuple[int, str, int]]:
        return [(s, sl, d) for (s, sl), d in zip(self._keys, self._dims)]

    def describe(self) -> List[dict]:
        return [{"site": s, "slot": sl, "dim": d} for (s, sl), d in zip(self._keys, self._dims)]

    def appended(self, site: int, slot: str, dim: int) -> "QuditRegister":
        """A copy with one entry appended; only the new entry is validated."""
        key = self._new_key(site, slot, dim)
        total = self._total * int(dim)
        check_amplitudes(total, "the register")
        pos = dict(self._pos)
        pos[key] = len(self._keys)
        return self._derived(pos, self._keys + (key,), self._dims + (int(dim),), total)

    def without(self, key: EntryKey) -> "QuditRegister":
        """A copy with one entry dropped."""
        i = self.index(key)
        keys = self._keys[:i] + self._keys[i + 1 :]
        dims = self._dims[:i] + self._dims[i + 1 :]
        return self._derived(dict(zip(keys, range(len(keys)))), keys, dims, self._total // self._dims[i])

    def _new_key(self, site: int, slot: str, dim: int) -> EntryKey:
        """The key of an entry that may join: not present yet, dimension >= 2."""
        key = (int(site), str(slot))
        if key in self._pos:
            raise ValueError(f"duplicate register entry {key}")
        if dim < 2:
            raise ValueError(f"local dimension must be >= 2, got {dim} for {key}")
        return key

    @classmethod
    def _derived(cls, pos, keys, dims, total) -> "QuditRegister":
        reg = cls.__new__(cls)
        reg._pos, reg._keys, reg._dims, reg._total = pos, keys, dims, total
        return reg


@dataclass
class RegionOperator:
    """Operator given as a dense matrix over an ordered tuple of register entries.

    Matrix index convention matches the register's: first listed entry is the
    slowest-varying index.
    """

    entries: Tuple[EntryKey, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.entries = tuple((int(s), str(sl)) for s, sl in self.entries)
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("operator support has duplicate entries")
        n = self.matrix.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape != (n, n):
            raise ValueError("operator matrix must be square")


def pauli_on(entry: EntryKey, name: str) -> RegionOperator:
    return RegionOperator((entry,), gates.named_gate(name))


# each qubit Pauli as the powers (x, z) of X^x Z^z, up to phase
_PAULI_POWERS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# the phase a qubit index takes after X^x flips it, by (x, z); XZ is applied as Y
_QUBIT_PHASES = {(0, 0): None, (1, 0): None, (1, 1): np.array([-1j, 1j]), (0, 1): np.array([1, -1], dtype=complex)}


def _pauli_phase(d: int, x: int, z: int) -> Optional[np.ndarray]:
    """The phase of each index after X^x Z^z (Z first) has rolled a
    dimension-d axis by x: index j takes w^(z (j - x)), w = exp(2 pi i / d).
    None when there is none; on a qubit, XZ is Y."""
    if d == 2:
        return _QUBIT_PHASES[x, z]
    return np.exp(2j * np.pi / d) ** (z * (np.arange(d) - x) % d) if z else None


def _pauli_moved(t: np.ndarray, axis: Dict[EntryKey, int], paulis, d: int) -> np.ndarray:
    """`t` with X^x Z^z (Z first) on axis `axis[key]` of each (key, x, z) in
    `paulis`, all of dimension d: qubit axes flip in one `np.flip` (a view),
    other axes roll in one `np.roll`, every phase multiplies at once."""
    flips, shifts, rolled, phase = [], [], [], np.ones(())
    for key, x, z in paulis:
        ax = axis[key]
        if d == 2:
            flips += [ax] * x
        elif x:
            shifts.append(x)
            rolled.append(ax)
        vec = _pauli_phase(d, x, z)
        if vec is not None:
            phase = phase * vec.reshape((d,) + (1,) * (t.ndim - ax - 1))
    t = np.flip(t, flips)
    if shifts:
        t = np.roll(t, shifts, rolled)
    return t * phase if phase.ndim else t


def _controlled_along(t: np.ndarray, c: int, x: int, name: str) -> np.ndarray:
    """CNOT or CZ with control axis `c` and target axis `x` of `t`, both of
    dimension 2, in one copy: CNOT joins the control's 0-slice to its 1-slice
    flipped on `x`, CZ negates the (1, 1) quarter of a copy."""
    if name == "CNOT":
        zero, one = np.split(t, 2, axis=c)
        return np.concatenate((zero, np.flip(one, x)), axis=c)
    out = t.copy()
    quarter = [slice(None)] * t.ndim
    quarter[c] = quarter[x] = slice(1, 2)
    np.negative(out[tuple(quarter)], out=out[tuple(quarter)])
    return out


def _mass(weights: np.ndarray) -> np.ndarray:
    """Sum weights of shape (lead, d, rest) over the first and last axes:
    each row of `rest` pairwise, then the `lead` rows in order. That is the
    order of numpy's own sum over every axis but one of a C-ordered tensor,
    so one outcome's slice (d = 1) gives the bits of the full distribution."""
    return np.cumsum(weights.sum(axis=2), axis=0)[-1]


def _forced(k: int, p) -> float:
    """The probability of forced outcome k; raises below FORCE_FLOOR."""
    if p < FORCE_FLOOR:
        raise ValueError(f"forced outcome {k} has vanishing probability {p:.3e}")
    return float(p)


class PureState:
    """Normalized dense pure state over a QuditRegister.

    The state is the materialised tensor `_t`, one axis per key in `_keys`,
    times one normalised product factor per key in `_lazy`. Every register key
    is in exactly one of the two. Arrays held in `_t` and `_lazy` are never
    written in place: every operation binds a new array, so a clone shares
    `_t` and the factor vectors, and `_t` or a factor may be a strided view,
    such as the flipped axis an X leaves.
    """

    def __init__(self, register: QuditRegister, amplitudes: np.ndarray, norm_tol: float = NORM_TOL):
        self.register = register
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != register.total_dim:
            raise ValueError(
                f"amplitude vector of length {amps.size} does not match register dim {register.total_dim}"
            )
        n = np.linalg.norm(amps)
        if abs(n - 1.0) > norm_tol:
            raise ValueError(f"state not normalized: ||psi|| = {n}")
        self._t = amps.reshape(register.dims) if register.size else amps.reshape(())
        self._relabel(list(register.keys))
        self._lazy: Dict[EntryKey, np.ndarray] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def product(
        cls,
        register: QuditRegister,
        assignment: Optional[Dict[EntryKey, Sequence[complex]]] = None,
    ) -> "PureState":
        """Tensor product state; unassigned entries start in |0>.

        Every entry starts as a product factor, as a fresh ancilla does.
        """
        assignment = {tuple(k): v for k, v in (assignment or {}).items()}
        state = cls(QuditRegister([]), np.ones(1, dtype=complex))
        for (site, slot), d in zip(register.keys, register.dims):
            state.add_entry(site, slot, d, assignment.pop((site, slot), None))
        if assignment:
            raise ValueError(f"assignment refers to unknown entries {sorted(assignment)}")
        state.register = register
        return state

    def clone(self) -> "PureState":
        s = PureState.__new__(PureState)
        s.register = self.register
        s._t = self._t
        s._keys = list(self._keys)
        s._axis = dict(self._axis)
        s._lazy = dict(self._lazy)
        return s

    # -- layout helpers ----------------------------------------------------

    @property
    def amps(self) -> np.ndarray:
        """Flat amplitudes in register order (first entry slowest-varying)."""
        if tuple(self._keys) == self.register.keys:  # so no factor is left out
            return self._t.reshape(-1)
        return self._split(self.register.keys).reshape(-1)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.register.dims)

    def _relabel(self, keys: List[EntryKey]) -> None:
        self._keys = keys
        self._axis = {k: a for a, k in enumerate(keys)}

    def _split(self, keys: Sequence[EntryKey]) -> np.ndarray:
        """Matrix with `keys` as composite row index and the other tensor
        entries as column index.

        Factors outside `keys` are left out: each is a normalised product
        factor, so leaving it out changes no reduced state on `keys`, no
        Schmidt rank across them and no expectation value on them.
        """
        keys = [tuple(k) for k in keys]
        for k in keys:
            self.register.index(k)
        t, pos = self._t, dict(self._axis)
        for k in keys:
            if k in self._lazy:
                pos[k] = t.ndim
                t = np.multiply.outer(t, self._lazy[k])
        axes = [pos[k] for k in keys]
        rest = [a for a in range(t.ndim) if a not in axes]
        d_sel = 1
        for a in axes:
            d_sel *= t.shape[a]
        return t.transpose(axes + rest).reshape(d_sel, -1)

    def _drop_axis(self, ax: int) -> None:
        self._relabel(self._keys[:ax] + self._keys[ax + 1 :])

    # -- operations --------------------------------------------------------

    def apply(self, op: RegionOperator, unitary_check: bool = True) -> "PureState":
        """Apply an operator in place on its support; returns self."""
        for k in op.entries:
            if k not in self.register:
                raise KeyError(f"operator entry {k} not in register")
        dims = [self.register.dim(k) for k in op.entries]
        d_sup = int(np.prod(dims, dtype=np.int64))
        if op.matrix.shape[0] != d_sup:
            raise ValueError(
                f"operator dimension {op.matrix.shape[0]} does not match support dimension {d_sup}"
            )
        if unitary_check and not gates.is_unitary(op.matrix):
            raise ValueError("operator is not unitary (pass unitary_check=False to override)")
        m = op.matrix
        if any(k in self._lazy for k in op.entries):
            # a factor entry joins the tensor through the operator's output:
            # its input leg is contracted with the factor's vector
            m = m.reshape(dims + dims)
            for i in reversed(range(len(dims))):
                if op.entries[i] in self._lazy:
                    m = np.tensordot(m, self._lazy.pop(op.entries[i]), axes=(len(dims) + i, 0))
            m = m.reshape(d_sup, -1)
        axes = [self._axis[k] for k in op.entries if k in self._axis]
        rest = [a for a in range(self._t.ndim) if a not in axes]
        mat = self._t.transpose(axes + rest).reshape(m.shape[1], -1)
        out = m @ mat
        self._t = out.reshape(dims + [self._t.shape[a] for a in rest])
        self._relabel(list(op.entries) + [self._keys[a] for a in rest])
        return self

    def apply_named(self, name: str, entries: Sequence[EntryKey]) -> "PureState":
        if name.upper() == "SWAP":
            a, b = (tuple(k) for k in entries)
            if self.register.dim(a) != self.register.dim(b):
                raise ValueError("swap requires equal local dimensions")
            self._exchange(a, b)
            return self
        if name in _PAULI_POWERS and len(entries) == 1 and self.register.dim(tuple(entries[0])) == 2:
            return self.apply_paulis([(tuple(entries[0]), *_PAULI_POWERS[name])])
        if name in ("CNOT", "CZ") and len(entries) == 2:
            c, x = (self._axis.get(tuple(k)) for k in entries)
            if None not in (c, x) and c != x and self._t.shape[c] == self._t.shape[x] == 2:
                self._t = _controlled_along(self._t, c, x, name)
                return self
        return self.apply(RegionOperator(tuple(entries), gates.named_gate(name)), unitary_check=False)

    def apply_paulis(self, paulis: Sequence[Tuple[EntryKey, int, int]], d: int = 2) -> "PureState":
        """X^x Z^z (Z first, x and z in Z_d; on a qubit XZ is Y) on each of
        distinct entries of dimension d by `_pauli_moved`, once on the tensor
        and once per product factor. Another dimension raises ProtocolError
        before any edit."""
        for key, _, _ in paulis:
            if self.register.dim(key) != d:
                raise ProtocolError(f"a Pauli over Z_{d} on entry {key} of dimension {self.register.dim(key)}")
        factors = [p for p in paulis if p[0] in self._lazy]
        self._lazy.update({k: _pauli_moved(self._lazy[k], {k: 0}, [(k, x, z)], d) for k, x, z in factors})
        self._t = _pauli_moved(self._t, self._axis, [p for p in paulis if p[0] not in self._lazy], d)
        return self

    def byproduct_residuals(self, entry: EntryKey, paulis, d: int, free=()) -> Optional[np.ndarray]:
        """For k = 1 ... dim - 1, a bound on the least norm of P^k psi_k - c psi_0
        over one unit phase c per basis state of the `free` tensor entries:
        psi_k is the unnormalised slice of `entry` at k (a view of the tensor),
        P^k the string `paulis` over Z_d with its powers times k. A product
        factor v on the string adds |psi_k| |P^k v - w v|, w the phase of
        <v, P^k v>: nothing for Z on |0>. None when `entry` is a product
        factor, which no slice shows, or the string names an absent entry."""
        key = tuple(entry)
        if key not in self._axis or any(e not in self._axis and e not in self._lazy for e, _, _ in paulis):
            return None
        ax = self._axis[key]
        axis = {e: a - (a > ax) for e, a in self._axis.items() if e != key}
        summed = tuple(a for e, a in axis.items() if e not in free)
        zero = self._project(ax, 0)
        residuals = []
        for k in range(1, self._t.shape[ax]):
            powers = [(e, k * x % d, k * z % d) for e, x, z in paulis]
            moved = _pauli_moved(self._project(ax, k), axis, [p for p in powers if p[0] in axis], d)
            overlap = np.sum(zero.conj() * moved, axis=summed, keepdims=True)
            residual = np.linalg.norm(moved - np.exp(1j * np.angle(overlap)) * zero)
            for e, x, z in powers:
                if e not in axis:
                    v = self._lazy[e]
                    w = _pauli_moved(v, {e: 0}, [(e, x, z)], d)
                    residual += np.linalg.norm(moved) * np.linalg.norm(w - np.exp(1j * np.angle(np.vdot(v, w))) * v)
            residuals.append(residual)
        return np.array(residuals)

    def _exchange(self, a: EntryKey, b: EntryKey) -> None:
        """Swap the contents of two entries by relabelling: no amplitude moves."""
        va, vb = self._lazy.pop(a, None), self._lazy.pop(b, None)
        ia, ib = self._axis.pop(a, None), self._axis.pop(b, None)
        if va is not None:
            self._lazy[b] = va
        if vb is not None:
            self._lazy[a] = vb
        if ia is not None:
            self._axis[b] = ia
            self._keys[ia] = b
        if ib is not None:
            self._axis[a] = ib
            self._keys[ib] = a

    def branch_probabilities(self, entry: EntryKey) -> np.ndarray:
        """Born-rule probabilities for measuring one entry in the computational basis."""
        key = tuple(entry)
        if key in self._lazy:
            return np.abs(self._lazy[key]) ** 2
        ax = self._axis[key]
        return _mass((np.abs(self._t) ** 2).reshape(math.prod(self._t.shape[:ax]), self._t.shape[ax], -1))

    def measure_remove(
        self,
        entry: EntryKey,
        force: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        p: Optional[float] = None,
    ) -> Tuple[int, float]:
        """Measure one entry in the computational basis and drop it from the
        register in a single pass. Returns (outcome index, probability).

        A sampled outcome draws from the full distribution. A forced one reads
        only its own slice, whose squared norm is its probability unless the
        caller, which already holds `branch_probabilities(entry)`, gives the
        outcome's entry as `p`; below FORCE_FLOOR it raises.
        """
        key = tuple(entry)
        d = self.register.dim(key)
        if force is None:
            if rng is None:
                raise ValueError("sampled measurement requires an rng")
            probs = self.branch_probabilities(key)
            k = int(rng.choice(d, p=probs / probs.sum()))
            p = float(probs[k])
        else:
            k = int(force)
            if not 0 <= k < d:
                raise ValueError(f"forced outcome {k} out of range")
        if key in self._lazy:
            local = self._lazy[key]
            if force is not None:
                p = _forced(k, (np.abs(local) ** 2)[k] if p is None else p)
            del self._lazy[key]
            phase = local[k] / abs(local[k])
            if phase != 1:
                self._t = self._t * phase
        else:
            ax = self._axis[key]
            rest = self._project(ax, k)
            if force is not None:
                if p is None:
                    p = _mass((np.abs(rest) ** 2).reshape(math.prod(self._t.shape[:ax]), 1, -1))[0]
                p = _forced(k, p)
            self._t = np.divide(rest, np.sqrt(p))
            self._drop_axis(ax)
        self._drop_register_entry(key)
        return k, p

    def _project(self, ax: int, k: int) -> np.ndarray:
        """The slice of `_t` at outcome k of axis `ax`, a view."""
        return self._t[(slice(None),) * ax + (k,)]

    def _drop_register_entry(self, key: EntryKey) -> None:
        self.register = self.register.without(key)

    def expectation(self, op: RegionOperator) -> complex:
        mat = self._split(op.entries)
        if op.matrix.shape[0] != mat.shape[0]:
            raise ValueError(
                f"operator dimension {op.matrix.shape[0]} does not match support dimension {mat.shape[0]}"
            )
        return complex(np.vdot(mat, op.matrix @ mat))

    def fidelity(self, other: "PureState") -> float:
        if self.register != other.register:
            raise ValueError("fidelity requires identical registers")
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)

    def max_entropy(self, entries: Sequence[EntryKey], rank_tol: float = 1e-10) -> float:
        """log2 of the Schmidt rank across the bipartition entries | rest: the
        Schmidt coefficients above rank_tol times the largest, rank_tol in [0, 1)."""
        if not 0 <= rank_tol < 1:
            raise ValueError(f"rank_tol must lie in [0, 1), got {rank_tol}")
        keys = [tuple(k) for k in entries]
        if len(keys) == 0 or len(keys) == self.register.size:
            raise ValueError("max_entropy requires a proper non-empty sub-register")
        s = np.linalg.svd(self._split(keys), compute_uv=False)
        rank = int(np.sum(s > rank_tol * s[0]))
        return float(np.log2(rank))

    def reduced_density(self, keep: Sequence[EntryKey]) -> np.ndarray:
        """Reduced density matrix over the kept entries (in the given order)."""
        if len(keep) == 0:
            raise ValueError("cannot trace out every entry")
        mat = self._split(keep)
        return mat @ mat.conj().T

    # -- dynamic register --------------------------------------------------

    def add_entry(self, site: int, slot: str, dim: int, local_state=None) -> "PureState":
        """Append a fresh decoupled qudit (default |0>) at the end of the register.

        It is kept as a product factor until an operation other than SWAP
        touches it.
        """
        key = (int(site), str(slot))
        if key in self.register:
            raise ValueError(f"entry {key} already present")
        if local_state is None:
            local_state = np.zeros(dim, dtype=complex)
            local_state[0] = 1.0
        local_state = np.array(local_state, dtype=complex).reshape(-1)
        if local_state.size != dim or abs(np.linalg.norm(local_state) - 1.0) > NORM_TOL:
            raise ValueError("ancilla init state must be normalized and of the declared dim")
        self.register = self.register.appended(site, slot, dim)
        self._lazy[key] = local_state
        return self

    def remove_entry(self, entry: EntryKey) -> "PureState":
        """Drop a decoupled entry; raises when it is still entangled with the rest.

        A product factor goes in O(1). A materialised entry in |0> is accepted
        when its index-0 slice keeps weight >= 1 - DECOUPLE_TOL, which bounds the top
        eigenvalue of its reduced state from below; any other entry is tested
        on that reduced state.
        """
        key = tuple(entry)
        self.register.index(key)
        if self._lazy.pop(key, None) is None:
            ax = self._axis[key]
            rest = self._project(ax, 0)
            weight = np.vdot(rest, rest).real
            if weight < 1.0 - DECOUPLE_TOL:
                d = self._t.shape[ax]
                mat = np.moveaxis(self._t, ax, 0).reshape(d, -1)
                w, v = np.linalg.eigh(mat @ mat.conj().T)
                if 1.0 - w[-1] > DECOUPLE_TOL:
                    raise ValueError(f"entry {key} is not decoupled (residual {1.0 - w[-1]:.3e})")
                rest = np.tensordot(v[:, -1].conj(), self._t, axes=(0, ax))
                weight = np.vdot(rest, rest).real
            self._t = rest / np.sqrt(weight)
            self._drop_axis(ax)
        self._drop_register_entry(key)
        return self

    def permuted(self, new_order: Sequence[EntryKey]) -> "PureState":
        """Return a copy with register entries reordered."""
        keys = tuple(tuple(k) for k in new_order)
        if keys == self.register.keys:
            return PureState(self.register, self.amps)
        if sorted(keys) != sorted(self.register.keys):
            raise ValueError("new order must be a permutation of the register")
        reg = QuditRegister([(s, sl, self.register.dim((s, sl))) for s, sl in keys])
        return PureState(reg, self._split(keys).reshape(-1))

    # -- serialization -----------------------------------------------------

    def dump(self) -> dict:
        return {
            "register": self.register.describe(),
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amps],
        }

    def dumps(self) -> str:
        return json.dumps(self.dump())

    @classmethod
    def load(cls, data) -> "PureState":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("a state file must be a JSON object")
        try:
            reg = QuditRegister([(e["site"], e["slot"], e["dim"]) for e in data["register"]])
        except (TypeError, KeyError):
            raise ValueError("'register' must be a list of objects with site, slot and dim") from None
        return cls(reg, complex_pairs(data["amplitudes"], "'amplitudes'"))


def complex_pairs(rows, what: str) -> np.ndarray:
    """Complex numbers listed as JSON [re, im] pairs; ValueError for anything else."""
    try:
        return np.array([complex(re, im) for re, im in rows])
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a list of [re, im] pairs") from None

