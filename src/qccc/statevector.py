"""Exact dense pure-state backend over a register of heterogeneous qudits.

A register entry is keyed by (site, slot): the slot "s" is the physical qudit
of that site (protocols with composite physical spaces use several system
slots), everything else is an ancilla. Entries can be added and removed
dynamically; removal requires the entry to be decoupled from the rest.

Amplitude layout: C order over the register, first entry slowest-varying.
Internally the state is a tensor whose axes are labelled by entry key, in
whatever order the applied operators left them, times one small product factor
per entry known to be unentangled: a fresh ancilla, and an entry collapsed by
`measure`. A factor joins the tensor only when an operation other than SWAP
acts on it. A SWAP is a relabelling, whatever each side holds, so carrier
ancillas that only move qudits around never grow the tensor, and removing a
factor costs O(1). A tensor entry back in |0> is removed by taking its
index-0 slice; only other entries need the reduced-state test. `amps`,
`tensor` and every other reader see the logical state in register order.
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
            key = (int(site), str(slot))
            if key in self._pos:
                raise ValueError(f"duplicate register entry {key}")
            if dim < 2:
                raise ValueError(f"local dimension must be >= 2, got {dim} for {key}")
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


class PureState:
    """Normalized dense pure state over a QuditRegister.

    The state is the materialised tensor `_t`, one axis per key in `_keys`,
    times one normalised product factor per key in `_lazy`. Every register key
    is in exactly one of the two. Arrays held in `_t` and `_lazy` are never
    written in place, so a clone may share the factor vectors.
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
        self.norm_tol = norm_tol

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
        s._t = self._t.copy()
        s._keys = list(self._keys)
        s._axis = dict(self._axis)
        s._lazy = dict(self._lazy)
        s.norm_tol = self.norm_tol
        return s

    # -- layout helpers ----------------------------------------------------

    @property
    def amps(self) -> np.ndarray:
        """Flat amplitudes in register order (first entry slowest-varying)."""
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
        return self.apply(RegionOperator(tuple(entries), gates.named_gate(name)), unitary_check=False)

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

    def branch_probabilities(self, entry: EntryKey, basis: Optional[np.ndarray] = None) -> np.ndarray:
        """Born-rule probabilities for measuring one entry in the given basis.

        `basis` has the basis vectors as columns; None means computational.
        """
        key = tuple(entry)
        d = self.register.dim(key)
        if basis is not None:
            basis = np.asarray(basis, dtype=complex)
            if basis.shape != (d, d) or not gates.is_unitary(basis):
                raise ValueError("measurement basis must be an orthonormal d x d frame")
        if key in self._lazy:
            local = self._lazy[key] if basis is None else basis.conj().T @ self._lazy[key]
            return np.abs(local) ** 2
        ax = self._axis[key]
        if basis is None:
            weights = np.abs(self._t) ** 2
            other = tuple(a for a in range(self._t.ndim) if a != ax)
            probs = weights.sum(axis=other) if other else weights
        else:
            proj = np.tensordot(basis.conj().T, self._t, axes=(1, ax))
            other = tuple(range(1, proj.ndim))
            probs = (np.abs(proj) ** 2).sum(axis=other) if other else np.abs(proj) ** 2
        return np.asarray(probs).real.reshape(-1)

    def measure(
        self,
        entry: EntryKey,
        basis: Optional[np.ndarray] = None,
        force: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, float]:
        """Projective measurement of one entry; collapses in place.

        The measured entry is left as a product factor holding its basis
        vector. Returns (outcome index, probability). Forced outcomes with
        probability below FORCE_FLOOR raise.
        """
        key = tuple(entry)
        k, p, phase = self._collapse(key, basis, force, rng)
        d = self.register.dim(key)
        frame = np.eye(d, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
        self._lazy[key] = phase * frame[:, k]
        return k, p

    def measure_remove(
        self,
        entry: EntryKey,
        basis: Optional[np.ndarray] = None,
        force: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[int, float]:
        """Measure one entry and drop it from the register in a single pass."""
        key = tuple(entry)
        k, p, phase = self._collapse(key, basis, force, rng)
        if phase != 1:
            self._t = self._t * phase
        self._drop_register_entry(key)
        return k, p

    def _collapse(self, key, basis, force, rng) -> Tuple[int, float, complex]:
        """Pick an outcome and project `key` out of the state, leaving it in
        neither `_t` nor `_lazy`. Returns (outcome, probability, phase): the
        collapsed state is (phase * basis vector) (x) the rest."""
        d = self.register.dim(key)
        probs = self.branch_probabilities(key, basis)
        if force is None:
            if rng is None:
                raise ValueError("sampled measurement requires an rng")
            k = int(rng.choice(d, p=probs / probs.sum()))
        else:
            k = int(force)
            if not 0 <= k < d:
                raise ValueError(f"forced outcome {k} out of range")
            if probs[k] < FORCE_FLOOR:
                raise ValueError(f"forced outcome {k} has vanishing probability {probs[k]:.3e}")
        p = float(probs[k])
        if key in self._lazy:
            local = self._lazy.pop(key)
            amp = local[k] if basis is None else np.vdot(np.asarray(basis, dtype=complex)[:, k], local)
            return k, p, amp / abs(amp)
        ax = self._axis[key]
        self._t = self._project(ax, k, basis) / np.sqrt(probs[k])
        self._drop_axis(ax)
        return k, p, 1.0

    def _project(self, ax: int, k: int, basis) -> np.ndarray:
        if basis is None:
            return np.take(self._t, k, axis=ax)
        bk = np.asarray(basis, dtype=complex)[:, k]
        return np.tensordot(bk.conj(), self._t, axes=(0, ax))

    def _drop_register_entry(self, key: EntryKey) -> None:
        self.register = QuditRegister([e for e in self.register.entries() if (e[0], e[1]) != key])

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
        """log2 of the Schmidt rank across the bipartition entries | rest."""
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

    def purity(self, keep: Sequence[EntryKey]) -> float:
        rho = self.reduced_density(keep)
        return float(np.trace(rho @ rho).real)

    def is_product_across(self, entries: Sequence[EntryKey], tol: float = DECOUPLE_TOL) -> bool:
        """True when rho factorizes as rho_A (x) rho_rest, i.e. Schmidt rank one."""
        mat = self._split(entries)
        if mat.shape[0] <= mat.shape[1]:
            w = np.linalg.eigvalsh(mat @ mat.conj().T)
        else:
            w = np.linalg.eigvalsh(mat.conj().T @ mat)
        return bool(1.0 - w[-1] <= tol)

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
        self.register = QuditRegister(self.register.entries() + [(site, slot, dim)])
        self._lazy[key] = local_state
        return self

    def remove_entry(self, entry: EntryKey, tol: float = DECOUPLE_TOL) -> "PureState":
        """Drop a decoupled entry; raises when it is still entangled with the rest.

        A product factor goes in O(1). A materialised entry in |0> is accepted
        when its index-0 slice keeps weight >= 1 - tol, which bounds the top
        eigenvalue of its reduced state from below; any other entry is tested
        on that reduced state.
        """
        key = tuple(entry)
        self.register.index(key)
        if self._lazy.pop(key, None) is None:
            ax = self._axis[key]
            rest = self._project(ax, 0, None)
            weight = np.vdot(rest, rest).real
            if weight < 1.0 - tol:
                d = self._t.shape[ax]
                mat = np.moveaxis(self._t, ax, 0).reshape(d, -1)
                w, v = np.linalg.eigh(mat @ mat.conj().T)
                if 1.0 - w[-1] > tol:
                    raise ValueError(f"entry {key} is not decoupled (residual {1.0 - w[-1]:.3e})")
                rest = np.tensordot(v[:, -1].conj(), self._t, axes=(0, ax))
                weight = np.vdot(rest, rest).real
            self._t = rest / np.sqrt(weight)
            self._drop_axis(ax)
        self._drop_register_entry(key)
        return self

    def permuted(self, new_order: Sequence[EntryKey]) -> "PureState":
        """Return a copy with register entries reordered."""
        keys = [tuple(k) for k in new_order]
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


def fidelity(a: PureState, b: PureState) -> float:
    return a.fidelity(b)


def global_phase_equal(a: PureState, b: PureState, tol: float = 1e-9) -> bool:
    return a.fidelity(b) >= 1.0 - tol
