"""Named gate matrices for qubits and their qudit generalizations."""

from __future__ import annotations

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)

H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj().T
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

NAMED_1Q = {"H": H, "S": S, "SDG": SDG, "X": X, "Y": Y, "Z": Z, "I": I2}
NAMED_2Q = {"CNOT": CNOT, "CZ": CZ, "SWAP": SWAP}


def named_gate(name: str) -> np.ndarray:
    if name in NAMED_1Q:
        return NAMED_1Q[name]
    if name in NAMED_2Q:
        return NAMED_2Q[name]
    raise KeyError(f"unknown gate name {name!r}")


def shift_x(d: int, power: int = 1) -> np.ndarray:
    """Generalized X: |k> -> |k + power mod d>."""
    m = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m[(k + power) % d, k] = 1.0
    return m


def clock_z(d: int, power: int = 1) -> np.ndarray:
    """Generalized Z: |k> -> w^{k·power} |k> with w = exp(2 pi i / d)."""
    w = np.exp(2j * np.pi / d)
    return np.diag(w ** (np.arange(d) * power)).astype(complex)


def fourier(d: int) -> np.ndarray:
    """Discrete Fourier transform; reduces to H for d = 2."""
    w = np.exp(2j * np.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return w ** (j * k) / np.sqrt(d)


def cnot_d(d: int, inverse: bool = False) -> np.ndarray:
    """Generalized CNOT on two qudits: |i, j> -> |i, j -/+ i mod d>.

    The subtractive form maps the maximally entangled pair to |i, 0>, which is
    what the Bell-measurement rotation needs.
    """
    m = np.zeros((d * d, d * d), dtype=complex)
    sign = 1 if inverse else -1
    for i in range(d):
        for j in range(d):
            m[i * d + ((j + sign * i) % d), i * d + j] = 1.0
    return m



def bell_pair_gate(d: int) -> np.ndarray:
    """Two-qudit unitary with |0,0> -> sum_k |k,k>/sqrt(d) (completed by QR)."""
    target = np.zeros(d * d, dtype=complex)
    for k in range(d):
        target[k * d + k] = 1.0 / np.sqrt(d)
    return complete_to_unitary({0: target})


def bell_state(d: int) -> np.ndarray:
    """Maximally entangled vector sum_k |k,k>/sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    for k in range(d):
        v[k * d + k] = 1.0 / np.sqrt(d)
    return v


def complete_to_unitary(columns: dict) -> np.ndarray:
    """Build a unitary whose column j equals columns[j] for each given index.

    The prescribed columns must be orthonormal. The free columns, in index
    order, are the orthogonal complement of their span from one complete QR
    factorization of the prescribed block.
    """
    n = len(next(iter(columns.values())))
    u = np.zeros((n, n), dtype=complex)
    fixed = sorted(columns)
    basis = []
    for j in fixed:
        v = np.asarray(columns[j], dtype=complex)
        if abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise ValueError("prescribed columns must be normalized")
        for b in basis:
            if abs(np.vdot(b, v)) > 1e-9:
                raise ValueError("prescribed columns must be orthogonal")
        u[:, j] = v
        basis.append(v)
    free = [j for j in range(n) if j not in columns]
    if free:
        q, _ = np.linalg.qr(u[:, fixed], mode="complete")
        u[:, free] = q[:, len(fixed) :]
    return u


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) <= tol * max(1, m.shape[0]))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))
