"""Translation-invariant MPS machinery: canonical form, blocking, transfer
spectra, renormalization fixed points, and the triviality pipeline that
compiles an MPS into a measurement-assisted preparation protocol.

Conventions. The site tensor A has shape (d, chi, chi) = (physical, left
bond, right bond). The transfer matrix is kept in two pairings:

  chain pairing  T[(i k), (j l)] = sum_s A[s,i,j] conj(A[s,k,l])
                 (traces of powers give overlaps of chain states)
  in/out pairing M[(i j), (k l)] = sum_s conj(A[s,i,j]) A[s,k,l]
                 (equals A^dag A for A read as a d x chi^2 matrix; PSD)

They are related by an index shuffle plus complex conjugation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gates
from .lattice import Lattice
from .protocols import _fixed_point_protocol, _polished_columns
from .statevector import PureState, QuditRegister, check_amplitudes, max_amplitudes

SPECTRAL_TOL = 1e-9
RANK_TOL = 1e-9
RANK_CUTOFF = 1e-10  # tau_AA's relative rank cutoff: the blocked tensor and the transfer-only route must agree
PROJECTOR_TOL = 1e-8  # how far an invariant projector may leave A^s P = P A^s P
PSD_CLAMP = 1e-12  # eigenvalues below it are rounding, clamped at 0


@dataclass
class MPS:
    tensor: np.ndarray  # (d, chi, chi)

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=complex)
        if self.tensor.ndim != 3 or self.tensor.shape[1] != self.tensor.shape[2]:
            raise ValueError("tensor must have shape (d, chi, chi)")
        if not np.isfinite(self.tensor).all() or np.linalg.norm(self.tensor) == 0:
            raise ValueError("tensor must be finite and nonzero")

    @property
    def d(self) -> int:
        return self.tensor.shape[0]

    @property
    def chi(self) -> int:
        return self.tensor.shape[1]

    @classmethod
    def load(cls, text: str) -> "MPS":
        data = json.loads(text) if isinstance(text, str) else text
        if not isinstance(data, dict):
            raise ValueError("an MPS file must be a JSON object")
        try:
            t = np.array([[[complex(re, im) for re, im in row] for row in mat] for mat in data["tensor"]])
        except (TypeError, ValueError):
            raise ValueError("'tensor' must list d chi x chi matrices of [re, im] pairs") from None
        return cls(t)


def _physical_sum(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """a_mat^T conj(b_mat) for two (d x n) matrices: a sum over the physical index.

    One gemm per 4096-row chunk, so no conjugated d x n copy of b is made.
    """
    out = np.zeros((a_mat.shape[1], b_mat.shape[1]), dtype=complex)
    for s in range(0, a_mat.shape[0], 4096):
        out += a_mat[s : s + 4096].T @ b_mat[s : s + 4096].conj()
    return out


def transfer_matrix(mps_or_tensor, chain: bool = True) -> np.ndarray:
    a = mps_or_tensor.tensor if isinstance(mps_or_tensor, MPS) else np.asarray(mps_or_tensor)
    if chain:
        return mixed_transfer(a, a)
    a_mat = a.reshape(a.shape[0], -1)
    return np.conj(_physical_sum(a_mat, a_mat))


def mixed_transfer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chain-pairing transfer of <chain(b)|chain(a)> contributions.

    One gemm over the physical index on the (d x chi^2) matrices, then the
    chi^4 shuffle (i j),(k l) -> (i k),(j l).
    """
    chi = a.shape[1]
    m = _physical_sum(a.reshape(a.shape[0], -1), b.reshape(b.shape[0], -1))
    return m.reshape(chi, chi, chi, chi).transpose(0, 2, 1, 3).reshape(chi * chi, chi * chi)


def chain_from_io(io: np.ndarray) -> np.ndarray:
    """Re-pair (in,out) <-> (left pair, right pair); the shuffle is an involution."""
    chi = int(round(math.isqrt(io.shape[0])))
    return np.conj(io.reshape(chi, chi, chi, chi).transpose(0, 2, 1, 3)).reshape(io.shape)


def spectral_radius(t: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(t))))


def sorted_spectrum(t: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvals(t)
    return vals[np.argsort(-np.abs(vals))]


# -- canonical form -------------------------------------------------------------------


@dataclass
class CanonicalForm:
    """Blocks (mu_k, normal tensor) of the scaled tensor; mu is each block's
    relative weight (max mu = 1)."""

    blocks: List[Tuple[float, MPS]]

    @property
    def reducible(self) -> bool:
        return len(self.blocks) > 1


def _hermitian_fixed_basis(t: np.ndarray, tol: float) -> List[np.ndarray]:
    chi = int(round(math.isqrt(t.shape[0])))
    vals, vecs = np.linalg.eig(t)
    idx = [i for i, v in enumerate(vals) if abs(v - 1.0) < tol]
    cands: List[np.ndarray] = []
    for i in idx:
        m = vecs[:, i].reshape(chi, chi)
        for h in ((m + m.conj().T) / 2, (m - m.conj().T) / 2j):
            if np.linalg.norm(h) > 1e-12:
                cands.append(h / np.linalg.norm(h))
    return cands


def _invariant_projector(a: np.ndarray) -> Optional[np.ndarray]:
    """A proper projector P with A^s P = P A^s P for all s, or None."""
    chi = a.shape[1]
    t = transfer_matrix(a)
    cands = _hermitian_fixed_basis(t, 1e-7)
    rng = np.random.default_rng(11)
    extras = []
    for _ in range(4):
        if cands:
            coef = rng.normal(size=len(cands))
            extras.append(sum(c * h for c, h in zip(coef, cands)))
    for h in cands + extras:
        w, v = np.linalg.eigh(h)
        # try every eigenvalue-gap split
        for cut in range(1, chi):
            if abs(w[cut] - w[cut - 1]) < 1e-9:
                continue
            for basis in (v[:, cut:], v[:, :cut]):
                p = basis @ basis.conj().T
                if all(np.linalg.norm(a[s] @ p - p @ a[s] @ p) < PROJECTOR_TOL for s in range(a.shape[0])):
                    return p
    return None


def canonicalize(mps: MPS) -> CanonicalForm:
    """Scale the leading transfer eigenvalue to one and split into normal blocks.

    Each block's weight mu is tracked relative to the top-level tensor and the
    whole list is rescaled so that max mu = 1.
    """

    def recurse_scaled(a: np.ndarray) -> List[Tuple[float, np.ndarray]]:
        t = transfer_matrix(a)
        r = spectral_radius(t)
        if r < 1e-14:
            return []
        scale = math.sqrt(r)
        a_n = a / scale
        p = _invariant_projector(a_n)
        if p is None:
            return [(scale, a_n)]
        w, v = np.linalg.eigh(p)
        inside = v[:, w > 0.5]
        outside = v[:, w <= 0.5]
        out: List[Tuple[float, np.ndarray]] = []
        for basis in (inside, outside):
            if basis.shape[1] == 0:
                continue
            sub = np.einsum("pi,spq,qj->sij", basis.conj(), a_n, basis)
            out.extend((scale * mu, blk) for mu, blk in recurse_scaled(sub))
        return out

    found = recurse_scaled(mps.tensor)
    if not found:
        raise ValueError("tensor has vanishing spectral radius")
    top = max(mu for mu, _ in found)
    blocks = [(mu / top, MPS(blk)) for mu, blk in found]
    blocks.sort(key=lambda b: -b[0])
    return CanonicalForm(blocks)


def is_normal(mps: MPS) -> bool:
    """Spectral condition (unique leading eigenvalue 1, gapped) plus
    injectivity of blocked maps within chi^4 blocking steps."""
    a = mps.tensor
    chi = mps.chi
    t = transfer_matrix(a)
    vals = sorted_spectrum(t)
    if abs(vals[0] - 1.0) > 1e-7:
        raise ValueError("tensor is not canonically scaled (leading eigenvalue != 1)")
    if len(vals) > 1 and abs(vals[1]) > 1 - SPECTRAL_TOL:
        return False
    # injectivity: products of length L span the full matrix algebra
    span = [a[s] for s in range(a.shape[0])]
    for _ in range(chi**4):
        stack = np.array([m.reshape(-1) for m in span])
        svals = np.linalg.svd(stack, compute_uv=False)
        rank = int(np.sum(svals > RANK_TOL * svals[0]))
        if rank == chi * chi:
            return True
        new = [a[s] @ m for s in range(a.shape[0]) for m in span]
        # keep an orthonormal basis of the new span to bound the list size
        stack = np.array([m.reshape(-1) for m in new])
        u, svals, _ = np.linalg.svd(stack.T, full_matrices=False)
        keep = [
            u[:, i].reshape(chi, chi)
            for i in range(len(svals))
            if svals[i] > 1e-12 * svals[0]
        ]
        if not keep:
            return False
        span = keep
    return False


def _chain_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(A, chi, chi) and (B, chi, chi) -> (A*B, chi, chi) with out[a*B + b] = x[a] @ y[b].

    One (A*chi x chi) @ (chi x B*chi) gemm, then a transpose to (A, B, chi, chi).
    """
    na, chi, _ = x.shape
    nb = y.shape[0]
    m = x.reshape(na * chi, chi) @ y.transpose(1, 0, 2).reshape(chi, nb * chi)
    return m.reshape(na, chi, nb, chi).transpose(0, 2, 1, 3).reshape(na * nb, chi, chi)


def _chain_power(a: np.ndarray, q: int) -> np.ndarray:
    """The q-site products A^{s1} ... A^{sq}, indexed s1 slowest, by binary powering."""
    out, sq = None, a
    while True:
        if q & 1:
            out = sq if out is None else _chain_product(out, sq)
        q >>= 1
        if not q:
            return out
        sq = _chain_product(sq, sq)


def block(mps: MPS, q: int) -> MPS:
    """Group q neighboring sites: A^(s1..sq) = A^{s1} ... A^{sq}."""
    if q < 1:
        raise ValueError("q must be >= 1")
    d, chi = mps.d, mps.chi
    check_amplitudes(d**q * chi * chi, f"the {d}^{q} x {chi}^2 blocked tensor")
    return MPS(_chain_power(mps.tensor, q))


# -- fixed points ----------------------------------------------------------------------


@dataclass
class FixedPointData:
    rho: np.ndarray  # right fixed point (PSD, trace-normalized against sigma)
    sigma: np.ndarray  # left fixed point (PSD)
    tau_bb_chain: np.ndarray
    b_tilde: np.ndarray
    bond_matrix: np.ndarray  # sqrt(sigma) sqrt(rho), indexed (right leg, left leg)


def transfer_fixed_points(t_chain: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hermitian PSD right/left fixed points (rho, sigma) with tr(sigma rho) = 1."""
    chi = int(round(math.isqrt(t_chain.shape[0])))

    def principal(mat: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eig(mat)
        i = int(np.argmin(np.abs(vals - 1.0)))
        if abs(vals[i] - 1.0) > 1e-6:
            raise ValueError("no eigenvalue 1; tensor not canonically scaled")
        m = vecs[:, i].reshape(chi, chi)
        m = (m + m.conj().T) / 2
        if m.trace().real < 0:
            m = -m
        w = np.linalg.eigvalsh(m)
        if w[0] < -1e-8 * max(1.0, w[-1]):
            raise ValueError("fixed point is not PSD; tensor may not be normal")
        return m

    rho = principal(t_chain)
    sigma = principal(t_chain.conj().T)
    pairing = np.trace(sigma @ rho).real
    if pairing <= 0:
        raise ValueError("degenerate fixed-point pairing")
    sigma = sigma / pairing
    return rho, sigma


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.where(w < PSD_CLAMP, np.maximum(w, 0.0), w)
    return (v * np.sqrt(w)) @ v.conj().T


def fixed_point_data(rho: np.ndarray, sigma: np.ndarray) -> FixedPointData:
    chi = rho.shape[0]
    a = rho.reshape(-1)
    b = sigma.reshape(-1)
    tau_bb_chain = np.outer(a, b.conj())
    b_tilde = np.kron(_sqrt_psd(rho).conj(), _sqrt_psd(sigma))
    bond = _sqrt_psd(sigma) @ _sqrt_psd(rho)
    return FixedPointData(rho, sigma, tau_bb_chain, b_tilde, bond)


@dataclass
class RGFixedPointTensor:
    b: MPS
    isometry: np.ndarray  # d_eff x chi^2, A = U A~ on the support
    data: FixedPointData


def rg_fixed_point_tensor(blocked: MPS) -> RGFixedPointTensor:
    """B = U sqrt(tau_BB) from a (blocked) normal tensor A = U sqrt(tau_AA).

    The square root of tau_AA and its pseudo-inverse come from one
    eigendecomposition with a shared relative rank cutoff, RANK_CUTOFF, so
    the support projector is consistent.
    """
    a = blocked.tensor
    d_eff, chi = a.shape[0], a.shape[1]
    a_mat = a.reshape(d_eff, chi * chi)
    tau_aa_io = transfer_matrix(a, chain=False)
    w, v = np.linalg.eigh((tau_aa_io + tau_aa_io.conj().T) / 2)
    if w[-1] <= 0:
        raise ValueError("tau_AA is numerically zero")
    kept = w > RANK_CUTOFF * w[-1]
    if w[0] < -1e-10 * w[-1]:
        raise ValueError("tau_AA is not PSD")
    if not kept.all():
        raise ValueError(
            "tau_AA is numerically singular beyond the pseudo-inverse tolerance; "
            "block more sites (need d^q >= chi^2 with injectivity)"
        )
    sq = np.where(kept, np.sqrt(np.abs(w)), 0.0)
    inv_sq = np.where(kept, 1.0 / np.where(kept, sq, 1.0), 0.0)
    a_tilde = (v * sq) @ v.conj().T
    a_pinv = (v * inv_sq) @ v.conj().T
    # tau_AA in the in/out pairing is the transfer matrix; re-pair, no second d^q pass
    rho, sigma = transfer_fixed_points(chain_from_io(tau_aa_io))
    data = fixed_point_data(rho, sigma)
    u = a_mat @ a_pinv
    support = a_tilde @ a_pinv
    if np.linalg.norm(np.conj(_physical_sum(u, u)) - support) > 1e-8 * chi * chi:
        raise ValueError("isometry check failed: U^dag U != 1 on the support")
    tau_bb = data.tau_bb_chain
    if np.linalg.norm(tau_bb @ tau_bb - tau_bb) > 1e-9 * max(1.0, np.linalg.norm(tau_bb)):
        raise ValueError("tau_BB is not idempotent")
    b_mat = u @ data.b_tilde
    b = MPS(b_mat.reshape(d_eff, chi, chi))
    return RGFixedPointTensor(b, u, data)


def fidelity_deficit(a: MPS, b: MPS, m_sites: int) -> float:
    """|tr(tau_AB^M - tau_BB^M)| = |<psi_M|phi_M> - 1| via chi^2 matrix powers.

    tr(tau_BB^M) = 1 identically when b is a renormalization fixed point
    (its chain state is exactly normalized), which is the convention used
    here; rg_fixed_point_tensor asserts that property on construction. With
    b = a this reduces to the finite-chain normalization defect |<phi|phi>-1|.
    """
    if m_sites < 2:
        raise ValueError("need at least two blocked sites")
    if a.chi != b.chi or a.d != b.d:
        raise ValueError("tensors must share physical and bond dimensions")
    tab = mixed_transfer(a.tensor, b.tensor)
    val = np.trace(np.linalg.matrix_power(tab, m_sites)) - 1.0
    return float(abs(val))


def _deficit(t: np.ndarray, data: FixedPointData, q: int, m_sites: int) -> float:
    """fidelity_deficit(block(mps, q), rg_fixed_point_tensor(block(mps, q)).b,
    m_sites) from the transfer matrix t of mps and its fixed-point data alone,
    without the d^q blocked tensor: tau_AA is T^q re-paired, tau_AB = A~ B~.
    Raises ValueError where rg_fixed_point_tensor does: when the blocked tau_AA
    is rank-deficient (the blocked map is not injective)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if m_sites < 2:
        raise ValueError("need at least two blocked sites")
    tau_aa_io = chain_from_io(np.linalg.matrix_power(t, q))
    w = np.linalg.eigvalsh((tau_aa_io + tau_aa_io.conj().T) / 2)
    if w[0] < RANK_CUTOFF * w[-1]:
        raise ValueError("blocked tau_AA is rank-deficient; transfer-only route invalid")
    tab = chain_from_io(_sqrt_psd(tau_aa_io) @ data.b_tilde)
    tbb = data.tau_bb_chain
    val = np.trace(np.linalg.matrix_power(tab, m_sites)) - np.trace(
        np.linalg.matrix_power(tbb, m_sites)
    )
    return float(abs(val))


def state_from_mps(mps: MPS, n: int, normalize: bool = True) -> PureState:
    """Dense chain state sum tr(A^{s_1} ... A^{s_n}) |s_1 ... s_n>."""
    d, chi = mps.d, mps.chi
    reg = QuditRegister([(i, "s", d) for i in range(n)])
    # tr(L[x] R[y]) for the left n - n//2 and the right n//2 sites: one gemm
    left = _chain_power(mps.tensor, n - n // 2)
    if n == 1:
        amps = np.trace(left, axis1=1, axis2=2)
    else:
        right = _chain_power(mps.tensor, n // 2)
        amps = left.reshape(left.shape[0], chi * chi) @ right.transpose(2, 1, 0).reshape(chi * chi, -1)
    if normalize:
        nrm = np.linalg.norm(amps)
        if nrm == 0:
            raise ValueError("chain state vanishes at this length")
        return PureState(reg, amps / nrm)
    return PureState(reg, amps, norm_tol=np.inf)


# -- the bound quantities ---------------------------------------------------------------


@dataclass
class BoundReport:
    alpha: float
    q: int
    m_sites: int
    gamma_q: float
    c_v: float
    lambda_q: float
    c_q: float
    ctilde_q: float
    epsilon_q: float
    delta_q: float
    measured_deficit: float
    envelope_holds: Optional[bool]  # None when epsilon_q >= 1 (bound vacuous)

    def to_dict(self) -> dict:
        return asdict(self)


def gauge_condition_number(t_chain: np.ndarray) -> float:
    """kappa of a similarity separating the leading eigenvalue from the rest.

    Schur-based two-block decoupling; an upper-bound surrogate for the exact
    Jordan gauge, reported as such. The leading block holds the eigenvalues
    within half the spectral gap of 1, which is the leading one alone when the
    tensor is normal.
    """
    n = t_chain.shape[0]
    if n == 1:
        return 1.0
    import scipy.linalg

    half_gap = (1.0 - abs(sorted_spectrum(t_chain)[1])) / 2
    t, z, sdim = scipy.linalg.schur(
        t_chain.astype(complex), output="complex", sort=lambda x: abs(x - 1.0) < half_gap
    )
    if sdim != 1:
        raise ValueError("leading eigenvalue is not simple; tensor not normal")
    t12 = t[:1, 1:]
    t22 = t[1:, 1:]
    y = -t12 @ np.linalg.inv(np.eye(n - 1) - t22)
    s = np.eye(n, dtype=complex)
    s[:1, 1:] = y
    v = z @ s
    return float(np.linalg.norm(v, 2) * np.linalg.norm(np.linalg.inv(v), 2))


def bound_report(mps: MPS, q: int, m_sites: int) -> BoundReport:
    """All analytic envelope factors plus the measured deficit at (q, M).

    `envelope_holds` is False when the measured deficit exceeds the envelope;
    the report says so and leaves the verdict to the caller. The measured
    deficit is `_deficit`'s at every q, from the same transfer
    matrix and fixed points as the envelope, so nothing d^q-sized is built
    and no q is too large to report.
    """
    chi = mps.chi
    t = transfer_matrix(mps)
    vals = sorted_spectrum(t)
    if abs(vals[0] - 1.0) > 1e-7:
        raise ValueError("tensor must be canonically scaled")
    lam1 = abs(vals[1]) if (chi > 1 and len(vals) > 1) else 0.0
    if lam1 > 1 - SPECTRAL_TOL:
        raise ValueError("no spectral gap; tensor not normal")
    data = fixed_point_data(*transfer_fixed_points(t))
    measured = _deficit(t, data, q, m_sites)
    if lam1 < 1e-14:
        # zero correlation length: already a fixed point after any blocking
        return BoundReport(math.inf, q, m_sites, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, measured, True)
    alpha = -math.log(lam1)
    c_v = gauge_condition_number(t)
    gamma_q = (chi**3) * (q ** (chi * chi - 1)) * math.exp(alpha * (chi * chi - 1))
    lambda_q = chi * c_v * gamma_q
    tau_bb_norm = float(np.linalg.norm(data.tau_bb_chain, 2))
    btilde_norm = float(np.linalg.norm(data.b_tilde, 2))
    c_q = (chi**2) * max(1.0, tau_bb_norm) * btilde_norm * math.sqrt(lambda_q)
    ctilde_q = max(1.0, tau_bb_norm) * c_q
    epsilon_q = ctilde_q * m_sites * math.exp(-alpha * q / 2)
    delta_q = epsilon_q / m_sites
    envelope: Optional[bool] = None
    if epsilon_q < 1.0:
        # floating-point deficits saturate around 1e-10; keep the envelope
        # check meaningful above that noise floor
        budget = epsilon_q + epsilon_q**2 * math.exp(epsilon_q) * (1 + epsilon_q / m_sites)
        envelope = bool(measured <= budget + 1e-10)
    return BoundReport(
        alpha,
        q,
        m_sites,
        gamma_q,
        c_v,
        lambda_q,
        c_q,
        ctilde_q,
        epsilon_q,
        delta_q,
        measured,
        envelope,
    )


# -- bundled example tensors --------------------------------------------------------------


def product_mps(local_state: Sequence[complex] = (1.0, 0.0)) -> MPS:
    v = np.asarray(local_state, dtype=complex)
    v = v / np.linalg.norm(v)
    return MPS(v.reshape(-1, 1, 1))


def ghz_mps() -> MPS:
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0, 0, 0] = 1.0
    t[1, 1, 1] = 1.0
    return MPS(t)


def aklt_mps() -> MPS:
    """Spin-1 AKLT tensor; transfer spectrum {1, -1/3, -1/3, -1/3} after scaling."""
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.T.copy()
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    t = np.stack(
        [
            math.sqrt(2.0 / 3.0) * sp,
            -math.sqrt(1.0 / 3.0) * sz,
            -math.sqrt(2.0 / 3.0) * sm,
        ]
    )
    cf = canonicalize(MPS(t))
    if cf.reducible:
        raise ValueError(f"AKLT tensor split into {len(cf.blocks)} blocks; expected one")
    return cf.blocks[0][1]


def w_chi2_mps() -> MPS:
    """The textbook chi=2 'single excitation' tensor (identity / raising op).

    Note: with the periodic trace closure its chain state collapses onto the
    all-zero product state; the canonical form exposes that as two equal
    product blocks.
    """
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0] = np.eye(2)
    t[1] = np.array([[0, 1], [0, 0]])
    return MPS(t)


def cluster_mps() -> MPS:
    """1D cluster state tensor A^s[t, t'] = delta(t', s) (-1)^(t s) / sqrt(2)."""
    t = np.zeros((2, 2, 2), dtype=complex)
    for s in range(2):
        for b in range(2):
            t[s, b, s] = (-1.0) ** (b * s) / math.sqrt(2.0)
    return MPS(t)


FIXTURES = {
    "product": product_mps,
    "ghz": ghz_mps,
    "aklt": aklt_mps,
    "w_chi2": w_chi2_mps,
    "cluster": cluster_mps,
}


def fixture(name: str) -> MPS:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}") from None


# -- the triviality pipeline ----------------------------------------------------------


@dataclass
class PipelineResult:
    protocol: object  # locc.Protocol
    report: BoundReport
    alphas: np.ndarray
    block_dims: List[int]
    writer_defect: float
    depth: int


def preparation_pipeline(mps: MPS, q: int, n_sites: int) -> PipelineResult:
    """Compile an MPS into a preparation protocol on the unblocked chain.

    Canonicalizes, blocks q sites, builds each block's renormalization fixed
    point, and writes the fixed point onto the physical sites with one
    polished writer per block. The bond-pair / superposition /
    conditioned-writer / teleport protocol around it comes from the same
    builder as `rg_fixed_point_protocol`.

    The returned protocol's `program` runs block by block to keep the dense
    register narrow, carrying entries across a block by nearest-neighbor SWAP
    conveyors. Its schedule runs the same stage of every block side by side,
    so `depth` depends on q but not on the chain length. For q > 1 the
    writer's output conveyors follow its corrections in a second round.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if n_sites % q:
        raise ValueError("chain length must be divisible by the blocking factor")
    m_sites = n_sites // q
    if m_sites < 2:
        raise ValueError("need at least two blocked sites")
    d = mps.d
    cf = canonicalize(mps)
    r = len(cf.blocks)
    chis = [blk.chi for _, blk in cf.blocks]
    bond_d = max(chis)
    dq = d**q
    width = r * bond_d * bond_d * dq
    check_amplitudes(width * width, f"the {width} x {width} writer")
    mus = np.array([mu for mu, _ in cf.blocks])
    fps = [rg_fixed_point_tensor(block(blk, q)) for _, blk in cf.blocks]

    weights = mus.astype(complex) ** n_sites
    alphas = weights / np.linalg.norm(weights)

    # bond matrices, zero-padded to the widest block
    bonds = []
    for k in range(r):
        bond = np.zeros((bond_d, bond_d), dtype=complex)
        bond[: chis[k], : chis[k]] = fps[k].data.bond_matrix
        bonds.append(bond)
    # the writer takes |k, i, j> on (C, L, R) and |0...0> on the block's q
    # sites to |0, 0, 0> and column (i, j) of block k's isometry; a register
    # that takes no part counts as dimension 1
    wcols: Dict[int, np.ndarray] = {}
    for k in range(r):
        chi_k = chis[k]
        for i in range(chi_k):
            for j in range(chi_k):
                vec = np.zeros(width, dtype=complex)
                vec[:dq] = fps[k].isometry[:, i * chi_k + j]
                wcols[((k * bond_d + i) * bond_d + j) * dq] = vec
    wcols, writer_defect = _polished_columns(wcols)
    writer = gates.complete_to_unitary(wcols)

    target = None
    if d**n_sites <= max_amplitudes():
        target = state_from_mps(mps, n_sites)
    proto = _fixed_point_protocol(
        f"mps-pipeline[q={q},N={n_sites}]",
        Lattice((n_sites,), local_dim=d),
        q,
        alphas,
        bonds,
        writer,
        target,
    )
    # aggregate bound data: the worst block (the first of equals)
    worst = max((bound_report(blk, q, m_sites) for _, blk in cf.blocks), key=lambda rep: rep.epsilon_q)
    return PipelineResult(proto, worst, alphas, chis, writer_defect, proto.depth())
