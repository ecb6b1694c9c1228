"""Deterministic Clifford unitaries from stabilizer resources.

A stabilizer state entangled site-by-site with ancillas is the Choi state of
a Clifford U. Bell-measuring the ancillas against an input register applies
U (tensor sigma) for a random Pauli sigma; because U is Clifford the frame
error commutes out and a local Pauli fix completes U deterministically.

The GHZ resource realizes U = (1 + i X^(x)M)/sqrt(2), a circuit-depth-M
unitary, with depth-2 preparation plus measurements.
"""

import numpy as np

from qccc.diagnostics import enumerate_cj_branches, ghz_unitary_cj
from qccc.stabilizer import PauliString
from qccc.statevector import PureState, QuditRegister

M = 3
cj = ghz_unitary_cj(M)
u = cj.u_dense()
print(f"implied unitary on {M} qubits (should be the cat rotation):")
print(np.round(u * np.sqrt(2), 3))

img = cj.u_map.conjugate(PauliString.single(M, 0, "Z"))
print(f"\nU Z_1 U^dag = {img.label()}  (support on all {len(img.support())} sites")
print("  -> no shallow unitary circuit implements U)")

rng = np.random.default_rng(0)
psi = rng.normal(size=2**M) + 1j * rng.normal(size=2**M)
psi /= np.linalg.norm(psi)
inp = PureState(QuditRegister([(k, "in", 2) for k in range(M)]), psi)
det, min_fid, n_branches = enumerate_cj_branches(cj, inp, reference=u @ psi)
print(f"\nexhaustive Bell branches ({n_branches}): deterministic={det}, min fidelity={min_fid:.12f}")
