"""Renormalization fixed points: entangled-pair states with a label register.

The fixed-point family  sum_k alpha_k (x)_n |k>_{C_n} |psi_k>_{R_n, L_{n+1}}
is prepared in constant gate-layer depth, read from the program: bond Bell
pairs, a label superposition via the parity-measurement trick, a conditioned
bond writer, and teleport hops. On this ring of three sites the depth is 5:
an odd ring's bond pairs need three site-disjoint layers, after the two of
the label links.
"""

import numpy as np

from qccc import gates
from qccc.locc import enumerate_branches
from qccc.protocols import RGFixedPointSpec, rg_fixed_point_protocol

spec = RGFixedPointSpec(
    B=2,
    alphas=np.array([1.0, 1.0]) / np.sqrt(2.0),
    bond_states=gates.bell_state(2),
    N=3,
)
proto, target = rg_fixed_point_protocol(spec)
print(f"{proto.name}: depth {proto.depth()}")
res = enumerate_branches(proto)
print(f"verdict: {res.verdict} over {len(res.reports)} branches")
print(f"min fidelity to the directly-built target: {res.min_fidelity:.12f}")

# the label register carries one bit of long-range order: the C qudits are
# perfectly correlated across the whole ring
rho = target.reduced_density([(0, "C"), (2, "C")])
print("\nreduced state of two distant label qudits (diagonal):")
print(np.round(np.diag(rho).real, 4))
