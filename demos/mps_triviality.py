"""Every translation-invariant MPS is one blocking step away from trivial.

Blocking q sites drives a normal tensor exponentially close to its
renormalization fixed point: the overlap deficit scales like exp(-alpha q)
against an analytic envelope exp(-alpha q / 2). The fixed point itself is an
entangled-pair state, so it is preparable by the measurement-assisted
protocol; compiling that protocol back to the unblocked chain prepares the
original MPS up to the deficit.
"""

import numpy as np

from qccc import mps as M
from qccc.locc import enumerate_branches

aklt = M.aklt_mps()
print("AKLT chain: transfer spectrum", np.round(M.sorted_spectrum(M.transfer_matrix(aklt)), 4))

print("\nblocking sweep (M = 6 blocked sites):")
print(" q   epsilon_q (envelope)   measured deficit")
for q in (4, 6, 8, 10, 12):
    rep = M.bound_report(aklt, q, 6)
    print(f"{q:2d}   {rep.epsilon_q:12.3e}      {rep.measured_deficit:12.3e}")

print("\ncompile the q=4 pipeline on 8 physical sites:")
res = M.preparation_pipeline(aklt, 4, 8)
out = enumerate_branches(res.protocol)
print(f"  verdict {out.verdict} over {len(out.reports)} branches")
print(f"  fidelity to the exact AKLT_8 state: {out.min_fidelity:.6f}")
n_rounds = len(res.protocol.rounds())
print(f"  circuit depth (nearest-neighbor, swap-expanded): {res.depth} over {n_rounds} quantum rounds")

print("\nnon-normal input: the GHZ tensor splits into two product blocks")
res_g = M.preparation_pipeline(M.ghz_mps(), 2, 6)
out_g = enumerate_branches(res_g.protocol)
print(f"  verdict {out_g.verdict}, fidelity to GHZ_6: {out_g.min_fidelity:.12f}")
