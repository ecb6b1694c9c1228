"""Toric code in constant depth: plaquette parity measurements + sign fixes.

Each A-plaquette's X-parity is kicked onto an ancilla through an 8-swap
nearest-neighbor gadget; all gadgets pack into 11 site-disjoint gate layers
at every N. Measuring the
ancillas projects onto prod_p (1 + k_p X_p)|0...0>; a product of sigma^z
along plaquette-graph paths flips the negative k_p, landing on the toric code
deterministically. The product of all outcomes is always +1.
"""

import numpy as np

from qccc.locc import run_sampled
from qccc.protocols import ToricCodeLayout, find_tc_correction, toric_code_protocol
from qccc.stabilizer import StabilizerTableau

N = 8
proto, _ = toric_code_protocol(N)
print(f"{proto.name}: {N}x{N} torus, depth {proto.depth()}, "
      f"{len(ToricCodeLayout(N).plaquettes_a)} plaquette measurements")

st, record = run_sampled(proto, seed=11, backend="tableau")
signs = [1 - 2 * k for _, k, _ in record.outcomes]
print(f"sampled outcome signs: {signs}")
print(f"product of signs: {np.prod(signs)} (always +1)")

target = StabilizerTableau.from_generators(proto.target_generators)
print(f"final stabilizer group equals the toric-code group: {st.tab.states_equal(target)}")

# the correction picked for this record
layout = ToricCodeLayout(N)
outcome_map = {p: 1 - 2 * k for p, (_, k, _) in zip(
    sorted(layout.plaquettes_a, key=lambda p: (p[0] % 2, p[0], p[1])), record.outcomes)}
flips = find_tc_correction(layout, outcome_map)
print(f"sigma^z correction acted on {len(flips)} qubits: {flips}")
