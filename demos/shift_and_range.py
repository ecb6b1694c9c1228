"""The cyclic shift: range-1 automaton, constant-depth circuit with ancillas.

Without ancillas the shift needs depth growing with the ring size; with one
ancilla per site the ring's swaps implement it (the ancillas absorb the
inverse shift and return to |0>), in two site-disjoint layers on an even ring
and three on an odd one, such as N=5 below. The light-cone range estimator confirms range 1, and
random shallow circuits never exceed their depth.
"""

import numpy as np

from qccc import circuits as cx
from qccc.circuits import _random_circuit, _shift_unitary
from qccc.lattice import Lattice
from qccc.statevector import PureState, QuditRegister

lat = Lattice((5,))
circuit = cx.build_shift_circuit(lat)
print(f"shift circuit on N=5: depth {circuit.depth()}, {circuit.gate_count()} two-site swaps")

st = PureState.product(
    QuditRegister([(i, "s", 2) for i in range(5)]),
    {(0, "s"): [0, 1], (1, "s"): [0, 1]},  # |11000>
)
cx.run(circuit, st)
out = format(int(np.argmax(np.abs(st.amps))), "05b")
print(f"|11000> -> |{out}>")

print(f"estimated range of the shift: {cx.estimate_range(_shift_unitary(lat), lat)}")

rng = np.random.default_rng(1)
lat8 = Lattice((8,))
print("\nlight cones of random brickwork circuits (range <= depth):")
for depth in (1, 2, 3):
    c = _random_circuit(lat8, depth, rng)
    u = cx.circuit_unitary(c, [(i, "s", 2) for i in range(8)])
    print(f"  depth {depth}: range {cx.estimate_range(u, lat8)}")
