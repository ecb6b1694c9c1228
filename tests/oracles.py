"""Test oracles on dense states that no command, demo or benchmark needs, so
they live with the tests rather than in `qccc`."""

import numpy as np

from qccc.statevector import DECOUPLE_TOL


def purity(state, keep) -> float:
    """tr(rho^2) of the reduced state on the `keep` entries."""
    rho = state.reduced_density(keep)
    return float(np.trace(rho @ rho).real)


def is_product_across(state, entries, tol: float = DECOUPLE_TOL) -> bool:
    """True when the state has Schmidt rank one across `entries` | the rest:
    the top eigenvalue of the reduced state on `entries` is 1 within `tol`."""
    w = np.linalg.eigvalsh(state.reduced_density(entries))
    return bool(1.0 - w[-1] <= tol)
