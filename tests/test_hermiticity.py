"""The Hermiticity symmetry of forward-backward maps.

A map U sends rho to U rho with rho flattened row-major over (f, b), and
it preserves Hermiticity, so U[(f,b),(f',b')] = conj(U[(b,f),(b',f')]).
Every path has a mirror with its forward and backward branches swapped and
the conjugate weight.  The oracle sums one entry of each mirror pair and
fills the other by conjugation, so its path sums satisfy this exactly; maps
dressed with half steps, or propagated from extracted kernels, satisfy it
to rounding.
"""

import numpy as np
import pytest

from ifkernels import SystemSpec
from ifkernels.bath import eta_table
from ifkernels.kernels import extract_kernels, propagate
from ifkernels.liouville import TimeGrid, fb_propagator
from ifkernels.pathsum import oracle_trajectory


def biased_system(n, seed):
    """A random Hermitian Hamiltonian with unequal site energies, uneven couplings."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.25 * (h + h.conj().T) + np.diag(np.linspace(0.4, -0.3, n))
    return SystemSpec(h, tuple(np.linspace(1.0, -0.6, n)))


def swapped(maps):
    """S U S over a (..., n^2, n^2) stack, S the (f, b) -> (b, f) swap."""
    maps = np.asarray(maps)
    n = int(round(maps.shape[-1] ** 0.5))
    swap = np.eye(n * n)[[b * n + f for f in range(n) for b in range(n)]]
    return swap @ maps @ swap


def symmetry_defect(maps):
    """max |U - conj(S U S)|."""
    return float(np.max(np.abs(maps - swapped(maps).conj())))


@pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
@pytest.mark.parametrize("n, steps", [(2, 6), (3, 4), (2, 8), (2, 10)])
def test_oracle_maps(bath_default, splitting, n, steps):
    sys_ = biased_system(n, seed=n)
    grid = TimeGrid(0.1, steps, steps)
    table = eta_table(bath_default, grid, splitting)
    full, aux0, aux = oracle_trajectory(sys_, table, steps)
    # the path sum fills each mirror entry by conjugation: exact; sym_sys
    # dresses its auxiliaries with half steps, which rounds
    assert symmetry_defect(aux) == 0
    assert symmetry_defect(aux0) == 0
    if splitting == "sym_sys":
        assert symmetry_defect(full) < 1e-14
    else:
        assert symmetry_defect(full) == 0
    # not vacuous: the swap without the conjugation is no symmetry
    assert float(np.max(np.abs(full - swapped(full)))) > 1e-3


@pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
@pytest.mark.parametrize("flavor", ["smatpi", "ttm"])
def test_propagated_maps(bath_default, splitting, flavor):
    sys_ = biased_system(2, seed=2)
    table = eta_table(bath_default, TimeGrid(0.1, 4, 4), splitting)
    kset, _, _ = extract_kernels(sys_, table, 4, flavor)
    gh = fb_propagator(sys_, 0.05) if splitting == "sym_sys" else None
    assert symmetry_defect(propagate(kset, 2000, g_half=gh)) < 1e-11
