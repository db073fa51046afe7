"""Cross-module checks away from the default two-state finite-temperature set."""

import math

import numpy as np
import pytest

from ifkernels import BathSpec, SpectralDensity, SystemSpec
from ifkernels.bath import eta_table, influence_pair_matrix, influence_self_weights
from ifkernels.kernels import extract_kernels, propagate
from ifkernels.liouville import TimeGrid, apply_map, fb_propagator, liou_norm
from ifkernels.pathsum import oracle_trajectory

from _oracles import bath_correlation


@pytest.fixture(scope="module")
def sys3():
    h = np.array(
        [[0.0, 0.4, 0.0], [0.4, 0.2, 0.3], [0.0, 0.3, -0.2]], dtype=complex
    )
    return SystemSpec(h, (1.0, 0.0, -1.0))


@pytest.fixture(scope="module")
def bath_mild():
    return BathSpec(SpectralDensity("ohmic_exponential", 0.2, 4.0), 2.0)


class TestThreeState:
    def test_extraction_rebuilds_oracle(self, sys3, bath_mild):
        grid = TimeGrid(0.1, 4, 4)
        table = eta_table(bath_mild, grid, "sym_env")
        kset, _, _ = extract_kernels(sys3, table, 4, "smatpi")
        maps = propagate(kset, 4)
        full, _, _ = oracle_trajectory(sys3, table, 4)
        for n in range(1, 5):
            assert liou_norm(maps[n - 1] - full[n - 1]) < 1e-11

    def test_trajectory_physicality(self, sys3, bath_mild):
        table = eta_table(bath_mild, TimeGrid(0.1, 4, 4), "sym_sys")
        kset, _, _ = extract_kernels(sys3, table, 4, "smatpi")
        traj = propagate(kset, 12, g_half=fb_propagator(sys3, 0.05))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for u in traj:
            rho = apply_map(u, rho0)
            assert abs(np.trace(rho) - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10

    def test_middle_state_uncoupled_rows(self, sys3, bath_mild):
        # s = 0 for the middle state: its diagonal pair has ds = 0, so
        # pair-factor rows stay at unity
        grid = TimeGrid(0.1, 4, 4)
        table = eta_table(bath_mild, grid, "sym_env")
        f = influence_pair_matrix(sys3, table.interior[1])
        flat_11 = 1 * 3 + 1
        assert liou_norm(f[flat_11, :] - 1.0) < 1e-15


class TestZeroTemperature:
    def test_table_and_extraction(self, sys2):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.1, 5.0), math.inf)
        grid = TimeGrid(0.1, 4, 4)
        table = eta_table(bath, grid, "asym")
        # self coefficient has positive real part at T = 0
        assert table.interior[0].real > 0
        w0 = influence_self_weights(sys2, table.interior[0])
        assert np.max(np.abs(w0)) <= 1.0 + 1e-12
        kset, seed, _ = extract_kernels(sys2, table, 4, "ttm")
        rebuilt = propagate(kset, 4)
        assert max(liou_norm(a - b) for a, b in zip(rebuilt, seed)) < 1e-12

    def test_correlation_decays(self):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.1, 5.0), math.inf)
        assert abs(bath_correlation(bath, 5.0)) < abs(bath_correlation(bath, 0.5)) < abs(
            bath_correlation(bath, 0.0)
        )
