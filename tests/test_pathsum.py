import tracemalloc

import numpy as np
import pytest

from _oracles import path_sum_reference
from ifkernels import BathSpec, SpectralDensity, SystemSpec, pathsum
from ifkernels.bath import (bump_correlation, eta_table, eta_table_from_correlation,
                            influence_pair_matrix)
from ifkernels.errors import PathSumBudgetError, ValidationError
from ifkernels.liouville import TimeGrid, fb_propagator, liou_norm
from ifkernels.pathsum import config_count, oracle_trajectory

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestBudget:
    def test_config_count_exact(self):
        assert config_count(2, 1) == 1
        assert config_count(2, 5) == 4**4
        assert config_count(3, 4) == 9**3

    def test_budget_enforced_before_enumeration(self, sys2, bath_default):
        grid = TimeGrid(0.1, 20, 6)
        tab = eta_table(bath_default, grid, "sym_env")
        with pytest.raises(PathSumBudgetError, match="pathsum_budget"):
            oracle_trajectory(sys2, tab, 16)

    def test_steps_bounded_by_grid(self, sys2, tables):
        with pytest.raises(ValidationError, match="steps must be >= 0, got -1"):
            oracle_trajectory(sys2, tables["sym_env"], -1)


class TestInputChecks:
    def test_zero_steps(self, sys2, tables):
        full, aux0, aux = oracle_trajectory(sys2, tables["sym_env"], 0)
        assert full.shape == aux.shape == (0, 4, 4) and aux0.shape == (4, 4)

    def test_size_limit(self):
        # n = 2 passes at every length the default budget allows (the default
        # config and the benchmark configs); 512 MiB admits n = 17 at two
        # steps with two measured-end sets (388 MB) and not n = 18 (546 MB)
        for steps in range(15):
            pathsum._check_size(2, steps, 2)
        pathsum._check_size(17, 2, 2)
        for n, steps, ends in [(18, 2, 2), (17, 3, 2), (77, 1, 1), (200, 1, 1)]:
            with pytest.raises(ValidationError, match=f"size_limit: n = {n} at {steps} steps"):
                pathsum._check_size(n, steps, ends)
        pathsum._check_size(76, 1, 1)


@pytest.fixture(scope="module")
def bath0():
    return BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)


class TestZeroCoupling:
    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_full_map_is_free_propagation(self, splitting, sys2, bath0):
        grid = TimeGrid(0.1, 4, 4)
        g1 = fb_propagator(sys2, 0.1)
        tab = eta_table(bath0, grid, splitting)
        full, _, _ = oracle_trajectory(sys2, tab, 4)
        for n in range(1, 5):
            assert liou_norm(full[n - 1] - np.linalg.matrix_power(g1, n)) < 1e-13

    def test_aux_is_free_propagation(self, sys2, bath0):
        grid = TimeGrid(0.1, 4, 4)
        g1 = fb_propagator(sys2, 0.1)
        tab = eta_table(bath0, grid, "sym_sys")
        _, aux0, aux = oracle_trajectory(sys2, tab, 3)
        for k, a in enumerate([aux0, *aux]):
            assert liou_norm(a - np.linalg.matrix_power(g1, k)) < 1e-13


class TestStructure:
    def test_pure_dephasing_closed_form(self, bath_default):
        # H = 0: no branching; the map is diagonal with a closed-form coherence
        sys0 = SystemSpec(np.zeros((2, 2), dtype=complex), (1.0, -1.0))
        grid = TimeGrid(0.1, 4, 4)
        tab = eta_table(bath_default, grid, "sym_sys")
        u3 = oracle_trajectory(sys0, tab, 3)[0][2]
        assert liou_norm(u3 - np.diag(np.diag(u3))) < 1e-14
        assert abs(u3[0, 0] - 1.0) < 1e-14
        assert abs(u3[3, 3] - 1.0) < 1e-14
        total = sum(tab.interior[k - kp] for k in range(3) for kp in range(k + 1))
        pred = np.exp(-2.0 * (total + np.conj(total)))
        assert abs(u3[1, 1] - pred) < 1e-13

    def test_first_step_sym_env(self, sys2, tables):
        # U_1 equals the standalone termination start (no interior sum at N = 1)
        (u1,), _, (aux1,) = oracle_trajectory(sys2, tables["sym_env"], 1)
        from ifkernels.kernels import solve_termination

        terms = solve_termination([u1], [aux1])
        assert liou_norm(terms[0] - u1) == 0.0

    def test_sym_sys_dressing_identity(self, sys2, tables):
        g_half = fb_propagator(sys2, 0.05)
        full, aux0, aux = oracle_trajectory(sys2, tables["sym_sys"], 6)
        for n in range(1, 7):
            a = aux0 if n == 1 else aux[n - 2]
            assert liou_norm(g_half @ a @ g_half - full[n - 1]) < 1e-12

    def test_sym_env_aux_differs_from_full(self, sys2, tables):
        # endpoint effects are present: the all-interior auxiliary is not the map
        full, _, aux = oracle_trajectory(sys2, tables["sym_env"], 2)
        assert liou_norm(full[1] - aux[1]) > 1e-6

    def test_asym_aux_equals_full(self, sys2, tables):
        full, aux0, aux = oracle_trajectory(sys2, tables["asym"], 4)
        assert np.array_equal(aux0, np.eye(4))
        for n in range(1, 5):
            assert liou_norm(full[n - 1] - aux[n - 1]) == 0.0

    def test_asym_first_step_closed_form(self, sys2, tables):
        from ifkernels.bath import influence_self_weights

        u1 = oracle_trajectory(sys2, tables["asym"], 1)[0][0]
        i0 = influence_self_weights(sys2, tables["asym"].interior[0])
        g1 = fb_propagator(sys2, 0.1)
        assert liou_norm(u1 - i0[:, None] * g1) < 1e-15


class TestInvariants:
    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_trace_preservation(self, splitting, sys2, tables):
        trace_row = np.zeros(4)
        trace_row[[0, 3]] = 1.0
        full, _, _ = oracle_trajectory(sys2, tables[splitting], 5)
        for u in full:
            got = trace_row @ u
            assert liou_norm(got - trace_row) < 1e-8

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_hermiticity_pairing(self, splitting, sys2, tables):
        def swap(i):
            return (i % 2) * 2 + i // 2

        u = oracle_trajectory(sys2, tables[splitting], 4)[0][3]
        for a in range(4):
            for b in range(4):
                assert abs(u[swap(a), swap(b)] - np.conj(u[a, b])) < 1e-12

    def test_symmetric_splittings_converge_together(self, sys2):
        # fixed total time, shrinking dt: the two symmetric discretizations
        # approach each other (first order; the initial-time boundary term
        # of the centered-window splitting dominates the difference)
        corr = bump_correlation(2.0, 1.0, 0.2)
        t_total = 0.4
        diffs = []
        for dt in (0.2, 0.1, 0.05):
            n = round(t_total / dt)
            grid = TimeGrid(dt, n, n)
            tab_env = eta_table_from_correlation(corr, grid, "sym_env")
            tab_sys = eta_table_from_correlation(corr, grid, "sym_sys")
            u_env = oracle_trajectory(sys2, tab_env, n)[0][-1]
            u_sys = oracle_trajectory(sys2, tab_sys, n)[0][-1]
            diffs.append(liou_norm(u_env - u_sys))
        assert diffs[0] > diffs[1] > diffs[2]
        assert 1.5 < diffs[0] / diffs[1] < 3.0
        assert 1.5 < diffs[1] / diffs[2] < 3.0


def test_oracle_trajectory_shapes(sys2, tables):
    full, aux0, aux = oracle_trajectory(sys2, tables["sym_env"], 3)
    assert len(full) == 3 and len(aux) == 3
    assert aux0.shape == (4, 4)
    # index-0 auxiliary is the diagonal single-point factor matrix
    assert liou_norm(aux0 - np.diag(np.diag(aux0))) == 0.0


SPLITTINGS = ("sym_env", "sym_sys", "asym")


@pytest.fixture(scope="module")
def sys3():
    h = np.array([[0.0, 0.4, 0.0], [0.4, 0.2, 0.3], [0.0, 0.3, -0.2]], dtype=complex)
    return SystemSpec(h, (1.0, 0.0, -1.0))


class TestPathByPathReference:
    """oracle_trajectory against one-path-at-a-time sums."""

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("system, horizon", [("sys2", 5), ("sys3", 3)])
    def test_matches_reference(self, splitting, system, horizon, request, bath_default):
        sys_ = request.getfixturevalue(system)
        grid = TimeGrid(0.1, horizon, horizon)
        tab = eta_table(bath_default, grid, splitting)
        full, aux0, aux = oracle_trajectory(sys_, tab, horizon)
        assert np.max(np.abs(aux0 - path_sum_reference(sys_, 0.1, tab, 0, False))) < 1e-13
        for n in range(1, horizon + 1):
            ref_u = path_sum_reference(sys_, 0.1, tab, n)
            ref_a = path_sum_reference(sys_, 0.1, tab, n, measured_end=False)
            # a trajectory cut at n sums the same maps as the full one
            short_full, _, short_aux = oracle_trajectory(sys_, tab, n)
            for got, ref in ((short_full[-1], ref_u), (full[n - 1], ref_u),
                             (short_aux[-1], ref_a), (aux[n - 1], ref_a)):
                assert np.max(np.abs(got - ref)) < 1e-13


def _split_names(steps, width):
    p, q, m, _ = pathsum._split(steps - 1, 4, width)
    return "+".join(name for name, count in zip(("odometer", "rows", "columns"), (p, q, m)) if count)


def _last_contraction(sys_, tab, steps, monkeypatch):
    """(inner dimension of the last GEMM, rows of Z) in ``oracle_trajectory(sys_, tab, steps)``."""
    seen = []
    leaf = pathsum._leaf

    def spy(tables, *args):
        *_, row_col, col_mat, _ = tables
        seen.append((row_col.shape[1], col_mat.shape[0]))
        return leaf(tables, *args)

    monkeypatch.setattr(pathsum, "_leaf", spy)
    result = oracle_trajectory(sys_, tab, steps)
    monkeypatch.undo()
    return seen[-1], result


class TestGrouping:
    """Column tuples summed by Δs class before the GEMM."""

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("coupling, classes", [
        pytest.param((1.0, 0.0, -1.0), 5, id="coinciding"),
        pytest.param((0.3, -1.1, 0.7), 7, id="generic"),
        pytest.param((1.0, 1.0, -1.0), 3, id="repeated"),
    ])
    def test_three_levels_match_reference(self, splitting, coupling, classes, bath_default,
                                          monkeypatch):
        # at horizon 4 the split is (p, q, m) = (0, 1, 2): one row point, so
        # Z is grouped, from 9 x 9 column tuples to 9 x c keys
        h = np.array([[0.1, 0.4, 0.2j], [0.4, 0.2, 0.3], [-0.2j, 0.3, -0.2]])
        sys_ = SystemSpec(h, coupling)
        tab = eta_table(bath_default, TimeGrid(0.1, 4, 4), splitting)
        width = (2 if splitting == "sym_env" else 1) * (81 + 9) // 2
        assert pathsum._split(3, 9, width)[:3] == (0, 1, 2)
        (inner, keys), (full, _, aux) = _last_contraction(sys_, tab, 4, monkeypatch)
        assert inner == keys == 9 * classes
        checks = [(aux[3], path_sum_reference(sys_, 0.1, tab, 4, measured_end=False))]
        if splitting == "sym_env":  # the full maps of the others are the auxiliary or dress it
            checks.append((full[3], path_sum_reference(sys_, 0.1, tab, 4)))
        for got, ref in checks:
            assert np.max(np.abs(got - ref)) < 1e-13

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    def test_two_levels_contract_over_108(self, splitting, sys2, bath_default, monkeypatch):
        # n = 2: Δs in {0, ±2}, so the 4^4 column tuples of N = 11 fall in 4 x 3^3 keys
        tab = eta_table(bath_default, TimeGrid(0.1, 11, 11), splitting)
        assert _last_contraction(sys2, tab, 11, monkeypatch)[0] == (108, 108)

    @pytest.mark.parametrize("system", ["sys2", "sys3"])
    @pytest.mark.parametrize("splitting", SPLITTINGS)
    def test_pair_factors_match_per_separation_calls(self, splitting, system, request,
                                                     bath_default):
        # one broadcast over all separations gives the bits of one call each
        sys_ = request.getfixturevalue(system)
        tab = eta_table(bath_default, TimeGrid(0.1, 11, 11), splitting)
        f = pathsum._factors(sys_, tab, 11)
        for coeffs, (_, pairs) in ((tab.interior, f.inner), (tab.right, f.end)):
            expected = np.stack([np.ones((sys_.dim,) * 2, dtype=complex)]
                                + [influence_pair_matrix(sys_, coeffs[s]) for s in range(1, 12)])
            expected[1] *= fb_propagator(sys_, 0.1)
            assert pairs.tobytes() == expected.tobytes()


class TestBlocking:
    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("steps, batch, split", [
        # below d x width entries (4 x 20 or 4 x 10) _BATCH shrinks nothing
        # more: one row and one column point stay
        pytest.param(5, 1, "odometer+rows+columns", id="1"),
        pytest.param(5, 64, "odometer+rows+columns", id="64"),
        pytest.param(5, 1 << 10, "rows+columns", id="N5-1024"),
        pytest.param(8, 1, "odometer+rows+columns", id="N8-1"),
        pytest.param(8, 1 << 12, "odometer+rows+columns", id="N8-4096"),
        pytest.param(8, 1 << 16, "rows+columns", id="N8-65536"),
        pytest.param(8, 1 << 28, "columns", id="N8-2^28"),
    ])
    def test_odometer_blocks_match_single_block(self, splitting, steps, batch, split, sys2, tables,
                                                monkeypatch):
        width = 20 if splitting == "sym_env" else 10  # (measured ends) x (4 x 4 + 2 x 2) / 2
        # the default _BATCH sums N = 5 on columns alone
        assert steps == 8 or _split_names(steps, width) == "columns"
        whole = oracle_trajectory(sys2, tables[splitting], steps)
        monkeypatch.setattr(pathsum, "_BATCH", batch)
        assert _split_names(steps, width) == split
        blocked = oracle_trajectory(sys2, tables[splitting], steps)
        again = oracle_trajectory(sys2, tables[splitting], steps)
        maps = [np.concatenate((run[0], run[2])) for run in (whole, blocked, again)]
        for a, b, c in zip(*maps):
            assert np.max(np.abs(a - b)) < 1e-14
            assert np.array_equal(b, c)
        assert np.array_equal(whole[1], blocked[1])

    @pytest.mark.parametrize("batch", [1, 1 << 10, pathsum._BATCH])
    def test_chunks_within_bound(self, batch, monkeypatch):
        # every chunk matrix fits max(_BATCH, d x width), stacked ones too; at
        # least one point is a column, and one a row unless the columns take
        # them all
        monkeypatch.setattr(pathsum, "_BATCH", batch)
        for n in range(2, 9):
            d = n * n
            half = (d * d + n * n) // 2  # canonical columns of one end set
            for width in (half, 2 * half):
                cap = max(batch, d * width)
                for n_int in range(12):
                    p, q, m, stacked = pathsum._split(n_int, d, width)
                    assert min(p, q, m) >= 0 and p + q + m == n_int
                    assert d**m * max(width, d**m) <= cap
                    assert d**q * max(width, d**m) <= cap
                    assert 1 <= stacked <= d and d**max(q, m) * stacked * width <= cap
                    assert n_int == 0 or (m >= 1 and (q >= 1 or p == 0))


class TestPrefixConsistency:
    """The map lengths of one call share their separation tables."""

    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("system, steps", [("sys2", 11), ("sys3", 4)])
    def test_lengths_match_shorter_calls(self, splitting, system, steps, request, bath_default):
        # n = 2 up to N = 11 crosses every change of the row and column counts
        sys_ = request.getfixturevalue(system)
        tab = eta_table(bath_default, TimeGrid(0.1, steps, steps), splitting)
        full, aux0, aux = oracle_trajectory(sys_, tab, steps)
        for k in range(1, steps):
            short_full, short_aux0, short_aux = oracle_trajectory(sys_, tab, k)
            assert np.array_equal(short_full, full[:k])
            assert np.array_equal(short_aux, aux[:k])
            assert np.array_equal(short_aux0, aux0)


class TestMemory:
    @pytest.mark.parametrize("n, steps, mib", [(2, 11, 4), (4, 5, 4), (6, 4, 16), (8, 3, 32)])
    def test_trajectory_peak_is_bounded(self, n, steps, mib, bath_default):
        # traced peaks: about 2.1 MiB at (2, 11), where whole-block tensors
        # of 4^6 paths took 7.3 MiB; 1.7 MiB at (4, 5) and 6.1 MiB at (6, 4),
        # where a row table bounded by d^q alone took 66 MiB and 1.9 GB;
        # 26 MiB at (8, 3), where summing every (a_N, a_0) column took 49 MiB
        sys_ = SystemSpec(np.diag(np.linspace(0.4, -0.3, n)) + 0.2, tuple(np.linspace(1.0, -0.6, n)))
        tab = eta_table(bath_default, TimeGrid(0.1, steps, steps), "sym_env")
        tracemalloc.start()
        try:
            oracle_trajectory(sys_, tab, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20
