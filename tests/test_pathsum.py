import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bump_correlation, eta_table_from_correlation, path_sum_reference, propagate
from ifkernels import BathSpec, SpectralDensity, SystemSpec, pathsum
from ifkernels.bath import EtaTable, eta_table, influence_pair_matrix
from ifkernels.errors import NumericalError, ValidationError
from ifkernels.kernels import FLAVORS, extract_kernels
from ifkernels.liouville import TimeGrid, fb_propagators, liou_norm
from ifkernels.pathsum import check_budget, oracle_trajectory

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _mirrored(u, n):
    """``u`` with forward and backward swapped in both flat indices of every map."""
    m = np.arange(n * n).reshape(n, n).T.ravel()
    return u[..., m, :][..., :, m]


class TestBudget:
    def test_budget_boundary_exact(self):
        # (n^2)^(steps - 1) configurations per map: a budget of exactly that
        # passes, one less is refused
        check_budget(2, 1, 1)
        for n, steps, budget in [(2, 5, 4**4), (3, 4, 9**3)]:
            check_budget(n, steps, budget)
            with pytest.raises(NumericalError, match=r"^pathsum_budget:"):
                check_budget(n, steps, budget - 1)

    def test_budget_enforced_before_enumeration(self, sys2, bath_default):
        grid = TimeGrid(0.1, 20, 6)
        tab = eta_table(bath_default, grid, "sym_env")
        with pytest.raises(NumericalError, match=r"^pathsum_budget:"):
            oracle_trajectory(sys2, tab, 16)

    def test_steps_bounded_by_grid(self, sys2, tables):
        with pytest.raises(ValidationError, match="^steps: must be >= 0, got -1$"):
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

    def test_size_guard_counts_what_is_summed(self, sys2, tables, monkeypatch):
        # at n = 2 one end set has (16 + 4)/2 = 10 canonical columns, so the end
        # factors of N - 1 interior points take 16 x 4 x 10 (N - 1) bytes; a
        # sym_env table built with one array for both ends sums one set, and
        # asym sums one length short of its horizon
        env = tables["sym_env"]
        one_set = EtaTable("sym_env", env.dt, env.interior, env.interior)
        monkeypatch.setattr(pathsum, "SIZE_LIMIT", 16 * 4 * 10 * 4)
        full, _, aux = oracle_trajectory(sys2, one_set, 5)
        assert np.array_equal(full, aux)
        with pytest.raises(ValidationError, match="size_limit: n = 2 at 5 steps"):
            oracle_trajectory(sys2, env, 5)
        monkeypatch.setattr(pathsum, "SIZE_LIMIT", 16 * 4 * 10 * 3)
        oracle_trajectory(sys2, tables["asym"], 5)
        with pytest.raises(ValidationError, match="size_limit: n = 2 at 5 steps"):
            oracle_trajectory(sys2, tables["sym_sys"], 5)


@pytest.fixture(scope="module")
def bath0():
    return BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)


class TestZeroCoupling:
    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_full_map_is_free_propagation(self, splitting, sys2, bath0):
        grid = TimeGrid(0.1, 4, 4)
        g1 = fb_propagators(sys2, 0.1)[0]
        tab = eta_table(bath0, grid, splitting)
        full, _, _ = oracle_trajectory(sys2, tab, 4)
        for n in range(1, 5):
            assert liou_norm(full[n - 1] - np.linalg.matrix_power(g1, n)) < 1e-13

    def test_aux_is_free_propagation(self, sys2, bath0):
        grid = TimeGrid(0.1, 4, 4)
        g1 = fb_propagators(sys2, 0.1)[0]
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
        g_half = fb_propagators(sys2, 0.05)[0]
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

    @pytest.mark.parametrize("system, steps", [("sys2", 11), ("sys3", 4)])
    def test_asym_is_the_invariant_sum_dressed_by_g1(self, system, steps, request, bath_default):
        # the bare origin enters through G1 alone: U^asym_N = W_{N-1} G1, where
        # W_k is the uniform-window sum of the sym_sys auxiliaries (W_0 = aux0)
        sys_ = request.getfixturevalue(system)
        grid = TimeGrid(0.1, steps, steps)
        full = oracle_trajectory(sys_, eta_table(bath_default, grid, "asym"), steps)[0]
        _, w0, w = oracle_trajectory(sys_, eta_table(bath_default, grid, "sym_sys"), steps)
        dressed = np.concatenate((w0[None], w[:-1])) @ fb_propagators(sys_, 0.1)[0]
        assert np.max(np.abs(full - dressed)) < 1e-14

    def test_asym_first_step_closed_form(self, sys2, tables):
        u1 = oracle_trajectory(sys2, tables["asym"], 1)[0][0]
        i0 = influence_pair_matrix(sys2, tables["asym"].interior[0]).diagonal()
        g1 = fb_propagators(sys2, 0.1)[0]
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

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    @pytest.mark.parametrize("system, steps", [("sys2", 8), ("sys3", 4)])
    def test_every_map_is_exactly_mirror_symmetric(self, splitting, system, steps, request,
                                                   bath_default):
        # U[m(i), m(j)] = conj(U[i, j]) bit for bit, m swapping forward and
        # backward, for the full maps, aux0 and the auxiliary maps alike
        sys_ = request.getfixturevalue(system)
        tab = eta_table(bath_default, TimeGrid(0.1, steps, steps), splitting)
        for u in oracle_trajectory(sys_, tab, steps):
            assert np.array_equal(_mirrored(u, sys_.n), u.conj())

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


@st.composite
def _drawn_physics(draw):
    """(system, bath, dt, steps, splitting): n = 2 or 3, a Hermitian H with entries in [-1, 1]."""
    # repeated coupling eigenvalues merge the Δs classes of the column keys
    n = draw(st.sampled_from((2, 3)))
    unit = st.floats(-1.0, 1.0)
    h = np.diag(draw(st.lists(unit, min_size=n, max_size=n))) + 0j
    for i, j in zip(*np.triu_indices(n, 1)):
        h[i, j] = complex(draw(unit), draw(unit))
        h[j, i] = np.conj(h[i, j])
    coupling = draw(st.lists(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)),
                             min_size=n, max_size=n))
    beta = draw(st.one_of(st.just(np.inf), st.floats(0.5, 5.0)))
    alpha = draw(st.floats(0.0, 0.3))
    omega_c = draw(st.floats(1.0, 10.0))
    bath = BathSpec(SpectralDensity("ohmic_exponential", alpha, omega_c), beta)
    dt = draw(st.floats(0.05, 0.3))
    steps = draw(st.integers(1, 4 if n == 2 else 3))
    splitting = draw(st.sampled_from(SPLITTINGS))
    return SystemSpec(h, tuple(coupling)), bath, dt, steps, splitting


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

    @settings(max_examples=50, deadline=None)
    @given(physics=_drawn_physics())
    def test_drawn_physics_matches_reference(self, physics):
        sys_, bath, dt, steps, splitting = physics
        tab = eta_table(bath, TimeGrid(dt, steps, steps), splitting)
        full, aux0, aux = oracle_trajectory(sys_, tab, steps)
        for u in (full, aux0, aux):
            assert np.array_equal(_mirrored(u, sys_.n), u.conj())
        assert np.max(np.abs(aux0 - path_sum_reference(sys_, dt, tab, 0, False))) < 1e-12
        for k in range(1, steps + 1):
            assert np.max(np.abs(full[k - 1] - path_sum_reference(sys_, dt, tab, k))) < 1e-12
            ref = path_sum_reference(sys_, dt, tab, k, measured_end=False)
            assert np.max(np.abs(aux[k - 1] - ref)) < 1e-12

    @pytest.mark.parametrize("splitting, measured_end", [("sym_env", True), ("sym_sys", False)])
    def test_odometer_split_matches_reference(self, splitting, measured_end, sys2, bath_default):
        # N = 10 at n = 2 splits as (p, q, m) = (1, 4, 4), the last odometer
        # point's 4 values stacked: the odometer, the row table and the GEMM
        # against one-path-at-a-time sums.  The sym_sys auxiliary W_10 is also
        # the sum that asym dresses
        assert pathsum._split(9, 4, 20 if measured_end else 10) == (1, 4, 4, 4)
        tab = eta_table(bath_default, TimeGrid(0.1, 10, 10), splitting)
        full, _, aux = oracle_trajectory(sys2, tab, 10)
        ref = path_sum_reference(sys2, 0.1, tab, 10, measured_end=measured_end)
        assert np.max(np.abs((full if measured_end else aux)[9] - ref)) < 1e-13


class TestDrawnStructure:
    """The hierarchies' structural facts on the drawn physics of ``_drawn_physics``."""

    @settings(max_examples=50, deadline=None)
    @given(physics=_drawn_physics())
    def test_drawn_physics_structure(self, physics):
        sys_, bath, dt, steps, splitting = physics
        grid = TimeGrid(dt, steps, steps)
        tabs = {sp: eta_table(bath, grid, sp) for sp in {splitting, "sym_sys", "asym"}}
        # within r_max steps either flavor's set rebuilds the maps it was solved from
        for flavor in FLAVORS:
            kset, full, _ = extract_kernels(sys_, tabs[splitting], steps, flavor)
            assert np.max(np.abs(propagate(kset, steps) - full)) < 1e-13
        # criterion 4: under asym the SMatPI midpoints are the transfer tensors
        (smatpi, asym_full, _), (ttm, _, _) = (
            extract_kernels(sys_, tabs["asym"], steps, flavor) for flavor in FLAVORS)
        assert np.array_equal(smatpi.midpoint, ttm.midpoint)
        # sym_sys is asym conjugated by the half-step propagator
        g = fb_propagators(sys_, 0.5 * dt)[0]
        sym_full, _, _ = oracle_trajectory(sys_, tabs["sym_sys"], steps)
        assert np.max(np.abs(sym_full - g @ asym_full @ np.linalg.inv(g))) < 1e-13

    @settings(max_examples=50, deadline=None)
    @given(physics=_drawn_physics())
    def test_drawn_physics_prefix(self, physics):
        # the set extracted at R - 1 is the first R - 1 matrices of the set at
        # R, bit for bit, for every splitting and flavor (fixed fixtures in
        # test_kernels.TestPrefix); each set from its own table, as
        # ``extract --rmax`` builds it
        sys_, bath, dt, steps, _ = physics
        r = max(steps, 2)
        for splitting in SPLITTINGS:
            tabs = [eta_table(bath, TimeGrid(dt, k, k), splitting) for k in (r - 1, r)]
            for flavor in FLAVORS:
                short, long = (extract_kernels(sys_, tab, k, flavor)[0]
                               for tab, k in zip(tabs, (r - 1, r)))
                for name in ("midpoint", "termination", "aux0"):
                    a, b = getattr(short, name), getattr(long, name)
                    b = b[: r - 1] if b is not None and name != "aux0" else b
                    assert (a is None and b is None) or np.array_equal(a, b), (splitting, flavor, name)


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
        # a last summed length of 4 steps splits as (p, q, m) = (0, 1, 2): one
        # row point, so Z is grouped, from 9 x 9 column tuples to 9 x c keys.
        # asym sums one length short of its horizon, so it runs to 5
        steps = 5 if splitting == "asym" else 4
        h = np.array([[0.1, 0.4, 0.2j], [0.4, 0.2, 0.3], [-0.2j, 0.3, -0.2]])
        sys_ = SystemSpec(h, coupling)
        tab = eta_table(bath_default, TimeGrid(0.1, steps, steps), splitting)
        width = (2 if splitting == "sym_env" else 1) * (81 + 9) // 2
        assert pathsum._split(3, 9, width)[:3] == (0, 1, 2)
        (inner, keys), (full, _, aux) = _last_contraction(sys_, tab, steps, monkeypatch)
        assert inner == keys == 9 * classes
        checks = [(aux[steps - 1], path_sum_reference(sys_, 0.1, tab, steps, measured_end=False))]
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
        # one broadcast over all separations, the self weights' separation 0
        # included, gives the bits of one call each
        sys_ = request.getfixturevalue(system)
        tab = eta_table(bath_default, TimeGrid(0.1, 11, 11), splitting)
        for coeffs in (tab.interior, tab.right):
            pairs = pathsum._influence(sys_, coeffs, 11, fb_propagators(sys_, 0.1)[0])
            expected = np.stack([influence_pair_matrix(sys_, coeffs[s]) for s in range(12)])
            expected[1] *= fb_propagators(sys_, 0.1)[0]
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
    def test_odometer_blocks_match_single_block(self, splitting, steps, batch, split, sys2,
                                                bath_default, monkeypatch):
        width = 20 if splitting == "sym_env" else 10  # (measured ends) x (4 x 4 + 2 x 2) / 2
        # the default _BATCH sums N = 5 on columns alone
        assert steps == 8 or _split_names(steps, width) == "columns"
        # asym sums one length short of its map count, so it asks for one more map
        count = steps + (splitting == "asym")
        tab = eta_table(bath_default, TimeGrid(0.1, count, count), splitting)
        whole = oracle_trajectory(sys2, tab, count)
        monkeypatch.setattr(pathsum, "_BATCH", batch)
        assert _split_names(steps, width) == split
        blocked = oracle_trajectory(sys2, tab, count)
        again = oracle_trajectory(sys2, tab, count)
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


class TestRepeatedCalls:
    @pytest.mark.parametrize("splitting", SPLITTINGS)
    @pytest.mark.parametrize("system, steps", [("sys2", 11), ("sys3", 4)])
    def test_consecutive_calls_are_bit_identical(self, splitting, system, steps, request,
                                                 bath_default):
        # every table and buffer belongs to one call, so the next call starts clean
        sys_ = request.getfixturevalue(system)
        tab = eta_table(bath_default, TimeGrid(0.1, steps, steps), splitting)
        first, second = (oracle_trajectory(sys_, tab, steps) for _ in range(2))
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


class TestMemory:
    @pytest.mark.parametrize("n, steps, mib", [(2, 11, 2), (4, 5, 2.5), (6, 4, 7), (8, 3, 20)])
    def test_trajectory_peak_is_bounded(self, n, steps, mib, bath_default):
        # each bound is at least 1.4 times the traced peak: 1.25 MiB at
        # (2, 11), where whole-block tensors of 4^6 paths took 7.3 MiB; 1.65
        # MiB at (4, 5) and 4.55 MiB at (6, 4), where a row table bounded by
        # d^q alone took 66 MiB and 1.9 GB; 14.15 MiB at (8, 3), where end
        # factors folded per point on the canonical columns took 26 MiB
        sys_ = SystemSpec(np.diag(np.linspace(0.4, -0.3, n)) + 0.2, tuple(np.linspace(1.0, -0.6, n)))
        tab = eta_table(bath_default, TimeGrid(0.1, steps, steps), "sym_env")
        tracemalloc.start()
        try:
            oracle_trajectory(sys_, tab, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20
