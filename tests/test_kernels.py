import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifkernels import kernels
from ifkernels.bath import eta_table
from ifkernels.errors import NumericalError, ValidationError
from ifkernels.kernels import (
    CHUNK,
    KernelSet,
    closed_form_asym,
    compare,
    extract_kernels,
    extract_ttm,
    gqme_kernel,
    propagate_blocks,
    solve_midpoint,
    solve_termination,
)
from ifkernels.liouville import TimeGrid, fb_propagators, liou_norm
from ifkernels.pathsum import oracle_trajectory

from _oracles import convolution_reference, eta_truncated, propagate


def random_seq(rng, length, dim=4, scale=1.0):
    return [
        scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for _ in range(length)
    ]


class TestSolveMidpoint:
    def test_single_entry(self):
        rng = np.random.default_rng(0)
        (a1,) = random_seq(rng, 1)
        assert liou_norm(solve_midpoint([a1])[0] - a1) == 0.0

    def test_two_entries_standalone(self):
        rng = np.random.default_rng(1)
        a1, a2 = random_seq(rng, 2)
        mids = solve_midpoint([a1, a2])
        assert liou_norm(mids[1] - (a2 - a1 @ a1)) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_back_substitution_exact(self, seed, terminal):
        rng = np.random.default_rng(seed)
        aux = random_seq(rng, 5, scale=0.5)
        aux0 = np.eye(4) + 0.1 * random_seq(rng, 1)[0] if terminal else None
        mids = solve_midpoint(aux, aux0)
        rebuilt = convolution_reference(mids, 5, tail=aux0)
        assert max(liou_norm(a - b) for a, b in zip(aux, rebuilt)) < 1e-12

    def test_singular_terminal_rejected(self):
        rng = np.random.default_rng(2)
        aux = random_seq(rng, 2)
        with pytest.raises(NumericalError, match=r"^aux0_singular:"):
            solve_midpoint(aux, np.zeros((4, 4)))

    def test_terminal_guarded_once_per_solve(self, monkeypatch):
        # one condition number per solve, not one per row
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append(1) or cond(a))
        rng = np.random.default_rng(3)
        aux = random_seq(rng, 11, scale=0.5)
        mids = solve_midpoint(aux, np.eye(4) + 0.1 * random_seq(rng, 1)[0])
        assert len(mids) == 11 and len(calls) == 1
        solve_midpoint(aux)
        assert len(calls) == 1  # the identity tail needs no guard


class TestSolveTermination:
    def test_first_is_full_map(self):
        rng = np.random.default_rng(3)
        u1, a1 = random_seq(rng, 2)
        terms = solve_termination([u1], [a1])
        assert liou_norm(terms[0] - u1) == 0.0

    def test_second_formula(self):
        rng = np.random.default_rng(4)
        u1, u2, a1, a2 = random_seq(rng, 4)
        terms = solve_termination([u1, u2], [a1, a2])
        assert liou_norm(terms[1] - (u2 - u1 @ a1)) < 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.booleans())
    def test_back_substitution_exact(self, seed, terminal):
        rng = np.random.default_rng(seed)
        full = random_seq(rng, 5, scale=0.5)
        aux = random_seq(rng, 5, scale=0.5)
        aux0 = np.eye(4) + 0.1 * random_seq(rng, 1)[0] if terminal else None
        terms = solve_termination(full, aux, aux0)
        rebuilt = convolution_reference(terms, 5, tail=aux0, b=aux)
        assert max(liou_norm(a - b) for a, b in zip(full, rebuilt)) < 1e-12

    def test_auxiliary_sequence_too_short(self):
        rng = np.random.default_rng(8)
        full = random_seq(rng, 3)
        with pytest.raises(ValidationError,
                           match="^dim_mismatch: auxiliary sequence too short for the solve$"):
            solve_termination(full, full[:1])


def test_sym_sys_termination_back_substitutes_oracle(sys2, tables):
    # termination matrices also exist for the dressed splitting, and the
    # terminal-aux0 solve reproduces the oracle maps exactly
    from ifkernels.pathsum import oracle_trajectory

    full, aux0, aux = oracle_trajectory(sys2, tables["sym_sys"], 5)
    terms = solve_termination(full, aux, aux0)
    rebuilt = convolution_reference(terms, 5, tail=aux0, b=aux)
    assert max(liou_norm(a - b) for a, b in zip(full, rebuilt)) < 1e-12


class TestTTM:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_identities_any_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        maps = random_seq(rng, 4, scale=0.6)
        tensors = extract_ttm(maps)
        assert liou_norm(tensors[0] - maps[0]) == 0.0
        assert liou_norm(tensors[1] - (maps[1] - maps[0] @ maps[0])) < 1e-14

    def test_empty_sequence_refused(self):
        with pytest.raises(ValidationError,
                           match="^dim_mismatch: need a non-empty sequence of square matrices$"):
            extract_ttm([])

    def test_back_substitution(self):
        rng = np.random.default_rng(5)
        maps = random_seq(rng, 6, scale=0.5)
        tensors = extract_ttm(maps)
        rebuilt = convolution_reference(tensors, 6)
        assert max(liou_norm(a - b) for a, b in zip(maps, rebuilt)) < 1e-12


class TestGqmeKernel:
    def test_linearity_and_scaling(self):
        rng = np.random.default_rng(6)
        mats = random_seq(rng, 4)
        k1 = gqme_kernel(mats, 0.1)
        k2 = gqme_kernel([3.0 * m for m in mats], 0.1)
        assert all(liou_norm(3.0 * a - b) < 1e-12 for a, b in zip(k1, k2))
        k4 = gqme_kernel(mats, 0.05)
        assert all(liou_norm(4.0 * a - b) < 1e-12 for a, b in zip(k1, k4))

    def test_index_offset(self):
        rng = np.random.default_rng(7)
        mats = random_seq(rng, 4)
        kern = gqme_kernel(mats, 0.1)
        assert len(kern) == 3
        assert liou_norm(kern[0] - mats[1] / 0.01) < 1e-12

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            gqme_kernel([np.eye(4)], 0.1)

    def test_norm_profile_matches_definition(self, sys2, tables):
        kset, _, _ = extract_kernels(sys2, tables["sym_env"], 6, "ttm")
        kern = gqme_kernel(list(kset.midpoint), 0.1)
        for k, mat in enumerate(kern, start=1):
            assert liou_norm(mat) == pytest.approx(liou_norm(kset.midpoint[k]) / 0.01)


class TestDress:
    def test_free_propagation(self, sys2):
        g1 = fb_propagators(sys2, 0.1)[0]
        gh = fb_propagators(sys2, 0.05)[0]
        assert liou_norm(gh @ np.linalg.matrix_power(g1, 3) @ gh - np.linalg.matrix_power(g1, 4)) < 1e-12

    def test_oracle_identity(self, sys2, tables):
        kset, seed, aux_seed = extract_kernels(sys2, tables["sym_sys"], 4, "smatpi")
        gh = fb_propagators(sys2, 0.05)[0]
        u4 = oracle_trajectory(sys2, tables["sym_sys"], 4)[0][3]
        assert liou_norm(gh @ aux_seed[2] @ gh - u4) < 1e-12


@pytest.fixture(scope="module")
def synthetic(sys2, tables):
    tab1 = eta_truncated(tables["sym_env"], 1)
    kset, seed, aux_seed = extract_kernels(sys2, tab1, 6, "smatpi")
    kttm, _, _ = extract_kernels(sys2, tab1, 6, "ttm")
    return kset, kttm, seed, aux_seed, tab1


class TestOneStepMemory:
    def test_midpoint_nullity(self, synthetic):
        kset = synthetic[0]
        assert all(liou_norm(m) < 1e-12 for m in kset.midpoint[1:])

    def test_termination_nullity(self, synthetic):
        kset = synthetic[0]
        assert all(liou_norm(t) < 1e-12 for t in kset.termination[1:])

    def test_ttm_spurious_memory(self, synthetic):
        kttm = synthetic[1]
        assert liou_norm(kttm.midpoint[1]) > 1e-6

    def test_propagation_exact_beyond_memory(self, sys2, synthetic, tables):
        _, _, _, _, tab1 = synthetic
        kset, seed, aux_seed = extract_kernels(sys2, tab1, 2, "smatpi")
        traj = propagate(kset, 6)
        full, _, _ = oracle_trajectory(sys2, tab1, 6)
        for n in range(3, 7):
            assert liou_norm(traj[n - 1] - full[n - 1]) < 1e-12


class TestAsymCoincidence:
    def test_termination_equals_ttm(self, sys2, tables):
        kset, seed, aux_seed = extract_kernels(sys2, tables["asym"], 6, "smatpi")
        tensors = extract_ttm(seed)
        assert all(
            liou_norm(a - b) < 1e-12 for a, b in zip(kset.termination, tensors)
        )

    def test_closed_forms(self, sys2, tables):
        kset, seed, _ = extract_kernels(sys2, tables["asym"], 2, "ttm")
        assert liou_norm(closed_form_asym(sys2, tables["asym"], 1) - kset.midpoint[0]) < 1e-12
        assert liou_norm(closed_form_asym(sys2, tables["asym"], 2) - kset.midpoint[1]) < 1e-12

    def test_zero_coupling_closed_forms(self, sys2, grid8):
        from ifkernels import BathSpec, SpectralDensity

        bath0 = BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)
        tab0 = eta_table(bath0, grid8, "asym")
        g1 = fb_propagators(sys2, 0.1)[0]
        assert liou_norm(closed_form_asym(sys2, tab0, 1) - g1) < 1e-14
        assert liou_norm(closed_form_asym(sys2, tab0, 2)) < 1e-14

    def test_wrong_splitting_rejected(self, sys2, tables):
        with pytest.raises(ValidationError, match=r"^splitting_mismatch:"):
            closed_form_asym(sys2, tables["sym_env"], 1)

    def test_order_above_two_rejected(self, sys2, tables):
        with pytest.raises(ValidationError, match="^order: must be 1 or 2$"):
            closed_form_asym(sys2, tables["asym"], 3)


class TestTrotterOrderings:
    """sym_env and sym_sys share the auxiliary maps, hence the midpoint
    hierarchy: only their terminations carry the measured-end effects.
    sym_sys is asym conjugated by the half-step propagator."""

    @pytest.fixture(params=[("sys2", 8), ("sys3", 4)], ids=["n2", "n3"])
    def case(self, request, bath_default):
        system, r = request.param
        grid = TimeGrid(0.1, r, r)
        return request.getfixturevalue(system), r, {
            sp: eta_table(bath_default, grid, sp) for sp in ("sym_env", "sym_sys", "asym")}

    def test_symmetric_orderings_share_the_auxiliary_maps(self, case):
        sys_, r, tabs = case
        _, env0, env = oracle_trajectory(sys_, tabs["sym_env"], r)
        _, sys0, sym = oracle_trajectory(sys_, tabs["sym_sys"], r)
        assert np.array_equal(env0, sys0)
        assert np.max(np.abs(env - sym)) < 1e-15

    def test_only_the_terminations_differ(self, case):
        sys_, r, tabs = case
        env, sym = (extract_kernels(sys_, tabs[sp], r, "smatpi")[0] for sp in ("sym_env", "sym_sys"))
        assert np.max(np.abs(env.midpoint - sym.midpoint)) < 1e-14
        assert np.max(np.abs(env.termination - sym.termination)) > 1e-3

    def test_sym_sys_is_asym_conjugated_by_the_half_step(self, case):
        sys_, r, tabs = case
        g = fb_propagators(sys_, 0.05)[0]
        g_inv = np.linalg.inv(g)
        (sym, sym_full, _), (asym, asym_full, _) = (
            extract_kernels(sys_, tabs[sp], r, "ttm") for sp in ("sym_sys", "asym"))
        assert np.max(np.abs(sym_full - g @ asym_full @ g_inv)) < 1e-14
        assert np.max(np.abs(sym.midpoint - g @ asym.midpoint @ g_inv)) < 1e-14


class TestPrefix:
    """A set extracted at R - 1 is the first R - 1 matrices of the set at R, bit
    for bit: each solve is causal (M_N reads aux_1..aux_N only) and each
    length's path sum stands alone, so a kernel file holds every shorter set."""

    @pytest.mark.parametrize("flavor", ["smatpi", "ttm"])
    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    @pytest.mark.parametrize("system, r", [("sys2", 6), ("sys3", 4)], ids=["n2", "n3"])
    def test_shorter_set_is_a_prefix(self, request, bath_default, system, r, splitting, flavor):
        sys_ = request.getfixturevalue(system)

        def extract(k):  # from a table of horizon k, as ``extract --rmax k`` builds it
            table = eta_table(bath_default, TimeGrid(0.1, k, k), splitting)
            return extract_kernels(sys_, table, k, flavor)[0]

        long, short = extract(r), extract(r - 1)
        assert short.r_max == r - 1
        for name in ("midpoint", "termination", "aux0"):
            a, b = getattr(short, name), getattr(long, name)
            b = b[: r - 1] if b is not None and name != "aux0" else b
            assert (a is None and b is None) or np.array_equal(a, b), name


class TestExtractArguments:
    """Bad extraction arguments fail before the path sum is run."""

    @pytest.fixture(autouse=True)
    def no_path_sum(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the arguments are checked before the path sum")

        monkeypatch.setattr("ifkernels.pathsum.oracle_trajectory", forbidden)

    @pytest.mark.parametrize("flavor", ["bogus", "SMATPI", None])
    def test_unknown_flavor(self, sys2, tables, flavor):
        with pytest.raises(ValidationError, match=f"^flavor: unknown flavor {flavor!r}$"):
            extract_kernels(sys2, tables["sym_env"], 3, flavor)


class TestStacks:
    """Every matrix sequence is one plain (k, d, d) complex array."""

    @staticmethod
    def assert_read_only_stack(a, shape):
        assert a.shape == shape and a.dtype == complex
        assert a.flags.c_contiguous and not a.flags.writeable

    @pytest.mark.parametrize("splitting, flavor", [("sym_env", "smatpi"), ("sym_sys", "smatpi"),
                                                   ("asym", "smatpi"), ("sym_env", "ttm")])
    def test_kernel_set_fields_are_read_only_stacks(self, sys2, tables, splitting, flavor):
        kset, _, _ = extract_kernels(sys2, tables[splitting], 3, flavor)
        self.assert_read_only_stack(kset.midpoint, (3, 4, 4))
        if kset.termination is not None:
            self.assert_read_only_stack(kset.termination, (3, 4, 4))
        if kset.aux0 is not None:
            self.assert_read_only_stack(kset.aux0, (4, 4))
        assert (kset.termination is None) == (flavor == "ttm")
        with pytest.raises(ValueError, match="read-only"):
            kset.midpoint[0, 0, 0] = 1.0

    def test_kernel_set_copies_caller_arrays(self):
        rng = np.random.default_rng(5)
        mats = random_seq(rng, 3)  # a list of matrices is stacked
        stack = np.stack(random_seq(rng, 3))
        aux0 = np.eye(4)
        kset = KernelSet("sym_env", 0.1, mats, stack, aux0)
        self.assert_read_only_stack(kset.midpoint, (3, 4, 4))
        self.assert_read_only_stack(kset.termination, (3, 4, 4))
        self.assert_read_only_stack(kset.aux0, (4, 4))
        assert np.array_equal(kset.midpoint, mats) and np.array_equal(kset.termination, stack)
        assert not np.shares_memory(kset.termination, stack) and stack.flags.writeable
        stack[0] = 0.0
        aux0[0, 0] = 2.0
        assert kset.termination[0, 0, 0] != 0.0 and kset.aux0[0, 0] == 1.0

    def test_propagate_returns_a_stack(self, sys2, tables):
        kset, _, _ = extract_kernels(sys2, tables["sym_env"], 3, "smatpi")
        maps = propagate(kset, 6)
        assert isinstance(maps, np.ndarray) and maps.dtype == complex
        assert maps.shape == (6, 4, 4) and maps.flags.c_contiguous

    def test_propagate_zero_steps(self):
        kset = KernelSet("asym", 0.1, (np.eye(4),))
        assert propagate(kset, 0).shape == (0, 4, 4)

    def test_extraction_returns_oracle_stacks(self, sys2, tables):
        _, full, aux = extract_kernels(sys2, tables["sym_env"], 3, "smatpi")
        assert full.shape == aux.shape == (3, 4, 4)
        assert isinstance(solve_midpoint(aux), np.ndarray)
        assert isinstance(extract_ttm(full), np.ndarray)
        assert gqme_kernel(extract_ttm(full), 0.1).shape == (2, 4, 4)

    def test_ragged_input_is_dim_mismatch(self):
        ragged = [np.eye(4), np.eye(9)]
        with pytest.raises(ValidationError, match=r"^dim_mismatch: midpoint"):
            KernelSet("sym_env", 0.1, ragged)
        with pytest.raises(ValidationError, match=r"^dim_mismatch: termination"):
            KernelSet("asym", 0.1, [np.eye(4)] * 2, ragged)
        for solve in (solve_midpoint, extract_ttm, lambda y: solve_termination(y, y),
                      lambda y: solve_termination([np.eye(4)] * 2, y),
                      lambda y: gqme_kernel(y, 0.1)):
            with pytest.raises(ValidationError, match=r"^dim_mismatch:"):
                solve(ragged)

    @pytest.mark.parametrize("field, value, shape", [
        ("midpoint", np.zeros((2, 4, 3)), "(4, 3)"),
        ("midpoint", np.zeros((2, 4)), "(4,)"),
        ("termination", np.zeros((2, 3, 3)), "(3, 3)"),
        ("aux0", np.zeros((3, 3)), "(3, 3)"),
        ("aux0", np.zeros((2, 4, 4)), "(2, 4, 4)"),
    ])
    def test_wrong_shape_is_dim_mismatch(self, field, value, shape):
        fields = dict(midpoint=np.zeros((2, 4, 4)), termination=np.zeros((2, 4, 4)),
                      aux0=np.eye(4))
        fields[field] = value
        with pytest.raises(ValidationError, match=f"^dim_mismatch: {field} shape {re.escape(shape)}"):
            KernelSet("sym_env", 0.1, fields["midpoint"], fields["termination"], fields["aux0"])


SPLITTINGS = ("sym_env", "sym_sys", "asym")
# every kind of kernel set, the six that extraction makes: one ttm set per
# splitting (identity tail), and one smatpi set per splitting, with an aux0
# tail under sym_env and sym_sys and the identity tail under asym
ENGINE_CASES = [(sp, flavor) for flavor in ("ttm", "smatpi") for sp in SPLITTINGS]


def _random_set_and_reference(rng, splitting, flavor, horizon, r_max=3):
    """A random kernel set of the splitting and flavor, and U_1..U_horizon by the reference loop."""
    mids = random_seq(rng, r_max, scale=0.4)
    terms = random_seq(rng, r_max, scale=0.4)
    aux0 = np.eye(4) + 0.1 * random_seq(rng, 1)[0]
    if flavor == "ttm":
        return KernelSet(splitting, 0.1, mids), convolution_reference(mids, horizon)
    tail = None if splitting == "asym" else aux0
    kset = KernelSet(splitting, 0.1, mids, terms, tail)
    aux = convolution_reference(mids, horizon, tail=tail)
    return kset, convolution_reference(terms, horizon, tail=tail, b=aux)


class TestPropagate:
    def test_memoryless_free_propagation(self, sys2, grid8):
        from ifkernels import BathSpec, SpectralDensity

        bath0 = BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)
        tab0 = eta_table(bath0, grid8, "sym_env")
        g1 = fb_propagators(sys2, 0.1)[0]
        for flavor in ("smatpi", "ttm"):
            kset, seed, aux_seed = extract_kernels(sys2, tab0, 1, flavor)
            traj = propagate(kset, 8)
            for n in range(1, 9):
                assert liou_norm(traj[n - 1] - np.linalg.matrix_power(g1, n)) < 1e-12

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    @pytest.mark.parametrize("flavor", ["smatpi", "ttm"])
    def test_full_seed_reproduces_oracle(self, splitting, flavor, sys2, tables):
        # the first r_max maps, rebuilt from the kernel set alone, are the
        # oracle maps it was extracted from
        kset, seed, _ = extract_kernels(sys2, tables[splitting], 6, flavor)
        traj = propagate(kset, 6)
        assert len(traj) == 6
        assert max(liou_norm(a - b) for a, b in zip(traj, seed)) < 1e-10

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    @pytest.mark.parametrize("flavor", ["smatpi", "ttm"])
    @pytest.mark.parametrize("horizon", [1, 3, 11])
    def test_truncated_recurrence_matches_reference(self, splitting, flavor, horizon):
        # random kernel sets of r_max = 3, propagated past r_max, against the
        # one-product-per-term convolution loop
        kset, expected = _random_set_and_reference(
            np.random.default_rng(horizon), splitting, flavor, horizon)
        maps = propagate(kset, horizon)
        assert len(maps) == horizon
        assert max(liou_norm(a - b) for a, b in zip(maps, expected)) < 1e-12

    def test_convergence_with_memory_length(self, sys2, bath_default):
        # t = 3.0 population difference under growing memory truncation;
        # increments shrink monotonically; final value frozen as golden
        rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
        pops = {}
        for r in (4, 5, 6):
            tab = eta_table(bath_default, TimeGrid(0.1, r, r), "sym_env")
            kset, seed, aux_seed = extract_kernels(sys2, tab, r, "smatpi")
            traj = propagate(kset, 30)
            rho = (traj[29] @ rho0.reshape(-1)).reshape(2, 2)
            pops[r] = (rho[0, 0] - rho[1, 1]).real
        assert abs(pops[5] - pops[4]) > abs(pops[6] - pops[5])
        assert pops[6] == pytest.approx(-0.5695336491688535, abs=1e-9)


class TestEngine:
    @pytest.mark.parametrize("case", ENGINE_CASES)
    @pytest.mark.parametrize("chunk", ["one", "three", "horizon - r_max", "past horizon"])
    def test_chunk_edges_match_reference(self, monkeypatch, case, chunk):
        # chunks of one map, of fewer maps than r_max, ending where the head
        # ends, and one chunk for the whole run all give the reference maps
        horizon, r_max = 20, 3
        size = {"one": 1, "three": 3, "horizon - r_max": horizon - r_max,
                "past horizon": horizon + 5}[chunk]
        monkeypatch.setattr(kernels, "CHUNK", size)
        kset, expected = _random_set_and_reference(
            np.random.default_rng(len(chunk)), *case, horizon, r_max)
        blocks = list(propagate_blocks(kset, horizon))
        assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        got = np.concatenate(blocks)
        assert got.shape == (horizon, 4, 4)
        assert np.max(np.abs(got - expected)) <= 1e-11 * np.max(np.abs(expected))

    def test_right_block_shape_checked(self):
        kset = KernelSet("asym", 0.1, (np.eye(4),))
        for bad in (np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValidationError, match=r"^dim_mismatch: right-hand block"):
                propagate_blocks(kset, 6, right=bad)

    def test_blocks_of_chunk_maps(self):
        kset = KernelSet("asym", 0.1, (np.eye(4),))
        blocks = list(propagate_blocks(kset, 2 * CHUNK + 5))
        assert [len(b) for b in blocks] == [CHUNK, CHUNK, 5]
        assert all(np.array_equal(b, np.broadcast_to(np.eye(4), b.shape)) for b in blocks)
        assert list(propagate_blocks(kset, 0)) == [] and propagate(kset, 0).shape == (0, 4, 4)

    def test_arguments_checked_on_call(self, monkeypatch, sys2, tables):
        from ifkernels import pathsum

        kset, _, _ = extract_kernels(sys2, tables["sym_sys"], 3, "smatpi")
        monkeypatch.setattr(pathsum, "SIZE_LIMIT", 1)
        with pytest.raises(ValidationError, match="size_limit"):
            propagate_blocks(kset, 6)  # before the first block is asked for

    def test_divergent_set_fails(self):
        # midpoint 2 I doubles every map: U_1024 = 2^1024 I overflows
        kset = KernelSet("sym_env", 0.1, (2 * np.eye(4),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warnings either
            with pytest.raises(NumericalError, match=r"^propagation_diverged: U_1024 is not finite"):
                propagate(kset, 2000)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("splitting, flavor",
                             [("sym_sys", "ttm"), ("sym_env", "smatpi"), ("sym_sys", "smatpi")])
    def test_rounding_below_the_loop(self, sys2, tables, splitting, flavor):
        # 2000 steps from r_max = 6 kernels against the reference loop run
        # in extended precision: the engine is off by 1.1e-15 (sym_env
        # smatpi), 5.6e-15 (sym_sys ttm) and 4.0e-15 (sym_sys smatpi) on an
        # x86-64 host with numpy's OpenBLAS; the per-step loop it replaced
        # was off by 3.3e-14 and 4.0e-14 on the first two.  The sym_sys reference dresses U_n = G aux_{n-1} G
        # itself, from the oracle's aux_0, not from the set's termination
        # or tail.
        kset, _, _ = extract_kernels(sys2, tables[splitting], 6, flavor)

        def extended(mats):
            return np.asarray(mats).astype(np.clongdouble)

        if flavor == "ttm":
            exact = convolution_reference(extended(kset.midpoint), 2000)
        elif splitting == "sym_sys":
            g = extended(fb_propagators(sys2, 0.05)[0])
            aux0 = extended(oracle_trajectory(sys2, tables[splitting], 6)[1])
            aux = convolution_reference(extended(kset.midpoint), 1999, tail=aux0)
            exact = [g @ a @ g for a in [aux0] + aux]
        else:
            tail = extended(kset.aux0)
            aux = convolution_reference(extended(kset.midpoint), 2000, tail=tail)
            exact = convolution_reference(extended(kset.termination), 2000, tail=tail, b=aux)
        got = propagate(kset, 2000)
        assert float(np.max(np.abs(got - np.array(exact)))) < 1e-14

    @pytest.mark.parametrize("splitting, flavor", ENGINE_CASES)
    def test_long_run_drift(self, sys2, tables, splitting, flavor):
        # 20000 steps from the default set at r_max = 6.  Over these seven
        # sets the per-step loop this engine replaced drifted from trace
        # preservation by up to 1.29e-11 and from the Hermiticity symmetry
        # by up to 6.97e-13, the engine by 1.21e-11 and 6.96e-13.  That
        # drift is the kernels' own and moves with their last bits (sets
        # perturbed by about one ulp drift by up to 1.7e-11 and 7.8e-12), so
        # the first bounds leave room for other platforms.  With the kernels
        # made exactly symmetric the propagated maps stay symmetric to
        # rounding (7.3e-15 here): the engine adds no drift of its own.
        swap = np.eye(4)[[0, 2, 1, 3]]  # (f, b) -> (b, f)

        def defect(maps):
            return np.max(np.abs(maps - swap @ maps.conj() @ swap))

        kset, _, _ = extract_kernels(sys2, tables[splitting], 6, flavor)
        maps = propagate(kset, 20000)
        trace = maps[:, [0, 3], :].sum(axis=1)  # rows (0, 0) and (1, 1)
        assert np.max(np.abs(trace - [1, 0, 0, 1])) < 3e-11
        assert defect(maps) < 1.5e-11

        def symmetric(mats):  # a + mirror(a) and mirror(a) + a round alike
            return None if mats is None else [(m + swap @ m.conj() @ swap) / 2 for m in mats]

        exact = KernelSet(splitting, 0.1, symmetric(kset.midpoint), symmetric(kset.termination),
                          None if kset.aux0 is None else symmetric([kset.aux0])[0])
        assert defect(propagate(exact, 20000)) < 1e-13


class TestEndpointDistinctness:
    def test_m1_t1_u1_pairwise_distinct(self, sys2, tables):
        # the extracted first midpoint, first termination, and first map all
        # differ once the bath couples (alpha = 0.1 default set)
        kset, seed, _ = extract_kernels(sys2, tables["sym_env"], 6, "smatpi")
        m1, t1, u1 = kset.midpoint[0], kset.termination[0], seed[0]
        assert liou_norm(m1 - t1) > 1e-10
        assert liou_norm(t1 - u1) > 1e-10
        assert liou_norm(m1 - u1) > 1e-10


class TestCompare:
    def test_identical_sets(self, sys2, tables):
        kset, _, _ = extract_kernels(sys2, tables["sym_env"], 4, "ttm")
        rows, _, _ = compare(kset, kset)
        assert all(row[5] == 0.0 for row in rows)

    def test_one_step_memory_contrast(self, sys2, tables):
        tab1 = eta_truncated(tables["sym_env"], 1)
        kset, _, _ = extract_kernels(sys2, tab1, 6, "smatpi")
        kttm, _, _ = extract_kernels(sys2, tab1, 6, "ttm")
        rows, first_a, _ = compare(kset, kttm, threshold=1e-3)
        assert rows[1][1] < 1e-12
        assert rows[1][3] > 1e-6
        assert first_a == 2

    def test_dt_mismatch_rejected(self, sys2, tables):
        kset, _, _ = extract_kernels(sys2, tables["sym_env"], 4, "ttm")
        other = KernelSet("sym_env", 0.2, kset.midpoint)
        with pytest.raises(ValidationError):
            compare(kset, other)

    def test_dt_compared_exactly(self, sys2, bath_default):
        # steps of 1e-16 and 9e-16 differ by less than the old absolute tolerance, 1e-15
        a, b = (extract_kernels(sys2, eta_table(bath_default, TimeGrid(dt, 4, 4), "sym_env"), 4,
                                "ttm")[0] for dt in (1e-16, 9e-16))
        with pytest.raises(ValidationError, match="kernel sets differ in dt"):
            compare(a, b)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        kset = KernelSet("sym_env", 0.1, [np.eye(4)] * 2)
        with pytest.raises(ValidationError, match=r"^threshold: must be finite and > 0"):
            compare(kset, kset, threshold=threshold)

    def test_first_below_from_the_stacks(self):
        # norms 1, 0.5, 1e-4 against a zero set: set a falls below 1e-3 at
        # k = 3, an all-zero set never does, and the shorter set pads with None
        mats = np.array([1.0, 0.5, 1e-4])[:, None, None] * np.eye(4)
        a = KernelSet("sym_env", 0.1, mats)
        b = KernelSet("sym_env", 0.1, np.zeros((2, 4, 4)))
        rows, first_a, first_b = compare(a, b, threshold=1e-3)
        k, norms_a, term_norms_a, norms_b, term_norms_b, diffs = zip(*rows)
        assert k == (1, 2, 3) and term_norms_b == (None,) * 3
        assert norms_a == (1.0, 0.5, 1e-4) and norms_b == (0.0, 0.0, None)
        assert diffs == (1.0, 0.5, None) and term_norms_a == (None,) * 3
        assert (first_a, first_b) == (3, None)

    def test_splitting_mismatch_rejected(self, sys2, tables):
        kset, _, _ = extract_kernels(sys2, tables["sym_env"], 4, "ttm")
        other = KernelSet("asym", 0.1, kset.midpoint)
        with pytest.raises(ValidationError, match=r"^splitting_mismatch:"):
            compare(kset, other)

    def test_dim_mismatch_rejected(self):
        a, b = (KernelSet("sym_env", 0.1, (np.eye(d),)) for d in (4, 9))
        with pytest.raises(ValidationError, match="^dim_mismatch: kernel sets differ in dimension$"):
            compare(a, b)


class TestKernelSet:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.1, 0.0])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValidationError) as info:
            KernelSet("sym_env", dt, (np.eye(4),))
        assert str(info.value) == f"dt: must be finite and > 0, got {dt!r}"

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_wrong_matrix_count(self, count):
        # r_max is the midpoint count, and the termination stack must match it
        with pytest.raises(ValidationError,
                           match=f"^termination: r_max 2 but {count} termination matrices$"):
            KernelSet("asym", 0.1, [np.eye(4)] * 2, [np.eye(4)] * count)

    @pytest.mark.parametrize("field", ["midpoint", "termination", "aux0"])
    def test_rejects_non_finite_entries(self, field):
        fields = dict(midpoint=np.zeros((2, 4, 4)), termination=np.zeros((2, 4, 4)),
                      aux0=np.eye(4))
        fields[field] = fields[field].copy()
        fields[field].flat[5] = np.nan
        with pytest.raises(ValidationError, match=f"non_finite: {field} matrix contains non-finite"):
            KernelSet("sym_env", 0.1, fields["midpoint"], fields["termination"], fields["aux0"])

    def test_rejects_aux0_beside_an_identity_tail(self):
        # ttm sets and asym smatpi sets start from the identity: an aux0
        # matrix beside them would be ignored by propagation
        mats = (np.eye(4),)
        for splitting, termination in [("sym_env", None), ("sym_sys", None), ("asym", None),
                                       ("asym", mats)]:
            kind = f"{'ttm' if termination is None else 'smatpi'} {splitting} kernels"
            with pytest.raises(ValidationError,
                               match=f"^aux0: matrix given: {kind} have the identity tail$"):
                KernelSet(splitting, 0.1, mats, termination, 2 * np.eye(4))

    def test_uniform_window_smatpi_needs_aux0(self):
        # without its aux0 a sym_env or sym_sys smatpi set would run against the identity
        mats = (np.eye(4),)
        for splitting in ("sym_env", "sym_sys"):
            with pytest.raises(ValidationError,
                               match=f"^aux0: matrix missing: smatpi {splitting} kernels need it$"):
                KernelSet(splitting, 0.1, mats, mats)

    def test_rejects_empty_set(self):
        for empty in ((), np.zeros((0, 4, 4))):
            with pytest.raises(ValidationError,
                               match="^midpoint: r_max must be >= 1: no midpoint matrices$"):
                KernelSet("sym_env", 0.1, empty)

    def test_fields_are_the_matrices(self, sys2, tables):
        # r_max, flavor and dim are read off the stacks; the set stores nothing else
        names = [f.name for f in dataclasses.fields(KernelSet)]
        assert names == ["splitting", "dt", "midpoint", "termination", "aux0"]
        for flavor, r_max in (("smatpi", 3), ("ttm", 2)):
            kset, _, _ = extract_kernels(sys2, tables["sym_env"], r_max, flavor)
            assert (kset.flavor, kset.r_max, kset.dim) == (flavor, r_max, 4)
            with pytest.raises(AttributeError):
                kset.r_max = 5

    def test_rejects_unknown_splitting(self):
        with pytest.raises(ValidationError, match="^splitting: unknown splitting 'bogus'$"):
            KernelSet("bogus", 0.1, (np.eye(4),))


class TestConventions:
    def test_shipped_default_nullifies_one_step_memory_sym_sys(self, sys2, tables):
        # solved against its aux_0 tail, the hierarchy has vanishing midpoints
        tab1 = eta_truncated(tables["sym_sys"], 1)
        kset, _, _ = extract_kernels(sys2, tab1, 6, "smatpi")
        assert kset.aux0 is not None
        assert all(liou_norm(m) < 1e-12 for m in kset.midpoint[1:])
