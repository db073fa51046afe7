import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifkernels.combinatorics import catalan, enumerate_dyck
from ifkernels.errors import ValidationError
from ifkernels.kernels import extract_ttm
from ifkernels.liouville import liou_norm

from _oracles import catalan_recurrence, expansion_value, term_census, ttm_terms_bruteforce


class TestCatalan:
    def test_small_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(10) == 16796  # matches the convolution recurrence

    @given(st.integers(0, 30))
    def test_matches_recurrence(self, m):
        assert catalan(m) == catalan_recurrence(m)

    def test_range_guard(self):
        with pytest.raises(ValidationError, match=r"^range:"):
            catalan(31)
        with pytest.raises(ValidationError, match=r"^range:"):
            catalan(-1)


class TestDyck:
    def test_semilength_one(self):
        assert list(enumerate_dyck(1)) == [(1, -1)]

    def test_semilength_two(self):
        assert list(enumerate_dyck(2)) == [(1, -1, 1, -1), (1, 1, -1, -1)]

    def test_semilength_four_count(self):
        assert len(list(enumerate_dyck(4))) == catalan(4) == 14

    @given(st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_counts_and_invariants(self, m):
        paths = list(enumerate_dyck(m))
        assert len(paths) == catalan(m)
        assert len(set(paths)) == len(paths)
        assert sorted(paths) == paths
        for path in paths:  # each a Dyck path: 2m steps of +-1, never below zero, balanced
            assert type(path) is tuple and len(path) == 2 * m
            assert set(path) <= {1, -1}
            assert min(np.cumsum((0,) + path)) == 0 and sum(path) == 0

    def test_range_guard(self):
        # checked on the call, before a path is asked for
        with pytest.raises(ValidationError, match=r"^range:"):
            enumerate_dyck(15)

    def test_paths_are_yielded_one_at_a_time(self):
        paths = enumerate_dyck(14)  # 2674440 paths: only the first is made
        assert next(paths) == (1, -1) * 14
        assert next(paths) == (1, -1) * 12 + (1, 1, -1, -1)


class TestExpansion:
    """The transfer-tensor expansion oracle against hand-written terms and its census."""

    def test_first_orders(self):
        assert ttm_terms_bruteforce(1) == {(1,): 1}
        assert ttm_terms_bruteforce(2) == {(2,): 1, (1, 1): -1}

    def test_order_four_terms(self):
        want = {
            (4,): 1,
            (1, 3): -1,
            (3, 1): -1,
            (2, 2): -1,
            (1, 1, 2): 1,
            (1, 2, 1): 1,
            (2, 1, 1): 1,
            (1, 1, 1, 1): -1,
        }
        assert ttm_terms_bruteforce(4) == want

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_census_and_signs(self, k):
        terms = ttm_terms_bruteforce(k)
        assert len(terms) == 2 ** (k - 1)
        for factors, sign in terms.items():
            assert sum(factors) == k and min(factors) >= 1
            assert sign == (-1) ** (len(factors) - 1)
        # census matches the binomial distribution over part counts
        census = term_census(k)
        import math

        assert census == {p: math.comb(k - 1, p - 1) for p in range(1, k + 1)}


class TestNumericCheck:
    """``extract_ttm`` (back-substitution) against the expansion oracle on random maps."""

    def test_first_order_is_first_map(self):
        rng = np.random.default_rng(0)
        maps = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
        got = expansion_value(1, maps)
        assert liou_norm(got - maps[0]) == 0.0

    @pytest.mark.parametrize("k", [2, 5])
    def test_matches_extraction(self, k):
        rng = np.random.default_rng(k)
        maps = [0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in range(k)]
        tensors = extract_ttm(maps)
        got = expansion_value(k, maps)
        assert liou_norm(got - tensors[k - 1]) < 1e-12
