import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifkernels import BathSpec, EtaTable, SpectralDensity
from ifkernels import bath as bath_module
from ifkernels.bath import (
    OMEGA_NODES_START,
    _leggauss,
    _spectral_window_integrals,
    _window_layout,
    _x_minus_sin,
    bump_correlation,
    eta_table,
    eta_table_from_correlation,
    eta_truncated,
    influence_pair_matrix,
    influence_self_weights,
)
from ifkernels.errors import EtaMissingError, QuadratureError, ValidationError
from ifkernels.liouville import TimeGrid, liou_norm
from ifkernels.pathsum import oracle_trajectory

from _oracles import (
    bath_correlation,
    matsubara_correlation,
    spectral_eta_pair,
    spectral_eta_self,
    time_domain_eta_table,
)

# Frozen from the quadrature route and confirmed against the independent
# spectral-form oracle to ~1e-16 (default set: alpha=0.1, omega_c=5, beta=5,
# dt=0.1, interior separation 1).
GOLDEN_ETA_10 = 0.006233598303998054 - 0.007094852730208117j


def test_spectral_density_validation():
    with pytest.raises(ValidationError):
        SpectralDensity("drude", 0.1, 5.0)
    with pytest.raises(ValidationError, match="non_finite"):
        SpectralDensity("ohmic_exponential", float("nan"), 5.0)
    with pytest.raises(ValidationError, match="non_finite"):
        SpectralDensity("ohmic_exponential", 0.1, float("inf"))
    with pytest.raises(ValidationError):
        SpectralDensity("ohmic_exponential", -0.1, 5.0)
    with pytest.raises(ValidationError):
        SpectralDensity("ohmic_exponential", 0.1, 0.0)


class TestCorrelation:
    def test_zero_coupling(self):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)
        assert bath_correlation(bath, 0.3) == 0.0

    def test_zero_temperature_closed_form(self, bath_zero_t):
        # C(0) = alpha * omega_c^2 / 2
        assert abs(bath_correlation(bath_zero_t, 0.0) - 1.25) < 1e-14
        c = bath_correlation(bath_zero_t, 0.2)
        expected = 0.5 * 0.1 * 25.0 / (1.0 + 1j * 5.0 * 0.2) ** 2
        assert abs(c - expected) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-2.0, 2.0))
    def test_negative_time_conjugate(self, bath_default, t):
        assert abs(
            bath_correlation(bath_default, -t) - np.conj(bath_correlation(bath_default, t))
        ) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.05, 0.1, 0.5, 1.0, 2.0])
    def test_matches_matsubara_oracle(self, t, bath_default):
        got = bath_correlation(bath_default, t)
        want = matsubara_correlation(0.1, 5.0, 5.0, t)
        assert abs(got - want) < 1e-12

    def test_closed_form_consistent_with_quadrature(self, bath_zero_t):
        # the zero-temperature branch agrees with the quadrature route in the
        # cold limit (coth -> 1)
        cold = BathSpec(SpectralDensity("ohmic_exponential", 0.1, 5.0), 1e9)
        for t in (0.0, 0.1, 0.7):
            assert abs(
                bath_correlation(bath_zero_t, t) - bath_correlation(cold, t)
            ) < 1e-10


class TestEtaTable:
    def test_zero_coupling_all_zero(self, grid8):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)
        tab = eta_table(bath, grid8, "sym_env")
        assert not np.any(tab.interior) and not np.any(tab.right)

    def test_translation_invariance_uniform(self, tables):
        # the uniform windows [k dt, (k+1) dt) of a pair (k, k') away from the
        # origin integrate to the coefficient of their separation
        for k, kp in [(1, 1), (3, 1), (5, 2), (8, 8)]:
            win, win_p = (0.1 * k, 0.1 * k + 0.1), (0.1 * kp, 0.1 * kp + 0.1)
            if k == kp:
                want = spectral_eta_self(0.1, 5.0, 5.0, win)
            else:
                want = spectral_eta_pair(0.1, 5.0, 5.0, win, win_p)
            for splitting in ("sym_sys", "asym"):
                assert abs(tables[splitting].interior[k - kp] - want) < 1e-12

    def test_uniform_roles(self, tables):
        # no endpoint-flavored coefficients: the measured end reads interior
        for splitting in ("sym_sys", "asym"):
            assert tables[splitting].right is tables[splitting].interior
        assert tables["sym_env"].right is not tables["sym_env"].interior

    def test_golden_interior_value(self, tables):
        assert abs(tables["sym_sys"].interior[1] - GOLDEN_ETA_10) < 1e-10
        assert abs(tables["sym_env"].interior[1] - GOLDEN_ETA_10) < 1e-10

    def test_golden_against_spectral_oracle(self):
        got = spectral_eta_pair(0.1, 5.0, 5.0, (0.1, 0.2), (0.0, 0.1))
        assert abs(got - GOLDEN_ETA_10) < 1e-10

    def test_self_entry_against_spectral_oracle(self, tables):
        want = spectral_eta_self(0.1, 5.0, 5.0, (0.0, 0.1))
        assert abs(tables["sym_sys"].interior[0] - want) < 1e-12

    def test_measured_end_differs_from_interior(self, tables):
        # sym_env pairs touching k = N carry endpoint-flavored values
        tab = tables["sym_env"]
        for m in range(0, tab.horizon):
            assert abs(tab.right[m] - tab.interior[m]) > 1e-6

    def test_right_entries_against_spectral_oracle(self, tables):
        tab = tables["sym_env"]
        want = spectral_eta_pair(0.1, 5.0, 5.0, (0.05, 0.1), (-0.05, 0.05))
        assert abs(tab.right[1] - want) < 1e-12
        want_self = spectral_eta_self(0.1, 5.0, 5.0, (-0.05, 0.0))
        assert abs(tab.right[0] - want_self) < 1e-12

    def test_missing_lookup(self, tables, sys2):
        # a path sum past the table's horizon fails before any work; sym_sys
        # needs horizon >= steps too, for its auxiliary maps of every length
        for splitting in ("sym_env", "sym_sys", "asym"):
            with pytest.raises(EtaMissingError, match="eta_missing"):
                oracle_trajectory(sys2, tables[splitting], 9)

    def test_truncated_table(self, tables):
        tab = eta_truncated(tables["sym_env"], 1)
        assert tab.interior[2] == 0.0 and tab.right[2] == 0.0
        assert np.array_equal(tab.interior[:2], tables["sym_env"].interior[:2])
        assert np.array_equal(tab.right[:2], tables["sym_env"].right[:2])
        assert not np.any(tab.interior[2:]) and not np.any(tab.right[2:])
        uniform = eta_truncated(tables["asym"], 1)
        assert uniform.right is uniform.interior


class TestConstruction:
    def test_unknown_splitting(self):
        with pytest.raises(ValidationError, match="unknown splitting"):
            EtaTable("midpoint", 0.1, np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("interior, right", [
        (np.zeros(3), np.zeros(4)),  # unequal lengths
        (np.zeros(1), np.zeros(1)),  # no separation 1
        (np.zeros((2, 2)), np.zeros((2, 2))),  # not one-dimensional
    ])
    def test_bad_arrays(self, interior, right):
        with pytest.raises(ValidationError):
            EtaTable("sym_env", 0.1, interior, right)

    def test_uniform_splittings_have_no_endpoint_array(self):
        for splitting in ("sym_sys", "asym"):
            with pytest.raises(ValidationError, match="no endpoint"):
                EtaTable(splitting, 0.1, np.zeros(3), np.zeros(3))
            values = np.arange(3.0)
            tab = EtaTable(splitting, 0.1, values, values)
            assert tab.right is tab.interior and tab.horizon == 2

    def test_arrays_are_read_only_copies(self, tables):
        values = np.array([1.0, 2.0, 3.0])
        tab = EtaTable("sym_env", 0.1, values, values)
        values[0] = 9.0
        assert tab.interior[0] == 1.0 and tab.interior.dtype == complex
        for splitting, table in tables.items():
            for arr in (table.interior, table.right):
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        with pytest.raises(AttributeError):
            tables["sym_env"].interior = np.zeros(9)


def _oracle_coefficient(beta, dt, splitting, separation, right):
    """One stored coefficient of the default bath from the scipy-quad oracles."""
    h = 0.5 * dt
    if splitting == "sym_env":
        end = 0.0 if right else h
        if separation == 0:
            return spectral_eta_self(0.1, 5.0, beta, (-h, end))
        start = separation * dt - h
        return spectral_eta_pair(0.1, 5.0, beta, (start, separation * dt + end), (-h, h))
    if separation == 0:
        return spectral_eta_self(0.1, 5.0, beta, (0.0, dt))
    start = separation * dt
    return spectral_eta_pair(0.1, 5.0, beta, (start, start + dt), (0.0, dt))


class TestSpectralRoute:
    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    @pytest.mark.parametrize("beta", [0.5, 5.0, 20.0, np.inf])
    def test_every_coefficient_against_oracles(self, beta, splitting):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.1, 5.0), beta)
        grid = TimeGrid(0.1, 11, 11)
        got = eta_table(bath, grid, splitting)
        want = time_domain_eta_table(bath, grid, splitting)
        assert (got.right is got.interior) == (want.right is want.interior)
        assert (got.right is got.interior) == (splitting != "sym_env")
        for name in ("interior", "right"):
            values = getattr(got, name)
            assert values.shape == getattr(want, name).shape == (12,)
            assert np.max(np.abs(values - getattr(want, name))) < 1e-13
            for separation, value in enumerate(values):
                quad_value = _oracle_coefficient(beta, 0.1, splitting, separation, name == "right")
                assert abs(value - quad_value) < 1e-12

    def test_default_table_node_count(self, bath_default):
        # work-count guard: the default finite-T table converges by 1024 nodes
        triangles, pairs = _window_layout(TimeGrid(0.1, 11, 11), "sym_env")
        values, nodes = _spectral_window_integrals(bath_default, triangles, pairs, 1e-11)
        assert len(values) == len(triangles) + len(pairs) == 24
        assert OMEGA_NODES_START < nodes <= 1024

    def test_zero_coupling_skips_quadrature(self):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)
        triangles, pairs = _window_layout(TimeGrid(0.1, 4, 4), "asym")
        values, nodes = _spectral_window_integrals(bath, triangles, pairs, 1e-11)
        assert nodes == 0 and not np.any(values)

    def test_forced_non_convergence(self, bath_default, monkeypatch):
        monkeypatch.setattr(bath_module, "OMEGA_NODES_MAX", 128)
        with pytest.raises(QuadratureError, match="quadrature_failed"):
            eta_table(bath_default, TimeGrid(0.1, 4, 4), "sym_env", rtol=1e-15)

    def test_small_frequency_forms(self):
        # stable forms against direct evaluation where it is still accurate,
        # and against the leading Taylor term where it is not
        x = np.array([1e-8, 1e-3, 0.5, 0.999, 1.0, 3.0])
        direct = x - np.sin(x)
        assert abs(_x_minus_sin(x[-1]) - direct[-1]) < 1e-15
        assert np.allclose(_x_minus_sin(x[2:]), direct[2:], rtol=1e-13, atol=0)
        assert _x_minus_sin(x[0]) == pytest.approx(x[0] ** 3 / 6, rel=1e-15)
        assert _x_minus_sin(x[1]) == pytest.approx(x[1] ** 3 / 6 - x[1] ** 5 / 120, rel=1e-15)


class TestGaussLegendre:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 17, 128, 129, 1024])
    def test_matches_numpy(self, order):
        x, w = _leggauss(order)
        x_ref, _ = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(x - x_ref)) <= 1e-15
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
        assert abs(w.sum() - 2.0) < 1e-14

    @pytest.mark.parametrize("order", [1024, 4096])
    def test_exact_integrals(self, order):
        # within 1e-13 of each integral's scale, the integral of |f|; numpy's
        # eigensolver rule misses the near-pole one by 6e-12 at 1024 nodes
        x, w = _leggauss(order)
        pole = np.log(2001.0)  # int 1 / (1.001 - x), a positive integrand
        assert abs(w @ (1.0 / (1.001 - x)) - pole) < 1e-13 * pole
        wave = 2.0 * np.sin(300.0) / 300.0  # int cos(300 x); int |cos(300 x)| ~ 4 / pi
        assert abs(w @ np.cos(300.0 * x) - wave) < 1e-13 * 4.0 / np.pi


class TestInfluenceFactors:
    def test_zero_coupling_all_ones(self, grid8, sys2):
        bath = BathSpec(SpectralDensity("ohmic_exponential", 0.0, 5.0), 5.0)
        tab = eta_table(bath, grid8, "sym_env")
        f = influence_pair_matrix(sys2, tab.interior[2])
        assert liou_norm(f - 1.0) < 1e-15

    def test_diagonal_pairs_row_is_ones(self, tables, sys2):
        f = influence_pair_matrix(sys2, tables["sym_env"].interior[1])
        # FB pairs (0,0) and (1,1) have ds = 0: rows identically 1
        assert liou_norm(f[0, :] - 1.0) < 1e-15
        assert liou_norm(f[3, :] - 1.0) < 1e-15

    def test_scalar_hand_oracle(self, tables, sys2):
        eta = tables["sym_sys"].interior[1]
        f = influence_pair_matrix(sys2, tables["sym_sys"].interior[1])
        # row (0,1): ds = +2; column (0,1): s+ = +1, s- = -1
        assert abs(f[1, 1] - np.exp(-2 * (eta + np.conj(eta)))) < 1e-15

    def test_hermitian_pairing(self, tables, sys2):
        def swap(i):
            return (i % 2) * 2 + i // 2

        for m in (1, 2, 3):
            f = influence_pair_matrix(sys2, tables["sym_env"].interior[m])
            for a in range(4):
                for b in range(4):
                    assert abs(f[swap(a), swap(b)] - np.conj(f[a, b])) < 1e-12

    def test_self_factor_magnitude_bound(self, tables, sys2):
        w = influence_self_weights(sys2, tables["sym_env"].interior[0])
        assert w.shape == (4,)
        assert np.max(np.abs(w)) <= 1.0 + 1e-12
        assert w[0] == w[3] == 1.0  # ds = 0 pairs carry no self weight

    def test_separation_decay(self, tables, sys2):
        # non-increasing deviation from the unit matrix beyond m* = 1 (frozen)
        devs = [
            liou_norm(influence_pair_matrix(sys2, tables["sym_env"].interior[m]) - 1.0)
            for m in range(1, 9)
        ]
        assert all(devs[i] >= devs[i + 1] for i in range(len(devs) - 1))


def test_bump_correlation_support_and_smoothness():
    corr = bump_correlation(2.0, 1.0, 0.2)
    assert corr(np.array([0.25]))[0] == 0.0
    assert corr(np.array([0.0]))[0] == pytest.approx(2.0)
    assert corr(np.array([0.0]))[0].imag == 0.0
    grid = TimeGrid(0.05, 6, 6)
    tab = eta_table_from_correlation(corr, grid, "sym_sys")
    # support 0.2 at dt 0.05: pairs with separation >= 5 never overlap the support
    assert tab.interior[5] == 0.0
    assert abs(tab.interior[4]) > 0.0
