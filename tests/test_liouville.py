import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifkernels.bath import influence_pair_matrix, influence_self_weights
from ifkernels.errors import DimMismatchError, ValidationError
from ifkernels.liouville import (
    SystemSpec,
    TimeGrid,
    apply_map,
    fb_propagator,
    liou_norm,
)

from _oracles import expm_series

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_density(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestSystemSpec:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            SystemSpec(np.array([[0, 1], [0, 0]], dtype=complex), (1.0, -1.0))

    def test_rejects_wrong_coupling_count(self):
        with pytest.raises(ValidationError):
            SystemSpec(0.5 * PAULI_X, (1.0,))

    def test_rejects_single_state(self):
        with pytest.raises(ValidationError):
            SystemSpec(np.zeros((1, 1), dtype=complex), (1.0,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_hamiltonian(self, bad):
        h = np.array([[bad, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValidationError, match="hamiltonian contains non-finite"):
            SystemSpec(h, (1.0, -1.0))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_coupling(self, bad):
        with pytest.raises(ValidationError, match="coupling_eigenvalues contains non-finite"):
            SystemSpec(0.5 * PAULI_X, (1.0, bad))


class TestTimeGrid:
    def test_rejects_bad_rmax(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.1, 4, 5)
        with pytest.raises(ValidationError):
            TimeGrid(0.1, 4, 0)
        with pytest.raises(ValidationError):
            TimeGrid(-0.1, 4, 2)


@given(st.integers(2, 5), st.integers(0, 24))
def test_fb_index_round_trip(n, flat):
    # flat = forward * n + backward: the self weight at a flat index is the
    # one of its (forward, backward) pair, and rho flattens the same way
    flat = flat % (n * n)
    forward, backward = divmod(flat, n)
    s = tuple(float(k * k - 1) for k in range(n))
    sys_ = SystemSpec(np.diag(np.arange(n)).astype(complex), s)
    eta = 0.3 + 0.1j
    ds = s[forward] - s[backward]
    expected = np.exp(-ds * (eta * s[forward] - np.conj(eta) * s[backward]))
    assert abs(influence_self_weights(sys_, eta)[flat] - expected) < 1e-15
    rho = np.arange(n * n, dtype=complex).reshape(n, n)
    assert apply_map(np.eye(n * n), rho)[forward, backward] == rho.reshape(n * n)[flat]


def test_fb_pairs_order():
    # n = 2 pairs in flat order (0,0), (0,1), (1,0), (1,1): with s = (1, -1)
    # the rows have ds = 0, 2, -2, 0, so rows 0 and 3 are all ones
    sys_ = SystemSpec(0.5 * PAULI_X, (1.0, -1.0))
    eta = 0.2 + 0.05j
    f = influence_pair_matrix(sys_, eta)
    s_fwd, s_bwd = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
    for row, ds in enumerate((0.0, 2.0, -2.0, 0.0)):
        assert np.allclose(f[row], np.exp(-ds * (eta * s_fwd - np.conj(eta) * s_bwd)), atol=1e-15)
    assert np.array_equal(influence_self_weights(sys_, eta), np.diag(f))


class TestPropagator:
    def test_zero_time_is_identity(self, sys2):
        assert liou_norm(fb_propagator(sys2, 0.0) - np.eye(4)) < 1e-14

    def test_zero_hamiltonian_is_identity(self):
        sys0 = SystemSpec(np.zeros((2, 2), dtype=complex), (1.0, -1.0))
        assert liou_norm(fb_propagator(sys0, 0.1) - np.eye(4)) < 1e-14

    def test_pauli_x_pi_swaps_populations(self):
        # H = (1/2) pauli_x, tau = pi: |0><0| maps onto |1><1| with unit weight
        sys_ = SystemSpec(0.5 * PAULI_X, (1.0, -1.0))
        g = fb_propagator(sys_, np.pi)
        assert abs(abs(g[3, 0]) - 1.0) < 1e-12
        rho = apply_map(g, np.array([[1, 0], [0, 0]], dtype=complex))
        assert abs(rho[1, 1] - 1.0) < 1e-12
        assert abs(rho[0, 0]) < 1e-12

    def test_matches_series_oracle(self, sys2):
        u = expm_series(np.asarray(sys2.hamiltonian), 0.7)
        g = fb_propagator(sys2, 0.7)
        assert liou_norm(g - np.kron(u, u.conj())) < 1e-13

    def test_unitary(self, sys2):
        g = fb_propagator(sys2, 0.3)
        assert liou_norm(g @ g.conj().T - np.eye(4)) < 1e-12

    def test_composition(self, sys2):
        g1 = fb_propagator(sys2, 0.3)
        g2 = fb_propagator(sys2, 0.45)
        g12 = fb_propagator(sys2, 0.75)
        assert liou_norm(g1 @ g2 - g12) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.0, 3.0))
    def test_trace_and_hermiticity_preserved(self, seed, tau):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        sys_ = SystemSpec(random_hermitian(n, rng), tuple(rng.normal(size=n)))
        rho0 = random_density(n, rng)
        rho = apply_map(fb_propagator(sys_, tau), rho0)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12


class TestApplyMap:
    def test_identity(self, sys2):
        rho0 = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
        assert liou_norm(apply_map(np.eye(4, dtype=complex), rho0) - rho0) < 1e-15

    def test_conjugation_oracle(self, sys2):
        rho0 = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
        u = expm_series(np.asarray(sys2.hamiltonian), 0.4)
        expected = u @ rho0 @ u.conj().T
        got = apply_map(fb_propagator(sys2, 0.4), rho0)
        assert liou_norm(got - expected) < 1e-13

    def test_zero_map(self):
        rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
        assert liou_norm(apply_map(np.zeros((4, 4)), rho0)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError, match="dim_mismatch"):
            apply_map(np.eye(9), np.eye(2))
        with pytest.raises(DimMismatchError, match="dim_mismatch"):
            apply_map(np.zeros((3, 9, 9)), np.eye(2))

    @pytest.mark.parametrize("lead", [(0,), (1,), (7,), (2, 3)])
    def test_stack_equals_per_map_bit_for_bit(self, lead):
        rng = np.random.default_rng(len(lead) + lead[0])
        rho0 = random_density(3, rng)
        maps = rng.normal(size=lead + (9, 9)) + 1j * rng.normal(size=lead + (9, 9))
        got = apply_map(maps, rho0)
        assert got.shape == lead + (3, 3)
        for idx in np.ndindex(*lead):
            assert np.array_equal(got[idx], apply_map(maps[idx], rho0))


def test_liou_norm_values():
    assert liou_norm(np.zeros((4, 4))) == 0.0
    assert liou_norm(np.eye(4)) == 1.0
    m = np.zeros((4, 4), dtype=complex)
    m[2, 1] = 3 - 4j
    assert abs(liou_norm(m) - 5.0) < 1e-15
