import numpy as np
import pytest

from ifkernels import BathSpec, SpectralDensity, SystemSpec
from ifkernels.bath import eta_table
from ifkernels.liouville import TimeGrid

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.fixture(scope="session")
def sys2():
    return SystemSpec(0.5 * PAULI_X, (1.0, -1.0))


@pytest.fixture(scope="session")
def sys3():
    h = np.array([[0.0, 0.4, 0.0], [0.4, 0.2, 0.3], [0.0, 0.3, -0.2]], dtype=complex)
    return SystemSpec(h, (1.0, 0.0, -1.0))


@pytest.fixture(scope="session")
def bath_default():
    return BathSpec(SpectralDensity("ohmic_exponential", 0.1, 5.0), 5.0)


@pytest.fixture(scope="session")
def bath_zero_t():
    return BathSpec(SpectralDensity("ohmic_exponential", 0.1, 5.0), float("inf"))


@pytest.fixture(scope="session")
def grid8():
    return TimeGrid(0.1, 8, 8)


@pytest.fixture(scope="session")
def tables(bath_default, grid8):
    """Default-set eta tables for all three splittings, horizon 8."""
    return {s: eta_table(bath_default, grid8, s) for s in ("sym_env", "sym_sys", "asym")}
