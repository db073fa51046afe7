"""Flat line-oriented run configuration.

Format: one ``section.key = value`` assignment per line; ``#`` starts a
comment; blank lines are ignored.  Complex numbers use Python literal
syntax (``0.5+0j``); matrix rows are whitespace-separated complex values
under ``<section>.row.<i>`` keys.  Example::

    system.n = 2
    system.hamiltonian.row.0 = 0+0j 0.5+0j
    system.hamiltonian.row.1 = 0.5+0j 0+0j
    system.coupling_eigenvalues = 1 -1
    bath.kind = ohmic_exponential
    bath.alpha = 0.1
    bath.omega_c = 5
    bath.beta = 5
    grid.dt = 0.1
    grid.n_steps = 30
    grid.r_max = 6
    run.splitting = sym_env
    run.flavor = smatpi
    run.pathsum_budget = 100000000
    initial_state.row.0 = 1+0j 0+0j
    initial_state.row.1 = 0+0j 0+0j

The embedded types check their own invariants and name their section
(``system: ...``); every other violation names its field path.  Every
number must be finite ("non_finite" otherwise); ``bath.beta = inf`` (or
``infinite``) is the only way to write zero temperature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath import SPLITTINGS, BathSpec, SpectralDensity
from .errors import ValidationError
from .kernels import FLAVORS
from .liouville import HERMITICITY_TOL, SystemSpec, TimeGrid
from .pathsum import DEFAULT_BUDGET

_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for one experiment."""

    system: SystemSpec
    bath: BathSpec
    grid: TimeGrid
    splitting: str
    flavor: str
    initial_state: np.ndarray
    pathsum_budget: int = DEFAULT_BUDGET


def default_config_text() -> str:
    """The default example parameter set as config text.

    A conventional two-state system-bath regime with visible but perturbative
    memory; all golden regression values in the test suite derive from it.
    """
    return "\n".join(
        [
            "system.n = 2",
            "system.hamiltonian.row.0 = 0+0j 0.5+0j",
            "system.hamiltonian.row.1 = 0.5+0j 0+0j",
            "system.coupling_eigenvalues = 1 -1",
            "bath.kind = ohmic_exponential",
            "bath.alpha = 0.1",
            "bath.omega_c = 5",
            "bath.beta = 5",
            "grid.dt = 0.1",
            "grid.n_steps = 30",
            "grid.r_max = 6",
            "run.splitting = sym_env",
            "run.flavor = smatpi",
            f"run.pathsum_budget = {DEFAULT_BUDGET}",
            "initial_state.row.0 = 1+0j 0+0j",
            "initial_state.row.1 = 0+0j 0+0j",
            "",
        ]
    )


def _parse_lines(text: str):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"parse: line {lineno}: expected 'key = value'")
        key, _, value = map(str.strip, line.partition("="))
        if not key:
            raise ValidationError(f"parse: line {lineno}: empty key")
        if key in pairs:
            raise ValidationError(f"parse: line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _take(pairs, key, default=None, required=False):
    """Pop ``key`` from ``pairs``; a missing one is ``default`` unless it is ``required``."""
    if key in pairs:
        return pairs.pop(key)
    if required:
        raise ValidationError(f"{key}: missing required field")
    return default


def _take_rows(pairs, prefix):
    """Pop the ``<prefix>.row.<i>`` values of ``pairs``, in row order."""
    rows = {}
    for key in [k for k in pairs if k.startswith(prefix + ".row.")]:
        try:
            idx = int(key[len(prefix) + 5 :])
        except ValueError:
            raise ValidationError(f"{key}: row index must be an integer") from None
        rows[idx] = pairs.pop(key)
    if not rows:
        raise ValidationError(f"{prefix}: missing matrix rows")
    if sorted(rows) != list(range(len(rows))):
        raise ValidationError(f"{prefix}: row indices must be 0..{len(rows) - 1}")
    return [rows[i] for i in range(len(rows))]


def _finite(value, path, raw):
    if not cmath.isfinite(value):
        raise ValidationError(f"{path}: non_finite value {raw!r}")
    return value


def _complex_row(text, path):
    out = []
    for tok in text.split():
        try:
            value = complex(tok)
        except ValueError:
            raise ValidationError(f"{path}: bad complex literal {tok!r}") from None
        out.append(_finite(value, path, tok))
    return out


def _float(fields, key):
    raw = _take(fields, key, required=True)
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{key}: expected a number, got {raw!r}") from None
    return _finite(value, key, raw)


def _int(fields, key, default=None, required=False):
    raw = _take(fields, key, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{key}: expected an integer, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text into a RunConfig."""
    fields = _parse_lines(text)

    n = _int(fields, "system.n", required=True)
    ham_rows = [_complex_row(r, "system.hamiltonian") for r in _take_rows(fields, "system.hamiltonian")]
    if len(ham_rows) != n or any(len(r) != n for r in ham_rows):
        raise ValidationError(f"system.hamiltonian: expected {n} rows of {n} entries")
    coupling_raw = _take(fields, "system.coupling_eigenvalues", required=True)
    try:
        coupling = [float(x) for x in coupling_raw.split()]
    except ValueError:
        raise ValidationError("system.coupling_eigenvalues: bad real literal") from None
    for value in coupling:
        _finite(value, "system.coupling_eigenvalues", coupling_raw)
    system = SystemSpec(np.array(ham_rows, dtype=complex), tuple(coupling))

    kind = _take(fields, "bath.kind", default="ohmic_exponential")
    alpha = _float(fields, "bath.alpha")
    omega_c = _float(fields, "bath.omega_c")
    beta_raw = _take(fields, "bath.beta", required=True)
    beta = math.inf if beta_raw in ("inf", "infinite") else None
    if beta is None:
        try:
            beta = float(beta_raw)
        except ValueError:
            raise ValidationError(f"bath.beta: expected a number or 'inf', got {beta_raw!r}") from None
        _finite(beta, "bath.beta", beta_raw)
    bath = BathSpec(SpectralDensity(kind, alpha, omega_c), beta)
    grid = TimeGrid(_float(fields, "grid.dt"), _int(fields, "grid.n_steps", required=True),
                    _int(fields, "grid.r_max", required=True))

    splitting = _take(fields, "run.splitting", required=True)
    if splitting not in SPLITTINGS:
        raise ValidationError(f"run.splitting: unknown splitting {splitting!r}")
    flavor = _take(fields, "run.flavor", required=True)
    if flavor not in FLAVORS:
        raise ValidationError(f"run.flavor: unknown flavor {flavor!r}")

    rho_rows = [_complex_row(r, "initial_state") for r in _take_rows(fields, "initial_state")]
    if len(rho_rows) != n or any(len(r) != n for r in rho_rows):
        raise ValidationError(f"initial_state: expected a {n}x{n} matrix")
    rho0 = np.array(rho_rows, dtype=complex)
    if np.max(np.abs(rho0 - rho0.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("initial_state: not Hermitian")
    if abs(np.trace(rho0) - 1.0) > _TRACE_TOL:
        raise ValidationError("initial_state: trace must be 1")

    budget = _int(fields, "run.pathsum_budget", default=DEFAULT_BUDGET)
    if budget < 1:
        raise ValidationError("run.pathsum_budget: must be positive")

    if fields:
        stray = sorted(fields)[0]
        raise ValidationError(f"{stray}: unknown field")

    rho0.setflags(write=False)
    return RunConfig(
        system=system,
        bath=bath,
        grid=grid,
        splitting=splitting,
        flavor=flavor,
        initial_state=rho0,
        pathsum_budget=budget,
    )


def read_text(path) -> str:
    """The text of an input file; one that is not UTF-8 is a ``parse:`` error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise ValidationError(f"parse: {path}: not UTF-8 text") from None


def load_config(path) -> RunConfig:
    return parse_config(read_text(path))
