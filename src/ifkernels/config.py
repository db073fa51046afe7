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

Validation re-checks every structural invariant of the embedded types and
reports violations with the offending field path.  Every number must be
finite ("non_finite" otherwise); ``bath.beta = inf`` (or ``infinite``) is
the only way to write zero temperature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath import SPLITTINGS, BathSpec, SpectralDensity
from .errors import ParseError, ValidationError
from .kernels import AUX0_CONVENTIONS
from .liouville import SystemSpec, TimeGrid
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
    aux_zero_convention: str | None = None
    pathsum_budget: int = DEFAULT_BUDGET
    quadrature_rtol: float = 1e-11
    output_dir: str = "out"


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
            raise ParseError(f"parse: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(f"parse: line {lineno}: empty key")
        if key in pairs:
            raise ParseError(f"parse: line {lineno}: duplicate key {key!r}")
        pairs[key] = (value, lineno)
    return pairs


class _Fields:
    def __init__(self, pairs):
        self.pairs = dict(pairs)

    def take(self, key, default=None, required=False):
        if key in self.pairs:
            value, _ = self.pairs.pop(key)
            return value
        if required:
            raise ValidationError(f"{key}: missing required field")
        return default

    def take_rows(self, prefix):
        rows = {}
        for key in list(self.pairs):
            if key.startswith(prefix + ".row."):
                idx_text = key[len(prefix) + 5 :]
                try:
                    idx = int(idx_text)
                except ValueError:
                    raise ValidationError(f"{key}: row index must be an integer") from None
                rows[idx] = self.pairs.pop(key)[0]
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


def _float(fields, key, default=None, required=False):
    raw = fields.take(key, default=None, required=required)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{key}: expected a number, got {raw!r}") from None
    return _finite(value, key, raw)


def _int(fields, key, default=None, required=False):
    raw = fields.take(key, default=None, required=required)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{key}: expected an integer, got {raw!r}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text into a RunConfig."""
    fields = _Fields(_parse_lines(text))

    n = _int(fields, "system.n", required=True)
    ham_rows = [
        _complex_row(r, "system.hamiltonian") for r in fields.take_rows("system.hamiltonian")
    ]
    if len(ham_rows) != n or any(len(r) != n for r in ham_rows):
        raise ValidationError(f"system.hamiltonian: expected {n} rows of {n} entries")
    coupling_raw = fields.take("system.coupling_eigenvalues", required=True)
    try:
        coupling = [float(x) for x in coupling_raw.split()]
    except ValueError:
        raise ValidationError("system.coupling_eigenvalues: bad real literal") from None
    for value in coupling:
        _finite(value, "system.coupling_eigenvalues", coupling_raw)
    try:
        system = SystemSpec(np.array(ham_rows, dtype=complex), tuple(coupling))
    except ValidationError as exc:
        raise ValidationError(f"system: {exc}") from None

    kind = fields.take("bath.kind", default="ohmic_exponential")
    alpha = _float(fields, "bath.alpha", required=True)
    omega_c = _float(fields, "bath.omega_c", required=True)
    beta_raw = fields.take("bath.beta", required=True)
    beta = math.inf if beta_raw in ("inf", "infinite") else None
    if beta is None:
        try:
            beta = float(beta_raw)
        except ValueError:
            raise ValidationError(f"bath.beta: expected a number or 'inf', got {beta_raw!r}") from None
        _finite(beta, "bath.beta", beta_raw)
    try:
        bath = BathSpec(SpectralDensity(kind, alpha, omega_c), beta)
    except ValidationError as exc:
        raise ValidationError(f"bath: {exc}") from None

    try:
        grid = TimeGrid(
            _float(fields, "grid.dt", required=True),
            _int(fields, "grid.n_steps", required=True),
            _int(fields, "grid.r_max", required=True),
        )
    except ValidationError as exc:
        raise ValidationError(f"grid: {exc}") from None

    splitting = fields.take("run.splitting", required=True)
    if splitting not in SPLITTINGS:
        raise ValidationError(f"run.splitting: unknown splitting {splitting!r}")
    flavor = fields.take("run.flavor", required=True)
    if flavor not in ("smatpi", "ttm"):
        raise ValidationError(f"run.flavor: unknown flavor {flavor!r}")
    convention = fields.take("run.aux_zero_convention", default=None)
    if convention is not None and convention not in AUX0_CONVENTIONS:
        raise ValidationError(f"run.aux_zero_convention: unknown value {convention!r}")
    if convention is not None and splitting != "sym_sys":
        raise ValidationError(f"run.aux_zero_convention: applies to sym_sys only, not {splitting}")

    rho_rows = [
        _complex_row(r, "initial_state") for r in fields.take_rows("initial_state")
    ]
    rho0 = np.array(rho_rows, dtype=complex)
    if rho0.shape != (n, n):
        raise ValidationError(f"initial_state: expected a {n}x{n} matrix")
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-12:
        raise ValidationError("initial_state: not Hermitian")
    if abs(np.trace(rho0) - 1.0) > _TRACE_TOL:
        raise ValidationError("initial_state: trace must be 1")

    budget = _int(fields, "run.pathsum_budget", default=DEFAULT_BUDGET)
    if budget < 1:
        raise ValidationError("run.pathsum_budget: must be positive")
    quad_rtol = _float(fields, "tolerances.quadrature", default=1e-11)
    if not 0 < quad_rtol < 1e-3:
        raise ValidationError("tolerances.quadrature: must be in (0, 1e-3)")
    outdir = fields.take("output.dir", default="out")

    if fields.pairs:
        stray = sorted(fields.pairs)[0]
        raise ValidationError(f"{stray}: unknown field")

    rho0.setflags(write=False)
    return RunConfig(
        system=system,
        bath=bath,
        grid=grid,
        splitting=splitting,
        flavor=flavor,
        initial_state=rho0,
        aux_zero_convention=convention,
        pathsum_budget=budget,
        quadrature_rtol=quad_rtol,
        output_dir=outdir,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
