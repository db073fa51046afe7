"""Seeded inputs and command lists of the benchmark workloads.

A workload is a fixed list of CLI commands (one "round") plus, for
``long_propagate``, commands run once in set-up.  The seed chooses the
physics (Hamiltonian, coupling strength, temperature, initial state) but
never a quantity the cost depends on: ``n``, ``r_max``, ``n_steps``, ``dt``
and ``omega_c`` are fixed, and finite inverse temperatures are drawn from
[0.5, 5), where the frequency quadrature stops at the same node level for
every value (with omega_c = 5 and dt = 0.1 it moves up a level above
beta ~ 5.5).  So every seed asks for the same amount of work.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

OMEGA_C = 5.0
DT = 0.1
BETA = 5.0
COUPLING = "1 -1"
SPLIT_FLAVORS = (("sym_env", "smatpi"), ("sym_sys", "smatpi"), ("asym", "ttm"))

DEEP_RMAX = 11
SCAN_RMAX = 6
SCAN_FINITE_BETAS = 3
PROP_RMAX = 8
PROP_STEPS = 20000
PROP_WITH_MAPS = "sym_env"  # the cost outlier, so the other two set op_p50_s

ROUND = "{round}"  # placeholder for the per-round output directory in argv


@dataclass(frozen=True)
class Physics:
    """The seeded part of a config: a driven two-level system in an ohmic bath."""

    hamiltonian: tuple  # 2x2 rows of complex
    alpha: float
    beta: float
    rho0: tuple  # 2x2 rows of complex

    def config_text(self, n_steps: int, r_max: int, splitting: str, flavor: str) -> str:
        def row(values):
            return " ".join(repr(complex(v)) for v in values)

        beta = "inf" if math.isinf(self.beta) else repr(self.beta)
        lines = [
            "system.n = 2",
            f"system.hamiltonian.row.0 = {row(self.hamiltonian[0])}",
            f"system.hamiltonian.row.1 = {row(self.hamiltonian[1])}",
            f"system.coupling_eigenvalues = {COUPLING}",
            "bath.kind = ohmic_exponential",
            f"bath.alpha = {self.alpha!r}",
            f"bath.omega_c = {OMEGA_C!r}",
            f"bath.beta = {beta}",
            f"grid.dt = {DT!r}",
            f"grid.n_steps = {n_steps}",
            f"grid.r_max = {r_max}",
            f"run.splitting = {splitting}",
            f"run.flavor = {flavor}",
            f"initial_state.row.0 = {row(self.rho0[0])}",
            f"initial_state.row.1 = {row(self.rho0[1])}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``op`` groups the commands of one user operation
    (None: timed in the round but not an operation sample)."""

    tag: str
    kind: str  # extract | propagate | compare
    argv: tuple
    op: int | None
    physics: Physics
    splitting: str = ""
    flavor: str = ""

    def resolved(self, round_dir: str) -> list:
        return [a.replace(ROUND, round_dir) for a in self.argv]

    def out_dir(self, round_dir: str) -> str:
        argv = self.resolved(round_dir)
        return argv[argv.index("--out") + 1]


@dataclass(frozen=True)
class Workload:
    work: str  # what one round does, for the report
    setup: tuple  # commands run once before timing
    commands: tuple  # commands of one round
    op_name: str


def _physics(rng: random.Random, beta: float) -> Physics:
    eps = rng.uniform(-0.3, 0.3)
    delta = rng.uniform(0.3, 0.7)
    p = rng.uniform(0.5, 1.0)
    coh = math.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    c = complex(coh * math.cos(phase), coh * math.sin(phase))
    return Physics(
        hamiltonian=((eps, delta), (delta, -eps)),
        alpha=rng.uniform(0.05, 0.2),
        beta=beta,
        rho0=((p, c), (c.conjugate(), 1.0 - p)),
    )


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _extract(tag, cfg, phys, splitting, flavor, op, out):
    argv = ("extract", "--config", cfg, "--out", out, "--splitting", splitting, "--flavor", flavor)
    return Command(tag, "extract", argv, op, phys, splitting, flavor)


def deep_extract(rng: random.Random, work: str) -> Workload:
    phys = _physics(rng, BETA)
    cfg = _write(os.path.join(work, "deep.cfg"),
                 phys.config_text(DEEP_RMAX, DEEP_RMAX, "sym_env", "smatpi"))
    cmds = tuple(
        _extract(f"x_{sp}", cfg, phys, sp, fl, i, os.path.join(ROUND, f"x_{sp}"))
        for i, (sp, fl) in enumerate(SPLIT_FLAVORS)
    )
    return Workload(f"3 extracts at r_max={DEEP_RMAX}", (), cmds, "extract")


def param_scan(rng: random.Random, work: str) -> Workload:
    base = _physics(rng, math.inf)
    betas = [math.inf] + [rng.uniform(0.5, 5.0) for _ in range(SCAN_FINITE_BETAS)]
    points = [(b, sp) for b in betas for sp, _ in SPLIT_FLAVORS]
    rng.shuffle(points)
    cmds = []
    for i, (beta, sp) in enumerate(points):
        phys = Physics(base.hamiltonian, base.alpha, beta, base.rho0)
        cfg = _write(os.path.join(work, f"scan{i:02d}.cfg"),
                     phys.config_text(SCAN_RMAX, SCAN_RMAX, sp, "smatpi"))
        outs = {fl: os.path.join(ROUND, f"p{i:02d}_{fl}") for fl in ("smatpi", "ttm")}
        for fl, out in outs.items():
            cmds.append(_extract(f"p{i:02d}_{fl}", cfg, phys, sp, fl, i, out))
        argv = ("compare",
                "--kernels-a", os.path.join(outs["smatpi"], "kernels.txt"),
                "--kernels-b", os.path.join(outs["ttm"], "kernels.txt"),
                "--out", os.path.join(ROUND, f"p{i:02d}_cmp"))
        cmds.append(Command(f"p{i:02d}_cmp", "compare", argv, i, phys, sp))
    work_text = f"{len(points)} scan points at r_max={SCAN_RMAX}, each 2 extracts + compare"
    return Workload(work_text, (), tuple(cmds), "scan point")


def long_propagate(rng: random.Random, work: str) -> Workload:
    phys = _physics(rng, BETA)
    kcfg = _write(os.path.join(work, "kernels.cfg"),
                  phys.config_text(PROP_RMAX, PROP_RMAX, "sym_env", "smatpi"))
    pcfg = _write(os.path.join(work, "propagate.cfg"),
                  phys.config_text(PROP_STEPS, PROP_RMAX, "sym_env", "smatpi"))
    setup, cmds = [], []
    for i, (sp, fl) in enumerate(SPLIT_FLAVORS):
        kdir = os.path.join(work, f"k_{sp}")
        setup.append(_extract(f"k_{sp}", kcfg, phys, sp, fl, i, kdir))
        argv = ["propagate", "--config", pcfg, "--kernels", os.path.join(kdir, "kernels.txt"),
                "--out", os.path.join(ROUND, f"t_{sp}")]
        if sp == PROP_WITH_MAPS:
            argv.append("--with-maps")
        cmds.append(Command(f"t_{sp}", "propagate", tuple(argv), i, phys, sp, fl))
    # The two asym hierarchies coincide, so comparing them is a stable, valid
    # use of `compare`; it is timed in the round but is not a propagate sample.
    kdir = os.path.join(work, "k_asym_smatpi")
    setup.append(_extract("k_asym_smatpi", kcfg, phys, "asym", "smatpi", None, kdir))
    argv = ("compare", "--kernels-a", os.path.join(kdir, "kernels.txt"),
            "--kernels-b", os.path.join(work, "k_asym", "kernels.txt"),
            "--out", os.path.join(ROUND, "c_asym"))
    cmds.append(Command("c_asym", "compare", argv, None, phys, "asym"))
    work_text = (f"3 propagates to n_steps={PROP_STEPS} from r_max={PROP_RMAX} kernels"
                 " + 1 compare")
    return Workload(work_text, tuple(setup), tuple(cmds), "propagate")


WORKLOADS = {f.__name__: f for f in (deep_extract, param_scan, long_propagate)}


def build(name: str, seed: int, work: str) -> Workload:
    """Write the seeded config files under ``work`` and return the workload."""
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
