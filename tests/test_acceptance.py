"""Acceptance suite: one test per shipped correctness criterion.

Each test prints a single PASS line with the measured quantities when it
succeeds (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Tolerances are fixed here, not configurable.
"""

import time

import numpy as np

from ifkernels.bath import (
    bump_correlation,
    eta_table,
    eta_table_from_correlation,
    eta_truncated,
)
from ifkernels.cli import cli_main
from ifkernels.combinatorics import catalan, enumerate_dyck, expand_hierarchy, numeric_check
from ifkernels.config import default_config_text
from ifkernels.kernels import (
    KernelSet,
    closed_form_asym,
    compare,
    extract_kernels,
    extract_ttm,
    propagate,
    solve_midpoint,
    solve_termination,
)
from ifkernels.liouville import TimeGrid, apply_map, fb_propagator, liou_norm
from ifkernels.pathsum import oracle_trajectory

RHO0 = np.array([[1, 0], [0, 0]], dtype=complex)


def _report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_oracle_equivalence(sys2, bath_default):
    """Maps rebuilt from the extracted kernels alone match the exact path sum."""
    start = time.monotonic()
    worst = 0.0
    grid = TimeGrid(0.1, 6, 6)
    for splitting in ("sym_env", "sym_sys", "asym"):
        table = eta_table(bath_default, grid, splitting)
        kset, _, _ = extract_kernels(sys2, table, 6, "smatpi")
        g_half = fb_propagator(sys2, 0.05) if splitting == "sym_sys" else None
        maps = propagate(kset, 6, g_half=g_half)
        full, _, _ = oracle_trajectory(sys2, table, 6)
        for n in range(1, 7):
            worst = max(worst, liou_norm(maps[n - 1] - full[n - 1]))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 60.0
    _report("criterion 1 (oracle equivalence)", f"max dev {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_ttm_identities():
    """T^C_1 = U_1 and T^C_2 = U_2 - U_1 U_1 on arbitrary trajectories."""
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        maps = [0.7 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) for _ in range(3)]
        tensors = extract_ttm(maps)
        worst = max(worst, liou_norm(tensors[0] - maps[0]))
        worst = max(worst, liou_norm(tensors[1] - (maps[1] - maps[0] @ maps[0])))
    assert worst < 1e-14
    _report("criterion 2 (transfer-tensor identities)", f"max dev {worst:.2e}")


def test_criterion_3_one_step_memory_dichotomy(sys2, tables):
    """Optimal hierarchy truncates exactly; the single-set one cannot."""
    tab1 = eta_truncated(tables["sym_env"], 1)
    kset, seed, aux_seed = extract_kernels(sys2, tab1, 6, "smatpi")
    worst_m = max(liou_norm(m) for m in kset.midpoint[1:])
    worst_t = max(liou_norm(t) for t in kset.termination[1:])
    kttm, _, _ = extract_kernels(sys2, tab1, 6, "ttm")
    spurious = liou_norm(kttm.midpoint[1])
    assert worst_m < 1e-12 and worst_t < 1e-12
    assert spurious > 1e-6
    _report(
        "criterion 3 (one-step-memory dichotomy)",
        f"max |M_k|,|T_k| (k>=2) = {worst_m:.1e},{worst_t:.1e}; TTM |T_2| = {spurious:.2e}",
    )


def test_criterion_4_asym_coincidence(sys2, tables):
    """Asymmetric-splitting termination equals the transfer tensors; closed forms match."""
    kset, seed, aux_seed = extract_kernels(sys2, tables["asym"], 6, "smatpi")
    tensors = extract_ttm(seed)
    worst = max(liou_norm(a - b) for a, b in zip(kset.termination, tensors))
    dev1 = liou_norm(closed_form_asym(sys2, tables["asym"], 1) - tensors[0])
    dev2 = liou_norm(closed_form_asym(sys2, tables["asym"], 2) - tensors[1])
    assert worst < 1e-12 and dev1 < 1e-12 and dev2 < 1e-12
    _report(
        "criterion 4 (asymmetric coincidence)",
        f"termination-vs-ttm {worst:.1e}; closed forms {dev1:.1e},{dev2:.1e}",
    )


def test_criterion_5_dressing_identity(sys2, tables):
    """Half-step dressing of the auxiliary map gives the physical map."""
    g_half = fb_propagator(sys2, 0.05)
    worst = 0.0
    full, aux0, aux = oracle_trajectory(sys2, tables["sym_sys"], 6)
    for n in range(1, 7):
        a = aux0 if n == 1 else aux[n - 2]
        worst = max(worst, liou_norm(g_half @ a @ g_half - full[n - 1]))
    assert worst < 1e-12
    _report("criterion 5 (dressing identity)", f"max dev {worst:.2e}")


def test_criterion_6_trotter_order(sys2):
    """Discretization-order study at fixed total time t = 1.6.

    A smooth compact-support correlation function makes every kernel vanish
    exactly beyond a known separation, so truncated propagation is exact and
    the measured ratios isolate the splitting errors.  Reference: Richardson
    limit of the finest symmetric (half-step-dressed) runs.
    """
    corr = bump_correlation(2.0, 1.0, 0.2)
    t_total = 1.6
    final = {}
    for splitting in ("sym_env", "sym_sys", "asym"):
        for dt in (0.2, 0.1, 0.05):
            n = round(t_total / dt)
            r = min(n, int(0.2 / dt) + 4)
            tab = eta_table_from_correlation(corr, TimeGrid(dt, r, r), splitting)
            kset, _, _ = extract_kernels(sys2, tab, r, "smatpi")
            g_half = fb_propagator(sys2, dt / 2) if splitting == "sym_sys" else None
            traj = propagate(kset, n, g_half=g_half)
            final[(splitting, dt)] = traj[-1]

    reference = (4.0 * final[("sym_sys", 0.05)] - final[("sym_sys", 0.1)]) / 3.0

    def ratios(errors):
        return errors[0] / errors[1], errors[1] / errors[2]

    sym_err = [liou_norm(final[("sym_sys", dt)] - reference) for dt in (0.2, 0.1, 0.05)]
    asym_err = [liou_norm(final[("asym", dt)] - reference) for dt in (0.2, 0.1, 0.05)]
    env_sys = [
        liou_norm(final[("sym_env", dt)] - final[("sym_sys", dt)]) for dt in (0.2, 0.1, 0.05)
    ]
    sym_r = ratios(sym_err)
    asym_r = ratios(asym_err)
    env_r = ratios(env_sys)
    assert all(3.0 <= r <= 5.0 for r in sym_r)
    assert all(1.7 <= r <= 2.5 for r in asym_r)
    assert all(1.7 <= r <= 2.5 for r in env_r)
    _report(
        "criterion 6 (discretization orders)",
        f"symmetric-vs-ref ratios {sym_r[0]:.2f},{sym_r[1]:.2f}; "
        f"asym-vs-ref {asym_r[0]:.2f},{asym_r[1]:.2f}; "
        f"env-vs-sys {env_r[0]:.2f},{env_r[1]:.2f}",
    )


def test_criterion_7_physicality(sys2, bath_default, tables):
    """Propagated trajectories preserve trace and Hermiticity over 30 steps."""
    worst_trace = 0.0
    worst_herm = 0.0
    cases = [("sym_env", "smatpi"), ("sym_sys", "smatpi"), ("asym", "ttm")]
    for splitting, flavor in cases:
        tab = tables[splitting]
        kset, _, _ = extract_kernels(sys2, tab, 6, flavor)
        g_half = fb_propagator(sys2, 0.05) if splitting == "sym_sys" else None
        traj = propagate(kset, 30, g_half=g_half)
        for u in traj:
            rho = apply_map(u, RHO0)
            worst_trace = max(worst_trace, abs(np.trace(rho) - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
    assert worst_trace < 1e-8
    assert worst_herm < 1e-10
    _report(
        "criterion 7 (physicality)",
        f"worst trace dev {worst_trace:.1e}, worst hermiticity dev {worst_herm:.1e}",
    )


def test_criterion_8_combinatorics(sys2, tables):
    """Dyck counts, expansion census, and symbolic/numeric agreement."""
    for m in range(0, 13):
        assert len(enumerate_dyck(m)) == catalan(m)
    for k in range(1, 13):
        assert len(expand_hierarchy(k)) == 2 ** (k - 1)
    full, _, _ = oracle_trajectory(sys2, tables["sym_env"], 6)
    tensors = extract_ttm(full)
    worst = 0.0
    for k in range(1, 7):
        got = numeric_check(expand_hierarchy(k), full)
        worst = max(worst, liou_norm(got - tensors[k - 1]))
    assert worst < 1e-12
    _report(
        "criterion 8 (combinatorics)",
        f"counts exact to m=12, terms to k=12; numeric-vs-extraction {worst:.1e}",
    )


def test_criterion_9_kernel_decay(sys2, bath_default):
    """Both hierarchies decay below 1e-3 of their first-index norm in memory range.

    The default ohmic correlation has a power-law tail, so the crossing sits
    at k* = 11 (measured and frozen); the study therefore runs at r_max = 11.
    """
    r = 11
    grid = TimeGrid(0.1, r, r)
    table = eta_table(bath_default, grid, "sym_env")
    full, aux0, aux = oracle_trajectory(sys2, table, r)
    mids = solve_midpoint(aux, aux0)
    terms = solve_termination(full, aux, aux0)
    smatpi = KernelSet(
        "sym_env", 0.1, r, mids, terms, "smatpi",
        aux_zero_convention="terminal_times_I0", aux0=aux0,
    )
    ttm = KernelSet("sym_env", 0.1, r, extract_ttm(full), None, "ttm")
    report = compare(smatpi, ttm, threshold=1e-3)
    assert report.first_below_a is not None and report.first_below_a <= r
    assert report.first_below_b is not None and report.first_below_b <= r
    # golden crossing indices, frozen at first verified run
    assert report.first_below_a == 11
    assert report.first_below_b == 11
    _report(
        "criterion 9 (kernel decay)",
        f"first k below 1e-3 of k=1 norm: smatpi {report.first_below_a}, ttm {report.first_below_b}",
    )


def test_criterion_10_determinism(tmp_path):
    """Repeated extract + propagate runs produce byte-identical outputs."""
    import contextlib
    import io

    text = default_config_text().replace("grid.n_steps = 30", "grid.n_steps = 12").replace(
        "grid.r_max = 6", "grid.r_max = 5"
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
            assert (
                cli_main(
                    ["propagate", "--config", str(cfg), "--kernels", str(out / "kernels.txt"),
                     "--out", str(out)]
                )
                == 0
            )
        blobs.append(
            tuple(
                (out / f).read_bytes()
                for f in ("kernels.txt", "kernel_norms.csv", "trajectory.csv")
            )
        )
    assert blobs[0] == blobs[1]
    _report("criterion 10 (determinism)", "extract + propagate outputs byte-identical")
