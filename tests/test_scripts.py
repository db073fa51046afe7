"""Smoke runs of the experiment scripts."""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_kernel_decay_study():
    out = run_script("kernel_decay_study.py", "--rmax", "4").splitlines()
    assert out[0].split() == ["k", "|M_k|/|M_1|", "|T_k|/|T_1|", "ttm", "rel"]
    assert [line.split()[0] for line in out[1:5]] == ["1", "2", "3", "4"]
    assert out[1].split()[1:] == ["1.0000e+00"] * 3
    assert out[5].startswith("first below 0.001 x k=1 norm:")


def test_trotter_order_study():
    out = run_script("trotter_order_study.py", "--t-total", "0.4").splitlines()
    assert out[0] == "total time 0.4, dt in (0.2, 0.1, 0.05)"
    labels = [line[:22].strip() for line in out[2:]]
    assert labels == ["sym_env vs ref", "sym_sys vs ref", "asym vs ref", "sym_env vs sym_sys"]
    cols = {label: [float(x) for x in line[22:].split()] for label, line in zip(labels, out[2:])}
    assert all(math.isfinite(x) for row in cols.values() for x in row)
    # last halving of dt: second order for sym_sys, first order for asym
    assert 3.5 < cols["sym_sys vs ref"][4] < 4.5
    assert 1.5 < cols["asym vs ref"][4] < 2.5


def test_run_default_experiment(tmp_path):
    out = run_script("run_default_experiment.py", "--out", str(tmp_path)).splitlines()
    assert out[-1] == f"outputs under {tmp_path}/"
    rows = (tmp_path / "smatpi_sym_env" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 32  # header + steps 0..30 of the default config
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))
    for name in ("comparison.csv", "comparison_summary.csv"):
        assert (tmp_path / "comparison" / name).exists()
    assert (tmp_path / "ttm_sym_env" / "gqme_kernel_norms.csv").exists()
    assert (tmp_path / "dyck" / "dyck_counts.csv").read_text().splitlines()[-1] == "8,1430"
