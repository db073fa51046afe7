import ast
import contextlib
import csv
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifkernels
from ifkernels import cli, csvtext, errors, kernels, pathsum
from ifkernels.bath import eta_table
from ifkernels.cli import cli_main
from ifkernels.config import default_config_text, load_config, parse_config
from ifkernels.errors import ValidationError
from ifkernels.kernel_io import load_kernels, save_kernels
from ifkernels.kernels import KernelSet, propagate_blocks
from ifkernels.liouville import TimeGrid, fb_propagators, liou_norm
from ifkernels.pathsum import oracle_trajectory

from _oracles import per_cell_csv, per_element_kernel_block, propagate, rho_recurrence


def small_config(**overrides):
    text = default_config_text()
    repl = {"grid.n_steps = 30": "grid.n_steps = 10", "grid.r_max = 6": "grid.r_max = 4"}
    for old, new in repl.items():
        text = text.replace(old, new)
    for key, value in overrides.items():
        lines = text.splitlines()
        if not any(line.startswith(key + " ") for line in lines):
            lines.append(f"{key} = {value}")
        lines = [f"{key} = {value}" if line.startswith(key + " ") else line for line in lines]
        text = "\n".join(lines)
    return text


class TestConfig:
    def test_default_round_trip(self):
        cfg = parse_config(default_config_text())
        assert cfg.system.n == 2
        assert cfg.grid.r_max == 6
        assert cfg.splitting == "sym_env"
        assert abs(np.trace(cfg.initial_state) - 1.0) < 1e-12

    def test_non_hermitian_rejected_with_field_path(self):
        text = small_config()
        text = text.replace(
            "system.hamiltonian.row.0 = 0+0j 0.5+0j",
            "system.hamiltonian.row.0 = 0+0j 0.6+0j",
        )
        with pytest.raises(ValidationError, match="system"):
            parse_config(text)

    def test_bad_splitting(self):
        with pytest.raises(ValidationError, match="run.splitting"):
            parse_config(small_config(**{"run.splitting": "sideways"}))

    def test_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown field"):
            parse_config(small_config() + "\nrun.zided = 3\n")

    def test_infinite_beta(self):
        cfg = parse_config(small_config(**{"bath.beta": "inf"}))
        assert np.isinf(cfg.bath.beta)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bath.alpha", "nan"),
            ("bath.omega_c", "inf"),
            ("bath.beta", "nan"),
            ("bath.beta", "1e400"),
            ("bath.beta", "Infinity"),
            ("grid.dt", "nan"),
            ("system.coupling_eigenvalues", "1 nan"),
            ("system.hamiltonian.row.0", "0+0j nan+0j"),
            ("initial_state.row.0", "1+0j infj"),
        ],
    )
    def test_non_finite_rejected_with_field_path(self, key, value):
        with pytest.raises(ValidationError, match=rf"{key.split('.row')[0]}: non_finite"):
            parse_config(small_config(**{key: value}))

    def test_quadrature_tolerance_key_rejected(self, tmp_path, capsys):
        # the eta table is closed-form: the former quadrature tolerance is gone
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config() + "\ntolerances.quadrature = 1e-11\n")
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: tolerances.quadrature: unknown field" in capsys.readouterr().err
        assert not out.exists()

    def test_aux_zero_convention_key_rejected(self, tmp_path, capsys):
        # no config key selects an aux_0 convention: every splitting's is fixed
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": "sym_sys",
                                       "run.aux_zero_convention": "terminal_times_I0"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: run.aux_zero_convention: unknown field\n"
        assert not out.exists()

    @pytest.mark.parametrize("splitting", ["sym_env", "asym"])
    def test_aux_zero_convention_is_sym_sys_only(self, tmp_path, capsys, splitting):
        # the key once applied to sym_sys only; it is now unknown under every splitting
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": splitting,
                                       "run.aux_zero_convention": "standalone_terminal"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: run.aux_zero_convention: unknown field\n"
        assert not out.exists()

    def test_parse_error_line_number(self):
        with pytest.raises(ValidationError, match=r"^parse: line 2"):
            parse_config("system.n = 2\nnot a line\n")

    @pytest.mark.parametrize("text, message", [
        pytest.param(small_config() + "= 3\n", "parse: line 17: empty key", id="empty-key"),
        pytest.param(small_config(**{"system.hamiltonian.row.x": "0+0j 0.5+0j"}),
                     "system.hamiltonian.row.x: row index must be an integer", id="row-index"),
        pytest.param("\n".join(line for line in small_config().splitlines()
                               if not line.startswith("initial_state")),
                     "initial_state: missing matrix rows", id="no-rows"),
        pytest.param(small_config(**{"system.hamiltonian.row.0": "0+0j 0.5+0x"}),
                     "system.hamiltonian: bad complex literal '0.5+0x'", id="complex-literal"),
        pytest.param(small_config(**{"system.coupling_eigenvalues": "1 one"}),
                     "system.coupling_eigenvalues: bad real literal", id="coupling-literal"),
        pytest.param(small_config(**{"initial_state.row.0": "1+0j 0.5+0j"}),
                     "initial_state: not Hermitian", id="non-hermitian-state"),
        pytest.param(small_config(**{"initial_state.row.0": "0.5+0j 0+0j"}),
                     "initial_state: trace must be 1", id="trace"),
        pytest.param(small_config(**{"run.pathsum_budget": "0"}),
                     "run.pathsum_budget: must be positive", id="budget"),
    ])
    def test_refused_with_its_code(self, text, message):
        with pytest.raises(ValidationError) as info:
            parse_config(text)
        assert str(info.value) == message


class TestKernelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = tuple(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
        kset = KernelSet("sym_env", 0.1, mats, mats, np.eye(4, dtype=complex))
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        loaded = load_kernels(path)
        assert loaded.splitting == kset.splitting
        assert loaded.r_max == kset.r_max
        assert loaded.flavor == kset.flavor
        for a, b in zip(loaded.midpoint, kset.midpoint):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.termination, kset.termination):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.aux0, kset.aux0)

    def test_matches_per_element_repr(self, tmp_path):
        # the block formatter prints each entry as repr of its float, signed zeros too
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-300, 300, size=(4, 4))
                + 1j * rng.normal(size=(4, 4)) for _ in range(2)]
        mats[0][0, :] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
        aux0 = np.diag([1.0, -0.0, 0.5, complex(0.0, -0.0)])
        kset = KernelSet("sym_env", 0.1, tuple(mats), tuple(m.conj() for m in mats), aux0)
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        text = path.read_text()
        header = text[: text.index("matrices = ")].splitlines()
        blocks = [("midpoint", kset.midpoint), ("termination", kset.termination),
                  ("aux0", [kset.aux0])]
        expected = header + [line for name, block in blocks
                             for line in per_element_kernel_block(name, block)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert "1,0,1,-0.0,0.0" in text and "1,0,3,0.0,-0.0" in text

    def test_version_error(self, tmp_path):
        kset = KernelSet("sym_env", 0.1, (np.eye(4, dtype=complex),))
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        text = path.read_text().replace("format_version = 1", "format_version = 999")
        path.write_text(text)
        with pytest.raises(ValidationError, match=r"^version:"):
            load_kernels(path)

    def test_truncated_file_parse_error(self, tmp_path):
        kset = KernelSet("sym_env", 0.1, (np.eye(4, dtype=complex),))
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValidationError, match=r"^parse:"):
            load_kernels(path)

    def test_malformed_line_reports_number(self, tmp_path):
        kset = KernelSet("sym_env", 0.1, (np.eye(4, dtype=complex),))
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        lines = path.read_text().splitlines()
        lines[8] = "1,0,0,zap,0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"^parse: line 9"):
            load_kernels(path)


def _extracted(tmp_path, **overrides):
    """(config path, kernel file path) of a small extraction (sym_env smatpi by default)."""
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(small_config(**overrides))
    out = tmp_path / "out"
    assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out / "kernels.txt"


def _drop_block(kpath, name):
    """Delete one ``matrices = <name>`` block from a kernel file."""
    lines = kpath.read_text().splitlines()
    start = lines.index(f"matrices = {name}")
    end = next((i for i in range(start + 1, len(lines)) if "=" in lines[i]), len(lines))
    kpath.write_text("\n".join(lines[:start] + lines[end:]) + "\n")


def _propagate_exit(cfg, kpath, capsys):
    capsys.readouterr()
    code = cli_main(["propagate", "--config", str(cfg), "--kernels", str(kpath),
                     "--out", str(kpath.parent / "prop")])
    return code, capsys.readouterr().err


class TestBadKernelFiles:
    def test_non_finite_entry(self, tmp_path, capsys):
        cfg, kpath = _extracted(tmp_path)
        lines = kpath.read_text().splitlines()
        idx = lines.index("matrices = midpoint") + 1
        k, row, col, _, im = lines[idx].split(",")
        lines[idx] = ",".join([k, row, col, "nan", im])
        kpath.write_text("\n".join(lines) + "\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert "parse:" in err and "non-finite" in err
        out = tmp_path / "cmp"
        argv = ["compare", "--kernels-a", str(kpath), "--kernels-b", str(kpath), "--out", str(out)]
        assert cli_main(argv) == 1
        assert not out.exists()

    @pytest.mark.parametrize("r_max", ["9", "3"])
    def test_r_max_header_disagrees_with_midpoint_count(self, tmp_path, capsys, r_max):
        cfg, kpath = _extracted(tmp_path)
        kpath.write_text(kpath.read_text().replace("r_max = 4", f"r_max = {r_max}"))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert f"parse: inconsistent kernel file (r_max {r_max} but 4 midpoint matrices)" in err

    def test_termination_count_disagrees_with_r_max(self, tmp_path, capsys):
        cfg, kpath = _extracted(tmp_path)
        lines = kpath.read_text().splitlines()
        start = lines.index("matrices = termination")
        lines = [
            line for i, line in enumerate(lines)
            if not (i > start and line.startswith("4,") and "=" not in line)
        ]
        kpath.write_text("\n".join(lines) + "\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == ("error: parse: inconsistent kernel file"
                       " (termination: r_max 4 but 3 termination matrices)\n")

    def test_aux0_not_one_dim_by_dim_matrix(self, tmp_path, capsys):
        cfg, kpath = _extracted(tmp_path)
        text = kpath.read_text()
        aux0 = text[text.index("matrices = aux0") :].splitlines()[1:]
        extra = ["2" + line[1:] for line in aux0]
        kpath.write_text(text + "\n".join(extra) + "\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert "parse: aux0 block holds 2 matrices, expected 1" in err

    def test_unknown_splitting(self, tmp_path, capsys):
        cfg, kpath = _extracted(tmp_path)
        kpath.write_text(kpath.read_text().replace("splitting = sym_env", "splitting = bogus"))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == ("error: parse: inconsistent kernel file"
                       " (splitting: unknown splitting 'bogus')\n")

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_smatpi_without_termination(self, tmp_path, capsys, splitting):
        cfg, kpath = _extracted(tmp_path, **{"run.splitting": splitting})
        _drop_block(kpath, "termination")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert (f"parse: inconsistent kernel file (smatpi {splitting} kernels without"
                " termination matrices)") in err

    @pytest.mark.parametrize("flavor, want", [
        ("ttm", "ttm sym_env kernels with termination matrices"),
        ("bogus", "unknown flavor 'bogus'"),
    ])
    def test_flavor_header_disagrees_with_blocks(self, tmp_path, capsys, flavor, want):
        # the flavor header restates whether a termination block is present
        cfg, kpath = _extracted(tmp_path)
        kpath.write_text(kpath.read_text().replace("flavor = smatpi", f"flavor = {flavor}"))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == f"error: parse: inconsistent kernel file ({want})\n"
        assert not (kpath.parent / "prop").exists()

    @pytest.mark.parametrize("overrides", [{}, {"run.splitting": "sym_sys"}])
    def test_missing_aux0(self, tmp_path, capsys, overrides):
        cfg, kpath = _extracted(tmp_path, **overrides)
        _drop_block(kpath, "aux0")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        splitting = overrides.get("run.splitting", "sym_env")
        assert err == ("error: parse: inconsistent kernel file (aux0: matrix missing:"
                       f" smatpi {splitting} kernels need it)\n")

    @pytest.mark.parametrize("overrides, kind", [({"run.flavor": "ttm"}, "ttm sym_env"),
                                                 ({"run.splitting": "asym"}, "smatpi asym")])
    def test_aux0_beside_an_identity_tail(self, tmp_path, capsys, overrides, kind):
        # a ttm or asym smatpi set starts from the identity: an aux0 block
        # (here 2 I) would be ignored by propagate, so the file is refused
        cfg, kpath = _extracted(tmp_path, **overrides)
        aux0 = [f"1,{i},{j},{2.0 if i == j else 0.0},0.0" for i in range(4) for j in range(4)]
        kpath.write_text(kpath.read_text() + "\n".join(["matrices = aux0"] + aux0) + "\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == ("error: parse: inconsistent kernel file (aux0: matrix given:"
                       f" {kind} kernels have the identity tail)\n")
        assert not (kpath.parent / "prop").exists()

    @pytest.mark.parametrize("line", ["", "aux_zero_conventon = terminal_times_I0"])
    def test_smatpi_without_convention(self, tmp_path, line):
        # a kernel file has no aux_0 convention: older files carry an
        # ``aux_zero_convention`` line after ``dim``, which is ignored like
        # any header key the loader does not read (a misspelt one too), so
        # with it, without it or misspelt the file loads to the same set
        # and propagates the same bytes
        cfg, kpath = _extracted(tmp_path)
        text = kpath.read_text()
        assert "aux_zero_convention" not in text
        runs = {}
        for name, header in (("old", "aux_zero_convention = terminal_times_I0"), ("new", line)):
            path = tmp_path / name / "kernels.txt"
            path.parent.mkdir()
            path.write_text(text.replace("dim = 4\n", f"dim = 4\n{header}\n"))
            kset = load_kernels(path)
            runs[name] = (kset.splitting, kset.dt, kset.midpoint.tobytes(),
                          kset.termination.tobytes(), kset.aux0.tobytes(),
                          _trajectory_bytes(cfg, path, path.parent / "prop", False))
        assert runs["old"] == runs["new"]

    @pytest.mark.parametrize("dt", ["nan", "-0.1", "0.0", "inf"])
    def test_bad_dt_header(self, tmp_path, capsys, dt):
        # |nan - 0.1| > tol is False, so the dt checks of propagate and compare pass a nan
        cfg, kpath = _extracted(tmp_path)
        kpath.write_text(kpath.read_text().replace("dt = 0.1\n", f"dt = {dt}\n"))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == ("error: parse: inconsistent kernel file"
                       f" (dt: must be finite and > 0, got {float(dt)!r})\n")
        out = tmp_path / "cmp"
        argv = ["compare", "--kernels-a", str(kpath), "--kernels-b", str(kpath), "--out", str(out)]
        assert cli_main(argv) == 1
        assert not out.exists()

    def test_bad_dim_header(self, tmp_path, capsys):
        cfg, kpath = _extracted(tmp_path)
        kpath.write_text(kpath.read_text().replace("dim = 4\n", "dim = -4\n"))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert "parse: dim -4 must be >= 1" in err

    def test_empty_block(self, tmp_path, capsys):
        cfg, kpath = _extracted(tmp_path)
        _drop_block(kpath, "aux0")
        kpath.write_text(kpath.read_text() + "matrices = aux0\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert "parse: aux0 block holds 0 matrices, expected 1" in err

    @pytest.mark.parametrize("duplicate", ["block", "entry", "header"])
    def test_duplicates_rejected(self, tmp_path, capsys, duplicate):
        # each file would load, a later line silently winning over an earlier one
        cfg, kpath = _extracted(tmp_path)
        lines = kpath.read_text().splitlines()
        if duplicate == "block":  # a zeroed second midpoint block
            start = lines.index("matrices = midpoint")
            end = lines.index("matrices = termination")
            zeroed = [line.rsplit(",", 2)[0] + ",0.0,0.0" for line in lines[start + 1 : end]]
            at, lines = len(lines), lines + ["matrices = midpoint"] + zeroed
            want = "duplicate block 'midpoint'"
        elif duplicate == "entry":
            at = lines.index("matrices = midpoint") + 2
            lines.insert(at, lines[at - 1].split(",", 1)[0] + ",0,0,1e20,0.0")
            want = "duplicate entry 1,0,0"
        else:  # the first dt line is the one that would be lost
            at = lines.index("dt = 0.1")
            lines.insert(at, "dt = 0.3")
            at += 1
            want = "duplicate header key 'dt'"
        kpath.write_text("\n".join(lines) + "\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert f"parse: line {at + 1}: {want}" in err

    @pytest.mark.parametrize("case, message", [
        ("four fields", "parse: line {line}: expected k,row,col,re,im"),
        ("missing index", "parse: missing matrix index 2"),
        ("outside dim", "parse: entry (4,0) out of range for dim 4"),
        ("no midpoint", "parse: no midpoint matrices"),
    ])
    def test_refused_with_its_code(self, tmp_path, capsys, case, message):
        cfg, kpath = _extracted(tmp_path)
        lines = kpath.read_text().splitlines()
        start, end = lines.index("matrices = midpoint"), lines.index("matrices = termination")
        if case == "four fields":
            lines[start + 1] = lines[start + 1].rsplit(",", 1)[0]
        elif case == "missing index":  # the midpoint indices 1, 3, 4, 5
            lines[start:end] = [("5" + line[1:]) if line.startswith("2,") else line
                                for line in lines[start:end]]
        elif case == "outside dim":  # matrix 1 keeps its 16 entries
            lines[start + 16] = "1,4,0" + lines[start + 16][len("1,3,3"):]
        else:
            del lines[start:end]
        kpath.write_text("\n".join(lines) + "\n")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == f"error: {message.format(line=start + 2)}\n"
        assert not (kpath.parent / "prop").exists()

    def test_kernel_set_checks_aux0_shape(self):
        mats = (np.eye(4, dtype=complex),)
        with pytest.raises(ValidationError, match="dim_mismatch: aux0 shape"):
            KernelSet("sym_env", 0.1, mats, mats, np.eye(3))


# (splitting, flavor, initial state): every set extraction makes, from the
# default initial state, and a sym_sys smatpi set from one with coherences
PROPAGATE_CASES = [
    ("sym_env", "smatpi", None),
    ("sym_env", "ttm", None),
    ("sym_sys", "smatpi", None),
    ("sym_sys", "smatpi", "coherent"),
    ("sym_sys", "ttm", None),
    ("asym", "smatpi", None),
    ("asym", "ttm", None),
]
COHERENT = {"initial_state.row.0": "0.6+0j 0.3-0.2j", "initial_state.row.1": "0.3+0.2j 0.4+0j"}


def _case_overrides(splitting, flavor, rho0):
    return {"run.splitting": splitting, "run.flavor": flavor, **(COHERENT if rho0 else {})}


class TestPropagateFromKernelFile:
    @pytest.mark.parametrize("splitting, flavor, rho0", PROPAGATE_CASES)
    def test_no_eta_table_or_oracle(self, tmp_path, capsys, monkeypatch, splitting, flavor,
                                    rho0):
        # propagate reads everything from the kernel file; its first r_max
        # maps are the oracle maps the kernels were extracted from
        cfg, kpath = _extracted(tmp_path, **_case_overrides(splitting, flavor, rho0))
        oracle_dir = tmp_path / "oracle"
        assert cli_main(["oracle", "--config", str(cfg), "--out", str(oracle_dir)]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("propagate must not rebuild the oracle")

        monkeypatch.setattr("ifkernels.cli.eta_table", forbidden)
        monkeypatch.setattr("ifkernels.cli.oracle_trajectory", forbidden)
        out = tmp_path / "prop"
        argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out),
                "--with-maps"]
        assert cli_main(argv) == 0
        traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        oracle = np.loadtxt(oracle_dir / "oracle_maps.csv", delimiter=",", skiprows=1)
        assert traj.shape[0] == 11 and oracle.shape[0] == 5
        assert np.max(np.abs(traj[:5, 10:] - oracle[:, 2:])) < 1e-10
        rho = (traj[:, 2:10:2] + 1j * traj[:, 3:10:2]).reshape(-1, 2, 2)
        assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) < 1e-12


    def test_trajectory_does_not_read_the_config_hamiltonian(self, tmp_path, capsys):
        # a sym_sys smatpi file carries its half step: under a config with
        # another Hamiltonian it propagates the extraction config's bytes
        text = default_config_text().replace("run.splitting = sym_env", "run.splitting = sym_sys")
        other = text.replace("0+0j 0.5+0j", "0+0j 2.0+0j").replace("0.5+0j 0+0j", "2.0+0j 0+0j")
        assert other.count("2.0+0j") == 2
        (tmp_path / "cfg.txt").write_text(text)
        (tmp_path / "other.txt").write_text(other)
        kpath = tmp_path / "k" / "kernels.txt"
        assert cli_main(["extract", "--config", str(tmp_path / "cfg.txt"),
                         "--out", str(kpath.parent)]) == 0
        got = {name: _trajectory_bytes(tmp_path / f"{name}.txt", kpath, tmp_path / name, False)
               for name in ("cfg", "other")}
        assert got["other"] == got["cfg"]


@pytest.fixture(scope="module")
def kernel_files(tmp_path_factory):
    """(config path, kernel file path) of every propagate case, extracted once."""
    return {case: _extracted(tmp_path_factory.mktemp("k"), **_case_overrides(*case))
            for case in PROPAGATE_CASES}


def _trajectory_bytes(cfg, kpath, out, with_maps):
    argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
    assert cli_main(argv + (["--with-maps"] if with_maps else [])) == 0
    return (out / "trajectory.csv").read_bytes()


def _engine_run(cfg, kpath):
    """(kernel set, config) of a propagate run."""
    return load_kernels(kpath), load_config(cfg)


def _engine_rho(kset, config):
    """rho_1..rho_N from the engine run on vec(rho_0), as a (N, n, n) array."""
    rho0 = config.initial_state
    blocks = propagate_blocks(kset, config.grid.n_steps, right=rho0.reshape(-1, 1))
    return np.concatenate(list(blocks)).reshape((-1,) + rho0.shape)


def _per_cell_trajectory(cfg, kpath, with_maps):
    """trajectory.csv from the same engine outputs, one format call per cell."""
    kset, config = _engine_run(cfg, kpath)
    tables = [("rho", [config.initial_state] + list(_engine_rho(kset, config)))]
    if with_maps:
        maps = propagate(kset, config.grid.n_steps)
        tables.append(("u", [np.eye(config.system.dim, dtype=complex)] + list(maps)))
    return per_cell_csv(config.grid.dt, tables).encode()


class TestRhoRecurrence:
    """rho comes from the recurrence on vec(rho_0), not from the maps."""

    @pytest.fixture
    def long_run(self, tmp_path, kernel_files):
        def run(case, n_steps=600):
            cfg, kpath = kernel_files[case]
            long_cfg = tmp_path / f"cfg{n_steps}.txt"
            long_cfg.write_text(cfg.read_text().replace("grid.n_steps = 10",
                                                        f"grid.n_steps = {n_steps}"))
            return long_cfg, kpath
        return run

    @pytest.mark.parametrize("case", PROPAGATE_CASES)
    def test_engine_matches_per_step_oracle(self, long_run, case):
        # 600 steps cross several 256-step chunks
        kset, config = _engine_run(*long_run(case))
        want = rho_recurrence(kset, 600, config.initial_state)
        assert np.max(np.abs(_engine_rho(kset, config) - want)) < 1e-13

    @pytest.mark.parametrize("case", PROPAGATE_CASES)
    def test_identity_block_gives_the_maps(self, long_run, case):
        # the maps (V = identity) applied to rho_0 and to a random V agree with
        # the runs on those blocks themselves
        kset, config = _engine_run(*long_run(case))
        maps = propagate(kset, 600)
        rho0 = config.initial_state
        assert np.max(np.abs(maps @ rho0.reshape(-1) - _engine_rho(kset, config)
                             .reshape(600, -1))) < 1e-13
        v = np.random.default_rng(len(case)).standard_normal((kset.dim, 3))
        got = np.concatenate(list(propagate_blocks(kset, 600, right=v)))
        assert np.max(np.abs(got - maps @ v)) < 1e-13 * np.max(np.abs(v))

    @pytest.mark.parametrize("case", PROPAGATE_CASES)
    def test_rho_columns_do_not_depend_on_maps(self, tmp_path, long_run, case):
        cfg, kpath = long_run(case)
        plain = _trajectory_bytes(cfg, kpath, tmp_path / "plain", False).splitlines()
        maps = _trajectory_bytes(cfg, kpath, tmp_path / "maps", True).splitlines()
        assert len(plain) == len(maps) == 602
        assert [b",".join(row.split(b",")[:10]) for row in maps] == plain


class TestBlockWriter:
    """The block writer prints what the per-cell writer prints, byte for byte."""

    @pytest.mark.parametrize("case", PROPAGATE_CASES)
    @pytest.mark.parametrize("with_maps", [False, True])
    def test_trajectory_matches_per_cell_writer(self, tmp_path, kernel_files, case, with_maps):
        cfg, kpath = kernel_files[case]
        got = _trajectory_bytes(cfg, kpath, tmp_path, with_maps)
        assert got == _per_cell_trajectory(cfg, kpath, with_maps)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 10])
    def test_block_edges(self, tmp_path, monkeypatch, kernel_files, chunk, n_steps):
        # with 3-step chunks, 1, 2, 3 and 10 steps fall below one chunk, fill
        # it and span several; the writer regroups the rows (step 0 and the
        # chunks) into writes of two rows, the last shorter
        _, kpath = kernel_files[("sym_sys", "smatpi", None)]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": "sym_sys", "grid.n_steps": n_steps,
                                       "grid.r_max": 1}))
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        monkeypatch.setattr(csvtext, "SLICE", 2 * 42)
        rows_per_write = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def counted(text):
                rows_per_write.append(text.count(b"\n"))
                return write(text)

            fh.write = counted
            return fh

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        got = _trajectory_bytes(cfg, kpath, tmp_path / "out", True)
        assert got == _per_cell_trajectory(cfg, kpath, True)
        assert rows_per_write[0] == 1  # header
        assert rows_per_write[1:] == [2] * ((n_steps + 1) // 2) + [1] * (n_steps % 2 == 0)

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("case", PROPAGATE_CASES)
    @pytest.mark.parametrize("with_maps", [False, True])
    def test_slices_match_per_cell_writer(self, tmp_path, monkeypatch, kernel_files, passes,
                                          case, with_maps):
        # 100 steps in 16-step chunks are step 0 and blocks of 16 x 6 and 4
        # rows; the writer regroups them into slices of 16 // passes rows, so
        # that the slices cut across the blocks, and only the last is shorter
        cfg, kpath = kernel_files[case]
        long_cfg = tmp_path / "cfg.txt"
        long_cfg.write_text(cfg.read_text().replace("grid.n_steps = 10", "grid.n_steps = 100"))
        monkeypatch.setattr(kernels, "CHUNK", 16)
        want = _per_cell_trajectory(long_cfg, kpath, with_maps)
        cols = want.split(b"\n", 1)[0].count(b",") + 1
        monkeypatch.setattr(csvtext, "SLICE", 16 // passes * cols)
        rows = []

        def recording_slice(x):
            rows.append(len(x))
            return formatted(x)

        formatted = csvtext._format_slice
        monkeypatch.setattr(csvtext, "_format_slice", recording_slice)
        got = _trajectory_bytes(long_cfg, kpath, tmp_path / "out", with_maps)
        assert got == want
        size = 16 // passes
        assert rows == [size] * (101 // size) + [101 % size]

    def test_formatter_memory_of_a_with_maps_block(self):
        # one chunk of a with-maps trajectory, 257 rows of 42 floats, at the
        # shipped slice size: 0.67 MiB traced, where 4096-float slices with
        # the former temporaries took 0.95 MiB
        rng = np.random.default_rng(0)
        block = rng.standard_normal((257, 42)) * 10.0 ** rng.integers(-3, 1, (257, 42))
        block[:, 0] = np.arange(257)
        block[:, 1] = block[:, 0] * 0.1
        b"".join(csvtext.format_rows([block]))
        tracemalloc.start()
        try:
            b"".join(csvtext.format_rows([block]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (0.95 + 0.5) * 2**20

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_oracle_matches_per_cell_writer(self, tmp_path, splitting):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": splitting}))
        argv = ["oracle", "--config", str(cfg), "--out", str(tmp_path), "--steps", "3"]
        assert cli_main(argv) == 0
        config = load_config(cfg)
        table = eta_table(config.bath, TimeGrid(0.1, 3, 3), splitting)
        full, _, _ = oracle_trajectory(config.system, table, 3)
        maps = [np.eye(4, dtype=complex)] + list(full)
        want = per_cell_csv(config.grid.dt, [("u", maps)]).encode()
        assert (tmp_path / "oracle_maps.csv").read_bytes() == want


def _propagate_diverging(tmp_path, out):
    """Exit code of propagating a ttm set with midpoint 2 I for 2000 steps into ``out``."""
    kpath = tmp_path / "kernels.txt"
    save_kernels(KernelSet("sym_env", 0.1, (2 * np.eye(4),)), kpath)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(small_config(**{"grid.n_steps": 2000, "grid.r_max": 1}))
    argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli_main(argv)


def _exhausted_formatter(data):
    raise MemoryError("formatter out of memory")


def _recorded(calls, function):
    """``function`` that appends its argument to ``calls``."""

    def wrapped(data):
        calls.append(data)
        return function(data)

    return wrapped


def _interrupted_after(blocks, engine):
    """``engine`` whose block iterators raise KeyboardInterrupt at block ``blocks``."""

    def wrapped(*args, **kwargs):
        for i, block in enumerate(engine(*args, **kwargs), start=1):
            if i == blocks:
                raise KeyboardInterrupt
            yield block

    return wrapped


class TestPropagateFailures:
    @pytest.mark.parametrize("failure", ["diverged", "worker_memory", "interrupt"])
    def test_failures_after_rows_leave_nothing(self, tmp_path, capsys, monkeypatch, failure):
        # a failure after rows were written (U_1024 overflows in the fourth
        # block; the formatter, which runs in this process, cannot allocate;
        # Ctrl-C arrives at engine block 3) leaves no partial file and none of
        # the directories made for it; all but Ctrl-C exit 2 with a coded
        # message and no traceback.  Slices of 100 rows put rows on disk
        # before the failing block.
        monkeypatch.setattr(csvtext, "SLICE", 100 * 10)
        written = []
        monkeypatch.setattr(csvtext, "_format_slice", _recorded(written, csvtext._format_slice))
        out = tmp_path / "out" / "a"
        if failure == "diverged":
            assert _propagate_diverging(tmp_path, out) == 2
            assert capsys.readouterr().err.startswith("error: propagation_diverged: U_1024")
        else:
            kpath = tmp_path / "kernels.txt"  # identity maps: 1000 steps are 4 blocks
            save_kernels(KernelSet("sym_env", 0.1, (np.eye(4),)), kpath)
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(small_config(**{"grid.n_steps": 1000, "grid.r_max": 1}))
            argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
            if failure == "interrupt":
                monkeypatch.setattr(cli, "propagate_blocks",
                                    _interrupted_after(3, cli.propagate_blocks))
                with pytest.raises(KeyboardInterrupt):
                    cli_main(argv)
            else:
                monkeypatch.setattr(csvtext, "_format_slice", _exhausted_formatter)
                assert cli_main(argv) == 2
                assert capsys.readouterr().err == "error: memory: formatter out of memory\n"
        assert not (tmp_path / "out").exists()
        # 769 and 513 rows came before the failing block
        assert len(written) == {"diverged": 7, "worker_memory": 0, "interrupt": 5}[failure]

    def test_sigterm_leaves_nothing(self, tmp_path):
        # the console script unwinds on SIGTERM as on Ctrl-C: a propagate of
        # 10^11 steps, stopped once its trajectory.csv is open, exits 143 and
        # leaves neither the file nor the --out directory made for it
        kpath = tmp_path / "kernels.txt"
        save_kernels(KernelSet("sym_env", 0.1, (np.eye(4),)), kpath)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"grid.n_steps": 10**11, "grid.r_max": 1}))
        out = tmp_path / "out" / "a"
        argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ifkernels.__file__)))
        proc = subprocess.Popen([sys.executable, "-m", "ifkernels.cli", *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not (out / "trajectory.csv").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 143
        finally:
            proc.kill()
            stderr = proc.communicate()[1]
        assert b"Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    def test_divergent_kernels_exit_2(self, tmp_path, capsys):
        # midpoint 2 I doubles every map until U_1024 overflows: exit 2, a
        # coded message, no numpy warnings and no trajectory.csv with
        # non-finite (or any) rows left behind, nor the directories made for it
        out = tmp_path / "out"
        assert _propagate_diverging(tmp_path, out) == 2
        err = capsys.readouterr().err
        assert err == ("error: propagation_diverged: U_1024 is not finite; "
                       "the kernel set grows without bound\n")
        assert not out.exists()
        assert _propagate_diverging(tmp_path, out / "a" / "b") == 2
        assert not out.exists()

    def test_divergent_kernels_keep_existing_out(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert _propagate_diverging(tmp_path, out) == 2
        assert "propagation_diverged:" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]

    def test_memory_error_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError("Unable to allocate 238. GiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "propagate", exhausted)
        argv = ["propagate", "--config", "c", "--kernels", "k", "--out", str(tmp_path)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: memory: Unable to allocate 238. GiB for an array\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("flavor, excess", [("ttm", 0), ("ttm", 1), ("smatpi", 1)])
    def test_size_limit_before_chunk_rows(self, tmp_path, capsys, monkeypatch, flavor, excess):
        # the chunk rows of R = 4, d = 4 over 10 steps are 16 x 10 x m d x R d
        # bytes (m = 1 for ttm, 2 with the termination rows of smatpi)
        cfg, kpath = _extracted(tmp_path, **{"run.flavor": flavor})
        rows = 16 * 10 * (2 if flavor == "smatpi" else 1) * 4 * 4 * 4
        monkeypatch.setattr(pathsum, "SIZE_LIMIT", rows - excess)

        out = tmp_path / "prop" / "a"
        argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
        if not excess:
            assert cli_main(argv) == 0
            return

        def forbidden(*args):
            raise AssertionError("size_limit must be checked before the chunk rows are built")

        monkeypatch.setattr(kernels, "_companion_rows", forbidden)
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: size_limit: r_max = 4 at dim 4 needs ")
        assert "Traceback" not in err
        assert not (tmp_path / "prop").exists()

    def test_memory_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # rho is propagated one chunk and written one slice at a time, so
        # ten times the steps take no more memory.  The chunk and slice sizes
        # are cut by 8 with the steps (5000 and 50000 at the shipped sizes
        # hold the same, but take seconds under tracemalloc).
        monkeypatch.setattr(kernels, "CHUNK", kernels.CHUNK // 8)
        monkeypatch.setattr(csvtext, "SLICE", csvtext.SLICE // 8)
        kdir = tmp_path / "k"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        assert cli_main(["extract", "--config", str(cfg), "--out", str(kdir)]) == 0
        peaks = {}
        for n_steps in (5000 // 8, 50000 // 8):
            cfg.write_text(small_config(**{"grid.n_steps": n_steps}))
            argv = ["propagate", "--config", str(cfg), "--kernels", str(kdir / "kernels.txt"),
                    "--out", str(tmp_path / str(n_steps))]
            tracemalloc.start()
            try:
                assert cli_main(argv) == 0
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50000 // 8] <= 1.2 * peaks[5000 // 8]


# A field replaced in a mutated kernel file takes one of these values.
_KERNEL_TOKENS = (b"0", b"-1", b"2", b"4", b"-99999999999999999999", b"99999999999999999999",
                  b"1e999", b"nan", b"-inf", b"", b"\xff\xfe", b"aux0", b"ttm", b"smatpi")


@st.composite
def _mutated_kernel_file(draw, lines):
    """The lines of a kernel file with one to three lines dropped, duplicated,
    header values swapped, or fields replaced by ``_KERNEL_TOKENS``."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        heads = [j for j, line in enumerate(lines) if b" = " in line]
        # header lines are few but carry most of the structure: draw them half the time
        i = draw(st.one_of(st.sampled_from(heads), st.integers(0, len(lines) - 1)))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "field")))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            i, j = draw(st.sampled_from(heads)), draw(st.sampled_from(heads))
            (key_i, value_i), (key_j, value_j) = (lines[k].split(b" = ", 1) for k in (i, j))
            lines[i], lines[j] = key_i + b" = " + value_j, key_j + b" = " + value_i
        else:
            token = draw(st.sampled_from(_KERNEL_TOKENS))
            if b" = " in lines[i]:
                lines[i] = lines[i].split(b" = ", 1)[0] + b" = " + token
            else:
                fields = lines[i].split(b",")
                fields[draw(st.integers(0, len(fields) - 1))] = token
                lines[i] = b",".join(fields)
    return b"\n".join(lines) + b"\n"


class TestMutatedKernelFiles:
    @pytest.fixture(scope="class")
    def r2_extract(self, tmp_path_factory):
        """(config, kernel file) of an r_max = 2 extract of every kind of file:
        smatpi with an aux0 block (sym_env, sym_sys) or without (asym), and ttm."""
        return {case: _extracted(tmp_path_factory.mktemp("r2"), **{
            "grid.r_max": "2", "grid.n_steps": "3", "run.splitting": case[0], "run.flavor": case[1]})
            for case in [("sym_env", "smatpi"), ("sym_sys", "smatpi"), ("asym", "smatpi"),
                         ("sym_env", "ttm")]}

    @pytest.mark.parametrize("command", ["compare", "propagate"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clean_exit(self, r2_extract, command, data):
        # exit 0 with finite CSV numbers, or one coded error line and no --out
        cfg, kpath = r2_extract[data.draw(st.sampled_from(sorted(r2_extract)))]
        text = data.draw(_mutated_kernel_file(kpath.read_bytes().splitlines()))
        with tempfile.TemporaryDirectory() as tmp:
            mutated, out = os.path.join(tmp, "kernels.txt"), os.path.join(tmp, "out")
            with open(mutated, "wb") as fh:
                fh.write(text)
            if command == "compare":
                argv = ["compare", "--kernels-a", mutated, "--kernels-b", str(kpath)]
            else:
                argv = ["propagate", "--config", str(cfg), "--kernels", mutated]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv + ["--out", out])
            assert code in (0, 1, 2)
            if code:
                assert re.fullmatch(r"error: [a-z_]+: [^\n]*\n", err.getvalue()), err.getvalue()
                assert not os.path.exists(out)
                return
            for name in os.listdir(out):
                with open(os.path.join(out, name), newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                # every cell but the set names of comparison_summary.csv is a number
                assert all(math.isfinite(float(cell)) for row in rows for cell in row
                           if cell not in ("", "a", "b"))


# A value (or one entry of a matrix row) in a mutated config takes one of these.
_CONFIG_TOKENS = (b"0", b"-1", b"4", b"-99999999999999999999", b"99999999999999999999",
                  b"9007199254740993", b"1e999", b"nan", b"-inf", b"infj", b"1e-308",
                  b"5e-324", b"", b"\xff\xfe", b"sym_sys")


@st.composite
def _mutated_config(draw, lines):
    """The lines of a config with one to three lines dropped or duplicated
    (a duplicate key), matrix rows made non-square, or values or row entries
    replaced by ``_CONFIG_TOKENS``."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "ragged", "value")))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif b" = " in lines[i]:
            key, value = lines[i].split(b" = ", 1)
            cells = value.split()
            if kind == "ragged":  # one entry more or fewer
                cells = cells[:-1] if draw(st.booleans()) else cells + cells[-1:]
            elif cells and b".row." in key:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_CONFIG_TOKENS))
            else:
                cells = [draw(st.sampled_from(_CONFIG_TOKENS))]
            lines[i] = key + b" = " + b" ".join(cells)
    return b"\n".join(lines) + b"\n"


class TestMutatedConfigs:
    @pytest.mark.parametrize("command", ["extract", "oracle"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_clean_exit(self, command, data):
        # exit 0 with no warning and finite numbers in every file, or one
        # coded error line (no traceback) and no --out
        base = small_config(**{"grid.r_max": "2", "grid.n_steps": "3"}).encode()
        text = data.draw(_mutated_config(base.splitlines()))
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = os.path.join(tmp, "cfg.txt"), os.path.join(tmp, "out")
            with open(cfg, "wb") as fh:
                fh.write(text)
            argv = [command, "--config", cfg, "--out", out]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = cli_main(argv + (["--steps", "2"] if command == "oracle" else []))
            assert code in (0, 1, 2)
            if code:
                assert re.fullmatch(r"error: [a-z_][a-z0-9_.]*: [^\n]*\n", err.getvalue()), err.getvalue()
                assert not os.path.exists(out)
                return
            assert err.getvalue() == ""
            for name in os.listdir(out):
                with open(os.path.join(out, name)) as fh:
                    if name.endswith(".csv"):  # every cell but the header row and notes
                        cells = [c for row in list(csv.reader(fh))[1:] for c in row]
                    else:  # the k,row,col,re,im entry lines of kernels.txt
                        cells = [c for line in fh if "," in line for c in line.split(",")]
                assert all(math.isfinite(float(c)) for c in cells
                           if c not in ("", "same_formula_unverified"))


class TestCli:
    def test_one_process_many_calls_match_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process and every path-sum buffer
        # belongs to one call, so no call leaves state that changes the next
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        commands = {
            "ttm": ["extract", "--config", str(cfg), "--flavor", "ttm", "--rmax", "3"],
            "default": ["extract", "--config", str(cfg)],
            "maps": ["propagate", "--config", str(cfg), "--with-maps"],
            "plain": ["propagate", "--config", str(cfg)],
        }

        def argv(name, side):
            extra = ["--kernels", str(tmp_path / side / "default" / "kernels.txt")] \
                if commands[name][0] == "propagate" else []
            return commands[name] + extra + ["--out", str(tmp_path / side / name)]

        assert cli_main(["extract", "--config", str(cfg), "--rmax", "x"]) == 1
        for _ in range(2):
            assert cli_main(["--help"]) == 0
            assert capsys.readouterr().out.startswith("usage: ifkernels")
        for name in commands:
            assert cli_main(argv(name, "one")) == 0
        src = os.path.dirname(os.path.dirname(ifkernels.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        for name in commands:
            run = subprocess.run([sys.executable, "-m", "ifkernels.cli", *argv(name, "fresh")],
                                 env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            files = sorted(p.name for p in (tmp_path / "fresh" / name).iterdir())
            assert files == sorted(p.name for p in (tmp_path / "one" / name).iterdir())
            for file in files:
                one, fresh = (tmp_path / side / name / file for side in ("one", "fresh"))
                assert one.read_bytes() == fresh.read_bytes(), (name, file)
        header = (tmp_path / "one" / "plain" / "trajectory.csv").read_text().split("\n", 1)[0]
        assert "_rho_" in header and "_u_" not in header

    def test_dyck_list_memory_does_not_grow_with_the_paths(self, tmp_path, capsys):
        # 16796 paths at semilength 10: 10.2 MiB traced when every path and
        # line was built before the write, 2.5 MiB one batch at a time
        argv = ["dyck", "--semilength", "10", "--list", "--out", str(tmp_path)]
        tracemalloc.start()
        try:
            assert cli_main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        lines = (tmp_path / "dyck_paths.csv").read_text().splitlines()
        assert len(lines) == 1 + math.comb(20, 10) // 11
        assert lines[1] == "0," + " ".join(["+1 -1"] * 10)
        assert lines[-1] == f"{len(lines) - 2}," + " ".join(["+1"] * 10 + ["-1"] * 10)
        assert peak < 5 * 2**20

    def test_dyck_count_only(self, capsys):
        assert cli_main(["dyck", "--semilength", "3", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "3,5"

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["transmogrify"]) == 1

    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 1

    def test_extract_zero_coupling(self, tmp_path, capsys, sys2):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"bath.alpha": "0"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        kset = load_kernels(out / "kernels.txt")
        g1 = fb_propagators(sys2, 0.1)[0]
        assert liou_norm(kset.midpoint[0] - g1) < 1e-12
        assert all(liou_norm(m) < 1e-12 for m in kset.midpoint[1:])
        norms = (out / "kernel_norms.csv").read_text().splitlines()
        assert norms[0] == "k,norm_M,norm_T"
        assert len(norms) == 5
        assert all(float(line.split(",")[1]) < 1e-12 for line in norms[2:])

    def test_ttm_extract_flags_first_kernel_element(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.flavor": "ttm"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "gqme_kernel_norms.csv").read_text().splitlines()
        assert lines[0] == "k,norm_K,note"
        assert lines[1].endswith("same_formula_unverified")
        assert lines[2].endswith(",")
        names = ["kernels.txt", "kernel_norms.csv", "gqme_kernel_norms.csv"]
        assert capsys.readouterr().out == "".join(f"{out / name}\n" for name in names)

    @pytest.mark.parametrize("command, blocked", [
        ("extract", "kernel_norms.csv"),
        ("extract --flavor ttm", "gqme_kernel_norms.csv"),
        ("compare", "comparison_summary.csv"),
        ("dyck --list", "dyck_paths.csv"),
    ])
    def test_failed_later_file_removes_earlier_files(self, tmp_path, capsys, command, blocked):
        # a later output path is a directory, so opening it fails after the
        # command wrote its earlier files: exit 1 with one io: line, no path
        # printed, and every file the command wrote removed; the directories
        # that were there stay
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        kdir = tmp_path / "k"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(kdir), "--rmax", "2"]) == 0
        kernels = str(kdir / "kernels.txt")
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        argv = command.split() + {
            "extract": ["--config", str(cfg), "--rmax", "2"],
            "compare": ["--kernels-a", kernels, "--kernels-b", kernels],
            "dyck": ["--semilength", "3"],
        }[command.split()[0]] + ["--out", str(out)]
        capsys.readouterr()
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: io: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == [blocked]
        assert not any((out / blocked).iterdir())

    def test_closed_stdout_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        # the paths are printed once every file is written; a reader that has
        # gone (a broken pipe) fails the command, which then leaves nothing
        class Gone:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        out = tmp_path / "out" / "a"
        assert cli_main(["dyck", "--semilength", "3", "--list", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: io: [Errno 32] Broken pipe\n"
        assert not (tmp_path / "out").exists()

    def test_failed_open_keeps_that_file(self, tmp_path, capsys, monkeypatch):
        # a file the command cannot open (someone's read-only file) was never
        # the command's: the failure removes the file written before it, not
        # that one
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        out.mkdir()
        kept = out / "kernel_norms.csv"
        kept.write_text("kept\n")

        def read_only(path, *args, **kwargs):
            if os.path.basename(path) == kept.name:
                raise PermissionError(13, "Permission denied", str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", read_only, raising=False)
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out), "--rmax", "2"]) == 1
        assert capsys.readouterr().err == f"error: io: [Errno 13] Permission denied: '{kept}'\n"
        assert [p.name for p in out.iterdir()] == [kept.name]
        assert kept.read_text() == "kept\n"

    @pytest.mark.parametrize("case", ["kernels_a_is_dir", "config_is_dir", "out_under_file",
                                      "out_is_file", "kernels_missing", "permission"])
    def test_os_errors_exit_1_with_io_code(self, tmp_path, capsys, monkeypatch, case):
        # any OSError (a directory where a file belongs, a path under a file,
        # a missing or unreadable file) is one io: line and exit 1
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        kdir = tmp_path / "k"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(kdir), "--rmax", "1"]) == 0
        capsys.readouterr()
        kernels = str(kdir / "kernels.txt")
        blocker = tmp_path / "file"
        blocker.write_text("")
        propagate = ["propagate", "--config", str(cfg), "--kernels", kernels]
        argv, path = {
            "kernels_a_is_dir": (["compare", "--kernels-a", str(kdir), "--kernels-b", kernels,
                                  "--out", str(tmp_path / "cmp")], kdir),
            "config_is_dir": (["propagate", "--config", str(kdir), "--kernels", kernels], kdir),
            "out_under_file": (propagate + ["--out", str(blocker / "sub")], blocker / "sub"),
            "out_is_file": (["extract", "--config", str(cfg), "--out", str(blocker), "--rmax", "1"],
                            blocker),
            "kernels_missing": (["propagate", "--config", str(cfg), "--kernels",
                                 str(tmp_path / "none.txt")], tmp_path / "none.txt"),
            "permission": (propagate, cfg),
        }[case]
        if case == "permission":
            def unreadable(path):
                raise PermissionError(13, "Permission denied", path)

            monkeypatch.setattr(cli, "load_config", unreadable)
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io: [Errno ")
        assert err.endswith(f": '{path}'\n") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "file", "k"]

    @pytest.mark.parametrize("table", ["kernel_norms.csv", "comparison.csv"])
    def test_small_csv_failure_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch,
                                                     table):
        # the disk fills after the header of a small table: exit 1 with an
        # io: line, and the header alone is not left behind
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        kdir = tmp_path / "k"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(kdir), "--rmax", "2"]) == 0
        kernels = str(kdir / "kernels.txt")
        out = tmp_path / "out"
        argv = {"kernel_norms.csv": ["extract", "--config", str(cfg), "--out", str(out),
                                     "--rmax", "2"],
                "comparison.csv": ["compare", "--kernels-a", kernels, "--kernels-b", kernels,
                                   "--out", str(out)]}[table]

        def full_after_header(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if os.path.basename(path) == table:
                writes = []

                def write(data):
                    if writes:
                        raise OSError(28, "No space left on device")
                    writes.append(data)
                    return type(fh).write(fh, data)

                fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", full_after_header, raising=False)
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: io: [Errno 28] No space left on device\n"
        assert not (out / table).exists()

    @pytest.mark.parametrize("loader", ["config", "kernels"])
    def test_non_utf8_input_is_a_parse_error(self, tmp_path, capsys, loader):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        kdir = tmp_path / "k"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(kdir), "--rmax", "1"]) == 0
        kernels = kdir / "kernels.txt"
        out = tmp_path / "out"
        if loader == "config":
            bad = tmp_path / "bad.cfg"
            bad.write_bytes(b"system.n = 2\n\xff\xfe bad\n")
            argv = ["extract", "--config", str(bad), "--out", str(out)]
        else:
            bad = tmp_path / "bad.txt"
            bad.write_bytes(kernels.read_bytes() + b"\xff\n")
            argv = ["compare", "--kernels-a", str(kernels), "--kernels-b", str(bad),
                    "--out", str(out)]
        capsys.readouterr()
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: parse: {bad}: not UTF-8 text\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "oracle"])
    def test_non_finite_path_sum_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # beta = 1e-308 overflows the influence factors: caught where they are
        # built, before any path is summed, with no numpy warning (the suite's
        # error::RuntimeWarning filter fails on one), and no output
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"bath.beta": "1e-308"}))
        out = tmp_path / "out"

        def forbidden(*args):
            raise AssertionError("no path may be summed on non-finite factors")

        monkeypatch.setattr(pathsum._PathSums, "maps", forbidden)
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: non_finite: influence factors are not finite\n"
        assert not out.exists()

    def test_validation_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.flavor": "banana"}))
        assert cli_main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("key, value", [("bath.alpha", "nan"), ("bath.omega_c", "inf")])
    def test_non_finite_bath_fails_fast(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{key: value}))
        assert cli_main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"{key}: non_finite value {value!r}" in capsys.readouterr().err

    def test_non_finite_eta_exit_2(self, tmp_path, capsys):
        # beta = 5e-324 makes the closed-form coefficients NaN: caught where
        # they are built, with no numpy warning, and no output directory
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"bath.beta": "5e-324"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: non_finite: eta coefficients are not finite (beta = 5e-324)\n"
        assert not out.exists()

    def test_budget_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.pathsum_budget": "4"}))
        assert cli_main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_oracle_budget_exceeded_writes_nothing(self, tmp_path, capsys):
        # the path sum checks the budget; no output directory comes before it
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.pathsum_budget": "4"}))
        out = tmp_path / "out"
        assert cli_main(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: pathsum_budget:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract --rmax 1", "oracle --steps 1"])
    def test_size_limit_before_any_allocation(self, tmp_path, command):
        # n = 200: the (n^2, n^2) propagator alone is 23.8 GiB.  The run is
        # capped at 1 GiB of address space, so a guard that let the
        # allocation through would fail at once with exit 2, not page the host
        n = 200
        rows = [" ".join(["0j"] * n)] * n
        rho = [" ".join(["1" if i == j == 0 else "0" for j in range(n)]) for i in range(n)]
        text = small_config(**{"system.n": n, "system.coupling_eigenvalues": " ".join(["1"] * n)})
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith(("system.hamiltonian", "initial_state")))
        text += "".join(f"\nsystem.hamiltonian.row.{i} = {r}" for i, r in enumerate(rows))
        text += "".join(f"\ninitial_state.row.{i} = {r}" for i, r in enumerate(rho)) + "\n"
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        code = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from ifkernels.cli import cli_main
            sys.exit(cli_main(sys.argv[1:]))
        """)
        src = os.path.dirname(os.path.dirname(ifkernels.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = tmp_path / "out"
        argv = command.split() + ["--config", str(cfg), "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 1, run.stderr
        assert run.stderr.startswith("error: size_limit: n = 200 at 1 steps needs a 23.8 GiB")
        assert not out.exists()

    def test_compare_one_step_memory(self, tmp_path, sys2, tables):
        from _oracles import eta_truncated
        from ifkernels.kernels import extract_kernels

        tab1 = eta_truncated(tables["sym_env"], 1)
        ka, _, _ = extract_kernels(sys2, tab1, 6, "smatpi")
        kb, _, _ = extract_kernels(sys2, tab1, 6, "ttm")
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_kernels(ka, pa)
        save_kernels(kb, pb)
        out = tmp_path / "cmp"
        assert cli_main(
            ["compare", "--kernels-a", str(pa), "--kernels-b", str(pb), "--out", str(out)]
        ) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        k2 = rows[2].split(",")
        assert float(k2[1]) < 1e-12  # smatpi midpoint norm at k = 2
        assert float(k2[3]) > 1e-6  # ttm norm at k = 2

    def test_propagate_needs_the_kernel_dt_exactly(self, tmp_path, capsys):
        # 1e-16 and 9e-16 differ by less than the old absolute tolerance, 1e-15
        _, kpath = _extracted(tmp_path, **{"grid.dt": "1e-16"})
        cfg = tmp_path / "other.txt"
        cfg.write_text(small_config(**{"grid.dt": "9e-16"}))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == "error: dt_mismatch: kernel file dt 1e-16 differs from config dt 9e-16\n"
        assert not (kpath.parent / "prop").exists()

    def test_propagate_needs_the_kernel_dim(self, tmp_path, capsys):
        # an n = 2 kernel file under an n = 3 config, with the same dt
        kpath = tmp_path / "k" / "kernels.txt"
        kpath.parent.mkdir()
        save_kernels(KernelSet("sym_env", 0.1, (np.eye(4, dtype=complex),)), kpath)
        zero = "0+0j 0+0j 0+0j"
        cfg = tmp_path / "n3.txt"
        cfg.write_text(small_config(**{
            "system.n": "3", "system.coupling_eigenvalues": "1 0 -1",
            "system.hamiltonian.row.0": zero, "system.hamiltonian.row.1": zero,
            "system.hamiltonian.row.2": zero, "initial_state.row.0": "1+0j 0+0j 0+0j",
            "initial_state.row.1": zero, "initial_state.row.2": zero}))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert err == "error: dim_mismatch: kernel file dimension differs from configured system\n"
        assert not (kpath.parent / "prop").exists()

    def test_init_config_prints_the_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli_main(["init-config"]) == 0
        captured = capsys.readouterr()
        assert captured.out == default_config_text() and captured.err == ""
        assert not list(tmp_path.iterdir())

    def test_compare_dt_mismatch(self, tmp_path, capsys):
        _, ka = _extracted(tmp_path / "a")
        _, kb = _extracted(tmp_path / "b", **{"grid.dt": "0.2"})
        out = tmp_path / "cmp"
        argv = ["compare", "--kernels-a", str(ka), "--kernels-b", str(kb), "--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: dt_mismatch: kernel sets differ in dt\n"
        assert not out.exists()

    def test_compare_splitting_mismatch(self, tmp_path, capsys):
        _, ka = _extracted(tmp_path / "a", **{"run.flavor": "ttm"})
        _, kb = _extracted(tmp_path / "b", **{"run.splitting": "asym"})
        out = tmp_path / "cmp"
        argv = ["compare", "--kernels-a", str(ka), "--kernels-b", str(kb), "--out", str(out)]
        assert cli_main(argv) == 1
        assert "splitting_mismatch: kernel sets are 'sym_env' and 'asym'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1"])
    def test_compare_threshold_rejected(self, tmp_path, capsys, threshold):
        _, kpath = _extracted(tmp_path)
        out = tmp_path / "cmp"
        argv = ["compare", "--kernels-a", str(kpath), "--kernels-b", str(kpath), "--out", str(out),
                f"--threshold={threshold}"]
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert "error: threshold: must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_propagate_headers(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        assert (
            cli_main(
                ["propagate", "--config", str(cfg), "--kernels", str(out / "kernels.txt"),
                 "--out", str(out)]
            )
            == 0
        )
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["step", "t"]
        assert len(header) == 2 + 8  # re/im of each of the 4 density elements
        assert len(lines) == 12  # header + steps 0..10
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_propagate_with_maps_columns(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        assert (
            cli_main(
                ["propagate", "--config", str(cfg), "--kernels", str(out / "kernels.txt"),
                 "--out", str(out), "--with-maps"]
            )
            == 0
        )
        header = (out / "trajectory.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 8 + 32

    def test_kernel_file_carries_metadata(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "kernels.txt").read_text()
        assert "meta.bath.alpha = 0.10000000000000001" in text
        load_kernels(out / "kernels.txt")  # metadata lines are ignored on load

    def test_oracle_output(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        assert cli_main(["oracle", "--config", str(cfg), "--out", str(out), "--steps", "3"]) == 0
        lines = (out / "oracle_maps.csv").read_text().splitlines()
        assert len(lines) == 5  # header + steps 0..3
        assert len(lines[0].split(",")) == 2 + 32

    def test_oracle_maps_match_oracle_trajectory(self, tmp_path, sys2, tables):
        # the CLI builds its own horizon-3 table; the fixture's reaches 8
        from ifkernels.pathsum import oracle_trajectory

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": "sym_sys"}))
        out = tmp_path / "out"
        assert cli_main(["oracle", "--config", str(cfg), "--out", str(out), "--steps", "3"]) == 0
        rows = (out / "oracle_maps.csv").read_text().splitlines()[1:]
        full, _, _ = oracle_trajectory(sys2, tables["sym_sys"], 3)
        assert len(rows) == 4
        for row, want in zip(rows, [np.eye(4), *full]):
            vals = np.array([float(x) for x in row.split(",")[2:]])
            got = (vals[0::2] + 1j * vals[1::2]).reshape(4, 4)
            assert liou_norm(got - want) < 1e-12

    @pytest.mark.parametrize("steps", ["0", "-2", "11"])
    def test_oracle_steps_outside_grid(self, tmp_path, capsys, steps):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        argv = ["oracle", "--config", str(cfg), "--out", str(out), "--steps", steps]
        assert cli_main(argv) == 1
        assert f"--steps: {steps} is outside 1..grid.n_steps = 10" in capsys.readouterr().err
        assert not out.exists()

    def test_extract_rmax_zero_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        for rmax in ("0", "11"):
            argv = ["extract", "--config", str(cfg), "--out", str(tmp_path / "o"), "--rmax", rmax]
            assert cli_main(argv) == 1
            assert f"--rmax: {rmax} is outside 1..grid.n_steps = 10" in capsys.readouterr().err

    @pytest.mark.parametrize("command, value, code", [
        ("extract", "0", "--rmax"), ("oracle", "0", "--steps"),
        ("compare", "0", "threshold"), ("compare", "nan", "threshold"),
    ])
    def test_argument_errors_are_coded(self, tmp_path, capsys, command, value, code):
        # exit 1, one error line that begins with the argument's code, no --out
        cfg, kpath = _extracted(tmp_path / "k")
        out = tmp_path / "out"
        argv = {
            "extract": ["extract", "--config", str(cfg), "--rmax", value],
            "oracle": ["oracle", "--config", str(cfg), "--steps", value],
            "compare": ["compare", "--kernels-a", str(kpath), "--kernels-b", str(kpath),
                        f"--threshold={value}"],
        }[command]
        capsys.readouterr()
        assert cli_main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {code}: [^\\n]*\\n", err), err
        assert not out.exists()

    def test_every_library_error_is_coded(self):
        # every error the package builds begins with its code: a literal
        # "<code>: " or config's f"{key}: ..."; a code that is not a dotted
        # config key is named in the errors.py table
        code = re.compile(r"([a-z][a-z0-9_.]*|--[a-z][a-z0-9-]*): ")
        uncoded, codes = [], set()
        package = os.path.dirname(ifkernels.__file__)
        for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("ValidationError", "NumericalError", "error")):
                    continue
                arg = node.args[0] if node.args else ast.Constant(None)
                parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
                text = [p.value if isinstance(p, ast.Constant) else None for p in parts[:2]]
                if isinstance(text[0], str) and (found := code.match(text[0])):
                    codes.add(found.group(1))
                elif not (text[0] is None and len(text) == 2 and isinstance(text[1], str)
                          and text[1].startswith(": ")):
                    uncoded.append(f"{name}:{node.lineno}: {ast.unparse(arg)}")
        assert not uncoded, f"{len(uncoded)} uncoded:\n" + "\n".join(uncoded)
        assert {"parse", "system", "grid", "non_finite", "--out"} <= codes  # the walk reached them
        assert [c for c in sorted(codes) if "." not in c and f"``{c}``" not in errors.__doc__] == []

    @pytest.mark.parametrize("command", ["extract", "oracle"])
    def test_budget_before_the_eta_table(self, tmp_path, capsys, monkeypatch, command):
        # 4^99999 configurations: refused before an eta table of 10^5 steps
        # is built, and without printing a number of 60206 digits
        def forbidden(*args, **kwargs):
            raise AssertionError("the budget is checked before any eta table is built")

        monkeypatch.setattr("ifkernels.cli.eta_table", forbidden)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"grid.n_steps": "100000", "grid.r_max": "100000"}))
        out = tmp_path / "out"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: pathsum_budget: 4^99999 configurations exceed budget 100000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("splitting", ["sym_env", "asym"])
    def test_aux_zero_convention_follows_splitting_flag(self, tmp_path, capsys, splitting):
        # the key is rejected when the config is parsed, before the flag moves the run
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": "sym_sys",
                                       "run.aux_zero_convention": "standalone_terminal"}))
        out = tmp_path / "out"
        argv = ["extract", "--config", str(cfg), "--out", str(out), "--splitting", splitting]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "error: run.aux_zero_convention: unknown field\n"
        assert not out.exists()

    @pytest.mark.parametrize("semilength", ["15", "20"])
    def test_dyck_list_out_of_range_writes_nothing(self, tmp_path, capsys, semilength):
        out = tmp_path / "out"
        argv = ["dyck", "--semilength", semilength, "--list", "--out", str(out)]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert "range: enumerate_dyck supports 0 <= m <= 14" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("semilength", ["-1", "31"])
    def test_dyck_counts_out_of_range_writes_nothing(self, tmp_path, capsys, semilength):
        # the counts file is checked like --count-only, before its directory is made
        out = tmp_path / "out"
        assert cli_main(["dyck", "--semilength", semilength, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "range: catalan supports 0 <= m <= 30" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["oracle", "--config", "cfg.txt"],
        ["extract", "--config", "cfg.txt"],
        ["propagate", "--config", "cfg.txt", "--kernels", "k/kernels.txt"],
        ["compare", "--kernels-a", "k/kernels.txt", "--kernels-b", "k/kernels.txt"],
        ["dyck", "--semilength", "3"],
    ], ids=lambda argv: argv[0])
    def test_empty_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(small_config())
        assert cli_main(["extract", "--config", "cfg.txt", "--out", "k"]) == 0
        before = sorted(p.name for p in tmp_path.rglob("*"))
        capsys.readouterr()

        def forbidden(*args, **kwargs):
            raise AssertionError("work before the --out check")

        for name in ("eta_table", "propagate_blocks", "compare", "catalan"):
            monkeypatch.setattr(cli, name, forbidden)
        assert cli_main(argv + ["--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out: must not be empty\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    def test_output_dir_key_is_an_unknown_field(self, tmp_path, capsys, monkeypatch):
        # --out alone names the output directory; no config key restates it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(small_config() + "output.dir = x\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("work before the config is refused")

        monkeypatch.setattr(cli, "eta_table", forbidden)
        assert cli_main(["extract", "--config", "cfg.txt"]) == 1
        assert capsys.readouterr().err == "error: output.dir: unknown field\n"
        assert os.listdir(tmp_path) == ["cfg.txt"]

    @pytest.mark.parametrize("argv, name", [
        pytest.param(["oracle", "--config", "cfg.txt", "--steps", "2"], "oracle_maps.csv",
                     id="oracle"),
        pytest.param(["extract", "--config", "cfg.txt"], "kernels.txt", id="extract"),
        pytest.param(["propagate", "--config", "cfg.txt", "--kernels", "k/kernels.txt"],
                     "trajectory.csv", id="propagate"),
    ])
    def test_out_defaults_to_out(self, tmp_path, monkeypatch, argv, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(small_config())
        assert cli_main(["extract", "--config", "cfg.txt", "--out", "k"]) == 0
        assert cli_main(argv) == 0
        assert (tmp_path / "out" / name).is_file()

    def test_numpy_only_runtime(self, tmp_path):
        # every subcommand with the test-only packages made unimportable
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        code = textwrap.dedent("""
            import sys
            for name in ("scipy", "hypothesis", "pytest", "_oracles"):
                sys.modules[name] = None  # any import of them raises ImportError
            from ifkernels.cli import cli_main
            cfg, out = sys.argv[1:]
            assert cli_main(["extract", "--config", cfg, "--out", out]) == 0
            kernels = out + "/kernels.txt"
            argv = ["propagate", "--config", cfg, "--kernels", kernels, "--out", out]
            assert cli_main(argv) == 0
            assert cli_main(["oracle", "--config", cfg, "--out", out, "--steps", "3"]) == 0
            ttm = out + "/ttm"
            assert cli_main(["extract", "--config", cfg, "--out", ttm, "--flavor", "ttm"]) == 0
            argv = ["compare", "--kernels-a", kernels, "--kernels-b", ttm + "/kernels.txt",
                    "--out", out + "/cmp"]
            assert cli_main(argv) == 0
        """)
        src = os.path.dirname(os.path.dirname(ifkernels.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")],
                             env=env, cwd=tmp_path, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 12
        for name in ("oracle_maps.csv", "ttm/gqme_kernel_norms.csv", "cmp/comparison.csv",
                     "cmp/comparison_summary.csv"):
            assert (tmp_path / "out" / name).stat().st_size > 0

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
            assert (
                cli_main(
                    ["propagate", "--config", str(cfg), "--kernels", str(out / "kernels.txt"),
                     "--out", str(out)]
                )
                == 0
            )
            outputs.append(
                tuple(
                    (out / f).read_bytes()
                    for f in ("kernels.txt", "kernel_norms.csv", "trajectory.csv")
                )
            )
        assert outputs[0] == outputs[1]
