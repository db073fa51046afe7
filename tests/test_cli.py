import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import ifkernels
from ifkernels import cli, kernels
from ifkernels.bath import eta_table
from ifkernels.cli import cli_main
from ifkernels.config import default_config_text, load_config, parse_config
from ifkernels.errors import ParseError, ValidationError, VersionError
from ifkernels.kernel_io import load_kernels, save_kernels
from ifkernels.kernels import KernelSet, propagate
from ifkernels.liouville import TimeGrid, apply_map, fb_propagator, liou_norm
from ifkernels.pathsum import oracle_trajectory

from _oracles import per_cell_csv, per_element_kernel_block


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

    def test_non_finite_tolerance_rejected(self):
        with pytest.raises(ValidationError, match="tolerances.quadrature: non_finite"):
            parse_config(small_config() + "\ntolerances.quadrature = nan\n")

    @pytest.mark.parametrize("splitting", ["sym_env", "asym"])
    def test_aux_zero_convention_is_sym_sys_only(self, tmp_path, capsys, splitting):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": splitting,
                                       "run.aux_zero_convention": "standalone_terminal"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"run.aux_zero_convention: applies to sym_sys only, not {splitting}" in err
        assert not out.exists()

    def test_parse_error_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("system.n = 2\nnot a line\n")


class TestKernelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mats = tuple(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
        kset = KernelSet(
            "sym_env", 0.1, 3, mats, mats, "smatpi",
            aux_zero_convention="terminal_times_I0", aux0=np.eye(4, dtype=complex),
        )
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        loaded = load_kernels(path)
        assert loaded.splitting == kset.splitting
        assert loaded.r_max == kset.r_max
        assert loaded.aux_zero_convention == kset.aux_zero_convention
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
        kset = KernelSet("sym_env", 0.1, 2, tuple(mats), tuple(m.conj() for m in mats), "smatpi",
                         aux_zero_convention="terminal_times_I0", aux0=aux0)
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
        kset = KernelSet("sym_env", 0.1, 1, (np.eye(4, dtype=complex),), None, "ttm")
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        text = path.read_text().replace("format_version = 1", "format_version = 999")
        path.write_text(text)
        with pytest.raises(VersionError, match="version"):
            load_kernels(path)

    def test_truncated_file_parse_error(self, tmp_path):
        kset = KernelSet("sym_env", 0.1, 1, (np.eye(4, dtype=complex),), None, "ttm")
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ParseError, match="parse"):
            load_kernels(path)

    def test_malformed_line_reports_number(self, tmp_path):
        kset = KernelSet("sym_env", 0.1, 1, (np.eye(4, dtype=complex),), None, "ttm")
        path = tmp_path / "k.txt"
        save_kernels(kset, path)
        lines = path.read_text().splitlines()
        lines[8] = "1,0,0,zap,0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 9"):
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
        assert "parse: inconsistent kernel file (r_max 4 but 3 termination matrices)" in err

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
        assert "parse: inconsistent kernel file (unknown splitting 'bogus')" in err

    @pytest.mark.parametrize("splitting", ["sym_env", "asym"])
    def test_smatpi_without_termination(self, tmp_path, capsys, splitting):
        cfg, kpath = _extracted(tmp_path, **{"run.splitting": splitting})
        _drop_block(kpath, "termination")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert f"parse: inconsistent kernel file (smatpi {splitting} kernels need termination" in err

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"run.splitting": "sym_sys"},
         {"run.splitting": "sym_sys", "run.aux_zero_convention": "standalone_terminal"}],
    )
    def test_missing_aux0(self, tmp_path, capsys, overrides):
        cfg, kpath = _extracted(tmp_path, **overrides)
        _drop_block(kpath, "aux0")
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert "parse: inconsistent kernel file (aux0 matrix missing" in err

    @pytest.mark.parametrize("dt", ["nan", "-0.1", "0.0", "inf"])
    def test_bad_dt_header(self, tmp_path, capsys, dt):
        # |nan - 0.1| > tol is False, so the dt checks of propagate and compare pass a nan
        cfg, kpath = _extracted(tmp_path)
        kpath.write_text(kpath.read_text().replace("dt = 0.1\n", f"dt = {dt}\n"))
        code, err = _propagate_exit(cfg, kpath, capsys)
        assert code == 1
        assert "parse: inconsistent kernel file (dt must be finite and > 0" in err
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

    def test_kernel_set_checks_aux0_shape(self):
        mats = (np.eye(4, dtype=complex),)
        with pytest.raises(ValidationError, match="dim_mismatch: aux0 shape"):
            KernelSet("sym_env", 0.1, 1, mats, mats, "smatpi",
                      aux_zero_convention="terminal_times_I0", aux0=np.eye(3))


PROPAGATE_CASES = [
    ("sym_env", "smatpi", None),
    ("sym_env", "ttm", None),
    ("sym_sys", "smatpi", None),
    ("sym_sys", "smatpi", "standalone_terminal"),
    ("sym_sys", "ttm", None),
    ("asym", "smatpi", None),
    ("asym", "ttm", None),
]


class TestPropagateFromKernelFile:
    @pytest.mark.parametrize("splitting, flavor, convention", PROPAGATE_CASES)
    def test_no_eta_table_or_oracle(self, tmp_path, capsys, monkeypatch, splitting, flavor,
                                    convention):
        # propagate reads everything from the kernel file; its first r_max
        # maps are the oracle maps the kernels were extracted from
        overrides = {"run.splitting": splitting, "run.flavor": flavor}
        if convention is not None:
            overrides["run.aux_zero_convention"] = convention
        cfg, kpath = _extracted(tmp_path, **overrides)
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


@pytest.fixture(scope="module")
def kernel_files(tmp_path_factory):
    """(config path, kernel file path) of every propagate case, extracted once."""
    files = {}
    for splitting, flavor, convention in PROPAGATE_CASES:
        overrides = {"run.splitting": splitting, "run.flavor": flavor}
        if convention is not None:
            overrides["run.aux_zero_convention"] = convention
        files[(splitting, flavor, convention)] = _extracted(tmp_path_factory.mktemp("k"),
                                                            **overrides)
    return files


def _trajectory_bytes(cfg, kpath, out, with_maps):
    argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
    assert cli_main(argv + (["--with-maps"] if with_maps else [])) == 0
    return (out / "trajectory.csv").read_bytes()


def _per_cell_trajectory(cfg, kpath, with_maps):
    """trajectory.csv from the same propagated maps, one apply_map and one format per cell."""
    config = load_config(cfg)
    kset = load_kernels(kpath)
    dressed = kset.splitting == "sym_sys"
    g_half = fb_propagator(config.system, 0.5 * config.grid.dt) if dressed else None
    maps = [np.eye(config.system.dim, dtype=complex)]
    maps += list(propagate(kset, config.grid.n_steps, g_half=g_half))
    tables = [("rho", [apply_map(u, config.initial_state) for u in maps])]
    if with_maps:
        tables.append(("u", maps))
    return per_cell_csv(config.grid.dt, tables).encode()


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
        # with 3-map chunks, 1, 2, 3 and 10 maps fall below one chunk, fill
        # it and span several; every write holds one engine block, the first
        # with U_0 ahead of its maps
        _, kpath = kernel_files[("sym_sys", "smatpi", None)]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": "sym_sys", "grid.n_steps": n_steps,
                                       "grid.r_max": 1}))
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        rows_per_write = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def counted(text):
                rows_per_write.append(text.count("\n"))
                return write(text)

            fh.write = counted
            return fh

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        got = _trajectory_bytes(cfg, kpath, tmp_path / "out", True)
        assert got == _per_cell_trajectory(cfg, kpath, True)
        assert rows_per_write[0] == 1  # header
        assert sum(rows_per_write[1:]) == n_steps + 1
        assert rows_per_write[1] <= chunk + 1
        assert all(rows <= chunk for rows in rows_per_write[2:])
        engine = [min(chunk, n_steps - start) for start in range(0, n_steps, chunk)]
        assert rows_per_write[1:] == [engine[0] + 1] + engine[1:]

    @pytest.mark.parametrize("splitting", ["sym_env", "sym_sys", "asym"])
    def test_oracle_matches_per_cell_writer(self, tmp_path, splitting):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": splitting}))
        argv = ["oracle", "--config", str(cfg), "--out", str(tmp_path), "--steps", "3"]
        assert cli_main(argv) == 0
        config = load_config(cfg)
        table = eta_table(config.bath, TimeGrid(0.1, 3, 3), splitting,
                          rtol=config.quadrature_rtol)
        full, _, _ = oracle_trajectory(config.system, table, 3)
        maps = [np.eye(4, dtype=complex)] + list(full)
        want = per_cell_csv(config.grid.dt, [("u", maps)]).encode()
        assert (tmp_path / "oracle_maps.csv").read_bytes() == want


def _propagate_diverging(tmp_path, out):
    """Exit code of propagating a ttm set with midpoint 2 I for 2000 steps into ``out``."""
    kpath = tmp_path / "kernels.txt"
    save_kernels(KernelSet("sym_env", 0.1, 1, (2 * np.eye(4),), None, "ttm"), kpath)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(small_config(**{"grid.n_steps": 2000, "grid.r_max": 1}))
    argv = ["propagate", "--config", str(cfg), "--kernels", str(kpath), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli_main(argv)


class TestPropagateFailures:
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

    def test_memory_does_not_grow_with_steps(self, tmp_path, monkeypatch):
        # maps are propagated, applied and written one chunk at a time, so
        # ten times the steps take no more memory.  The chunk size is cut
        # by 8 with the steps (5000 and 50000 at the shipped size hold the
        # same, but take seconds under tracemalloc).
        monkeypatch.setattr(kernels, "CHUNK", kernels.CHUNK // 8)
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


class TestCli:
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
        g1 = fb_propagator(sys2, 0.1)
        assert liou_norm(kset.midpoint[0] - g1) < 1e-12
        assert all(liou_norm(m) < 1e-12 for m in kset.midpoint[1:])
        norms = (out / "kernel_norms.csv").read_text().splitlines()
        assert norms[0] == "k,norm_M,norm_T"
        assert len(norms) == 5
        assert all(float(line.split(",")[1]) < 1e-12 for line in norms[2:])

    def test_ttm_extract_flags_first_kernel_element(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.flavor": "ttm"}))
        out = tmp_path / "out"
        assert cli_main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "gqme_kernel_norms.csv").read_text().splitlines()
        assert lines[0] == "k,norm_K,note"
        assert lines[1].endswith("same_formula_unverified")
        assert lines[2].endswith(",")

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

    def test_quadrature_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from ifkernels import bath

        monkeypatch.setattr(bath, "OMEGA_NODES_MAX", 128)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config() + "\ntolerances.quadrature = 1e-15\n")
        assert cli_main(["extract", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "quadrature_failed" in capsys.readouterr().err

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
        from ifkernels.bath import eta_truncated
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
        assert "error: threshold must be finite and > 0" in capsys.readouterr().err
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
        assert f"--steps {steps} is outside 1..grid.n_steps = 10" in capsys.readouterr().err
        assert not out.exists()

    def test_extract_rmax_zero_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        for rmax in ("0", "11"):
            argv = ["extract", "--config", str(cfg), "--out", str(tmp_path / "o"), "--rmax", rmax]
            assert cli_main(argv) == 1
            assert "r_max must satisfy 1 <= r_max <= n_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_oracle_budget_below_one_rejected(self, tmp_path, capsys, monkeypatch, budget):
        def forbidden(*args, **kwargs):
            raise AssertionError("the budget is checked before any eta table is built")

        monkeypatch.setattr("ifkernels.cli.eta_table", forbidden)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config())
        out = tmp_path / "out"
        argv = ["oracle", "--config", str(cfg), "--out", str(out), "--budget", budget]
        assert cli_main(argv) == 1
        assert f"--budget: must be >= 1, got {budget}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("splitting", ["sym_env", "asym"])
    def test_aux_zero_convention_follows_splitting_flag(self, tmp_path, capsys, splitting):
        # the config is valid (sym_sys); the flag moves the run off sym_sys
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config(**{"run.splitting": "sym_sys",
                                       "run.aux_zero_convention": "standalone_terminal"}))
        out = tmp_path / "out"
        argv = ["extract", "--config", str(cfg), "--out", str(out), "--splitting", splitting]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert f"run.aux_zero_convention: applies to sym_sys only, not {splitting}" in err
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

    def test_out_falls_back_to_config_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(small_config() + "output.dir = cfgout\n")
        assert cli_main(["extract", "--config", str(cfg)]) == 0
        assert (tmp_path / "cfgout" / "kernels.txt").exists()

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
