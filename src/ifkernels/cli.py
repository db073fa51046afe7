"""Batch command-line interface.

Subcommands: ``oracle``, ``extract``, ``propagate``, ``compare``, ``dyck``.
Everything is file-driven and non-interactive; identical configs produce
byte-identical outputs.  ``propagate`` needs no influence coefficients or
path sums: the kernel file carries the whole recurrence, and the config
adds only the grid, the initial state and, for sym_sys, the half-step
propagator of its Hamiltonian.  Exit codes: 0 success, 1 validation error, 2
numerical error (quadrature failure, path-sum budget, a diverging
propagation) or a failed allocation (``error: memory: ...``).

CSV conventions: every file has one header row; floats are printed with 17
significant digits (lossless double round trip); complex-valued tables carry
separate ``re_*`` / ``im_*`` columns; density-matrix and map elements are
ordered row-major in the flat forward-backward index.  ``trajectory.csv``
and ``oracle_maps.csv`` are written one engine block at a time, each block
formatted by one call: ``propagate`` makes, applies and writes one chunk of
``kernels.CHUNK`` maps at a time, so memory does not grow with the number
of steps, and ``oracle`` writes its few path-sum maps as one block.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys

import numpy as np

from .bath import eta_table
from .combinatorics import catalan, enumerate_dyck
from .config import RunConfig, default_config_text, load_config
from .errors import NumericalError, ValidationError
from .kernel_io import load_kernels, save_kernels
from .kernels import compare, extract_kernels, gqme_kernel, propagate_blocks
from .liouville import TimeGrid, apply_map, fb_propagator, liou_norm
from .pathsum import oracle_trajectory


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_steps_csv(path, dt, prefixes, blocks):
    """Rows ``step, t = step * dt`` and the re/im entries of each table.

    ``blocks`` is an iterable of tuples with one stack per prefix; a stack
    holds one (m, m) complex matrix per step, the blocks run over steps
    0, 1, ... in order, and each prefix adds the columns re_<prefix>_i_j,
    im_<prefix>_i_j, row-major.  Each block is formatted by one ``%`` call
    and written at once, so the text buffer is one block long; ``%.17g``
    prints a float as ``format(x, ".17g")`` does.  If the blocks raise, the
    partial file is removed.
    """
    blocks = iter(blocks)
    first = next(blocks)
    header = ["step", "t"]
    for prefix, stack in zip(prefixes, first):
        m = stack.shape[-1]
        header += [f"{part}_{prefix}_{i}_{j}" for i in range(m) for j in range(m)
                   for part in ("re", "im")]
    row_template = "%d," + ",".join(["%.17g"] * (len(header) - 1)) + "\n"
    done = 0
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for block in itertools.chain([first], blocks):
                cols = [np.ascontiguousarray(s, dtype=complex).reshape(len(s), -1).view(float)
                        for s in block]
                step = np.arange(done, done + len(cols[0]), dtype=float)
                data = np.column_stack([step, step * dt] + cols)
                fh.write((row_template * len(step)) % tuple(data.ravel().tolist()))
                done += len(step)
    except BaseException:
        os.remove(path)
        raise


def _with_identity(maps):
    """U_0 = identity stacked ahead of the maps U_1..U_N."""
    return np.concatenate((np.eye(maps.shape[-1], dtype=complex)[None], maps))


def _out_dir(args, cfg):
    return args.out if args.out is not None else cfg.output_dir


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    args.out = _out_dir(args, cfg)
    steps = args.steps if args.steps is not None else cfg.grid.r_max
    grid = cfg.grid
    if not 1 <= steps <= grid.n_steps:
        raise ValidationError(f"--steps {steps} is outside 1..grid.n_steps = {grid.n_steps}")
    budget = args.budget if args.budget is not None else cfg.pathsum_budget
    if budget < 1:
        raise ValidationError(f"--budget: must be >= 1, got {budget}")
    table = eta_table(cfg.bath, TimeGrid(grid.dt, steps, steps), cfg.splitting,
                      rtol=cfg.quadrature_rtol)
    full, _, _ = oracle_trajectory(cfg.system, table, steps, budget=budget)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "oracle_maps.csv")
    _write_steps_csv(path, grid.dt, ("u",), [(_with_identity(full),)])
    print(path)
    return 0


def _extraction(cfg: RunConfig, splitting: str, flavor: str, r_max: int):
    if not 1 <= r_max <= cfg.grid.n_steps:
        raise ValidationError("r_max must satisfy 1 <= r_max <= n_steps")
    if cfg.aux_zero_convention is not None and splitting != "sym_sys":
        raise ValidationError(f"run.aux_zero_convention: applies to sym_sys only, not {splitting}")
    table = eta_table(cfg.bath, TimeGrid(cfg.grid.dt, r_max, r_max), splitting,
                      rtol=cfg.quadrature_rtol)
    kset, _, _ = extract_kernels(
        cfg.system,
        table,
        r_max,
        flavor,
        budget=cfg.pathsum_budget,
        aux_zero_convention=cfg.aux_zero_convention,
    )
    return kset


def _cmd_extract(args) -> int:
    cfg = load_config(args.config)
    args.out = _out_dir(args, cfg)
    splitting = args.splitting or cfg.splitting
    flavor = args.flavor or cfg.flavor
    r_max = args.rmax if args.rmax is not None else cfg.grid.r_max
    kset = _extraction(cfg, splitting, flavor, r_max)
    os.makedirs(args.out, exist_ok=True)

    kpath = os.path.join(args.out, "kernels.txt")
    metadata = {
        "system.n": str(cfg.system.n),
        "bath.kind": cfg.bath.spectral_density.kind,
        "bath.alpha": _fmt(cfg.bath.spectral_density.alpha),
        "bath.omega_c": _fmt(cfg.bath.spectral_density.omega_c),
        "bath.beta": "inf" if np.isinf(cfg.bath.beta) else _fmt(cfg.bath.beta),
        "pathsum_budget": str(cfg.pathsum_budget),
    }
    save_kernels(kset, kpath, metadata=metadata)

    rows = []
    for k, mat in enumerate(kset.midpoint, start=1):
        norm_t = "" if kset.termination is None else _fmt(liou_norm(kset.termination[k - 1]))
        rows.append([str(k), _fmt(liou_norm(mat)), norm_t])
    npath = os.path.join(args.out, "kernel_norms.csv")
    _write_csv(npath, ["k", "norm_M", "norm_T"], rows)

    if flavor == "ttm" and kset.r_max >= 2:
        grows = [
            [str(k), _fmt(liou_norm(mat)), "same_formula_unverified" if k == 1 else ""]
            for k, mat in enumerate(gqme_kernel(kset.midpoint, kset.dt), start=1)
        ]
        _write_csv(
            os.path.join(args.out, "gqme_kernel_norms.csv"), ["k", "norm_K", "note"], grows
        )

    print(kpath)
    print(npath)
    return 0


def _cmd_propagate(args) -> int:
    cfg = load_config(args.config)
    args.out = _out_dir(args, cfg)
    kset = load_kernels(args.kernels)
    if abs(kset.dt - cfg.grid.dt) > 1e-15:
        raise ValidationError(f"kernel file dt {kset.dt} differs from config dt {cfg.grid.dt}")
    if kset.dim != cfg.system.dim:
        raise ValidationError("kernel file dimension differs from configured system")

    g_half = fb_propagator(cfg.system, 0.5 * cfg.grid.dt) if kset.splitting == "sym_sys" else None
    blocks = propagate_blocks(kset, cfg.grid.n_steps, g_half=g_half)

    def tables():
        for i, maps in enumerate(blocks):
            maps = _with_identity(maps) if i == 0 else maps
            rho = apply_map(maps, cfg.initial_state)
            yield (rho, maps) if args.with_maps else (rho,)

    # a failed run leaves no directory it made itself (the CSV writer
    # removes its partial file), and a directory that was there stays
    made = []
    new_dir = os.path.abspath(args.out)
    while not os.path.exists(new_dir):
        made.append(new_dir)
        new_dir = os.path.dirname(new_dir)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trajectory.csv")
    try:
        _write_steps_csv(path, cfg.grid.dt, ("rho", "u") if args.with_maps else ("rho",), tables())
    except BaseException:
        with contextlib.suppress(OSError):
            for new_dir in made:  # deepest first
                os.rmdir(new_dir)
        raise
    print(path)
    return 0


def _cmd_compare(args) -> int:
    set_a = load_kernels(args.kernels_a)
    set_b = load_kernels(args.kernels_b)
    report = compare(set_a, set_b, threshold=args.threshold)
    os.makedirs(args.out, exist_ok=True)

    def cell(v):
        return "" if v is None else _fmt(v)

    rows = [
        [str(k), cell(na), cell(ta), cell(nb), cell(tb), cell(d)]
        for (k, na, ta, nb, tb, d) in report.rows()
    ]
    path = os.path.join(args.out, "comparison.csv")
    _write_csv(
        path,
        ["k", "norm_a_mid", "norm_a_term", "norm_b_mid", "norm_b_term", "diff_mid"],
        rows,
    )
    spath = os.path.join(args.out, "comparison_summary.csv")
    _write_csv(
        spath,
        ["set", "first_k_below_threshold", "threshold"],
        [
            ["a", "" if report.first_below_a is None else str(report.first_below_a), _fmt(report.threshold)],
            ["b", "" if report.first_below_b is None else str(report.first_below_b), _fmt(report.threshold)],
        ],
    )
    print(path)
    print(spath)
    return 0


def _cmd_dyck(args) -> int:
    m = args.semilength
    count = catalan(m)
    if args.count_only:
        print(f"{m},{count}")
        return 0
    paths = enumerate_dyck(m) if args.list_paths else None
    os.makedirs(args.out, exist_ok=True)
    rows = [[str(mm), str(catalan(mm))] for mm in range(0, m + 1)]
    cpath = os.path.join(args.out, "dyck_counts.csv")
    _write_csv(cpath, ["semilength", "count"], rows)
    print(cpath)
    if paths is not None:
        prow = [[str(i), " ".join(f"{s:+d}" for s in p)] for i, p in enumerate(paths)]
        ppath = os.path.join(args.out, "dyck_paths.csv")
        _write_csv(ppath, ["index", "steps"], prow)
        print(ppath)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifkernels",
        description="Discretized influence-functional path integrals and memory kernels.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("oracle", help="run the path-sum oracle and write map CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("extract", help="extract a kernel set and write it to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--flavor", choices=("smatpi", "ttm"), default=None)
    p.add_argument("--splitting", choices=("sym_env", "sym_sys", "asym"), default=None)
    p.add_argument("--rmax", type=int, default=None)

    p = sub.add_parser("propagate", help="iterate a stored kernel set to long times")
    p.add_argument("--config", required=True)
    p.add_argument("--kernels", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--with-maps", action="store_true", dest="with_maps")

    p = sub.add_parser("compare", help="compare two stored kernel sets")
    p.add_argument("--kernels-a", required=True, dest="kernels_a")
    p.add_argument("--kernels-b", required=True, dest="kernels_b")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=1e-3)

    p = sub.add_parser("dyck", help="Dyck-path counts and listings")
    p.add_argument("--semilength", type=int, required=True)
    p.add_argument("--count-only", action="store_true", dest="count_only")
    p.add_argument("--list", action="store_true", dest="list_paths")
    p.add_argument("--out", default="out")

    p = sub.add_parser("init-config", help="print the default example config")
    return parser


_COMMANDS = {
    "oracle": _cmd_oracle,
    "extract": _cmd_extract,
    "propagate": _cmd_propagate,
    "compare": _cmd_compare,
    "dyck": _cmd_dyck,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.command == "init-config":
        sys.stdout.write(default_config_text())
        return 0
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
