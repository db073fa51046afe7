"""Batch command-line interface.

Subcommands: ``oracle``, ``extract``, ``propagate``, ``compare``, ``dyck``.
Everything is file-driven and non-interactive; identical configs produce
byte-identical outputs.  ``propagate`` needs no influence coefficients or
path sums: the kernel file carries the whole recurrence (a sym_sys smatpi
file its half step too), and the config adds only the grid and the initial
state.  Exit codes: 0 success, 1 validation error (a non-UTF-8 config or
kernel file is ``error: parse: ...``) or a file that cannot be read or
written (``error: io: ...``), 2 numerical error (path-sum budget, checked
before the eta table is built; a non-finite computed result such as eta
coefficients, influence factors or a path sum as ``error: non_finite:
...``; a diverging propagation) or a failed allocation (``error: memory:
...``).  The argument parser is built once per process, on the first ``cli_main``
call, not at import; every call parses into a fresh namespace, so one
process can run many commands.

CSV conventions: every file has one header row; floats are printed with 17
significant digits (lossless double round trip); complex-valued tables carry
separate ``re_*`` / ``im_*`` columns; density-matrix and map elements are
ordered row-major in the flat forward-backward index.

Every command runs its checks before it makes a directory; then one
function, ``_write_outputs``, makes ``--out``, writes the command's files
and prints their paths once all are written.  If anything fails on the way,
it removes every file it started and every directory it made (a directory
that was there stays), so a non-zero exit leaves no partial output and
prints no path.  The console script (``main``) turns SIGTERM into the same
unwind and exits 143; ``cli_main`` leaves signal handling to its caller.

``propagate`` runs the kernel recurrence on vec(rho_0) itself, one chunk
of ``kernels.CHUNK`` steps at a time, while it writes (with
``--with-maps``, a second engine pass on the identity gives the map
columns, and rho is the same with or without them).
``csvtext.format_rows`` regroups the rows of these chunks (or of
``oracle``'s few path-sum maps) into slices and yields the text of one
slice at a time, so memory does not grow with the number of steps.
The text is an exact vectorised ``%.17g`` that prints an element by its
own ``%`` call wherever it cannot prove the rounding; ``csvtext`` is
imported only by the commands that write these files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import signal
import sys

import numpy as np

from .bath import SPLITTINGS, eta_table
from .combinatorics import catalan, enumerate_dyck
from .config import default_config_text, load_config
from .errors import NumericalError, ValidationError
from .kernel_io import load_kernels, save_kernels
from .kernels import FLAVORS, compare, extract_kernels, gqme_kernel, propagate_blocks
from .liouville import TimeGrid, liou_norms
from .pathsum import check_budget, oracle_trajectory


def _cell(x) -> str:
    """A number as text: 17 significant digits (an integer prints as %d), empty for None."""
    return "" if x is None else format(float(x), ".17g")


def _write_outputs(out, files) -> int:
    """Write every output file of a command under ``out``, then print their paths.

    ``files`` is a list of ``(name, write)`` pairs; ``write(path)`` writes
    one file.  The directories of ``out`` that do not exist yet are made
    first.  If anything fails on the way (a writer, the producer of its
    rows, printing the paths, Ctrl-C), every file started and every
    directory made is removed; a directory that was there stays.
    """
    made = []
    new_dir = os.path.abspath(out)
    while not os.path.exists(new_dir):
        made.append(new_dir)
        new_dir = os.path.dirname(new_dir)
    paths = []
    try:
        os.makedirs(out, exist_ok=True)
        for name, write in files:
            paths.append(os.path.join(out, name))
            write(paths[-1])
        for path in paths:
            print(path)
    except BaseException as exc:
        for path in paths:
            # an error that names the path comes from opening it: a file that
            # could not be opened (say, someone's read-only file) is not ours
            if getattr(exc, "filename", None) != path:
                with contextlib.suppress(OSError):
                    os.remove(path)
        for new_dir in made:  # deepest first
            with contextlib.suppress(OSError):
                os.rmdir(new_dir)
        raise
    return 0


def _write_csv(path, header, chunks):
    """Write the header row and then each chunk of bytes to ``path``."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for chunk in chunks:
            fh.write(chunk)


def _table(header, rows):
    """``write(path)`` of a small CSV: the header row, then rows of string cells.

    ``rows`` is any iterable, read while the file is written and encoded
    4096 rows at a time, so a long table is never held whole.
    """

    def chunks():
        pending = iter(rows)
        while batch := list(itertools.islice(pending, 4096)):
            yield "".join(",".join(row) + "\n" for row in batch).encode()

    return lambda path: _write_csv(path, header, chunks())


def _block_rows(dt, blocks):
    """One (rows, columns) float array per block: step, t, then re/im of each stack."""
    done = 0
    for block in blocks:
        cols = [np.ascontiguousarray(s, dtype=complex).reshape(len(s), -1).view(float)
                for s in block]
        step = np.arange(done, done + len(cols[0]), dtype=float)
        yield np.column_stack([step, step * dt] + cols)
        done += len(step)


def _write_steps_csv(path, dt, prefixes, blocks):
    """Rows ``step, t = step * dt`` and the re/im entries of each table.

    ``blocks`` is an iterable of tuples with one stack per prefix; a stack
    holds one (m, m) complex matrix per step, the blocks run over steps
    0, 1, ... in order, and each prefix adds the columns re_<prefix>_i_j,
    im_<prefix>_i_j, row-major.  ``csvtext.format_rows`` turns the rows
    into text one slice at a time (every float as ``format(x, ".17g")``,
    so the integer steps print as ``%d``), and each slice is written at
    once.
    """
    from .csvtext import format_rows

    blocks = iter(blocks)
    first = next(blocks)
    header = ["step", "t"]
    for prefix, stack in zip(prefixes, first):
        m = stack.shape[-1]
        header += [f"{part}_{prefix}_{i}_{j}" for i in range(m) for j in range(m)
                   for part in ("re", "im")]
    _write_csv(path, header, format_rows(_block_rows(dt, itertools.chain([first], blocks))))


def _checked_table(cfg, option, steps, splitting):
    """(steps, eta table) for ``steps`` (grid.r_max if None) path-sum steps, checked first
    against the range that ``option`` names and against the path-sum budget."""
    steps = cfg.grid.r_max if steps is None else steps
    if not 1 <= steps <= cfg.grid.n_steps:
        raise ValidationError(f"{option}: {steps} is outside 1..grid.n_steps = {cfg.grid.n_steps}")
    check_budget(cfg.system.n, steps, cfg.pathsum_budget)  # before the O(steps) table
    return steps, eta_table(cfg.bath, TimeGrid(cfg.grid.dt, steps, steps), splitting)


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    steps, table = _checked_table(cfg, "--steps", args.steps, cfg.splitting)
    full, _, _ = oracle_trajectory(cfg.system, table, steps, budget=cfg.pathsum_budget)
    maps = [(np.eye(full.shape[-1], dtype=complex)[None],), (full,)]  # U_0, then U_1..
    return _write_outputs(args.out, [
        ("oracle_maps.csv", lambda path: _write_steps_csv(path, cfg.grid.dt, ("u",), maps)),
    ])


def _cmd_extract(args) -> int:
    cfg = load_config(args.config)
    r_max, table = _checked_table(cfg, "--rmax", args.rmax, args.splitting or cfg.splitting)
    kset, _, _ = extract_kernels(cfg.system, table, r_max, args.flavor or cfg.flavor,
                                 budget=cfg.pathsum_budget)
    metadata = {
        "system.n": str(cfg.system.n),
        "bath.kind": cfg.bath.spectral_density.kind,
        "bath.alpha": _cell(cfg.bath.spectral_density.alpha),
        "bath.omega_c": _cell(cfg.bath.spectral_density.omega_c),
        "bath.beta": _cell(cfg.bath.beta),
        "pathsum_budget": str(cfg.pathsum_budget),
    }
    norms = itertools.zip_longest(range(1, kset.r_max + 1), liou_norms(kset.midpoint),
                                  liou_norms(kset.termination))
    files = [
        ("kernels.txt", lambda path: save_kernels(kset, path, metadata=metadata)),
        ("kernel_norms.csv", _table(["k", "norm_M", "norm_T"], ([_cell(x) for x in row]
                                                                 for row in norms))),
    ]
    if kset.flavor == "ttm" and kset.r_max >= 2:
        gqme = liou_norms(gqme_kernel(kset.midpoint, kset.dt))
        rows = ([str(k), _cell(v), "same_formula_unverified" if k == 1 else ""]
                for k, v in enumerate(gqme, start=1))
        files.append(("gqme_kernel_norms.csv", _table(["k", "norm_K", "note"], rows)))
    return _write_outputs(args.out, files)


def _cmd_propagate(args) -> int:
    cfg = load_config(args.config)
    kset = load_kernels(args.kernels)
    if kset.dt != cfg.grid.dt:
        raise ValidationError(
            f"dt_mismatch: kernel file dt {kset.dt} differs from config dt {cfg.grid.dt}")
    if kset.dim != cfg.system.dim:
        raise ValidationError(
            "dim_mismatch: kernel file dimension differs from configured system")

    rho0 = cfg.initial_state
    # rho_n from its own pass on vec(rho_0), so its bytes do not depend on
    # --with-maps; the maps are a second pass, on the identity
    starts = [rho0[None]]  # step 0
    passes = [propagate_blocks(kset, cfg.grid.n_steps, right=rho0.reshape(-1, 1))]
    if args.with_maps:
        starts.append(np.eye(kset.dim, dtype=complex)[None])
        passes.append(propagate_blocks(kset, cfg.grid.n_steps))

    def tables():
        yield starts
        for rho, *maps in zip(*passes):
            yield (rho.reshape((-1,) + rho0.shape), *maps)

    prefixes = ("rho", "u") if args.with_maps else ("rho",)
    return _write_outputs(args.out, [
        ("trajectory.csv", lambda path: _write_steps_csv(path, cfg.grid.dt, prefixes, tables())),
    ])


def _cmd_compare(args) -> int:
    set_a = load_kernels(args.kernels_a)
    set_b = load_kernels(args.kernels_b)
    rows, first_a, first_b = compare(set_a, set_b, threshold=args.threshold)
    summary = [["a", _cell(first_a), _cell(args.threshold)],
               ["b", _cell(first_b), _cell(args.threshold)]]
    return _write_outputs(args.out, [
        ("comparison.csv", _table(
            ["k", "norm_a_mid", "norm_a_term", "norm_b_mid", "norm_b_term", "diff_mid"],
            ([_cell(x) for x in row] for row in rows))),
        ("comparison_summary.csv", _table(
            ["set", "first_k_below_threshold", "threshold"], summary)),
    ])


def _cmd_dyck(args) -> int:
    m = args.semilength
    count = catalan(m)  # the range check, before any output
    if args.count_only:
        print(f"{m},{count}")
        return 0
    counts = [[str(mm), str(catalan(mm))] for mm in range(m + 1)]
    files = [("dyck_counts.csv", _table(["semilength", "count"], counts))]
    if args.list_paths:
        step = {1: "+1", -1: "-1"}.__getitem__
        rows = ([str(i), " ".join(map(step, p))] for i, p in enumerate(enumerate_dyck(m)))
        files.append(("dyck_paths.csv", _table(["index", "steps"], rows)))
    return _write_outputs(args.out, files)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first ``cli_main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="ifkernels",
        description="Discretized influence-functional path integrals and memory kernels.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("oracle", help="run the path-sum oracle and write map CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("extract", help="extract a kernel set and write it to disk")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--flavor", choices=FLAVORS, default=None)
    p.add_argument("--splitting", choices=SPLITTINGS, default=None)
    p.add_argument("--rmax", type=int, default=None)

    p = sub.add_parser("propagate", help="iterate a stored kernel set to long times")
    p.add_argument("--config", required=True)
    p.add_argument("--kernels", required=True)
    p.add_argument("--out", default="out")
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
        if args.out == "":  # before any work, not as an io: error after it
            raise ValidationError("--out: must not be empty")
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def _terminate(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # one unwind, not a second mid-cleanup
    raise SystemExit(128 + signum)


def main() -> None:
    signal.signal(signal.SIGTERM, _terminate)  # ``timeout``, a job scheduler: exit 143
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
