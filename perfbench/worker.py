"""One benchmark process: set-up, timed rounds of CLI commands, checks, trace.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to one
thread, so ``ru_maxrss`` and per-process caches start cold, as they do for a
CLI user.  The program is imported from ``<root>/src`` and driven in-process
through ``ifkernels.cli.cli_main``.  The last line of standard output is a
JSON object that ``run.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from checks import CheckError, check_asym_closed_form, check_csv, check_trajectory, read_kernel_file

EXPECTED_FILES = {
    "extract": {"kernels.txt", "kernel_norms.csv"},
    "propagate": {"trajectory.csv"},
    "compare": {"comparison.csv", "comparison_summary.csv"},
}
MIN_ROUNDS = 2  # a repeated command is needed for the byte-identity check


def import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ifkernels.cli

    if os.path.commonpath([os.path.abspath(ifkernels.cli.__file__), src]) != src:
        raise SystemExit(f"ifkernels was imported from outside {src}")
    return ifkernels.cli.cli_main


def run_command(cli_main, argv):
    """Run one CLI command in-process; returns (exit code, seconds, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except Exception:  # an uncaught program error is a failed command, not a crashed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, err.getvalue()


class Checker:
    """Checks each command's artifacts; repeats of a command must be byte-identical."""

    def __init__(self):
        self.digests = {}  # command tag -> {file name: sha256}
        self.verdicts = {}  # command tag -> error text of the first check, or None
        self.references = {}

    def check(self, cmd, out_dir: str) -> int:
        """Raise CheckError if the artifacts are wrong; return their total size."""
        files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
        missing = EXPECTED_FILES[cmd.kind] - set(files)
        if missing:
            raise CheckError(f"{cmd.tag}: missing {sorted(missing)}")
        digests, size = {}, 0
        for name in files:
            with open(os.path.join(out_dir, name), "rb") as fh:
                data = fh.read()
            digests[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
        first = self.digests.setdefault(cmd.tag, digests)
        if first != digests:
            raise CheckError(f"{cmd.tag}: artifacts differ from the first run of the command")
        if cmd.tag not in self.verdicts:
            try:
                self._check_content(cmd, out_dir, files)
                self.verdicts[cmd.tag] = None
            except (CheckError, OSError, ValueError, KeyError) as exc:
                self.verdicts[cmd.tag] = f"{cmd.tag}: {exc}"
        if self.verdicts[cmd.tag]:
            raise CheckError(self.verdicts[cmd.tag])
        return size

    def _check_content(self, cmd, out_dir, files):
        for name in files:
            path = os.path.join(out_dir, name)
            if name == "kernels.txt":
                kfile = read_kernel_file(path)
                if cmd.splitting == "asym":
                    check_asym_closed_form(kfile, self._closed_form(cmd.physics))
            elif name == "trajectory.csv":
                check_trajectory(path)
            else:
                check_csv(path)

    def _closed_form(self, phys):
        """asym T_1, T_2 from kernels.closed_form_asym for this physics."""
        key = (phys.hamiltonian, phys.alpha, phys.beta)
        if key not in self.references:
            import numpy as np
            from ifkernels.bath import BathSpec, SpectralDensity, eta_table
            from ifkernels.kernels import closed_form_asym
            from ifkernels.liouville import SystemSpec, TimeGrid

            system = SystemSpec(np.array(phys.hamiltonian, dtype=complex),
                                tuple(float(c) for c in workloads.COUPLING.split()))
            bath = BathSpec(SpectralDensity("ohmic_exponential", phys.alpha, workloads.OMEGA_C),
                            phys.beta)
            table = eta_table(bath, TimeGrid(workloads.DT, 2, 2), "asym")
            self.references[key] = tuple(closed_form_asym(system, table, k) for k in (1, 2))
        return self.references[key]


def probe_setup(args, work: str) -> float:
    """Seconds from starting a set-up-only copy of this worker to its set-up end."""
    cmd = [sys.executable, os.path.abspath(__file__), "--root", args.root, "--work", work,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    spawned = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=60).stdout
    shutil.rmtree(work, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])["setup_end"] - spawned


def run_round(wl, cli_main, rdir, tracer=None):
    """Run the round's commands back to back; returns (wall seconds, results)."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for cmd in wl.commands:
            if tracer is not None:
                tracer.op = cmd.op
                idx = tracer.open(f"cli.{cmd.kind}")
            code, seconds, err = run_command(cli_main, cmd.resolved(rdir))
            if tracer is not None:
                tracer.close(idx)
            results.append((cmd, code, seconds, err))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, results


def env_record(root: str) -> dict:
    import numpy as np

    def git_sha():
        head = os.path.join(root, ".git", "HEAD")
        try:
            with open(head, encoding="utf-8") as fh:
                ref = fh.read().strip()
            if not ref.startswith("ref: "):
                return ref
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli_main = import_program(args.root)
    wl = workloads.build(args.workload, args.seed, args.work)
    setup_results = [(cmd, *run_command(cli_main, cmd.resolved(""))) for cmd in wl.setup]
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    checker = Checker()
    for cmd, code, _, err in setup_results:
        if code != 0:
            raise SystemExit(f"set-up command {cmd.tag} exited {code}: {err}")
        checker.check(cmd, cmd.out_dir(""))

    tracer = None
    if args.trace:
        import spans  # only traced runs pay for importing the tracer

        tracer = spans.Tracer()
    min_rounds = 2 * MIN_ROUNDS if tracer else MIN_ROUNDS
    rounds, errors = [], []
    attempted = failed = 0
    peak_rss_mb = None
    setup_probes = []
    start = time.perf_counter()
    last = 0.0
    while len(rounds) < min_rounds or time.perf_counter() - start + last <= args.seconds:
        round_start = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        rdir = os.path.join(args.work, f"round{len(rounds)}")
        wall, results = run_round(wl, cli_main, rdir, tracer if traced else None)
        ops, bytes_written = {}, 0
        for cmd, code, seconds, err in results:
            attempted += 1
            if cmd.op is not None:
                ops[cmd.op] = ops.get(cmd.op, 0.0) + seconds
            try:
                if code != 0:
                    raise CheckError(f"{cmd.tag}: exit code {code}: {err.strip()[-500:]}")
                bytes_written += checker.check(cmd, cmd.out_dir(rdir))
            except CheckError as exc:
                failed += 1
                errors.append(str(exc))
                if traced and code != 0:
                    tracer.counts["cli.errors"] += 1
        rnd = {"traced": traced, "wall": wall, "ops": list(ops.values())}
        if traced:
            tracer.counts["cli.bytes_written"] += bytes_written
            rnd.update(summary=tracer.summary(), counts=tracer.counts)
            if not any(r["traced"] for r in rounds):
                rnd["spans"] = tracer.spans
        rounds.append(rnd)
        shutil.rmtree(rdir, ignore_errors=True)
        if tracer is None:
            # Set-up times are sampled between rounds, so that they spread over
            # the run like the rounds do instead of bunching at its start.
            setup_probes.append(probe_setup(args, os.path.join(args.work, f"probe{len(rounds)}")))
        if peak_rss_mb is None and len(rounds) == MIN_ROUNDS:
            # ru_maxrss creeps up over further rounds; a fixed number keeps it comparable
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = time.perf_counter() - round_start

    plain = [r for r in rounds if not r["traced"]]
    ops = [t for r in plain for t in r["ops"]]
    result = {
        "setup_end": setup_end,
        "setup_probes": setup_probes,
        "rounds": len(plain),
        "work": wl.work,
        "op_name": wl.op_name,
        "wall_s": statistics.median(r["wall"] for r in plain),
        "op_p50_s": statistics.median(ops),
        "op_samples": len(ops),
        "round_walls": [r["wall"] for r in plain],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "counts_repeat": True,
        "env": env_record(args.root),
    }
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        reference = spans.exact_counts(traced[0])
        if any(spans.exact_counts(r) != reference for r in traced[1:]):
            result["errors"].append("traced rounds gave different exact counts")
            result["counts_repeat"] = False
        result["layers"] = spans.layer_metrics(traced, [r["wall"] for r in plain], tracer.absent)
        result["traced_rounds"] = len(traced)
        result["absent"] = tracer.absent
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({
                "env": result["env"],
                "absent": tracer.absent,
                "rounds": [{"summary": r["summary"], "counts": r["counts"], "wall_s": r["wall"]}
                           for r in traced],
                "span_fields": ["name", "parent", "op", "start", "end", "children"],
                "spans": traced[0]["spans"],
            }, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
