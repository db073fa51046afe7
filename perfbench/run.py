"""Repo benchmark for ifkernels: run one workload and print its metrics.

    python3 perfbench/run.py --workload deep_extract --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  The metric names and units come
from ``BENCHMARK.json`` next to this directory; see ``perfbench/README.md``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("deep_extract", "param_scan", "long_propagate")
DEADLINE_S = 170  # a run must end within 180 s, worker processes included
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn_worker(args, work: str) -> dict:
    """Run worker.py in a fresh interpreter; return its result and set-up seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--work", work,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", trace_file(args)]
    spawned = time.monotonic()
    # A session of its own lets a timeout stop the worker's set-up probes too.
    with subprocess.Popen(cmd, env={**os.environ, **PINNED_ENV}, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"the run did not end within {DEADLINE_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def trace_file(args) -> str:
    return os.path.join(RUN_DIR, f"trace-{args.workload}-s{args.seed}.json")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ifkernels", "cli.py")):
        print(f"perfbench: no ifkernels sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    work = os.path.join(RUN_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        res = spawn_worker(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        section, values = "per_layer", res["layers"]
    else:
        section, values = "end_to_end", {
            "wall_s": res["wall_s"],
            "op_p50_s": res["op_p50_s"],
            "setup_s": statistics.median([res["setup_s"]] + res["setup_probes"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {res['rounds']} timed rounds of {res['work']}; "
          f"op_p50_s over {res['op_samples']} {res['op_name']} samples")
    print("  round walls (s): " + " ".join(f"{w:.3f}" for w in res["round_walls"]))
    print("  set-up times (s): " + " ".join(f"{t:.3f}" for t in [res["setup_s"]] + res["setup_probes"]))
    for err in res["errors"]:
        print(f"  check failed: {err}")
    if args.trace:
        print(f"  traced rounds: {res['traced_rounds']}; absent wrappers: {res['absent'] or 'none'}; "
              f"spans in {os.path.relpath(trace_file(args), ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_ratio':36s} {failed / attempted:>16.6g} ({failed} of {attempted} commands)")
    correct = failed == 0 and res["counts_repeat"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
