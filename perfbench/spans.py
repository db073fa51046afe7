"""In-memory spans and exact counters around the public functions of each layer.

The tracer replaces module attributes (``ifkernels.cli.eta_table`` and so
on) with timing wrappers for the length of a traced round, then puts the
originals back.  Nothing under ``src/`` is edited.  A function that no
longer exists is recorded in ``absent`` instead of failing the run, so the
benchmark keeps working while later changes rename or remove functions.

Spans live in a list and are aggregated when the round ends.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans of a round add up to the traced round's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import Counter

LAYERS = ("cli", "config", "bath", "pathsum", "kernels", "kernel_io", "liouville")
COUNTERS = (
    "pathsum.configs", "pathsum.configs_summed", "bath.correlation_points",
    "kernels.propagate.steps", "kernels.propagate.matmuls", "kernel_io.save.bytes",
    "kernel_io.load.bytes", "cli.bytes_written", "trace.hook_errors",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def config_count(n: int, steps: int) -> int:
    """Interior path configurations summed for an N-step map: n^(2 (N-1))."""
    return 1 if steps <= 1 else (n * n) ** (steps - 1)


def distinct_configs(n: int, splitting: str, steps: int) -> int:
    """Configurations of the distinct maps a trajectory of ``steps`` needs.

    sym_env needs U_1..U_N and aux_0..aux_N, sym_sys only aux_0..aux_N
    (U_k = G aux_{k-1} G), asym only U_1..U_N (aux_k = U_k, aux_0 = 1).
    """
    full = sum(config_count(n, k) for k in range(1, steps + 1))
    aux = sum(config_count(n, k) for k in range(0, steps + 1))
    return {"sym_env": full + aux, "sym_sys": aux, "asym": full}[splitting]


def recurrence_matmuls(kernels, horizon, seed, aux_seed) -> int:
    """d x d products of the truncated kernel recurrence past the seeded maps."""
    r = kernels.r_max
    terminal = 1 if kernels.aux_zero_convention == "terminal_times_I0" else 0

    def conv(first, last):
        return sum(min(k - 1, r) + (terminal if k <= r else 0) for k in range(first, last + 1))

    seeded = len(seed.maps) if seed is not None else 0
    if kernels.flavor == "ttm":
        return sum(min(n - 1, r) for n in range(seeded + 1, horizon + 1))
    aux_seeded = len(aux_seed.maps) if aux_seed is not None else 0
    if kernels.splitting == "sym_sys":
        return conv(aux_seeded + 1, horizon - 1) + 2 * max(horizon - seeded, 0)
    return conv(aux_seeded + 1, horizon) + conv(seeded + 1, horizon)


def _file_bytes(key):
    def hook(tracer, args, result, leaf):
        tracer.counts[key] += os.path.getsize(args["path"])
    return hook


def _leaf_configs(tracer, args, result, leaf):
    # sym_sys rdm_exact delegates its path sum to a nested aux_rdm_exact call;
    # counting leaf calls only counts each summed configuration once.
    if leaf:
        req = args["req"]
        tracer.counts["pathsum.configs_summed"] += config_count(req.sys.n, req.steps)


def _trajectory_configs(tracer, args, result, leaf):
    tracer.counts["pathsum.configs"] += distinct_configs(
        args["sys"].n, args["splitting"], args["steps"])


def _propagate_work(tracer, args, result, leaf):
    tracer.counts["kernels.propagate.steps"] += args["horizon"]
    tracer.counts["kernels.propagate.matmuls"] += recurrence_matmuls(
        args["kernels"], args["horizon"], args.get("seed"), args.get("aux_seed"))


def _correlation_points(tracer, args, result, leaf):
    tracer.counts["bath.correlation_points"] += int(getattr(result, "size", 1))


# (module, attribute, span name, hook).  Attributes are the names the CLI and
# the layers resolve at call time, so patching them intercepts the real calls.
WRAPS = (
    ("ifkernels.cli", "load_config", "config.load_config", None),
    ("ifkernels.cli", "eta_table", "bath.eta_table", None),
    ("ifkernels.bath", "bath_correlation", "bath.bath_correlation", _correlation_points),
    ("ifkernels.cli", "extract_kernels", "kernels.extract_kernels", None),
    ("ifkernels.pathsum", "oracle_trajectory", "pathsum.oracle_trajectory", _trajectory_configs),
    ("ifkernels.cli", "oracle_trajectory", "pathsum.oracle_trajectory", _trajectory_configs),
    ("ifkernels.pathsum", "rdm_exact", "pathsum.rdm_exact", _leaf_configs),
    ("ifkernels.pathsum", "aux_rdm_exact", "pathsum.aux_rdm_exact", _leaf_configs),
    ("ifkernels.kernels", "solve_midpoint", "kernels.solve", None),
    ("ifkernels.kernels", "solve_termination", "kernels.solve", None),
    ("ifkernels.kernels", "extract_ttm", "kernels.solve", None),
    ("ifkernels.cli", "gqme_kernel", "kernels.gqme_kernel", None),
    ("ifkernels.cli", "propagate", "kernels.propagate", _propagate_work),
    ("ifkernels.cli", "compare", "kernels.compare", None),
    ("ifkernels.cli", "save_kernels", "kernel_io.save", _file_bytes("kernel_io.save.bytes")),
    ("ifkernels.cli", "load_kernels", "kernel_io.load", _file_bytes("kernel_io.load.bytes")),
    ("ifkernels.cli", "apply_map", "liouville.apply_map", None),
)


class Tracer:
    """Spans and counters of one traced round at a time."""

    def __init__(self):
        self.spans = []  # [name, parent index, op, start, end, child count]
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.absent = []
        self._patches = []
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original, self._wrap(original, name, hook)))

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0:
            self.spans[parent][5] += 1
        self.spans.append([name, parent, self.op, time.perf_counter(), 0.0, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, original, name, hook):
        tracer = self
        layer = name.split(".", 1)[0]
        signature = inspect.signature(original) if hook else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{layer}.errors"] += 1
                raise
            finally:
                tracer.close(idx)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, bound.arguments, result, tracer.spans[idx][5] == 0)
                except Exception:  # a changed signature must not break the program run
                    tracer.counts["trace.hook_errors"] += 1
            return result

        return wrapper

    def install(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, _, _, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out


def exact_counts(rnd) -> dict:
    """Counters and call numbers of a traced round; equal in every traced round."""
    calls = {f"{name}.calls": row["calls"] for name, row in rnd["summary"].items()}
    return {**rnd["counts"], **calls}


def layer_metrics(traced, untraced_walls, absent) -> dict:
    """Per-layer metrics: exact counts from one traced round, medians of times."""

    def median(f):
        return statistics.median(f(r["summary"]) for r in traced)

    def layer_self(summary, layer):
        return sum(row["self_s"] for name, row in summary.items() if name.split(".", 1)[0] == layer)

    counts = exact_counts(traced[0])
    out = {key: counts.get(key, 0) for key in COUNTERS}
    for name in {name for _, _, name, _ in WRAPS}:
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        out[f"{name}.busy_s"] = median(lambda s: s.get(name, {}).get("busy_s", 0.0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = median(lambda s: layer_self(s, layer))
    summed = out["pathsum.configs_summed"]
    out["pathsum.useful_ratio"] = out["pathsum.configs"] / summed if summed else 0.0
    out["pathsum.configs_per_s"] = median(lambda s: summed / max(layer_self(s, "pathsum"), 1e-12))
    out["trace.wall_s"] = statistics.median(r["wall"] for r in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced_walls)
    out["trace.absent"] = len(absent)
    return out
