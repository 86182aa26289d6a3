"""Per-layer spans recorded from outside momentcp.

The tracer replaces the public functions that each layer's callers look up
at call time (``momentcp.objective.ttsv_batch``, ``momentcp.optimize.fg_implicit``,
``momentcp.cli.read_observations`` and so on) with wrappers that record a span
(name, start, end, parent) in memory.  Nothing under ``src/`` changes.  A
target that no longer exists is reported as missing, so a refactor that
moves a function costs that layer's figures, not the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _ttsv_shape(args, kwargs, out):
    obs, A, d = args[:3]
    return (obs.n, obs.p, A.shape[1], d)


def _run_counts(args, kwargs, out):
    return (out.n_fg, out.n_steps)


def _file_size(args, kwargs, out):
    return os.path.getsize(args[0])


# (span name, module, attribute, what to record from the call).  A function
# imported by name into several modules is wrapped in each, because each
# caller looks it up in its own module.
TARGETS = [
    ("io.read", "momentcp.io", "read_observations", _file_size),
    ("io.read", "momentcp.cli", "read_observations", _file_size),
    ("io.save", "momentcp.io", "SolutionRecord.save", None),
    ("implicit.data_norm_sq", "momentcp.cli", "data_norm_sq", None),
    ("implicit.ttsv_batch", "momentcp.objective", "ttsv_batch", _ttsv_shape),
    ("implicit.gram_cache", "momentcp.objective", "build_gram_cache", None),
    ("objective.fg", "momentcp.optimize", "fg_implicit", None),
    ("objective.sample", "momentcp.optimize", "sample_observations", None),
    ("optimize.multistart", "momentcp.optimize", "multistart", None),
    ("optimize.multistart", "momentcp.cli", "multistart", None),
    ("optimize.lbfgs", "momentcp.optimize", "lbfgs_minimize", _run_counts),
    ("optimize.lbfgs", "momentcp.cli", "lbfgs_minimize", _run_counts),
    ("optimize.adam", "momentcp.optimize", "adam_minimize", _run_counts),
    ("optimize.adam", "momentcp.cli", "adam_minimize", _run_counts),
    ("optimize.two_loop", "momentcp.optimize", "two_loop_direction", None),
    ("optimize.pack_unpack", "momentcp.optimize", "pack", None),
    ("optimize.pack_unpack", "momentcp.optimize", "unpack", None),
    ("optimize.pack_unpack", "momentcp.cli", "pack", None),
    ("gmm.rrf_init", "momentcp.gmm", "rrf_init", None),
    ("gmm.rrf_init", "momentcp.cli", "rrf_init", None),
]


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, recorded value]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name, fn, record=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if record is not None:
                span[4] = record(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for name, module, attr, record in TARGETS:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, fn, record))

    def span_cost_s(self, calls=20_000):
        """Median extra seconds one wrapped call costs, measured on a no-op."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)
        costs = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            probe.spans.clear()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return sorted(costs)[2]

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, t0, t1, parent, _ in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent}\n")

    def metrics(self):
        """Per-layer figures derived from the spans, keyed as in BENCHMARK.json."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_time = defaultdict(float)
        for (name, t0, t1, _, _), covered in zip(self.spans, child_time):
            self_time[name] += t1 - t0 - covered

        flops = bytes_moved = 0.0
        read_bytes = evals = steps = 0
        for name, _, _, _, value in self.spans:
            if name == "implicit.ttsv_batch":
                n, p, r, d = value
                # V'A and V P: 2npr each; power and weighting: (d - 1) p r
                flops += (4 * n + d - 1) * p * r
                # V read by both GEMMs, the p x r intermediate written and
                # read twice, A read and Y written
                bytes_moved += 8.0 * (2 * n * p + 4 * p * r + 2 * n * r)
            elif name == "io.read":
                read_bytes += value
            elif name in ("optimize.lbfgs", "optimize.adam") and value is not None:
                evals += value[0]
                steps += value[1]

        ttsv_s = total["implicit.ttsv_batch"]
        fg_calls = calls["objective.fg"]
        return {
            "io.read_s": total["io.read"],
            "io.read_mb_per_s": read_bytes / 1e6 / total["io.read"] if total["io.read"] else 0.0,
            "io.save_s": total["io.save"],
            "implicit.data_norm_sq_s": total["implicit.data_norm_sq"],
            "implicit.ttsv_batch_calls": calls["implicit.ttsv_batch"],
            "implicit.ttsv_batch_s": ttsv_s,
            "implicit.ttsv_batch_gflops": flops / 1e9 / ttsv_s if ttsv_s else 0.0,
            "implicit.ttsv_batch_gb_moved": bytes_moved / 1e9,
            "implicit.gram_cache_s": total["implicit.gram_cache"],
            "objective.fg_calls": fg_calls,
            "objective.fg_s": total["objective.fg"],
            "objective.fg_self_s": self_time["objective.fg"],
            "objective.eval_ms": 1e3 * total["objective.fg"] / fg_calls if fg_calls else 0.0,
            "objective.sample_s": total["objective.sample"],
            "optimize.evals": evals,
            "optimize.steps": steps,
            "optimize.evals_per_step": evals / steps if steps else 0.0,
            "optimize.lbfgs_self_s": self_time["optimize.lbfgs"],
            "optimize.two_loop_s": total["optimize.two_loop"],
            "optimize.pack_unpack_s": total["optimize.pack_unpack"],
            "optimize.adam_self_s": self_time["optimize.adam"],
            "gmm.rrf_init_s": total["gmm.rrf_init"],
            "trace.overhead_s": len(self.spans) * self.span_cost_s(),
        }
