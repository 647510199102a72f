"""Layer tracing from outside the program.

``Tracer.installed()`` wraps each public layer function of ``claw`` in every
``claw.*`` module namespace that binds it, and restores the originals on
exit.  Each call records a span (name, start, end, parent, job id) in memory;
``pass_metrics`` derives per-layer self time and counts from the spans.  A
span's self time is its duration minus its children's durations and minus
the time the wrappers of its children spent on bookkeeping, so the wrappers'
own cost does not land on the layer above.  Flux and LCG calls are not
wrapped; they run inside the spans of their callers.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time

import numpy as np

# (metric prefix, module, function) of each wrapped layer
LAYERS = (
    ("cli.main", "claw.cli", "main"),
    ("config.parse_config", "claw.config", "parse_config"),
    ("config.build_initial", "claw.config", "build_initial"),
    ("experiments.run_experiment", "claw.experiments", "run_experiment"),
    ("experiments.emit_csv", "claw.experiments", "emit_csv"),
    ("scheme.sh_trajectory", "claw.scheme", "sh_trajectory"),
    ("viscous.viscous_trajectory", "claw.viscous", "viscous_trajectory"),
    ("viscous.heat_resample", "claw.viscous", "heat_resample"),
    ("measures.as_step_cdf", "claw.measures", "as_step_cdf"),
    ("wasserstein.quantile_staircase", "claw.wasserstein", "quantile_staircase"),
    ("wasserstein.wp_from_staircases", "claw.wasserstein", "wp_from_staircases"),
    ("wasserstein.w1_via_cdf", "claw.wasserstein", "w1_via_cdf"),
)

# the entropy layer is whichever claw.entropy function claw.experiments calls
ENTROPY_CANDIDATES = ("_residuals_for_levels", "entropy_residuals", "entropy_residual")

# every per-layer metric, in report order; see README.md for what each moves
PER_LAYER = (
    "config.build_initial.calls",
    "config.build_initial.self_s",
    "config.parse_config.self_s",
    "scheme.sh_trajectory.calls",
    "scheme.sh_trajectory.self_s",
    "scheme.steps",
    "measures.as_step_cdf.calls",
    "measures.as_step_cdf.self_s",
    "measures.as_step_cdf.breakpoints",
    "wasserstein.quantile_staircase.self_s",
    "wasserstein.wp_from_staircases.calls",
    "wasserstein.wp_from_staircases.self_s",
    "wasserstein.wp_from_staircases.pieces",
    "wasserstein.w1_via_cdf.self_s",
    "viscous.heat_resample.calls",
    "viscous.heat_resample.self_s",
    "viscous.heat_resample.particles",
    "viscous.heat_resample.span_over_sigma_max",
    "viscous.viscous_trajectory.self_s",
    "entropy.residuals.calls",
    "entropy.residuals.self_s",
    "entropy.residuals.levels",
    "experiments.run_experiment.self_s",
    "experiments.emit_csv.self_s",
    "experiments.csv_bytes",
    "cli.main.self_s",
    "trace.overhead_frac",
    "trace.coverage_frac",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_steps(args, kwargs, result, counts):
    # computed from the requested times and h, not counted inside the
    # program: the trajectory takes floor(t_last/h) steps plus one more for
    # the state the last sample interpolates toward
    from claw.scheme import decompose_time

    times = np.atleast_1d(np.asarray(_arg(args, kwargs, 3, "times"), dtype=float))
    if times.size:
        counts["scheme.steps"] += decompose_time(float(times[-1]), _arg(args, kwargs, 2, "h"))[0] + 1


def _count_breakpoints(args, kwargs, result, counts):
    counts["measures.as_step_cdf.breakpoints"] += result.breakpoints.size


def _count_pieces(args, kwargs, result, counts):
    lev_a = _arg(args, kwargs, 0, "stair_a")[0]
    lev_b = _arg(args, kwargs, 1, "stair_b")[0]
    counts["wasserstein.wp_from_staircases.pieces"] += np.union1d(lev_a, lev_b).size


def _count_resample(args, kwargs, result, counts):
    pq = _arg(args, kwargs, 0, "pq")
    sigma = float(_arg(args, kwargs, 1, "sigma"))
    pos = pq.positions
    counts["viscous.heat_resample.particles"] += pos.size
    key = "viscous.heat_resample.span_over_sigma_max"
    counts[key] = max(counts[key], float(pos[-1] - pos[0]) / sigma)


def _count_levels(args, kwargs, result, counts):
    counts["entropy.residuals.levels"] += int(np.size(args[2] if len(args) > 2 else 1))


# metrics the counters accumulate, reset at each pass
COUNTED = (
    "scheme.steps",
    "measures.as_step_cdf.breakpoints",
    "wasserstein.wp_from_staircases.pieces",
    "viscous.heat_resample.particles",
    "viscous.heat_resample.span_over_sigma_max",
    "entropy.residuals.levels",
)

COUNTERS = {
    "scheme.sh_trajectory": _count_steps,
    "measures.as_step_cdf": _count_breakpoints,
    "wasserstein.wp_from_staircases": _count_pieces,
    "viscous.heat_resample": _count_resample,
    "entropy.residuals": _count_levels,
}


def _layer_functions():
    """(prefix, original function) of every layer the program has."""
    out = []
    for prefix, module, name in LAYERS:
        out.append((prefix, getattr(importlib.import_module(module), name)))
    experiments = importlib.import_module("claw.experiments")
    for name in ENTROPY_CANDIDATES:
        fn = getattr(experiments, name, None)
        if fn is not None and getattr(fn, "__module__", "") == "claw.entropy":
            out.append(("entropy.residuals", fn))
    return out


class Tracer:
    """In-memory span recorder; ``installed()`` scopes the wrappers."""

    def __init__(self):
        self.spans = []  # [prefix, start, end, parent, job, bookkeeping_s]
        self.job = None  # set by the caller before each job
        self.pass_no = 0
        self.counts = dict.fromkeys(COUNTED, 0)
        self._first = 0
        self._stack = []

    def _wrap(self, prefix, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(prefix)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [prefix, 0.0, 0.0, parent, self.job, 0.0]
            spans.append(rec)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[1], rec[2] = start, end
            if counter is not None:
                counter(args, kwargs, result, self.counts)
            if parent >= 0:
                spans[parent][5] += (start - enter) + (clock() - end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of each layer function; restore on exit."""
        wrappers = {id(fn): (fn, self._wrap(prefix, fn)) for prefix, fn in _layer_functions()}
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "claw" or mod_name.startswith("claw.")):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and value is entry[0]:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def begin_pass(self):
        """Start a pass: later spans and counts belong to it."""
        self.pass_no += 1
        self._first = len(self.spans)
        self.counts = dict.fromkeys(COUNTED, 0)

    def pass_metrics(self, wall_s: float, csv_bytes: int) -> dict:
        """Per-layer metrics of the spans recorded since ``begin_pass()``."""
        spans = self.spans[self._first :]
        self_s, calls = {}, {}
        child_s = [0.0] * len(spans)
        for prefix, start, end, parent, _job, _book in spans:
            if parent >= 0:
                child_s[parent - self._first] += end - start
        top = 0.0
        for i, (prefix, start, end, parent, _job, book) in enumerate(spans):
            self_s[prefix] = self_s.get(prefix, 0.0) + (end - start) - child_s[i] - book
            calls[prefix] = calls.get(prefix, 0) + 1
            if parent < 0:
                top += end - start
        out = {}
        for name in PER_LAYER:
            layer, _, metric = name.rpartition(".")
            if name in self.counts:
                out[name] = self.counts[name]
            elif metric == "calls":
                out[name] = calls.get(layer, 0)
            elif metric == "self_s":
                out[name] = self_s.get(layer, 0.0)
        out["experiments.csv_bytes"] = csv_bytes
        out["trace.coverage_frac"] = top / wall_s
        return out

    def dump(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for prefix, start, end, parent, job, _book in self.spans:
                fh.write(json.dumps([prefix, start, end, parent, job]) + "\n")
