"""Per-layer spans and counters recorded from outside the library.

`Tracer.install` replaces every public function of each spherediff module
with a wrapper, in every module namespace that binds it (`lossmap` and
`noise` import `chart` functions by name).  A wrapper records a span
(name, start, end, parent) in memory; `indexing` functions are only counted,
because they are called tens of thousands of times per build.  The stepper
and score closures that `sde` factories return are wrapped too, as spans
named `sde.step` and `sde.score`.  Functions the metrics below depend on
but that the package no longer defines are listed in `Tracer.absent`.

`layer_metrics` turns one iteration's spans and counters into the
per-layer metrics named in BENCHMARK.json.  A `*_s` metric named after
functions is the time inside those spans (nested calls counted once);
`<module>.self_s` is the self time of all spans of that module, so the
module self times, `cli.self_s` and `trace.unaccounted_s` add up to the
traced run time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter

UNTRACED_MODULES = {"cli"}      # covered by the per-command root spans
COUNT_ONLY_MODULES = {"indexing"}
STEP_FACTORIES = {
    "sde.spatial_forward_stepper", "sde.frequency_forward_stepper",
    "sde.spatial_reverse_stepper", "sde.frequency_reverse_stepper",
}
SCORE_FACTORIES = {"sde.gaussian_chart_score", "sde.gaussian_spatial_score"}
STEP_FUNCTIONS = {
    "sde.forward_step_spatial", "sde.forward_step_frequency",
    "sde.reverse_step_spatial", "sde.reverse_step_frequency",
}
COMMANDS = ("verify_operators", "covariance", "diffuse", "bound_check", "sliced_w")
MODULES = ("grid", "harmonics", "transform", "chart", "noise", "sde", "lossmap", "metrics")

# metric -> span names whose time it sums (outermost spans of the set only)
TIME_METRICS = {
    "sde.score_s": {"sde.score"},
    "harmonics.legendre_table_s": {"harmonics.norm_legendre_table"},
    "grid.build_s": {"grid.build_grid"},
    "transform.build_operators_s": {"transform.build_operators"},
    "transform.apply_s": {"transform.analysis", "transform.synthesis",
                          "transform.project_bandlimited", "transform.q_inner",
                          "transform.q_norm_sq"},
    "chart.matrix_s": {"chart.chart_linear_map", "chart.synthesis_matrix"},
    "chart.pointwise_s": {"chart.to_chart", "chart.from_chart", "chart.chart_weights"},
    "noise.blocks_s": {"noise.covariance_blocks"},
    "noise.sigma_s": {"noise.build_sigma"},
    "noise.factor_s": {"noise.factor_sigma"},
    "noise.save_s": {"noise.save_samples"},
    "noise.load_s": {"noise.load_samples"},
    "noise.sigma_csv_s": {"noise.sigma_to_csv"},
    "noise.empirical_cov_s": {"noise.empirical_covariance"},
    "lossmap.build_bound_operators_s": {"lossmap.build_bound_operators"},
    "lossmap.bound_check_s": {"lossmap.check_theorem2_bound"},
    "metrics.sliced_w_s": {"metrics.sliced_wasserstein"},
    **{f"cli.{c}_s": {f"cli.{c}"} for c in COMMANDS},
}
# metric -> span names whose self time it sums
SELF_METRICS = {
    "sde.step_s": {"sde.step"} | STEP_FUNCTIONS,
    "sde.integrate_self_s": {"sde.integrate"},
}
# metric -> span names it counts
CALL_METRICS = {
    "sde.step_calls": {"sde.step"},
    "sde.score_calls": {"sde.score"},
    "transform.apply_calls": TIME_METRICS["transform.apply_s"],
    "chart.pointwise_calls": TIME_METRICS["chart.pointwise_s"],
    "lossmap.build_bound_operators_calls": {"lossmap.build_bound_operators"},
    "metrics.w1d_calls": {"metrics.wasserstein_1d"},
}
COUNTER_METRICS = (
    "sde.path_steps", "sde.aborted_paths", "indexing.calls", "lossmap.bound_trials",
    "noise.bytes_written", "noise.bytes_read",
)
MIB_METRICS = {"transform.operator_mib": "transform.operator_bytes",
               "lossmap.operator_mib": "lossmap.operator_bytes"}
TRACE_METRICS = ("trace.run_s", "trace.overhead_s", "trace.unaccounted_s", "trace.spans")

LAYER_METRICS = (
    list(TIME_METRICS) + list(SELF_METRICS) + list(CALL_METRICS) + list(COUNTER_METRICS)
    + list(MIB_METRICS) + [f"{m}.self_s" for m in MODULES] + ["cli.self_s"]
    + list(TRACE_METRICS)
)


def _hook_integrate(counters, args, result):
    counters["sde.path_steps"] += args["state"].values.shape[0] * args["schedule"].steps
    counters["sde.aborted_paths"] += len(result[1])


def _hook_bound(counters, args, result):
    counters["lossmap.bound_trials"] += int(args["n_trials"])


def _nbytes(counter, fields):
    def hook(counters, args, result):
        counters[counter] += sum(getattr(result, f).nbytes for f in fields)
    return hook


def _io_bytes(counter):
    """Counts the bytes of a sample file and its `.json` sidecar."""
    def hook(counters, args, result):
        path = os.fspath(args["path"])
        counters[counter] += sum(os.path.getsize(p) for p in (path, path + ".json")
                                 if os.path.exists(p))
    return hook


HOOKS = {
    "sde.integrate": _hook_integrate,
    "lossmap.check_theorem2_bound": _hook_bound,
    "transform.build_operators": _nbytes("transform.operator_bytes", ("Y", "U", "q")),
    "lossmap.build_bound_operators": _nbytes("lossmap.operator_bytes",
                                             ("T", "Tplus", "Z", "M")),
    "noise.save_samples": _io_bytes("noise.bytes_written"),
    "noise.load_samples": _io_bytes("noise.bytes_read"),
}

EXPECTED = sorted(
    ({n for names in (*TIME_METRICS.values(), *SELF_METRICS.values(),
                      *CALL_METRICS.values()) for n in names}
     | set(HOOKS) | STEP_FACTORIES | SCORE_FACTORIES)
    - {"sde.step", "sde.score"} - {f"cli.{c}" for c in COMMANDS}
)


def package_modules(package_name: str = "spherediff"):
    """The package and every submodule, imported."""
    pkg = importlib.import_module(package_name)
    return [pkg] + [importlib.import_module(f"{package_name}.{m.name}")
                    for m in pkgutil.iter_modules(pkg.__path__)]


class Tracer:
    """In-memory spans [name, start, end, parent] plus named counters."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.absent = []
        self.hook_errors = []
        self._stack = []
        self._undo = []

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def timed(self, fn, name: str, hook=None):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook:
                try:
                    hook(self.counters, sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError) as exc:
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def counted(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_closure(self, result, name: str):
        fn = getattr(result, "fn", None)
        if dataclasses.is_dataclass(result) and callable(fn):  # sde.ScoreField
            return dataclasses.replace(result, fn=self.timed(fn, name))
        return self.timed(result, name) if callable(result) else result

    def _factory(self, fn, name: str, closure_name: str):
        inner = self.timed(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._wrap_closure(inner(*args, **kwargs), closure_name)

        return wrapper

    def _wrap(self, short: str, name: str, fn):
        full = f"{short}.{name}"
        if short in COUNT_ONLY_MODULES:
            return self.counted(fn, f"{short}.calls")
        if full in STEP_FACTORIES:
            return self._factory(fn, full, "sde.step")
        if full in SCORE_FACTORIES:
            return self._factory(fn, full, "sde.score")
        return self.timed(fn, full, HOOKS.get(full))

    # -- installation -----------------------------------------------------
    def install(self, modules) -> None:
        """Wrap each public function of `modules` wherever the modules bind it."""
        wrappers = {}
        found = set()
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if short in UNTRACED_MODULES or not hasattr(mod, "__file__"):
                continue
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                found.add(f"{short}.{name}")
                wrappers[id(obj)] = (obj, self._wrap(short, name, obj))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        self.absent = [n for n in EXPECTED if n not in found]

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _covered(children) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(children):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            p = spans[parent]
            children[parent].append((max(start, p[1]), min(end, p[2])))
    return [end - start - _covered(children[i])
            for i, (name, start, end, parent) in enumerate(spans)]


def _outermost_time(spans, names) -> float:
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(spans, counters, run_s: float) -> dict:
    """Per-layer metrics of one traced iteration (trace.overhead_s excluded)."""
    selfs = self_times(spans)
    out = {m: _outermost_time(spans, names) for m, names in TIME_METRICS.items()}
    for m, names in SELF_METRICS.items():
        out[m] = sum(s for sp, s in zip(spans, selfs) if sp[0] in names)
    for m, names in CALL_METRICS.items():
        out[m] = sum(1 for sp in spans if sp[0] in names)
    for m in COUNTER_METRICS:
        out[m] = counters.get(m, 0)
    for m, c in MIB_METRICS.items():
        out[m] = counters.get(c, 0) / 2**20
    for mod in MODULES + ("cli",):
        out[f"{mod}.self_s"] = sum(
            s for sp, s in zip(spans, selfs) if sp[0].split(".", 1)[0] == mod)
    out["trace.run_s"] = run_s
    out["trace.unaccounted_s"] = run_s - sum(out[f"{m}.self_s"] for m in MODULES + ("cli",))
    out["trace.spans"] = len(spans)
    return out
