"""Span tracing and per-layer metrics for the traced run.

The public functions of each shrinkpred module are wrapped, inside the
benchmark's own process, at the module namespace each caller looks them up
in (``risk.simulate_observation`` is the name ``risk_d1_mc`` calls, for
instance).  Every call records a span (name, start, end, parent) in flat
in-memory arrays that are written out once, at the end.  A span's self
time is its duration minus the durations of its direct children.

The density kernels are closures, not module functions: they are traced by
wrapping the ``log_unnormalized`` of each density a wrapped builder
returns, and the target kernel handed to ``normalize_density``.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
import time
from array import array

import numpy as np

# (module, attribute, span name, kind).  The same function is wrapped in
# every namespace it is called through; both copies record one span name.
TARGETS = (
    ("canonical", "replication_rng", "canonical.replication_rng", None),
    ("risk", "replication_rng", "canonical.replication_rng", None),
    ("predictive", "replication_rng", "canonical.replication_rng", None),
    ("cli", "replication_rng", "canonical.replication_rng", None),
    ("risk", "simulate_observation", "canonical.simulate_observation", None),
    ("cli", "canonicalize", "canonical.canonicalize", None),
    ("cli", "as1_problem", "canonical.canonicalize", None),
    ("cli", "plugin_bayes_estimators", "predictive.plugin_estimators", None),
    ("cli", "umvu_estimators", "predictive.plugin_estimators", None),
    ("cli", "stein_variance", "predictive.plugin_estimators", None),
    ("cli", "stein_variance_star", "predictive.plugin_estimators", None),
    ("cli", "best_invariant_density", "predictive.best_invariant_build", "density"),
    ("predictive", "best_invariant_density", "predictive.best_invariant_build", "density"),
    ("cli", "shrinkage_bayes_density", "predictive.shrinkage_build", None),
    ("predictive", "normalize_density", "predictive.normalize_density", "normalize"),
    ("risk", "d1_loss_plugin", "risk.d1_loss", None),
    ("cli", "risk_d1_mc", "risk.risk_d1_mc", "risk_d1"),
    ("cli", "risk_alpha_mc", "risk.risk_alpha_mc", "risk_alpha"),
    ("risk", "alpha_divergence_mc", "risk.alpha_divergence_mc", None),
    ("bounds", "nu_limits", "bounds.nu_limits", None),
    ("predictive", "nu_limits", "bounds.nu_limits", None),
)
KERNEL = "predictive.kernel"
CLI_MAIN = "cli.main"
_ESS_MESSAGE = re.compile(r"effective sample size ([0-9.eE+-]+) of (\d+)")


class Tracer:
    """Spans in flat arrays, plus facts recorded by a few low-rate calls.

    Not thread-safe: the traced run executes with one worker thread.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.info: dict[int, dict] = {}
        self.kernel_points = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def kernel(self, fn):
        """Trace a batch density kernel and count the points it evaluates."""
        traced = self.wrap(fn, KERNEL)

        def counted(pts):
            self.kernel_points += len(pts)
            return traced(pts)

        return counted

    def _recording(self, fn, name: str, record):
        """Wrap fn; record(bound_args, result, error) files facts under the span index."""
        traced = self.wrap(fn, name)
        sig = inspect.signature(fn)

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            idx = len(self.start)
            try:
                out = traced(*bound.args, **bound.kwargs)
            except Exception as exc:
                self.info[idx] = record(bound.arguments, None, exc)
                raise
            self.info[idx] = record(bound.arguments, out, None)
            return out

        return call

    def instrument(self, fn, name: str, kind):
        if kind is None:
            return self.wrap(fn, name)
        if kind == "density":
            traced = self.wrap(fn, name)

            def build(*args, **kwargs):
                dens = traced(*args, **kwargs)
                return dataclasses.replace(dens, log_unnormalized=self.kernel(dens.log_unnormalized))

            return build
        if kind == "normalize":
            inner = self._recording(fn, name, _normalize_facts)

            def normalize(log_unnormalized, *args, **kwargs):
                return inner(self.kernel(log_unnormalized), *args, **kwargs)

            return normalize
        if kind == "risk_d1":
            return self._recording(fn, name, lambda a, out, exc: _risk_facts(a, 1.0, a["reps"], out))
        if kind == "risk_alpha":
            return self._recording(
                fn, name, lambda a, out, exc: _risk_facts(a, float(a["alpha"]), a["reps_outer"], out))
        raise ValueError(f"unknown wrapper kind {kind!r}")

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }


def _normalize_facts(args: dict, out, exc) -> dict:
    """IS draws and ESS fraction of one normalization.

    On success the ESS fraction follows from the certificate's relative
    standard error: ESS/N = 1/(1 + (N-1) rel_se^2).  A failed
    normalization reports its ESS in the exception message.
    """
    n = int(args["n_samples"])
    ess = None
    if out is not None:
        rel_se = out.certificate.std_error
        ess = 1.0 / (1.0 + (n - 1) * rel_se * rel_se)
    elif exc is not None:
        found = _ESS_MESSAGE.search(str(exc))
        if found:
            ess = float(found.group(1)) / int(found.group(2))
    return {"n_samples": n, "ess_fraction": ess}


def _risk_facts(args: dict, alpha: float, reps, out) -> dict:
    params = args["params"]
    key = (alpha, params.theta.tobytes(), params.mu.tobytes(), float(params.eta))
    return {"key": key, "reps": int(reps), "kept": 0 if out is None else int(out.reps)}


def install(tracer: Tracer, modules: dict) -> list:
    """Replace each target with its traced wrapper; returns what uninstall restores."""
    saved = []
    for mod_name, attr, name, kind in TARGETS:
        mod = modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.instrument(fn, name, kind))
    return saved


def uninstall(saved: list):
    for mod, attr, fn in reversed(saved):
        setattr(mod, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """Per-layer metrics as {name: (value, basis)}.

    ``basis`` counts the calls or replications behind the value; 0 means
    the run never reached that layer and the value is 0.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = (a["end_ns"] - a["start_ns"]).astype(float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    ids = {n: i for i, n in enumerate(tracer.names)}

    def mask(span):
        return name == ids.get(span, -1)

    def mean(values, span, scale):
        sel = mask(span)
        count = int(sel.sum())
        return (float(values[sel].mean()) / scale if count else 0.0, count)

    def ratio(num, den, scale=1.0):
        return (num / den / scale if den else 0.0, int(den))

    d1 = np.flatnonzero(mask("risk.risk_d1_mc")).tolist()
    nested = np.flatnonzero(mask("risk.risk_alpha_mc")).tolist()
    d1_reps = sum(tracer.info[i]["reps"] for i in d1)
    # distinct (alpha, grid point, rep) triples scored by any risk call
    widest: dict[tuple, int] = {}
    for i in d1 + nested:
        fact = tracer.info[i]
        widest[fact["key"]] = max(widest.get(fact["key"], 0), fact["reps"])

    shrink_parents = set(parent[mask("predictive.shrinkage_build")].tolist())
    per_proc = {"best_invariant": [0.0, 0], "shrinkage_bayes": [0.0, 0]}
    for i in nested:
        acc = per_proc["shrinkage_bayes" if i in shrink_parents else "best_invariant"]
        acc[0] += dur[i]
        acc[1] += tracer.info[i]["reps"]

    nested_set = set(nested)
    is_draws = 0
    ess = []
    for i in np.flatnonzero(mask("predictive.normalize_density")).tolist():
        fact = tracer.info[i]
        if fact["ess_fraction"] is not None:
            ess.append(fact["ess_fraction"])
        j = parent[i]
        while j >= 0 and j not in nested_set:
            j = parent[j]
        if j >= 0:
            is_draws += fact["n_samples"]
    is_reps = per_proc["shrinkage_bayes"][1] if is_draws else 0
    kernel = mask(KERNEL)

    return {
        "canonical.replication_rng_us": mean(dur, "canonical.replication_rng", 1e3),
        "canonical.simulate_observation_self_us": mean(self_t, "canonical.simulate_observation", 1e3),
        "canonical.draws_per_scored_rep": ratio(
            float(mask("canonical.simulate_observation").sum()), sum(widest.values())),
        "canonical.canonicalize_ms": mean(dur, "canonical.canonicalize", 1e6),
        "predictive.plugin_estimators_us": mean(dur, "predictive.plugin_estimators", 1e3),
        "predictive.best_invariant_build_us": mean(dur, "predictive.best_invariant_build", 1e3),
        "predictive.shrinkage_build_self_us": mean(self_t, "predictive.shrinkage_build", 1e3),
        "predictive.normalize_density_us": mean(dur, "predictive.normalize_density", 1e3),
        "predictive.kernel_ns_per_point": (
            float(dur[kernel].sum()) / tracer.kernel_points if tracer.kernel_points else 0.0,
            int(kernel.sum())),
        "predictive.ess_fraction_min": (min(ess) if ess else 0.0, len(ess)),
        "predictive.ess_fraction_median": (float(np.median(ess)) if ess else 0.0, len(ess)),
        "predictive.is_draws_per_outer_rep": ratio(float(is_draws), is_reps),
        "risk.d1_loss_us": mean(dur, "risk.d1_loss", 1e3),
        "risk.alpha1_us_per_rep": ratio(float(dur[d1].sum()), d1_reps, 1e3),
        "risk.alpha1_loop_self_us": ratio(float(self_t[d1].sum()), d1_reps, 1e3),
        "risk.inner_divergence_us": mean(dur, "risk.alpha_divergence_mc", 1e3),
        "risk.nested_us_per_outer_rep.best_invariant": ratio(*per_proc["best_invariant"], 1e3),
        "risk.nested_us_per_outer_rep.shrinkage_bayes": ratio(*per_proc["shrinkage_bayes"], 1e3),
        "risk.kept_fraction": ratio(
            float(sum(tracer.info[i]["kept"] for i in nested)),
            sum(tracer.info[i]["reps"] for i in nested)),
        "bounds.nu_limits_us": mean(dur, "bounds.nu_limits", 1e3),
        "cli.self_s": (float(self_t[mask(CLI_MAIN)].sum()) / 1e9, int(mask(CLI_MAIN).sum())),
    }
