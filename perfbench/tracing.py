"""Spans around calls into the lswhittle layers, recorded from outside.

The traced run replaces a fixed list of public layer functions with
wrappers that record one span per call: name, start, end, parent span, the
phase of the run and the round it belongs to.  Wrappers are installed in
every lswhittle module that bound the original name, so calls made inside
the package (``mcharness.run_mc`` calling ``simulator.innovations_decompose``)
are spanned too.  The objective of the fit is called thousands of times per
fit, so it is counted instead: each call adds one evaluation and its time to
the span that is open when it runs.  Spans stay in memory and are written as
JSON when the run ends.

``mcharness._run_fits`` is private but is the one function that fits one
plan cell, so it is spanned as the cell.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("tvmodel", "spectral", "simulator", "whittle", "asymptotics",
          "mcharness")

SPANNED = (
    ("tvmodel", "log_spectral_gradient_grid"),
    ("spectral", "make_plan"),
    ("spectral", "taper_weights"),
    ("spectral", "local_periodogram"),
    ("simulator", "make_kernel"),
    ("simulator", "CovKernel.matrix"),
    ("simulator", "innovations_decompose"),
    ("simulator", "paths_from_state"),
    ("simulator", "simulate_path"),
    ("whittle", "estimate"),
    ("asymptotics", "gamma_quadrature"),
    ("asymptotics", "gamma_closed"),
    ("asymptotics", "asymptotic_se"),
    ("mcharness", "simulate_paths"),
    ("mcharness", "run_mc"),
    ("mcharness", "mse_grid"),
    ("mcharness", "_run_fits"),
)
COUNTED = ("whittle", "WhittleObjective.__call__")


def _describe(name, args, result):
    """Counts read off a call's arguments and result, stored on its span."""
    if name == "simulator.paths_from_state":
        return {"rows": int(result.shape[0])}
    if name == "whittle.estimate":
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "mcharness._run_fits":
        plan = args[2]
        return {"workers": int(args[4]), "reps": len(args[0]),
                "N": plan.N, "S": plan.S}
    return {}


class Tracer:
    """Records spans while installed; inert (and unpatched) otherwise."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []
        self._t0 = time.perf_counter()
        self.phase = "setup"
        self.round = -1

    # -- installation ----------------------------------------------------

    def install(self):
        if self._originals:
            return
        for layer, qual in SPANNED + (COUNTED,):
            module = importlib.import_module(f"lswhittle.{layer}")
            owner, attr = module, qual
            if "." in qual:
                cls, attr = qual.split(".")
                owner = getattr(module, cls)
            original = getattr(owner, attr)
            if (layer, qual) == COUNTED:
                wrapper = self._counter(original)
            else:
                wrapper = self._spanner(f"{layer}.{qual}", original)
            targets = [owner] if owner is not module else [
                m for key, m in list(sys.modules.items())
                if key == "lswhittle" or key.startswith("lswhittle.")]
            for target in targets:
                if getattr(target, attr, None) is original:
                    setattr(target, attr, wrapper)
                    self._originals.append((target, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._originals):
            setattr(target, attr, original)
        self._originals = []

    # -- wrappers --------------------------------------------------------

    def _spanner(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                    "phase": tracer.phase, "round": tracer.round,
                    "child_s": 0.0}
            tracer.spans.append(span)
            watch_memory = (name == "simulator.CovKernel.matrix"
                            and not tracemalloc.is_tracing())
            if watch_memory:
                tracemalloc.start()
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if watch_memory:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                span["start"] = start - tracer._t0
                span["end"] = end - tracer._t0
                if tracer._stack:
                    tracer._stack[-1]["child_s"] += end - start
            span.update(_describe(name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if tracer._stack:
                    top = tracer._stack[-1]
                    top["evals"] = top.get("evals", 0) + 1
                    top["eval_s"] = top.get("eval_s", 0.0) + elapsed
                    top["child_s"] += elapsed

        counted.__wrapped__ = fn
        return counted

    def write(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({**extra, "spans": self.spans}, fh)


def self_seconds(spans) -> dict:
    """Per layer: span durations minus the time their children cover.

    Counted objective calls are children of the span open when they ran
    and their time belongs to the whittle layer.
    """
    out = defaultdict(float)
    for span in spans:
        layer = span["name"].split(".")[0]
        out[layer] += span["end"] - span["start"] - span["child_s"]
        out["whittle"] += span.get("eval_s", 0.0)
    return {layer: out[layer] for layer in LAYERS}


def _duration(span) -> float:
    return span["end"] - span["start"]


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def layer_metrics(tracer: Tracer, workers: int, traced_rounds: int) -> dict:
    """Per-layer metrics of BENCHMARK.json from the recorded spans.

    Each metric reads the spans of the traced timed rounds; a function that
    does not run there is read from the check phase (accuracy panel and
    checks) instead, so every workload reports every layer.  Layer self
    times are per traced round, or over the whole check phase when the
    layer does not run in the timed rounds.
    """
    spans = [s for s in tracer.spans if "end" in s]

    def pick(name):
        named = [s for s in spans if s["name"] == name]
        return [s for s in named if s["phase"] == "timed"] or named

    kernels = pick("simulator.CovKernel.matrix")
    decompositions = pick("simulator.innovations_decompose")
    draws = pick("simulator.paths_from_state")
    fits = pick("whittle.estimate")
    evals = sum(s.get("evals", 0) for s in fits)
    cells = [s for s in pick("mcharness._run_fits") if s["workers"] == workers]
    in_process = {}
    for cell in spans:
        if cell["name"] == "mcharness._run_fits" and cell["workers"] == 1:
            in_process[(cell["round"], cell["phase"], cell["N"], cell["S"])] = \
                sum(_duration(s) for s in spans if s["parent"] == cell["id"]
                    and s["name"] == "whittle.estimate")
    overheads = [_duration(c) - in_process[key] / workers for c in cells
                 if (key := (c["round"], c["phase"], c["N"], c["S"]))
                 in in_process]

    out = {
        "simulator.kernel_s": _mean(map(_duration, kernels)),
        "simulator.kernel_peak_mb": max(s["peak_mb"] for s in kernels),
        "simulator.cholesky_s": _mean(_duration(s) - s["child_s"]
                                      for s in decompositions),
        "simulator.path_ms": 1e3 * sum(map(_duration, draws))
        / sum(s["rows"] for s in draws),
        "spectral.periodogram_us":
            1e6 * _mean(map(_duration, pick("spectral.local_periodogram"))),
        "whittle.objective_us":
            1e6 * sum(s.get("eval_s", 0.0) for s in fits) / evals,
        "whittle.evals_per_fit": evals / len(fits),
        "whittle.iterations_per_fit": _mean(s["iterations"] for s in fits),
        "whittle.fit_ms": 1e3 * _mean(map(_duration, fits)),
        "whittle.converged_ratio": _mean(s["converged"] for s in fits),
        "tvmodel.gradient_grid_ms": 1e3 * _mean(
            map(_duration, pick("tvmodel.log_spectral_gradient_grid"))),
        "asymptotics.gamma_quadrature_ms": 1e3 * _mean(
            map(_duration, pick("asymptotics.gamma_quadrature"))),
        "asymptotics.gamma_closed_us": 1e6 * _mean(
            map(_duration, pick("asymptotics.gamma_closed"))),
        "mcharness.cell_s": _mean(map(_duration, cells)),
        "mcharness.pool_overhead_s": _mean(overheads),
    }
    timed = self_seconds([s for s in spans if s["phase"] == "timed"])
    check = self_seconds([s for s in spans if s["phase"] == "check"])
    for layer in LAYERS:
        out[f"self.{layer}_s"] = (timed[layer] / traced_rounds
                                  if timed[layer] > 0.0 else check[layer])
    return out
