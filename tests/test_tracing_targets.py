"""Every layer function the benchmark's tracer wraps still exists.

perfbench/tracing.py names lswhittle functions by module and qualified
name; a rename or deletion here would otherwise surface only as a failed
traced benchmark run.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from lswhittle import (MCConfig, catalog_model, make_plan, mcharness, run_mc,
                       taper_weights, whittle)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer,qual", tracing.SPANNED + (tracing.COUNTED,),
                         ids=lambda value: value)
def test_traced_name_resolves_to_callable(layer, qual):
    target = importlib.import_module(f"lswhittle.{layer}")
    for attr in qual.split("."):
        target = getattr(target, attr)
    assert callable(target)


def test_layers_are_modules():
    for layer in tracing.LAYERS:
        importlib.import_module(f"lswhittle.{layer}")


def test_run_fits_arguments_the_tracer_reads():
    # _describe reads a cell's paths, plan and workers as args[0], args[2]
    # and args[4] of mcharness._run_fits
    names = list(inspect.signature(mcharness._run_fits).parameters)[:5]
    assert names == ["paths", "model", "plan", "taper_kind", "workers"]


# The tracer spans each whittle.estimate call and counts the calls of
# WhittleObjective.__call__ inside it, and its per-fit metrics divide by
# the number of estimate spans.  Batching fits across replications (one
# call for many paths) first needs the tracer to read batched fits.
@pytest.fixture
def tracer():
    recorder = tracing.Tracer()
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.uninstall()


def estimate_spans(recorder):
    return [s for s in recorder.spans if s["name"] == "whittle.estimate"]


SEC4_TRUTH = [0.15, 0.20, 0.5, 0.3, 0.5]


def test_fit_evaluations_are_the_counted_objective_calls(tracer):
    model = catalog_model("sec4")
    paths = mcharness.simulate_paths(model, SEC4_TRUTH, 256, 3, 20260814)
    plan = make_plan(256, 64, 32)
    fits = [whittle.estimate(path, model, plan, taper_weights("cosine", 64))
            for path in paths]
    counted = [span.get("evals", 0) for span in estimate_spans(tracer)]
    assert counted == [fit.evaluations for fit in fits]
    assert min(counted) > 0


def test_run_mc_fits_each_replication_in_one_estimate_call(tracer):
    config = MCConfig(model=catalog_model("sec4"), theta=SEC4_TRUTH, T=256,
                      plan=make_plan(256, 64, 32), reps=4, seed=1, workers=1,
                      family="sec4")
    table = run_mc(config)
    spans = estimate_spans(tracer)
    assert len(spans) == table.n_total == config.reps
    assert all(span.get("evals", 0) > 0 for span in spans)
