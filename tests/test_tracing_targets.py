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
    from lswhittle import mcharness
    names = list(inspect.signature(mcharness._run_fits).parameters)[:5]
    assert names == ["paths", "model", "plan", "taper_kind", "workers"]
