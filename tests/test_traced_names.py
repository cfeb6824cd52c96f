"""The benchmark tracer patches qaskey's functions by name; every name it
looks for must still exist, or its per-layer metrics would read 0."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("qaskey_bench_tracer", TRACER)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    with tracer:
        pass
    assert tracer.missing == set()
