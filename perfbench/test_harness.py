"""The benchmark's own plumbing: BENCHMARK.json against run.py, and the tracer.

Run with: python3 -m pytest perfbench/test_harness.py
"""
import json
import types
from pathlib import Path

import pytest

import run
from tracer import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_run_py_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_tracer_links_parents_and_subtracts_children():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) + module.inner(x)

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.target(module, "inner", "inner")
    tracer.target(module, "outer", lambda args, kwargs: f"outer.{args[0]}",
                  lambda counts, args, kwargs, result: counts.__setitem__("result", result))
    tracer.install()
    try:
        with tracer.span("root"):
            assert module.outer(1) == 4
    finally:
        tracer.uninstall()
    assert module.inner is inner and module.outer is outer
    assert tracer.counts["result"] == 4
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["root", "outer.1", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    totals = tracer.totals()
    calls, total, own = totals["outer.1"]
    assert calls == 1
    inner_total = totals["inner"][1]
    assert own == pytest.approx(total - inner_total)
    assert totals["root"][1] >= total >= inner_total > 0


def test_tracer_closes_spans_when_the_call_raises():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.target(module, "fail", "fail")
    tracer.install()
    with pytest.raises(ZeroDivisionError):
        module.fail()
    tracer.uninstall()
    assert tracer.end[0] >= tracer.start[0] > 0
    assert tracer._stack == [-1]
