"""Span bookkeeping: self times, patching and unpatching, tracing off."""

import json
from pathlib import Path

import numpy as np

import run
import workloads
from spans import Tracer, installed_wrappers, package_modules
from ttsketch import contract, eigensolver, rounding, sketch, tt

# One child span's bookkeeping (key recording, stack update) is charged to
# no span; this bounds it generously.
BOOKKEEPING_S = 2e-3


def bindings():
    """{(module, attribute): object} for every module the tracer may patch."""
    return {(m.__name__, attr): val
            for m in package_modules() + [np, np.linalg]
            for attr, val in vars(m).items()}


def small_train():
    return tt.tt_random((3,) * 8, (1,) + (6,) * 7 + (1,), seed=1)


def test_self_time_is_span_minus_children_tt_norm():
    x = small_train()
    with Tracer() as tracer:
        tt.tt_norm(x)
    norm, inner = tracer.stats["tt.tt_norm"], tracer.stats["tt.tt_inner"]
    assert norm.calls == 1 and inner.calls == 1
    assert norm.self_s <= norm.total_s - inner.total_s
    assert norm.self_s >= norm.total_s - inner.total_s - BOOKKEEPING_S
    assert inner.self_s == inner.total_s  # numpy spans are not children


def test_self_time_is_span_minus_children_rand_round():
    x = small_train()
    sk = sketch.make_sketch(sketch.SketchSpec("tts", x.dims, P=2, R=4, seed=2))
    with Tracer() as tracer:
        rounding.tt_rand_round(x, 4, sk=sk)
    outer = tracer.stats["rounding.tt_rand_round"]
    child = tracer.stats["contract.partial_contractions"]
    assert outer.calls == 1 and child.calls == 1
    assert outer.self_s <= outer.total_s - child.total_s
    assert outer.self_s >= outer.total_s - child.total_s - BOOKKEEPING_S
    # Layer self times add up to the outermost span.
    layer_self = sum(st.self_s for name, st in tracer.stats.items()
                     if not name.startswith("numpy."))
    assert outer.total_s - BOOKKEEPING_S <= layer_self <= outer.total_s


def test_numpy_time_is_an_overlay():
    x = small_train()
    with Tracer() as tracer:
        tt.tt_inner(x, x)
    einsum = tracer.stats["numpy.einsum"]
    assert einsum.calls == x.d
    assert 0 < einsum.self_s <= tracer.stats["tt.tt_inner"].self_s


def test_every_binding_is_patched_and_restored():
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (contract, eigensolver):
            assert getattr(mod.sketch_matvec, "__perfbench_span__") == "contract.sketch_matvec"
        assert eigensolver.sketch_matvec is contract.sketch_matvec
        assert np.einsum.__perfbench_span__ == "numpy.einsum"
        assert np.linalg.qr.__perfbench_span__ == "numpy.linalg"
    finally:
        tracer.uninstall()
    after = bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert installed_wrappers() == []


def test_recorders_and_nesting_counts():
    x = small_train()
    tracer = Tracer(recorders={"tt.tt_inner": lambda a, k, r: (a[0].d, float(r) > 0)})
    with tracer:
        tt.tt_inner(x, x)
        tt.tt_norm(x)
        seen = installed_wrappers()
    assert seen
    assert tracer.stats["tt.tt_inner"].keys == {(x.d, True): 2}


class Probe:
    """A stand-in workload that reports which wrappers are bound mid-pass."""

    ops_per_pass = 1

    def __init__(self):
        self.seen = []

    def run(self, state, index, out_dir):
        return installed_wrappers()

    def check(self, state, outputs, out_dir):
        self.seen.append(outputs)
        return [workloads.Op(True)]


def test_no_wrapper_when_tracing_off():
    probe = Probe()
    run.run_passes(probe, None, 0.0, None, 0)
    assert probe.seen == [[]]
    run.run_passes(probe, None, 0.0, None, 0, tracer=Tracer())
    assert probe.seen[1]
    assert installed_wrappers() == []


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
