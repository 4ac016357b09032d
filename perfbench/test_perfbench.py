"""Self-tests of the benchmark: span arithmetic, patch restoration, output checks.

Run with ``python3 -m pytest perfbench``.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402
from bench_trace import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _nested_spans():
    # root [0, 10] holds A [1, 4] (which holds B [2, 3]) and C [5, 9], whose
    # children D [6, 7] and E [6.5, 8] overlap: C's covered time is their union.
    return [
        Span("root", 0.0, 10.0, parent=None, op=0),
        Span("mkdist.mk_distance", 1.0, 4.0, parent=0, op=0),
        Span("simplex.solve_lp", 2.0, 3.0, parent=1, op=0, counts={"rows": 6, "iterations": 4}),
        Span("lipnorm.induced_lip", 5.0, 9.0, parent=0, op=0),
        Span("lipnorm.max_numerical_radius", 6.0, 7.0, parent=3, op=0, counts={"matrices": 3}),
        Span("simplex.solve_lp", 6.5, 8.0, parent=3, op=0, counts={"rows": 2, "iterations": 1}),
    ]


def test_self_time_subtracts_the_union_of_children():
    assert self_times(_nested_spans()) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_layer_metrics_on_synthetic_spans():
    spans = _nested_spans()
    # a second op, twice as long in every span: medians fall between the two
    spans += [Span(s.name, 20 + 2 * s.start, 20 + 2 * s.end,
                   parent=None if s.parent is None else s.parent + 6, op=1, counts=s.counts)
              for s in _nested_spans()]
    got = layer_metrics(spans)
    assert got["simplex.solve_lp.calls"] == 2
    assert got["simplex.solve_lp.self_s"] == pytest.approx((2.5 + 5.0) / 2)
    assert got["simplex.solve_lp.rows"] == 8
    assert got["simplex.solve_lp.iterations"] == 5
    assert got["lipnorm.max_numerical_radius.matrices"] == 3
    assert got["lipnorm.self_s"] == pytest.approx((3.0 + 6.0) / 2)
    assert got["mkdist.self_s"] == pytest.approx((2.0 + 4.0) / 2)
    assert got["mkdist.mk_distance.lp_per_call"] == 1.0      # one of two LPs ran under it
    assert got["root.self_frac"] == pytest.approx(0.3)
    assert got["hopf.check_axioms.calls"] == 0


def test_tracer_restores_every_patched_name():
    from cqms import cli, lipnorm, mkdist, simplex
    import cqms

    originals = (mkdist.solve_lp, simplex.solve_lp, lipnorm.max_numerical_radius,
                 cqms.truncate, cli.mkdist.mk_distance)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert mkdist.solve_lp is not originals[0]
            assert simplex.solve_lp is mkdist.solve_lp
            assert lipnorm.max_numerical_radius is not originals[2]
            assert cqms.truncate is not originals[3]
            raise RuntimeError("restore must survive an exception")
    assert (mkdist.solve_lp, simplex.solve_lp, lipnorm.max_numerical_radius,
            cqms.truncate, cli.mkdist.mk_distance) == originals


def test_tracer_sees_calls_where_they_are_looked_up():
    from cqms import groups, hopf, lipnorm

    g = hopf.function_algebra(groups.cyclic_table(3), metric=groups.arc_metric(3))
    lip = lipnorm.lip_from_metric(g)
    tracer = Tracer()
    with tracer, tracer.op(0):
        lipnorm.check_invariance(lip, g, side="right", samples=1)
    names = [span.name for span in tracer.spans]
    assert names[:2] == ["root", "lipnorm.check_invariance"]
    radius = [s for s in tracer.spans if s.name == "lipnorm.max_numerical_radius"]
    assert radius and all(tracer.spans[s.parent].name == "lipnorm.check_invariance"
                          for s in radius)
    assert all(s.counts["matrices"] == len(lip.weights) for s in radius)


def _sweep_csv(ids, bounds, code=0):
    header = ("lambda_id,dim_sys,bound_B,criterion_r,diam_lower,diam_upper,c1_max_residual,"
              "n1_hausdorff_lower,n2_hausdorff_lower,runtime_ms")
    rows = [f"{i},1,{b:.12g},{b:.12g},1,2,0,0,0,1.5" for i, b in zip(ids, bounds)]
    return code, "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize("name", ["sweep", "optimized"])
def test_sweep_checker(name):
    ref = bench_workloads.REFERENCES[name]
    state = "canonical" if name == "sweep" else "optimized"
    check = bench_workloads.check_sweep
    assert check(_sweep_csv(ref["lambda_id"], ref["bound_B"]), ref, state) == []
    moved = list(ref["bound_B"])
    moved[1] += 1e-9 if state == "canonical" else 2e-9
    assert check(_sweep_csv(ref["lambda_id"], moved), ref, state)
    assert check(_sweep_csv(ref["lambda_id"], ref["bound_B"], code=4), ref, state)


def test_optimized_checker_accepts_lower_bounds():
    ref = bench_workloads.REFERENCES["optimized"]
    lower = [b * 0.9 for b in ref["bound_B"]]
    assert bench_workloads.check_sweep(_sweep_csv(ref["lambda_id"], lower), ref, "optimized") == []


def test_chain_checker():
    ref = bench_workloads.REFERENCES["certified"]
    assert bench_workloads.check_chain(ref["bound_B"], ref) == []
    moved = list(ref["bound_B"])
    moved[3] -= 1e-9
    assert bench_workloads.check_chain(moved, ref)
    assert bench_workloads.check_chain(ref["bound_B"][:-1] + [1e-3], ref)


def test_validation_checker():
    ok = (0, "algebra: x\nall axioms pass (max residual 1e-16)\n")
    assert bench_workloads.check_validation([("a", ok)]) == []
    assert bench_workloads.check_validation([("a", ok), ("b", (2, ok[1]))])
    assert bench_workloads.check_validation([("a", (0, "axioms FAIL"))])


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
    emitted = set(layer_metrics([Span("root", 0.0, 1.0, op=0)])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s",
                                                       "peak_rss_mb"}


def test_sweep_reference_levels_match_the_chain():
    from cqms import chains

    ids = ["|".join(map(str, level)) for level in chains.frequency_chain(8)]
    assert ids == bench_workloads.REFERENCES["sweep"]["lambda_id"]
    assert len(chains.frequency_chain(bench_workloads.CERTIFIED_ORDER)) == \
        len(bench_workloads.REFERENCES["certified"]["bound_B"])
    assert np.all(np.diff(bench_workloads.REFERENCES["certified"]["bound_B"]) <= 0)


def test_ledger_counts_raising_and_unreadable_ops_as_failed():
    import run

    def boom(ctx, inputs):
        raise RuntimeError("op failed")

    ok = bench_workloads.Workload("ok", "", None, None, lambda ctx, inputs: (0, ""),
                                  lambda out: [])
    unreadable = replace(ok, run=lambda ctx, inputs: (0, "x\n1\n"),
                         check=lambda out: bench_workloads.check_sweep(
                             out, bench_workloads.REFERENCES["sweep"], "canonical"))
    ledger = run.Ledger()
    for workload in (ok, replace(ok, run=boom), unreadable):
        ledger.op(workload, None, None)
    assert (ledger.attempted, ledger.failed) == (3, 2)
