"""Tests of the benchmark itself: generators, tracer, spans per workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The span test runs one traced pass of each listed workload (~20 s).
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import SPANS, Tracer, span_name  # noqa: E402

import pklie.catalog  # noqa: E402
import pklie.linalg  # noqa: E402
import pklie.pkahler  # noqa: E402
import pklie.positivity  # noqa: E402

# Span -> the workload it is mostly on.
MOSTLY_ON = {
    "exterior.wedge": "catalog8",
    "exterior.substitute": "snn8_obstruct",
    "exterior.apply_antiderivation": "snn8_obstruct",
    "liealg.check_jacobi": "snn8_obstruct",
    "liealg.is_unimodular": "snn8_obstruct",
    "linalg.rref": "aab",
    "linalg.inverse": "snn8_obstruct",
    "linalg.solve": "catalog8",
    "linalg.hermitian_pivots": "catalog8",
    "polynomials.char_poly": "aab",
    "polynomials.minimal_poly": "aab",
    "cxstruct.ComplexStructureSpec.from_equations": "snn8_obstruct",
    "cxstruct.ComplexStructureSpec.from_coframe": "aab",
    "cxstruct.ComplexStructureSpec.d": "snn8_obstruct",
    "cxstruct.structure_equations": "snn8_obstruct",
    "cxstruct.check_integrability": "aab",
    "positivity.gram_matrix": "catalog8",
    "positivity.gram_positive_definite": "catalog8",
    "positivity.volume_coefficient": "catalog8",
    "simplex.feasibility": "catalog8",
    "simplex.verify_farkas": "catalog8",
    "pkahler.find_pkahler": "catalog8",
    "pkahler.closed_pp_space": "aab",
    "pkahler.verify_report": "catalog8",
    "pkahler.obstruction_check": "snn8_obstruct",
    "catalog.build_snn8": "snn8_obstruct",
    "catalog.build_almost_abelian": "aab",
    "catalog.kahler_decision_almost_abelian": "aab",
    # only the INCONCLUSIVE aab decision goes past witness round 1
    "positivity.check_transverse": "aab",
    "pkahler.obstruction_search": "aab",
}


def test_every_span_has_a_workload_and_a_metric():
    names = {span_name(m, q) for m, q in SPANS}
    assert names == set(MOSTLY_ON)
    assert names == set(run.SPAN_METRICS)


def test_generators_are_seeded():
    assert gen.snn8_params(random.Random(3)) == gen.snn8_params(random.Random(3))
    assert gen.snn8_params(random.Random(3)) != gen.snn8_params(random.Random(4))
    a = gen.aab_set()
    b = gen.aab_set()
    assert [(d.lam, d.v, d.A) for d in a] == [(d.lam, d.v, d.A) for d in b]


def test_generated_inputs_are_admissible():
    params = gen.snn8_params(random.Random(0))
    assert sum(f == 1 for f, _, _ in params) == 48 and len(params) == 72
    for family, tup, delta in params[::7]:
        pklie.catalog.build_snn8(family, tup, delta)
    data = gen.aab_set()
    assert [d.n for d in data] == [3] * 16 + [4] * 4
    assert all(d.integrable() and d.unimodular() for d in data)
    kahler = [pklie.catalog.kahler_decision_almost_abelian(d).value for d in data]
    assert kahler == [True] * 8 + [False] * 8 + [True] * 2 + [False] * 2


def test_tracer_patches_every_binding_site_and_restores_them():
    original = pklie.positivity.gram_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert pklie.positivity.gram_matrix is not original
        assert pklie.pkahler.gram_matrix is pklie.positivity.gram_matrix
        assert pklie.gram_matrix is pklie.positivity.gram_matrix
        # pkahler._project_onto_span imports solve at call time
        pklie.pkahler._project_onto_span([1, 0], [[1, 1]])
    finally:
        tracer.uninstall()
    assert pklie.positivity.gram_matrix is original
    assert pklie.pkahler.gram_matrix is original
    summary = tracer.summary()
    assert summary["linalg.solve"]["calls"] == 1
    assert summary["linalg.rref"]["calls"] == 1
    assert summary["linalg.rref"]["cells"] == 2
    assert tracer.absent == []


def test_tracer_reports_missing_functions_as_absent():
    tracer = Tracer(specs=[("linalg", "no_such_helper"), ("no_such_module", "f"), ("linalg", "rref")])
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["linalg.no_such_helper", "no_such_module.f"]
    assert tracer.summary() == {"linalg.rref": {"calls": 0, "self_s": 0.0}}


def test_self_time_excludes_child_spans():
    tracer = Tracer(specs=[("linalg", "solve"), ("linalg", "rref")])
    tracer.install()
    try:
        pklie.linalg.solve([[pklie.linalg.gr(2)]], [1])
    finally:
        tracer.uninstall()
    (solve, rref) = tracer.spans
    assert rref[3] == 0  # parent is the solve span
    summary = tracer.summary()
    total = solve[2] - solve[1]
    assert summary["linalg.solve"]["self_s"] == pytest.approx(total - (rref[2] - rref[1]))


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in sorted(set(MOSTLY_ON.values())):
        make_inputs, run_item, _ = worker.WORKLOADS[workload]
        items = make_inputs(random.Random(1))
        tracer = Tracer()
        tracer.install()
        try:
            rec, _ = worker.run_passes(items, run_item, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        assert rec.failures == []
        out[workload] = tracer.summary()
    return out


@pytest.mark.parametrize("name", sorted(MOSTLY_ON))
def test_span_is_called_on_its_workload(traced, name):
    assert traced[MOSTLY_ON[name]][name]["calls"] >= 1


def test_polynomials_never_called_on_catalog8(traced):
    for name, entry in traced["catalog8"].items():
        if name.startswith("polynomials."):
            assert entry["calls"] == 0, name


def test_tail_is_nearest_rank_with_ten_samples_above():
    samples = [float(x) for x in range(40, 0, -1)]
    assert run.tail(samples, 75) == (30.0, 10)
    assert run.tail(samples * 2, 75) == (30.0, 20)
    assert run.tail(samples, 80) == (None, 8)


def test_tail_percentile_has_ten_samples_beyond_it_in_the_shortest_run():
    for workload, pct in run.TAIL_PERCENTILE.items():
        items = worker.WORKLOADS[workload][0](random.Random(1))
        # an aab item decides p = 1, and p = 2 too when n = 4
        decisions = sum(1 if d.n == 3 else 2 for d in items) if workload == "aab" else len(items)
        _, beyond = run.tail([1.0] * (decisions * worker.MIN_PASSES[workload]), pct)
        assert beyond >= 10, workload


def test_items_that_raise_count_as_failed_decisions():
    def broken(_item, _rec, _seed):
        raise RuntimeError("engine down")

    rec, pass_s = worker.run_passes([1, 2, 3], broken, 1, min_passes=2)
    assert len(pass_s) == 2
    assert rec.decisions == 6 and len(rec.failures) == 6 and rec.decide_s == []


def test_checkpoint_scales_the_times_since_the_previous_one(monkeypatch):
    ref = worker.hostspeed.REFERENCE_S
    samples = iter([ref, ref, 2 * ref])
    monkeypatch.setattr(worker.hostspeed, "sample", lambda: next(samples))
    rec = worker.Recorder()
    rec.decided(1.0, True)
    rec.checkpoint()  # samples ref and ref around it: factor 1
    rec.verify_s.append(1.0)
    rec.checkpoint()  # ref and 2 ref: the host ran at 2/3 of the reference speed
    assert rec.decide_s == [1.0]
    assert rec.verify_s == [pytest.approx(2 / 3)]
    assert rec.factors == [1.0, pytest.approx(2 / 3)]


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snn8_obstruct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_units().items())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(worker.WORKLOADS)
