"""Tests of the benchmark itself: failure accounting, tracing, inputs."""
import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_jobs  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import bench_worker  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def modules():
    return bench_worker.import_package(HERE.parent)


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass
    return "finished"


def test_planted_wrong_answer_error_and_overrun_are_failures():
    jobs = [
        bench_jobs.Job("right", lambda api: 3, bench_jobs.equals(3), "planted"),
        bench_jobs.Job("wrong", lambda api: 3, bench_jobs.equals(4), "planted"),
        bench_jobs.Job("raises", lambda api: 1 // 0, bench_jobs.equals(0), "planted"),
        bench_jobs.Job("slow", lambda api: _spin(5.0), bench_jobs.equals("finished"), "planted", budget_s=0.05),
    ]
    start = time.perf_counter()
    results = bench_worker.run_jobs(jobs, api=None)
    assert time.perf_counter() - start < 2.0
    status = {r["id"]: r["status"] for r in results}
    assert status["right"] == "ok"
    assert status["wrong"].startswith("wrong")
    assert status["raises"].startswith("error: ZeroDivisionError")
    assert status["slow"] == "timeout"
    assert [r["seconds"] is None for r in results] == [False, False, True, True]


def _fake_pass(status="ok", a=1.0, b=2.0, slowdown=1.0):
    """A pass on a machine running ``slowdown`` times slower than at rest."""
    ref = bench_speed.REFERENCE_S * slowdown
    jobs = [{"id": "a", "status": "ok", "seconds": a * slowdown, "reference_s": ref},
            {"id": "b", "status": status, "seconds": b * slowdown, "reference_s": ref}]
    return {"rss_mb": 20.0, "jobs": jobs}


def _fake_setups(*seconds, slowdown=1.0):
    ref = bench_speed.REFERENCE_S * slowdown
    return [{"setup_s": s * slowdown, "reference_s": ref} for s in seconds]


def test_failed_job_makes_the_command_fail(monkeypatch, capsys):
    fake = {"setups": _fake_setups(0.01, 0.02), "plain": [_fake_pass(), _fake_pass("timeout")], "traced": []}
    monkeypatch.setattr(run, "measure", lambda *args: fake)
    assert run.main(["--workload", "full", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 4, 1)
    assert "failed_ratio 0.2500 (1 of 4 jobs attempted)" in out


def test_untraced_run_reports_the_end_to_end_metrics(monkeypatch, capsys):
    fake = {
        "setups": _fake_setups(0.01, 0.03) + _fake_setups(0.02, slowdown=1.7),
        "plain": [_fake_pass(a=1.5), _fake_pass(b=2.5, slowdown=1.7), _fake_pass(a=0.5, b=3.5)],
        "traced": [],
    }
    monkeypatch.setattr(run, "measure", lambda *args: fake)
    assert run.main(["--workload", "level", "--seed", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    # medians over passes of times scaled to the machine at rest: the pass
    # made 1.7 times slower counts as if it had run at rest
    assert metrics["wall_s"]["value"] == pytest.approx(3.5)
    assert metrics["max_job_s"]["value"] == pytest.approx(2.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.02)


def test_pass_count_depends_on_run_length_only():
    for workload in bench_jobs.WORKLOADS:
        assert run.pass_count(workload, 30, False) >= 3
        assert run.pass_count(workload, 1, False) == 1
        assert run.pass_count(workload, 1, True) == 2


def test_setup_sample_is_taken_in_a_bare_process():
    sample = run.Caller(HERE.parent).setup()
    assert 0 < sample["setup_s"] < 5 and 0 < sample["reference_s"] < 1
    assert 0 < run.setup_seconds(sample) < 5


def _small_jobs():
    # reaches every layer in a fraction of a second
    full = bench_jobs._full_job("cyclic:3", (0, 1), ((3, 3), 1), "tests")
    image = bench_jobs._cli_job(
        ["abelianize", "--method", "image", "--group", "sym:3"],
        lambda out: out.endswith("Z^1\n"), "tests")
    return [bench_jobs._table_job(5, 5), bench_jobs._hall_job(5, 5), bench_jobs._pres_job(5, 5), full, image]


def test_traced_run_emits_exactly_the_benchmark_layer_names(modules):
    tracer = bench_trace.Tracer(modules)
    saved = {short: dict(vars(mod)) for short, mod in modules.items()}
    with tracer.installed() as api:
        results = bench_worker.run_jobs(_small_jobs(), api, tracer)
    assert {short: dict(vars(mod)) for short, mod in modules.items()} == saved
    assert [r["status"] for r in results] == ["ok"] * 5

    metrics = tracer.layer_metrics()
    traced = {"jobs": results, "layers": metrics}
    reported = run.per_layer({"traced": [traced], "plain": [traced]})
    assert {name: unit for name, (_, _, unit) in reported.items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for layer in bench_trace.LAYERS:
        assert metrics[layer + ".calls"] > 0, layer
    for name in bench_trace.COUNTS:
        if name != "abelianize.smith.empty_cols":
            assert metrics[name] > 0, name
    assert 0 < metrics["abelianize.smith.fill"] <= 1

    own = tracer.self_times()
    wall = sum(r["seconds"] for r in results)
    covered = sum(own[layer] for layer in bench_trace.LAYERS) + own[bench_trace.TRACING]
    assert (1 - run.COVERAGE_TOLERANCE) * wall <= covered <= wall


def test_counts_match_the_objects_they_describe(modules):
    tracer = bench_trace.Tracer(modules)
    with tracer.installed() as api:
        t = api.cosets.congruence_table(7, 7)
        pres = api.rewriting.subgroup_presentation(t)
        api.abelianize.smith_invariants([[2, 0, 0], [0, 0, 0]], 3)
    assert tracer.counts["cosets.cosets"] == t.n == bench_jobs.psl_index(7, 7)
    assert tracer.counts["rewriting.pres_gens"] == pres.n_generators
    assert tracer.counts["abelianize.smith.nnz"] == 1
    assert tracer.counts["abelianize.smith.empty_cols"] == 2
    assert tracer.layer_metrics()["abelianize.smith.fill"] == 1 / 6


def test_closed_forms_agree_with_the_package(modules):
    matgroup, abelianize = modules["matgroup"], modules["abelianize"]
    for m in range(1, 31):
        for n in range(1, m + 1):
            if m % n:
                continue
            assert bench_jobs.psl_index(m, n) == matgroup.psl_index_formula(m, n), (m, n)
            if m >= 2:
                inv = abelianize.predicted_invariants(m, n)
                assert bench_jobs.abelian_target_invariants(m, n) == (inv.torsion, inv.free_rank)


def test_inputs_come_from_the_seed(modules):
    api = types.SimpleNamespace(**modules)
    for workload in bench_jobs.WORKLOADS:
        first = [j.id for j in bench_jobs.make_jobs(workload, 7, api)]
        assert first == [j.id for j in bench_jobs.make_jobs(workload, 7, api)]
        assert first != [j.id for j in bench_jobs.make_jobs(workload, 8, api)]
    assert [m["name"] for m in BENCHMARK["workloads"]] == list(bench_jobs.WORKLOADS)


def test_command_refuses_a_checkout_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", HERE)  # holds no src/congsub
    assert run.main(["--workload", "level", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
