"""Self-tests of the benchmark: streams, gates, tracer and the command.

    PYTHONPATH=src python3 -m pytest benchmarks/tests -q
"""

import csv
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import calibration
import gates
import reference
import run as bench
import workloads
from conftest import BENCH_DIR
from tracing import Tracer

import pacsqc
from pacsqc import correlations, special, states

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def first_round(workload, seed, out):
    return next(workloads.rounds(workload, seed, str(out)))


@pytest.fixture
def make_run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)

    def make(workload, seed=7):
        run = bench.Run(workload, seed, 1, 0)
        run.load()
        return run

    return make


def _rewrite_cell(path, row_index, column, transform):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows[row_index][column] = transform(rows[row_index][column])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_streams_are_seeded_with_a_fixed_composition():
    for workload in workloads.WORKLOADS:
        a = first_round(workload, 1, "o.csv")
        b = first_round(workload, 1, "o.csv")
        c = first_round(workload, 2, "o.csv")
        assert [r.argv for r in a] == [r.argv for r in b]
        assert [r.argv for r in a] != [r.argv for r in c]
        assert sorted((r.kind, r.items) for r in a) == sorted((r.kind, r.items) for r in c)


def test_sweep_round_covers_every_preset_both_axes_and_the_limits():
    requests = first_round("closed-form-sweep", 3, "o.csv")
    assert sorted(r.argv[1] for r in requests if r.kind == "figure") == sorted(reference.FIGURE_PRESETS)
    axes = {r.expect["axis"] for r in requests if r.kind != "figure"}
    assert axes == {"alpha2", "p"}
    assert max(m for r in requests for m in r.expect["m"]) == special.MAX_PHOTON_ORDER
    assert max(r.items for r in requests) == 100_000
    assert min(r.items for r in requests if r.kind != "figure") == 100


def test_reference_reproduces_the_package():
    for alpha2 in (-0.0, 0.0, 1e-9, 1e-4, 0.01, 0.37, 1.0, 3.99):
        for m in (0, 1, 3, 17, 64):
            for k in (0, 1):
                got = correlations.report(states.ModelParams(alpha2, m, k)).as_dict()
                want = reference.closed_form_row(alpha2, m, k)
                for name in reference.QUANTITIES:
                    if want[name] is None:
                        assert got[name] is None
                    else:
                        assert reference.same_value(got[name], want[name]), (alpha2, m, k, name)


def test_same_value_semantics():
    assert reference.same_value(-0.0, 0.0)
    assert reference.same_value(float("nan"), float("nan"))
    assert not reference.same_value(float("nan"), 0.0)
    x = 0.3
    assert reference.same_value(x + 2 * reference.math.ulp(x), x)
    assert not reference.same_value(x + 3 * reference.math.ulp(x), x)


@pytest.mark.parametrize("workload,limit", [("oracle-verify", 2), ("closed-form-sweep", 1600), ("root-scan", 1)])
def test_tiny_stream_passes_every_gate(make_run, workload, limit):
    run = make_run(workload)
    requests = [r for r in first_round(workload, 11, run.out) if r.items <= limit][:4]
    assert requests
    for request in requests:
        run.run_one(request)
    run.oracle_check()
    assert [o.error for o in run.outcomes] == [None] * len(requests)
    assert bench.count_failures(run.outcomes) == 0


def test_corrupted_sweep_row_counts_as_a_failure(make_run, monkeypatch):
    run = make_run("closed-form-sweep")
    request = next(r for r in first_round("closed-form-sweep", 5, run.out) if r.kind == "sweep-S")
    run.run_one(request)
    assert run.outcomes[-1].error is None
    real_execute = bench.execute

    def corrupting(*args, **kwargs):
        result = real_execute(*args, **kwargs)
        _rewrite_cell(run.out, 7, 1, lambda cell: repr(float(cell) * (1.0 + 1e-12)))
        return result

    monkeypatch.setattr(bench, "execute", corrupting)
    run.run_one(request)
    assert "row 7" in run.outcomes[-1].error
    assert bench.count_failures(run.outcomes) == 1


def test_out_of_bound_verify_deviation_counts_as_a_failure(make_run, monkeypatch):
    run = make_run("oracle-verify")
    request = next(r for r in first_round("oracle-verify", 5, run.out) if r.items == 1)
    real_execute = bench.execute
    column = 4 + list(reference.FIELD_BOUNDS).index("D12")

    def corrupting(*args, **kwargs):
        result = real_execute(*args, **kwargs)
        _rewrite_cell(run.out, 1, column, lambda cell: repr(2 * reference.FIELD_BOUNDS["D12"]))
        return result

    monkeypatch.setattr(bench, "execute", corrupting)
    run.run_one(request)
    assert "dev_D12" in run.outcomes[-1].error
    assert bench.count_failures(run.outcomes) == 1


def test_verify_exit_status_two_is_a_failure(make_run):
    run = make_run("oracle-verify")
    request = next(r for r in first_round("oracle-verify", 5, run.out) if r.items == 1)
    request.argv += ["--tolerance", "1e-30"]
    run.run_one(request)
    assert "FIELD_BOUNDS" in run.outcomes[-1].error


def test_root_scan_gate_rejects_wrong_answers():
    refs = gates.load_root_references()
    root = refs["threshold"][(0, 1)]
    line = f"threshold m=0 k=1: alpha2* = {root + 5e-6!r} p* = 0.8"
    assert gates.check_threshold({"m": 0, "k": 1}, 0, line, refs) is not None
    assert gates.check_threshold({"m": 0, "k": 1}, 0, "threshold m=0 k=1: monogamous everywhere", refs)
    assert gates.check_threshold({"m": 9, "k": 1}, 0, "threshold m=9 k=1: monogamous everywhere", refs) is None
    arg, peak = refs["peak"][(4, 0)]
    assert gates.check_peak({"m": 4, "k": 0}, (arg, peak), refs) is None
    assert gates.check_peak({"m": 4, "k": 0}, (arg + 1e-9, peak), refs) is not None


def test_oracle_check_rejects_a_shifted_value():
    from pacsqc import fock_oracle

    values = {"S1": correlations.report(states.ModelParams(0.8, 2, 1)).S1}
    assert gates.check_against_oracle(fock_oracle, correlations, states, 0.8, 2, 1, values) is None
    values["S1"] += 1e-6
    assert gates.check_against_oracle(fock_oracle, correlations, states, 0.8, 2, 1, values) is not None


def test_tracer_spans_self_time_and_restore():
    original = correlations.binary_entropy
    tracer = Tracer()
    tracer.install(pacsqc)
    try:
        assert correlations.binary_entropy is not original
        tracer.span("bench.request", lambda: correlations.report(states.ModelParams(0.5, 1, 0)))
    finally:
        tracer.uninstall()
    assert correlations.binary_entropy is original and states.kappa is special.kappa
    assert tracer.calls["correlations.report"] == 1
    assert tracer.under_anchor["special.kappa"] == 5
    assert tracer.calls["states.ModelParams"] == 1
    ids = {span[0] for span in tracer.spans}
    assert all(span[1] == 0 or span[1] in ids for span in tracer.spans)
    assert {span[2] for span in tracer.spans} == {1}
    total_self = sum(tracer.self_time.values())
    assert total_self == pytest.approx(tracer.inclusive["bench.request"], rel=1e-9)


def test_speed_probe_scales_to_reference_speed(monkeypatch):
    monkeypatch.setattr(calibration, "kernel", lambda: 2 * calibration.REFERENCE_S)
    with calibration.SpeedProbe(sample_inside=False) as probe:
        pass
    assert len(probe.passes) == 2 * calibration.BRACKET_PASSES
    assert probe.scale() == pytest.approx(0.5)


def test_speed_probe_samples_inside_the_call_and_restores_sigalrm():
    handler = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.passes) > 2 * calibration.BRACKET_PASSES
    assert 0 < probe.inside_s < 0.3
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    done = _bench(["--workload", "root-scan", "--seed", "3", "--seconds", "1", "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared
    if trace == "1":
        assert result["metrics"]["states.xstate.calls"]["value"] == 0


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _bench(["--workload", "root-scan", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_matches_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
