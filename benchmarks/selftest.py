"""Self-tests of the benchmark: fixture determinism, the output checker and the tracer.

They build small versions of each workload and run crrkit in-process. Run
them with ``PYTHONPATH=src python3 -m pytest benchmarks/selftest.py``; the
file name keeps them out of the default collection (see README.md).
"""

import contextlib
import csv
import io
import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import checker
import tracing
import workloads
from crrkit.cli import main

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

SMALL = {
    "estimate-survey-strata": replace(
        workloads.WORKLOADS["estimate-survey-strata"],
        strata=3, records_per_stratum=400, survey_per_stratum=60, bootstrap=5,
    ),
    "sensitivity-census-fine": replace(
        workloads.WORKLOADS["sensitivity-census-fine"], strata=4, records_per_stratum=300, bootstrap=5
    ),
    "verify-oracle": replace(workloads.WORKLOADS["verify-oracle"], draws=2000, oracle_n=20_000),
}


def run_small(name: str, seed: int, out_dir: Path) -> tuple[dict, int, str]:
    truth = workloads.build(name, seed, out_dir, SMALL[name])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(workloads.argv(name, out_dir, truth, SMALL[name]))
    return truth, code, out.getvalue()


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["estimate-survey-strata", "sensitivity-census-fine"])
def test_fixtures_repeat_for_a_seed_and_differ_across_seeds(tmp_path, name):
    for directory, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.build(name, seed, tmp_path / directory, SMALL[name])
    first, again, other = (files(tmp_path / d) for d in "abc")
    assert first == again
    assert first["admin.csv"] != other["admin.csv"]
    assert first["census.csv"] != other["census.csv"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checker_accepts_crrkit_output(tmp_path, name):
    truth, code, out = run_small(name, 7, tmp_path)
    assert checker.check(truth, code, out) == []


def test_checker_rejects_a_nonzero_exit(tmp_path):
    truth, code, out = run_small("sensitivity-census-fine", 7, tmp_path)
    assert code == 0
    assert checker.check(truth, 1, out) == ["exit code 1"]


@pytest.mark.parametrize("name", ["estimate-survey-strata", "sensitivity-census-fine"])
def test_checker_rejects_any_point_perturbed_by_1e_6(tmp_path, name):
    truth, code, out = run_small(name, 7, tmp_path)
    lines = out.splitlines()
    first_row = lines.index(",".join(("stratum", "estimand", "point", "lo", "hi", "flags"))) + 1
    assert len(lines) - first_row == len(checker.expected_rows(truth))
    for i in range(first_row, len(lines)):
        cells = next(csv.reader([lines[i]]))
        cells[2] = repr(float(cells[2]) + 1e-6)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(cells)
        perturbed = lines[:i] + [buf.getvalue()] + lines[i + 1:]
        assert checker.check(truth, code, "\n".join(perturbed) + "\n"), lines[i]


def test_checker_rejects_a_failed_verify_check(tmp_path):
    truth, code, out = run_small("verify-oracle", 7, tmp_path)
    records = [json.loads(line) for line in out.splitlines()]
    records[0]["passed"] = False
    assert checker.check(truth, code, "\n".join(json.dumps(r) for r in records))


def test_self_time_subtracts_child_spans_and_aggregates(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.leaf = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.install([tracing.Target("fake_layer", "leaf", "model.leaf", aggregate=True)])
    with tracer.span("cli.main") as root:
        with tracer.span("estimate.bootstrap"):
            pass
        fake.leaf()
    tracer.uninstall()
    assert fake.leaf() is None and tracer.aggregates == {("model.leaf", root): [1, 0.5]}
    assert tracer.self_times() == [7.5, 2.0]


def traced_small(name: str, out_dir: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        truth = workloads.build(name, 3, out_dir, SMALL[name])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with tracer.span("cli.main") as root:
                assert main(workloads.argv(name, out_dir, truth, SMALL[name])) == 0
    finally:
        tracer.uninstall()
    return tracing.per_layer_metrics(tracer, root, 0.0)


def test_traced_metrics_match_benchmark_json(tmp_path):
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    assert declared == tracing.PER_LAYER
    metrics = traced_small("sensitivity-census-fine", tmp_path)
    assert set(metrics) == set(declared)
    strata = SMALL["sensitivity-census-fine"].strata
    assert metrics["estimate.bootstrap.calls"] == 2 * strata
    assert metrics["estimate.bootstrap.replicates"] == 2 * strata * 5
    assert metrics["report.render.rows"] == 2 * strata
    assert metrics["simulate.sample_encounters.calls"] == strata
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_sum == pytest.approx(metrics["cli.main.s"])


def test_traced_verify_bypasses_dataio_and_estimate(tmp_path):
    metrics = traced_small("verify-oracle", tmp_path)
    for name in ("estimate.bootstrap.calls", "dataio.load_administrative.rows",
                 "dataio.load_survey.rows", "dataio.load_census.s"):
        assert metrics[name] == 0, name
    assert metrics["model.estimand_value.calls"] > 2000
    assert metrics["verify.checks_failed"] == 0
