"""CLI tests: subcommand behaviour, exit codes, output schema stability."""

import csv
import gc
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import crrkit
import crrkit.verify
from crrkit.cli import MAX_SIZE, main
from crrkit.dataio import write_model_file
from crrkit.model import Estimand, PopulationModel, weights_of
from crrkit.verify import TOY_MODEL, sign_reversal_witnesses

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def toy_model_file(tmp_path):
    path = tmp_path / "toy.json"
    write_model_file(TOY_MODEL, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv_rows(out):
    content = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
    return list(csv.DictReader(io.StringIO(content)))


def point_of(rows, estimand, with_flag=None):
    for row in rows:
        if row["estimand"] != estimand:
            continue
        if with_flag and with_flag not in row["flags"].split(";"):
            continue
        return float(row["point"])
    raise AssertionError(f"no row for {estimand} ({with_flag})")


class TestSimulate:
    def test_writes_three_artifacts(self, capsys, tmp_path, toy_model_file):
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys,
            ["simulate", "--model-file", toy_model_file, "--n", "5000",
             "--seed", "5", "--out-dir", str(out_dir)],
        )
        assert code == 0
        assert (out_dir / "encounters.csv").exists()
        assert (out_dir / "administrative.csv").exists()
        oracle = json.loads((out_dir / "oracle.json").read_text())
        assert oracle["n"] == 5000
        assert oracle["seed"] == 5
        assert set(oracle["estimands"]) >= {"ate", "crr", "naive_rr"}
        assert oracle["estimands"]["ate"]["se"] is not None
        crr = oracle["estimands"]["crr"]
        assert abs(crr["value"] - 3.0) <= 4 * crr["se"]
        assert "se=" in out

    def test_never_stopped_gives_empty_administrative(self, capsys, tmp_path):
        model = PopulationModel(0.5, 0.0, 0.0, 0.0, 1.0, 0.1, 0.1)
        model_file = tmp_path / "never.json"
        write_model_file(model, model_file)
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys,
            ["simulate", "--model-file", str(model_file), "--n", "200",
             "--seed", "1", "--out-dir", str(out_dir)],
        )
        assert code == 0
        lines = (out_dir / "administrative.csv").read_text().splitlines()
        assert lines == ["d,y,x"]

    def test_same_seed_byte_identical_outputs(self, capsys, tmp_path, toy_model_file):
        outputs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run(
                capsys,
                ["simulate", "--model-file", toy_model_file, "--n", "2000",
                 "--seed", "77", "--out-dir", str(out_dir)],
            )
            assert code == 0
            outputs.append(
                tuple(
                    (out_dir / f).read_bytes()
                    for f in ("encounters.csv", "administrative.csv", "oracle.json")
                )
            )
        assert outputs[0] == outputs[1]

    def test_shards_flag_is_exit_2(self, capsys, tmp_path, toy_model_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model-file", toy_model_file, "--n", "100",
                  "--shards", "2", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err


class TestEstimands:
    def test_witness_contrast_in_output(self, capsys, tmp_path):
        model_file = tmp_path / "w1.json"
        write_model_file(sign_reversal_witnesses()[0].model, model_file)
        code, out, _ = run(
            capsys, ["estimands", "--model-file", str(model_file), "--format", "csv"]
        )
        assert code == 0
        rows = parse_csv_rows(out)
        assert point_of(rows, "ATE_M1", "contrast") == pytest.approx(-0.003884, abs=5e-7)

    def test_symmetric_model_crr_is_one(self, capsys, tmp_path):
        model = PopulationModel(0.5, 0.3, 0.2, 0.2, 0.3, 0.4, 0.4)
        model_file = tmp_path / "sym.json"
        write_model_file(model, model_file)
        code, out, _ = run(
            capsys, ["estimands", "--model-file", str(model_file), "--format", "csv"]
        )
        rows = parse_csv_rows(out)
        assert point_of(rows, "CRR") == pytest.approx(1.0, rel=1e-12)

    def test_decomposition_rows_sum_to_ate(self, capsys, tmp_path, toy_model_file):
        code, out, _ = run(
            capsys, ["estimands", "--model-file", toy_model_file, "--format", "csv"]
        )
        rows = parse_csv_rows(out)
        pie, pde = point_of(rows, "PIE"), point_of(rows, "PDE")
        assert pie + pde == pytest.approx(point_of(rows, "ATE", "contrast"), abs=1e-12)

    def test_zero_mass_rows_are_flagged(self, capsys, tmp_path):
        model = PopulationModel(0.5, 0.0, 0.0, 0.0, 1.0, 0.1, 0.1)
        model_file = tmp_path / "never.json"
        write_model_file(model, model_file)
        code, out, _ = run(
            capsys, ["estimands", "--model-file", str(model_file), "--format", "csv"]
        )
        assert code == 0
        rows = parse_csv_rows(out)
        m1_rows = [r for r in rows if r["estimand"] == "ATE_M1"]
        assert all(r["point"] == "undefined" for r in m1_rows)
        assert all("undefined" in r["flags"] for r in m1_rows)


class TestGolden:
    """Field names and layout of csv / json-lines output are frozen."""

    @pytest.fixture
    def witness_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_model_file(sign_reversal_witnesses()[0].model, "witness1.json")
        return "witness1.json"

    def test_estimands_csv_golden(self, capsys, witness_file):
        code, out, _ = run(
            capsys, ["estimands", "--model-file", witness_file, "--format", "csv"]
        )
        assert code == 0
        assert out == (GOLDEN / "estimands_witness1.csv").read_text()

    def test_estimands_jsonl_golden(self, capsys, witness_file):
        code, out, _ = run(
            capsys, ["estimands", "--model-file", witness_file, "--format", "json-lines"]
        )
        assert code == 0
        assert out == (GOLDEN / "estimands_witness1.jsonl").read_text()

    def test_estimate_census_survey_strata_golden(self, capsys, strata_inputs):
        code, out, _ = run(capsys, ESTIMATE_STRATA_ARGV)
        assert code == 0
        assert out == (GOLDEN / "estimate_census_survey_strata.csv").read_text()

    def test_sensitivity_census_golden(self, capsys, strata_inputs):
        code, out, _ = run(capsys, SENSITIVITY_ARGV)
        assert code == 0
        assert out == (GOLDEN / "sensitivity_census.csv").read_text()

    def test_estimate_haldane_b1000_golden(self, capsys, strata_inputs):
        argv = ESTIMATE_STRATA_ARGV[:]
        argv[argv.index("--bootstrap") + 1] = "1000"
        code, out, _ = run(capsys, argv + ["--haldane"])
        assert code == 0
        assert out == (GOLDEN / "estimate_haldane_b1000.csv").read_text()

    def test_verify_jsonl_golden(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--format", "json-lines", "--draws", "2000", "--oracle-n", "200000",
             "--seed", "1729"],
        )
        assert code == 0
        assert out == (GOLDEN / "verify_seed1729.jsonl").read_text()

    def test_simulate_artifacts_are_pinned(self, capsys, tmp_path, toy_model_file):
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys,
            ["simulate", "--model-file", toy_model_file, "--n", "65537", "--seed", "2026",
             "--out-dir", str(out_dir)],
        )
        assert code == 0
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("encounters.csv", "administrative.csv", "oracle.json")
        }
        assert digests == {
            "encounters.csv": "e9420019253004d0ff1c2b61154d2bc021048bb64af1fefb783745b7af1968df",
            "administrative.csv": "3eca538fee0307d49329c590ffbe4ea000ff4c9e2953b6b8e381d29340a312a6",
            "oracle.json": "5d4e407a3beb9ee607edbcb7433c27b3758344a70b1439cd64279af685702eb9",
        }


@pytest.fixture
def strata_inputs(tmp_path, monkeypatch):
    """Admin, census, survey and config files in the working directory.

    Stratum ``zero`` has no majority force rows, so every estimate there is
    undefined; ``tiny`` has so few rows that some replicates are undefined;
    ``all`` is a stratum whose name matches the pooled label; ``b`` has no
    survey respondents.
    """
    monkeypatch.chdir(tmp_path)
    cells = {  # stratum: counts of (d=1,y=1), (d=1,y=0), (d=0,y=1), (d=0,y=0)
        "a": (6, 14, 4, 16),
        "b": (3, 9, 5, 23),
        "tiny": (2, 3, 1, 4),
        "zero": (5, 0, 0, 5),
        "all": (4, 6, 3, 12),
    }
    admin = ["d,y,x"]
    for x, counts in cells.items():
        for (d, y), count in zip(((1, 1), (1, 0), (0, 1), (0, 0)), counts):
            admin += [f"{d},{y},{x}"] * count
    Path("admin.csv").write_text("\n".join(admin) + "\n")
    Path("census.csv").write_text(
        "stratum,count_d1,count_d0\na,300,700\nb,450,550\ntiny,20,80\nzero,50,50\nall,250,750\n"
    )
    survey = ["race,x"]
    for x, minority, majority in (("a", 7, 13), ("tiny", 3, 9), ("zero", 5, 5), ("all", 4, 12)):
        survey += [f"1,{x}"] * minority + [f"0,{x}"] * majority
    Path("survey.csv").write_text("\n".join(survey) + "\n")
    Path("config.json").write_text(json.dumps({"schema": {"survey": {"stratum_columns": ["x"]}}}))


ESTIMATE_STRATA_ARGV = [
    "estimate", "--admin", "admin.csv", "--census", "census.csv", "--survey", "survey.csv",
    "--config", "config.json", "--strata", "all", "--bootstrap", "40", "--seed", "11",
    "--format", "csv",
]
SENSITIVITY_ARGV = [
    "sensitivity", "--admin", "admin.csv", "--census", "census.csv", "--lambda", "0.8",
    "--citywide-p1", "0.367", "--bootstrap", "40", "--seed", "11", "--format", "csv",
]


def test_estimation_leaves_numpy_ma_unimported(strata_inputs):
    # numpy.ma costs a fresh process about 1.3 MiB and 15 ms; np.quantile imports it
    script = (
        "import sys\n"
        "from crrkit.cli import main\n"
        f"assert main({ESTIMATE_STRATA_ARGV!r}) == 0\n"
        f"assert main({SENSITIVITY_ARGV!r}) == 0\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = str(Path(crrkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "False"


def test_undefined_replicates_leave_only_the_loader_summaries_on_stderr(strata_inputs):
    # strata "zero" and "tiny" have undefined replicates, whose rows divide by zero;
    # a fresh process, so no filter of the test run can hide a numpy warning
    src = str(Path(crrkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "crrkit.cli", *ESTIMATE_STRATA_ARGV], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert "undefined_replicates=" in done.stdout
    assert done.stderr.splitlines() == [
        f"{name}: {n} loaded, 0 dropped (unmapped race), 0 unparseable of {n} data rows"
        for name, n in (("admin.csv", 125), ("census.csv", 5), ("survey.csv", 58))
    ]


def test_estimation_imports_only_what_it_runs(strata_inputs):
    script = (
        "import sys\n"
        "import crrkit\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('crrkit.'))\n"
        "after_import = loaded()\n"
        "from crrkit.cli import main\n"
        f"assert main({ESTIMATE_STRATA_ARGV!r}) == 0\n"
        f"assert main({SENSITIVITY_ARGV!r}) == 0\n"
        "print(after_import, loaded(), sep='\\n', file=sys.stderr)\n"
    )
    src = str(Path(crrkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    after_import, after_commands = done.stderr.splitlines()[-2:]
    assert after_import == "[]"  # import crrkit loads no submodule
    assert after_commands == str(
        ["crrkit.cli", "crrkit.dataio", "crrkit.errors", "crrkit.estimate", "crrkit.report"]
    )



def test_verify_imports_only_what_it_runs():
    script = (
        "import sys\n"
        "from crrkit.cli import main\n"
        # exit 1 is a failed check: 50 draws of seed 1729 hold no ATE_M1 sign-reversal witness
        "assert main(['verify', '--draws', '50', '--oracle-n', '1000']) in (0, 1)\n"
        "print(sorted(m for m in sys.modules if m.startswith('crrkit.')), file=sys.stderr)\n"
    )
    src = str(Path(crrkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == str(
        ["crrkit.cli", "crrkit.errors", "crrkit.model", "crrkit.report", "crrkit.simulate",
         "crrkit.verify"]
    )


@pytest.mark.parametrize("exit_code", [0, 1, 2])
def test_entrypoint_freezes_the_heap_after_main_and_exits_with_its_code(
    monkeypatch, exit_code
):
    import crrkit.cli

    calls = []
    monkeypatch.setattr(crrkit.cli, "main", lambda: calls.append("main") or exit_code)
    # recorded, not run: a frozen heap would outlive this test in the test process
    monkeypatch.setattr(crrkit.cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exited:
        crrkit.cli.entrypoint()
    assert exited.value.code == exit_code
    assert calls == ["main", "freeze"]


def test_main_in_process_leaves_the_heap_unfrozen(capsys, strata_inputs):
    frozen = gc.get_freeze_count()
    assert run(capsys, SENSITIVITY_ARGV)[0] == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (ESTIMATE_STRATA_ARGV, 0),
        # 50 draws of seed 1729 hold no ATE_M1 sign-reversal witness
        (["verify", "--draws", "50", "--oracle-n", "1000"], 1),
        (["estimate", "--admin", "admin.csv", "--bootstrap", "1"], 2),
    ],
)
def test_cli_process_prints_and_exits_as_main_in_process(capsys, strata_inputs, argv, exit_code):
    src = str(Path(crrkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "crrkit.cli", *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, argv)
    assert done.returncode == exit_code


def test_package_exports_resolve():
    for name in crrkit.__all__:
        module = importlib.import_module(f"crrkit.{crrkit._EXPORTS[name]}")
        expected = module if name == "errors" else getattr(module, name)
        assert getattr(crrkit, name) is expected, name
    namespace: dict = {}
    exec("from crrkit import *", namespace)
    assert set(crrkit.__all__) <= set(namespace)
    assert set(crrkit.__all__) <= set(dir(crrkit))
    with pytest.raises(AttributeError, match="no_such_name"):
        crrkit.no_such_name


def test_cli_keeps_the_names_the_benchmark_tracer_patches(monkeypatch, capsys):
    import crrkit.cli

    for name in ("bootstrap", "render", "run_verification", "stratified_estimates"):
        assert callable(getattr(crrkit.cli, name)), name
    # the cli's run_verification looks the verify module's function up on each call
    monkeypatch.setattr(crrkit.verify, "run_verification", lambda **kwargs: [])
    code, out, _ = run(capsys, ["verify"])
    assert (code, out.splitlines()[-1]) == (0, "0/0 checks passed")


@pytest.fixture
def simulated_inputs(capsys, tmp_path, toy_model_file):
    out_dir = tmp_path / "sim"
    code = main(
        ["simulate", "--model-file", toy_model_file, "--n", "20000",
         "--seed", "5", "--out-dir", str(out_dir)]
    )
    capsys.readouterr()
    assert code == 0
    census = tmp_path / "census.csv"
    census.write_text("stratum,count_d1,count_d0\nall,500,500\n")
    return str(out_dir / "administrative.csv"), str(census)


class TestEstimate:
    def test_naive_only_without_external(self, capsys, simulated_inputs):
        admin, _ = simulated_inputs
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", admin, "--bootstrap", "100", "--seed", "3",
             "--format", "csv"],
        )
        assert code == 0
        rows = parse_csv_rows(out)
        names = {r["estimand"] for r in rows}
        assert names == {"naive-rd", "naive-rr"}

    def test_adjusted_rows_with_census(self, capsys, simulated_inputs):
        admin, census = simulated_inputs
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", admin, "--census", census,
             "--bootstrap", "200", "--seed", "3", "--format", "csv"],
        )
        assert code == 0
        rows = parse_csv_rows(out)
        names = [r["estimand"] for r in rows]
        assert names == ["naive-rd", "naive-rr", "bias-factor", "adjusted-crr"]
        adjusted = point_of(rows, "adjusted-crr")
        assert adjusted == pytest.approx(
            point_of(rows, "naive-rr") * point_of(rows, "bias-factor"), rel=1e-9
        )
        # the matching external recovers the generating model's true ratio
        adjusted_row = [r for r in rows if r["estimand"] == "adjusted-crr"][0]
        assert float(adjusted_row["lo"]) <= 3.0 <= float(adjusted_row["hi"])
        # CI bounds present for every row
        assert all(r["lo"] and r["hi"] for r in rows)

    def test_matching_external_gives_bias_factor_one(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        rows = ["d,y,x"] + ["1,1,all"] * 3 + ["1,0,all"] * 3 + ["0,1,all"] * 2 + ["0,0,all"] * 2
        admin.write_text("\n".join(rows) + "\n")
        census = tmp_path / "census.csv"
        census.write_text("stratum,count_d1,count_d0\nall,60,40\n")
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", str(admin), "--census", str(census),
             "--bootstrap", "50", "--seed", "3", "--format", "csv"],
        )
        rows = parse_csv_rows(out)
        assert point_of(rows, "bias-factor") == pytest.approx(1.0, rel=1e-12)
        assert point_of(rows, "adjusted-crr") == pytest.approx(
            point_of(rows, "naive-rr"), rel=1e-12
        )

    def test_stratified_rows(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        lines = ["d,y,x"]
        lines += ["1,1,a", "1,0,a", "0,1,a", "0,0,a"] * 10
        lines += ["1,1,b", "1,0,b", "0,1,b", "0,0,b"] * 10
        admin.write_text("\n".join(lines) + "\n")
        census = tmp_path / "census.csv"
        census.write_text("stratum,count_d1,count_d0\na,30,70\nb,60,40\n")
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", str(admin), "--census", str(census),
             "--strata", "all", "--bootstrap", "50", "--seed", "3", "--format", "csv"],
        )
        assert code == 0
        rows = parse_csv_rows(out)
        strata_rows = [r for r in rows if r["stratum"] in ("a", "b")]
        assert {(r["stratum"], r["estimand"]) for r in strata_rows} == {
            ("a", "naive-rr"), ("a", "adjusted-crr"),
            ("b", "naive-rr"), ("b", "adjusted-crr"),
        }

    def test_survey_external(self, capsys, tmp_path, simulated_inputs):
        admin, _ = simulated_inputs
        survey = tmp_path / "survey.csv"
        survey.write_text(
            "race,stop_public,stop_vehicle,stop_other,contacts,large_metro\n"
            + "1,0,1,0,2,1\n" * 50
            + "0,0,1,0,2,1\n" * 50
        )
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", admin, "--survey", str(survey),
             "--survey-mode", "mv-stop", "--bootstrap", "100", "--seed", "3",
             "--format", "csv"],
        )
        assert code == 0
        rows = parse_csv_rows(out)
        adjusted = [r for r in rows if r["estimand"] == "adjusted-crr"]
        assert len(adjusted) == 1
        assert "survey-mv-stop" in adjusted[0]["flags"]

    def test_haldane_flag_labeled(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        rows = ["d,y,x"] + ["1,1,all"] * 5 + ["0,0,all"] * 5
        admin.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", str(admin), "--haldane",
             "--bootstrap", "50", "--seed", "3", "--format", "csv"],
        )
        assert code == 0
        parsed = parse_csv_rows(out)
        naive = [r for r in parsed if r["estimand"] == "naive-rr"][0]
        assert "haldane" in naive["flags"]
        assert naive["point"] != "undefined"

    def test_undefined_rows_render_with_reason(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        rows = ["d,y,x"] + ["1,1,all"] * 5 + ["0,0,all"] * 5  # zero denominator
        admin.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", str(admin), "--bootstrap", "50", "--seed", "3",
             "--format", "csv"],
        )
        assert code == 0
        parsed = parse_csv_rows(out)
        naive = [r for r in parsed if r["estimand"] == "naive-rr"][0]
        assert naive["point"] == "undefined"
        assert "ZeroDenominatorError" in naive["flags"]

    def test_too_many_undefined_row_renders_with_reason(self, capsys, tmp_path):
        # the point (RR 2) is defined, but a resample of the three rows misses
        # the minority row or the forced majority row with probability 15/27,
        # about 5 SD above one half at 2000 replicates
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,all\n0,1,all\n0,0,all\n")
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", str(admin), "--bootstrap", "2000", "--format", "csv"],
        )
        assert code == 0
        naive = [r for r in parse_csv_rows(out) if r["estimand"] == "naive-rr"][0]
        assert naive["point"] == "undefined"
        assert naive["flags"].endswith("undefined;TooManyUndefinedError")

    def test_one_bootstrap_per_rendered_row(self, capsys, monkeypatch, strata_inputs):
        # one batch holds the command's requests: one per rendered row, none recomputed
        import crrkit.estimate

        calls = []

        def counting(data, requests, **options):
            calls.append(len(requests))
            return batch(data, requests, **options)

        batch = crrkit.estimate.bootstrap_batch
        monkeypatch.setattr(crrkit.estimate, "bootstrap_batch", counting)
        code, out, _ = run(capsys, ESTIMATE_STRATA_ARGV)
        assert code == 0
        assert calls == [len(parse_csv_rows(out))]


@pytest.fixture
def equivalence_inputs(tmp_path, monkeypatch):
    """Admin, census, weighted-survey and config files in the working directory.

    Stratum ``zero`` has no majority force rows, so its points are undefined, and ``few``
    has three rows, so at large B most of its replicates are undefined.
    """
    monkeypatch.chdir(tmp_path)
    cells = {  # stratum: counts of (d=1,y=1), (d=1,y=0), (d=0,y=1), (d=0,y=0)
        "a": (6, 14, 4, 16), "b": (3, 9, 5, 23), "zero": (5, 0, 0, 5), "few": (1, 0, 1, 1),
    }
    admin = ["d,y,x"]
    for x, counts in cells.items():
        for (d, y), count in zip(((1, 1), (1, 0), (0, 1), (0, 0)), counts):
            admin += [f"{d},{y},{x}"] * count
    Path("admin.csv").write_text("\n".join(admin) + "\n")
    Path("census.csv").write_text(
        "stratum,count_d1,count_d0\na,300,700\nb,450,550\nzero,50,50\nfew,20,80\n"
    )
    survey = ["race,contacts,x"]
    for i, x in enumerate(("a", "b", "zero", "few")):
        survey += [f"1,{1 + (i + j) % 4},{x}" for j in range(6)]
        survey += [f"0,{1 + (i * j) % 3},{x}" for j in range(11)]
    Path("survey.csv").write_text("\n".join(survey) + "\n")
    Path("config.json").write_text(json.dumps({"schema": {"survey": {"stratum_columns": ["x"]}}}))


class TestOneBatchPerCommand:
    """``estimate`` and ``sensitivity`` bootstrap all their rows in one batch."""

    @pytest.mark.parametrize("replicates", ["2", "1000"])
    @pytest.mark.parametrize("haldane", [[], ["--haldane"]], ids=["plain", "haldane"])
    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--census", "census.csv", "--survey", "survey.csv",
             "--survey-mode", "weighted", "--config", "config.json", "--strata", "all"],
            ["sensitivity", "--census", "census.csv", "--lambda", "0.6",
             "--citywide-p1", "0.4", "--strata", "all"],
        ],
        ids=["estimate", "sensitivity"],
    )
    def test_every_row_equals_a_lone_bootstrap_call(
        self, capsys, monkeypatch, equivalence_inputs, command, haldane, replicates
    ):
        import crrkit.estimate
        from crrkit.errors import (
            EstimandUndefinedError, TooManyUndefinedError, ZeroDenominatorError
        )
        from crrkit.estimate import bootstrap

        batches = []

        def recording(data, requests, **options):
            results = batch(data, requests, **options)
            batches.append((data, requests, options, results))
            return results

        batch = crrkit.estimate.bootstrap_batch
        monkeypatch.setattr(crrkit.estimate, "bootstrap_batch", recording)
        argv = [*command, "--admin", "admin.csv", *haldane, "--bootstrap", replicates,
                "--seed", "5", "--format", "csv"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        [(data, requests, options, results)] = batches
        rows = parse_csv_rows(out)
        assert len(rows) == len(requests) == len(results)
        kinds = set()
        for row, (statistic, external, x, seed), result in zip(rows, requests, results):
            try:
                lone = bootstrap(statistic, data, external, x=x, seed=seed, **options)
            except (EstimandUndefinedError, TooManyUndefinedError) as exc:
                lone = exc
            kinds.add(type(lone))
            if isinstance(lone, Exception):
                assert (type(result), str(result)) == (type(lone), str(lone))
                assert row["point"] == "undefined"
                assert row["flags"].endswith(type(lone).__name__)
                continue
            assert result == lone
            assert [row[k] for k in ("point", "lo", "hi")] == [
                f"{v:.10g}" for v in (lone.point, lone.lo, lone.hi)
            ]
            flag = f"undefined_replicates={lone.undefined_replicates}"
            assert (flag in row["flags"].split(";")) == (lone.undefined_replicates > 0)
        if not haldane:  # the 0.5 correction leaves every row here defined
            assert ZeroDenominatorError in kinds  # stratum zero's points
            assert (TooManyUndefinedError in kinds) == (replicates == "1000")  # stratum few

    def test_sensitivity_evaluates_once_with_one_generator_per_stratum(
        self, capsys, monkeypatch, strata_inputs
    ):
        # the unmixed and mixed rows of a stratum share its record draw
        import numpy as np

        import crrkit.estimate

        counts = {"crr": 0, "rng": 0}
        crr, reads_share = crrkit.estimate._FORMULAS[crrkit.estimate.crr_identified]
        default_rng = np.random.default_rng

        def counting_crr(*args):
            counts["crr"] += 1
            return crr(*args)

        def counting_rng(*args, **kwargs):
            counts["rng"] += 1
            return default_rng(*args, **kwargs)

        monkeypatch.setitem(
            crrkit.estimate._FORMULAS, crrkit.estimate.crr_identified, (counting_crr, reads_share)
        )
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        code, out, _ = run(capsys, SENSITIVITY_ARGV)
        assert code == 0
        strata = {row["stratum"] for row in parse_csv_rows(out)}
        assert len(parse_csv_rows(out)) == 2 * len(strata) == 10
        # one generator for the per-stratum seeds, then one per stratum
        assert counts == {"crr": 1, "rng": 1 + len(strata)}


class TestOneSeedPerScope:
    """Scope i, in the order a command's rows first name the scopes, takes seed i of one draw."""

    @staticmethod
    def recorded_batch(capsys, monkeypatch, argv):
        import crrkit.estimate

        batches = []

        def recording(data, requests, **options):
            batches.append(requests)
            return batch(data, requests, **options)

        batch = crrkit.estimate.bootstrap_batch
        monkeypatch.setattr(crrkit.estimate, "bootstrap_batch", recording)
        code, out, _ = run(capsys, argv)
        assert code == 0
        [requests] = batches
        return requests, parse_csv_rows(out)

    @pytest.mark.parametrize("argv", [ESTIMATE_STRATA_ARGV, SENSITIVITY_ARGV],
                             ids=["estimate", "sensitivity"])
    def test_rows_of_a_scope_share_one_seed(self, capsys, monkeypatch, strata_inputs, argv):
        import numpy as np

        requests, rows = self.recorded_batch(capsys, monkeypatch, argv)
        scopes = list(dict.fromkeys(x for _, _, x, _ in requests))
        assert len(scopes) == (6 if argv[0] == "estimate" else 5)  # estimate adds the pool
        assert (scopes[0] is None) == (argv[0] == "estimate")
        draw = np.random.default_rng(11).integers(0, 2**63, size=len(scopes)).tolist()
        assert len(set(draw)) == len(scopes)
        assert [seed for *_, seed in requests] == [draw[scopes.index(x)] for _, _, x, _ in requests]
        assert len(rows) == len(requests)

    def test_adjusted_replicates_are_naive_times_bias_factor(
        self, capsys, monkeypatch, strata_inputs
    ):
        # every pooled row shares one record draw and the survey rows one share draw, so
        # CRR = RR x BF holds on each replicate for the census and for the survey
        import numpy as np

        import crrkit.estimate

        kept = []

        def recording(values, levels):
            kept.append(values)
            return percentile_ends(values, levels)

        percentile_ends = crrkit.estimate._percentile_ends
        monkeypatch.setattr(crrkit.estimate, "_percentile_ends", recording)
        requests, _ = self.recorded_batch(capsys, monkeypatch, ESTIMATE_STRATA_ARGV)
        # the batch's rows come scope by scope, each scope's in request order
        scopes = list(dict.fromkeys(x for _, _, x, _ in requests))
        order = sorted(range(len(requests)), key=lambda i: scopes.index(requests[i][2]))
        [values] = kept
        pooled = {  # (statistic, whether its source is a survey): replicates, NaN if undefined
            (statistic.__name__, external and external.resampled): values[j]
            for j, (statistic, external, x, _) in enumerate(requests[i] for i in order)
            if x is None
        }
        naive = pooled["naive_risk_ratio", None]
        for survey in (False, True):
            product = naive * pooled["bias_factor", survey]
            np.testing.assert_array_equal(pooled["crr_identified", survey], product)
        assert not np.isnan(naive).all()


class TestSensitivity:
    def test_lambda_one_matches_unmixed(self, capsys, simulated_inputs):
        admin, census = simulated_inputs
        code, out, _ = run(
            capsys,
            ["sensitivity", "--admin", admin, "--census", census,
             "--lambda", "1.0", "--citywide-p1", "0.367",
             "--bootstrap", "100", "--seed", "3", "--format", "csv"],
        )
        assert code == 0
        rows = parse_csv_rows(out)
        unmixed = point_of(rows, "adjusted-crr", "unmixed")
        mixed = point_of(rows, "adjusted-crr", "mixed")
        assert mixed == unmixed

    def test_mixture_moves_extreme_strata(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        lines = ["d,y,x"] + ["1,1,w", "1,0,w", "0,1,w", "0,0,w"] * 20
        admin.write_text("\n".join(lines) + "\n")
        census = tmp_path / "census.csv"
        census.write_text("stratum,count_d1,count_d0\nw,5,95\n")  # extreme share
        points = {}
        for lam in ("1.0", "0.9"):
            code, out, _ = run(
                capsys,
                ["sensitivity", "--admin", str(admin), "--census", str(census),
                 "--lambda", lam, "--citywide-p1", "0.367",
                 "--bootstrap", "50", "--seed", "3", "--format", "csv"],
            )
            assert code == 0
            points[lam] = point_of(parse_csv_rows(out), "adjusted-crr", "mixed")
        # pulling toward the citywide share shrinks the adjusted ratio here
        assert points["0.9"] < points["1.0"]

    def test_requires_census_and_parameters(self, capsys, simulated_inputs):
        admin, census = simulated_inputs
        code, _, err = run(
            capsys,
            ["sensitivity", "--admin", admin, "--census", census, "--lambda", "0.9"],
        )
        assert code == 2
        assert "citywide" in err
        code, _, err = run(
            capsys,
            ["sensitivity", "--admin", admin, "--census", census, "--citywide-p1", "0.4"],
        )
        assert code == 2
        assert "--lambda is required" in err

    @pytest.mark.parametrize("flag", [["--survey", "survey.csv"], ["--survey-mode", "all"]])
    def test_survey_flags_rejected(self, capsys, simulated_inputs, flag):
        admin, census = simulated_inputs
        with pytest.raises(SystemExit) as exc:
            main(["sensitivity", "--admin", admin, "--census", census, "--lambda", "0.9",
                  "--citywide-p1", "0.3", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--draws", "2000", "--oracle-n", "20000"]
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 8

    def test_perturbation_fails_the_witness_check(self, capsys, monkeypatch):
        # inflating one stratum weight of the ATE_M1 witnesses must fail the suite
        def perturbed(estimand, model):
            weights = weights_of(estimand, model)
            if estimand is Estimand.ATE_M1:
                weights = replace(weights, w_mi=weights.w_mi + 0.01)
            return weights

        monkeypatch.setattr(crrkit.verify, "weights_of", perturbed)
        code, out, _ = run(capsys, ["verify", "--draws", "500", "--oracle-n", "5000"])
        assert code == 1
        assert "FAIL" in out

    def test_sign_verdict_stable_across_seeds(self, capsys):
        from crrkit.verify import check_sign_consistency

        for seed in range(10):
            assert check_sign_consistency(seed, draws=2000).passed

    @pytest.mark.parametrize("draws", ["0", "-5"])
    def test_draws_below_one_is_exit_2(self, capsys, draws):
        code, out, err = run(capsys, ["verify", "--draws", draws, "--oracle-n", "5000"])
        assert code == 2
        assert err == f"error: --draws must be an integer from 1 to {MAX_SIZE}, got {draws}\n"
        assert "Traceback" not in err
        assert out == ""

    def test_json_lines_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--draws", "500", "--oracle-n", "5000",
             "--format", "json-lines"],
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1]["record"] == "summary"
        assert all(r["passed"] for r in records if r["record"] == "check")


class TestConfigAndErrors:
    def test_config_supplies_flags_and_flags_override(self, capsys, tmp_path, toy_model_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model_file": toy_model_file, "seed": 99}))
        code, out, _ = run(capsys, ["estimands", "--config", str(config)])
        assert code == 0
        assert "# seed = 99" in out
        code, out, _ = run(
            capsys, ["estimands", "--config", str(config), "--seed", "7"]
        )
        assert "# seed = 7" in out

    def test_schema_section_drives_loader(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        admin.write_text(
            "race,force,precinct\nBLACK,1,7\nWHITE,0,7\nBLACK,0,7\nWHITE,1,7\n"
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "schema": {
                        "race_column": "race",
                        "race_map": {"BLACK": 1, "WHITE": 0},
                        "force_column": "force",
                        "stratum_columns": ["precinct"],
                    }
                }
            )
        )
        code, out, _ = run(
            capsys,
            ["estimate", "--admin", str(admin), "--config", str(config),
             "--bootstrap", "50", "--seed", "3", "--format", "csv"],
        )
        assert code == 0
        assert point_of(parse_csv_rows(out), "naive-rr") == pytest.approx(1.0)

    def test_byte_order_mark_in_admin_csv(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        rows = "1,1,a\n1,0,a\n0,1,a\n0,0,a\n0,0,a\n" * 10
        admin.write_bytes(b"\xef\xbb\xbf" + ("d,y,x\n" + rows).encode())
        code, out, err = run(
            capsys,
            ["estimate", "--admin", str(admin), "--bootstrap", "50", "--seed", "3",
             "--format", "csv"],
        )
        assert code == 0, err
        # force rate 1/2 among minority records over 1/3 among majority records
        assert point_of(parse_csv_rows(out), "naive-rr") == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model-file", "{model}", "--out-dir", "{out}", "--n", "{huge}"],
            ["verify", "--draws", "1", "--oracle-n", "{huge}"],
        ],
        ids=["simulate", "verify"],
    )
    def test_unallocatable_size_is_exit_2(self, capsys, tmp_path, toy_model_file, argv):
        # the first allocation is the 10**15-byte code, 909 TiB, beyond a 47-bit
        # user address space (128 TiB), so it is refused whatever the host's
        # overcommit setting
        argv = [a.format(model=toy_model_file, out=tmp_path / "out", huge=10**15) for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("size", [0, -4, 10**20])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--model-file", "{model}", "--out-dir", "{out}", "--n", "{size}"], "--n"),
            (["simulate", "--model-file", "{model}", "--out-dir", "{out}", "--config", "{config}"],
             "--n"),
            (["verify", "--draws", "1", "--oracle-n", "{size}"], "--oracle-n"),
            (["verify", "--draws", "1", "--config", "{config}"], "--oracle-n"),
            (["verify", "--oracle-n", "5", "--draws", "{size}"], "--draws"),
            (["verify", "--oracle-n", "5", "--config", "{config}"], "--draws"),
        ],
        ids=["simulate", "simulate-config", "verify", "verify-config", "draws", "draws-config"],
    )
    def test_size_out_of_range_names_the_flag(self, capsys, tmp_path, toy_model_file, argv, flag,
                                              size):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag[2:].replace("-", "_"): size}))
        argv = [a.format(model=toy_model_file, out=tmp_path / "out", config=config, size=size)
                for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert err == f"error: {flag} must be an integer from 1 to {MAX_SIZE}, got {size}\n"
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model-file", "{model}", "--out-dir", "{out}", "--seed", "-1"],
            ["estimands", "--model-file", "{model}", "--seed", "-5"],
            ["estimate", "--admin", "{missing}", "--seed", "-2"],
            ["sensitivity", "--admin", "{missing}", "--census", "{missing}", "--lambda", "0.5",
             "--citywide-p1", "0.3", "--seed", "-2"],
            ["verify", "--seed", "-3"],
            ["verify", "--config", "{config}"],
        ],
        ids=["simulate", "estimands", "estimate", "sensitivity", "verify", "verify-config"],
    )
    def test_negative_seed_is_exit_2_before_inputs_are_read(
        self, capsys, tmp_path, toy_model_file, argv
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": -3}))
        argv = [
            a.format(model=toy_model_file, out=tmp_path / "out", missing=tmp_path / "no.csv",
                     config=config)
            for a in argv
        ]
        code, out, err = run(capsys, argv)
        assert code == 2
        # the inputs named do not exist, so the seed is checked before they are read
        assert err.startswith("error: --seed must be a non-negative integer, got -")
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_input_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["estimands", "--model-file", "/nonexistent.json"])
        assert code == 2
        assert "error:" in err

    def test_invalid_model_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p_d": 2.0}')
        code, _, err = run(capsys, ["estimands", "--model-file", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "value",
        ['"0.2"', '"1_0e-1"', "true", "null", "1" + "0" * 400],
        ids=["string", "underscore-string", "boolean", "null", "huge-integer"],
    )
    def test_model_value_not_a_json_number_is_exit_2(self, capsys, tmp_path, value):
        record = TOY_MODEL.dumps().replace('"mu_11": 0.2', f'"mu_11": {value}')
        assert record != TOY_MODEL.dumps()
        bad = tmp_path / "bad.json"
        bad.write_text(record)
        code, out, err = run(capsys, ["estimands", "--model-file", str(bad)])
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--census", "stratum,count_d1,count_d0\nall,1,1\nall,1_000,5\n"),
            ("--census", "stratum,count_d1,count_d0\nall,1,1\nall,+3,5\n"),
            ("--survey", "race,contacts\n1,2\n0,1_0\n"),
            ("--survey", "race,contacts\n1,2\n0,\u0663\n"),
        ],
        ids=["census-underscore", "census-plus", "survey-underscore", "survey-arabic-indic"],
    )
    def test_count_outside_grammar_is_exit_2(self, capsys, tmp_path, flag, text):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,all\n1,0,all\n0,1,all\n0,0,all\n")
        source = tmp_path / "source.csv"
        source.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys,
            ["estimate", "--admin", str(admin), flag, str(source), "--bootstrap", "20"],
        )
        assert code == 2
        assert "line 3" in err
        assert "Traceback" not in err
        assert out == ""

    def test_unknown_stratum_is_exit_2(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n0,0,a\n")
        census = tmp_path / "census.csv"
        census.write_text("stratum,count_d1,count_d0\na,1,1\n")
        commands = (
            ["estimate"],
            ["sensitivity", "--census", str(census), "--lambda", "0.5", "--citywide-p1", "0.3"],
        )
        for command in commands:
            for strata, message in (
                ("zz", "zz"), ("", "names no stratum"), (",", "names no stratum"),
                ("a,a", "names stratum 'a' more than once"),
            ):
                code, out, err = run(
                    capsys,
                    [*command, "--admin", str(admin), "--strata", strata, "--bootstrap", "50"],
                )
                assert code == 2, (command[0], strata)
                assert message in err
                assert out == ""

    def test_separator_in_composite_stratum_is_exit_2(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,s1,s2\n1,1,a|b,c\n0,0,a,b|c\n1,0,a,b\n0,1,a,b\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schema": {"stratum_columns": ["s1", "s2"]}}))
        code, out, err = run(
            capsys,
            ["estimate", "--admin", str(admin), "--config", str(config), "--strata", "all",
             "--bootstrap", "50"],
        )
        assert code == 2
        assert "line 2" in err and "stratum value" in err
        assert out == ""

    def test_bootstrap_above_cap_is_exit_2(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n1,0,a\n0,1,a\n0,0,a\n")
        code, out, err = run(
            capsys, ["estimate", "--admin", str(admin), "--bootstrap", "100001"]
        )
        assert code == 2
        assert "at most 100000 replicates" in err
        assert out == ""

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("bootstrap", 1, "--bootstrap must be at least 2 and at most 100000 replicates, got 1"),
            ("bootstrap", 100001,
             "--bootstrap must be at least 2 and at most 100000 replicates, got 100001"),
            ("level", 5.0, "--level must lie strictly between 0 and 1, got 5.0"),
            ("level", 0.0, "--level must lie strictly between 0 and 1, got 0.0"),
            ("level", float("nan"), "--level must lie strictly between 0 and 1, got nan"),
        ],
    )
    def test_bootstrap_and_level_checked_before_inputs_are_read(
        self, capsys, tmp_path, via, key, value, message
    ):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n7,1,a\n7,0,a\n")  # every race unmapped: no bootstrap call runs
        census = tmp_path / "census.csv"
        census.write_text("stratum,count_d1,count_d0\na,1,1\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        setting = ["--config", str(config)] if via == "config" else [f"--{key}", str(value)]
        for argv in (
            ["sensitivity", "--admin", str(admin), "--lambda", "0.5", "--citywide-p1", "0.3"],
            ["estimate", "--admin", str(tmp_path / "missing.csv")],
        ):
            code, out, err = run(capsys, [*argv, "--census", str(census), *setting])
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv[0]

    @pytest.mark.parametrize(
        "config",
        [
            {"bootstrap": "5"},
            {"seed": "abc"},
            {"strata": 5},
            {"level": "0.9"},
            {"bootstrap": 5.5},
            {"haldane": "no"},
            {"format": "xml"},
        ],
    )
    def test_config_value_of_wrong_type_is_exit_2(self, capsys, tmp_path, config):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n1,0,a\n0,1,a\n0,0,a\n")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        code, out, err = run(
            capsys, ["estimate", "--admin", str(admin), "--config", str(config_file)]
        )
        (key,) = config
        assert code == 2
        assert f"config key {key!r}" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"bootsrap": 50}, "bootsrap"),
            ({"lam": 0.5}, "lam"),
            ({"seed": 3, "Schema": {}}, "Schema"),
            ({"shards": 2}, "shards"),
            ({"self_test_perturb": "ate-m1-weight"}, "self_test_perturb"),
        ],
        ids=["typo", "argparse-dest", "case", "removed-shards", "removed-perturb"],
    )
    def test_unknown_config_key_is_exit_2(self, capsys, tmp_path, config, key):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n1,0,a\n0,1,a\n0,0,a\n")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        code, out, err = run(
            capsys, ["estimate", "--admin", str(admin), "--config", str(config_file)]
        )
        assert code == 2
        assert f"unknown config keys: [{key!r}]" in err
        assert out == ""

    def test_config_keys_of_other_commands_are_accepted(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n1,0,a\n0,1,a\n0,0,a\n")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(
            {"bootstrap": 20, "lambda": 0.5, "citywide_p1": 0.3, "draws": 10, "schema": None}
        ))
        code, _, err = run(
            capsys, ["estimate", "--admin", str(admin), "--config", str(config_file)]
        )
        assert code == 0, err

    @pytest.mark.parametrize(
        "schema",
        [
            {"race_map": [1, 0]},
            {"stratum_columns": [["x"]]},
            {"race_column": ["d"]},
            {"survey": {"stratum_columns": [["x"]]}},
            {"stratum_columns": "precinct"},
            {"survey": {"race_map": {"B": 1, "W": 0, "H": 7}}},
        ],
    )
    def test_malformed_schema_is_exit_2(self, capsys, tmp_path, schema):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n1,0,a\n0,1,a\n0,0,a\n")
        survey = tmp_path / "survey.csv"
        survey.write_text("race\nB\nW\nH\n1\n0\n")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"schema": schema}))
        code, out, err = run(
            capsys,
            ["estimate", "--admin", str(admin), "--survey", str(survey),
             "--config", str(config_file), "--bootstrap", "20"],
        )
        assert code == 2
        assert err.startswith("error: ") and "schema" in err
        assert "Traceback" not in err
        assert out == ""

    def test_missing_required_flag_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["estimate"])
        assert code == 2
        assert "--admin" in err
