"""CLI tests: subcommand behaviour, exit codes, output schema stability."""

import csv
import io
import json
from pathlib import Path

import pytest

from crrkit.cli import main
from crrkit.dataio import write_model_file
from crrkit.model import PopulationModel
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


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--draws", "2000", "--oracle-n", "20000"]
        )
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 8

    def test_perturbation_fails_the_witness_check(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--draws", "500", "--oracle-n", "5000",
             "--self-test-perturb", "ate-m1-weight"],
        )
        assert code == 1
        assert "FAIL" in out

    def test_sign_verdict_stable_across_seeds(self, capsys):
        from crrkit.verify import check_sign_consistency

        for seed in range(10):
            assert check_sign_consistency(seed, draws=2000).passed

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

    def test_missing_input_file_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["estimands", "--model-file", "/nonexistent.json"])
        assert code == 2
        assert "error:" in err

    def test_invalid_model_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"p_d": 2.0}')
        code, _, err = run(capsys, ["estimands", "--model-file", str(bad)])
        assert code == 2

    def test_unknown_stratum_is_exit_2(self, capsys, tmp_path):
        admin = tmp_path / "admin.csv"
        admin.write_text("d,y,x\n1,1,a\n0,0,a\n")
        code, _, err = run(
            capsys,
            ["estimate", "--admin", str(admin), "--strata", "zz",
             "--bootstrap", "50"],
        )
        assert code == 2
        assert "zz" in err

    def test_missing_required_flag_is_exit_2(self, capsys):
        code, _, err = run(capsys, ["estimate"])
        assert code == 2
        assert "--admin" in err
