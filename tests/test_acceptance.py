"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints an explicit "criterion NN PASS/FAIL" line (visible with
``pytest -s`` or on failure), so the suite doubles as a checklist. Fixed
seeds keep every randomized criterion reproducible.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from crrkit.cli import main
from crrkit.estimate import (
    AdministrativeDataset,
    ExternalRaceDistribution,
    bias_factor,
    bootstrap,
    crr_identified,
    naive_risk_ratio,
    sensitivity_mixture,
)
from crrkit.model import (
    Estimand,
    PopulationModel,
    bias_factor_true,
    crr_true,
    estimand_value,
    naive_rr_true,
)
from crrkit.simulate import (
    ORACLE_FIELDS,
    external_from_table,
    oracle_estimands,
    sample_encounters,
    to_administrative,
)
from crrkit.verify import (
    TOY_MODEL,
    check_paradox_search,
    check_sign_consistency,
    check_sign_reversal_witnesses,
    closed_form_value,
    sample_models,
    sign_reversal_witnesses,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {description}")
        raise
    print(f"criterion {num:02d} PASS: {description}")


def test_c01_counterexample_reproduction(capsys):
    with criterion(1, "witness contrasts reproduce to 6 decimals in < 1 s"):
        start = time.perf_counter()
        results = check_sign_reversal_witnesses()
        elapsed = time.perf_counter() - start
        assert all(r.passed for r in results)
        expected = (-0.003884, 0.002514, 0.0026)
        for witness, target in zip(sign_reversal_witnesses(), expected):
            contrast = estimand_value(witness.estimand, witness.model).contrast
            assert round(contrast, 6) == target
        assert elapsed < 1.0, f"witness reproduction took {elapsed:.3f}s"
        # and the CLI command reports them as passing
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS  sign-reversal witness") == 3


def test_c02_bias_factor_worked_example():
    with criterion(2, "bias factor for (0.8, 0.25) is exactly 12.0"):
        rows = [(1, 0, "all")] * 8 + [(0, 0, "all")] * 2
        data = AdministrativeDataset.from_rows(rows)
        external = ExternalRaceDistribution.census_from_counts({"all": (0.25, 0.75)})
        assert bias_factor(data, external) == 12.0


def test_c03_sign_consistency_property():
    with criterion(3, "no sign violation of ATE/ATT over 10^4 random models in < 10 s"):
        start = time.perf_counter()
        result = check_sign_consistency(seed=1729, draws=10_000)
        elapsed = time.perf_counter() - start
        assert result.passed, result.detail
        assert elapsed < 10.0, f"sign sweep took {elapsed:.1f}s"


def test_c04_paradox_existence():
    with criterion(4, "randomized search finds both sign reversals within 10^4 draws"):
        results = check_paradox_search(seed=1729, draws=10_000)
        for result in results:
            assert result.passed, result.detail


def test_c05_oracle_equivalence():
    with criterion(5, "closed forms within 4 SE of the oracle for 100 models at n=1e5"):
        start = time.perf_counter()
        rng = np.random.default_rng(202)  # fixed seed set
        n = 100_000
        for model in sample_models(rng, 100, interior=True):
            table = sample_encounters(model, n, seed=int(rng.integers(2**63)))
            report = oracle_estimands(table)
            for field in ORACLE_FIELDS:
                estimate = report.field(field)
                assert estimate.value is not None and estimate.se, field
                closed = closed_form_value(field, model)
                z = abs(closed - estimate.value) / estimate.se
                assert z <= 4.0, f"{field}: z={z:.2f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_c06_identification_identity():
    with criterion(6, "selection-adjusted ratio equals oracle ratio within 1e-10"):
        rng = np.random.default_rng(314159)
        checked = 0
        attempts = 0
        while checked < 20:
            attempts += 1
            assert attempts < 200, "could not assemble 20 valid instances"
            model = next(sample_models(rng, 1, interior=True))
            table = sample_encounters(model, 2000, seed=int(rng.integers(2**63)))
            report = oracle_estimands(table)
            if not (report.crr.defined and report.naive_rr.defined):
                continue
            admin = to_administrative(table)
            value = crr_identified(admin, external_from_table(table))
            assert abs(value - report.crr.value) <= 1e-10
            checked += 1


def test_c07_monotone_lower_bound():
    with criterion(7, "naive RR lower-bounds CRR and bias factor >= 1 when pi_ma = 0"):
        rng = np.random.default_rng(271828)
        for _ in range(1000):
            parts = rng.dirichlet(np.ones(3))  # al, mi, ne
            model = PopulationModel(
                p_d=float(rng.uniform(0.01, 0.99)),
                pi_al=float(parts[0]),
                pi_mi=float(parts[1]),
                pi_ma=0.0,
                pi_ne=float(1.0 - parts[0] - parts[1]),
                mu_01=float(rng.uniform(0.01, 1.0)),
                mu_11=float(rng.uniform()),
            )
            assert naive_rr_true(model) <= crr_true(model) + 1e-12
            assert bias_factor_true(model) >= 1.0 - 1e-12


def test_c08_bootstrap_coverage():
    with criterion(8, "95% intervals cover the true ratio 3.0 in [0.90, 0.99] of trials"):
        start = time.perf_counter()
        external = ExternalRaceDistribution.census_from_counts({"all": (500.0, 500.0)})
        trials = 200
        covered = 0
        for child in np.random.SeedSequence(8675309).spawn(trials):
            rng = np.random.default_rng(child)
            table = sample_encounters(TOY_MODEL, 10_000, seed=int(rng.integers(2**63)))
            admin = to_administrative(table)
            estimate = bootstrap(
                crr_identified,
                admin,
                external,
                level=0.95,
                replicates=1000,
                seed=int(rng.integers(2**63)),
            )
            covered += estimate.lo <= 3.0 <= estimate.hi
        coverage = covered / trials
        elapsed = time.perf_counter() - start
        assert 0.90 <= coverage <= 0.99, f"coverage {coverage:.3f}"
        assert elapsed < 300.0, f"coverage experiment took {elapsed:.0f}s"


@pytest.mark.parametrize("m", [500, 5_000])
def test_c08_survey_bootstrap_coverage(m):
    # the interval resamples the survey respondents too, so it carries the share's sampling error
    with criterion(8, f"intervals that resample a {m}-respondent survey cover 3.0 in [0.90, 0.99]"):
        trials = 200
        covered = 0
        for child in np.random.SeedSequence([8675309, m]).spawn(trials):
            rng = np.random.default_rng(child)
            table = sample_encounters(TOY_MODEL, 10_000, seed=int(rng.integers(2**63)))
            survey = sample_encounters(TOY_MODEL, m, seed=int(rng.integers(2**63)))
            respondents = ExternalRaceDistribution.from_cells(
                ("all",), [0, 0], [(0, 1.0), (1, 1.0)], np.bincount(survey.d, minlength=2),
                resampled=True,
            )
            estimate = bootstrap(
                crr_identified,
                to_administrative(table),
                respondents,
                level=0.95,
                replicates=1000,
                seed=int(rng.integers(2**63)),
            )
            covered += estimate.lo <= 3.0 <= estimate.hi
        coverage = covered / trials
        assert 0.90 <= coverage <= 0.99, f"coverage {coverage:.3f}"


def test_c09_sensitivity_monotonicity():
    with criterion(9, "mixture pulls extreme strata monotonically toward the pooled value"):
        specs = {
            "low": PopulationModel(0.05, 0.2, 0.1, 0.0, 0.7, 0.1, 0.2),
            "high": PopulationModel(0.95, 0.2, 0.1, 0.0, 0.7, 0.1, 0.2),
        }
        tables = {
            key: sample_encounters(model, 200_000, seed=i + 11, x=key)
            for i, (key, model) in enumerate(specs.items())
        }
        admin = AdministrativeDataset.concat(
            [to_administrative(t) for t in tables.values()]
        )
        counts = {"low": (5_000.0, 95_000.0), "high": (95_000.0, 5_000.0)}
        external = ExternalRaceDistribution.census_from_counts(counts)
        lambdas = (0.0, 0.5, 0.9, 1.0)
        for key in specs:
            points = {
                lam: crr_identified(
                    admin, sensitivity_mixture(external, 0.367, lam), x=key
                )
                for lam in lambdas
            }
            # strictly monotone in lambda, moving toward the lambda=0 value
            diffs = np.diff([points[lam] for lam in lambdas])
            assert np.all(diffs > 0) or np.all(diffs < 0), points
            gaps = [abs(points[lam] - points[0.0]) for lam in lambdas]
            assert gaps[0] == 0.0
            assert all(gaps[i] < gaps[i + 1] for i in range(len(gaps) - 1)), points


def test_c10_pipeline_structure_on_user_data(capsys, tmp_path):
    with criterion(10, "documented schemas feed the pipeline and emit the full table"):
        admin = tmp_path / "admin.csv"
        lines = ["race,force,precinct"]
        lines += ["BLACK,1,7", "BLACK,0,7", "WHITE,1,7", "WHITE,0,7"] * 25
        lines += ["BLACK,1,9", "BLACK,1,9", "WHITE,1,9", "WHITE,0,9"] * 25
        admin.write_text("\n".join(lines) + "\n")
        census = tmp_path / "census.csv"
        census.write_text("stratum,count_d1,count_d0\n7,40,60\n9,25,75\n")
        survey = tmp_path / "survey.csv"
        survey.write_text(
            "race,stop_public,stop_vehicle,stop_other,contacts,large_metro\n"
            + "BLACK,1,0,0,3,1\n" * 30
            + "WHITE,0,1,0,2,1\n" * 70
        )
        config = tmp_path / "config.json"
        config.write_text(
            '{"schema": {"race_column": "race", "race_map": {"BLACK": 1, "WHITE": 0},'
            ' "force_column": "force", "stratum_columns": ["precinct"],'
            ' "survey": {"race_column": "race", "race_map": {"BLACK": 1, "WHITE": 0}}}}'
        )
        code = main(
            [
                "estimate",
                "--admin", str(admin),
                "--census", str(census),
                "--survey", str(survey),
                "--survey-mode", "weighted",
                "--strata", "all",
                "--config", str(config),
                "--bootstrap", "200",
                "--seed", "6",
                "--format", "csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        header, *rows = [
            line.split(",") for line in out.splitlines() if not line.startswith("#")
        ]
        assert header == ["stratum", "estimand", "point", "lo", "hi", "flags"]
        emitted = {(r[0], r[1], r[5]) for r in rows}
        # pooled naive rows plus one adjusted block per external source
        assert ("all", "naive-rd", "naive") in emitted
        assert ("all", "naive-rr", "naive") in emitted
        assert ("all", "adjusted-crr", "adjusted;census") in emitted
        assert ("all", "adjusted-crr", "adjusted;survey-weighted") in emitted
        # per-stratum rows for both precincts; the census source carries the
        # precinct strata so its adjusted rows are defined
        for stratum in ("7", "9"):
            assert (stratum, "naive-rr", "naive") in emitted
            assert (stratum, "adjusted-crr", "adjusted;census") in emitted
        # the national survey has no precinct strata: its per-stratum rows
        # surface as explicit undefined markers, never silently dropped
        survey_strata = [
            r for r in rows
            if r[1] == "adjusted-crr" and "survey-weighted" in r[5] and r[0] != "all"
        ]
        assert len(survey_strata) == 2
        assert all("undefined" in r[5] for r in survey_strata)
        # every number in the table is finite or an explicit undefined marker
        for r in rows:
            assert r[2] == "undefined" or np.isfinite(float(r[2]))
