"""Seeded benchmark workloads: fixture builder and the crrkit argv of each.

Fixtures are built through crrkit's own library. Each stratum gets one
interior model from ``verify.sample_models``; its encounters come from
``simulate.sample_encounters`` and its detainment records from
``simulate.to_administrative``. All records go out through
``dataio.write_administrative``. Census counts are the realized encounter
race counts of each stratum, so the adjusted CRR of a stratum equals the
oracle ``crr`` of its encounter table. Survey rows are drawn for the same
stratum keys.

Next to the inputs the builder writes ``truth.json``: per-stratum counts,
the oracle CRR and the weighted survey share, all computed here with plain
numpy. The output checker recomputes every point estimate from it.

The same (workload, seed) gives byte-identical files. Run as a script to
build one workload's fixtures:

    PYTHONPATH=src python3 benchmarks/workloads.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Models whose expected smallest record cell (n1, n0, f1, f0) in a stratum
#: falls below this are skipped, so no point estimate or bootstrap replicate
#: of a workload is undefined; an undefined row would fail the output check.
MIN_EXPECTED_CELL = 40

#: Survey contact counts are drawn from 0..SURVEY_MAX_CONTACTS; counts above
#: crrkit's weighted-mode cap of 30 exercise the outlier exclusion.
SURVEY_MAX_CONTACTS = 40
WEIGHTED_CONTACTS_CAP = 30
SURVEY_MISSING_SHARE = 0.03

SENSITIVITY_LAMBDA = 0.8

#: crrkit ``verify`` seeds whose run passes all checks at the verify-oracle
#: settings. The oracle check is a 4-standard-error gate over 45 fields, so
#: roughly one seed in three hundred fails it by chance; the workload seed
#: picks from this list so that no run is a false alarm.
VERIFY_SEEDS = (1729, 1730, 1731, 1732, 1733, 1734, 1735, 1736)

SURVEY_COLUMNS = ("race", "stop_public", "stop_vehicle", "stop_other", "contacts", "large_metro", "x")


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; zero sizes mean the input is not built."""

    command: str
    strata: int = 0
    records_per_stratum: int = 0
    survey_per_stratum: int = 0
    bootstrap: int = 0
    draws: int = 0
    oracle_n: int = 0


WORKLOADS = {
    "estimate-survey-strata": Spec(
        "estimate", strata=50, records_per_stratum=1000, survey_per_stratum=100, bootstrap=5
    ),
    "sensitivity-census-fine": Spec(
        "sensitivity", strata=200, records_per_stratum=250, bootstrap=5
    ),
    "verify-oracle": Spec("verify", draws=4000, oracle_n=200_000),
}


def _stratum_models(rng: np.random.Generator, spec: Spec):
    """(key, model, encounter count) per stratum, skipping ill-conditioned models."""
    from crrkit.verify import sample_models

    chosen = []
    for model in sample_models(rng, 10**9, interior=True):
        n = math.ceil(spec.records_per_stratum / model.p_m1)
        n1 = n * model.p_d * model.e_m1
        n0 = n * (1.0 - model.p_d) * model.e_m0
        if min(n1, n0, n1 * model.mu_11, n0 * model.mu_01) < MIN_EXPECTED_CELL:
            continue
        chosen.append((f"s{len(chosen):03d}", model, n))
        if len(chosen) == spec.strata:
            return chosen


def _weighted_share(race: np.ndarray, contacts: np.ndarray) -> float:
    """Contact-weighted minority share; contacts < 0 marks a missing count."""
    usable = (contacts >= 0) & (contacts <= WEIGHTED_CONTACTS_CAP)
    weight = np.where(usable, contacts, 0).astype(float)
    return float(np.sum(weight * race) / np.sum(weight))


def _survey_rows(rng: np.random.Generator, key: str, p1: float, count: int):
    """CSV rows of one stratum's respondents, with their race and contact columns."""
    race = (rng.random(count) < p1).astype(np.int64)
    contacts = rng.integers(0, SURVEY_MAX_CONTACTS + 1, size=count)
    contacts[rng.random(count) < SURVEY_MISSING_SHARE] = -1
    # one usable respondent of each race keeps every stratum's share in (0, 1)
    race[:2] = (1, 0)
    contacts[:2] = 1
    items = rng.integers(0, 2, size=(count, 4))
    missing_items = rng.random((count, 4)) < SURVEY_MISSING_SHARE
    rows = []
    for i in range(count):
        cells = ["NA" if missing_items[i, j] else str(items[i, j]) for j in range(4)]
        rows.append(
            (
                str(race[i]),
                cells[0],
                cells[1],
                cells[2],
                "NA" if contacts[i] < 0 else str(contacts[i]),
                cells[3],
                key,
            )
        )
    return rows, race, contacts


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def build(name: str, seed: int, out_dir: str | Path, spec: Spec | None = None) -> dict:
    """Write the fixtures of workload ``name`` into ``out_dir``; return the truth record.

    ``spec`` overrides the workload's sizes (the self-tests build small ones).
    crrkit is imported here, not at module level, so that ``run.py`` can
    read the workload table before it has found crrkit.
    """
    from crrkit import dataio, simulate
    from crrkit.estimate import AdministrativeDataset

    spec = spec or WORKLOADS[name]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_seq, encounter_seq, survey_seq, crrkit_seq = np.random.SeedSequence(seed).spawn(4)
    crrkit_seed = int(crrkit_seq.generate_state(1, np.uint32)[0])
    truth: dict = {"workload": name, "seed": seed, "command": spec.command}

    if spec.command == "verify":
        verify_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
        _write_json(out / "config.json", {"seed": verify_seed})
        truth["verify_seed"] = verify_seed
        _write_json(out / "truth.json", truth)
        return truth

    encounter_rng = np.random.default_rng(encounter_seq)
    survey_rng = np.random.default_rng(survey_seq)
    parts, census_rows, survey_rows, strata = [], [], [], []
    survey_race, survey_contacts = [], []
    for key, model, n in _stratum_models(np.random.default_rng(model_seq), spec):
        table = simulate.sample_encounters(model, n, int(encounter_rng.integers(2**63)), x=key)
        admin = simulate.to_administrative(table)
        parts.append(admin)
        c1 = int(np.sum(table.d == 1))
        c0 = int(np.sum(table.d == 0))
        census_rows.append((key, c1, c0))
        d1 = admin.d == 1
        d0 = admin.d == 0
        force = admin.y == 1
        stratum = {
            "key": key,
            "n1": int(np.sum(d1)),
            "n0": int(np.sum(d0)),
            "f1": int(np.sum(d1 & force)),
            "f0": int(np.sum(d0 & force)),
            "c1": c1,
            "c0": c0,
            "oracle_crr": simulate.oracle_estimands(table).crr.value,
        }
        if spec.survey_per_stratum:
            rows, race, contacts = _survey_rows(survey_rng, key, c1 / (c1 + c0), spec.survey_per_stratum)
            survey_rows.extend(rows)
            survey_race.append(race)
            survey_contacts.append(contacts)
            stratum["survey_share"] = _weighted_share(race, contacts)
        strata.append(stratum)

    dataio.write_administrative(AdministrativeDataset.concat(parts), out / "admin.csv")
    _write_csv(out / "census.csv", ("stratum", "count_d1", "count_d0"), census_rows)
    config: dict = {"seed": crrkit_seed}
    truth["strata"] = strata
    if survey_rows:
        _write_csv(out / "survey.csv", SURVEY_COLUMNS, survey_rows)
        config["schema"] = {"survey": {"stratum_columns": ["x"]}}
        truth["survey_share"] = _weighted_share(
            np.concatenate(survey_race), np.concatenate(survey_contacts)
        )
    if spec.command == "sensitivity":
        truth["lambda"] = SENSITIVITY_LAMBDA
        truth["citywide_p1"] = sum(s["c1"] for s in strata) / sum(s["c1"] + s["c0"] for s in strata)
    _write_json(out / "config.json", config)
    _write_json(out / "truth.json", truth)
    return truth


def argv(name: str, work_dir: str | Path, truth: dict, spec: Spec | None = None) -> list[str]:
    """The crrkit command line of workload ``name`` over fixtures in ``work_dir``."""
    spec = spec or WORKLOADS[name]
    d = Path(work_dir)
    config = ["--config", str(d / "config.json")]
    if spec.command == "verify":
        return ["verify", "--format", "json-lines", "--draws", str(spec.draws),
                "--oracle-n", str(spec.oracle_n), *config]
    common = ["--admin", str(d / "admin.csv"), "--census", str(d / "census.csv"),
              "--bootstrap", str(spec.bootstrap), "--format", "csv", *config]
    if spec.command == "estimate":
        return ["estimate", *common, "--survey", str(d / "survey.csv"),
                "--survey-mode", "weighted", "--strata", "all"]
    return ["sensitivity", *common, "--lambda", repr(truth["lambda"]),
            "--citywide-p1", repr(truth["citywide_p1"])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    build(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
