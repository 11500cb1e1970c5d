"""CSV ingestion and artifact writers.

Three documented comma-delimited input schemas feed the estimator:

  administrative records  one row per detainment; race / force / stratum
                          columns are named by a schema config, race strings
                          map to 0/1 through a mandatory race map, unmapped
                          races are dropped with a count.
  census counts           header ``stratum,count_d1,count_d0``; per-stratum
                          minority and majority population counts. Duplicate
                          stratum rows accumulate.
  survey microdata        respondent-level rows with race, three stop items,
                          a face-to-face contact count and a large-metro
                          flag; column names come from the schema config.
                          Missing item values stay missing and exclude the
                          respondent from modes that read them; nothing is
                          imputed.

The schema config is a flat JSON object (see DEFAULT_SCHEMA); the default
matches the simulator's administrative export (columns d, y, x), so exported
fixtures round-trip with no config at all.

Loaders are single-pass and deterministic: identical bytes produce identical
datasets, and the returned objects are immutable and freely shareable.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptySubsetError,
    MissingColumnError,
    NegativeCountError,
    UnparseableRowError,
)
from .estimate import (
    AdministrativeDataset,
    ExternalRaceDistribution,
    SurveyRespondents,
)
from .model import PopulationModel
from .simulate import STRATUM_LABELS, EncounterTable, OracleReport

#: Tokens treated as a missing value in survey item columns.
MISSING_TOKENS = ("", "NA", "na", "N/A")

#: Survey subset modes, named after the respondent rule they apply.
SURVEY_MODES = (
    "all",
    "mv-stop",
    "stop-in-public",
    "large-metro",
    "weighted",
    "weighted-large-metro",
)

#: Cap on reported police contacts in the weighted modes; larger counts are
#: excluded as outliers before weighting.
MAX_WEIGHTED_CONTACTS = 30

POOLED_KEY = "all"
STRATUM_SEPARATOR = "|"


@dataclass(frozen=True)
class SurveySchema:
    race_column: str = "race"
    race_map: Mapping[str, int] | None = None  # None: inherit the admin race map
    stop_public_column: str = "stop_public"
    stop_vehicle_column: str = "stop_vehicle"
    stop_other_column: str = "stop_other"
    contacts_column: str = "contacts"
    large_metro_column: str = "large_metro"
    stratum_columns: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchemaConfig:
    """Column names and value mappings for the three input schemas."""

    race_column: str = "d"
    race_map: Mapping[str, int] = field(default_factory=lambda: {"1": 1, "0": 0})
    force_column: str = "y"
    stratum_columns: tuple[str, ...] = ("x",)
    survey: SurveySchema = field(default_factory=SurveySchema)

    def __post_init__(self) -> None:
        if not self.race_map:
            raise ValueError("race_map is mandatory and must be non-empty")
        bad = {k: v for k, v in self.race_map.items() if v not in (0, 1)}
        if bad:
            raise ValueError(f"race_map values must be 0 or 1, got {bad}")

    def survey_race_map(self) -> Mapping[str, int]:
        return self.survey.race_map if self.survey.race_map is not None else self.race_map

    @classmethod
    def from_dict(cls, record: Mapping) -> "SchemaConfig":
        record = dict(record)
        survey_record = dict(record.pop("survey", {}))
        survey_kwargs = {}
        for key in SurveySchema.__dataclass_fields__:
            if key in survey_record:
                value = survey_record.pop(key)
                if key == "stratum_columns":
                    value = tuple(value)
                survey_kwargs[key] = value
        if survey_record:
            raise ValueError(f"unknown survey schema keys: {sorted(survey_record)}")
        kwargs = {}
        for key in ("race_column", "race_map", "force_column", "stratum_columns"):
            if key in record:
                value = record.pop(key)
                if key == "stratum_columns":
                    value = tuple(value)
                kwargs[key] = value
        if record:
            raise ValueError(f"unknown schema keys: {sorted(record)}")
        return cls(survey=SurveySchema(**survey_kwargs), **kwargs)


DEFAULT_SCHEMA = SchemaConfig()


@dataclass(frozen=True)
class LoadReport:
    """Row accounting for one loaded file: physical = loaded + dropped + unparseable."""

    path: str
    n_physical: int
    n_loaded: int
    n_dropped: int
    n_unparseable: int

    def summary(self) -> str:
        return (
            f"{self.path}: {self.n_loaded} loaded, {self.n_dropped} dropped "
            f"(unmapped race), {self.n_unparseable} unparseable of "
            f"{self.n_physical} data rows"
        )


def _open_reader(path: str | Path):
    handle = open(path, newline="", encoding="utf-8-sig")  # tolerate a byte-order mark
    return handle, csv.reader(handle)


def _header_indices(header: Sequence[str], required: Sequence[str], path) -> dict[str, int]:
    positions = {name.strip(): i for i, name in enumerate(header)}
    missing = [name for name in required if name not in positions]
    if missing:
        raise MissingColumnError(f"{path}: missing columns {missing}; header was {header}")
    return positions


def _stratum_key(
    row: Sequence[str], indices: dict[str, int], columns: Sequence[str], line: int
) -> str:
    """Stratum key of a row: its stratum values joined by STRATUM_SEPARATOR.

    With two or more columns a value containing the separator would make
    distinct strata share a key, so it is unparseable.
    """
    if not columns:
        return POOLED_KEY
    values = [row[indices[c]].strip() for c in columns]
    if len(values) > 1 and any(STRATUM_SEPARATOR in v for v in values):
        raise UnparseableRowError(
            f"stratum value contains {STRATUM_SEPARATOR!r}, which joins the stratum columns",
            line,
        )
    return STRATUM_SEPARATOR.join(values)


def _parse_binary(token: str, what: str, line: int) -> int:
    token = token.strip()
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise UnparseableRowError(f"{what} must be 0 or 1, got {token!r}", line)


def load_administrative(
    path: str | Path,
    config: SchemaConfig = DEFAULT_SCHEMA,
    *,
    skip_unparseable: bool = False,
) -> tuple[AdministrativeDataset, LoadReport]:
    """Load detainment records, mapping race strings per the config race map.

    Rows with a race string outside the race map are dropped and counted.
    Malformed rows raise UnparseableRowError with the physical line number;
    with ``skip_unparseable`` they are counted and skipped instead.
    """
    required = [config.race_column, config.force_column, *config.stratum_columns]
    handle, reader = _open_reader(path)
    with handle:
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(f"{path}: file is empty, expected a header row")
        indices = _header_indices(header, required, path)
        width = len(header)

        d_vals: list[int] = []
        y_vals: list[int] = []
        x_vals: list[str] = []
        physical = dropped = unparseable = 0
        race_map = config.race_map
        for row in reader:
            physical += 1
            line = reader.line_num
            try:
                if len(row) != width:
                    raise UnparseableRowError(
                        f"expected {width} fields, got {len(row)}", line
                    )
                race_token = row[indices[config.race_column]].strip()
                if race_token not in race_map:
                    dropped += 1
                    continue
                force = _parse_binary(row[indices[config.force_column]], "force", line)
                key = _stratum_key(row, indices, config.stratum_columns, line)
            except UnparseableRowError:
                if not skip_unparseable:
                    raise
                unparseable += 1
                continue
            d_vals.append(race_map[race_token])
            y_vals.append(force)
            x_vals.append(key)

    dataset = AdministrativeDataset(
        d=np.array(d_vals, dtype=np.int8),
        y=np.array(y_vals, dtype=np.int8),
        x=np.array(x_vals, dtype=object),
    )
    report = LoadReport(str(path), physical, len(d_vals), dropped, unparseable)
    return dataset, report


CENSUS_COLUMNS = ("stratum", "count_d1", "count_d0")


def load_census(path: str | Path) -> tuple[ExternalRaceDistribution, LoadReport]:
    """Load per-stratum population counts into a census-fixed distribution.

    Strata whose counts sum to zero are kept with an undefined share so they
    surface as explicit undefined results downstream. Negative or non-finite
    counts raise NegativeCountError.
    """
    handle, reader = _open_reader(path)
    with handle:
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(f"{path}: file is empty, expected a header row")
        indices = _header_indices(header, CENSUS_COLUMNS, path)

        counts: dict[str, tuple[float, float]] = {}
        physical = 0
        for row in reader:
            physical += 1
            line = reader.line_num
            if len(row) != len(header):
                raise UnparseableRowError(f"expected {len(header)} fields", line)
            key = row[indices["stratum"]].strip()
            try:
                c1 = float(row[indices["count_d1"]])
                c0 = float(row[indices["count_d0"]])
            except ValueError:
                raise UnparseableRowError("counts must be numeric", line)
            if not (np.isfinite(c1) and np.isfinite(c0)) or c1 < 0 or c0 < 0:
                raise NegativeCountError(
                    f"{path} line {line}: counts must be finite and nonnegative"
                )
            old1, old0 = counts.get(key, (0.0, 0.0))
            counts[key] = (old1 + c1, old0 + c0)

    distribution = ExternalRaceDistribution.census_from_counts(counts)
    report = LoadReport(str(path), physical, physical, 0, 0)
    return distribution, report


@dataclass(frozen=True)
class SurveyTable:
    """Raw survey respondents; None marks a missing item response."""

    race: tuple[int | None, ...]
    stop_public: tuple[int | None, ...]
    stop_vehicle: tuple[int | None, ...]
    stop_other: tuple[int | None, ...]
    contacts: tuple[int | None, ...]
    large_metro: tuple[int | None, ...]
    x: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.race)


def _parse_item(token: str, what: str, line: int) -> int | None:
    token = token.strip()
    if token in MISSING_TOKENS:
        return None
    return _parse_binary(token, what, line)


def _parse_count(token: str, line: int) -> int | None:
    token = token.strip()
    if token in MISSING_TOKENS:
        return None
    try:
        value = int(token)
    except ValueError:
        raise UnparseableRowError(f"contact count must be an integer, got {token!r}", line)
    if value < 0:
        raise UnparseableRowError(f"contact count must be nonnegative, got {value}", line)
    return value


def load_survey(
    path: str | Path,
    config: SchemaConfig = DEFAULT_SCHEMA,
    *,
    skip_unparseable: bool = False,
) -> tuple[SurveyTable, LoadReport]:
    """Load survey microdata; item columns absent from the file load as missing.

    Only the race column is required, so a race-only file still supports the
    ``all`` mode. Respondents with an unmapped race are dropped with a count.
    """
    schema = config.survey
    race_map = config.survey_race_map()
    handle, reader = _open_reader(path)
    with handle:
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumnError(f"{path}: file is empty, expected a header row")
        required = [schema.race_column, *schema.stratum_columns]
        indices = _header_indices(header, required, path)
        positions = {name.strip(): i for i, name in enumerate(header)}
        optional = {
            "stop_public": positions.get(schema.stop_public_column),
            "stop_vehicle": positions.get(schema.stop_vehicle_column),
            "stop_other": positions.get(schema.stop_other_column),
            "contacts": positions.get(schema.contacts_column),
            "large_metro": positions.get(schema.large_metro_column),
        }

        columns: dict[str, list] = {k: [] for k in ("race", *optional, "x")}
        physical = dropped = unparseable = 0
        for row in reader:
            physical += 1
            line = reader.line_num
            try:
                if len(row) != len(header):
                    raise UnparseableRowError(
                        f"expected {len(header)} fields, got {len(row)}", line
                    )
                race_token = row[indices[schema.race_column]].strip()
                if race_token not in race_map:
                    dropped += 1
                    continue
                parsed = {}
                for name in ("stop_public", "stop_vehicle", "stop_other", "large_metro"):
                    pos = optional[name]
                    parsed[name] = None if pos is None else _parse_item(row[pos], name, line)
                pos = optional["contacts"]
                parsed["contacts"] = None if pos is None else _parse_count(row[pos], line)
                key = _stratum_key(row, indices, schema.stratum_columns, line)
            except UnparseableRowError:
                if not skip_unparseable:
                    raise
                unparseable += 1
                continue
            columns["race"].append(race_map[race_token])
            for name, value in parsed.items():
                columns[name].append(value)
            columns["x"].append(key)

    table = SurveyTable(**{k: tuple(v) for k, v in columns.items()})
    report = LoadReport(str(path), physical, table.n, dropped, unparseable)
    return table, report


def derive_survey_distribution(
    survey: SurveyTable, mode: str
) -> ExternalRaceDistribution:
    """Apply a subset/weighting mode and reduce respondents to race shares.

    A respondent missing any item the mode reads is excluded. Weighted modes
    use the reported contact count as the weight after removing respondents
    with more than 30 contacts. Raises EmptySubsetError when nothing usable
    remains or the subset's total weight is zero.
    """
    if mode not in SURVEY_MODES:
        raise ValueError(f"unknown survey mode {mode!r}; expected one of {SURVEY_MODES}")

    weighted = mode in ("weighted", "weighted-large-metro")
    needs_metro = mode in ("large-metro", "weighted-large-metro")

    rows: list[tuple[int, str, float]] = []
    for i in range(survey.n):
        race = survey.race[i]
        if race is None:
            continue
        if needs_metro:
            metro = survey.large_metro[i]
            if metro is None:
                continue
            if metro != 1:
                continue
        if mode == "mv-stop":
            v13 = survey.stop_vehicle[i]
            if v13 is None:
                continue
            if v13 != 1:
                continue
        elif mode == "stop-in-public":
            v11 = survey.stop_public[i]
            v21 = survey.stop_other[i]
            if v11 is None or v21 is None:
                continue
            if not (v11 == 1 or v21 == 1):
                continue
        weight = 1.0
        if weighted:
            contacts = survey.contacts[i]
            if contacts is None or contacts > MAX_WEIGHTED_CONTACTS:
                continue
            weight = float(contacts)
        rows.append((race, survey.x[i], weight))

    if not rows:
        raise EmptySubsetError(f"survey mode {mode!r} selected no usable respondents")
    respondents = SurveyRespondents.from_rows(rows)
    if float(np.sum(respondents.weight)) <= 0.0:
        raise EmptySubsetError(f"survey mode {mode!r} subset has zero total weight")
    return ExternalRaceDistribution.from_survey(respondents)


# -- model files and artifact writers ------------------------------------------


def read_model_file(path: str | Path) -> PopulationModel:
    return PopulationModel.loads(Path(path).read_text(encoding="utf-8"))


def write_model_file(model: PopulationModel, path: str | Path) -> None:
    Path(path).write_text(model.dumps(), encoding="utf-8")


ENCOUNTER_COLUMNS = ("d", "s", "m0", "m1", "y01", "y11", "m", "y", "x")


def write_encounters(table: EncounterTable, path: str | Path) -> None:
    """Write the full potential-outcome table as CSV (debugging aid)."""
    labels = STRATUM_LABELS
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(ENCOUNTER_COLUMNS)
        for i in range(table.n):
            writer.writerow(
                (
                    int(table.d[i]),
                    labels[table.s[i]],
                    int(table.m0[i]),
                    int(table.m1[i]),
                    int(table.y01[i]),
                    int(table.y11[i]),
                    int(table.m[i]),
                    int(table.y[i]),
                    table.x,
                )
            )


def write_administrative(dataset: AdministrativeDataset, path: str | Path) -> None:
    """Write detainment records in the default schema (columns d, y, x)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("d", "y", "x"))
        for i in range(dataset.n):
            writer.writerow((int(dataset.d[i]), int(dataset.y[i]), str(dataset.x[i])))


def write_oracle_report(
    report: OracleReport, path: str | Path, *, meta: Mapping | None = None
) -> None:
    record = dict(meta or {})
    record.update(report.to_dict())
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
