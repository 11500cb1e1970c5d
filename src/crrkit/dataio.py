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

The schema config is a JSON object, type-checked by SchemaConfig.from_dict;
the default matches the simulator's administrative export (columns d, y, x),
so exported fixtures round-trip with no config at all.

The three loaders share one reader, ``_load_rows``. It counts the file's
rows by their values of the columns a loader reads, then parses each
distinct token of each of the loader's fields once into a token -> code
table and maps the tables over the columns: one pass on success, with
memory that grows with the distinct rows, not the rows; a failure re-reads
the file for its line (a pipe notes each row's first line instead). When
the loader reads every column of a regular file, the pass counts distinct
text lines instead, unless a line holds a quote or is rejected by the csv
module. So records, census rows and survey respondents are all counted at
load, and the survey is held as integer-coded columns.
Loaders are deterministic: identical bytes produce identical datasets, and
the returned objects are immutable and freely shareable.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DataError,
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
from .report import SURVEY_MODES

if TYPE_CHECKING:  # model and simulate load only when a function below needs them
    from .model import PopulationModel
    from .simulate import EncounterTable, OracleReport

#: Tokens treated as a missing value in survey item columns.
MISSING_TOKENS = ("", "NA", "na", "N/A")

#: The value of each survey item token that parses: 0, 1, or None for a missing value.
ITEM_VALUES = {"0": 0, "1": 1, **dict.fromkeys(MISSING_TOKENS)}

#: Cap on reported police contacts in the weighted modes; larger counts are
#: excluded as outliers before weighting.
MAX_WEIGHTED_CONTACTS = 30

#: Distinct rows a loader codes at a time; their csv strings are the load's working memory.
CHUNK_ROWS = 1024

POOLED_KEY = "all"
STRATUM_SEPARATOR = "|"


def _check_race_map(race_map: object, where: str) -> None:
    """A race map is a non-empty mapping whose values are the integers 0 and 1."""
    if not isinstance(race_map, Mapping) or not race_map:
        raise ValueError(f"{where} must be a non-empty object, got {race_map!r}")
    bad = {k: v for k, v in race_map.items() if type(v) is not int or v not in (0, 1)}
    if bad:
        raise ValueError(f"{where} values must be 0 or 1, got {bad}")


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

    def __post_init__(self) -> None:
        if self.race_map is not None:
            _check_race_map(self.race_map, "schema.survey.race_map")


@dataclass(frozen=True)
class SchemaConfig:
    """Column names and value mappings for the three input schemas."""

    race_column: str = "d"
    race_map: Mapping[str, int] = field(default_factory=lambda: {"1": 1, "0": 0})
    force_column: str = "y"
    stratum_columns: tuple[str, ...] = ("x",)
    survey: SurveySchema = field(default_factory=SurveySchema)

    def __post_init__(self) -> None:
        _check_race_map(self.race_map, "schema.race_map")

    def survey_race_map(self) -> Mapping[str, int]:
        return self.survey.race_map if self.survey.race_map is not None else self.race_map

    @classmethod
    def from_dict(cls, record: object) -> "SchemaConfig":
        """The config's JSON ``schema`` value (null: the default); ValueError if malformed."""
        return cls(**_schema_fields(cls, {} if record is None else record, "schema"))


def _schema_fields(cls: type, record: object, where: str) -> dict:
    """Checked constructor arguments of a schema class from a JSON object.

    Column names are strings, ``stratum_columns`` a list of strings, and a
    ``survey`` object gives the SurveySchema; a null value keeps the default.
    Race maps are checked when the class is built.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{where} must be an object, got {record!r}")
    unknown = sorted(set(record) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    kwargs = {key: value for key, value in record.items() if value is not None}
    for key, value in kwargs.items():
        name = f"{where}.{key}"
        if key == "survey":
            kwargs[key] = SurveySchema(**_schema_fields(SurveySchema, value, name))
        elif key == "stratum_columns":
            if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
                raise ValueError(f"{name} must be a list of strings, got {value!r}")
            kwargs[key] = tuple(value)
        elif key != "race_map" and not isinstance(value, str):
            raise ValueError(f"{name} must be a string, got {value!r}")
    return kwargs


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


def _header(reader, path: str | Path, required: Sequence[str]) -> tuple[dict[str, int], int]:
    """Position of every header name, and the header's width; the file must name ``required``."""
    header = next(reader, None)
    if header is None:
        raise MissingColumnError(f"{path}: file is empty, expected a header row")
    indices = {name.strip(): i for i, name in enumerate(header)}
    missing = [name for name in required if name not in indices]
    if missing:
        raise MissingColumnError(f"{path}: missing columns {missing}; header was {header}")
    return indices, len(header)


def _stratum_key(values: Sequence[str], line: int) -> str:
    """Stratum key of a row's stratum column values: joined by STRATUM_SEPARATOR.

    With two or more columns a value containing the separator would make
    distinct strata share a key, so it is unparseable.
    """
    if len(values) < 2:
        return values[0].strip() if values else POOLED_KEY
    values = [v.strip() for v in values]
    if any(STRATUM_SEPARATOR in v for v in values):
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


def _count_lines(handle, key: Callable[[list[str]], Hashable], tally: Callable) -> tuple | None:
    """``tally`` of each remaining distinct line's ``key`` and count; each line is split once.

    None, with nothing tallied, unless every line is one csv record that the
    csv module accepts; the caller's csv record pass then decides the outcome.
    """
    try:
        first = handle.readline()  # "" when no line follows the header
        if '"' in first:  # every line quoted, as R's write.csv writes: spare the count
            return None
        lines = Counter(chain((first,), handle) if first else ())  # in C, first-occurrence order
    except UnicodeDecodeError:  # the record pass may meet a csv error first
        return None
    if any('"' in line for line in lines):  # a quoted field may span lines
        return None
    try:
        return tally(zip(map(key, csv.reader(lines)), lines.values()))
    except csv.Error:
        return None


def _first_line(path: str | Path, key: Callable[[list[str]], Hashable], target: Hashable) -> int:
    """The physical line number of the first data row whose ``key`` is ``target``."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        next(reader)  # the header, read once already
        for row in reader:
            if key(row) == target:
                return reader.line_num
    raise DataError(f"{path}: file changed while it was read")


class _TokenCodes(dict):
    """Token -> code of its parsed value (-1: it failed to parse), parsing each on first lookup.

    ``values`` maps each distinct value to its code, ``failures`` each failing token to its
    exception type.
    """

    def __init__(self, parse: Callable[[Any, int], Hashable]):
        super().__init__()
        self.parse, self.values, self.failures = parse, {}, {}

    def __missing__(self, token: Hashable) -> int:
        try:
            value = self.parse(token, 0)  # line 0 stands in until a failure is located
        except (DataError, ValueError) as exc:
            self.failures[token] = type(exc)
            self[token] = -1
        else:
            self[token] = self.values.setdefault(value, len(self.values))
        return self[token]


def _load_rows(
    path: str | Path,
    required: Sequence[str],
    fields: Sequence[tuple[int | tuple[int, ...], Callable[[Any, int], Hashable]]],
    *,
    optional: Sequence[str] = (),
    skip_unparseable: bool = False,
) -> tuple[list[np.ndarray], list[list], np.ndarray, LoadReport]:
    """The loaded rows of a CSV file as coded fields, parsing each distinct token of a field once.

    A row's columns are its values of the ``required`` columns, then of the
    ``optional`` ones ("" for an optional column the header lacks). A field
    is a column's position, or a tuple of positions whose values make one
    token, and ``parse(token, line)``; field by field, it runs once per
    distinct token of the rows every earlier field accepted. A row whose
    first field parses to None is dropped (unmapped race). A row of the
    wrong width, or whose first failing field raises UnparseableRowError,
    stops the load; with ``skip_unparseable`` it is counted and skipped
    instead. Any other DataError or ValueError from ``parse`` stops the
    load, and so does text the csv module cannot split into fields, once the
    rows before it are counted. Returns each field's codes of the loaded
    distinct rows and the distinct values they index, the number of rows
    each loaded row stands for, and the report.

    One pass counts the file's rows by key: a row's values of the columns
    read, or its width alone when that is wrong. When every header column is
    read, the pass counts the distinct text lines in C and splits each with
    the csv module once; it reads one csv record at a time when the file has
    another column (its lines would all differ) or is a pipe, a data line
    holds a quote (a quoted field may span lines), or the csv module rejects
    a line. Memory grows with the distinct lines or keys, not with the rows,
    and the distinct rows are coded CHUNK_ROWS at a time, in the order each
    first occurs. The first failing distinct row is the file's first failing
    row; only then is the file read again, up to that row, for its line
    number (a pipe's pass notes the line where each key first occurs).
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:  # tolerate a byte-order mark
        reader = csv.reader(handle)
        try:
            indices, width = _header(reader, path, required)
        except csv.Error as exc:
            raise UnparseableRowError(str(exc), reader.line_num) from exc
        positions = [indices.get(column) for column in (*required, *optional)]
        read = [p for p in positions if p is not None]  # None: an absent optional column
        absent = [i for i, p in enumerate(positions) if p is None]
        project = itemgetter(*read)
        first_lines: dict[Hashable, int] = {}  # noted only when the file is a pipe

        def row_key(row: list[str]) -> Hashable:
            return project(row) if len(row) == width else len(row)

        def noted_key(row: list[str]) -> Hashable:
            key = row_key(row)
            first_lines.setdefault(key, reader.line_num)
            return key

        def code_chunk(pairs: list, start: int, tables: list, failed: dict) -> tuple:
            """Counts, loaded and dropped masks and codes of the distinct rows from ``start``."""
            keys, number = zip(*pairs) if pairs else ((), ())
            n = len(keys)
            alive = np.ones(n, dtype=bool)
            rows = keys
            if int in set(map(type, keys)):  # a wrong-width row's key is its width
                rows = list(keys)
                for i, key in enumerate(keys):
                    if type(key) is int:
                        failed[start + i] = (None, UnparseableRowError, key, None)
                        alive[i] = False
                        rows[i] = ("",) * len(read) if len(read) > 1 else ""
            columns = (list(zip(*rows)) if len(read) > 1 else [rows]) if n else [()] * len(read)
            for i in absent:  # in increasing order, so each lands at its own index
                columns.insert(i, ("",) * n)
            dropped = np.zeros(n, dtype=bool)
            codes = []
            for f, ((at, _), table) in enumerate(zip(fields, tables)):
                column = columns[at] if isinstance(at, int) else (
                    list(zip(*(columns[p] for p in at))) or [()] * n
                )
                code = np.full(n, -1, dtype=np.int64)
                code[alive] = np.fromiter(
                    map(table.__getitem__, compress(column, alive)), np.int64, int(alive.sum())
                )
                for i in np.flatnonzero(alive & (code < 0)).tolist():  # its token failed
                    failed[start + i] = (f, table.failures[column[i]], keys[i], column[i])
                alive &= code >= 0
                if f == 0 and None in table.values:
                    dropped = alive & (code == table.values[None])
                    alive &= ~dropped
                codes.append(code)
            return np.array(number, dtype=np.int64), alive, dropped, *codes

        def tally(counts: Iterable[tuple[Hashable, int]]) -> tuple:
            tables = [_TokenCodes(parse) for _, parse in fields]
            failed: dict[int, tuple] = {}  # row -> (field, error type, key, token); None: width
            counts = iter(counts)
            chunks = iter(lambda: list(islice(counts, CHUNK_ROWS)), [])
            parts = [code_chunk(c, i * CHUNK_ROWS, tables, failed) for i, c in enumerate(chunks)]
            parts = parts or [code_chunk([], 0, tables, failed)]
            number, alive, dropped, *codes = (np.concatenate(part) for part in zip(*parts))
            stop = [
                i for i, (_, kind, _, _) in failed.items()
                if not (skip_unparseable and issubclass(kind, UnparseableRowError))
            ]
            if stop:  # the first failing distinct row is the file's first failing row
                f, _, key, token = failed[min(stop)]
                line = first_lines.get(key) or _first_line(path, row_key, key)
                if f is None:
                    raise UnparseableRowError(f"expected {width} fields, got {key}", line)
                fields[f][1](token, line)  # raises, as it did at line 0
            loaded, n_dropped, unparseable = (
                int(number[which].sum()) for which in (alive, dropped, list(failed))
            )
            report = LoadReport(
                str(path), loaded + n_dropped + unparseable, loaded, n_dropped, unparseable
            )
            codes = [code[alive] for code in codes]
            return codes, [list(table.values) for table in tables], number[alive], report

        # an unread column would make every line distinct, and a pipe cannot be read twice
        if set(read) == set(range(width)) and handle.seekable():
            result = _count_lines(handle, row_key, tally)
            if result is not None:
                return result
            handle.seek(0)  # the record pass, from the top
            reader = csv.reader(handle)
            next(reader)
        counts: Counter = Counter()  # insertion order is first-occurrence order
        csv_error = None
        try:  # rows counted before an error stay counted
            counts.update(map(row_key if handle.seekable() else noted_key, reader))
        except csv.Error as exc:  # malformed CSV, e.g. a field over the csv module's size limit
            csv_error = UnparseableRowError(str(exc), reader.line_num)
            csv_error.__cause__ = exc
    result = tally(counts.items())
    if csv_error is not None:  # every row before the malformed text loaded, dropped or skipped
        raise csv_error
    return result


def load_administrative(
    path: str | Path,
    config: SchemaConfig = DEFAULT_SCHEMA,
    *,
    skip_unparseable: bool = False,
) -> tuple[AdministrativeDataset, LoadReport]:
    """Load detainment records, mapping race strings per the config race map.

    Rows with a race string outside the race map are dropped and counted.
    Malformed rows raise UnparseableRowError with the physical line number;
    with ``skip_unparseable`` they are counted and skipped instead. The
    records come out grouped by (race, force, stratum), in the order each
    first occurs.
    """
    race_map = config.race_map
    fields = [
        (0, lambda token, line: race_map.get(token.strip())),
        (1, lambda token, line: _parse_binary(token, "force", line)),
        (tuple(range(2, 2 + len(config.stratum_columns))), _stratum_key),
    ]
    required = [config.race_column, config.force_column, *config.stratum_columns]
    (d, y, x), (races, forces, keys), number, report = _load_rows(
        path, required, fields, skip_unparseable=skip_unparseable
    )
    cell = 4 * x + 2 * _recoded(races, d) + _recoded(forces, y)
    cells = np.fromiter(dict.fromkeys(cell.tolist()), dtype=np.intc)  # first-occurrence order
    rows = np.bincount(cell, number, minlength=4 * len(keys))[cells].astype(np.int64)
    return AdministrativeDataset(np.repeat(cells, rows), tuple(keys)), report


CENSUS_COLUMNS = ("stratum", "count_d1", "count_d0")


def load_census(path: str | Path) -> tuple[ExternalRaceDistribution, LoadReport]:
    """Load per-stratum population counts into a census-fixed distribution.

    Strata whose counts sum to zero are kept with an undefined share so they
    surface as explicit undefined results downstream. Negative or non-finite
    counts raise NegativeCountError.
    """

    def parse(values: tuple[str, ...], line: int) -> tuple[str, float, float]:
        stratum, *tokens = [value.strip() for value in values]
        # ASCII decimals with an optional exponent, as R writes 1e+05
        if not all(re.fullmatch(r"-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?", t) for t in tokens):
            raise UnparseableRowError(f"counts must be decimal numbers, got {tokens}", line)
        c1, c0 = map(float, tokens)
        if not (np.isfinite(c1) and np.isfinite(c0)) or c1 < 0 or c0 < 0:
            raise NegativeCountError(f"{path} line {line}: counts must be finite and nonnegative")
        return stratum, c1, c0

    (code,), (parsed,), number, report = _load_rows(path, CENSUS_COLUMNS, [((0, 1, 2), parse)])
    rows = np.bincount(code, number, minlength=len(parsed)).astype(np.int64).tolist()
    counts: dict[str, tuple[float, float]] = {}
    for (key, c1, c0), n in zip(parsed, rows):  # duplicates accumulate
        old1, old0 = counts.get(key, (0.0, 0.0))
        counts[key] = (old1 + n * c1, old0 + n * c0)
    return ExternalRaceDistribution.census_from_counts(counts), report


@dataclass(frozen=True, eq=False)
class SurveyTable:
    """Distinct survey rows as integer-coded columns, and the number of file rows each stands for.

    ``columns`` is an int64 array with one row per column: race (0/1), the
    items stop_public, stop_vehicle, stop_other and large_metro (0/1, -1
    when missing), contacts (-1 when missing; a count above
    MAX_WEIGHTED_CONTACTS is held as one more than it, since every mode
    treats those alike) and the stratum code, an index into ``keys``.
    """

    columns: np.ndarray
    keys: tuple[str, ...]
    count: np.ndarray

    @property
    def n(self) -> int:
        return int(self.count.sum())


def _recoded(values: list, code: np.ndarray) -> np.ndarray:
    """The value that each code indexes in ``values``, as int64, with -1 for None."""
    return np.array([-1 if v is None else v for v in values], dtype=np.int64)[code]


def _parse_item(token: str, what: str, line: int) -> int | None:
    token = token.strip()
    if token in ITEM_VALUES:
        return ITEM_VALUES[token]
    raise UnparseableRowError(f"{what} must be 0 or 1, got {token!r}", line)


def _parse_count(token: str, line: int) -> int | None:
    token = token.strip()
    if token in MISSING_TOKENS:
        return None
    if not (token.isascii() and token.isdigit()):  # [0-9]+
        raise UnparseableRowError(f"contact count {token!r} is not a nonnegative integer", line)
    return int(token)


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
    items = ("stop_public", "stop_vehicle", "stop_other", "large_metro")
    k = len(schema.stratum_columns)  # race, the stratum values, the items, then contacts
    fields = [
        (0, lambda token, line: race_map.get(token.strip())),
        *(
            (k + 1 + i, lambda token, line, what=what: _parse_item(token, what, line))
            for i, what in enumerate(items)
        ),
        (k + 5, _parse_count),
        (tuple(range(1, k + 1)), _stratum_key),
    ]
    required = [schema.race_column, *schema.stratum_columns]
    optional = [*(getattr(schema, f"{name}_column") for name in items), schema.contacts_column]
    codes, values, number, report = _load_rows(
        path, required, fields, optional=optional, skip_unparseable=skip_unparseable
    )
    values[5] = [None if v is None else min(v, MAX_WEIGHTED_CONTACTS + 1) for v in values[5]]
    columns = np.stack([*(_recoded(v, code) for v, code in zip(values, codes[:6])), codes[6]])
    return SurveyTable(columns, tuple(values[6]), number), report


def derive_survey_distribution(
    survey: SurveyTable, mode: str
) -> ExternalRaceDistribution:
    """Apply a subset/weighting mode and count respondents per (stratum, race, weight).

    A respondent missing any item the mode reads is excluded. Weighted modes
    use the reported contact count as the weight after removing respondents
    with more than 30 contacts. Raises EmptySubsetError when nothing usable
    remains or the subset's total weight is zero. The mode is a mask over the
    table's rows, and one ``bincount`` counts the kept rows by stratum code,
    race and weight; each scope's (race, weight) cells then come out sorted.
    """
    if mode not in SURVEY_MODES:
        raise ValueError(f"unknown survey mode {mode!r}; expected one of {SURVEY_MODES}")

    race, public, vehicle, other, metro, contacts, stratum = survey.columns
    keep = np.ones(len(survey.count), dtype=bool)
    if mode in ("large-metro", "weighted-large-metro"):
        keep &= metro == 1
    if mode == "mv-stop":
        keep &= vehicle == 1
    if mode == "stop-in-public":
        keep &= (public >= 0) & (other >= 0) & ((public == 1) | (other == 1))
    weights, weight = np.ones(1), np.zeros_like(contacts)  # each weight code's weight; each row's
    if mode in ("weighted", "weighted-large-metro"):
        keep &= (contacts >= 0) & (contacts <= MAX_WEIGHTED_CONTACTS)
        weights, weight = np.arange(MAX_WEIGHTED_CONTACTS + 1.0), contacts

    # cells in (race, weight) order, so each scope's nonzero cells are sorted
    cells = np.column_stack([np.repeat([0.0, 1.0], len(weights)), np.tile(weights, 2)])
    code = (stratum * 2 + race) * len(weights) + weight
    table = np.bincount(code[keep], survey.count[keep], len(survey.keys) * len(cells))
    table = table.astype(np.int64).reshape(len(survey.keys), len(cells))
    pooled = table.sum(axis=0)
    if not pooled.any():
        raise EmptySubsetError(f"survey mode {mode!r} selected no usable respondents")
    if not pooled @ cells[:, 1]:
        raise EmptySubsetError(f"survey mode {mode!r} subset has zero total weight")

    def scope(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = np.flatnonzero(counts)
        return cells[at], counts[at]

    scopes = {None: scope(pooled)}
    scopes.update((key, scope(counts)) for key, counts in zip(survey.keys, table) if counts.any())
    return ExternalRaceDistribution.from_survey(SurveyRespondents(scopes))


# -- model files and artifact writers ------------------------------------------


def read_model_file(path: str | Path) -> PopulationModel:
    from .model import PopulationModel

    return PopulationModel.loads(Path(path).read_text(encoding="utf-8"))


def write_model_file(model: PopulationModel, path: str | Path) -> None:
    Path(path).write_text(model.dumps(), encoding="utf-8")


ENCOUNTER_COLUMNS = ("d", "s", "m0", "m1", "y01", "y11", "m", "y", "x")


class _Echo:
    """A file whose ``write`` returns the text: ``csv.writer(_Echo()).writerow`` formats a line."""

    def write(self, text: str) -> str:
        return text


def _write_csv(
    path: str | Path, header: Sequence, code: np.ndarray, row_of: Callable[[int], Sequence]
) -> None:
    """Write ``header``, then the row ``row_of(c)`` for each ``c`` in ``code``.

    Each distinct code's line is formatted by the csv module once.
    """
    format_row = csv.writer(_Echo()).writerow
    distinct, inverse = np.unique(code, return_inverse=True)
    lines = np.array([format_row(row_of(c)) for c in distinct.tolist()], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(format_row(header))
        handle.write("".join(lines[inverse].tolist()))


def write_encounters(table: EncounterTable, path: str | Path) -> None:
    """Write the full potential-outcome table as CSV (debugging aid), a line per cell code."""
    from .model import STRATA
    from .simulate import cell_values

    rows = [(d, STRATA[s], *rest, table.x) for d, s, *rest in cell_values(*ENCOUNTER_COLUMNS[:-1])]
    _write_csv(path, ENCOUNTER_COLUMNS, table.code, rows.__getitem__)


def write_administrative(dataset: AdministrativeDataset, path: str | Path) -> None:
    """Write detainment records in the default schema (columns d, y, x)."""
    keys = [str(key) for key in dataset.keys]
    _write_csv(path, ("d", "y", "x"), dataset.cell, lambda c: (c >> 1 & 1, c & 1, keys[c >> 2]))


def write_oracle_report(
    report: OracleReport, path: str | Path, *, meta: Mapping | None = None
) -> None:
    record = dict(meta or {})
    record.update(report.to_dict())
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
