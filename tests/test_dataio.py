"""Loader tests: schema mapping, drop accounting, survey modes, round trips."""

import csv
import io
import os
import re
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crrkit import dataio
from crrkit.dataio import (
    DEFAULT_SCHEMA,
    SchemaConfig,
    SurveySchema,
    derive_survey_distribution,
    load_administrative,
    load_census,
    load_survey,
    read_model_file,
    write_administrative,
    write_encounters,
    write_model_file,
)
from crrkit.errors import (
    DataError,
    EmptySubsetError,
    InvalidModelError,
    MissingColumnError,
    NegativeCountError,
    UnparseableRowError,
)
from crrkit.estimate import (
    AdministrativeDataset,
    ExternalRaceDistribution,
    naive_risk_ratio,
)
from crrkit.model import STRATA, PopulationModel
from crrkit.simulate import sample_encounters, to_administrative
from crrkit.verify import TOY_MODEL

CITY_SCHEMA = SchemaConfig(
    race_column="race",
    race_map={"BLACK": 1, "WHITE": 0},
    force_column="force",
    stratum_columns=("precinct",),
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def respondents(table):
    """A survey table's rows as (race, stop_public, stop_vehicle, stop_other, contacts,
    large_metro, stratum key) tuples, None for a missing value, in table order."""
    race, public, vehicle, other, metro, contacts, stratum = (
        [None if code < 0 else code for code in column] for column in table.columns.tolist()
    )
    keys = [table.keys[code] for code in stratum]
    return tuple(zip(race, public, vehicle, other, contacts, metro, keys))


class TestAdministrativeLoader:
    def test_race_mapping_and_drop_count(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\n"
            "BLACK,1,7\n"
            "WHITE,0,7\n"
            "OTHER,1,7\n"
            "BLACK,0,9\n",
        )
        data, report = load_administrative(path, CITY_SCHEMA)
        assert data.n == 3
        assert report.n_physical == 4
        assert report.n_dropped == 1
        assert report.n_unparseable == 0
        assert list(data.d) == [1, 0, 1]
        assert list(data.x) == ["7", "7", "9"]

    def test_empty_file_with_header(self, tmp_path):
        path = write(tmp_path, "admin.csv", "race,force,precinct\n")
        data, report = load_administrative(path, CITY_SCHEMA)
        assert data.n == 0
        assert report.n_physical == 0

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "admin.csv", "race,precinct\nBLACK,7\n")
        with pytest.raises(MissingColumnError):
            load_administrative(path, CITY_SCHEMA)

    def test_headerless_empty_file(self, tmp_path):
        with pytest.raises(MissingColumnError):
            load_administrative(write(tmp_path, "e.csv", ""), CITY_SCHEMA)

    def test_unparseable_row_carries_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\nBLACK,1,7\nWHITE,maybe,7\n",
        )
        with pytest.raises(UnparseableRowError) as excinfo:
            load_administrative(path, CITY_SCHEMA)
        assert excinfo.value.line == 3

    def test_row_count_conservation_with_skip(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\n"
            "BLACK,1,7\n"
            "WHITE,maybe,7\n"
            "OTHER,1,7\n"
            "BLACK,7\n"
            "WHITE,0,9\n",
        )
        data, report = load_administrative(path, CITY_SCHEMA, skip_unparseable=True)
        assert report.n_physical == 5
        assert report.n_loaded + report.n_dropped + report.n_unparseable == 5
        assert report.n_loaded == data.n == 2
        assert report.n_unparseable == 2

    def test_pooled_key_without_stratum_columns(self, tmp_path):
        schema = SchemaConfig(
            race_column="race",
            race_map={"B": 1, "W": 0},
            force_column="force",
            stratum_columns=(),
        )
        path = write(tmp_path, "admin.csv", "race,force\nB,1\nW,0\n")
        data, _ = load_administrative(path, schema)
        assert list(data.x) == ["all", "all"]

    def test_composite_stratum_key(self, tmp_path):
        schema = SchemaConfig(
            race_column="race",
            race_map={"B": 1, "W": 0},
            force_column="force",
            stratum_columns=("age", "gender"),
        )
        path = write(tmp_path, "admin.csv", "race,force,age,gender\nB,1,18-24,m\n")
        data, _ = load_administrative(path, schema)
        assert list(data.x) == ["18-24|m"]

    def test_text_the_csv_module_rejects_is_unparseable(self, tmp_path):
        too_long = "a" * (csv.field_size_limit() + 1)
        for text, line in (
            (f"d,y,x\n1,1,a\n1,0,{too_long}\n", 3),
            (f"d,y,{too_long}\n1,1,a\n", 1),
        ):
            path = write(tmp_path, "admin.csv", text)
            for skip in (False, True):
                with pytest.raises(UnparseableRowError, match=f"line {line}: field larger"):
                    load_administrative(path, skip_unparseable=skip)

    def test_separator_in_composite_stratum_value(self, tmp_path):
        # "a|b" + "c" and "a" + "b|c" would both join to "a|b|c"
        schema = SchemaConfig(
            race_column="race",
            race_map={"B": 1, "W": 0},
            force_column="force",
            stratum_columns=("s1", "s2"),
        )
        path = write(
            tmp_path, "admin.csv", "race,force,s1,s2\nB,1,x,y\nB,1,a|b,c\nW,0,a,b|c\n"
        )
        with pytest.raises(UnparseableRowError, match="stratum value") as excinfo:
            load_administrative(path, schema)
        assert excinfo.value.line == 3
        data, report = load_administrative(path, schema, skip_unparseable=True)
        assert list(data.x) == ["x|y"]
        assert report.n_unparseable == 2

    def test_separator_in_single_stratum_value_kept(self, tmp_path):
        # one column cannot collide; census keys name composite strata this way
        path = write(tmp_path, "admin.csv", "race,force,precinct\nBLACK,1,7|north\n")
        data, _ = load_administrative(path, CITY_SCHEMA)
        assert list(data.x) == ["7|north"]

    def test_loader_determinism(self, tmp_path):
        path = write(
            tmp_path, "admin.csv", "race,force,precinct\nBLACK,1,7\nWHITE,0,9\n"
        )
        a, _ = load_administrative(path, CITY_SCHEMA)
        b, _ = load_administrative(path, CITY_SCHEMA)
        assert np.array_equal(a.d, b.d)
        assert np.array_equal(a.y, b.y)
        assert list(a.x) == list(b.x)

    def test_loaded_records_hold_a_few_bytes_each(self, tmp_path):
        # one int32 cell per record and one key per stratum; a str, int or
        # tuple object kept per record would hold 28 bytes or more
        n = 100_000
        rng = np.random.default_rng(0)
        d, y, x = rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 50, n)
        path = write(
            tmp_path, "admin.csv", "d,y,x\n" + "".join(f"{a},{b},p{c}\n" for a, b, c in zip(d, y, x))
        )
        tracemalloc.start()
        try:
            data, report = load_administrative(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert report.n_loaded == data.n == n
        assert held < 8 * n, held / n

    def test_race_map_is_mandatory(self):
        with pytest.raises(ValueError):
            SchemaConfig(race_map={})
        with pytest.raises(ValueError):
            SchemaConfig(race_map={"B": 2})

    def test_survey_race_map_follows_the_same_rule(self):
        for race_map in ({"B": 1, "W": 0, "H": 7}, {}, {"B": True, "W": 0}, ["B"]):
            with pytest.raises(ValueError, match="schema.survey.race_map"):
                SurveySchema(race_map=race_map)
            with pytest.raises(ValueError, match="schema.survey.race_map"):
                SchemaConfig.from_dict({"survey": {"race_map": race_map}})
        assert SurveySchema().race_map is None  # inherits the admin map


def reference_load(path, config, skip_unparseable=False):
    """The administrative loader's rules applied row by row, in file order.

    Returns per-(key, d, y) record counts, the stratum keys in first-loaded
    order and the LoadReport fields, or raises what the loader must raise.
    """
    columns = [config.race_column, config.force_column, *config.stratum_columns]
    counts, keys = Counter(), {}
    loaded = dropped = unparseable = 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise MissingColumnError("empty")
            indices = {name.strip(): i for i, name in enumerate(header)}
            if any(column not in indices for column in columns):
                raise MissingColumnError("missing")
            for row in reader:
                line = reader.line_num
                try:
                    if len(row) != len(header):
                        raise UnparseableRowError(
                            f"expected {len(header)} fields, got {len(row)}", line
                        )
                    race, force, *values = (row[indices[c]].strip() for c in columns)
                    d = config.race_map.get(race)
                    if d is None:
                        dropped += 1
                        continue
                    if force not in ("0", "1"):
                        raise UnparseableRowError(f"force must be 0 or 1, got {force!r}", line)
                    if len(values) > 1 and any("|" in v for v in values):
                        raise UnparseableRowError(
                            "stratum value contains '|', which joins the stratum columns", line
                        )
                except UnparseableRowError:
                    if not skip_unparseable:
                        raise
                    unparseable += 1
                    continue
                key = "|".join(values) if values else "all"
                keys.setdefault(key, len(keys))
                counts[key, d, int(force)] += 1
                loaded += 1
        except csv.Error as exc:
            raise UnparseableRowError(str(exc), reader.line_num) from exc
    return counts, tuple(keys), (loaded + dropped + unparseable, loaded, dropped, unparseable)


def loaded_counts(data):
    return Counter(zip(data.x.tolist(), data.d.tolist(), data.y.tolist()))


#: Race, force and stratum tokens, valid and not, for the differential loader test.
FIELDS = st.sampled_from(["B", "W", "O", " B", "0", "1", " 1", "2", "", "a", "a|b", "x\ny"])


class TestAdministrativeCountingPass:
    """The loader counts distinct rows; every outcome matches a row-by-row parse."""

    def test_repeated_bad_row_after_a_different_one_names_the_earliest_line(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\n"
            "BLACK,1,7\n"
            "BLACK,2,7\n"  # line 3: repeated below
            "WHITE,0,7\n"
            "WHITE,maybe,9\n"  # line 5: the first row of its kind, after line 3's
            "BLACK,2,7\n"
            "BLACK,2,7\n",
        )
        with pytest.raises(UnparseableRowError) as excinfo:
            load_administrative(path, CITY_SCHEMA)
        assert (excinfo.value.line, excinfo.value.reason) == (3, "force must be 0 or 1, got '2'")
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\n"
            "WHITE,maybe,9\n"  # line 2: the earliest bad row, once
            "BLACK,2,7\n"
            "BLACK,2,7\n",
        )
        with pytest.raises(UnparseableRowError, match="line 2: force must be 0 or 1, got 'maybe'"):
            load_administrative(path, CITY_SCHEMA)

    @pytest.mark.parametrize(
        "row, line, got",
        [("BLACK,1", 3, 2), ("BLACK,1,7,extra", 3, 4), ("", 3, 0), ("WHITE,0,9,,", 4, 5)],
    )
    def test_short_and_long_rows(self, tmp_path, row, line, got):
        body = "BLACK,1,7\n" + ("WHITE,0,7\n" if line == 4 else "")
        path = write(tmp_path, "admin.csv", f"race,force,precinct\n{body}{row}\n{row}\nBLACK,1,7\n")
        with pytest.raises(UnparseableRowError) as excinfo:
            load_administrative(path, CITY_SCHEMA)
        # csv reads an empty line as a row of no fields
        assert (excinfo.value.line, excinfo.value.reason) == (line, f"expected 3 fields, got {got}")
        data, report = load_administrative(path, CITY_SCHEMA, skip_unparseable=True)
        assert (report.n_unparseable, report.n_loaded) == (2, data.n) == (2, line - 1)

    def test_bad_row_before_text_the_csv_module_rejects_wins(self, tmp_path):
        too_long = "a" * (csv.field_size_limit() + 1)
        path = write(
            tmp_path, "admin.csv", f"d,y,x\n1,1,a\n1,2,a\n0,0,a\n1,0,{too_long}\n1,2,a\n"
        )
        with pytest.raises(UnparseableRowError, match="line 3: force must be 0 or 1") as excinfo:
            load_administrative(path)
        assert excinfo.value.__cause__ is None
        # skipped rows never stop the load; the csv module's error does
        with pytest.raises(UnparseableRowError, match="line 5: field larger") as excinfo:
            load_administrative(path, skip_unparseable=True)
        assert isinstance(excinfo.value.__cause__, csv.Error)

    def test_quoted_multi_line_stratum_value(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            'race,force,precinct\nBLACK,1,"7\nnorth"\nWHITE,0,"7\nnorth"\nBLACK,2,"9\n\nsouth"\n',
        )
        with pytest.raises(UnparseableRowError) as excinfo:
            load_administrative(path, CITY_SCHEMA)
        assert excinfo.value.line == 8  # the row's last physical line, as csv counts it
        data, report = load_administrative(path, CITY_SCHEMA, skip_unparseable=True)
        assert data.keys == ("7\nnorth",)
        assert (report.n_loaded, report.n_unparseable) == (2, 1)

    def test_duplicates_scale_dropped_and_unparseable_counts(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\n"
            + "OTHER,1,7\n" * 3
            + "BLACK,maybe,7\n" * 2
            + "BLACK,1,7\n" * 4
            + "OTHER,maybe,8\n"  # an unmapped race is dropped before its force is read
            + "WHITE,0\n" * 5,
        )
        data, report = load_administrative(path, CITY_SCHEMA, skip_unparseable=True)
        assert (report.n_physical, report.n_loaded, report.n_dropped, report.n_unparseable) == (
            15, 4, 4, 7
        )
        assert data._table["7"] == (0, 0, 0, 4)

    def test_keys_in_first_loaded_order(self, tmp_path):
        path = write(
            tmp_path,
            "admin.csv",
            "race,force,precinct\n"
            "OTHER,1,z\n"  # dropped: z gets no key
            "BLACK,maybe,q\n"  # skipped: q gets no key
            "BLACK,1,9\n"
            "WHITE,0,7\n"
            "BLACK,1,9\n"
            "WHITE,1, 9\n"  # stripped, so stratum 9
            "BLACK,0,5\n",
        )
        data, _ = load_administrative(path, CITY_SCHEMA, skip_unparseable=True)
        assert data.keys == ("9", "7", "5")
        assert data._table == {
            "9": (0, 1, 0, 2), "7": (1, 0, 0, 0), "5": (0, 0, 1, 0), None: (1, 1, 1, 2)
        }
        # records come out grouped by distinct row, in first-occurrence order
        assert data.cell.tolist() == [3, 3, 4, 1, 10]

    @settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(  # each row: its width less the header's, and its values
            st.tuples(st.sampled_from([0] * 8 + [-1, 1]), st.lists(FIELDS, min_size=6, max_size=6)),
            max_size=25,
        ),
        strata=st.sampled_from([(), ("s",), ("s", "t")]),
        extra=st.booleans(),  # an unread id column, so the csv record pass reads the file
        multiline=st.booleans(),  # keep "x\ny", which csv writes quoted
        line_ends=st.lists(st.sampled_from(["\r\n", "\n", "\n\n"]), min_size=1, max_size=3),
        long_field=st.one_of(st.none(), st.integers(0, 25)),
        bom=st.booleans(),
        skip=st.booleans(),
    )
    @example(rows=[(0, ["B", "2", "a", "i", "", ""])] * 2 + [(0, ["W", "0", "a", "i", "", ""])],
             strata=("s",), extra=True, multiline=False, line_ends=["\r\n"], long_field=2,
             bom=False, skip=False)
    @example(rows=[(0, ["B", "2", "a", "", "", ""])] * 2 + [(0, ["W", "0", "a", "", "", ""])],
             strata=("s",), extra=False, multiline=False, line_ends=["\n"], long_field=2,
             bom=False, skip=False)
    def test_matches_a_row_by_row_parse(
        self, tmp_path, rows, strata, extra, multiline, line_ends, long_field, bom, skip
    ):
        config = SchemaConfig(
            race_column="race",
            race_map={"B": 1, "W": 0},
            force_column="force",
            stratum_columns=strata,
        )
        header = ("race", "force", *strata, *(("id",) if extra else ()))
        handle = io.StringIO()
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for delta, values in rows:
            values = values[: len(header) + delta]
            writer.writerow(values if multiline else [v.replace("\n", "") for v in values])
        lines = handle.getvalue().split("\n")[:-1]
        if long_field is not None:  # text the csv module rejects, somewhere among the rows
            lines.insert(min(long_field, len(lines)), "B,1," + "z" * 100)
        text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
        path = write(tmp_path, "admin.csv", ("\ufeff" if bom else "") + text)
        limit = csv.field_size_limit(50)
        try:
            try:
                expected = reference_load(path, config, skip)
            except UnparseableRowError as exc:
                with pytest.raises(UnparseableRowError) as excinfo:
                    load_administrative(path, config, skip_unparseable=skip)
                assert (str(excinfo.value), excinfo.value.line) == (str(exc), exc.line)
                return
            except MissingColumnError:
                with pytest.raises(MissingColumnError):
                    load_administrative(path, config, skip_unparseable=skip)
                return
            data, report = load_administrative(path, config, skip_unparseable=skip)
        finally:
            csv.field_size_limit(limit)
        counts, keys, report_fields = expected
        assert loaded_counts(data) == counts
        assert data.keys == keys
        assert (report.n_physical, report.n_loaded, report.n_dropped, report.n_unparseable) == (
            report_fields
        )


def load_outcome(path, config=DEFAULT_SCHEMA, skip=False):
    """What loading ``path`` gives: the cells in order, keys and report, or the error raised."""
    try:
        data, report = load_administrative(path, config, skip_unparseable=skip)
    except UnparseableRowError as exc:
        return type(exc), str(exc), exc.line
    return data.cell.tolist(), data.keys, report.n_physical, report.n_loaded, report.n_dropped, (
        report.n_unparseable
    )


class TestLineCounting:
    """Distinct text lines are counted when the loader reads every column; else records are."""

    @pytest.fixture
    def line_path(self, monkeypatch):
        """Whether each line count the loader tried decided the load."""
        results = []

        def spy(handle, key, tally):
            decided = True  # an error raised from the tally decides the load too
            try:
                result = count_lines(handle, key, tally)
                decided = result is not None  # None: the record pass decides
                return result
            finally:
                results.append(decided)

        count_lines = dataio._count_lines
        monkeypatch.setattr(dataio, "_count_lines", spy)
        return results

    @staticmethod
    def record_pass(monkeypatch, path, config=DEFAULT_SCHEMA, skip=False):
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_count_lines", lambda *args: None)
            return load_outcome(path, config, skip)

    def test_crlf_and_lf_line_endings(self, tmp_path, monkeypatch, line_path):
        lines = ["1,1,a", "0,0,b", "1,1,a", "1,0,a", "0,0,b", "1,1,a"]
        text = "d,y,x\r\n" + "".join(
            line + ("\r\n" if i % 2 else "\n") for i, line in enumerate(lines)
        )
        path = write(tmp_path, "admin.csv", text)
        outcome = load_outcome(path)
        assert line_path == [True]
        assert outcome == self.record_pass(monkeypatch, path)
        assert outcome == ([3, 3, 3, 4, 4, 2], ("a", "b"), 6, 6, 0, 0)

    def test_an_unread_column_takes_the_record_pass(self, tmp_path, monkeypatch, line_path):
        rows = ["1,1,a", "0,0,b", "1,1,a", "7,1,c", "1,0,a"]
        plain = write(tmp_path, "plain.csv", "d,y,x\n" + "".join(f"{r}\n" for r in rows))
        with_id = write(
            tmp_path, "id.csv", "d,y,x,id\n" + "".join(f"{r},{i}\n" for i, r in enumerate(rows))
        )
        outcome = load_outcome(with_id)
        assert line_path == []  # one distinct line per row: not worth counting
        assert outcome == load_outcome(plain) == ([3, 3, 4, 2], ("a", "b"), 5, 4, 1, 0)

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("body", ['"1",1,a\n0,0,b\n1,1,a\n', '1,1,a\n0,0,"b"\n1,1,a\n'])
    def test_a_quote_in_one_data_line(self, tmp_path, monkeypatch, line_path, bom, body):
        quoted = write(tmp_path, "quoted.csv", bom + "d,y,x\n" + body)
        plain = write(tmp_path, "plain.csv", bom + "d,y,x\n" + body.replace('"', ""))
        outcome = load_outcome(quoted)
        assert line_path == [False]  # a quoted field may span lines
        assert outcome == self.record_pass(monkeypatch, quoted)
        assert outcome == load_outcome(plain) == ([3, 3, 4], ("a", "b"), 3, 3, 0, 0)
        assert line_path == [False, True]

    def test_a_late_quote_ends_the_count_within_its_block(self, tmp_path, monkeypatch):
        # the first line has no quote; the count stops at the first block that holds one,
        # not after reading the file through
        lines = ["1,1,a\n", "0,0,b\n", '1,0,"a"\n'] + ["0,1,b\n"] * 100_000
        path = write(tmp_path, "late.csv", "d,y,x\n" + "".join(lines))
        tallied = []
        with open(path, newline="", encoding="utf-8-sig") as handle:
            handle.readline()
            assert dataio._count_lines(handle, tuple, tallied.append) is None
            unread = handle.read().count("\n")
        assert tallied == []
        assert 90_000 < unread < len(lines)
        outcome = load_outcome(path)
        assert outcome == self.record_pass(monkeypatch, path)
        assert outcome[2:] == (len(lines), len(lines), 0, 0)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_takes_the_record_pass(self, tmp_path, line_path):
        # a pipe cannot be read again, so a quote found by a line count could not fall back
        path = tmp_path / "admin.fifo"
        os.mkfifo(path)
        text = 'd,y,x\n1,1,"a"\n0,0,b\n'
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            outcome = load_outcome(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert line_path == []
        assert outcome == ([3, 4], ("a", "b"), 2, 2, 0, 0)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_administrative, "d,y,x\n1,1,a\n1,2,a\n0,0,a\n1,2,a\n", "force must be 0 or 1"),
            (load_census, "stratum,count_d1,count_d0\na,1,1\na,-1,1\na,1,1\na,-1,1\n",
             "line 3: counts must be finite"),
            (load_survey, "race,contacts\n1,2\n0,x\n1,2\n0,x\n", "contact count 'x'"),
        ],
        ids=["admin", "census", "survey"],
    )
    def test_a_repeated_bad_row_in_a_pipe_names_its_first_line(
        self, tmp_path, line_path, load, text, message
    ):
        # the pipe is read once, so its pass notes the line where each row first occurs
        path = tmp_path / "input.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            with pytest.raises((UnparseableRowError, NegativeCountError), match=message) as excinfo:
                load(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert line_path == []
        assert getattr(excinfo.value, "line", 3) == 3

    def test_a_survey_with_an_unread_column_takes_the_record_pass(self, tmp_path, line_path):
        rows = ["1,1,2,a", "0,NA,1,b", "1,1,2,a", "7,1,1,a", "0,0,,b"]
        header = "race,stop_vehicle,contacts,x"
        plain = write(tmp_path, "plain.csv", header + "\n" + "".join(f"{r}\n" for r in rows))
        with_id = write(
            tmp_path, "id.csv", header + ",id\n" + "".join(f"{r},{i}\n" for i, r in enumerate(rows))
        )
        schema = SchemaConfig(survey=SurveySchema(stratum_columns=("x",)))
        table, report = load_survey(with_id, schema)
        assert line_path == []  # one distinct line per row: not worth counting
        assert (report.n_loaded, report.n_dropped) == (4, 1)
        plain_table = load_survey(plain, schema)[0]
        assert line_path == [True]
        assert respondents(table) == respondents(plain_table) == (
            (1, None, 1, None, 2, None, "a"), (0, None, None, None, 1, None, "b"),
            (0, None, 0, None, None, None, "b"),
        )
        assert table.count.tolist() == plain_table.count.tolist() == [2, 1, 1]

    def test_absent_survey_item_columns_load_as_missing(self, tmp_path, line_path):
        absent = write(tmp_path, "absent.csv", "contacts,race\n3,1\n,0\n3,1\n")
        blank = write(
            tmp_path, "blank.csv", SURVEY_HEADER + "1,,,,3,\n0,,,,,NA\n1,,,,3,\n"
        )
        table, report = load_survey(absent)
        blank_table = load_survey(blank)[0]
        assert (report.n_physical, report.n_loaded) == (3, 3)
        assert line_path == [True, True]
        assert respondents(table) == respondents(blank_table) == (
            (1, None, None, None, 3, None, "all"), (0, None, None, None, None, None, "all")
        )
        assert table.count.tolist() == blank_table.count.tolist() == [2, 1]
        assert table.n == 3
        assert derive_survey_distribution(table, "weighted").p1_for(None) == 1.0

    def test_blank_lines(self, tmp_path, monkeypatch, line_path):
        path = write(tmp_path, "admin.csv", "d,y,x\n1,1,a\n\n0,0,b\n\r\n1,1,a\n")
        for skip in (False, True):
            assert load_outcome(path, skip=skip) == self.record_pass(monkeypatch, path, skip=skip)
        assert line_path == [True, True]
        assert load_outcome(path) == (UnparseableRowError, "line 3: expected 3 fields, got 0", 3)
        assert load_outcome(path, skip=True) == ([3, 3, 4], ("a", "b"), 5, 3, 0, 2)

    def test_bad_row_after_text_the_csv_module_rejects(self, tmp_path, monkeypatch, line_path):
        too_long = "a" * (csv.field_size_limit() + 1)
        path = write(tmp_path, "admin.csv", f"d,y,x\n1,1,a\n0,0,{too_long}\n1,2,a\n1,1,a\n")
        for skip in (False, True):
            outcome = load_outcome(path, skip=skip)
            assert outcome == self.record_pass(monkeypatch, path, skip=skip)
            assert outcome[::2] == (UnparseableRowError, 3)
            assert "field larger than field limit" in outcome[1]
        assert line_path == [False, False]  # the csv module's error sends it to the record pass

    def test_text_the_csv_module_rejects_before_bytes_that_are_not_utf8(
        self, tmp_path, monkeypatch, line_path
    ):
        # the csv error comes first in the file, so the record pass raises it
        too_long = "a" * (csv.field_size_limit() + 1)
        path = tmp_path / "admin.csv"
        path.write_bytes(
            f"d,y,x\n1,1,a\n0,0,{too_long}\n".encode() + b"1,1,a\n" * 10_000 + b"1,1,\xff\n"
        )
        outcome = load_outcome(path)
        assert line_path == [False]
        assert outcome == self.record_pass(monkeypatch, path)
        assert outcome[::2] == (UnparseableRowError, 3)


class TestSchemaFromDict:
    def test_fields_and_defaults(self):
        schema = SchemaConfig.from_dict(
            {
                "race_column": "race",
                "race_map": {"B": 1, "W": 0},
                "stratum_columns": ["s1", "s2"],
                "force_column": None,  # null keeps the default
                "survey": {"stratum_columns": ["s1"], "race_map": None},
            }
        )
        assert schema.race_column == "race"
        assert schema.force_column == DEFAULT_SCHEMA.force_column
        assert schema.stratum_columns == ("s1", "s2")
        assert schema.survey.stratum_columns == ("s1",)
        assert schema.survey_race_map() == {"B": 1, "W": 0}
        assert SchemaConfig.from_dict({}) == SchemaConfig.from_dict(None) == DEFAULT_SCHEMA

    @pytest.mark.parametrize(
        "record, message",
        [
            ([], "schema must be an object"),
            ({"colour": "x"}, "unknown schema keys"),
            ({"survey": {"colour": "x"}}, "unknown schema.survey keys"),
            ({"survey": 5}, "schema.survey must be an object"),
            ({"race_column": ["d"]}, "schema.race_column must be a string"),
            ({"survey": {"contacts_column": 3}}, "schema.survey.contacts_column must be a string"),
            ({"stratum_columns": "precinct"}, "must be a list of strings"),
            ({"stratum_columns": [["x"]]}, "must be a list of strings"),
            ({"survey": {"stratum_columns": [1]}}, "must be a list of strings"),
            ({"race_map": [1, 0]}, "race_map must be a non-empty object"),
            ({"race_map": {"B": 1.0}}, "race_map values must be 0 or 1"),
        ],
    )
    def test_malformed_record_is_value_error(self, record, message):
        with pytest.raises(ValueError, match=message):
            SchemaConfig.from_dict(record)


class TestCensusLoader:
    def test_shares(self, tmp_path):
        path = write(
            tmp_path,
            "census.csv",
            "stratum,count_d1,count_d0\np7,80,20\np9,0,0\n",
        )
        external, report = load_census(path)
        assert external.p1_for("p7") == 0.8
        assert external.p1_for("p9") is None
        assert report.n_loaded == 2

    def test_duplicate_strata_accumulate(self, tmp_path):
        path = write(
            tmp_path,
            "census.csv",
            "stratum,count_d1,count_d0\np7,30,20\np7,50,0\n",
        )
        external, _ = load_census(path)
        assert external.p1_for("p7") == 0.8
        path = write(
            tmp_path,
            "census.csv",
            "stratum,count_d1,count_d0\np7,30,20\np8,1,3\np7,30,20\n p7 ,20,0\np8,1,3\n",
        )
        external, report = load_census(path)
        # a row (c1, c0) is the cells (1, c1) and (0, c0), sized by its copies
        assert external_fields(external)[0] == {
            "p7": ([[0, 0], [0, 20], [1, 20], [1, 30]], [1, 2, 1, 2]),
            "p8": ([[0, 3], [1, 1]], [2, 2]),
            None: ([[0, 0], [0, 3], [0, 20], [1, 1], [1, 20], [1, 30]], [1, 2, 2, 2, 1, 2]),
        }
        assert (external.p1_for("p7"), external.p1_for("p8")) == (80 / 120, 2 / 8)
        assert external.p1_for(None) == 82 / 128
        assert (report.n_physical, report.n_loaded) == (5, 5)

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ("p8,-1,5", NegativeCountError, "census.csv line 3: counts must be finite"),
            ("p8,1e400,5", NegativeCountError, "census.csv line 3: counts must be finite"),
            ("p8,1", UnparseableRowError, "line 3: expected 3 fields, got 2"),
            ("p8,1,5,9", UnparseableRowError, "line 3: expected 3 fields, got 4"),
            ("p8,x,5", UnparseableRowError, "line 3: counts must be decimal numbers"),
        ],
    )
    def test_repeated_bad_row_names_its_first_line(self, tmp_path, bad, error, message):
        path = write(
            tmp_path,
            "census.csv",
            f"stratum,count_d1,count_d0\np7,1,5\n{bad}\np7,1,5\n{bad}\np9,-2,5\n{bad}\n",
        )
        with pytest.raises(error, match=message):
            load_census(path)

    def test_negative_count(self, tmp_path):
        for count in ("-1", "1e400"):  # negative, and too large for a float
            path = write(tmp_path, "census.csv", f"stratum,count_d1,count_d0\np7,{count},5\n")
            with pytest.raises(NegativeCountError):
                load_census(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "census.csv", "stratum,count_d1\np7,5\n")
        with pytest.raises(MissingColumnError):
            load_census(path)

    def test_row_of_wrong_width(self, tmp_path):
        path = write(tmp_path, "census.csv", "stratum,count_d1,count_d0\np7,1,5\np8,1,5,9\n")
        with pytest.raises(UnparseableRowError, match="line 3: expected 3 fields, got 4"):
            load_census(path)

    def test_non_numeric_count(self, tmp_path):
        path = write(tmp_path, "census.csv", "stratum,count_d1,count_d0\np7,x,5\n")
        with pytest.raises(UnparseableRowError):
            load_census(path)

    @pytest.mark.parametrize("count", ["1_0", "+3", "\u0663", "1_000", "nan", "inf"])
    def test_count_outside_grammar_is_unparseable(self, tmp_path, count):
        path = write(
            tmp_path, "census.csv", f"stratum,count_d1,count_d0\np7,1,5\np8,5,{count}\n"
        )
        with pytest.raises(UnparseableRowError, match="line 3"):
            load_census(path)

    def test_count_grammar_reads_decimals_and_exponents(self, tmp_path):
        path = write(
            tmp_path, "census.csv", "stratum,count_d1,count_d0\na,1e+05,3E5\nb, 2. ,0.5e1\n"
        )
        external, _ = load_census(path)
        assert external.p1_for("a") == 0.25
        assert external.p1_for("b") == 2 / 7

    def test_feeds_stratified_estimation(self, tmp_path):
        from crrkit.estimate import AdministrativeDataset, stratified_estimates

        path = write(
            tmp_path,
            "census.csv",
            "stratum,count_d1,count_d0\na,50,50\nb,30,70\n",
        )
        external, _ = load_census(path)
        rows = [(1, 1, "a"), (1, 0, "a"), (0, 1, "a"), (0, 0, "a")] * 5
        rows += [(1, 1, "b"), (1, 0, "b"), (0, 1, "b"), (0, 0, "b")] * 5
        results = stratified_estimates(
            AdministrativeDataset.from_rows(rows), external, replicates=50, seed=2
        )
        assert all(r.adjusted is not None for r in results)


SURVEY_HEADER = "race,stop_public,stop_vehicle,stop_other,contacts,large_metro\n"


def survey_from(tmp_path, body, schema=None):
    schema = schema or SchemaConfig(
        race_column="d",
        race_map={"1": 1, "0": 0},
        survey=SurveySchema(race_column="race", race_map={"B": 1, "W": 0}),
    )
    path = write(tmp_path, "survey.csv", SURVEY_HEADER + body)
    table, report = load_survey(path, schema)
    return table, report


class TestSurveyLoader:
    def test_weighted_share_example(self, tmp_path):
        # races (1, 0) with contact weights (3, 1): weighted share 0.75
        table, _ = survey_from(tmp_path, "B,0,0,0,3,1\nW,1,0,0,1,1\n")
        external = derive_survey_distribution(table, "weighted")
        assert external.p1_for(None) == pytest.approx(0.75)

    @pytest.mark.parametrize("contacts", ["1_0", "+3", "\u0663", "-1", "3.0", "nan"])
    def test_contacts_outside_grammar_is_unparseable(self, tmp_path, contacts):
        with pytest.raises(UnparseableRowError, match="line 3"):
            survey_from(tmp_path, f"B,0,0,0,3,1\nW,1,0,0,{contacts},1\n")

    def test_repeated_bad_row_names_its_first_line(self, tmp_path):
        body = "B,0,0,0,3,1\nW,1,0,0,x,1\nB,0,0,0,3,1\nW,1,0,0,x,1\nB,2,0,0,3,1\nW,1,0,0,x,1\n"
        with pytest.raises(UnparseableRowError) as excinfo:
            survey_from(tmp_path, body)
        assert (excinfo.value.line, excinfo.value.reason) == (
            3, "contact count 'x' is not a nonnegative integer"
        )
        path = tmp_path / "survey.csv"
        schema = SchemaConfig(survey=SurveySchema(race_map={"B": 1, "W": 0}))
        table, report = load_survey(path, schema, skip_unparseable=True)
        assert (report.n_physical, report.n_loaded, report.n_unparseable) == (6, 2, 4)
        assert table.count.tolist() == [2] and table.n == 2

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_only_the_first_failing_row_raises(self, tmp_path):
        # int() raises ValueError on a count past the digit limit, as the first failing row only
        huge = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(UnparseableRowError, match="line 2: stop_public must be 0 or 1"):
            survey_from(tmp_path, f"B,2,0,0,3,1\nW,0,0,0,{huge},1\nB,2,0,0,3,1\n")
        with pytest.raises(ValueError, match="digits"):
            survey_from(tmp_path, f"W,0,0,0,{huge},1\nB,2,0,0,3,1\n")

    def test_contact_outliers_excluded(self, tmp_path):
        table, _ = survey_from(tmp_path, "B,0,0,0,31,1\nW,0,0,0,2,1\nB,0,0,0,30,1\n")
        external = derive_survey_distribution(table, "weighted")
        # the 31-contact respondent is gone; share = 30 / 32
        assert external.p1_for(None) == pytest.approx(30 / 32)

    def test_mv_stop_subset(self, tmp_path):
        table, _ = survey_from(tmp_path, "B,0,1,0,2,1\nW,1,0,1,2,1\nB,0,0,0,2,1\n")
        external = derive_survey_distribution(table, "mv-stop")
        assert external.p1_for(None) == 1.0

    def test_mv_stop_empty_subset(self, tmp_path):
        table, _ = survey_from(tmp_path, "B,1,0,0,2,1\nW,0,0,1,2,1\n")
        with pytest.raises(EmptySubsetError):
            derive_survey_distribution(table, "mv-stop")

    def test_stop_in_public_is_a_disjunction(self, tmp_path):
        table, _ = survey_from(
            tmp_path,
            "B,1,0,0,2,1\n"  # public stop
            "W,0,0,1,2,1\n"  # other stop
            "W,0,1,0,2,1\n",  # vehicle only: excluded from this measure
        )
        external = derive_survey_distribution(table, "stop-in-public")
        assert external.p1_for(None) == pytest.approx(0.5)

    def test_missing_item_excludes_respondent(self, tmp_path):
        table, _ = survey_from(tmp_path, "B,,0,1,2,1\nW,1,0,0,2,1\n")
        # first respondent's public-stop item is missing; the mode reads it
        external = derive_survey_distribution(table, "stop-in-public")
        assert external.p1_for(None) == 0.0
        # modes that do not read it keep the respondent
        assert derive_survey_distribution(table, "all").p1_for(None) == 0.5

    def test_large_metro_modes(self, tmp_path):
        table, _ = survey_from(
            tmp_path, "B,0,0,0,4,1\nW,0,0,0,2,0\nW,0,0,0,2,1\nB,0,0,0,40,1\n"
        )
        # contact counts only matter in weighted modes, so the 40-contact
        # respondent stays in the plain large-metro subset
        metro = derive_survey_distribution(table, "large-metro")
        assert metro.p1_for(None) == pytest.approx(2 / 3)
        weighted = derive_survey_distribution(table, "weighted-large-metro")
        assert weighted.p1_for(None) == pytest.approx(4 / 6)

    def test_zero_total_weight(self, tmp_path):
        table, _ = survey_from(tmp_path, "B,0,0,0,0,1\nW,0,0,0,0,1\n")
        with pytest.raises(EmptySubsetError):
            derive_survey_distribution(table, "weighted")

    def test_unknown_mode(self, tmp_path):
        table, _ = survey_from(tmp_path, "B,0,0,0,1,1\n")
        with pytest.raises(ValueError):
            derive_survey_distribution(table, "everything")

    def test_race_only_file_supports_all_mode(self, tmp_path):
        schema = SchemaConfig(
            race_column="d",
            race_map={"1": 1, "0": 0},
            survey=SurveySchema(race_column="race", race_map={"B": 1, "W": 0}),
        )
        path = write(tmp_path, "survey.csv", "race\nB\nW\nW\n")
        table, report = load_survey(path, schema)
        assert report.n_loaded == 3
        external = derive_survey_distribution(table, "all")
        assert external.p1_for(None) == pytest.approx(1 / 3)
        # item-reading modes then have nothing usable
        with pytest.raises(EmptySubsetError):
            derive_survey_distribution(table, "mv-stop")

    def test_unmapped_race_dropped_with_count(self, tmp_path):
        table, report = survey_from(tmp_path, "B,0,0,0,1,1\nX,0,0,0,1,1\n")
        assert report.n_dropped == 1
        assert table.n == 1

    def test_survey_strata(self, tmp_path):
        schema = SchemaConfig(
            race_column="d",
            race_map={"1": 1, "0": 0},
            survey=SurveySchema(
                race_column="race",
                race_map={"B": 1, "W": 0},
                stratum_columns=("age",),
            ),
        )
        path = write(
            tmp_path,
            "survey.csv",
            "race,age,contacts\nB,young,2\nW,young,2\nW,old,2\n",
        )
        table, _ = load_survey(path, schema)
        external = derive_survey_distribution(table, "all")
        assert external.p1_for("young") == 0.5
        assert external.p1_for("old") == 0.0

    def test_separator_in_composite_survey_stratum_value(self, tmp_path):
        schema = SchemaConfig(
            survey=SurveySchema(
                race_column="race",
                race_map={"B": 1, "W": 0},
                stratum_columns=("age", "sex"),
            ),
        )
        path = write(
            tmp_path, "survey.csv", "race,age,sex\nB,young,f\nW,young|old,f\nW,old,f|m\n"
        )
        with pytest.raises(UnparseableRowError, match="stratum value") as excinfo:
            load_survey(path, schema)
        assert excinfo.value.line == 3
        table, report = load_survey(path, schema, skip_unparseable=True)
        assert respondents(table) == ((1, None, None, None, None, None, "young|f"),)
        assert report.n_unparseable == 2


# -- the row-wise parsers of the loaders before the coded-field protocol, as the reference --


def _ref_stratum_key(values, line):
    if len(values) < 2:
        return values[0].strip() if values else "all"
    values = [v.strip() for v in values]
    if any("|" in v for v in values):
        raise UnparseableRowError(
            "stratum value contains '|', which joins the stratum columns", line
        )
    return "|".join(values)


def _ref_parse_binary(token, what, line):
    token = token.strip()
    if token in ("0", "1"):
        return int(token)
    raise UnparseableRowError(f"{what} must be 0 or 1, got {token!r}", line)


def _ref_parse_item(token, what, line):
    token = token.strip()
    if token in dataio.ITEM_VALUES:
        return dataio.ITEM_VALUES[token]
    raise UnparseableRowError(f"{what} must be 0 or 1, got {token!r}", line)


def _ref_parse_count(token, line):
    token = token.strip()
    if token in dataio.MISSING_TOKENS:
        return None
    if not (token.isascii() and token.isdigit()):
        raise UnparseableRowError(f"contact count {token!r} is not a nonnegative integer", line)
    return int(token)


def _ref_admin_parse(config):
    def parse(values, line):
        d = config.race_map.get(values[0].strip())
        if d is None:
            return None
        return d, _ref_parse_binary(values[1], "force", line), _ref_stratum_key(values[2:], line)

    return parse


def _ref_census_parse(path):
    def parse(values, line):
        stratum, *tokens = [value.strip() for value in values]
        if not all(re.fullmatch(r"-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?", t) for t in tokens):
            raise UnparseableRowError(f"counts must be decimal numbers, got {tokens}", line)
        c1, c0 = map(float, tokens)
        if not (np.isfinite(c1) and np.isfinite(c0)) or c1 < 0 or c0 < 0:
            raise NegativeCountError(f"{path} line {line}: counts must be finite and nonnegative")
        return stratum, c1, c0

    return parse


def _ref_survey_parse(config):
    schema = config.survey
    race_map = config.survey_race_map()
    items = ("stop_public", "stop_vehicle", "stop_other", "large_metro")
    first_item = 1 + len(schema.stratum_columns)

    def parse(values, line):
        d = race_map.get(values[0].strip())
        if d is None:
            return None
        public, vehicle, other, metro = [
            _ref_parse_item(token, name, line) for token, name in zip(values[first_item:], items)
        ]
        contacts = _ref_parse_count(values[-1], line)
        key = _ref_stratum_key(values[1:first_item], line)
        return d, public, vehicle, other, contacts, metro, key

    return parse


def rowwise_load(path, required, parse, optional=(), skip=False):
    """The loaders' rules one csv record at a time, in file order: the parsed rows counted
    in first-occurrence order and the LoadReport fields, or the error the load raises."""
    loaded, dropped, unparseable = Counter(), 0, 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise MissingColumnError("empty")
            indices = {name.strip(): i for i, name in enumerate(header)}
            if any(column not in indices for column in required):
                raise MissingColumnError("missing")
            positions = [indices.get(column) for column in (*required, *optional)]
            for row in reader:
                line = reader.line_num
                try:
                    if len(row) != len(header):
                        raise UnparseableRowError(
                            f"expected {len(header)} fields, got {len(row)}", line
                        )
                    parsed = parse(tuple("" if p is None else row[p] for p in positions), line)
                except UnparseableRowError:
                    if not skip:
                        raise
                    unparseable += 1
                    continue
                if parsed is None:
                    dropped += 1
                else:
                    loaded[parsed] += 1
        except csv.Error as exc:
            raise UnparseableRowError(str(exc), reader.line_num) from exc
    n = sum(loaded.values())
    return loaded, (n + dropped + unparseable, n, dropped, unparseable)


def rowwise_survey_distribution(loaded, mode):
    """The survey mode applied respondent by respondent, as before the array masks."""
    counts = Counter()
    for (race, public, vehicle, other, contacts, metro, x), count in loaded.items():
        if mode in ("large-metro", "weighted-large-metro") and metro != 1:
            continue
        if mode == "mv-stop" and vehicle != 1:
            continue
        if mode == "stop-in-public" and (None in (public, other) or 1 not in (public, other)):
            continue
        weight = 1.0
        if mode in ("weighted", "weighted-large-metro"):
            if contacts is None or contacts > dataio.MAX_WEIGHTED_CONTACTS:
                continue
            weight = float(contacts)
        counts[x, race, weight] += count
    if not counts:
        raise EmptySubsetError(f"survey mode {mode!r} selected no usable respondents")
    if not any(weight for _, _, weight in counts):
        raise EmptySubsetError(f"survey mode {mode!r} subset has zero total weight")
    return cell_source(counts, resampled=True)


def cell_source(counts, *, resampled=False):
    """A source from its cell sizes by (stratum key, race, weight)."""
    keys = {}
    code = [keys.setdefault(key, len(keys)) for key, _, _ in counts]
    cells = [cell for _, *cell in counts]
    return ExternalRaceDistribution.from_cells(
        tuple(keys), code, cells, list(counts.values()), resampled=resampled
    )


def outcome(load):
    """What ``load()`` returns, or the type, message and line of the DataError it raises."""
    try:
        return load()
    except MissingColumnError:
        return MissingColumnError
    except DataError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def external_fields(external):
    """A source's (race, weight) cells and their sizes, and the share, of each scope with cells
    (None: the pool), then its kind and dtypes."""
    scopes, shares = {}, {}
    for key in (*external.keys, None):
        lo, hi, shares[key] = external._scope(key)
        if hi > lo:
            scopes[key] = (external.cells[lo:hi].tolist(), external.sizes[lo:hi].tolist())
    shares = {key: shares[key] for key in scopes}
    return scopes, shares, external.resampled, external.cells.dtype, external.sizes.dtype


#: Tokens per column kind, valid and not, for the differential loader test; the first three
#: are valid, and a row picks among them half the time.
TOKENS = {
    "race": ["B", "W", "O", " B", "W ", ""],
    "binary": ["0", "1", " 1", "2", "x", ""],
    "item": ["0", "1", " 1", "NA", "", "N/A", "na", "2", "x"],
    "contacts": ["3", "31", " 30", "0", "45", "", "NA", "-1", "+3", "1_0", "x", "٣"],
    "stratum": ["a", "b", " a", "a|b", "", "x\ny"],
    "count": ["0", "3", "1.5", "1e+02", "0.1", " 2", "-1", "nan", "1_0", "x", ""],
}
SURVEY_ITEMS = ("stop_public", "stop_vehicle", "stop_other", "large_metro")


class TestCodedFieldsMatchRowWiseParse:
    """Each loader's coded fields give what its row-wise parse gave, or the same error."""

    @settings(
        max_examples=400,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kind=st.sampled_from(["survey", "admin", "census"]),
        rows=st.lists(  # each row: its width less the header's, and one token pick per column
            st.tuples(
                st.sampled_from([0] * 10 + [-1, 1]),
                st.lists(st.integers(0, 2) | st.integers(0, 11), min_size=9, max_size=9),
            ),
            max_size=30,
        ),
        repeat=st.integers(1, 3),  # each row written this many times over
        strata=st.sampled_from([(), ("s",), ("s", "t")]),
        present=st.lists(st.booleans(), min_size=5, max_size=5),  # survey optional columns
        extra=st.booleans(),  # an unread id column, so the csv record pass reads the file
        quoted=st.booleans(),  # every field quoted, so the csv record pass reads the file
        line_ends=st.lists(st.sampled_from(["\r\n", "\n"]), min_size=1, max_size=2),
        long_field=st.sampled_from([None] * 6 + [0, 3, 12, 40]),
        skip=st.booleans(),
        chunk=st.sampled_from([1, 4, dataio.CHUNK_ROWS]),  # distinct rows coded at a time
    )
    @example(  # contact counts over the weighted modes' cap, loaded
        kind="survey", rows=[(0, [0] * 5 + [1] + [0] * 3), (0, [1] * 5 + [4] + [0] * 3),
                             (0, [0] * 5 + [2] + [0] * 3)],
        repeat=1, strata=(), present=[True] * 5, extra=False, quoted=False, line_ends=["\n"],
        long_field=None, skip=False, chunk=dataio.CHUNK_ROWS,
    )
    @example(  # an unmapped race with a bad item is dropped, not an error
        kind="survey", rows=[(0, [2, 8] + [0] * 7), (0, [0] * 9)], repeat=1, strata=(),
        present=[True] * 5, extra=False, quoted=False, line_ends=["\n"], long_field=None,
        skip=False, chunk=1,
    )
    @example(  # a "|" in one of two stratum values
        kind="survey", rows=[(0, [0, 0, 0] + [0] * 6), (0, [1, 3, 0] + [0] * 6)], repeat=2,
        strata=("s", "t"), present=[False, True, False, True, True], extra=False, quoted=False,
        line_ends=["\r\n", "\n"], long_field=None, skip=False, chunk=4,
    )
    def test_same_table_report_or_error(
        self, tmp_path, monkeypatch, kind, rows, repeat, strata, present, extra, quoted,
        line_ends, long_field, skip, chunk,
    ):
        survey_columns = [
            ("race", "race"), *((s, "stratum") for s in strata),
            *((name, "item") for name, keep in zip(SURVEY_ITEMS, present) if keep),
            *((("contacts", "contacts"),) if present[4] else ()),
        ]
        columns = {
            "survey": survey_columns,
            "admin": [("race", "race"), ("force", "binary"), *((s, "stratum") for s in strata)],
            "census": [("stratum", "stratum"), ("count_d1", "count"), ("count_d0", "count")],
        }[kind] + ([("id", "stratum")] if extra else [])
        handle = io.StringIO()
        writer = csv.writer(
            handle, lineterminator="\n", quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL
        )
        writer.writerow([name for name, _ in columns])
        for _ in range(repeat):
            for delta, picks in rows:
                values = [TOKENS[k][i % len(TOKENS[k])] for (_, k), i in zip(columns, picks)]
                writer.writerow((values + ["1"] * 9)[: len(columns) + delta])
        lines = handle.getvalue().split("\n")[:-1]  # a "x\ny" field spans two of them
        if long_field is not None:  # text the csv module rejects, somewhere among the rows
            lines.insert(min(long_field, len(lines)), "B,1," + "z" * 100)
        text = "".join(line + line_ends[i % len(line_ends)] for i, line in enumerate(lines))
        path = write(tmp_path, f"{kind}.csv", text)

        if kind == "survey":
            config = SchemaConfig(
                survey=SurveySchema(race_map={"B": 1, "W": 0}, stratum_columns=strata)
            )
            optional = [*SURVEY_ITEMS, "contacts"]
            required, parse = ["race", *strata], _ref_survey_parse(config)
            load = lambda: load_survey(path, config, skip_unparseable=skip)  # noqa: E731
        elif kind == "admin":
            config = SchemaConfig(
                race_column="race", race_map={"B": 1, "W": 0}, force_column="force",
                stratum_columns=strata,
            )
            optional = []
            required, parse = ["race", "force", *strata], _ref_admin_parse(config)
            load = lambda: load_administrative(path, config, skip_unparseable=skip)  # noqa: E731
        else:
            optional, skip = [], False
            required, parse = list(dataio.CENSUS_COLUMNS), _ref_census_parse(path)
            load = lambda: load_census(path)  # noqa: E731

        limit = csv.field_size_limit(50)
        try:
            expected = outcome(lambda: rowwise_load(path, required, parse, optional, skip))
            with monkeypatch.context() as patch:
                patch.setattr(dataio, "CHUNK_ROWS", chunk)
                got = outcome(load)
        finally:
            csv.field_size_limit(limit)
        if not isinstance(expected, tuple) or isinstance(expected[0], type):  # an error
            assert got == expected
            return
        loaded, report_fields = expected
        result, report = got
        assert (report.n_physical, report.n_loaded, report.n_dropped, report.n_unparseable) == (
            report_fields
        )
        if kind == "admin":
            codes = {}
            cells = [4 * codes.setdefault(x, len(codes)) + 2 * d + y for d, y, x in loaded]
            assert result.cell.tolist() == np.repeat(cells, list(loaded.values())).tolist()
            assert result.keys == tuple(codes)
        elif kind == "census":
            counts = Counter()
            for (key, c1, c0), n in loaded.items():
                counts[key, 1, c1] += n
                counts[key, 0, c0] += n
            assert external_fields(result) == external_fields(cell_source(counts))
        else:
            cap = dataio.MAX_WEIGHTED_CONTACTS + 1  # the table holds larger counts as this
            held, want = Counter(), Counter()
            for respondent, n in zip(respondents(result), result.count.tolist()):
                held[respondent] += n
            for r, n in loaded.items():
                want[(*r[:4], None if r[4] is None else min(r[4], cap), *r[5:])] += n
            assert held == want
            for mode in dataio.SURVEY_MODES:
                want = outcome(lambda: rowwise_survey_distribution(loaded, mode))
                have = outcome(lambda: derive_survey_distribution(result, mode))
                if isinstance(want, tuple):
                    assert have == want
                else:
                    assert external_fields(have) == external_fields(want)


class TestParseOnce:
    def test_each_column_parses_each_distinct_token_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(16)
        columns = {
            "race": ["B", "W", "O"],
            **dict.fromkeys(SURVEY_ITEMS, ["0", "1", "NA", ""]),
            "contacts": [str(c) for c in range(41)] + [""],
            "x": [f"s{i:02d}" for i in range(50)],
            "t": ["u", "v"],
        }
        body = "".join(
            ",".join(column[i] for column, i in zip(columns.values(), picks)) + "\n"
            for picks in zip(*(rng.integers(0, len(c), 5000) for c in columns.values()))
        )
        path = write(tmp_path, "survey.csv", ",".join(columns) + "\n" + body)
        calls = Counter()

        class RaceMap(dict):
            def get(self, token, default=None):
                calls["race", token] += 1
                return super().get(token, default)

        def counted(name, parse, column_of):
            def spy(*args):
                calls[name, column_of(args)] += 1
                return parse(*args)

            monkeypatch.setattr(dataio, name, spy)

        counted("_parse_item", dataio._parse_item, lambda args: (args[1], args[0]))
        counted("_parse_count", dataio._parse_count, lambda args: args[0])
        counted("_stratum_key", dataio._stratum_key, lambda args: tuple(args[0]))
        schema = SchemaConfig(
            survey=SurveySchema(race_map=RaceMap(B=1, W=0), stratum_columns=("x", "t"))
        )
        table, report = load_survey(path, schema)
        assert (report.n_physical, report.n_loaded + report.n_dropped) == (5000, 5000)
        assert max(calls.values()) == 1  # at most once per distinct token of a column
        assert {name for name, _ in calls} == {
            "race", "_parse_item", "_parse_count", "_stratum_key"
        }
        assert sum(name == "_stratum_key" for name, _ in calls) == 100
        assert table.n == report.n_loaded


class TestRoundTrips:
    def test_administrative_round_trip_preserves_estimates(self, tmp_path):
        # the loader groups records by distinct row, so compare counts, not record order
        admin = AdministrativeDataset.concat(
            [to_administrative(sample_encounters(TOY_MODEL, 30_000, seed=103 + i, x=x))
             for i, x in enumerate(("b", "a"))]
        )
        path = tmp_path / "admin.csv"
        write_administrative(admin, path)
        loaded, report = load_administrative(path)  # default schema: d,y,x
        assert report.n_loaded == admin.n
        assert loaded.keys == admin.keys == ("b", "a")
        assert loaded._table == admin._table
        assert naive_risk_ratio(loaded) == naive_risk_ratio(admin)
        for key in admin.keys:
            assert naive_risk_ratio(loaded, key) == naive_risk_ratio(admin, key)

    def test_encounter_export_schema(self, tmp_path):
        table = sample_encounters(TOY_MODEL, 50, seed=2)
        path = tmp_path / "enc.csv"
        write_encounters(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "d,s,m0,m1,y01,y11,m,y,x"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert first[1] in ("al", "mi", "ma", "ne")
        assert first[8] == "all"

    def test_encounter_export_matches_a_row_by_row_writer(self, tmp_path):
        model = PopulationModel(
            p_d=0.4, pi_al=0.3, pi_mi=0.2, pi_ma=0.1, pi_ne=0.4, mu_01=0.3, mu_11=0.6
        )
        table = sample_encounters(model, 2_000, seed=11, x="cell, 7")  # a label csv must quote
        assert set(table.s.tolist()) == {0, 1, 2, 3}
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("d", "s", "m0", "m1", "y01", "y11", "m", "y", "x"))
        for i in range(table.n):
            writer.writerow(
                [int(table.d[i]), STRATA[table.s[i]]]
                + [int(getattr(table, c)[i]) for c in ("m0", "m1", "y01", "y11", "m", "y")]
                + [table.x]
            )
        path = tmp_path / "enc.csv"
        write_encounters(table, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_administrative_export_matches_a_row_by_row_writer(self, tmp_path):
        rng = np.random.default_rng(4)
        keys = ["a", "cell, 7", 'say "b"', ("t", 1)]  # csv must quote two; one is not a str
        x = np.fromiter((keys[i] for i in rng.integers(0, 4, 1000)), dtype=object, count=1000)
        d, y = rng.integers(0, 2, (2, 1000))
        data = AdministrativeDataset.from_columns(d, y, x)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("d", "y", "x"))
        for i in range(data.n):
            writer.writerow((int(data.d[i]), int(data.y[i]), str(data.x[i])))
        path = tmp_path / "admin.csv"
        write_administrative(data, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_administrative_export_formats_only_the_keys_that_occur(self, tmp_path):
        formatted = []

        class Key:
            def __init__(self, name):
                self.name = name

            def __str__(self):
                formatted.append(self.name)
                return self.name

        keys = tuple(Key(f"k{i}") for i in range(1000))
        data = AdministrativeDataset(np.array([4 * 999 + 3, 5, 4 * 999 + 3], np.int32), keys)
        path = tmp_path / "admin.csv"
        write_administrative(data, path)
        assert path.read_text() == "d,y,x\n1,1,k999\n0,1,k1\n1,1,k999\n"
        assert formatted == ["k1", "k999"]

    def test_model_file_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        write_model_file(TOY_MODEL, path)
        assert read_model_file(path) == TOY_MODEL

    def test_model_file_rejects_garbage(self, tmp_path):
        path = write(tmp_path, "model.json", "{\"p_d\": 2.0}")
        with pytest.raises(InvalidModelError):
            read_model_file(path)

    def test_default_schema_matches_simulator_export(self):
        assert DEFAULT_SCHEMA.race_column == "d"
        assert DEFAULT_SCHEMA.force_column == "y"
        assert DEFAULT_SCHEMA.stratum_columns == ("x",)
