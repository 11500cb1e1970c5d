"""Fuzzed CLI input: every subcommand ends in exit 0, 1 or 2.

For ``estimate`` and ``sensitivity`` Hypothesis generates the argv, the JSON
config (flags and ``schema`` section) and the bytes of the admin, census and
survey CSV files; for ``simulate``, ``estimands`` and ``verify`` it generates
the argv and the bytes of the model file. Whatever it draws, ``main`` must
return 0, 1 or 2, or argparse must exit with 2; any other exception escaping
``main`` is a traceback for the user and fails the test. Each example breaks
at most one part of its input, so that the malformed part is reached and not
hidden behind an earlier error. Sizes stay tiny (``verify --oracle-n 5``
legitimately fails its oracle check and exits 1). The search is
derandomized, so every run checks the same examples.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from crrkit.cli import main
from crrkit.verify import TOY_MODEL

DIR = "{dir}"  # replaced by the example's temporary directory
PARTS = ("argv", "config", "schema", "files")

COLUMNS = (
    "d", "y", "x", "race", "stratum", "count_d1", "count_d0", "stop_public",
    "stop_vehicle", "stop_other", "contacts", "large_metro", "s1", "s2",
)
JUNK_CELLS = (
    "", "NA", " 1", "-1", "2", "3.5", "1e3", "nan", "inf", "a|b", "B", "x", '"q,r"', "40", "é",
)
BINARY = ("0", "1")
STRATA = ("a", "b", "all")
#: Each file's natural header and the tokens that parse in each of its columns.
FILE_COLUMNS = {
    "admin.csv": {"d": BINARY, "y": BINARY, "x": STRATA, "s1": STRATA},
    "census.csv": {"stratum": STRATA, "count_d1": ("0", "3", "40"), "count_d0": ("0", "5", "60")},
    "survey.csv": {
        "race": BINARY, "stop_public": BINARY, "stop_vehicle": BINARY, "stop_other": BINARY,
        "contacts": ("0", "2", "7", "31"), "large_metro": BINARY, "x": STRATA,
    },
}
#: Per flag: values that parse, then values that do not.
FLAG_VALUES = {
    "seed": (("0", "7"), ("-1", "x")),
    "bootstrap": (("2", "5", "20"), ("-1", "0", "1", "5.5")),
    "level": (("0.9",), ("0", "1", "2", "nan", "x")),
    "format": (("table", "csv", "json-lines"), ("xml",)),
    "strata": (("all", "a", "b", "a,b"), ("zz", "", ",")),
    "census": ((f"{DIR}/census.csv",), (f"{DIR}/missing.csv",)),
    "survey": ((f"{DIR}/survey.csv",), (f"{DIR}/missing.csv",)),
    "survey-mode": (
        ("all", "mv-stop", "stop-in-public", "large-metro", "weighted", "weighted-large-metro"),
        ("x",),
    ),
    "lambda": (("0", "0.5", "1"), ("2", "-1", "nan")),
    "citywide-p1": (("0.3", "0.9"), ("0", "1", "2", "nan")),
}
#: Per command: the flags it always gets (``bootstrap`` keeps B small), then those it may get.
COMMAND_FLAGS = {
    "estimate": (
        ("bootstrap",),
        ("seed", "level", "format", "strata", "census", "survey", "survey-mode"),
    ),
    "sensitivity": (
        ("bootstrap", "census", "lambda", "citywide-p1"),
        ("seed", "level", "format", "strata"),
    ),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(-2, 2, allow_nan=False) | st.sampled_from(COLUMNS + JUNK_CELLS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(COLUMNS), inner, max_size=3),
    max_leaves=6,
)


def schemas(broken: bool) -> st.SearchStrategy:
    """A ``schema`` section; when ``broken``, each value is malformed half the time."""
    race_maps = st.dictionaries(
        st.sampled_from(BINARY + ("B", "W")), st.sampled_from([0, 1]), min_size=1, max_size=3
    )
    column_lists = st.lists(st.sampled_from(["x", "s1"]), unique=True, max_size=2)
    race_column = st.just("d")
    if broken:
        race_maps, column_lists, race_column = (
            s | json_values for s in (race_maps, column_lists, race_column)
        )
    survey = st.fixed_dictionaries(
        {}, optional={"race_map": race_maps, "stratum_columns": column_lists}
    )
    records = st.fixed_dictionaries(
        {},
        optional={
            "race_map": race_maps,
            "stratum_columns": column_lists,
            "race_column": race_column,
            "survey": survey | json_values if broken else survey,
        },
    )
    return records | json_values if broken else records


def configs(broken: str | None) -> st.SearchStrategy:
    """A config object: malformed flag values if ``broken`` is ``config``, a malformed
    schema section if it is ``schema``."""
    flags = {
        "bootstrap": st.integers(2, 20),
        "strata": st.sampled_from(["all", "a"]),
        "haldane": st.booleans(),
        "lambda": st.floats(0, 1),
        "citywide_p1": st.floats(0.01, 0.99),
    }
    if broken == "config":
        flags = {key: value | json_values for key, value in flags.items()}
    record = st.fixed_dictionaries({"schema": schemas(broken == "schema")}, optional=flags)
    return record | json_values if broken == "config" else record


@st.composite
def csv_files(draw, columns: dict, broken: bool) -> bytes:
    """The file's own columns and tokens; when ``broken``, perhaps other columns, junk
    cells, ragged rows or random bytes."""
    if broken and draw(st.integers(0, 4)) == 4:
        return draw(st.binary(max_size=40))
    header = draw(st.permutations(list(columns)))
    if broken and draw(st.booleans()):
        header = draw(st.lists(st.sampled_from(COLUMNS), max_size=6))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        width = max(0, len(header) + (draw(st.sampled_from([-1, 0, 1])) if broken else 0))
        cells = [
            draw(st.sampled_from(columns.get(name, BINARY) + (JUNK_CELLS if broken else ())))
            for name in (header + ["x"] * width)[:width]
        ]
        lines.append(",".join(cells))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + "\n".join(lines) + "\n").encode()


@st.composite
def cli_cases(draw) -> tuple[list[str], dict[str, bytes]]:
    broken = draw(st.sampled_from((None, *PARTS)))
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    always, optional = COMMAND_FLAGS[command]
    flags = ["admin", *always, *draw(st.lists(st.sampled_from(optional), unique=True, max_size=4))]
    if broken == "argv":  # perhaps drop required flags; values may not parse
        flags = draw(st.lists(st.sampled_from(flags), unique=True, max_size=len(flags)))
    argv = [command]
    for flag in flags:
        if flag == "admin":
            argv += ["--admin", f"{DIR}/admin.csv"]
            continue
        valid, junk = FLAG_VALUES[flag]
        argv += [f"--{flag}", draw(st.sampled_from(valid + junk if broken == "argv" else valid))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--haldane", "--no-haldane"])))
    files = {
        name: draw(csv_files(columns, broken == "files")) for name, columns in FILE_COLUMNS.items()
    }
    if broken in ("config", "schema") or draw(st.booleans()):
        argv += ["--config", f"{DIR}/config.json"]
        files["config.json"] = json.dumps(draw(configs(broken))).encode()
    return argv, files


def run_case(argv: list[str], files: dict[str, bytes]) -> None:
    """Write ``files`` to a temporary directory, run ``main`` there and check its exit."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).as_posix()
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data.replace(DIR.encode(), root.encode()))
        argv = [arg.replace(DIR, root) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                assert exc.code == 2, (argv, exc.code)
                return
        assert code in (0, 1, 2), (argv, code)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=cli_cases())
def test_estimate_and_sensitivity_exit_cleanly(case):
    run_case(*case)


MODEL_PARTS = ("argv", "model")
#: Per flag of the model-driven commands: values that parse, then values that do not.
MODEL_FLAG_VALUES = {
    "model-file": ((f"{DIR}/model.json",), (f"{DIR}/missing.json", DIR)),
    "out-dir": ((f"{DIR}/out",), (f"{DIR}/model.json",)),
    "n": (("1", "7", "60"), ("0", "-1", "x", "2.5")),
    "seed": (("0", "7"), ("-1", "x")),
    "format": (("table", "csv", "json-lines"), ("xml",)),
    "draws": (("1", "20", "200"), ("0", "-5", "x", "1e3")),
    "oracle-n": (("5", "40", "200"), ("0", "-3", "x")),
}
#: Per command: the flags it always gets, then those it may get. ``n``, ``draws`` and
#: ``oracle-n`` are never dropped, so no example runs at the default sizes.
MODEL_COMMAND_FLAGS = {
    "simulate": (("model-file", "out-dir", "n"), ("seed", "format")),
    "estimands": (("model-file",), ("seed", "format")),
    "verify": (("draws", "oracle-n"), ("seed", "format")),
}
SIZE_FLAGS = ("n", "draws", "oracle-n")
#: Valid model records: the demonstration model and boundary cases where some
#: estimand is undefined (no majority force, no one stopped) or a mass is -0.0.
VALID_MODELS = (
    TOY_MODEL.to_dict(),
    {**TOY_MODEL.to_dict(), "mu_01": 0.0},
    {**TOY_MODEL.to_dict(), "pi_al": 0.0, "pi_mi": 0.0, "pi_ma": -0.0, "pi_ne": 1.0},
    {**TOY_MODEL.to_dict(), "p_d": 1.0, "pi_ma": 0.3, "pi_ne": 0.4, "mu_11": -0.0},
)
JUNK_NUMBERS = (float("nan"), float("inf"), -0.5, 1.5, 1 + 1e-9, 10**400, "0.5", True, None)


@st.composite
def model_files(draw, broken: bool) -> bytes:
    """A model-file record; when ``broken``, random bytes, some JSON value, or a
    record with a key dropped, added or given a junk value."""
    record = dict(draw(st.sampled_from(VALID_MODELS)))
    if broken:
        how = draw(st.sampled_from(("bytes", "json", "drop", "add", "value")))
        if how == "bytes":
            return draw(st.binary(max_size=40))
        if how == "json":
            return json.dumps(draw(json_values)).encode()
        key = draw(st.sampled_from(sorted(record)))
        if how == "drop":
            del record[key]
        elif how == "add":
            record[draw(st.sampled_from(COLUMNS))] = 0.5
        else:
            record[key] = draw(st.sampled_from(JUNK_NUMBERS) | json_values)
    return json.dumps(record).encode()


@st.composite
def model_cases(draw) -> tuple[list[str], dict[str, bytes]]:
    broken = draw(st.sampled_from((None, *MODEL_PARTS)))
    command = draw(st.sampled_from(sorted(MODEL_COMMAND_FLAGS)))
    always, optional = MODEL_COMMAND_FLAGS[command]
    flags = [*always, *draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))]
    if broken == "argv":  # perhaps drop required flags; values may not parse
        kept = draw(st.lists(st.sampled_from(flags), unique=True, max_size=len(flags)))
        flags = [f for f in flags if f in kept or f in SIZE_FLAGS]
    argv = [command]
    for flag in flags:
        valid, junk = MODEL_FLAG_VALUES[flag]
        argv += [f"--{flag}", draw(st.sampled_from(valid + junk if broken == "argv" else valid))]
    return argv, {"model.json": draw(model_files(broken == "model"))}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=model_cases())
def test_simulate_estimands_and_verify_exit_cleanly(case):
    run_case(*case)
