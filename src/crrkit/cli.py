"""Command-line interface.

Subcommands: simulate, estimands, estimate, sensitivity, verify. The CLI is
a thin sequential driver over the library: every printed number comes from
one library call, reproducible from the seed and settings echoed in the
report header. A JSON config file may supply any flag (flags win) under its
name with "_" for "-", and an optional "schema" section maps input CSV
columns. One table, ``_FLAGS``, declares each flag once: its commands, its
default or that it is required, its help, and its type, choices or on/off
form. The parser, the defaults --help states, the config keys and types,
and the required-flag check all read it.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import report as report_mod
from .errors import CrrKitError, DataError, ZeroDenominatorError, ZeroMassError
from .report import SURVEY_MODES, Report, ReportRow, render

if TYPE_CHECKING:  # the commands import dataio, estimate, model, simulate and verify
    from .dataio import LoadReport
    from .estimate import AdministrativeDataset, ExternalRaceDistribution, Statistic


#: The module each name comes from, imported when the name is read (PEP 562). `verify` calls
#: run_verification through this module, so a name patched here, as benchmarks/tracing.py
#: patches all three, is the one called. No command calls bootstrap or stratified_estimates:
#: estimate and sensitivity make one estimate.bootstrap_batch call, as stratified_estimates
#: does. Both names stay until the benchmark tracer drops them (ROADMAP items 1 and 6).
_LAZY_NAMES = {
    "bootstrap": "estimate", "stratified_estimates": "estimate", "run_verification": "verify"
}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_LAZY_NAMES[name]}"), name)


#: Largest --n, --oracle-n and --draws: numpy's largest array length.
MAX_SIZE = int(np.iinfo(np.intp).max)

#: The default of a required flag: a run that sets it by neither flag nor config exits 2.
REQUIRED = object()


class _Flag(NamedTuple):
    """One flag ``--name``, whose config key is the name with "_" for "-"."""

    name: str
    commands: tuple[str, ...]
    default: object  # None: unset; REQUIRED: a command without it exits 2
    help: str  # --help appends the default, if there is one
    kind: type | tuple[str, ...] = str  # int, float, str, bool (an on/off pair) or the choices
    dest: str = ""  # the attribute of the parsed arguments, when it is not the config key

    @property
    def key(self) -> str:
        return self.name.replace("-", "_")

    @property
    def attr(self) -> str:
        return self.dest or self.key


_COMMANDS = {
    "simulate": "draw a synthetic population and its oracle report",
    "estimands": "closed-form estimands of a population model",
    "estimate": "naive and selection-adjusted risk ratios from data",
    "sensitivity": "adjusted risk ratios under a local/citywide mixture of encounter shares",
    "verify": "run the built-in verification suite",
}
_ALL, _DATA = tuple(_COMMANDS), ("estimate", "sensitivity")

#: Every flag, in --help order; --census is optional for estimate only.
_FLAGS = (
    _Flag("config", _ALL, None, "JSON config file; flags override its values"),
    _Flag("seed", _ALL, 1729, "RNG seed", int),
    _Flag("format", _ALL, "table", "output format", report_mod.FORMATS),
    _Flag("model-file", ("simulate", "estimands"), REQUIRED, "population model JSON file"),
    _Flag("n", ("simulate",), 100_000, "number of encounters", int),
    _Flag("out-dir", ("simulate",), REQUIRED, "directory for the three output artifacts"),
    _Flag("admin", _DATA, REQUIRED, "administrative records CSV"),
    _Flag("census", ("estimate",), None, "census counts CSV (stratum,count_d1,count_d0)"),
    _Flag("census", ("sensitivity",), REQUIRED, "census counts CSV (stratum,count_d1,count_d0)"),
    _Flag("strata", _DATA, None,
          'comma-separated stratum keys, or "all" for every stratum in the data'),
    _Flag("bootstrap", _DATA, 1000, "bootstrap replicates B", int),
    _Flag("level", _DATA, 0.95, "confidence level", float),
    _Flag("haldane", _DATA, False,
          "add 0.5 to each record count cell of every scope (exploratory)", bool),
    _Flag("survey", ("estimate",), None, "survey microdata CSV"),
    _Flag("survey-mode", ("estimate",), "all", "survey subset/weighting rule", SURVEY_MODES),
    _Flag("lambda", ("sensitivity",), REQUIRED, "weight on the local share, in [0, 1]", float,
          "lam"),
    _Flag("citywide-p1", ("sensitivity",), REQUIRED, "citywide minority share, in (0, 1)", float),
    _Flag("draws", ("verify",), 10_000, "random models for the sign checks", int),
    _Flag("oracle-n", ("verify",), 100_000, "encounters per oracle comparison", int),
)


def _flags(command: str) -> list[_Flag]:
    return [flag for flag in _FLAGS if command in flag.commands]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crrkit",
        description=(
            "Causal risk ratios for force outcomes observed only in detainment "
            "records: simulation, closed-form estimands, selection-adjusted "
            "estimation, sensitivity analysis, and self-verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, summary in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag in _flags(command):
            text, kind = flag.help, flag.kind
            if kind is bool:  # --name and --no-name
                options = {"action": argparse.BooleanOptionalAction}
            else:
                options = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
                if flag.default not in (None, REQUIRED):
                    text += f" (default {flag.default})"
            p.add_argument(f"--{flag.name}", dest=flag.attr, help=text, **options)
    return parser


#: The wording and JSON types of a config value of each kind; a JSON true is no number.
_JSON_KINDS = {
    bool: ("true or false", bool), int: ("an integer", int), float: ("a number", (int, float)),
    str: ("a string", str),
}


def _config_value(path: str, flag: _Flag, value: object) -> object:
    """``value`` if its JSON type and choice suit the flag, else DataError naming config ``path``."""
    choices = flag.kind if isinstance(flag.kind, tuple) else None
    expected, types = _JSON_KINDS[str if choices else flag.kind]
    key = f"{path}: config key {flag.key!r}"
    if not isinstance(value, types) or (isinstance(value, bool) and flag.kind is not bool):
        raise DataError(f"{key} must be {expected}, got {value!r}")
    if choices and value not in choices:
        raise DataError(f"{key} must be one of {list(choices)}, got {value!r}")
    return value


def _settle(args: argparse.Namespace) -> None:
    """Fill each unset flag from the JSON config, else from its default (a required flag's is
    REQUIRED); ``args.schema`` is the config's "schema" section."""
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.config}: config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise DataError(f"{args.config}: config file must contain a JSON object")
        # keys of every command are accepted, so one config file can serve several commands
        unknown = sorted(set(config) - {flag.key for flag in _FLAGS} - {"schema"})
        if unknown:
            raise DataError(f"{args.config}: unknown config keys: {unknown}")
    for flag in _flags(args.subcommand):
        if getattr(args, flag.attr) is None:
            value = config.get(flag.key)
            value = flag.default if value is None else _config_value(args.config, flag, value)
            setattr(args, flag.attr, value)
    args.schema = config.get("schema")


def _note(text: str) -> None:
    print(text, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import dataio
    from .simulate import ORACLE_FIELDS, oracle_estimands, sample_encounters, to_administrative

    model = dataio.read_model_file(args.model_file)
    table = sample_encounters(model, args.n, args.seed)
    admin = to_administrative(table)
    oracle = oracle_estimands(table)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_encounters(table, out_dir / "encounters.csv")
    dataio.write_administrative(admin, out_dir / "administrative.csv")
    dataio.write_oracle_report(
        oracle,
        out_dir / "oracle.json",
        meta={"model": model.to_dict(), "seed": args.seed},
    )

    rep = Report("simulate")
    rep.add_header("model_file", args.model_file)
    rep.add_header("n", args.n)
    rep.add_header("seed", args.seed)
    rep.add_header("out_dir", str(out_dir))
    rep.add_header("administrative_rows", admin.n)
    for name in ORACLE_FIELDS:
        estimate = oracle.field(name)
        flags = ["oracle"]
        if estimate.value is None:
            flags.append(report_mod.UNDEFINED)
        elif estimate.se is not None:
            flags.append(f"se={estimate.se:.6g}")
        rep.add_row(ReportRow(table.x, name, estimate.value, flags=tuple(flags)))
    print(render(rep, args.format), end="")
    return 0


def cmd_estimands(args: argparse.Namespace) -> int:
    from . import dataio
    from .model import Estimand, crr_true, estimand_value, pie_pde

    model = dataio.read_model_file(args.model_file)

    rep = Report("estimands")
    rep.add_header("model_file", args.model_file)
    rep.add_header("seed", args.seed)
    for estimand in Estimand:
        try:
            value = estimand_value(estimand, model)
            rep.add_row(ReportRow("-", estimand.value, value.value, flags=("normalized",)))
            rep.add_row(ReportRow("-", estimand.value, value.contrast, flags=("contrast",)))
        except ZeroMassError:
            rep.add_row(
                ReportRow("-", estimand.value, None, flags=("normalized", report_mod.UNDEFINED))
            )
            rep.add_row(
                ReportRow("-", estimand.value, None, flags=("contrast", report_mod.UNDEFINED))
            )
    pie, pde = pie_pde(model)
    rep.add_row(ReportRow("-", "PIE", pie))
    rep.add_row(ReportRow("-", "PDE", pde))
    try:
        rep.add_row(ReportRow("-", "CRR", crr_true(model)))
    except ZeroDenominatorError:
        rep.add_row(ReportRow("-", "CRR", None, flags=(report_mod.UNDEFINED,)))
    rep.add_row(ReportRow("-", "beta_M", model.beta_m))
    rep.add_row(ReportRow("-", "beta_Y", model.beta_y))
    print(render(rep, args.format), end="")
    return 0


def _load_inputs(
    args: argparse.Namespace,
) -> tuple[AdministrativeDataset, LoadReport, list[tuple[str, ExternalRaceDistribution]]]:
    """The admin records and the labelled external sources: census, then survey-<mode>."""
    from . import dataio

    try:
        schema = dataio.SchemaConfig.from_dict(args.schema)
    except ValueError as exc:  # only a config file has a schema section
        raise DataError(f"{args.config}: {exc}") from exc
    data, admin_rep = dataio.load_administrative(args.admin, schema)
    _note(admin_rep.summary())
    externals: list[tuple[str, ExternalRaceDistribution]] = []
    if args.census:
        external, load_rep = dataio.load_census(args.census)
        _note(load_rep.summary())
        externals.append(("census", external))
    if getattr(args, "survey", None):  # sensitivity takes a census only
        table, load_rep = dataio.load_survey(args.survey, schema)
        _note(load_rep.summary())
        externals.append(
            (f"survey-{args.survey_mode}", dataio.derive_survey_distribution(table, args.survey_mode))
        )
    return data, admin_rep, externals


def _parse_strata(args: argparse.Namespace, data: AdministrativeDataset) -> list[str] | None:
    if args.strata is None:
        return None
    if args.strata == "all":
        return data.strata()
    keys = [k for k in map(str.strip, args.strata.split(",")) if k]
    if not keys:
        raise DataError(f"--strata {args.strata!r} names no stratum")
    repeated = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
    if repeated is not None:
        raise DataError(f"--strata {args.strata!r} names stratum {repeated!r} more than once")
    return keys


class _Request(NamedTuple):
    """One output row to estimate: ``x`` is the scope (None = pooled)."""

    estimand: str
    flags: tuple[str, ...]
    statistic: Statistic
    external: ExternalRaceDistribution | None
    x: str | None


def _add_rows(
    rep: Report, data: AdministrativeDataset, requests: list[_Request], args: argparse.Namespace
) -> None:
    """One row per request, all bootstrapped in one batch; an undefined estimate is undefined.

    The i-th scope the requests name takes the i-th seed of ``_scope_seeds``, so the rows of a
    scope share its record draw; the batch rejects a stratum without records.
    """
    from .dataio import POOLED_KEY
    from .estimate import _scope_seeds, bootstrap_batch

    seed_of = _scope_seeds(args.seed, (request.x for request in requests))
    batch = [(r.statistic, r.external, r.x, seed_of[r.x]) for r in requests]
    options = dict(level=args.level, replicates=args.bootstrap, haldane=args.haldane)
    results = bootstrap_batch(data, batch, **options)
    for (estimand, flags, *_, x), estimate in zip(requests, results):
        stratum = POOLED_KEY if x is None else x
        if args.haldane:
            flags += ("haldane",)
        if isinstance(estimate, Exception):
            flags += (report_mod.UNDEFINED, type(estimate).__name__)
            rep.add_row(ReportRow(stratum, estimand, None, flags=flags))
            continue
        if estimate.undefined_replicates:
            flags += (f"undefined_replicates={estimate.undefined_replicates}",)
        rep.add_row(ReportRow(stratum, estimand, estimate.point, estimate.lo, estimate.hi, flags))


def cmd_estimate(args: argparse.Namespace) -> int:
    from .estimate import bias_factor, crr_identified, naive_risk_difference, naive_risk_ratio

    data, load_rep, externals = _load_inputs(args)
    strata = _parse_strata(args, data) or []

    rep = Report("estimate")
    rep.add_header("admin", args.admin)
    rep.add_header("external", ",".join(label for label, _ in externals) or "none")
    rep.add_header("seed", args.seed)
    rep.add_header("bootstrap", args.bootstrap)
    rep.add_header("level", args.level)
    rep.add_header("haldane", args.haldane)
    rep.add_header("dropped_rows", load_rep.n_dropped)

    def adjusted(label: str, external: ExternalRaceDistribution, x: str | None) -> _Request:
        return _Request("adjusted-crr", ("adjusted", label), crr_identified, external, x)

    requests = [
        _Request("naive-rd", ("naive",), naive_risk_difference, None, None),
        _Request("naive-rr", ("naive",), naive_risk_ratio, None, None),
    ]
    for label, external in externals:
        requests += [
            _Request("bias-factor", ("bias-factor", label), bias_factor, external, None),
            adjusted(label, external, None),
        ]
    # the first external's stratum rows interleave with the naive rows; the others follow
    for key in strata:
        requests.append(_Request("naive-rr", ("naive",), naive_risk_ratio, None, key))
        requests += [adjusted(label, external, key) for label, external in externals[:1]]
    for label, external in externals[1:]:
        requests += [adjusted(label, external, key) for key in strata]

    _add_rows(rep, data, requests, args)
    print(render(rep, args.format), end="")
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    from .estimate import crr_identified, sensitivity_mixture

    data, _, [(_, external)] = _load_inputs(args)
    mixed = sensitivity_mixture(external, args.citywide_p1, args.lam)
    keys = data.strata() if args.strata is None else _parse_strata(args, data)

    rep = Report("sensitivity")
    rep.add_header("admin", args.admin)
    rep.add_header("census", args.census)
    rep.add_header("lambda", args.lam)
    rep.add_header("citywide_p1", args.citywide_p1)
    rep.add_header("seed", args.seed)
    rep.add_header("bootstrap", args.bootstrap)
    rep.add_header("level", args.level)
    rep.add_header("haldane", args.haldane)

    # both variants of a stratum share its record draw: differences are mixture-only
    requests = [
        _Request("adjusted-crr", ("adjusted", variant), crr_identified, source, key)
        for key in keys
        for variant, source in (("unmixed", external), ("mixed", mixed))
    ]
    _add_rows(rep, data, requests, args)
    print(render(rep, args.format), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    run_verification = sys.modules[__name__].run_verification  # see _LAZY_NAMES
    results = run_verification(seed=args.seed, draws=args.draws, oracle_n=args.oracle_n)
    passed = sum(r.passed for r in results)
    if args.format == "json-lines":
        for r in results:
            print(json.dumps({"record": "check", "name": r.name, "passed": r.passed, "detail": r.detail}))
        print(json.dumps({"record": "summary", "passed": passed, "total": len(results), "seed": args.seed}))
    elif args.format == "csv":
        print("name,passed,detail")
        for r in results:
            detail = r.detail.replace('"', "'")
            print(f'"{r.name}",{int(r.passed)},"{detail}"')
    else:
        print(f"# seed = {args.seed}, draws = {args.draws}, oracle_n = {args.oracle_n}")
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


_RUN = {
    "simulate": cmd_simulate, "estimands": cmd_estimands, "estimate": cmd_estimate,
    "sensitivity": cmd_sensitivity, "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _settle(args)
        if args.seed < 0:  # numpy would reject it only after the inputs are read, naming no flag
            raise DataError(f"--seed must be a non-negative integer, got {args.seed}")
        # numpy's own errors would name no flag; a huge --draws would loop without end
        for dest in ("n", "oracle_n", "draws"):
            size = getattr(args, dest, None)
            if size is not None and not 1 <= size <= MAX_SIZE:
                flag = "--" + dest.replace("_", "-")
                raise DataError(f"{flag} must be an integer from 1 to {MAX_SIZE}, got {size}")
        # bootstrap would reject these only when a stratum has rows, and then name no flag
        if args.subcommand in _DATA:
            from .estimate import MAX_REPLICATES

            if not 2 <= args.bootstrap <= MAX_REPLICATES:
                raise DataError(
                    f"--bootstrap must be at least 2 and at most {MAX_REPLICATES} replicates, "
                    f"got {args.bootstrap}"
                )
            if not 0.0 < args.level < 1.0:  # NaN fails too
                raise DataError(f"--level must lie strictly between 0 and 1, got {args.level}")
        # sensitivity_mixture would reject these only after both inputs are read, naming no flag
        if args.subcommand == "sensitivity":
            if args.lam is not REQUIRED and not 0.0 <= args.lam <= 1.0:
                raise DataError(f"--lambda must lie in [0, 1], got {args.lam}")
            if args.citywide_p1 is not REQUIRED and not 0.0 < args.citywide_p1 < 1.0:
                raise DataError(f"--citywide-p1 must lie in (0, 1), got {args.citywide_p1}")
        missing = [f for f in _flags(args.subcommand) if getattr(args, f.attr) is REQUIRED]
        if missing:  # the first in --help order
            raise DataError(f"{args.subcommand}: --{missing[0].name} is required (flag or config)")
        return _RUN[args.subcommand](args)
    # a refused numpy allocation (huge --n) is a MemoryError
    except (CrrKitError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run `main` in a process of its own and exit with its code.

    Freezing the heap once `main` returns leaves interpreter exit no full collection of
    numpy's import graph to make; stdout and stderr are still flushed and atexit runs.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
