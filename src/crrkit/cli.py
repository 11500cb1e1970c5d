"""Command-line interface.

Subcommands: simulate, estimands, estimate, sensitivity, verify. The CLI is
a thin sequential driver over the library: every printed number comes from
one library call, reproducible from the seed and settings echoed in the
report header. A JSON config file may supply any flag (flags win) and an
optional "schema" section maps input CSV columns.

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
from .errors import (
    CrrKitError,
    DataError,
    UnknownStratumError,
    ZeroDenominatorError,
    ZeroMassError,
)
from .report import SURVEY_MODES, Report, ReportRow, render

if TYPE_CHECKING:  # the commands import dataio, estimate, model, simulate and verify
    from .dataio import LoadReport
    from .estimate import AdministrativeDataset, ExternalRaceDistribution, Statistic


#: The module each name comes from, imported when the name is read (PEP 562). `verify` calls
#: run_verification through this module, so a name patched here, as benchmarks/tracing.py
#: patches all three, is the one called. No command calls bootstrap or stratified_estimates
#: (estimate and sensitivity call estimate.bootstrap_batch once); their names stay until the
#: benchmark tracer reads a run trace instead of patching (ROADMAP item 2).
_LAZY_NAMES = {
    "bootstrap": "estimate", "stratified_estimates": "estimate", "run_verification": "verify"
}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_LAZY_NAMES[name]}"), name)


#: Default RNG seed for all commands, echoed in every report header.
DEFAULT_SEED = 1729

DEFAULTS = {
    "seed": DEFAULT_SEED,
    "bootstrap": 1000,
    "level": 0.95,
    "format": "table",
    "survey_mode": "all",
    "n": 100_000,
    "draws": 10_000,
    "oracle_n": 100_000,
    "haldane": False,
}

#: Largest --n, --oracle-n and --draws: numpy's largest array length.
MAX_SIZE = int(np.iinfo(np.intp).max)

#: Config-file key and flag name for the one argparse dest that cannot use its own name.
CONFIG_ALIASES = {"lam": "lambda"}


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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
        p.add_argument(
            "--format",
            choices=report_mod.FORMATS,
            help="output format (default table)",
        )

    p = sub.add_parser("simulate", help="draw a synthetic population and its oracle report")
    common(p)
    p.add_argument("--model-file", help="population model JSON file")
    p.add_argument("--n", type=int, help="number of encounters (default 100000)")
    p.add_argument("--out-dir", help="directory for the three output artifacts")

    p = sub.add_parser("estimands", help="closed-form estimands of a population model")
    common(p)
    p.add_argument("--model-file", help="population model JSON file")

    def estimation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--admin", help="administrative records CSV")
        p.add_argument("--census", help="census counts CSV (stratum,count_d1,count_d0)")
        p.add_argument(
            "--strata",
            help='comma-separated stratum keys, or "all" for every stratum in the data',
        )
        p.add_argument("--bootstrap", type=int, help="bootstrap replicates B (default 1000)")
        p.add_argument("--level", type=float, help="confidence level (default 0.95)")
        p.add_argument(
            "--haldane",
            action=argparse.BooleanOptionalAction,
            help="apply the +0.5 cell correction to zero cells (exploratory)",
        )

    p = sub.add_parser("estimate", help="naive and selection-adjusted risk ratios from data")
    common(p)
    estimation_flags(p)
    p.add_argument("--survey", help="survey microdata CSV")
    p.add_argument(
        "--survey-mode",
        choices=SURVEY_MODES,
        help="survey subset/weighting rule (default all)",
    )

    p = sub.add_parser(
        "sensitivity",
        help="adjusted risk ratios under a local/citywide mixture of encounter shares",
    )
    common(p)
    estimation_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, help="weight on the local share, in [0, 1]")
    p.add_argument("--citywide-p1", type=float, help="citywide minority share, in (0, 1)")

    p = sub.add_parser("verify", help="run the built-in verification suite")
    common(p)
    p.add_argument("--draws", type=int, help="random models for the sign checks (default 10000)")
    p.add_argument("--oracle-n", type=int, help="encounters per oracle comparison (default 100000)")

    return parser


def _config_value(action: argparse.Action, key: str, value: object) -> object:
    """``value`` if its JSON type and choice suit the flag's action, else DataError."""
    if isinstance(action, argparse.BooleanOptionalAction):
        expected, ok = "true or false", isinstance(value, bool)
    elif action.type is int:
        expected, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
    elif action.type is float:
        expected, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        expected, ok = "a string", isinstance(value, str)
    if not ok:
        raise DataError(f"config key {key!r} must be {expected}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise DataError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Fill unset flags from the JSON config; returns the raw config dict."""
    if not getattr(args, "config", None):
        return {}
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise DataError("config file must contain a JSON object")
    # argparse exposes a parser's actions, with their type and choices, only as _actions
    (subparsers,) = [a for a in parser._actions if a.dest == "subcommand"]
    # keys of every subcommand are accepted, so one config file can serve several commands
    flags = {CONFIG_ALIASES.get(a.dest, a.dest) for p in subparsers.choices.values() for a in p._actions}
    unknown = sorted(set(config) - (flags - {"help"}) - {"schema"})
    if unknown:
        raise DataError(f"unknown config keys: {unknown}")
    actions = {a.dest: a for a in subparsers.choices[args.subcommand]._actions}
    for dest, value in vars(args).items():
        key = CONFIG_ALIASES.get(dest, dest)
        if value is None and config.get(key) is not None:
            setattr(args, dest, _config_value(actions[dest], key, config[key]))
    return config


def _apply_defaults(args: argparse.Namespace) -> None:
    for dest, value in DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + CONFIG_ALIASES.get(name, name).replace("_", "-")
            raise DataError(f"{args.subcommand}: {flag} is required (flag or config)")


def _fresh_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63, size=count)]


def _note(text: str) -> None:
    print(text, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import dataio
    from .simulate import ORACLE_FIELDS, oracle_estimands, sample_encounters, to_administrative

    _require(args, "model_file", "out_dir")
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

    _require(args, "model_file")
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
    args: argparse.Namespace, config: dict
) -> tuple[AdministrativeDataset, LoadReport, list[tuple[str, ExternalRaceDistribution]]]:
    """The admin records and the labelled external sources: census, then survey-<mode>."""
    from . import dataio

    schema = dataio.SchemaConfig.from_dict(config.get("schema"))  # malformed: ValueError, exit 2
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
    keys = [k for k in args.strata.split(",") if k]
    if not keys:
        raise DataError(f"--strata {args.strata!r} names no stratum")
    repeated = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
    if repeated is not None:
        raise DataError(f"--strata {args.strata!r} names stratum {repeated!r} more than once")
    present = set(data.strata())
    unknown = [k for k in keys if k not in present]
    if unknown:
        raise UnknownStratumError(f"strata not present in data: {unknown}")
    return keys


class _Request(NamedTuple):
    """One output row to estimate: ``x`` is the scope (None = pooled)."""

    estimand: str
    flags: tuple[str, ...]
    statistic: Statistic
    external: ExternalRaceDistribution | None
    x: str | None
    seed: int


def _add_rows(
    rep: Report, data: AdministrativeDataset, requests: list[_Request], args: argparse.Namespace
) -> None:
    """One row per request, all bootstrapped in one batch; an undefined estimate is undefined."""
    from .dataio import POOLED_KEY
    from .estimate import bootstrap_batch

    options = dict(level=args.level, replicates=args.bootstrap, haldane=args.haldane)
    results = bootstrap_batch(data, [request[2:] for request in requests], **options)
    for (estimand, flags, *_, x, _), estimate in zip(requests, results):
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


def cmd_estimate(args: argparse.Namespace, config: dict) -> int:
    from .estimate import bias_factor, crr_identified, naive_risk_difference, naive_risk_ratio

    _require(args, "admin")
    data, load_rep, externals = _load_inputs(args, config)
    strata = _parse_strata(args, data)

    rep = Report("estimate")
    rep.add_header("admin", args.admin)
    rep.add_header("external", ",".join(label for label, _ in externals) or "none")
    rep.add_header("seed", args.seed)
    rep.add_header("bootstrap", args.bootstrap)
    rep.add_header("level", args.level)
    rep.add_header("haldane", args.haldane)
    rep.add_header("dropped_rows", load_rep.n_dropped)

    seeds = _fresh_seeds(args.seed, 2 + 2 * len(externals))
    requests = [
        _Request("naive-rd", ("naive",), naive_risk_difference, None, None, seeds[0]),
        _Request("naive-rr", ("naive",), naive_risk_ratio, None, None, seeds[1]),
    ]
    for (label, external), bf_seed, crr_seed in zip(externals, seeds[2::2], seeds[3::2]):
        requests += [
            _Request("bias-factor", ("bias-factor", label), bias_factor, external, None, bf_seed),
            _Request("adjusted-crr", ("adjusted", label), crr_identified, external, None, crr_seed),
        ]

    if strata is not None:
        # stratum i: the naive row takes seed 2i and every external's adjusted row 2i + 1
        seeds = _fresh_seeds(args.seed, 2 * len(strata))
        adjusted = [
            [
                _Request("adjusted-crr", ("adjusted", label), crr_identified, external, key, seed)
                for key, seed in zip(strata, seeds[1::2])
            ]
            for label, external in externals
        ]
        # the first external's rows interleave with the naive rows; the others follow
        for i, (key, seed) in enumerate(zip(strata, seeds[::2])):
            requests.append(_Request("naive-rr", ("naive",), naive_risk_ratio, None, key, seed))
            if adjusted:
                requests.append(adjusted[0][i])
        for rows in adjusted[1:]:
            requests += rows

    _add_rows(rep, data, requests, args)
    print(render(rep, args.format), end="")
    return 0


def cmd_sensitivity(args: argparse.Namespace, config: dict) -> int:
    from .estimate import crr_identified, sensitivity_mixture

    _require(args, "admin", "census", "lam", "citywide_p1")
    data, _, [(_, external)] = _load_inputs(args, config)
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

    # same per-stratum seed for both variants: differences are mixture-only
    requests = [
        _Request("adjusted-crr", ("adjusted", variant), crr_identified, source, key, seed)
        for key, seed in zip(keys, _fresh_seeds(args.seed, len(keys)))
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(parser, args)
        _apply_defaults(args)
        if args.seed < 0:  # numpy would reject it only after the inputs are read, naming no flag
            raise DataError(f"--seed must be a non-negative integer, got {args.seed}")
        # numpy's own errors would name no flag; a huge --draws would loop without end
        for dest in ("n", "oracle_n", "draws"):
            size = getattr(args, dest, None)
            if size is not None and not 1 <= size <= MAX_SIZE:
                flag = "--" + dest.replace("_", "-")
                raise DataError(f"{flag} must be an integer from 1 to {MAX_SIZE}, got {size}")
        replicates, level = getattr(args, "bootstrap", None), getattr(args, "level", None)
        # bootstrap would reject these only when a stratum has rows, and then name no flag
        if replicates is not None:
            from .estimate import MAX_REPLICATES

            if not 2 <= replicates <= MAX_REPLICATES:
                raise DataError(
                    f"--bootstrap must be at least 2 and at most {MAX_REPLICATES} replicates, "
                    f"got {replicates}"
                )
        if level is not None and not 0.0 < level < 1.0:  # NaN fails too
            raise DataError(f"--level must lie strictly between 0 and 1, got {level}")
        if args.subcommand == "simulate":
            return cmd_simulate(args)
        if args.subcommand == "estimands":
            return cmd_estimands(args)
        if args.subcommand == "estimate":
            return cmd_estimate(args, config)
        if args.subcommand == "sensitivity":
            return cmd_sensitivity(args, config)
        if args.subcommand == "verify":
            return cmd_verify(args)
        raise AssertionError(f"unhandled subcommand {args.subcommand!r}")
    # JSONDecodeError is a ValueError; a refused numpy allocation (huge --n) is a MemoryError
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
