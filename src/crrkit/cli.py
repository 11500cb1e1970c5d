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
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, report as report_mod
from .errors import (
    CrrKitError,
    DataError,
    EstimandUndefinedError,
    TooManyUndefinedError,
    UnknownStratumError,
    ZeroDenominatorError,
    ZeroMassError,
)
from .estimate import (
    AdministrativeDataset,
    EstimateWithCI,
    ExternalRaceDistribution,
    bias_factor,
    bootstrap,
    crr_identified,
    naive_risk_difference,
    naive_risk_ratio,
    sensitivity_mixture,
    stratified_estimates,
)
from .model import Estimand, crr_true, estimand_value, pie_pde
from .report import Report, ReportRow, render
from .simulate import ORACLE_FIELDS, oracle_estimands, sample_encounters, to_administrative
from .verify import run_verification

#: Default RNG seed for all commands, echoed in every report header.
DEFAULT_SEED = 1729

DEFAULTS = {
    "seed": DEFAULT_SEED,
    "bootstrap": 1000,
    "level": 0.95,
    "format": "table",
    "survey_mode": "all",
    "n": 100_000,
    "shards": 1,
    "draws": 10_000,
    "oracle_n": 100_000,
    "haldane": False,
}

#: Config-file key for the one argparse dest that cannot use its own name.
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
    p.add_argument("--shards", type=int, help="independent sampling shards (default 1)")
    p.add_argument("--out-dir", help="directory for the three output artifacts")

    p = sub.add_parser("estimands", help="closed-form estimands of a population model")
    common(p)
    p.add_argument("--model-file", help="population model JSON file")

    def estimation_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--admin", help="administrative records CSV")
        p.add_argument("--census", help="census counts CSV (stratum,count_d1,count_d0)")
        p.add_argument("--survey", help="survey microdata CSV")
        p.add_argument(
            "--survey-mode",
            choices=dataio.SURVEY_MODES,
            help="survey subset/weighting rule (default all)",
        )
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
    p.add_argument("--self-test-perturb", help=argparse.SUPPRESS)

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Fill unset flags from the JSON config; returns the raw config dict."""
    if not getattr(args, "config", None):
        return {}
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise DataError("config file must contain a JSON object")
    for dest, value in vars(args).items():
        if value is not None:
            continue
        key = CONFIG_ALIASES.get(dest, dest)
        if key in config:
            setattr(args, dest, config[key])
    return config


def _apply_defaults(args: argparse.Namespace) -> None:
    for dest, value in DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--" + name.replace("_", "-")
            raise DataError(f"{args.subcommand}: {flag} is required (flag or config)")


def _schema(config: dict) -> dataio.SchemaConfig:
    try:
        return dataio.SchemaConfig.from_dict(config.get("schema", {}))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad schema config: {exc}") from exc


def _fresh_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**63, size=count)]


def _note(text: str) -> None:
    print(text, file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    _require(args, "model_file", "out_dir")
    model = dataio.read_model_file(args.model_file)
    table = sample_encounters(model, args.n, args.seed, shards=args.shards)
    admin = to_administrative(table)
    oracle = oracle_estimands(table)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_encounters(table, out_dir / "encounters.csv")
    dataio.write_administrative(admin, out_dir / "administrative.csv")
    dataio.write_oracle_report(
        oracle,
        out_dir / "oracle.json",
        meta={"model": model.to_dict(), "seed": args.seed, "shards": args.shards},
    )

    rep = Report("simulate")
    rep.add_header("model_file", args.model_file)
    rep.add_header("n", args.n)
    rep.add_header("seed", args.seed)
    rep.add_header("shards", args.shards)
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


def _load_externals(
    args: argparse.Namespace, schema: dataio.SchemaConfig
) -> list[tuple[str, ExternalRaceDistribution]]:
    """External sources named by a flag token: census and/or survey:<mode>."""
    externals: list[tuple[str, ExternalRaceDistribution]] = []
    if args.census:
        external, load_rep = dataio.load_census(args.census)
        _note(load_rep.summary())
        externals.append(("census", external))
    if args.survey:
        table, load_rep = dataio.load_survey(args.survey, schema)
        _note(load_rep.summary())
        externals.append(
            (f"survey-{args.survey_mode}", dataio.derive_survey_distribution(table, args.survey_mode))
        )
    return externals


def _parse_strata(args: argparse.Namespace, data: AdministrativeDataset) -> list[str] | None:
    if args.strata is None:
        return None
    if args.strata == "all":
        return data.strata()
    keys = [k for k in args.strata.split(",") if k]
    present = set(data.strata())
    unknown = [k for k in keys if k not in present]
    if unknown:
        raise UnknownStratumError(f"strata not present in data: {unknown}")
    return keys


def _ci_row(
    stratum: str,
    estimand: str,
    estimate: EstimateWithCI | None,
    error: str | None,
    flags: tuple[str, ...],
) -> ReportRow:
    if estimate is None:
        reason = (error or "unknown").split(":", 1)[0]
        return ReportRow(stratum, estimand, None, flags=flags + (report_mod.UNDEFINED, reason))
    row_flags = flags
    if estimate.undefined_replicates:
        row_flags = flags + (f"undefined_replicates={estimate.undefined_replicates}",)
    return ReportRow(stratum, estimand, estimate.point, estimate.lo, estimate.hi, row_flags)


def _pooled_rows(
    rep: Report,
    data: AdministrativeDataset,
    externals: list[tuple[str, ExternalRaceDistribution]],
    args: argparse.Namespace,
) -> None:
    base_flags = ("haldane",) if args.haldane else ()
    seeds = _fresh_seeds(args.seed, 2 + 2 * len(externals))

    def run(statistic, external, seed):
        return bootstrap(
            statistic,
            data,
            external,
            x=None,
            level=args.level,
            replicates=args.bootstrap,
            seed=seed,
            haldane=args.haldane,
        )

    for i, (statistic, name) in enumerate(
        [(naive_risk_difference, "naive-rd"), (naive_risk_ratio, "naive-rr")]
    ):
        try:
            estimate, error = run(statistic, None, seeds[i]), None
        except (EstimandUndefinedError, TooManyUndefinedError) as exc:
            estimate, error = None, f"{type(exc).__name__}: {exc}"
        rep.add_row(_ci_row("all", name, estimate, error, ("naive",) + base_flags))
    for j, (label, external) in enumerate(externals):
        for k, (statistic, name, flag) in enumerate(
            [(bias_factor, "bias-factor", "bias-factor"), (crr_identified, "adjusted-crr", "adjusted")]
        ):
            try:
                estimate, error = run(statistic, external, seeds[2 + 2 * j + k]), None
            except (EstimandUndefinedError, TooManyUndefinedError) as exc:
                estimate, error = None, f"{type(exc).__name__}: {exc}"
            rep.add_row(_ci_row("all", name, estimate, error, (flag, label) + base_flags))


def cmd_estimate(args: argparse.Namespace, config: dict) -> int:
    _require(args, "admin")
    schema = _schema(config)
    data, load_rep = dataio.load_administrative(args.admin, schema)
    _note(load_rep.summary())
    externals = _load_externals(args, schema)
    strata = _parse_strata(args, data)

    rep = Report("estimate")
    rep.add_header("admin", args.admin)
    rep.add_header("external", ",".join(label for label, _ in externals) or "none")
    rep.add_header("seed", args.seed)
    rep.add_header("bootstrap", args.bootstrap)
    rep.add_header("level", args.level)
    rep.add_header("haldane", args.haldane)
    rep.add_header("dropped_rows", load_rep.n_dropped)

    _pooled_rows(rep, data, externals, args)

    if strata is not None:
        base_flags = ("haldane",) if args.haldane else ()
        for idx, (label, external) in enumerate(externals or [("none", None)]):
            results = stratified_estimates(
                data,
                external,
                strata,
                level=args.level,
                replicates=args.bootstrap,
                seed=args.seed,
                haldane=args.haldane,
            )
            for res in results:
                if idx == 0:
                    rep.add_row(
                        _ci_row(res.x, "naive-rr", res.naive, res.naive_error, ("naive",) + base_flags)
                    )
                if external is not None:
                    rep.add_row(
                        _ci_row(
                            res.x,
                            "adjusted-crr",
                            res.adjusted,
                            res.adjusted_error,
                            ("adjusted", label) + base_flags,
                        )
                    )
    print(render(rep, args.format), end="")
    return 0


def cmd_sensitivity(args: argparse.Namespace, config: dict) -> int:
    _require(args, "admin", "census", "lam", "citywide_p1")
    schema = _schema(config)
    data, load_rep = dataio.load_administrative(args.admin, schema)
    _note(load_rep.summary())
    external, census_rep = dataio.load_census(args.census)
    _note(census_rep.summary())
    mixed = sensitivity_mixture(external, args.citywide_p1, args.lam)
    keys = _parse_strata(args, data) or data.strata()

    rep = Report("sensitivity")
    rep.add_header("admin", args.admin)
    rep.add_header("census", args.census)
    rep.add_header("lambda", args.lam)
    rep.add_header("citywide_p1", args.citywide_p1)
    rep.add_header("seed", args.seed)
    rep.add_header("bootstrap", args.bootstrap)
    rep.add_header("level", args.level)
    rep.add_header("haldane", args.haldane)

    base_flags = ("haldane",) if args.haldane else ()
    seeds = _fresh_seeds(args.seed, len(keys))
    for key, seed in zip(keys, seeds):
        # same per-stratum seed for both variants: differences are mixture-only
        for variant, source in (("unmixed", external), ("mixed", mixed)):
            try:
                estimate, error = (
                    bootstrap(
                        crr_identified,
                        data,
                        source,
                        x=key,
                        level=args.level,
                        replicates=args.bootstrap,
                        seed=seed,
                        haldane=args.haldane,
                    ),
                    None,
                )
            except (EstimandUndefinedError, TooManyUndefinedError) as exc:
                estimate, error = None, f"{type(exc).__name__}: {exc}"
            rep.add_row(
                _ci_row(key, "adjusted-crr", estimate, error, ("adjusted", variant) + base_flags)
            )
    print(render(rep, args.format), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(
        seed=args.seed,
        draws=args.draws,
        oracle_n=args.oracle_n,
        perturb=args.self_test_perturb,
    )
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
        config = _merge_config(args)
        _apply_defaults(args)
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
    except (CrrKitError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
