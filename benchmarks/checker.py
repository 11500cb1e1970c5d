"""Output checker for benchmark invocations.

It does not import crrkit and does not depend on the bootstrap's random
stream. Every point estimate is recomputed from the fixture counts in
``truth.json``, with the same float expressions crrkit documents: naive RD
and RR, the bias factor, the adjusted CRR, the contact-weighted survey share
and the lambda mixture. Census-adjusted CRRs must also equal the oracle CRR
of their stratum. Intervals are checked only for their structure: both ends
are finite and ``lo <= hi``. A change to the random stream therefore passes
as long as the point estimates stay exact.
"""

from __future__ import annotations

import csv
import io
import json
import math

#: crrkit prints values with 10 significant digits.
REL_TOL = 2e-9
ABS_TOL = 1e-12

UNDEFINED_REPLICATES_FLAG = "undefined_replicates="


def _rates(c: dict) -> tuple[float, float]:
    return c["f1"] / c["n1"], c["f0"] / c["n0"]


def _bias_factor(c: dict, p1: float) -> float:
    return (float(c["n1"]) * (1.0 - p1)) / (float(c["n0"]) * p1)


def _crr(c: dict, p1: float) -> float:
    r1, r0 = _rates(c)
    return (r1 / r0) * _bias_factor(c, p1)


def _census_share(c: dict) -> float:
    return c["c1"] / (c["c1"] + c["c0"])


def expected_rows(truth: dict) -> list[tuple[str, str, tuple[str, ...], float, float | None]]:
    """(stratum, estimand, flags, point, oracle CRR or None) in report order."""
    strata = sorted(truth["strata"], key=lambda s: s["key"])
    if truth["command"] == "sensitivity":
        lam, city = truth["lambda"], truth["citywide_p1"]
        rows = []
        for s in strata:
            p1 = _census_share(s)
            rows.append((s["key"], "adjusted-crr", ("adjusted", "unmixed"), _crr(s, p1), s["oracle_crr"]))
            mixed = lam * p1 + (1.0 - lam) * city
            rows.append((s["key"], "adjusted-crr", ("adjusted", "mixed"), _crr(s, mixed), None))
        return rows

    pooled = {k: sum(s[k] for s in strata) for k in ("n1", "n0", "f1", "f0", "c1", "c0")}
    r1, r0 = _rates(pooled)
    externals = [("census", _census_share(pooled), _census_share)]
    if "survey_share" in truth:
        externals.append(("survey-weighted", truth["survey_share"], lambda s: s["survey_share"]))
    rows = [
        ("all", "naive-rd", ("naive",), r1 - r0, None),
        ("all", "naive-rr", ("naive",), r1 / r0, None),
    ]
    for label, p1, _ in externals:
        rows.append(("all", "bias-factor", ("bias-factor", label), _bias_factor(pooled, p1), None))
        rows.append(("all", "adjusted-crr", ("adjusted", label), _crr(pooled, p1), None))
    for idx, (label, _, share) in enumerate(externals):
        for s in strata:
            if idx == 0:
                rs1, rs0 = _rates(s)
                rows.append((s["key"], "naive-rr", ("naive",), rs1 / rs0, None))
            oracle = s["oracle_crr"] if label == "census" else None
            rows.append((s["key"], "adjusted-crr", ("adjusted", label), _crr(s, share(s)), oracle))
    return rows


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def _check_report(truth: dict, stdout: str) -> list[str]:
    header = {}
    body = []
    for line in stdout.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        else:
            body.append(line)
    problems = []
    if header.get("command") != truth["command"]:
        problems.append(f"header command is {header.get('command')!r}, expected {truth['command']!r}")
    got = list(csv.DictReader(io.StringIO("\n".join(body))))
    want = expected_rows(truth)
    if len(got) != len(want):
        return problems + [f"{len(got)} rows, expected {len(want)}"]
    for i, (row, (stratum, estimand, flags, point, oracle)) in enumerate(zip(got, want)):
        where = f"row {i} ({stratum}, {estimand}, {';'.join(flags)})"
        row_flags = tuple(f for f in row["flags"].split(";") if f and not f.startswith(UNDEFINED_REPLICATES_FLAG))
        if (row["stratum"], row["estimand"], row_flags) != (stratum, estimand, flags):
            problems.append(f"{where}: got ({row['stratum']}, {row['estimand']}, {row['flags']})")
            continue
        try:
            value, lo, hi = float(row["point"]), float(row["lo"]), float(row["hi"])
        except ValueError:
            problems.append(f"{where}: non-numeric point or interval {row}")
            continue
        if not _close(value, point):
            problems.append(f"{where}: point {value!r}, recomputed {point!r}")
        if oracle is not None and not _close(value, oracle):
            problems.append(f"{where}: point {value!r}, oracle crr {oracle!r}")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            problems.append(f"{where}: interval [{lo!r}, {hi!r}]")
    return problems


def _check_verify(stdout: str) -> list[str]:
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    checks = [r for r in records if r.get("record") == "check"]
    summaries = [r for r in records if r.get("record") == "summary"]
    if len(summaries) != 1:
        return [f"{len(summaries)} summary records, expected 1"]
    summary = summaries[0]
    problems = [f"check failed: {r['name']}: {r.get('detail')}" for r in checks if r.get("passed") is not True]
    if not checks or summary.get("total") != len(checks) or summary.get("passed") != summary.get("total"):
        problems.append(f"summary {summary} over {len(checks)} check records")
    return problems


def check(truth: dict, returncode: int, stdout: str) -> list[str]:
    """Problems found in one invocation's result; an empty list means it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        if truth["command"] == "verify":
            return _check_verify(stdout)
        return _check_report(truth, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
