"""Report assembly and rendering for the CLI.

Every command emits the same row shape (stratum, estimand, point, lo, hi,
flags) preceded by a header block of the run's effective settings, so output
is auditable and machine-readable. Field names are versioned; golden-file
tests pin them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

#: Bumped whenever a rendered field name or column changes.
SCHEMA_VERSION = "2"

#: Explicit token for values that could not be computed.
UNDEFINED = "undefined"

ROW_FIELDS = ("stratum", "estimand", "point", "lo", "hi", "flags")


@dataclass(frozen=True)
class ReportRow:
    stratum: str
    estimand: str
    point: float | None
    lo: float | None = None
    hi: float | None = None
    flags: tuple[str, ...] = ()


@dataclass
class Report:
    command: str
    header: list[tuple[str, object]] = field(default_factory=list)
    rows: list[ReportRow] = field(default_factory=list)

    def add_header(self, key: str, value: object) -> None:
        self.header.append((key, value))

    def add_row(self, row: ReportRow) -> None:
        self.rows.append(row)


def _fmt(value: float | None) -> str:
    if value is None:
        return UNDEFINED
    return f"{value:.10g}"


def _header_pairs(report: Report) -> list[tuple[str, object]]:
    return [("schema_version", SCHEMA_VERSION), ("command", report.command)] + report.header


def render_table(report: Report) -> str:
    lines = [f"# {key} = {value}" for key, value in _header_pairs(report)]
    cells = [list(ROW_FIELDS)]
    for row in report.rows:
        cells.append(
            [
                row.stratum,
                row.estimand,
                _fmt(row.point),
                _fmt(row.lo) if row.lo is not None else "-",
                _fmt(row.hi) if row.hi is not None else "-",
                ";".join(row.flags) if row.flags else "-",
            ]
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(ROW_FIELDS))]
    for r in cells:
        lines.append("  ".join(val.ljust(width) for val, width in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    out = io.StringIO()
    for key, value in _header_pairs(report):
        out.write(f"# {key}={value}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    for row in report.rows:
        writer.writerow(
            (
                row.stratum,
                row.estimand,
                _fmt(row.point),
                _fmt(row.lo) if row.lo is not None else "",
                _fmt(row.hi) if row.hi is not None else "",
                ";".join(row.flags),
            )
        )
    return out.getvalue()


def render_json_lines(report: Report) -> str:
    records = [
        {"record": "header", **{key: value for key, value in _header_pairs(report)}}
    ]
    for row in report.rows:
        records.append(
            {
                "record": "row",
                "stratum": row.stratum,
                "estimand": row.estimand,
                "point": row.point,
                "lo": row.lo,
                "hi": row.hi,
                "flags": list(row.flags),
            }
        )
    return "\n".join(json.dumps(rec) for rec in records) + "\n"


FORMATS = ("table", "csv", "json-lines")


def render(report: Report, fmt: str) -> str:
    if fmt == "table":
        return render_table(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "json-lines":
        return render_json_lines(report)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
