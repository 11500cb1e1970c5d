"""Synthetic encounter populations with full potential outcomes, plus a brute-force oracle.

Sampling follows the model's independent-error structure: race, principal
stratum and the two force counterfactuals are drawn independently, then the
observed detainment and force columns follow by consistency: a table holds
each encounter as one int8 cell code and reads every column off it. Every
estimand the closed-form module computes can therefore be checked here by
direct averaging over the realized rows, with no model formulas involved;
the oracle averages them through the row counts of the 32 cell codes.

Randomness comes from one numpy PCG64 generator, ``default_rng(seed)``,
which draws the columns d, s, y01 and y11 in that order, so results are
reproducible for a fixed (model, n, seed). Bit-level reproducibility is
promised within one implementation only.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import PopulationModel

if TYPE_CHECKING:  # estimate loads only when a projection below runs, so verify skips it
    from .estimate import AdministrativeDataset, ExternalRaceDistribution

#: Number of distinct cell codes: d and y01, y11 take one bit each, s two.
CELLS = 32
#: Rows per step of the passes that sample encounters and count their cell codes.
BLOCK = 65_536


@dataclass(frozen=True)
class EncounterTable:
    """Table of simulated encounters with their potential outcomes.

    ``code`` holds one int8 cell code per encounter, ``d | s << 1 | y01 << 3 |
    y11 << 4``: race d, stratum code s (0=al, 1=mi, 2=ma, 3=ne) and the force
    counterfactuals y01/y11 (force if stopped, by race). Those columns, the
    detainment counterfactuals m0/m1, observed detainment m and observed force
    y are read-only int8 arrays read off the code on each access. A code outside
    0..31, or not of an integer dtype, raises ValueError. ``x`` is the
    covariate-cell label shared by all rows; one table is one cell.
    """

    code: np.ndarray
    x: str

    def __post_init__(self) -> None:
        code = self.code
        if code.dtype.kind not in "biu" or (code.size and not 0 <= code.min() <= code.max() < CELLS):
            raise ValueError(f"code must hold only cell codes 0 to {CELLS - 1}")

    n = property(lambda self: len(self.code))
    d = property(lambda self: self.code & 1)
    s = property(lambda self: self.code >> 1 & 3)
    y01 = property(lambda self: self.code >> 3 & 1)
    y11 = property(lambda self: self.code >> 4 & 1)
    m0 = property(lambda self: ((self.s & 1) == 0).view(np.int8))  # stopped as majority: al, ma
    m1 = property(lambda self: (self.s < 2).view(np.int8))  # stopped as minority: al, mi
    m = property(lambda self: np.where(self.d == 1, self.m1, self.m0))
    y = property(lambda self: self.m & np.where(self.d == 1, self.y11, self.y01))


def cell_values(*columns: str) -> list[tuple[int, ...]]:
    """The values of ``columns`` in each cell, indexed by cell code."""
    cells = EncounterTable(np.arange(CELLS, dtype=np.int8), "")
    return list(zip(*(getattr(cells, name).tolist() for name in columns)))


def _cell_counts(table: EncounterTable) -> np.ndarray:
    """The row count of each cell code, counted a block at a time: bincount copies to intp."""
    counts = np.zeros(CELLS, dtype=np.int64)
    for lo in range(0, table.n, BLOCK):
        counts += np.bincount(table.code[lo : lo + BLOCK].astype(np.intp), minlength=CELLS)
    return counts


def sample_encounters(model: PopulationModel, n: int, seed: int, *, x: str = "all") -> EncounterTable:
    """Draw ``n`` encounters from ``model``; reproducible for fixed inputs."""
    if not isinstance(model, PopulationModel):
        raise TypeError("model must be a PopulationModel")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    cuts = (model.pi_al, model.pi_al + model.pi_mi, model.pi_al + model.pi_mi + model.pi_ma)
    # fixed draw order (d, s, y01, y11) is part of the reproducibility contract; each column's
    # bits of the code from its draws u, where s counts the stratum cuts at or below u
    columns = (
        lambda u: (u < model.p_d).view(np.int8),
        lambda u: ((u >= cuts[0]).view(np.int8) + (u >= cuts[1]) + (u >= cuts[2])) << 1,
        lambda u: (u < model.mu_01).view(np.int8) << 3,
        lambda u: (u < model.mu_11).view(np.int8) << 4,
    )
    code = np.zeros(n, dtype=np.int8)  # allocated before any draw, so a huge n fails first
    buf = np.empty(min(n, BLOCK))
    for bits in columns:  # a column in blocks continues the stream as one draw of n would
        for lo in range(0, n, BLOCK):
            block = code[lo : lo + BLOCK]
            block |= bits(rng.random(out=buf[: len(block)]))
    return EncounterTable(code, x=x)


#: Each cell code's record cell 2*d + y, or -1 where the encounter is not detained (m = 0).
_RECORD_CELL = np.array([2 * d + y if m else -1 for m, d, y in cell_values("m", "d", "y")], np.int8)

#: Each cell code's columns that the oracle's groups read.
_ORACLE_CELLS = cell_values("d", "m0", "m1", "y01", "y11", "m", "y")


def to_administrative(table: EncounterTable) -> AdministrativeDataset:
    """Project the detained rows (m = 1) to the observable (d, y, x) records."""
    from .estimate import AdministrativeDataset

    cell = np.take(_RECORD_CELL, table.code)
    return AdministrativeDataset(cell[cell >= 0].astype(np.int32), (table.x,))


def external_from_tables(tables: list[EncounterTable]) -> ExternalRaceDistribution:
    """Census-fixed distribution from the encounter-level race counts of tables.

    Treating a simulated population as its own external source makes the
    selection-adjusted risk ratio reproduce the oracle value exactly, which
    the identity tests exploit.
    """
    from .estimate import ExternalRaceDistribution

    # every encounter is a weight-1 cell of its race: cells (0, 1) and (1, 1) per table
    keys: dict[str, int] = {}
    code = [keys.setdefault(t.x, len(keys)) for t in tables]
    sizes = np.ravel([_cell_counts(t).reshape(-1, 2).sum(axis=0) for t in tables])  # by d, bit 0
    cells = np.tile([[0.0, 1.0], [1.0, 1.0]], (len(tables), 1))
    return ExternalRaceDistribution.from_cells(tuple(keys), np.repeat(code, 2), cells, sizes)


def external_from_table(table: EncounterTable) -> ExternalRaceDistribution:
    return external_from_tables([table])


# -- oracle ---------------------------------------------------------------------


@dataclass(frozen=True)
class OracleEstimate:
    """Plain-average estimate with a Monte Carlo standard error.

    ``value`` is None when the quantity is undefined on the realized table
    (empty group or zero denominator); undefinedness is always explicit,
    never a NaN.
    """

    value: float | None
    se: float | None

    @property
    def defined(self) -> bool:
        return self.value is not None


def _group_stats(counts: Counter) -> tuple[int, float, float | None]:
    """Size, mean and ddof=1 variance of a group given as a value -> count map."""
    k = sum(counts.values())
    mean = sum(v * c for v, c in counts.items()) / k if k else 0.0
    var = math.fsum(c * (v - mean) ** 2 for v, c in counts.items()) / (k - 1) if k >= 2 else None
    return k, mean, var


def _mean_estimate(counts: Counter) -> OracleEstimate:
    k, mean, var = _group_stats(counts)
    se = math.sqrt(var) / math.sqrt(k) if var is not None else None
    return OracleEstimate(mean, se) if k else OracleEstimate(None, None)


def _ratio_estimate(num: Counter, den: Counter) -> OracleEstimate:
    """Ratio of two independent group means with a delta-method SE."""
    k1, m1, v1 = _group_stats(num)
    k0, m0, v0 = _group_stats(den)
    if k1 == 0 or k0 == 0 or m0 == 0.0:
        return OracleEstimate(None, None)
    value = m1 / m0
    if v1 is None or v0 is None:
        return OracleEstimate(value, None)
    var = v1 / (k1 * m0**2) + (m1**2 / m0**4) * (v0 / k0)
    return OracleEstimate(value, math.sqrt(var))


def _difference_estimate(a: Counter, b: Counter) -> OracleEstimate:
    k1, m1, v1 = _group_stats(a)
    k0, m0, v0 = _group_stats(b)
    if k1 == 0 or k0 == 0:
        return OracleEstimate(None, None)
    se = math.sqrt(v1 / k1 + v0 / k0) if v1 is not None and v0 is not None else None
    return OracleEstimate(m1 - m0, se)


#: OracleReport field names in presentation order.
ORACLE_FIELDS = ("ate", "att", "ate_m1", "att_m1", "pie", "pde", "crr", "naive_rr", "naive_rd")


@dataclass(frozen=True)
class OracleReport:
    """Brute-force estimand values averaged directly over an encounter table."""

    ate: OracleEstimate
    att: OracleEstimate
    ate_m1: OracleEstimate
    att_m1: OracleEstimate
    pie: OracleEstimate
    pde: OracleEstimate
    crr: OracleEstimate
    naive_rr: OracleEstimate
    naive_rd: OracleEstimate
    n: int

    def field(self, name: str) -> OracleEstimate:
        if name not in ORACLE_FIELDS:
            raise KeyError(f"unknown oracle field {name!r}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        return {"n": self.n, "estimands": {name: asdict(self.field(name)) for name in ORACLE_FIELDS}}


def oracle_estimands(table: EncounterTable) -> OracleReport:
    """Evaluate every estimand on the realized table by averaging its rows.

    The realized force counterfactuals are y(1) = y11 * m1 and
    y(0) = y01 * m0 (no force without a stop). The crr field is the ratio of
    observed force rates by race, mean(y | d=1) / mean(y | d=0), which is the
    count-level analog of the stopped-rate decomposition of E[Y(d)]: it
    matches the selection-adjusted estimator exactly when the table serves as
    its own external source. Ratio fields with empty groups or zero
    denominators are reported as undefined. Each group is averaged through its
    value -> row count map, built from the row count of each cell code and
    that cell's columns.
    """
    counts = _cell_counts(table)
    groups: defaultdict[str, Counter] = defaultdict(Counter)
    for count, (d, m0, m1, y01, y11, m, y) in zip(counts.tolist(), _ORACLE_CELLS):
        diff = y11 * m1 - y01 * m0
        for group, member, value in (
            ("ate", 1, diff), ("att", d, diff), ("ate_m1", m, diff), ("att_m1", d & m, diff),
            ("pie", 1, y11 * (m1 - m0)), ("pde", 1, (y11 - y01) * m0),
            (f"y_d{d}", 1, y), (f"y_m1_d{d}", m, y),
        ):
            if member:
                groups[group][value] += count
    return OracleReport(
        **{name: _mean_estimate(groups[name]) for name in ORACLE_FIELDS[:6]},
        crr=_ratio_estimate(groups["y_d1"], groups["y_d0"]),
        naive_rr=_ratio_estimate(groups["y_m1_d1"], groups["y_m1_d0"]),
        naive_rd=_difference_estimate(groups["y_m1_d1"], groups["y_m1_d0"]),
        n=table.n,
    )
