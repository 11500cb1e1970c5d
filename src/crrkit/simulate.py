"""Synthetic encounter populations with full potential outcomes, plus a brute-force oracle.

Sampling follows the model's independent-error structure: race, principal
stratum and the two force counterfactuals are drawn independently, then the
observed detainment and force columns are filled in by consistency. Every
estimand the closed-form module computes can therefore be checked here by
direct averaging over rows, with no model formulas involved.

Randomness comes from one numpy PCG64 generator, ``default_rng(seed)``,
which draws the columns d, s, y01 and y11 in that order, so results are
reproducible for a fixed (model, n, seed). Bit-level reproducibility is
promised within one implementation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import AdministrativeDataset, ExternalRaceDistribution
from .model import STRATA, PopulationModel

#: Stratum code order used in the ``s`` column: 0=al, 1=mi, 2=ma, 3=ne.
STRATUM_LABELS = STRATA


@dataclass(frozen=True)
class EncounterTable:
    """Columnar table of simulated encounters with their potential outcomes.

    Columns are int8 arrays: race d, stratum code s (0=al, 1=mi, 2=ma, 3=ne),
    detainment counterfactuals m0/m1, force counterfactuals y01/y11 (force if
    stopped, by race), observed detainment m and observed force y. ``x`` is
    the covariate-cell label shared by all rows; one table is one cell.
    """

    d: np.ndarray
    s: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    y01: np.ndarray
    y11: np.ndarray
    m: np.ndarray
    y: np.ndarray
    x: str

    @property
    def n(self) -> int:
        return len(self.d)


def sample_encounters(
    model: PopulationModel, n: int, seed: int, *, x: str = "all"
) -> EncounterTable:
    """Draw ``n`` encounters from ``model``; reproducible for fixed inputs."""
    if not isinstance(model, PopulationModel):
        raise TypeError("model must be a PopulationModel")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    # fixed draw order (d, s, y01, y11) is part of the reproducibility contract
    d = (rng.random(n) < model.p_d).astype(np.int8)
    cuts = np.cumsum([model.pi_al, model.pi_mi, model.pi_ma])
    s = np.searchsorted(cuts, rng.random(n), side="right").astype(np.int8)
    y01 = (rng.random(n) < model.mu_01).astype(np.int8)
    y11 = (rng.random(n) < model.mu_11).astype(np.int8)
    m0 = ((s == 0) | (s == 2)).astype(np.int8)
    m1 = ((s == 0) | (s == 1)).astype(np.int8)
    m = np.where(d == 1, m1, m0)
    y = m * np.where(d == 1, y11, y01)
    return EncounterTable(d, s, m0, m1, y01, y11, m, y, x=x)


def to_administrative(table: EncounterTable) -> AdministrativeDataset:
    """Project the detained rows (m = 1) to the observable (d, y, x) records."""
    mask = table.m == 1
    return AdministrativeDataset((2 * table.d[mask] + table.y[mask]).astype(np.int32), (table.x,))


def external_from_tables(tables: list[EncounterTable]) -> ExternalRaceDistribution:
    """Census-fixed distribution from the encounter-level race counts of tables.

    Treating a simulated population as its own external source makes the
    selection-adjusted risk ratio reproduce the oracle value exactly, which
    the identity tests exploit.
    """
    counts: dict[str, tuple[float, float]] = {}
    for t in tables:
        c1 = float(np.sum(t.d == 1))
        c0 = float(np.sum(t.d == 0))
        if t.x in counts:
            old1, old0 = counts[t.x]
            c1, c0 = c1 + old1, c0 + old0
        counts[t.x] = (c1, c0)
    return ExternalRaceDistribution.census_from_counts(counts)


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


def _mean_estimate(values: np.ndarray) -> OracleEstimate:
    k = len(values)
    if k == 0:
        return OracleEstimate(None, None)
    value = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(k)) if k >= 2 else None
    return OracleEstimate(value, se)


def _group_stats(values: np.ndarray) -> tuple[int, float, float | None]:
    k = len(values)
    mean = float(np.mean(values)) if k else 0.0
    var = float(np.var(values, ddof=1)) if k >= 2 else None
    return k, mean, var


def _ratio_estimate(num: np.ndarray, den: np.ndarray) -> OracleEstimate:
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


def _difference_estimate(a: np.ndarray, b: np.ndarray) -> OracleEstimate:
    k1, m1, v1 = _group_stats(a)
    k0, m0, v0 = _group_stats(b)
    if k1 == 0 or k0 == 0:
        return OracleEstimate(None, None)
    value = m1 - m0
    se = math.sqrt(v1 / k1 + v0 / k0) if v1 is not None and v0 is not None else None
    return OracleEstimate(value, se)


#: OracleReport field names in presentation order.
ORACLE_FIELDS = (
    "ate",
    "att",
    "ate_m1",
    "att_m1",
    "pie",
    "pde",
    "crr",
    "naive_rr",
    "naive_rd",
)


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
        return {
            "n": self.n,
            "estimands": {
                name: {"value": self.field(name).value, "se": self.field(name).se}
                for name in ORACLE_FIELDS
            },
        }


def oracle_estimands(table: EncounterTable) -> OracleReport:
    """Evaluate every estimand on the realized table by direct averaging.

    The realized force counterfactuals are y(1) = y11 * m1 and
    y(0) = y01 * m0 (no force without a stop). The crr field is the ratio of
    observed force rates by race, mean(y | d=1) / mean(y | d=0), which is the
    count-level analog of the stopped-rate decomposition of E[Y(d)]: it
    matches the selection-adjusted estimator exactly when the table serves as
    its own external source. Ratio fields with empty groups or zero
    denominators are reported as undefined.
    """
    y1 = (table.y11 * table.m1).astype(np.int16)
    y0 = (table.y01 * table.m0).astype(np.int16)
    diff = y1 - y0

    is_d1 = table.d == 1
    is_d0 = ~is_d1
    is_m1 = table.m == 1
    y = table.y.astype(np.int16)

    return OracleReport(
        ate=_mean_estimate(diff),
        att=_mean_estimate(diff[is_d1]),
        ate_m1=_mean_estimate(diff[is_m1]),
        att_m1=_mean_estimate(diff[is_d1 & is_m1]),
        pie=_mean_estimate((table.y11 * (table.m1 - table.m0)).astype(np.int16)),
        pde=_mean_estimate(((table.y11 - table.y01) * table.m0).astype(np.int16)),
        crr=_ratio_estimate(y[is_d1], y[is_d0]),
        naive_rr=_ratio_estimate(y[is_d1 & is_m1], y[is_d0 & is_m1]),
        naive_rd=_difference_estimate(y[is_d1 & is_m1], y[is_d0 & is_m1]),
        n=table.n,
    )
