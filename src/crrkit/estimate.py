"""Selection-adjusted risk-ratio estimation from detainment records.

Administrative records only describe encounters that ended in a detainment,
so the ratio of force rates between race groups in those records (the naive
risk ratio) confounds discrimination in force with discrimination in who gets
detained. Multiplying the naive ratio by an odds ratio that compares the race
composition of detainments against the race composition of encounters (the
bias factor) recovers the causal risk ratio; the encounter-level race shares
come from an external census or survey source.

Estimation here is by stratified empirical frequencies within one covariate
cell at a time; no regression smoothing. Confidence intervals are percentile
bootstrap. Census externals are treated as fixed population quantities and
are never resampled; survey externals are resampled respondent-by-respondent
alongside the administrative rows.

Every statistic depends only on a scope's record counts in the four cells
2*d + y and, for the adjusted ones, the external minority share p1. Each is
written once, as an array formula over rows of counts and shares: a point
estimate is one row, and a bootstrap call evaluates its point (row 0) and all
its replicates in one call. Resampling n rows with replacement and counting
them is a multinomial draw over the four cells, so a bootstrap call draws
every replicate's counts at once from one generator (for survey sources, the
respondent counts per (race, weight) cell after them). Survey respondents are
counted by (race, weight) cell, so every survey share is one weighted sum.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateOddsError,
    EstimandUndefinedError,
    MissingGroupError,
    TooManyUndefinedError,
    UnknownStratumError,
    ZeroDenominatorError,
)


def _check_binary(name: str, values) -> None:
    values = np.asarray(values)
    if values.dtype.kind in "biu":  # min and max allocate no full-length temporaries
        valid = values.size == 0 or (values.min() >= 0 and values.max() <= 1)
    else:
        valid = np.all((values == 0) | (values == 1))
    if not valid:
        raise ValueError(f"{name} values must be 0 or 1")


@dataclass(frozen=True)
class AdministrativeDataset:
    """Detainment records, packed: one int32 ``cell = 4*code + 2*d + y`` per row.

    ``code`` indexes ``keys``, the stratum key of each code, so a record holds
    no Python object. The race, force and stratum columns ``d``, ``y`` and
    ``x`` are derived on each read; ``from_columns`` builds a dataset from them.
    """

    cell: np.ndarray
    keys: tuple

    def __post_init__(self) -> None:
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("stratum keys must be distinct")
        if len(self.cell) and (self.cell.min() < 0 or self.cell.max() >= 4 * len(self.keys)):
            raise ValueError("cells must lie in [0, 4 * len(keys))")

    @classmethod
    def from_columns(cls, d, y, x) -> "AdministrativeDataset":
        """Encode race and force 0/1 columns (int, bool or float) and a stratum key column."""
        if not (len(d) == len(y) == len(x)):
            raise ValueError("column arrays must have equal length")
        _check_binary("d", d)
        _check_binary("y", y)
        codes: dict = {}  # each key's code, in first-seen order: x is never sorted or copied
        cell = np.fromiter(
            (codes.setdefault(v, len(codes)) for v in x), dtype=np.int32, count=len(x)
        )
        for column in (d, y):  # cell = 4*code + 2*d + y, in place on int32
            cell *= 2
            cell += np.asarray(column, dtype=np.int8)
        return cls(cell, tuple(codes))

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, int, str]]) -> "AdministrativeDataset":
        d, y, x = ([row[i] for row in rows] for i in range(3))
        # x stays a list: np.array(x, object) would unpack tuple keys
        return cls.from_columns(np.array(d, np.int8), np.array(y, np.int8), x)

    @classmethod
    def concat(cls, parts: Sequence["AdministrativeDataset"]) -> "AdministrativeDataset":
        return cls.from_columns(
            np.concatenate([p.d for p in parts]) if parts else np.empty(0, np.int8),
            np.concatenate([p.y for p in parts]) if parts else np.empty(0, np.int8),
            np.concatenate([p.x for p in parts]) if parts else np.empty(0, object),
        )

    @property
    def d(self) -> np.ndarray:
        return (self.cell >> 1 & 1).astype(np.int8)

    @property
    def y(self) -> np.ndarray:
        return (self.cell & 1).astype(np.int8)

    @property
    def x(self) -> np.ndarray:
        # fromiter keeps a tuple key one object, where np.array would unpack it
        keys = np.fromiter(self.keys, dtype=object, count=len(self.keys))
        return keys[self.cell >> 2]

    @property
    def n(self) -> int:
        return len(self.cell)

    @cached_property
    def _table(self) -> dict[str | None, tuple[int, int, int, int]]:
        """Record counts in the cells 2*d + y of each stratum, and of the pool (key None)."""
        table = np.bincount(self.cell, minlength=4 * len(self.keys)).reshape(-1, 4)
        counts = dict(zip(self.keys, map(tuple, table.tolist())))
        counts[None] = tuple(table.sum(axis=0).tolist())
        return counts

    def _scope_counts(self, x: str | None) -> tuple[int, int, int, int]:
        """Record counts in the cells 2*d + y of stratum ``x`` (None = all); zeros when absent."""
        return self._table.get(x, (0, 0, 0, 0))

    def strata(self) -> list[str]:
        """The keys of the strata with records, as stored: those ``bootstrap`` accepts."""
        return sorted((key for key in self.keys if any(self._table[key])), key=str)


def _weighted_shares(counts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Weighted minority share per row of counts over (race, weight) cells; NaN at weight 0."""
    totals = counts @ cells[:, 1]
    minority = counts @ (cells[:, 0] * cells[:, 1])
    return np.divide(minority, totals, out=np.full(len(totals), np.nan), where=totals > 0.0)


def _shares(p1: float | None, size: int) -> np.ndarray:
    """``size`` copies of share ``p1`` as floats, NaN for None."""
    return np.full(size, np.nan if p1 is None else p1, dtype=float)


def _optional(share: float) -> float | None:
    return None if math.isnan(share) else share


def _cell_table(counts: Mapping[tuple[int, float], int]) -> tuple[np.ndarray, np.ndarray]:
    """The (race, weight) cells of ``counts`` sorted, as a float (k, 2) array, and their counts."""
    cells = sorted(counts)
    return np.array(cells, dtype=float).reshape(-1, 2), np.array(
        [counts[cell] for cell in cells], dtype=np.int64
    )


@dataclass(frozen=True)
class SurveyRespondents:
    """Survey respondents counted by stratum key and (race, resampling weight) cell.

    ``table`` maps each stratum key, and None for the pool of all strata, to
    its cells sorted by (race, weight) and the respondent count of each; the
    order of the cells is the category order of the bootstrap's multinomial.
    """

    table: Mapping[Hashable, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        cells = self.table[None][0]  # the pool holds every cell
        _check_binary("d", cells[:, 0])
        if not np.all(np.isfinite(cells[:, 1])) or np.any(cells[:, 1] < 0):
            raise ValueError("weights must be finite and nonnegative")

    @classmethod
    def from_counts(cls, counts: Mapping[tuple[Hashable, int, float], int]) -> "SurveyRespondents":
        """Respondents from their number per (stratum key, race, weight)."""
        scopes: dict[Hashable, Counter] = {None: Counter()}
        for (key, d, weight), count in counts.items():
            scopes.setdefault(key, Counter())[d, weight] += count
            scopes[None][d, weight] += count
        return cls({key: _cell_table(cells) for key, cells in scopes.items()})

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, Hashable, float]]) -> "SurveyRespondents":
        """Respondents from (race, stratum key, weight) rows, counted."""
        return cls.from_counts(Counter((x, d, weight) for d, x, weight in rows))

    def _scope(self, x: str | None) -> tuple[np.ndarray, np.ndarray]:
        """The (race, weight) cells of stratum ``x`` (None = all) and their respondent counts."""
        return self.table.get(x, (np.empty((0, 2)), np.empty(0, dtype=np.int64)))

    def _share(self, x: str | None) -> float | None:
        cells, counts = self._scope(x)
        return _optional(_weighted_shares(counts[None, :], cells).tolist()[0])

    def minority_share(self) -> float | None:
        """Weighted share of minority respondents, or None on zero total weight."""
        return self._share(None)

    def shares_by_stratum(self) -> dict[str, float | None]:
        keys = sorted((k for k in self.table if k is not None), key=str)
        return {key: self._share(key) for key in keys}


@dataclass(frozen=True)
class ExternalRaceDistribution:
    """Per-stratum minority shares among encounters, from a census or survey source.

    A source with ``respondents`` is a survey: its shares are recomputed from
    a respondent resample on every bootstrap replicate. Any other source is a
    census of fixed population quantities, never resampled. An optional
    mixture pulls every local share toward a common citywide share:

        p1'(x) = mix_lambda * p1(x) + (1 - mix_lambda) * mix_citywide

    The mixture is reapplied after each respondent resample, so it survives
    bootstrapping.
    """

    shares: Mapping[str, float | None]
    counts: Mapping[str, tuple[float, float]] | None = None
    respondents: SurveyRespondents | None = None
    mix_lambda: float = 1.0
    mix_citywide: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix_lambda <= 1.0:
            raise ValueError("mix_lambda must lie in [0, 1]")
        if self.mix_citywide is not None and not 0.0 < self.mix_citywide < 1.0:
            raise ValueError("mix_citywide must lie in (0, 1)")

    # -- constructors --------------------------------------------------------

    @classmethod
    def census_from_counts(
        cls, counts: Mapping[str, tuple[float, float]]
    ) -> "ExternalRaceDistribution":
        """Fixed distribution from per-stratum (minority, majority) population counts."""
        shares = {key: c1 / (c1 + c0) if c1 + c0 > 0 else None for key, (c1, c0) in counts.items()}
        return cls(shares=shares, counts=dict(counts))

    @classmethod
    def from_survey(cls, respondents: SurveyRespondents) -> "ExternalRaceDistribution":
        return cls(shares=respondents.shares_by_stratum(), respondents=respondents)

    # -- lookups ---------------------------------------------------------------

    def _local_share(self, x: str | None) -> float | None:
        if x is not None:
            return self.shares.get(x)
        # pooled scope: aggregate whatever raw material is available
        if self.counts is not None:
            c1 = sum(c for c, _ in self.counts.values())
            c0 = sum(c for _, c in self.counts.values())
            total = c1 + c0
            return (c1 / total) if total > 0 else None
        if self.respondents is not None:
            return self.respondents.minority_share()
        if len(self.shares) == 1:
            return next(iter(self.shares.values()))
        return None

    def _mixed(self, base: np.ndarray) -> np.ndarray:
        """Shares ``base`` (NaN: none) with the mixture applied."""
        if self.mix_citywide is None:
            return base
        if self.mix_lambda == 0.0:  # pure citywide: defined without a local share
            return np.full_like(base, self.mix_citywide)
        return self.mix_lambda * base + (1.0 - self.mix_lambda) * self.mix_citywide

    def p1_for(self, x: str | None) -> float | None:
        """Minority share for stratum ``x`` (None = pooled), mixture applied."""
        base = self._local_share(x)
        if self.mix_citywide is None:
            return base  # as given: a point's error message quotes it
        return _optional(self._mixed(_shares(base, 1)).tolist()[0])

    # -- bootstrap support ------------------------------------------------------

    def _share_draws(
        self, x: str | None, rng: np.random.Generator, replicates: int
    ) -> np.ndarray:
        """``replicates`` bootstrap draws of p1 for scope ``x``, mixture applied; NaN: none.

        Census sources repeat their fixed share and take nothing from ``rng``.
        Survey sources draw one multinomial over the distinct (race, weight)
        cells of the scoped respondents, which is a with-replacement resample
        of them counted by cell, and recompute the weighted share per draw.
        """
        if self.respondents is None:
            return _shares(self.p1_for(x), replicates)
        cells, counts = self.respondents._scope(x)
        m = int(counts.sum())
        if m == 0:
            return self._mixed(_shares(None, replicates))
        draws = rng.multinomial(m, counts / m, size=replicates)
        return self._mixed(_weighted_shares(draws, cells))


def sensitivity_mixture(
    external: ExternalRaceDistribution, citywide_p1: float, lam: float
) -> ExternalRaceDistribution:
    """Blend local shares with a citywide share: lambda * local + (1 - lambda) * citywide.

    lam = 1 reproduces the input distribution; lam = 0 assigns every stratum
    the citywide share. Survey respondents are kept, so survey distributions
    keep resampling under the bootstrap with the mixture reapplied per replicate.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    if not 0.0 < citywide_p1 < 1.0:
        raise ValueError(f"citywide_p1 must lie in (0, 1), got {citywide_p1!r}")
    return replace(external, mix_lambda=lam, mix_citywide=citywide_p1)


# -- statistics -------------------------------------------------------------------
#
# Each statistic is one array formula: from the totals (n1, n0, f1, f0) of k
# count rows and their k external minority shares p1 (NaN: none) it returns
# the k values and the (rule code, rows) checks that leave rows undefined: a
# code is 1 + its rule's index in _RULES, whose order picks a point's error.
_RULES = (
    (MissingGroupError, "both race groups required in scope {x!r}: n1={n1}, n0={n0}"),
    (ZeroDenominatorError, "majority force rate is zero in scope {x!r}"),
    (MissingGroupError, "no administrative rows in scope {x!r}"),
    (DegenerateOddsError, "detainment race odds degenerate in scope {x!r}: c1={c1}, c0={c0}"),
    (DegenerateOddsError, "no external minority share for scope {x!r}"),
    (DegenerateOddsError, "external minority share must lie strictly in (0, 1), got {p1!r}"),
)
BOTH_GROUPS, ZERO_MAJORITY, NO_ROWS, DEGENERATE_ODDS, NO_SHARE, SHARE_RANGE = range(1, 7)


def _rates(totals: tuple, haldane: bool) -> tuple[np.ndarray, np.ndarray, list]:
    n1, n0, f1, f0 = totals
    checks = [(BOTH_GROUPS, (n1 == 0) | (n0 == 0))]
    if haldane:
        return (f1 + 0.5) / (n1 + 1.0), (f0 + 0.5) / (n0 + 1.0), checks
    return f1 / n1, f0 / n0, checks


def _risk_difference(totals: tuple, p1: np.ndarray, haldane: bool) -> tuple[np.ndarray, list]:
    r1, r0, checks = _rates(totals, haldane)
    return r1 - r0, checks


def _risk_ratio(totals: tuple, p1: np.ndarray, haldane: bool) -> tuple[np.ndarray, list]:
    r1, r0, checks = _rates(totals, haldane)
    return r1 / r0, checks + [(ZERO_MAJORITY, r0 == 0.0)]


def _bias_factor(totals: tuple, p1: np.ndarray, haldane: bool) -> tuple[np.ndarray, list]:
    n1, n0 = totals[:2]
    c1, c0 = (n1 + 0.5, n0 + 0.5) if haldane else (n1, n0)
    checks = [(NO_ROWS, n1 + n0 == 0), (DEGENERATE_ODDS, (c1 == 0) | (c0 == 0))]
    checks += [(NO_SHARE, np.isnan(p1)), (SHARE_RANGE, (p1 <= 0.0) | (p1 >= 1.0))]
    return (c1 * (1.0 - p1)) / (c0 * p1), checks


def _crr(totals: tuple, p1: np.ndarray, haldane: bool) -> tuple[np.ndarray, list]:
    rr, checks = _risk_ratio(totals, p1, haldane)
    bf, bf_checks = _bias_factor(totals, p1, haldane)
    return rr * bf, checks + bf_checks


def _evaluate(
    formula: Callable,
    counts: tuple[int, int, int, int],
    p1: float | None,
    x: str | None,
    haldane: bool,
    draws: np.ndarray = np.empty((0, 4), np.int64),
    shares: np.ndarray = np.empty(0),
) -> tuple[np.ndarray, np.ndarray]:
    """``formula``'s values and first failing rule codes (0: none) on each count row.

    Row 0, the point, is scope ``x``'s ``counts`` and share ``p1``: raises its error.
    The ``draws`` and ``shares`` rows follow it.
    """
    c00, c01, c10, c11 = np.concatenate(([counts], draws)).T
    p1s = np.concatenate(([np.nan if p1 is None else p1], shares))
    # undefined rows divide by zero, which their codes mark; an overflow is inf, as in Python
    with np.errstate(all="ignore"):
        values, checks = formula((c10 + c11, c00 + c01, c11, c01), p1s, haldane)
    codes = np.zeros(len(values), np.int8)
    for code, failed in reversed(checks):  # the first failing rule writes last
        codes[failed] = code
    if codes[0]:
        code = int(codes[0])
        if code in (NO_SHARE, SHARE_RANGE):  # a NaN share is out of range, not missing
            code = NO_SHARE if p1 is None else SHARE_RANGE
        n1, n0 = counts[2] + counts[3], counts[0] + counts[1]
        c1, c0 = (n1 + 0.5, n0 + 0.5) if haldane else (float(n1), float(n0))
        error, message = _RULES[code - 1]
        raise error(message.format(x=x, n1=n1, n0=n0, c1=c1, c0=c0, p1=p1))
    return values, codes


def naive_risk_difference(
    data: AdministrativeDataset, x: str | None = None, *, haldane: bool = False
) -> float:
    """Difference in record-level force rates, minority minus majority."""
    return float(_evaluate(_risk_difference, data._scope_counts(x), None, x, haldane)[0][0])


def naive_risk_ratio(
    data: AdministrativeDataset, x: str | None = None, *, haldane: bool = False
) -> float:
    """Ratio of record-level force rates; ignores selection into the records."""
    return float(_evaluate(_risk_ratio, data._scope_counts(x), None, x, haldane)[0][0])


def bias_factor(
    data: AdministrativeDataset,
    external: ExternalRaceDistribution,
    x: str | None = None,
    *,
    haldane: bool = False,
) -> float:
    """Odds ratio of minority race in detainments versus encounters.

    Computed as a single fused fraction c1*(1-p1) / (c0*p1) so that exact
    inputs give exact output (e.g. detainment share 0.8 against encounter
    share 0.25 yields 12.0 with no rounding).
    """
    p1 = external.p1_for(x)
    return float(_evaluate(_bias_factor, data._scope_counts(x), p1, x, haldane)[0][0])


def crr_identified(
    data: AdministrativeDataset,
    external: ExternalRaceDistribution,
    x: str | None = None,
    *,
    haldane: bool = False,
) -> float:
    """Causal risk ratio: naive risk ratio corrected by the bias factor."""
    p1 = external.p1_for(x)
    return float(_evaluate(_crr, data._scope_counts(x), p1, x, haldane)[0][0])


#: Array formula of each built-in statistic, and whether it reads the external share.
_FORMULAS = {
    naive_risk_difference: (_risk_difference, False),
    naive_risk_ratio: (_risk_ratio, False),
    bias_factor: (_bias_factor, True),
    crr_identified: (_crr, True),
}


# -- bootstrap ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a percentile bootstrap interval.

    ``lo <= point <= hi`` is not guaranteed for skewed, tiny samples, but
    ``lo <= hi`` always holds. Replicates on which the statistic is undefined
    are counted in ``undefined_replicates`` and excluded from the percentiles.
    """

    point: float
    lo: float
    hi: float
    level: float
    replicates: int
    seed: int
    undefined_replicates: int = 0


Statistic = Callable[..., float]

#: Upper bound on ``replicates``: a call holds replicates x cells int64 draws (four
#: record cells plus, for a survey source, one per distinct (race, weight) pair of
#: the scoped respondents: at most 62 in the CLI's integer-weight modes, up to m
#: for float weights) and a few float arrays of replicates + 1 shares and terms.
MAX_REPLICATES = 100_000


def _percentiles(values: Sequence[float], levels: Sequence[float]) -> list[float]:
    """``np.quantile(values, levels)`` for NaN-free values, bit for bit, without numpy.

    It follows numpy's default ``linear`` method: the virtual index is
    ``v = (n - 1) * q``; below the last index it interpolates between the
    order statistics at ``floor(v)`` and ``floor(v) + 1`` with weight
    ``t = v - floor(v)``, and at or past it both are the last value and the
    index taken for ``floor(v)`` is -1. np.quantile itself calls np.unique,
    which imports numpy.ma on first use.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    result = []
    for q in levels:
        v = last * q
        i = math.floor(v) if v < last else -1
        a, b = ordered[i], ordered[i + 1 if i >= 0 else -1]
        t = v - i
        diff = b - a
        result.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return result


def bootstrap(
    statistic: Statistic,
    data: AdministrativeDataset,
    external: ExternalRaceDistribution | None = None,
    *,
    x: str | None = None,
    level: float = 0.95,
    replicates: int = 1000,
    seed: int = 0,
    haldane: bool = False,
) -> EstimateWithCI:
    """Nonparametric percentile bootstrap interval for ``statistic`` in stratum ``x``.

    ``statistic`` is one of the built-ins ``naive_risk_difference``,
    ``naive_risk_ratio``, ``bias_factor`` and ``crr_identified``; the last two
    need ``external``. One generator, ``default_rng(seed)``, first draws
    every replicate's record counts as one multinomial over the scope's cells
    2*d + y (a with-replacement resample of its rows, counted); for a survey
    source it then draws every replicate's respondent counts over the
    distinct (race, weight) cells of the scoped respondents and recomputes
    the share (census shares stay fixed and draw nothing). One evaluation of
    the statistic's array formula gives the point (row 0, drawing nothing) and
    every replicate. The result depends only on the arguments.

    Raises ValueError for any other statistic, a missing external, or
    ``replicates`` outside [2, MAX_REPLICATES]; TooManyUndefinedError when
    more than half the replicates are undefined.
    """
    try:
        formula, reads_share = _FORMULAS[statistic]
    except (KeyError, TypeError):
        names = ", ".join(f.__name__ for f in _FORMULAS)
        raise ValueError(f"bootstrap supports only the built-in statistics {names}") from None
    if reads_share and external is None:
        raise ValueError(f"{statistic.__name__} needs an external race distribution")
    if replicates < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if replicates > MAX_REPLICATES:
        raise ValueError(f"bootstrap allows at most {MAX_REPLICATES} replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    counts = data._scope_counts(x)
    n = sum(counts)
    if n == 0:
        if x is not None:
            raise UnknownStratumError(f"stratum {x!r} has no administrative rows")
        raise MissingGroupError("administrative dataset is empty")

    p1 = external.p1_for(x) if reads_share else None
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(n, np.array(counts) / n, size=replicates)
    shares = external._share_draws(x, rng, replicates) if reads_share else _shares(None, replicates)
    values, codes = _evaluate(formula, counts, p1, x, haldane, draws, shares)
    defined = codes[1:] == 0
    undefined = replicates - int(np.count_nonzero(defined))
    if 2 * undefined > replicates:
        raise TooManyUndefinedError(
            f"{undefined} of {replicates} bootstrap replicates were undefined"
        )
    alpha = 1.0 - level
    lo, hi = _percentiles(values[1:][defined].tolist(), (alpha / 2.0, 1.0 - alpha / 2.0))
    return EstimateWithCI(
        point=float(values[0]),
        lo=float(lo),
        hi=float(hi),
        level=level,
        replicates=replicates,
        seed=seed,
        undefined_replicates=undefined,
    )


# -- stratified tables ------------------------------------------------------------


@dataclass(frozen=True)
class StratumResult:
    """Naive and adjusted risk-ratio estimates for one stratum.

    A failed estimate leaves its slot None and records the reason, so broken
    strata stay visible in output tables instead of being dropped.
    """

    x: str
    naive: EstimateWithCI | None = None
    adjusted: EstimateWithCI | None = None
    naive_error: str | None = None
    adjusted_error: str | None = None


def stratified_estimates(
    data: AdministrativeDataset,
    external: ExternalRaceDistribution | None,
    strata: Sequence[str] | None = None,
    *,
    level: float = 0.95,
    replicates: int = 1000,
    seed: int = 0,
    haldane: bool = False,
) -> list[StratumResult]:
    """Naive and selection-adjusted risk ratios with CIs, one row per stratum.

    ``strata`` defaults to every stratum present in the data; requesting a
    stratum that is absent raises UnknownStratumError. Per-stratum bootstrap
    seeds derive deterministically from ``seed``.
    """
    present = set(data.strata())
    if strata is None:
        keys = sorted(present)
    else:
        unknown = [s for s in strata if s not in present]
        if unknown:
            raise UnknownStratumError(f"strata not present in data: {unknown}")
        keys = list(strata)

    sub_seeds = np.random.default_rng(seed).integers(0, 2**63, size=2 * len(keys)).tolist()
    results = []
    for key, naive_seed, crr_seed in zip(keys, sub_seeds[::2], sub_seeds[1::2]):
        options = dict(x=key, level=level, replicates=replicates, haldane=haldane)
        naive = adjusted = naive_error = adjusted_error = None
        try:
            naive = bootstrap(naive_risk_ratio, data, seed=naive_seed, **options)
        except (EstimandUndefinedError, TooManyUndefinedError) as exc:
            naive_error = f"{type(exc).__name__}: {exc}"
        if external is None:
            adjusted_error = "external distribution not provided"
        else:
            try:
                adjusted = bootstrap(crr_identified, data, external, seed=crr_seed, **options)
            except (EstimandUndefinedError, TooManyUndefinedError) as exc:
                adjusted_error = f"{type(exc).__name__}: {exc}"
        results.append(StratumResult(key, naive, adjusted, naive_error, adjusted_error))
    return results
