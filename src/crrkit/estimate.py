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
bootstrap. An external source is one table of counts over (race, weight)
cells per stratum and pooled, so census and survey shares are one weighted
sum. Census externals are treated as fixed population quantities and are
never resampled; survey externals are resampled respondent-by-respondent
alongside the administrative rows.

Every statistic depends only on a scope's record counts in the four cells
2*d + y and, for the adjusted ones, the external minority share p1. Each is
written once, as an array formula over rows of counts and shares: a point
estimate is one row, and a bootstrap request is its point (row 0) and its
replicates. Resampling n rows with replacement and counting them is a
multinomial draw over the four cells, so a request draws every replicate's
counts at once from its own generator (for survey sources, the respondent
counts per (race, weight) cell after them). ``bootstrap_batch`` draws once
for all its requests with one seed and scope, and evaluates the rows of all
its requests of one statistic in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Hashable, Mapping, Sequence

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


def _shares(p1: float | None, size: int) -> np.ndarray:
    """``size`` copies of share ``p1`` as floats, NaN for None."""
    return np.full(size, np.nan if p1 is None else p1, dtype=float)


@dataclass(frozen=True, eq=False)
class ExternalRaceDistribution:
    """Minority shares among encounters, per stratum and pooled, from a census or survey source.

    A source is one table of counts over (race, weight) cells in each scope:
    scope i < len(keys) is stratum ``keys[i]`` and scope len(keys) the pool
    of all strata. A census row with population counts (c1, c0) is the cells
    (1, c1) and (0, c0), each of size the number of copies of the row; a
    survey respondent is the cell (race, resampling weight), and a cell's
    size is its number of respondents. A scope's share is its size-weighted
    minority weight over its size-weighted total weight. ``cells`` (float
    (race, weight) rows) and ``sizes`` hold the nonzero cells sorted by
    (scope, race, weight), scope i's in rows ``bounds[i]:bounds[i + 1]``.

    A ``resampled`` source is a survey: its shares are recomputed from a
    respondent resample on every bootstrap replicate. Any other source is a
    census of fixed population quantities, never resampled. An optional
    mixture pulls every local share toward a common citywide share:

        p1'(x) = mix_lambda * p1(x) + (1 - mix_lambda) * mix_citywide

    The mixture is reapplied after each respondent resample, so it survives
    bootstrapping.
    """

    keys: tuple
    bounds: np.ndarray
    cells: np.ndarray
    sizes: np.ndarray
    resampled: bool = False
    mix_lambda: float = 1.0
    mix_citywide: float | None = None

    def __post_init__(self) -> None:
        _check_binary("d", self.cells[:, 0])
        if not np.all(np.isfinite(self.cells[:, 1])) or np.any(self.cells[:, 1] < 0):
            raise ValueError("weights must be finite and nonnegative")
        if np.any(self.sizes <= 0):
            raise ValueError("cell sizes must be positive")
        if not 0.0 <= self.mix_lambda <= 1.0:
            raise ValueError("mix_lambda must lie in [0, 1]")
        if self.mix_citywide is not None and not 0.0 < self.mix_citywide < 1.0:
            raise ValueError("mix_citywide must lie in (0, 1)")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_cells(
        cls, keys: Sequence[Hashable], code, cells, sizes, *, resampled: bool = False
    ) -> "ExternalRaceDistribution":
        """A source from each cell's stratum code (an index into ``keys``), (race, weight) and size.

        The cells may come in any order: repeated cells add up, cells of size
        0 are dropped, and the pool holds every stratum's cells merged.
        """
        code = np.asarray(code, dtype=np.int64)
        cells = np.asarray(cells, dtype=float).reshape(-1, 2)
        sizes = np.asarray(sizes, dtype=np.int64)
        # each cell once in its stratum's scope and once in the pool's
        code = np.concatenate([code, np.full(len(code), len(keys))])
        cells, sizes = np.concatenate([cells, cells]), np.concatenate([sizes, sizes])
        order = np.lexsort((cells[:, 1], cells[:, 0], code))
        code, cells, sizes = code[order], cells[order], sizes[order]
        first = np.ones(len(code), dtype=bool)  # the first row of each distinct cell of a scope
        first[1:] = (code[1:] != code[:-1]) | np.any(cells[1:] != cells[:-1], axis=1)
        start = np.flatnonzero(first)
        sizes = np.add.reduceat(sizes, start)
        start, sizes = start[sizes != 0], sizes[sizes != 0]
        bounds = np.searchsorted(code[start], np.arange(len(keys) + 2))
        return cls(tuple(keys), bounds, cells[start], sizes, resampled)

    @classmethod
    def census_from_counts(
        cls, counts: Mapping[Hashable, tuple[float, float]]
    ) -> "ExternalRaceDistribution":
        """Fixed distribution from per-stratum (minority, majority) population counts."""
        cells = [cell for c1, c0 in counts.values() for cell in ((1.0, c1), (0.0, c0))]
        code = np.arange(len(counts)).repeat(2)
        return cls.from_cells(tuple(counts), code, cells, np.ones(len(cells), np.int64))

    # -- lookups ---------------------------------------------------------------

    @cached_property
    def _scopes(self) -> tuple[dict, tuple[int, int, float | None]]:
        """Each scope's cell rows lo, hi and share, mixture applied (the pool under None), and
        those of a stratum without cells.

        A share is None at zero total weight. Unmixed, a total weight that overflows to inf
        keeps its share, 0.0 or NaN (inf / inf), as Python's float division gives it.
        """
        n = len(self.keys) + 1
        scope = np.repeat(np.arange(n), np.diff(self.bounds))
        minority = self.cells[:, 0] == 1
        with np.errstate(over="ignore", invalid="ignore"):  # counts near the float limit: inf
            weight = self.sizes * self.cells[:, 1]
            totals = np.bincount(scope, weight, n)
            shares = np.bincount(scope[minority], weight[minority], n) / totals
        shares = np.append(shares, np.nan)  # the last: a stratum without cells
        defined = np.append(totals > 0.0, False)
        if self.mix_citywide is not None:
            shares = self._mixed(shares)
            defined = ~np.isnan(shares)
        p1 = [share if ok else None for share, ok in zip(shares.tolist(), defined.tolist())]
        bounds = self.bounds.tolist()
        return dict(zip((*self.keys, None), zip(bounds, bounds[1:], p1))), (0, 0, p1[-1])

    def _scope(self, x: Hashable) -> tuple[int, int, float | None]:
        scopes, without_cells = self._scopes
        return scopes.get(x, without_cells)

    def _mixed(self, base: np.ndarray) -> np.ndarray:
        """Shares ``base`` (NaN: none) with the mixture applied."""
        if self.mix_citywide is None:
            return base
        if self.mix_lambda == 0.0:  # pure citywide: defined without a local share
            return np.full_like(base, self.mix_citywide)
        return self.mix_lambda * base + (1.0 - self.mix_lambda) * self.mix_citywide

    def p1_for(self, x: str | None) -> float | None:
        """Minority share for stratum ``x`` (None = pooled), mixture applied; None: undefined."""
        return self._scope(x)[2]

    # -- bootstrap support ------------------------------------------------------

    def _share_draws(
        self, x: str | None, rng: np.random.Generator, replicates: int
    ) -> np.ndarray:
        """``replicates`` bootstrap draws of p1 for scope ``x``, mixture applied; NaN: none.

        Census sources repeat their fixed share and take nothing from ``rng``.
        Survey sources draw one multinomial over the scope's (race, weight)
        cells, which is a with-replacement resample of its respondents
        counted by cell, and recompute the weighted share per draw.
        """
        lo, hi, p1 = self._scope(x)
        if not self.resampled or lo == hi:
            return _shares(p1, replicates)
        cells, sizes = self.cells[lo:hi], self.sizes[lo:hi]
        m = int(sizes.sum())
        draws = rng.multinomial(m, sizes / m, size=replicates)
        totals, minority = draws @ cells[:, 1], draws @ (cells[:, 0] * cells[:, 1])
        shares = np.divide(minority, totals, out=_shares(None, replicates), where=totals > 0.0)
        return self._mixed(shares)


def sensitivity_mixture(
    external: ExternalRaceDistribution, citywide_p1: float, lam: float
) -> ExternalRaceDistribution:
    """Blend local shares with a citywide share: lambda * local + (1 - lambda) * citywide.

    lam = 1 reproduces the input distribution; lam = 0 assigns every stratum
    the citywide share. A survey source stays resampled, so it keeps resampling
    under the bootstrap with the mixture reapplied per replicate.
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
    formula: Callable, counts: np.ndarray, p1s: np.ndarray, haldane: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``formula``'s values and first failing rule codes (0: none) on each row of ``counts``.

    ``counts`` holds k rows of counts in the cells 2*d + y and ``p1s`` their k shares (NaN: none).
    """
    c00, c01, c10, c11 = counts.T
    # undefined rows divide by zero, which their codes mark; an overflow is inf, as in Python
    with np.errstate(all="ignore"):
        values, checks = formula((c10 + c11, c00 + c01, c11, c01), p1s, haldane)
    codes = np.zeros(len(values), np.int8)
    for code, failed in reversed(checks):  # the first failing rule writes last
        codes[failed] = code
    return values, codes


def _point_error(
    code: int, counts: tuple[int, int, int, int], p1: float | None, x: str | None, haldane: bool
) -> EstimandUndefinedError:
    """The error of rule ``code`` on scope ``x``'s point: its ``counts`` and share ``p1``."""
    if code in (NO_SHARE, SHARE_RANGE):  # a NaN share is out of range, not missing
        code = NO_SHARE if p1 is None else SHARE_RANGE
    n1, n0 = counts[2] + counts[3], counts[0] + counts[1]
    c1, c0 = (n1 + 0.5, n0 + 0.5) if haldane else (float(n1), float(n0))
    error, message = _RULES[code - 1]
    return error(message.format(x=x, n1=n1, n0=n0, c1=c1, c0=c0, p1=p1))


def _point(
    formula: Callable, data: AdministrativeDataset, p1: float | None, x: str | None, haldane: bool
) -> float:
    """``formula`` on scope ``x``'s counts and share ``p1``; raises its first failing rule."""
    counts = data._scope_counts(x)
    values, codes = _evaluate(formula, np.array([counts]), _shares(p1, 1), haldane)
    if codes[0]:
        raise _point_error(int(codes[0]), counts, p1, x, haldane)
    return float(values[0])


def naive_risk_difference(
    data: AdministrativeDataset, x: str | None = None, *, haldane: bool = False
) -> float:
    """Difference in record-level force rates, minority minus majority."""
    return _point(_risk_difference, data, None, x, haldane)


def naive_risk_ratio(
    data: AdministrativeDataset, x: str | None = None, *, haldane: bool = False
) -> float:
    """Ratio of record-level force rates; ignores selection into the records."""
    return _point(_risk_ratio, data, None, x, haldane)


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
    return _point(_bias_factor, data, external.p1_for(x), x, haldane)


def crr_identified(
    data: AdministrativeDataset,
    external: ExternalRaceDistribution,
    x: str | None = None,
    *,
    haldane: bool = False,
) -> float:
    """Causal risk ratio: naive risk ratio corrected by the bias factor."""
    return _point(_crr, data, external.p1_for(x), x, haldane)


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
    (a rule fails, or it is NaN) are counted in ``undefined_replicates`` and
    excluded from the percentiles.
    """

    point: float
    lo: float
    hi: float
    level: float
    replicates: int
    seed: int
    undefined_replicates: int = 0


Statistic = Callable[..., float]

#: Upper bound on ``replicates``: a request holds replicates x cells int64 draws (four
#: record cells plus, for a survey source, one per distinct (race, weight) pair of
#: the scoped respondents: at most 62 in the CLI's integer-weight modes, up to m
#: for float weights) and a few float arrays of replicates + 1 shares and terms.
MAX_REPLICATES = 100_000

#: Count rows per evaluation. A batch runs its draw groups in chunks of about this many
#: rows (a larger group is a chunk of its own), so its memory does not grow with the number
#: of requests; a few hundred requests at small B are one chunk.
CHUNK_ROWS = 1 << 12


def _percentile_ends(values: np.ndarray, levels: Sequence[float]) -> list[np.ndarray]:
    """Each row's ``np.quantile`` of its non-NaN values at each of ``levels``, bit for bit.

    One sort of the (rows, B) ``values`` puts each row's NaNs last. numpy's default
    ``linear`` method takes the virtual index ``v = (n - 1) * q`` of a row's n values; below
    the last index it interpolates between the order statistics at ``floor(v)`` and
    ``floor(v) + 1`` with weight ``t = v - floor(v)``, and at or past it both are the last
    value and the index taken for ``floor(v)`` is -1. Where np.quantile gives NaN from
    inf - inf, the end is the infinite order statistic (at weight 0, the lower one), so the
    order statistic itself when both neighbours are equal. np.quantile calls np.unique,
    which imports numpy.ma on first use.
    """
    ordered = np.sort(values, axis=1)
    last = np.count_nonzero(~np.isnan(values), axis=1) - 1
    rows = np.arange(len(values))
    ends = []
    with np.errstate(all="ignore"):  # inf - inf and overflow give NaN and inf, as in Python
        for q in levels:
            v = last * q
            below = v < last
            i = np.where(below, np.floor(v), -1.0)
            a = ordered[rows, np.where(below, i, last).astype(np.intp)]
            b = ordered[rows, np.where(below, i + 1, last).astype(np.intp)]
            t = v - i
            diff = b - a
            end = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
            ends.append(np.where(np.isnan(end), np.where((t == 0) | np.isinf(a), a, b), end))
    return ends


def _bootstrap_groups(
    data: AdministrativeDataset, requests: Sequence[tuple], groups: list[tuple[tuple, list[int]]],
    level: float, replicates: int, haldane: bool,
):
    """(index, result) of each request in ``groups``: (seed, x) keys, each with the indices of
    the requests that share its record draw and each survey source's share draw."""
    counts = np.empty((len(groups), replicates + 1, 4), np.int64)  # the point, then the replicates
    counts[:, 0] = [data._scope_counts(x) for (_, x), _ in groups]
    n = counts[:, 0].sum(axis=1)
    pvals = counts[:, 0] / n[:, None]
    members, group_of, p1s, survey_rows = [], [], [], {}
    for g, ((seed, x), indices) in enumerate(groups):
        rng = np.random.default_rng(seed)
        counts[g, 1:] = rng.multinomial(n[g], pvals[g], size=replicates)
        after_records = rng.bit_generator.state  # where each survey source's share draws start
        share_draws = {}  # survey source: its one share draw in this group
        for i in indices:
            statistic, external = requests[i][:2]
            reads_share = _FORMULAS[statistic][1]
            if reads_share and external.resampled:
                if external not in share_draws:
                    rng.bit_generator.state = after_records
                    share_draws[external] = external._share_draws(x, rng, replicates)
                survey_rows[len(members)] = share_draws[external]
            members.append(i)
            group_of.append(g)
            p1s.append(external.p1_for(x) if reads_share else None)
    shares = np.repeat(np.array(p1s, dtype=float)[:, None], replicates + 1, axis=1)  # None: NaN
    for j, row in survey_rows.items():
        shares[j, 1:] = row
    group_of = np.array(group_of)
    formulas = [_FORMULAS[requests[i][0]][0] for i in members]
    values, codes = np.empty(shares.shape), np.empty(shares.shape, np.int8)
    for formula in dict.fromkeys(formulas):  # every row of one statistic in one evaluation
        rows = np.flatnonzero([f is formula for f in formulas])
        rows_counts = counts[group_of[rows]].reshape(-1, 4)
        got = _evaluate(formula, rows_counts, shares[rows].ravel(), haldane)
        values[rows], codes[rows] = (column.reshape(len(rows), -1) for column in got)
    kept = np.where(codes[:, 1:] == 0, values[:, 1:], np.nan)  # NaN: undefined, 0 * inf too
    undefined = np.count_nonzero(np.isnan(kept), axis=1).tolist()
    alpha = 1.0 - level
    ends = _percentile_ends(kept, (alpha / 2, 1 - alpha / 2))
    points = zip(members, p1s, codes[:, 0].tolist(), values[:, 0].tolist(), undefined)
    for (i, p1, code, point, missing), lo, hi in zip(points, *(end.tolist() for end in ends)):
        x, seed = requests[i][2:]
        if code:
            yield i, _point_error(code, data._scope_counts(x), p1, x, haldane)
        elif 2 * missing > replicates:
            message = f"{missing} of {replicates} bootstrap replicates were undefined"
            yield i, TooManyUndefinedError(message)
        else:
            yield i, EstimateWithCI(point, lo, hi, level, replicates, seed, missing)


def bootstrap_batch(
    data: AdministrativeDataset, requests: Sequence[tuple], *, level: float = 0.95,
    replicates: int = 1000, haldane: bool = False,
) -> list[EstimateWithCI | EstimandUndefinedError | TooManyUndefinedError]:
    """``bootstrap`` of every (statistic, external, x, seed) request, in one pass.

    Each result is what ``bootstrap`` returns for that request, or the EstimandUndefinedError
    or TooManyUndefinedError it raises; any other error ``bootstrap`` raises, this raises.
    Requests with the same seed and scope share one record draw from ``default_rng(seed)``,
    and their requests of one survey source share its share draw, which starts where the
    record draw ends, as in ``bootstrap``. All rows of one statistic are one evaluation of its
    array formula, and one sort gives every request's percentiles. A replicate is undefined
    where a rule fails or the formula gives NaN. Draw groups run in chunks of about
    ``CHUNK_ROWS`` count rows.
    """
    for statistic, external, _, _ in requests:
        try:
            reads_share = _FORMULAS[statistic][1]
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
    results: list = [None] * len(requests)
    groups: dict = {}  # (seed, x): the requests that share its record draws
    for i, (_, _, x, seed) in enumerate(requests):
        if any(data._scope_counts(x)):
            groups.setdefault((seed, x), []).append(i)
        elif x is not None:
            raise UnknownStratumError(f"stratum {x!r} has no administrative rows")
        else:
            results[i] = MissingGroupError("administrative dataset is empty")
    chunks, rows = [], CHUNK_ROWS
    for group in groups.items():
        if rows >= CHUNK_ROWS:
            chunks.append([])
            rows = 0
        chunks[-1].append(group)
        rows += len(group[1]) * (replicates + 1)
    for chunk in chunks:
        for i, result in _bootstrap_groups(data, requests, chunk, level, replicates, haldane):
            results[i] = result
    return results


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
    every replicate. The result depends only on the arguments. This is the
    one-request case of ``bootstrap_batch``, which the CLI calls with every
    row of a command.

    Raises ValueError for any other statistic, a missing external, or
    ``replicates`` outside [2, MAX_REPLICATES]; TooManyUndefinedError when
    more than half the replicates are undefined.
    """
    requests = [(statistic, external, x, seed)]
    (result,) = bootstrap_batch(data, requests, level=level, replicates=replicates, haldane=haldane)
    if isinstance(result, Exception):
        raise result
    return result


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
