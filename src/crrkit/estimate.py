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

Every built-in statistic depends only on the scope's four record counts
(n1, n0, f1, f0) and, for the adjusted ones, the external minority share p1;
each formula is written once, on those counts. The bootstrap evaluates the
built-ins on resampled counts: a replicate draws the same row indices (and,
for survey sources, respondent indices) from the same random stream as a
row-by-row resample would, and counts the drawn cells, so intervals are
bit-identical to evaluating the statistic on resampled rows. User-supplied
callables still receive resampled row datasets.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateOddsError,
    EstimandUndefinedError,
    MissingGroupError,
    TooManyUndefinedError,
    UnknownStratumError,
    ZeroDenominatorError,
)

CENSUS_FIXED = "census-fixed"
SURVEY_RESAMPLED = "survey-resampled"


def _as_str_array(values) -> np.ndarray:
    return np.asarray(values, dtype=object)


class _StratumIndex:
    """A stratum column encoded once: each stratum's row indices, in row order.

    Codes are assigned in first-seen order through a dict, so encoding never
    sorts or copies the object column; row indices are int32.
    """

    def __init__(self, x: np.ndarray) -> None:
        codes: dict = {}
        code = np.fromiter(
            (codes.setdefault(v, len(codes)) for v in x), dtype=np.int32, count=len(x)
        )
        self.codes = codes
        self.order = np.argsort(code, kind="stable").astype(np.int32)
        self.bounds = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(code, minlength=len(codes)), out=self.bounds[1:])

    def keys(self) -> list[str]:
        return sorted({str(v) for v in self.codes})

    def rows(self, x: str) -> np.ndarray:
        """Row indices of stratum ``x`` in original order; empty when absent."""
        code = self.codes.get(x)
        if code is None:
            return self.order[:0]
        return self.order[self.bounds[code] : self.bounds[code + 1]]


@dataclass(frozen=True)
class AdministrativeDataset:
    """Detainment records: race indicator, force indicator, stratum key per row."""

    d: np.ndarray
    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.d) == len(self.y) == len(self.x)):
            raise ValueError("column arrays must have equal length")
        for name in ("d", "y"):
            values = np.asarray(getattr(self, name))
            if values.dtype.kind in "biu":  # min and max allocate no full-length temporaries
                valid = values.size == 0 or (values.min() >= 0 and values.max() <= 1)
            else:
                valid = np.all((values == 0) | (values == 1))
            if not valid:
                raise ValueError(f"{name} values must be 0 or 1")

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, int, str]]) -> "AdministrativeDataset":
        d = np.array([r[0] for r in rows], dtype=np.int8)
        y = np.array([r[1] for r in rows], dtype=np.int8)
        x = _as_str_array([r[2] for r in rows])
        return cls(d, y, x)

    @classmethod
    def concat(cls, parts: Sequence["AdministrativeDataset"]) -> "AdministrativeDataset":
        return cls(
            np.concatenate([p.d for p in parts]) if parts else np.empty(0, np.int8),
            np.concatenate([p.y for p in parts]) if parts else np.empty(0, np.int8),
            np.concatenate([p.x for p in parts]) if parts else _as_str_array([]),
        )

    @property
    def n(self) -> int:
        return len(self.d)

    @cached_property
    def _strata_index(self) -> _StratumIndex:
        return _StratumIndex(self.x)

    @cached_property
    def _cells(self) -> np.ndarray:
        """Per-row cell code 2*d + y (int8)."""
        return 2 * np.asarray(self.d, dtype=np.int8) + np.asarray(self.y, dtype=np.int8)

    def _scope_cells(self, x: str | None) -> np.ndarray:
        return self._cells if x is None else self._cells[self._strata_index.rows(x)]

    def strata(self) -> list[str]:
        return self._strata_index.keys()

    def restrict(self, x: str | None) -> "AdministrativeDataset":
        """Rows in stratum ``x``; ``None`` keeps every row (pooled scope)."""
        if x is None:
            return self
        return self.take(self._strata_index.rows(x))

    def take(self, idx: np.ndarray) -> "AdministrativeDataset":
        return AdministrativeDataset(self.d[idx], self.y[idx], self.x[idx])


def _weighted_share(d: np.ndarray, weight: np.ndarray) -> float | None:
    """Weighted share of minority respondents, or None on zero total weight."""
    total = float(np.sum(weight))
    if total <= 0.0:
        return None
    return float(np.sum(weight * (d == 1))) / total


@dataclass(frozen=True)
class SurveyRespondents:
    """Survey microdata reduced to (race, stratum key, resampling weight)."""

    d: np.ndarray
    x: np.ndarray
    weight: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.d) == len(self.x) == len(self.weight)):
            raise ValueError("column arrays must have equal length")
        w = np.asarray(self.weight, dtype=float)
        if len(w) and (not np.all(np.isfinite(w)) or np.any(w < 0)):
            raise ValueError("weights must be finite and nonnegative")

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[int, str, float]]) -> "SurveyRespondents":
        d = np.array([r[0] for r in rows], dtype=np.int8)
        x = _as_str_array([r[1] for r in rows])
        w = np.array([r[2] for r in rows], dtype=float)
        return cls(d, x, w)

    @property
    def n(self) -> int:
        return len(self.d)

    @cached_property
    def _strata_index(self) -> _StratumIndex:
        return _StratumIndex(self.x)

    def restrict(self, x: str | None) -> "SurveyRespondents":
        if x is None:
            return self
        return self.take(self._strata_index.rows(x))

    def take(self, idx: np.ndarray) -> "SurveyRespondents":
        return SurveyRespondents(self.d[idx], self.x[idx], self.weight[idx])

    def minority_share(self) -> float | None:
        """Weighted share of minority respondents, or None on zero total weight."""
        return _weighted_share(self.d, self.weight)

    def shares_by_stratum(self) -> dict[str, float | None]:
        return {key: self.restrict(key).minority_share() for key in self._strata_index.keys()}


@dataclass(frozen=True)
class ExternalRaceDistribution:
    """Per-stratum minority shares among encounters, from a census or survey source.

    ``kind`` decides bootstrap behaviour: census-fixed values are population
    quantities and never resampled; survey-resampled values are recomputed
    from a respondent resample on every replicate. An optional mixture pulls
    every local share toward a common citywide share:

        p1'(x) = mix_lambda * p1(x) + (1 - mix_lambda) * mix_citywide

    The mixture is reapplied after each respondent resample, so it survives
    bootstrapping.
    """

    kind: str
    shares: Mapping[str, float | None]
    counts: Mapping[str, tuple[float, float]] | None = None
    respondents: SurveyRespondents | None = None
    mix_lambda: float = 1.0
    mix_citywide: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (CENSUS_FIXED, SURVEY_RESAMPLED):
            raise ValueError(f"unknown external source kind: {self.kind!r}")
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
        shares: dict[str, float | None] = {}
        for key, (c1, c0) in counts.items():
            total = c1 + c0
            shares[key] = (c1 / total) if total > 0 else None
        return cls(kind=CENSUS_FIXED, shares=shares, counts=dict(counts))

    @classmethod
    def census_from_shares(cls, shares: Mapping[str, float | None]) -> "ExternalRaceDistribution":
        return cls(kind=CENSUS_FIXED, shares=dict(shares))

    @classmethod
    def from_survey(cls, respondents: SurveyRespondents) -> "ExternalRaceDistribution":
        return cls(
            kind=SURVEY_RESAMPLED,
            shares=respondents.shares_by_stratum(),
            respondents=respondents,
        )

    # -- lookups ---------------------------------------------------------------

    def strata(self) -> list[str]:
        return sorted(self.shares)

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

    def _mixed(self, base: float | None) -> float | None:
        if self.mix_citywide is None:
            return base
        lam = self.mix_lambda
        if base is None:
            # no local information; only the pure-citywide mixture is defined
            return self.mix_citywide if lam == 0.0 else None
        return lam * base + (1.0 - lam) * self.mix_citywide

    def p1_for(self, x: str | None) -> float | None:
        """Minority share for stratum ``x`` (None = pooled), mixture applied."""
        return self._mixed(self._local_share(x))

    # -- bootstrap support ------------------------------------------------------

    def _resamples_respondents(self) -> bool:
        return self.kind == SURVEY_RESAMPLED and self.respondents is not None

    def resampled(self, rng: np.random.Generator, x: str | None = None) -> "ExternalRaceDistribution":
        """One bootstrap draw of this distribution, scoped to stratum ``x``.

        Census-fixed sources return self unchanged. Survey sources resample
        the scoped respondents with replacement and recompute shares; the
        mixture parameters carry over.
        """
        if not self._resamples_respondents():
            return self
        scoped = self.respondents.restrict(x)
        if scoped.n == 0:
            return replace(self, shares={}, respondents=scoped)
        idx = rng.integers(0, scoped.n, size=scoped.n)
        resampled = scoped.take(idx)
        return ExternalRaceDistribution(
            kind=SURVEY_RESAMPLED,
            shares=resampled.shares_by_stratum(),
            respondents=resampled,
            mix_lambda=self.mix_lambda,
            mix_citywide=self.mix_citywide,
        )

    def _share_sampler(self, x: str | None) -> Callable[[np.random.Generator], float | None]:
        """Per-replicate p1 for scope ``x``, equal to ``resampled(rng, x).p1_for(x)``.

        The scoped respondents are gathered once; each call draws the same
        respondent indices from ``rng`` and recomputes only this scope's
        share, with the mixture reapplied.
        """
        if not self._resamples_respondents():
            p1 = self.p1_for(x)
            return lambda rng: p1
        scoped = self.respondents.restrict(x)
        d, weight, m = scoped.d, scoped.weight, scoped.n
        if m == 0:
            p1 = self._mixed(None)
            return lambda rng: p1

        def draw(rng: np.random.Generator) -> float | None:
            idx = rng.integers(0, m, size=m)
            return self._mixed(_weighted_share(d[idx], weight[idx]))

        return draw


def sensitivity_mixture(
    external: ExternalRaceDistribution, citywide_p1: float, lam: float
) -> ExternalRaceDistribution:
    """Blend local shares with a citywide share: lambda * local + (1 - lambda) * citywide.

    lam = 1 reproduces the input distribution; lam = 0 assigns every stratum
    the citywide share. Source kind is preserved, so survey distributions keep
    resampling under the bootstrap with the mixture reapplied per replicate.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    if not 0.0 < citywide_p1 < 1.0:
        raise ValueError(f"citywide_p1 must lie in (0, 1), got {citywide_p1!r}")
    return replace(external, mix_lambda=lam, mix_citywide=citywide_p1)


# -- point estimators ------------------------------------------------------------
#
# Each statistic is written once, on the scope's counts (n1, n0, f1, f0): race
# totals and force counts. The public functions count a dataset's cells and
# call these; the bootstrap calls them on resampled counts.

Counts = tuple[int, int, int, int]


def _counts(cells: np.ndarray) -> Counts:
    """Counts (n1, n0, f1, f0) from cell codes 2*d + y."""
    c00, c01, c10, c11 = np.bincount(cells, minlength=4).tolist()
    return c10 + c11, c00 + c01, c11, c01


def _rates(counts: Counts, x: str | None, haldane: bool) -> tuple[float, float]:
    n1, n0, f1, f0 = counts
    if n1 == 0 or n0 == 0:
        raise MissingGroupError(
            f"both race groups required in scope {x!r}: n1={n1}, n0={n0}"
        )
    if haldane:
        return (f1 + 0.5) / (n1 + 1.0), (f0 + 0.5) / (n0 + 1.0)
    return f1 / n1, f0 / n0


def _risk_difference(counts: Counts, p1: float | None, x: str | None, haldane: bool) -> float:
    r1, r0 = _rates(counts, x, haldane)
    return r1 - r0


def _risk_ratio(counts: Counts, p1: float | None, x: str | None, haldane: bool) -> float:
    r1, r0 = _rates(counts, x, haldane)
    if r0 == 0.0:
        raise ZeroDenominatorError(f"majority force rate is zero in scope {x!r}")
    return r1 / r0


def _bias_factor(counts: Counts, p1: float | None, x: str | None, haldane: bool) -> float:
    c1 = float(counts[0])
    c0 = float(counts[1])
    if c1 + c0 == 0:
        raise MissingGroupError(f"no administrative rows in scope {x!r}")
    if haldane:
        c1 += 0.5
        c0 += 0.5
    if c1 == 0.0 or c0 == 0.0:
        raise DegenerateOddsError(
            f"detainment race odds degenerate in scope {x!r}: c1={c1}, c0={c0}"
        )
    if p1 is None:
        raise DegenerateOddsError(f"no external minority share for scope {x!r}")
    if not 0.0 < p1 < 1.0:
        raise DegenerateOddsError(
            f"external minority share must lie strictly in (0, 1), got {p1!r}"
        )
    return (c1 * (1.0 - p1)) / (c0 * p1)


def _crr(counts: Counts, p1: float | None, x: str | None, haldane: bool) -> float:
    return _risk_ratio(counts, p1, x, haldane) * _bias_factor(counts, p1, x, haldane)


def naive_risk_difference(
    data: AdministrativeDataset, x: str | None = None, *, haldane: bool = False
) -> float:
    """Difference in record-level force rates, minority minus majority."""
    return _risk_difference(_counts(data._scope_cells(x)), None, x, haldane)


def naive_risk_ratio(
    data: AdministrativeDataset, x: str | None = None, *, haldane: bool = False
) -> float:
    """Ratio of record-level force rates; ignores selection into the records."""
    return _risk_ratio(_counts(data._scope_cells(x)), None, x, haldane)


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
    return _bias_factor(_counts(data._scope_cells(x)), external.p1_for(x), x, haldane)


def crr_identified(
    data: AdministrativeDataset,
    external: ExternalRaceDistribution,
    x: str | None = None,
    *,
    haldane: bool = False,
) -> float:
    """Causal risk ratio: naive risk ratio corrected by the bias factor."""
    return _crr(_counts(data._scope_cells(x)), external.p1_for(x), x, haldane)


#: Count form of each built-in statistic, and whether it reads the external share.
_COUNT_FORMS = {
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
    ``lo <= hi`` always holds. Replicates that raised an undefined-estimand
    error are counted in ``undefined_replicates`` and excluded from the
    percentiles.
    """

    point: float
    lo: float
    hi: float
    level: float
    replicates: int
    seed: int
    undefined_replicates: int = 0


Statistic = Callable[..., float]


def _bind_statistic(statistic: Statistic, haldane: bool):
    """Adapt a statistic to a uniform (data, external, x) call.

    Accepts the two supported shapes: (data, x=...) and
    (data, external, x=...); a keyword-only ``haldane`` is forwarded when the
    statistic declares one.
    """
    params = inspect.signature(statistic).parameters
    kwargs = {"haldane": haldane} if "haldane" in params else {}
    wants_external = "external" in params

    def call(data, external, x):
        if wants_external:
            return statistic(data, external, x, **kwargs)
        return statistic(data, x, **kwargs)

    return call


def _count_replicates(
    form, reads_share: bool, cells: np.ndarray, external, x, haldane: bool
) -> tuple[float, Callable[[np.random.Generator], float]]:
    """Point estimate and replicate function of a built-in, on counts."""
    point = form(_counts(cells), external.p1_for(x) if reads_share else None, x, haldane)
    share = external._share_sampler(x) if reads_share else lambda rng: None
    n = len(cells)

    def replicate(rng: np.random.Generator) -> float:
        idx = rng.integers(0, n, size=n)
        counts = _counts(cells[idx])
        return form(counts, share(rng), x, haldane)

    return point, replicate


def _row_replicates(
    statistic: Statistic, scoped: AdministrativeDataset, external, x, haldane: bool
) -> tuple[float, Callable[[np.random.Generator], float]]:
    """Point estimate and replicate function of a user callable, on rows."""
    call = _bind_statistic(statistic, haldane)
    point = call(scoped, external, x)

    def replicate(rng: np.random.Generator) -> float:
        idx = rng.integers(0, scoped.n, size=scoped.n)
        boot_external = external.resampled(rng, x) if external is not None else None
        return call(scoped.take(idx), boot_external, x)

    return point, replicate


#: Implemented bootstrap interval constructions.
INTERVAL_METHODS = ("percentile",)


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
    method: str = "percentile",
) -> EstimateWithCI:
    """Nonparametric bootstrap interval for ``statistic`` within stratum ``x``.

    Administrative rows are always resampled with replacement within the
    estimation scope; external respondents are resampled only for
    survey-resampled sources. Replicate sub-seeds derive deterministically
    from ``seed`` by replicate index, and results merge in replicate order,
    so a parallel runner would reproduce the serial intervals exactly.

    The built-in statistics are evaluated on the counts of each resample;
    any other callable receives the resampled rows as a dataset (and a
    resampled external source when it takes one).

    ``method`` selects the interval construction; only "percentile" is
    implemented. Raises TooManyUndefinedError when more than half the
    replicates are undefined.
    """
    if method not in INTERVAL_METHODS:
        raise ValueError(f"unknown interval method {method!r}; implemented: {INTERVAL_METHODS}")
    if replicates < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    cells = data._scope_cells(x)
    if len(cells) == 0:
        if x is not None:
            raise UnknownStratumError(f"stratum {x!r} has no administrative rows")
        raise MissingGroupError("administrative dataset is empty")

    count_form = _COUNT_FORMS.get(statistic)
    if count_form is None:
        point, replicate = _row_replicates(statistic, data.restrict(x), external, x, haldane)
    else:
        point, replicate = _count_replicates(*count_form, cells, external, x, haldane)

    values: list[float] = []
    undefined = 0
    for child in np.random.SeedSequence(seed).spawn(replicates):
        try:
            values.append(replicate(np.random.default_rng(child)))
        except EstimandUndefinedError:
            undefined += 1
    if 2 * undefined > replicates:
        raise TooManyUndefinedError(
            f"{undefined} of {replicates} bootstrap replicates were undefined"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return EstimateWithCI(
        point=float(point),
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

    sub_seeds = np.random.default_rng(seed).integers(0, 2**63, size=2 * len(keys))
    results = []
    for i, key in enumerate(keys):
        naive = adjusted = None
        naive_error = adjusted_error = None
        try:
            naive = bootstrap(
                naive_risk_ratio,
                data,
                x=key,
                level=level,
                replicates=replicates,
                seed=int(sub_seeds[2 * i]),
                haldane=haldane,
            )
        except (EstimandUndefinedError, TooManyUndefinedError) as exc:
            naive_error = f"{type(exc).__name__}: {exc}"
        if external is None:
            adjusted_error = "external distribution not provided"
        else:
            try:
                adjusted = bootstrap(
                    crr_identified,
                    data,
                    external,
                    x=key,
                    level=level,
                    replicates=replicates,
                    seed=int(sub_seeds[2 * i + 1]),
                    haldane=haldane,
                )
            except (EstimandUndefinedError, TooManyUndefinedError) as exc:
                adjusted_error = f"{type(exc).__name__}: {exc}"
        results.append(
            StratumResult(
                x=key,
                naive=naive,
                adjusted=adjusted,
                naive_error=naive_error,
                adjusted_error=adjusted_error,
            )
        )
    return results
