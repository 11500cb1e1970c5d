"""Estimator tests: point estimators, bootstrap contract, strata, sensitivity."""

import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crrkit.estimate
from crrkit.errors import (
    DegenerateOddsError,
    EstimandUndefinedError,
    MissingGroupError,
    TooManyUndefinedError,
    UnknownStratumError,
    ZeroDenominatorError,
)
from crrkit.estimate import (
    MAX_REPLICATES,
    AdministrativeDataset,
    EstimateWithCI,
    ExternalRaceDistribution,
    _percentile_ends,
    bias_factor,
    bootstrap,
    bootstrap_batch,
    crr_identified,
    naive_risk_difference,
    naive_risk_ratio,
    sensitivity_mixture,
    stratified_estimates,
)
from crrkit.simulate import (
    external_from_table,
    external_from_tables,
    oracle_estimands,
    sample_encounters,
    to_administrative,
)
from crrkit.verify import TOY_MODEL, sample_models


def dataset(rows):
    return AdministrativeDataset.from_rows(rows)


def census(share_by_stratum):
    """A census whose strata have the given minority shares: counts (p, 1 - p), (0, 0) for None.

    The share is p to the bit, since p + (1 - p) rounds to 1.0 for every p in [0, 1].
    """
    return ExternalRaceDistribution.census_from_counts(
        {key: (0.0, 0.0) if p is None else (p, 1.0 - p) for key, p in share_by_stratum.items()}
    )


def survey(rows):
    """A survey source from (race, stratum key, weight) respondent rows, each of size 1."""
    rows = list(rows)
    keys = {}
    code = [keys.setdefault(x, len(keys)) for _, x, _ in rows]
    cells = [(d, weight) for d, _, weight in rows]
    return ExternalRaceDistribution.from_cells(
        tuple(keys), code, cells, np.ones(len(rows), np.int64), resampled=True
    )


def fixed_share(p1):
    """A stand-in source whose every scope has share ``p1``, which no count table can hold."""
    return SimpleNamespace(p1_for=lambda x: p1)


SIMPLE = dataset([(1, 1, "all"), (1, 0, "all"), (0, 0, "all"), (0, 0, "all")])


class TestNaiveEstimators:
    def test_risk_difference_example(self):
        assert naive_risk_difference(SIMPLE) == pytest.approx(0.5)

    def test_equal_rates(self):
        data = dataset([(1, 1, "a"), (1, 0, "a"), (0, 1, "a"), (0, 0, "a")])
        assert naive_risk_difference(data) == 0.0
        assert naive_risk_ratio(data) == pytest.approx(1.0)

    def test_missing_group(self):
        data = dataset([(1, 1, "a"), (1, 0, "a")])
        with pytest.raises(MissingGroupError):
            naive_risk_difference(data)
        with pytest.raises(MissingGroupError):
            naive_risk_ratio(data)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            naive_risk_ratio(SIMPLE)

    def test_haldane_rescues_zero_cells(self):
        # (1+0.5)/(2+1) over (0+0.5)/(2+1) = 3.0
        assert naive_risk_ratio(SIMPLE, haldane=True) == pytest.approx(3.0)
        # a missing group is still missing under haldane
        with pytest.raises(MissingGroupError):
            naive_risk_ratio(dataset([(1, 1, "a")]), haldane=True)

    def test_stratum_scoping(self):
        data = dataset(
            [(1, 1, "a"), (0, 0, "a"), (1, 0, "b"), (0, 0, "b"), (0, 1, "b")]
        )
        assert naive_risk_difference(data, "a") == pytest.approx(1.0)
        assert naive_risk_difference(data, "b") == pytest.approx(-0.5)

    def test_toy_model_sample(self):
        table = sample_encounters(TOY_MODEL, 1_000_000, seed=61)
        admin = to_administrative(table)
        report = oracle_estimands(table)
        assert naive_risk_ratio(admin) == pytest.approx(
            2.0, abs=3 * report.naive_rr.se
        )


class TestBiasFactor:
    def test_worked_example_is_exact(self):
        # detainment minority share 0.8 against encounter share 0.25
        rows = [(1, 0, "all")] * 8 + [(0, 0, "all")] * 2
        value = bias_factor(dataset(rows), census({"all": 0.25}))
        assert value == 12.0

    def test_no_distortion(self):
        rows = [(1, 0, "all")] * 6 + [(0, 0, "all")] * 4
        external = ExternalRaceDistribution.census_from_counts({"all": (6.0, 4.0)})
        assert bias_factor(dataset(rows), external) == pytest.approx(1.0, rel=1e-12)

    def test_toy_model_closed_form(self):
        # P(D=1 | M=1) = 0.6 in the toy model, encounter share 0.5
        rows = [(1, 0, "all")] * 6 + [(0, 0, "all")] * 4
        assert bias_factor(dataset(rows), census({"all": 0.5})) == 1.5

    def test_degenerate_cases(self):
        one_race = dataset([(1, 0, "all")] * 5)
        with pytest.raises(DegenerateOddsError):
            bias_factor(one_race, census({"all": 0.5}))
        both = dataset([(1, 0, "all"), (0, 0, "all")])
        for bad_share in (0.0, 1.0, None):
            with pytest.raises(DegenerateOddsError):
                bias_factor(both, census({"all": bad_share}))
        with pytest.raises(DegenerateOddsError):
            # no share for the requested stratum
            bias_factor(both, census({"elsewhere": 0.5}), x="all")
        with pytest.raises(MissingGroupError):
            bias_factor(dataset([]), census({"all": 0.5}))

    def test_haldane_rescues_single_race(self):
        one_race = dataset([(1, 0, "all")] * 5)
        value = bias_factor(one_race, census({"all": 0.5}), haldane=True)
        assert value == pytest.approx((5.5 * 0.5) / (0.5 * 0.5))


class TestIdentified:
    def test_product_structure(self):
        table = sample_encounters(TOY_MODEL, 50_000, seed=67)
        admin = to_administrative(table)
        external = external_from_table(table)
        assert crr_identified(admin, external) == pytest.approx(
            naive_risk_ratio(admin) * bias_factor(admin, external), rel=1e-15
        )

    def test_bias_factor_one_reduces_to_naive(self):
        table = sample_encounters(TOY_MODEL, 50_000, seed=71)
        admin = to_administrative(table)
        share = float(np.mean(admin.d == 1))
        external = census({"all": share})
        assert crr_identified(admin, external) == pytest.approx(
            naive_risk_ratio(admin), rel=1e-12
        )

    def test_identity_against_oracle(self):
        rng = np.random.default_rng(73)
        for model in sample_models(rng, 5, interior=True):
            table = sample_encounters(model, 5000, seed=int(rng.integers(2**63)))
            admin = to_administrative(table)
            report = oracle_estimands(table)
            if not report.crr.defined:
                continue
            value = crr_identified(admin, external_from_table(table))
            assert value == pytest.approx(report.crr.value, abs=1e-10)

    def test_empirical_monotonicity_lower_bound(self):
        # with pi_ma = 0 the sampled population is detainment-monotone, so
        # the count-level bias factor is >= 1 and adjusting only increases
        rng = np.random.default_rng(79)
        for _ in range(20):
            pi_al, pi_mi = rng.uniform(0.05, 0.4, size=2)
            model = TOY_MODEL.__class__(
                p_d=float(rng.uniform(0.2, 0.8)),
                pi_al=float(pi_al),
                pi_mi=float(pi_mi),
                pi_ma=0.0,
                pi_ne=float(1.0 - pi_al - pi_mi),
                mu_01=float(rng.uniform(0.1, 0.9)),
                mu_11=float(rng.uniform(0.1, 0.9)),
            )
            table = sample_encounters(model, 5000, seed=int(rng.integers(2**63)))
            admin = to_administrative(table)
            stopped_if_minority = np.mean(admin.d == 1) * admin.n / max(np.sum(table.d == 1), 1)
            stopped_if_majority = np.mean(admin.d == 0) * admin.n / max(np.sum(table.d == 0), 1)
            if stopped_if_minority < stopped_if_majority:
                continue  # empirical monotonicity can fail by chance; skip
            bf = bias_factor(admin, external_from_table(table))
            assert bf >= 1.0 - 1e-12
            assert crr_identified(admin, external_from_table(table)) >= (
                naive_risk_ratio(admin) - 1e-12
            )


class TestBootstrap:
    def test_degenerate_data_collapses_interval(self):
        # every record ends in force, so every resample with both races has RR 1
        rows = [(1, 1, "all")] * 10 + [(0, 1, "all")] * 10
        est = bootstrap(naive_risk_ratio, dataset(rows), replicates=200, seed=5)
        assert est.lo == est.point == est.hi == 1.0
        assert est.undefined_replicates == 0

    def test_deterministic_under_fixed_seed(self):
        table = sample_encounters(TOY_MODEL, 5000, seed=83)
        admin = to_administrative(table)
        a = bootstrap(naive_risk_ratio, admin, replicates=200, seed=9)
        b = bootstrap(naive_risk_ratio, admin, replicates=200, seed=9)
        assert a == b
        c = bootstrap(naive_risk_ratio, admin, replicates=200, seed=10)
        assert (a.lo, a.hi) != (c.lo, c.hi)

    def test_undefined_replicates_counted_and_excluded(self):
        # a single majority row vanishes from ~37% of resamples
        rows = [(1, 1, "all")] * 19 + [(0, 1, "all")]
        est = bootstrap(naive_risk_ratio, dataset(rows), replicates=400, seed=11)
        assert 0 < est.undefined_replicates < 200
        assert est.lo <= est.hi

    def test_too_many_undefined(self):
        # the point (RR 2) is defined, but a resample of three rows misses the
        # minority row or the forced majority row with probability 15/27
        data = dataset([(1, 1, "all"), (0, 1, "all"), (0, 0, "all")])
        assert naive_risk_ratio(data) == 2.0
        with pytest.raises(TooManyUndefinedError):
            bootstrap(naive_risk_ratio, data, replicates=2000, seed=1)

    def test_point_estimate_errors_propagate(self):
        with pytest.raises(ZeroDenominatorError):
            bootstrap(naive_risk_ratio, SIMPLE, replicates=10, seed=1)

    def test_empty_scope_rejected(self):
        with pytest.raises(UnknownStratumError, match=r"^strata not present in data: \['missing'\]$"):
            bootstrap(naive_risk_ratio, SIMPLE, x="missing", replicates=10, seed=1)
        with pytest.raises(MissingGroupError):
            bootstrap(naive_risk_ratio, dataset([]), replicates=10, seed=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bootstrap(naive_risk_ratio, SIMPLE, replicates=1, seed=1)
        with pytest.raises(ValueError):
            bootstrap(naive_risk_ratio, SIMPLE, level=1.0, seed=1)

    def test_replicates_capped(self):
        with pytest.raises(ValueError, match=f"at most {MAX_REPLICATES}"):
            bootstrap(naive_risk_ratio, SIMPLE, replicates=MAX_REPLICATES + 1, seed=1)

    @pytest.mark.parametrize(
        "statistic, external, message",
        [
            (lambda data, x=None: 1.0, None, "built-in statistics naive_risk_difference"),
            (functools.partial(naive_risk_ratio, haldane=True), None, "crr_identified"),
            (np.mean, None, "built-in statistics"),
            (bias_factor, None, "bias_factor needs an external"),
            (crr_identified, None, "crr_identified needs an external"),
        ],
        ids=["lambda", "partial", "numpy", "bias_factor-no-external", "crr-no-external"],
    )
    def test_only_built_ins_with_their_inputs(self, statistic, external, message):
        data = dataset([(1, 1, "all"), (1, 0, "all"), (0, 1, "all"), (0, 0, "all")])
        with pytest.raises(ValueError, match=message):
            bootstrap(statistic, data, external, replicates=10, seed=1)

    def test_census_external_constant_across_replicates(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert census({"all": 0.5})._share_draws("all", rng, 20).tolist() == [0.5] * 20
        assert rng.bit_generator.state == state  # draws nothing from the stream

    def test_survey_external_varies_across_replicates(self):
        external = survey([(1, "all", 1.0)] * 30 + [(0, "all", 1.0)] * 70)
        shares = external._share_draws("all", np.random.default_rng(1), 20)
        assert len(shares) == 20
        assert len(set(shares)) > 1
        assert all(abs(s - 0.3) < 0.25 for s in shares)

    def test_interval_brackets_for_well_behaved_data(self):
        table = sample_encounters(TOY_MODEL, 20_000, seed=89)
        admin = to_administrative(table)
        est = bootstrap(
            crr_identified,
            admin,
            external_from_table(table),
            replicates=400,
            seed=13,
        )
        assert est.lo <= est.point <= est.hi
        assert est.level == 0.95
        assert est.replicates == 400

    def test_out_of_order_replicates_reproduce_interval(self):
        # the merge contract: a call's result depends only on its arguments,
        # so calls evaluated in either order (as a parallel runner might)
        # agree, and the same seed reproduces
        table = sample_encounters(TOY_MODEL, 5000, seed=91)
        admin = to_administrative(table)
        source = survey([(1, "all", 2.0)] * 30 + [(0, "all", 1.0)] * 70)
        calls = [(naive_risk_ratio, None, 17), (crr_identified, source, 18)]

        def run(statistic, external, seed):
            return bootstrap(statistic, admin, external, replicates=150, seed=seed)

        forward = [run(*call) for call in calls]
        backward = [run(*call) for call in reversed(calls)][::-1]
        assert forward == backward
        assert forward == [run(*call) for call in calls]

    def test_extreme_share_tiny_stratum_is_wide_or_undefined(self):
        # a stratum where minorities dominate both records and population:
        # the external odds blow up and a handful of rows cannot pin the
        # ratio down, mirroring outlier strata in real precinct data
        rows = [(1, 1, "tiny")] * 9 + [(1, 0, "tiny")] * 4 + [(0, 1, "tiny")] * 1 + [(0, 0, "tiny")] * 1
        results = stratified_estimates(
            dataset(rows), census({"tiny": 0.95}), replicates=300, seed=19
        )
        res = results[0]
        if res.adjusted is None:
            assert res.adjusted_error
        else:
            assert res.adjusted.undefined_replicates > 0
            assert (res.adjusted.hi - res.adjusted.lo) > res.adjusted.point


#: Each survey source and its respondent rows, by the id of its cell array (which a mixture
#: shares), for the row-level reference.
SURVEY_ROWS: dict[int, tuple] = {}


def survey_source(rows):
    """A survey source from (race, stratum key, weight) rows, whose rows the reference can read."""
    external = survey(rows)
    SURVEY_ROWS[id(external.cells)] = external, rows  # kept alive, so the id stays its own
    return external


def in_scope(column, x):
    """Row mask of stratum ``x`` on an object stratum column; None keeps every row."""
    return np.ones(len(column), dtype=bool) if x is None else column == x


def multinomial_bootstrap(statistic, data, external=None, *, x=None, level=0.95,
                          replicates=1000, seed=0, haldane=False):
    """Reference bootstrap that rebuilds each replicate as rows and evaluates the row-level statistic.

    Same stream as ``bootstrap``: one generator draws every replicate's record
    counts over the cells 2*d + y of the scoped rows, then, for survey
    sources, every replicate's respondent counts over the distinct
    (race, weight) pairs of the scoped respondents. Each replicate's rows and
    respondents are materialised with ``np.repeat`` over those cells.
    """
    keep = in_scope(data.x, x)
    d, y = data.d[keep], data.y[keep]
    label = "all" if x is None else x
    wants_external = statistic in (bias_factor, crr_identified)

    def call(rows, ext):
        if wants_external:
            return statistic(rows, ext, x, haldane=haldane)
        return statistic(rows, x, haldane=haldane)

    point = call(AdministrativeDataset.from_columns(d, y, data.x[keep]), external)
    rng = np.random.default_rng(seed)
    cell_d, cell_y = np.array([0, 0, 1, 1], np.int8), np.array([0, 1, 0, 1], np.int8)
    cell_counts = np.array([np.sum((d == a) & (y == b)) for a, b in zip(cell_d, cell_y)])
    draws = rng.multinomial(len(d), cell_counts / len(d), size=replicates)
    externals = [external] * replicates
    if external is not None and external.resampled:
        _, rows = SURVEY_ROWS[id(external.cells)]
        resp_d, resp_x, resp_weight = (
            np.array(column, dtype) for column, dtype in zip(zip(*rows), (np.int8, object, float))
        )
        scoped = in_scope(resp_x, x)
        m = int(np.sum(scoped))
        if m:
            pairs, pair_counts = np.unique(
                np.column_stack([resp_d[scoped], resp_weight[scoped]]), axis=0, return_counts=True
            )
            resp_draws = rng.multinomial(m, pair_counts / m, size=replicates)
        else:
            pairs, resp_draws = np.zeros((0, 2)), np.zeros((replicates, 0), int)
        externals = []
        for counts in resp_draws:
            drawn = survey(zip(
                np.repeat(pairs[:, 0], counts).astype(np.int8),
                np.full(int(np.sum(counts)), label, dtype=object),
                np.repeat(pairs[:, 1], counts),
            ))
            externals.append(replace(
                drawn, mix_lambda=external.mix_lambda, mix_citywide=external.mix_citywide
            ))
    values, undefined = [], 0
    for counts, boot_external in zip(draws, externals):
        boot_data = AdministrativeDataset.from_columns(
            np.repeat(cell_d, counts), np.repeat(cell_y, counts),
            np.full(int(np.sum(counts)), label, dtype=object),
        )
        try:
            value = call(boot_data, boot_external)
        except EstimandUndefinedError:
            value = math.nan
        if math.isnan(value):  # 0 * inf, say, is undefined too
            undefined += 1
        else:
            values.append(value)
    if 2 * undefined > replicates:
        raise TooManyUndefinedError(
            f"{undefined} of {replicates} bootstrap replicates were undefined"
        )
    alpha = 1.0 - level
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return EstimateWithCI(
        point=float(point), lo=float(lo), hi=float(hi), level=level,
        replicates=replicates, seed=seed, undefined_replicates=undefined,
    )


def outcome(run, *args, **kwargs):
    """A bootstrap's result, or the type and message of the error it raised."""
    try:
        return run(*args, **kwargs)
    except (EstimandUndefinedError, TooManyUndefinedError) as exc:
        return type(exc).__name__, str(exc)


class TestCountPathMatchesRowPath:
    """Built-ins bootstrapped on counts equal the rebuilt-rows reference exactly."""

    @staticmethod
    def fixture():
        rng = np.random.default_rng(2024)
        rows = []
        for key, n, p1, py in (("a", 150, 0.4, 0.3), ("b", 80, 0.6, 0.5), ("c", 12, 0.9, 0.6)):
            d = (rng.random(n) < p1).astype(int)
            y = (rng.random(n) < py).astype(int)
            rows += [(int(a), int(b), key) for a, b in zip(d, y)]
        order = rng.permutation(len(rows))
        data = dataset([rows[i] for i in order])
        # non-integer weights in eighths, whose weighted sums are exact, so the
        # reference's shares of its rebuilt respondents and the bootstrap's
        # shares of the drawn cell counts agree to the bit; no respondents
        # for "b", and an undefined census share for "c"
        survey = survey_source(
            [(int(rng.random() < 0.35), "a", int(rng.integers(1, 25)) / 8) for _ in range(40)]
            + [(int(rng.random() < 0.8), "c", int(rng.integers(1, 25)) / 8) for _ in range(6)]
        )
        census_counts = ExternalRaceDistribution.census_from_counts(
            {"a": (30.0, 70.0), "b": (50.0, 50.0), "c": (0.0, 0.0)}
        )
        externals = [
            census_counts,
            survey,
            sensitivity_mixture(census_counts, 0.45, 0.7),
            sensitivity_mixture(survey, 0.45, 0.7),
            sensitivity_mixture(survey, 0.45, 0.0),
        ]
        requests = [(naive_risk_difference, None), (naive_risk_ratio, None), (naive_risk_ratio, survey)]
        requests += [(stat, ext) for stat in (bias_factor, crr_identified) for ext in externals]
        return data, requests

    @pytest.mark.parametrize("haldane", [False, True])
    @pytest.mark.parametrize("x", [None, "a", "b", "c"])
    def test_scopes_externals_and_seeds(self, x, haldane):
        data, requests = self.fixture()
        for seed in (3, 17, 101):
            for statistic, external in requests:
                kwargs = dict(x=x, replicates=40, seed=seed, haldane=haldane)
                expected = outcome(multinomial_bootstrap, statistic, data, external, **kwargs)
                assert outcome(bootstrap, statistic, data, external, **kwargs) == expected, (
                    statistic.__name__, external, seed
                )

    @pytest.mark.parametrize("haldane", [False, True])
    def test_undefined_replicates_match(self, haldane):
        # a single majority row vanishes from ~37% of resamples
        data = dataset([(1, 1, "all")] * 19 + [(0, 1, "all")])
        survey = survey_source([(1, "all", 1.5)] * 3 + [(0, "all", 0.25)] * 7)
        for statistic, external in [
            (naive_risk_ratio, None),
            (crr_identified, census({"all": 0.3})),
            (crr_identified, survey),
        ]:
            for seed in (11, 12):
                kwargs = dict(replicates=400, seed=seed, haldane=haldane)
                expected = outcome(multinomial_bootstrap, statistic, data, external, **kwargs)
                assert outcome(bootstrap, statistic, data, external, **kwargs) == expected
                if not haldane:
                    assert 0 < expected.undefined_replicates < 200


class TestPercentiles:
    """The batch's interval ends equal np.quantile's default linear method to the bit."""

    @given(
        st.integers(1, 40).flatmap(
            lambda size: st.lists(
                st.lists(
                    st.one_of(
                        st.floats(allow_nan=False),  # infinities included
                        st.integers(-4, 4).map(float),  # ties, integers stored as floats
                        st.just(math.nan),  # an undefined replicate
                    ),
                    min_size=size,
                    max_size=size,
                ),
                min_size=1,
                max_size=5,
            )
        ),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from([1e-12, 2.0**-53, 0.95, 1.0 - 2.0**-53, 1.0 - 1e-12]),
        ),
    )
    @example([[-0.0]], 0.95)  # past the last index numpy's weight is v + 1, which keeps the sign
    @example([[2.0, 2.0, 2.0], [math.nan, 7.0, math.nan], [math.nan] * 3], 0.95)
    @example([[1.0, math.inf], [math.inf, math.inf], [-math.inf, 1.0]], 0.95)
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_quantile(self, rows, level):
        for r, row in enumerate(rows):
            if len({math.copysign(1.0, v) for v in row if v == 0.0}) == 2:
                # signed zeros tie, and np.quantile's partition leaves their order unspecified
                rows[r] = [v + 0.0 for v in row]
        alpha = 1.0 - level
        levels = (alpha / 2.0, 1.0 - alpha / 2.0)
        ends = _percentile_ends(np.array(rows), levels)
        for r, row in enumerate(rows):
            defined = [v for v in row if not math.isnan(v)]
            if not defined:
                continue  # a request with no defined replicate has too many undefined
            got = [end[r] for end in ends]
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the interpolation
                expected = np.quantile(defined, list(levels)).tolist()
            for value, want in zip(got, expected):
                if math.isnan(want):  # inf - inf: an order statistic instead
                    assert value in defined
                else:
                    assert value == want and math.copysign(1.0, value) == math.copysign(1.0, want)
            assert got[0] <= got[1]

    @pytest.mark.parametrize(
        "values, lo, hi",
        [
            ([1.0, math.inf], math.inf, math.inf),  # np.quantile: (inf, nan)
            ([math.inf, math.inf], math.inf, math.inf),  # (nan, nan)
            ([-math.inf, -math.inf], -math.inf, -math.inf),
            ([-math.inf, 1.0], -math.inf, -math.inf),  # (nan, -inf)
            ([3.0, math.inf, math.nan], math.inf, math.inf),
        ],
    )
    def test_infinite_replicates_give_no_nan_end(self, values, lo, hi):
        got = [end[0] for end in _percentile_ends(np.array([values]), (0.025, 0.975))]
        assert got == [lo, hi]

    def test_census_share_near_zero_gives_no_nan_interval(self):
        # a census share of 1 / (1 + 1e308): bias factors overflow to inf on some replicates
        data = dataset([(1, 1, "a"), (1, 0, "a"), (0, 1, "a"), (0, 0, "a"), (1, 1, "a")])
        source = ExternalRaceDistribution.census_from_counts({"a": (1.0, 1e308)})
        for statistic in (bias_factor, crr_identified):
            est = bootstrap(statistic, data, source, replicates=1000, seed=1729)
            assert not math.isnan(est.lo) and not math.isnan(est.hi)
            assert est.lo <= est.hi == math.inf

    def test_a_nan_replicate_counts_as_undefined(self, monkeypatch):
        # a resample without minority force has risk ratio 0, and 0 times a bias factor that
        # overflows to inf is NaN, which no rule marks
        data = dataset([(1, 1, "a"), (1, 0, "a"), (0, 1, "a"), (0, 0, "a"), (1, 1, "a")])
        source = ExternalRaceDistribution.census_from_counts({"a": (1.0, 1e308)})
        evaluated, kept = [], []

        def evaluate(*args):
            evaluated.append(real_evaluate(*args))
            return evaluated[-1]

        def percentile_ends(values, levels):
            kept.append(values)
            return real_percentile_ends(values, levels)

        real_evaluate, real_percentile_ends = crrkit.estimate._evaluate, _percentile_ends
        monkeypatch.setattr(crrkit.estimate, "_evaluate", evaluate)
        monkeypatch.setattr(crrkit.estimate, "_percentile_ends", percentile_ends)
        est = bootstrap(crr_identified, data, source, replicates=1000, seed=5)
        [(values, codes)], [[replicates]] = evaluated, kept
        assert np.any(np.isnan(values) & (codes == 0))
        assert est.undefined_replicates + np.count_nonzero(~np.isnan(replicates)) == 1000


class TestBootstrapBatch:
    """Every request of a batch gets what a lone ``bootstrap`` call gives it."""

    @staticmethod
    def lone(data, request, **options):
        statistic, external, x, seed = request
        try:
            return bootstrap(statistic, data, external, x=x, seed=seed, **options)
        except (EstimandUndefinedError, TooManyUndefinedError) as exc:
            return exc

    @staticmethod
    def same(got, want):
        if isinstance(want, Exception):
            return type(got) is type(want) and str(got) == str(want)
        return got == want

    def test_requests_match_lone_calls_in_any_chunking(self, monkeypatch):
        table = sample_encounters(TOY_MODEL, 4000, seed=5)
        data = to_administrative(table)
        zero = dataset([(1, 1, "z"), (0, 0, "z")] * 3)  # no majority force: the point fails
        few = dataset([(1, 1, "f"), (0, 1, "f"), (0, 0, "f")])  # too many undefined at large B
        data = AdministrativeDataset.concat([data, zero, few])
        weighted = survey_source([(1, key, 2.0) for key in ("all", "z")] * 9
                                 + [(0, key, 1.0) for key in ("all", "z", "f")] * 14)
        fixed = census({"all": 0.3, "z": 0.5, "f": None})
        mixed = sensitivity_mixture(fixed, 0.4, 0.5)
        requests = [
            (naive_risk_ratio, None, None, 3),
            (naive_risk_difference, None, "all", 3),
            (crr_identified, weighted, "all", 3),  # two survey requests share one record draw
            (bias_factor, weighted, "all", 3),
            (crr_identified, sensitivity_mixture(weighted, 0.4, 0.5), "all", 3),  # a second survey
            (crr_identified, fixed, "all", 3),
            (crr_identified, mixed, "all", 3),
            (naive_risk_ratio, None, "z", 4),
            (crr_identified, weighted, "z", 4),
            (naive_risk_ratio, None, "f", 5),
            (crr_identified, fixed, "f", 6),
        ]
        for replicates, haldane in ((2, False), (1000, False), (1000, True)):
            options = dict(level=0.9, replicates=replicates, haldane=haldane)
            expected = [self.lone(data, request, **options) for request in requests]
            if (replicates, haldane) == (1000, False):  # a failing point, too many undefined
                assert {ZeroDenominatorError, TooManyUndefinedError} <= set(map(type, expected))
            for chunk_rows in (1, 3 * (replicates + 1), 1 << 16):
                monkeypatch.setattr("crrkit.estimate.CHUNK_ROWS", chunk_rows)
                got = bootstrap_batch(data, requests, **options)
                assert all(map(self.same, got, expected)), (replicates, haldane, chunk_rows)

    def test_empty_pool_and_unknown_stratum(self):
        empty = dataset([])
        (got,) = bootstrap_batch(empty, [(naive_risk_ratio, None, None, 1)], replicates=10)
        assert isinstance(got, MissingGroupError)
        with pytest.raises(UnknownStratumError):
            bootstrap_batch(SIMPLE, [(naive_risk_ratio, None, "missing", 1)], replicates=10)
        assert bootstrap_batch(SIMPLE, [], replicates=10) == []

    def test_one_error_names_every_unknown_stratum_in_request_order(self, monkeypatch):
        present = SIMPLE.strata()[0]
        requests = [
            (naive_risk_ratio, None, present, 1),
            (naive_risk_ratio, None, "zz", 1),
            (naive_risk_ratio, None, None, 2),
            (naive_risk_ratio, None, "aa", 3),
            (naive_risk_difference, None, "zz", 4),
        ]
        # the check comes before any draw
        monkeypatch.setattr(crrkit.estimate, "_bootstrap_groups", None)
        with pytest.raises(UnknownStratumError) as caught:
            bootstrap_batch(SIMPLE, requests, replicates=10)
        assert str(caught.value) == "strata not present in data: ['zz', 'aa']"


# The scalar form each built-in statistic had before it became one array formula:
# the reference for its values, the order of its rules and its error messages.


def scalar_cell_totals(c00, c01, c10, c11):
    return c10 + c11, c00 + c01, c11, c01


def scalar_rates(counts, x, haldane):
    n1, n0, f1, f0 = counts
    if n1 == 0 or n0 == 0:
        raise MissingGroupError(
            f"both race groups required in scope {x!r}: n1={n1}, n0={n0}"
        )
    if haldane:
        return (f1 + 0.5) / (n1 + 1.0), (f0 + 0.5) / (n0 + 1.0)
    return f1 / n1, f0 / n0


def scalar_risk_difference(counts, p1, x, haldane):
    r1, r0 = scalar_rates(counts, x, haldane)
    return r1 - r0


def scalar_risk_ratio(counts, p1, x, haldane):
    r1, r0 = scalar_rates(counts, x, haldane)
    if r0 == 0.0:
        raise ZeroDenominatorError(f"majority force rate is zero in scope {x!r}")
    return r1 / r0


def scalar_bias_factor(counts, p1, x, haldane):
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


def scalar_crr(counts, p1, x, haldane):
    return scalar_risk_ratio(counts, p1, x, haldane) * scalar_bias_factor(counts, p1, x, haldane)


SCALAR_FORMS = {
    naive_risk_difference: (scalar_risk_difference, False),
    naive_risk_ratio: (scalar_risk_ratio, False),
    bias_factor: (scalar_bias_factor, True),
    crr_identified: (scalar_crr, True),
}


def bits_or_error(run):
    """The exact bits of ``run()``'s float, or the type and message of the error it raised."""
    try:
        return float.hex(run())
    except EstimandUndefinedError as exc:
        return type(exc), str(exc)


class TestPointMatchesScalarForms:
    """Each point function equals its scalar form: the same float, or the same error."""

    @given(
        st.tuples(*[st.integers(0, 3)] * 4),
        st.booleans(),
        st.sampled_from([None, 0.0, 1.0, 0.3, -0.2, 1.5, 2.0**-60]),
        st.sampled_from(["s", None]),
    )
    @settings(max_examples=400, deadline=None)
    def test_values_rule_order_and_messages(self, cells, haldane, share, x):
        rows = [(cell >> 1, cell & 1, "s") for cell, n in enumerate(cells) for _ in range(n)]
        # a census holds shares in [0, 1] only; the stand-in carries the others to the rules
        in_range = share is None or 0.0 <= share <= 1.0
        data, external = dataset(rows), census({"s": share}) if in_range else fixed_share(share)
        counts = scalar_cell_totals(*cells)
        for statistic, (form, reads_share) in SCALAR_FORMS.items():
            inputs = (data, external) if reads_share else (data,)
            got = bits_or_error(lambda: statistic(*inputs, x, haldane=haldane))
            want = bits_or_error(lambda: form(counts, share if reads_share else None, x, haldane))
            assert got == want, statistic.__name__

    def test_a_nan_share_is_out_of_range_not_missing(self):
        data = dataset([(1, 0, "s"), (0, 0, "s")])
        with pytest.raises(DegenerateOddsError, match=r"strictly in \(0, 1\), got nan"):
            bias_factor(data, fixed_share(math.nan), "s")
        with pytest.raises(DegenerateOddsError, match="no external minority share"):
            bias_factor(data, census({"s": None}), "s")


class TestStratified:
    @staticmethod
    def two_precinct_data(seed=97, n=40_000):
        model_a = TOY_MODEL  # p1 = 0.5
        model_b = TOY_MODEL.__class__(
            p_d=0.2, pi_al=0.3, pi_mi=0.2, pi_ma=0.0, pi_ne=0.5, mu_01=0.2, mu_11=0.3
        )
        table_a = sample_encounters(model_a, n, seed=seed, x="prec-a")
        table_b = sample_encounters(model_b, n, seed=seed + 1, x="prec-b")
        admin = AdministrativeDataset.concat(
            [to_administrative(table_a), to_administrative(table_b)]
        )
        external = external_from_tables([table_a, table_b])
        return admin, external, {"prec-a": model_a, "prec-b": model_b}

    def test_per_stratum_adjusted_matches_truth(self):
        from crrkit.model import crr_true

        admin, external, truths = self.two_precinct_data()
        results = stratified_estimates(admin, external, replicates=300, seed=3)
        assert [r.x for r in results] == ["prec-a", "prec-b"]
        for res in results:
            truth = crr_true(truths[res.x])
            assert res.adjusted is not None
            # CI width stands in for 3 SEs (95% interval spans ~3.92 SE)
            se = (res.adjusted.hi - res.adjusted.lo) / 3.92
            assert abs(res.adjusted.point - truth) <= 3 * se

    def test_single_stratum_equals_unstratified(self):
        # the i-th requested stratum takes index i of one seed draw, for its naive and its
        # adjusted estimate alike
        admin, external, _ = self.two_precinct_data()
        keys = ["prec-b", "prec-a"]
        results = stratified_estimates(admin, external, keys, replicates=100, seed=7)
        seeds = np.random.default_rng(7).integers(0, 2**63, size=len(keys)).tolist()
        assert [r.x for r in results] == keys
        for res, key, seed in zip(results, keys, seeds):
            options = dict(x=key, replicates=100, seed=seed)
            assert res.naive == bootstrap(naive_risk_ratio, admin, **options)
            assert res.adjusted == bootstrap(crr_identified, admin, external, **options)
            assert res.naive.seed == res.adjusted.seed == seed

    def test_adjusted_rows_equal_sensitivity_unmixed_rows(self, capsys):
        from pathlib import Path

        from crrkit.cli import main
        from crrkit.dataio import load_administrative, load_census

        corpus = Path(__file__).parent / "corpus"
        admin_path, census_path = str(corpus / "admin.csv"), str(corpus / "census.csv")
        admin, _ = load_administrative(admin_path)
        external, _ = load_census(census_path)
        keys = ["zero", "b", "all", "a", "tiny"]
        for seed, replicates in ((11, 40), (3, 200)):
            results = stratified_estimates(admin, external, keys, replicates=replicates, seed=seed)
            argv = [
                "sensitivity", "--admin", admin_path, "--census", census_path,
                "--lambda", "0.5", "--citywide-p1", "0.4", "--strata", ",".join(keys),
                "--seed", str(seed), "--bootstrap", str(replicates), "--format", "csv",
            ]
            assert main(argv) == 0
            lines = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
            rows = [line.split(",") for line in lines[1:]]
            unmixed = {row[0]: row[2:5] for row in rows if "unmixed" in row[5].split(";")}
            assert list(unmixed) == keys
            for res in results:
                estimate = res.adjusted
                if estimate is None:
                    expected = ["undefined", "", ""]
                else:
                    expected = [f"{v:.10g}" for v in (estimate.point, estimate.lo, estimate.hi)]
                assert unmixed[res.x] == expected, (seed, res)
            assert results[0].adjusted is None and unmixed["zero"][0] == "undefined"

    def test_unknown_stratum(self):
        admin, external, _ = self.two_precinct_data(n=2000)
        with pytest.raises(UnknownStratumError, match=r"^strata not present in data: \['prec-zz'\]$"):
            stratified_estimates(admin, external, ["prec-zz", "prec-a"], replicates=10, seed=1)

    def test_broken_stratum_marked_not_omitted(self):
        rows = [(1, 1, "ok"), (1, 0, "ok"), (0, 1, "ok"), (0, 0, "ok")] * 10
        rows += [(1, 1, "broken")] * 5  # single race; naive undefined
        data = dataset(rows)
        results = stratified_estimates(data, census({"ok": 0.5}), replicates=50, seed=5)
        by_key = {r.x: r for r in results}
        assert by_key["broken"].naive is None
        assert "MissingGroupError" in by_key["broken"].naive_error
        assert by_key["broken"].adjusted is None
        assert by_key["ok"].naive is not None and by_key["ok"].adjusted is not None

    def test_external_missing_share_marks_adjusted_only(self):
        rows = [(1, 1, "a"), (1, 0, "a"), (0, 1, "a"), (0, 0, "a")] * 10
        results = stratified_estimates(
            dataset(rows), census({"elsewhere": 0.4}), replicates=50, seed=5
        )
        assert results[0].naive is not None
        assert results[0].adjusted is None
        assert "DegenerateOddsError" in results[0].adjusted_error

    def test_no_external_marks_adjusted(self):
        results = stratified_estimates(
            dataset([(1, 1, "a"), (0, 0, "a"), (1, 0, "a"), (0, 1, "a")] * 5),
            None,
            replicates=50,
            seed=5,
        )
        assert results[0].adjusted is None
        assert "not provided" in results[0].adjusted_error


class TestSensitivityMixture:
    def test_identity_at_lambda_one(self):
        external = census({"a": 0.1, "b": 0.9})
        mixed = sensitivity_mixture(external, 0.367, 1.0)
        for key in ("a", "b"):
            assert mixed.p1_for(key) == external.p1_for(key)

    def test_full_pooling_at_lambda_zero(self):
        external = census({"a": 0.1, "b": 0.9})
        mixed = sensitivity_mixture(external, 0.367, 0.0)
        assert mixed.p1_for("a") == mixed.p1_for("b") == 0.367

    def test_worked_arithmetic(self):
        mixed = sensitivity_mixture(census({"x": 0.10}), 0.367, 0.9)
        assert mixed.p1_for("x") == pytest.approx(0.1267, abs=1e-12)

    def test_undefined_local_share_stays_undefined_unless_pooled(self):
        external = census({"empty": None})
        assert sensitivity_mixture(external, 0.367, 0.9).p1_for("empty") is None
        assert sensitivity_mixture(external, 0.367, 0.0).p1_for("empty") == 0.367

    def test_kind_preserved_and_reapplied_after_resample(self):
        external = survey([(1, "all", 1.0)] * 20 + [(0, "all", 1.0)] * 80)
        mixed = sensitivity_mixture(external, 0.5, 0.8)
        assert mixed.resampled
        assert not sensitivity_mixture(census({"all": 0.2}), 0.5, 0.8).resampled
        redrawn = mixed._share_draws("all", np.random.default_rng(3), 5)
        # the same respondent draw, made by hand: one multinomial over the
        # cells (d=0, w=1) and (d=1, w=1); unit weights, so the share is a mean
        draws = np.random.default_rng(3).multinomial(100, [0.8, 0.2], size=5)
        local = draws[:, 1] / 100
        assert len(set(local)) > 1
        assert redrawn == pytest.approx(0.8 * local + 0.2 * 0.5, rel=1e-12)

    def test_parameter_validation(self):
        external = census({"a": 0.5})
        with pytest.raises(ValueError):
            sensitivity_mixture(external, 0.367, 1.5)
        with pytest.raises(ValueError):
            sensitivity_mixture(external, 0.0, 0.5)

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True),
    )
    @settings(max_examples=100)
    def test_share_is_linear_and_monotone_in_lambda(self, local, citywide, lams):
        external = census({"x": local})
        values = [
            sensitivity_mixture(external, citywide, lam).p1_for("x")
            for lam in sorted(lams)
        ]
        diffs = np.diff(values)
        if local > citywide:
            assert np.all(diffs >= -1e-15)
        else:
            assert np.all(diffs <= 1e-15)

    def test_adjusted_estimate_monotone_in_lambda(self):
        table = sample_encounters(TOY_MODEL, 20_000, seed=101)
        admin = to_administrative(table)
        external = census({"all": 0.1})  # extreme local share
        points = [
            crr_identified(admin, sensitivity_mixture(external, 0.367, lam))
            for lam in (0.0, 0.5, 0.9, 1.0)
        ]
        diffs = np.diff(points)
        assert np.all(diffs > 0) or np.all(diffs < 0)


#: Finite nonnegative population counts, subnormals and zero included.
population_counts = st.floats(0.0, allow_nan=False, allow_infinity=False)


def float_bits(share):
    return share if share is None else float.hex(share)


class TestExternalDistribution:
    def test_census_counts_to_shares(self):
        external = ExternalRaceDistribution.census_from_counts(
            {"a": (80.0, 20.0), "b": (0.0, 0.0)}
        )
        assert external.p1_for("a") == 0.8
        assert external.p1_for("b") is None
        # pooled share aggregates counts
        assert external.p1_for(None) == 0.8

    def test_survey_pooled_share_is_weighted(self):
        external = survey([(1, "s", 3.0), (0, "s", 1.0)])
        assert external.p1_for(None) == pytest.approx(0.75)
        assert external.p1_for("s") == pytest.approx(0.75)

    def test_census_pool_sums_every_stratum(self):
        external = ExternalRaceDistribution.census_from_counts(
            {"a": (20.0, 80.0), "b": (40.0, 60.0), "empty": (0.0, 0.0)}
        )
        assert external.p1_for(None) == 0.3
        assert census({"only": 0.2}).p1_for(None) == 0.2

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            survey([(1, "s", -1.0)])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ExternalRaceDistribution.census_from_counts({"s": (1.0, math.inf)})

    def test_only_a_survey_is_resampled(self):
        assert survey([(1, "s", 1.0), (0, "s", 1.0)]).resampled
        assert not census({"s": 0.5}).resampled
        with pytest.raises(TypeError):
            ExternalRaceDistribution(shares={"s": 0.5})

    def test_repeated_cells_add_up(self):
        cells = [(1, 2.0), (0, 1.0), (1, 2.0), (1, 0.5), (0, 1.0)]
        external = ExternalRaceDistribution.from_cells(("b", "a"), [0, 0, 0, 1, 1], cells, [1] * 5)
        assert external.cells.tolist() == [[0, 1], [1, 2], [0, 1], [1, 0.5], [0, 1], [1, 0.5], [1, 2]]
        assert external.sizes.tolist() == [1, 2, 1, 1, 2, 1, 2]
        assert external.bounds.tolist() == [0, 2, 4, 7]
        assert (external.p1_for("b"), external.p1_for("a")) == (0.8, 1 / 3)

    @given(st.dictionaries(st.text(max_size=3), st.tuples(population_counts, population_counts)))
    @settings(max_examples=200, deadline=None)
    def test_census_stratum_share_is_the_counts_ratio(self, counts):
        external = ExternalRaceDistribution.census_from_counts(counts)
        for key, (c1, c0) in counts.items():
            want = c1 / (c1 + c0) if c1 + c0 > 0 else None
            assert float_bits(external.p1_for(key)) == float_bits(want), key

    @given(st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_census_pooled_share_is_exact_for_integer_counts(self, rows):
        external = ExternalRaceDistribution.census_from_counts(
            {f"s{i}": (float(c1), float(c0)) for i, (c1, c0) in enumerate(rows)}
        )
        c1, total = sum(c for c, _ in rows), sum(c1 + c0 for c1, c0 in rows)
        assert external.p1_for(None) == (c1 / total if total else None)  # int division rounds once

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 1), population_counts),
            st.integers(1, 5),
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_census_and_survey_of_the_same_cells_share_every_point(self, counts):
        rows = [(d, key, weight) for (key, d, weight), n in counts.items() for _ in range(n)]
        respondents = survey(rows)
        keys = tuple(dict.fromkeys(key for key, _, _ in counts))
        fixed = ExternalRaceDistribution.from_cells(
            keys,
            [keys.index(key) for key, _, _ in counts],
            [cell for _, *cell in counts],
            list(counts.values()),
        )
        assert respondents.resampled and not fixed.resampled
        for key in (*keys, None, "absent"):
            assert float_bits(fixed.p1_for(key)) == float_bits(respondents.p1_for(key)), key

    @given(
        st.dictionaries(st.sampled_from(["a", "b"]), st.tuples(population_counts, population_counts)),
        st.sampled_from(["a", "b", None]),
        st.integers(2, 50),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_census_draws_nothing(self, counts, x, replicates, seed):
        external = sensitivity_mixture(ExternalRaceDistribution.census_from_counts(counts), 0.3, 0.5)
        for source in (ExternalRaceDistribution.census_from_counts(counts), external):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            draws = source._share_draws(x, rng, replicates)
            assert rng.bit_generator.state == state
            p1 = source.p1_for(x)
            np.testing.assert_array_equal(draws, np.full(replicates, np.nan if p1 is None else p1))


def unique_survey_table(rows):
    """The survey count table built by ``np.unique`` over (stratum code, race, weight) rows.

    Each stratum's sorted (race, weight) cells and their counts, and the pool's under None.
    """
    d, x, weight = (
        np.array(column, dtype) for column, dtype in zip(zip(*rows), (np.int8, object, float))
    )
    codes = {}
    code = np.array([codes.setdefault(key, len(codes)) for key in x], dtype=np.int32)
    cells, counts = np.unique(np.column_stack([code, d, weight]), axis=0, return_counts=True)
    bounds = np.searchsorted(cells[:, 0], np.arange(len(codes) + 1))
    table = {
        key: (cells[lo:hi, 1:], counts[lo:hi])
        for key, lo, hi in zip(codes, bounds[:-1], bounds[1:])
    }
    pooled, inverse = np.unique(cells[:, 1:], axis=0, return_inverse=True)
    table[None] = (pooled, np.bincount(inverse.ravel(), counts, len(pooled)).astype(np.int64))
    return table


class TestDatasets:
    def test_indicators_outside_zero_one_rejected(self):
        with pytest.raises(ValueError, match="d values"):
            dataset([(2, 0, "a")])
        with pytest.raises(ValueError, match="y values"):
            dataset([(1, -1, "a")])

    def test_survey_race_outside_zero_one_rejected(self):
        for race in (7, -1):
            with pytest.raises(ValueError, match="d values"):
                survey([(1, "a", 1.0), (race, "a", 1.0)])

    def test_scope_counts_per_stratum_and_pooled(self):
        rows = [(1, 0, "b"), (0, 1, "a"), (0, 0, "b"), (1, 1, "a"), (1, 1, "b"), (1, 0, "b")]
        x = np.array([row[2] for row in rows], dtype=object)
        for dtype in (np.int8, bool, float):
            d, y = (np.array([row[i] for row in rows], dtype=dtype) for i in (0, 1))
            data = AdministrativeDataset.from_columns(d, y, x)
            # records in the cells 2*d + y = (0, 1, 2, 3)
            assert data._scope_counts("a") == (0, 1, 0, 1), dtype
            assert data._scope_counts("b") == (1, 0, 2, 1), dtype
            assert data._scope_counts(None) == (1, 1, 2, 2), dtype
            assert data._scope_counts("zz") == (0, 0, 0, 0), dtype
            assert data.strata() == ["a", "b"]

    def test_tuple_stratum_keys(self):
        # a composite stratum key is one tuple, which np.array(keys, object) would unpack
        a, b = ("a", "b"), ("a", "c")
        rows = [(1, 1, a), (1, 0, a), (0, 1, a), (0, 0, a), (0, 0, a), (1, 0, b), (0, 0, b)]
        data = AdministrativeDataset.from_rows(rows)
        assert data.strata() == [a, b]
        assert data._scope_counts(a) == (2, 1, 1, 1)
        assert naive_risk_ratio(data, x=a) == 1.5
        estimate = bootstrap(naive_risk_ratio, data, x=a, replicates=5, seed=1)
        assert estimate.point == 1.5
        # str and tuple keys side by side
        external = survey([(1, a, 1.0), (0, a, 1.0), (1, "z", 2.0)])
        assert (external.p1_for(a), external.p1_for("z"), external.p1_for(None)) == (0.5, 1.0, 0.75)

    def test_listed_strata_are_accepted_by_bootstrap(self):
        # a non-string key is listed as stored, so bootstrap can scope to it
        data = AdministrativeDataset.from_rows([(1, 1, 7), (1, 0, 7), (0, 1, 7), (0, 0, 7)])
        assert data.strata() == [7]
        for key in data.strata():
            assert data._scope_counts(key) == (1, 1, 1, 1)
            estimate = bootstrap(naive_risk_ratio, data, x=key, replicates=5)
            assert estimate.point == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_survey_shares_ignore_row_order(self, seed):
        rng = np.random.default_rng(seed)
        n = 500
        d = (rng.random(n) < 0.4).astype(np.int8)
        x = np.array([f"s{k}" for k in rng.integers(0, 4, n)], dtype=object)
        weight = rng.uniform(0.1, 3.0, n)
        external = survey(zip(d, x, weight))
        order = rng.permutation(n)
        shuffled = survey(zip(d[order], x[order], weight[order]))
        for key in (*(f"s{k}" for k in range(4)), None):
            assert shuffled.p1_for(key) == external.p1_for(key), key
        row_sum = np.sum(weight * d) / np.sum(weight)
        assert external.p1_for(None) == pytest.approx(row_sum, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_survey_table_matches_a_unique_over_rows(self, seed):
        rng = np.random.default_rng(seed)
        # weights in eighths, zero included; stratum "z" holds only weight-0 respondents
        rows = [
            (int(rng.random() < 0.4), f"s{k}", int(rng.integers(0, 25)) / 8)
            for k in rng.integers(0, 4, 300)
        ] + [(1, "z", 0.0), (0, "z", 0.0)]
        rows += [rows[i] for i in rng.integers(0, len(rows), 150)]  # duplicated rows
        rows = [rows[i] for i in rng.permutation(len(rows))]
        external = survey(rows)
        expected = unique_survey_table(rows)
        assert {*external.keys, None} == expected.keys()
        assert (external.cells.dtype, external.sizes.dtype) == (np.float64, np.int64)

        def share(cells, counts):
            total = counts @ cells[:, 1]
            return (counts @ (cells[:, 0] * cells[:, 1])) / total if total > 0 else None

        for key, (cells, counts) in expected.items():
            lo, hi, p1 = external._scope(key)
            assert external.cells[lo:hi].tolist() == cells.tolist(), key
            assert external.sizes[lo:hi].tolist() == counts.tolist(), key
            assert p1 == share(cells, counts), key  # eighths: the sums are exact in any order
        assert external.p1_for("z") is None
        for absent in ("s9", "z "):  # strata with no respondents
            assert external._scope(absent) == (0, 0, None)

    def test_columns_round_trip_through_from_columns_and_concat(self):
        rows = [(1, 0, "b"), (0, 1, "a"), (0, 0, 7), (1, 1, "a"), (1, 1, "b")]
        d, y = (np.array([row[i] for row in rows], dtype=np.int8) for i in (0, 1))
        x = np.array([row[2] for row in rows], dtype=object)
        data = AdministrativeDataset.from_columns(d, y, x)
        halves = [AdministrativeDataset.from_rows(rows[:2]), AdministrativeDataset.from_rows(rows[2:])]
        for packed in (data, AdministrativeDataset.concat(halves)):
            assert packed.n == len(rows)
            assert packed.d.dtype == packed.y.dtype == np.int8 and packed.x.dtype == object
            assert packed.d.tolist() == d.tolist()
            assert packed.y.tolist() == y.tolist()
            assert packed.x.tolist() == x.tolist()
            assert packed.strata() == [7, "a", "b"]
        with pytest.raises(AttributeError):
            data.d = d
        empty = AdministrativeDataset.concat([])
        assert empty.n == 0 and empty.strata() == []
        assert (empty.d.tolist(), empty.y.tolist(), empty.x.tolist()) == ([], [], [])

    def test_packed_cells_checked_and_unused_keys_not_listed(self):
        data = AdministrativeDataset(np.array([0, 3, 1], np.int32), ("a", "unused"))
        assert data.strata() == ["a"]
        assert data._scope_counts("unused") == (0, 0, 0, 0)
        for cell, keys in (([4], ("a",)), ([-1], ("a",)), ([0], ("a", "a"))):
            with pytest.raises(ValueError):
                AdministrativeDataset(np.array(cell, np.int32), keys)
