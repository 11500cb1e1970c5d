"""Estimator tests: point estimators, bootstrap contract, strata, sensitivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crrkit.errors import (
    DegenerateOddsError,
    EstimandUndefinedError,
    MissingGroupError,
    TooManyUndefinedError,
    UnknownStratumError,
    ZeroDenominatorError,
)
from crrkit.estimate import (
    AdministrativeDataset,
    EstimateWithCI,
    ExternalRaceDistribution,
    SurveyRespondents,
    bias_factor,
    bootstrap,
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
    return ExternalRaceDistribution.census_from_shares(share_by_stratum)


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
        rows = [(1, 1, "all")] * 10

        def mean_force(data, x=None):
            return float(np.mean(data.restrict(x).y))

        est = bootstrap(mean_force, dataset(rows), replicates=200, seed=5)
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
        calls = {"n": 0}

        def flaky(data, x=None):
            calls["n"] += 1
            if calls["n"] == 1:
                return 1.0
            raise MissingGroupError("synthetic failure")

        with pytest.raises(TooManyUndefinedError):
            bootstrap(flaky, SIMPLE, replicates=50, seed=1)

    def test_point_estimate_errors_propagate(self):
        with pytest.raises(ZeroDenominatorError):
            bootstrap(naive_risk_ratio, SIMPLE, replicates=10, seed=1)

    def test_empty_scope_rejected(self):
        with pytest.raises(UnknownStratumError):
            bootstrap(naive_risk_ratio, SIMPLE, x="missing", replicates=10, seed=1)
        with pytest.raises(MissingGroupError):
            bootstrap(naive_risk_ratio, dataset([]), replicates=10, seed=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bootstrap(naive_risk_ratio, SIMPLE, replicates=1, seed=1)
        with pytest.raises(ValueError):
            bootstrap(naive_risk_ratio, SIMPLE, level=1.0, seed=1)
        with pytest.raises(ValueError):
            bootstrap(naive_risk_ratio, SIMPLE, seed=1, method="bca")

    def test_census_external_constant_across_replicates(self):
        external = census({"all": 0.5})
        rng = np.random.default_rng(0)
        assert external.resampled(rng) is external

    def test_survey_external_varies_across_replicates(self):
        respondents = SurveyRespondents.from_rows(
            [(1, "all", 1.0)] * 30 + [(0, "all", 1.0)] * 70
        )
        external = ExternalRaceDistribution.from_survey(respondents)
        rng = np.random.default_rng(1)
        shares = {external.resampled(rng).p1_for("all") for _ in range(20)}
        assert len(shares) > 1
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
        # the merge contract: per-replicate sub-seeds come from the master
        # seed by index, so evaluating replicates in any order (here:
        # reversed, as a stand-in for a parallel pool) gives the same interval
        table = sample_encounters(TOY_MODEL, 5000, seed=91)
        admin = to_administrative(table)
        replicates, seed = 150, 17
        est = bootstrap(naive_risk_ratio, admin, replicates=replicates, seed=seed)

        children = np.random.SeedSequence(seed).spawn(replicates)
        values = []
        for child in reversed(children):
            rng = np.random.default_rng(child)
            idx = rng.integers(0, admin.n, size=admin.n)
            values.append(naive_risk_ratio(admin.take(idx)))
        lo, hi = np.quantile(values, [0.025, 0.975])
        assert (float(lo), float(hi)) == (est.lo, est.hi)

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


def row_path_bootstrap(statistic, data, external=None, *, x=None, level=0.95,
                       replicates=1000, seed=0, haldane=False):
    """Reference bootstrap that resamples rows and evaluates the row-level statistic.

    Same stream as ``bootstrap``: per replicate, row indices and then (for
    survey sources) respondent indices from the replicate's generator.
    """
    scoped = data.restrict(x)
    wants_external = statistic in (bias_factor, crr_identified)

    def call(rows, ext):
        if wants_external:
            return statistic(rows, ext, x, haldane=haldane)
        return statistic(rows, x, haldane=haldane)

    point = call(scoped, external)
    values, undefined = [], 0
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, scoped.n, size=scoped.n)
        boot_data = scoped.take(idx)
        boot_external = external.resampled(rng, x) if external is not None else None
        try:
            values.append(call(boot_data, boot_external))
        except EstimandUndefinedError:
            undefined += 1
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
    """Built-ins bootstrapped on counts equal the row-resampling reference exactly."""

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
        # non-integer weights, so the share's summation order matters; no
        # respondents for "b", and an undefined census share for "c"
        respondents = SurveyRespondents.from_rows(
            [(int(rng.random() < 0.35), "a", float(rng.uniform(0.1, 3.0))) for _ in range(40)]
            + [(int(rng.random() < 0.8), "c", float(rng.uniform(0.1, 3.0))) for _ in range(6)]
        )
        census_counts = ExternalRaceDistribution.census_from_counts(
            {"a": (30.0, 70.0), "b": (50.0, 50.0), "c": (0.0, 0.0)}
        )
        survey = ExternalRaceDistribution.from_survey(respondents)
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
                expected = outcome(row_path_bootstrap, statistic, data, external, **kwargs)
                assert outcome(bootstrap, statistic, data, external, **kwargs) == expected, (
                    statistic.__name__, external, seed
                )

    @pytest.mark.parametrize("haldane", [False, True])
    def test_undefined_replicates_match(self, haldane):
        # a single majority row vanishes from ~37% of resamples
        data = dataset([(1, 1, "all")] * 19 + [(0, 1, "all")])
        survey = ExternalRaceDistribution.from_survey(
            SurveyRespondents.from_rows([(1, "all", 1.5)] * 3 + [(0, "all", 0.25)] * 7)
        )
        for statistic, external in [
            (naive_risk_ratio, None),
            (crr_identified, census({"all": 0.3})),
            (crr_identified, survey),
        ]:
            for seed in (11, 12):
                kwargs = dict(replicates=400, seed=seed, haldane=haldane)
                expected = outcome(row_path_bootstrap, statistic, data, external, **kwargs)
                assert outcome(bootstrap, statistic, data, external, **kwargs) == expected
                if not haldane:
                    assert 0 < expected.undefined_replicates < 200


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
        admin, external, _ = self.two_precinct_data()
        results = stratified_estimates(
            admin, external, ["prec-a"], replicates=100, seed=7
        )
        sub_seeds = np.random.default_rng(7).integers(0, 2**63, size=2)
        direct_naive = bootstrap(
            naive_risk_ratio, admin, x="prec-a", replicates=100, seed=int(sub_seeds[0])
        )
        direct_adjusted = bootstrap(
            crr_identified,
            admin,
            external,
            x="prec-a",
            replicates=100,
            seed=int(sub_seeds[1]),
        )
        assert results[0].naive == direct_naive
        assert results[0].adjusted == direct_adjusted

    def test_unknown_stratum(self):
        admin, external, _ = self.two_precinct_data(n=2000)
        with pytest.raises(UnknownStratumError):
            stratified_estimates(admin, external, ["prec-zz"], replicates=10, seed=1)

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
        respondents = SurveyRespondents.from_rows(
            [(1, "all", 1.0)] * 20 + [(0, "all", 1.0)] * 80
        )
        external = ExternalRaceDistribution.from_survey(respondents)
        mixed = sensitivity_mixture(external, 0.5, 0.8)
        assert mixed.kind == "survey-resampled"
        rng = np.random.default_rng(3)
        redrawn = mixed.resampled(rng)
        local = redrawn.respondents.minority_share()
        assert redrawn.p1_for("all") == pytest.approx(0.8 * local + 0.2 * 0.5, rel=1e-12)

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
        respondents = SurveyRespondents.from_rows([(1, "s", 3.0), (0, "s", 1.0)])
        external = ExternalRaceDistribution.from_survey(respondents)
        assert external.p1_for(None) == pytest.approx(0.75)
        assert external.p1_for("s") == pytest.approx(0.75)

    def test_share_only_multi_stratum_has_no_pooled_value(self):
        external = census({"a": 0.2, "b": 0.4})
        assert external.p1_for(None) is None
        assert census({"only": 0.2}).p1_for(None) == 0.2

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SurveyRespondents.from_rows([(1, "s", -1.0)])


class TestDatasets:
    def test_indicators_outside_zero_one_rejected(self):
        with pytest.raises(ValueError, match="d values"):
            dataset([(2, 0, "a")])
        with pytest.raises(ValueError, match="y values"):
            dataset([(1, -1, "a")])

    def test_restrict_keeps_row_order(self):
        data = dataset([(1, 0, "b"), (0, 1, "a"), (0, 0, "b"), (1, 1, "a"), (1, 1, "b")])
        scoped = data.restrict("b")
        assert scoped.d.tolist() == [1, 0, 1]
        assert scoped.y.tolist() == [0, 0, 1]
        assert data.restrict("zz").n == 0
        assert data.strata() == ["a", "b"]
