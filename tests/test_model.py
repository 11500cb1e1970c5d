"""Closed-form estimand tests: worked examples frozen first, then invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crrkit.errors import (
    DegenerateOddsError,
    InvalidModelError,
    ZeroDenominatorError,
    ZeroMassError,
)
from crrkit.model import (
    MODEL_FIELDS,
    PROB_TOL,
    Estimand,
    ModelArrays,
    PopulationModel,
    bias_factor_true,
    crr_true,
    estimand_value,
    identify_ey,
    naive_rr_true,
    pie_pde,
    theta_of,
    weights_of,
)
from crrkit.verify import sign_reversal_witnesses

from conftest import models, monotone_models


def make_model(p_d=0.5, pi=(0.25, 0.25, 0.25, 0.25), mu_01=0.5, mu_11=0.5):
    return PopulationModel(p_d, *pi, mu_01, mu_11)


class TestPopulationModel:
    def test_valid_construction(self, toy_model):
        assert toy_model.beta_m == pytest.approx(0.1)
        assert toy_model.beta_y == pytest.approx(0.1)
        assert toy_model.e_m0 == pytest.approx(0.2)
        assert toy_model.e_m1 == pytest.approx(0.3)
        assert toy_model.p_m1 == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p_d=-0.1),
            dict(p_d=1.5),
            dict(mu_01=float("nan")),
            dict(mu_11=2.0),
            dict(pi=(0.5, 0.5, 0.5, -0.5)),
            dict(pi=(0.3, 0.3, 0.3, 0.3)),  # sums to 1.2
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidModelError):
            make_model(**kwargs)

    def test_stratum_sum_tolerance_is_tight(self):
        # 1e-9 off is rejected, 1e-13 off is accepted
        with pytest.raises(InvalidModelError):
            make_model(pi=(0.25, 0.25, 0.25, 0.25 + 1e-9))
        make_model(pi=(0.25, 0.25, 0.25, 0.25 + 1e-13))

    def test_from_effects_round_trip(self):
        model = PopulationModel.from_effects(
            p_d=0.3, pi_al=0.2, pi_ma=0.1, beta_m=0.05, mu_01=0.4, beta_y=0.2
        )
        assert model.pi_mi == pytest.approx(0.15)
        assert model.beta_m == pytest.approx(0.05)
        assert model.mu_11 == pytest.approx(0.6)

    def test_serialization_round_trip(self, toy_model):
        assert PopulationModel.loads(toy_model.dumps()) == toy_model

    def test_loads_rejects_bad_records(self):
        with pytest.raises(InvalidModelError):
            PopulationModel.loads("not json")
        with pytest.raises(InvalidModelError):
            PopulationModel.loads('{"p_d": 0.5}')
        with pytest.raises(InvalidModelError):
            PopulationModel.loads(
                '{"p_d": 0.5, "pi_al": 1, "pi_mi": 0, "pi_ma": 0, "pi_ne": 0,'
                ' "mu_01": 0, "mu_11": 0, "extra": 1}'
            )


class TestTheta:
    def test_witness_parameters(self):
        model = PopulationModel.from_effects(
            p_d=0.01, pi_al=0.1, pi_ma=0.05, beta_m=0.01, mu_01=0.1, beta_y=0.01
        )
        theta = theta_of(model)
        assert theta.theta_al == pytest.approx(0.01, abs=1e-15)
        assert theta.theta_mi == pytest.approx(0.11, abs=1e-15)
        assert theta.theta_ma == pytest.approx(-0.1, abs=1e-15)
        assert theta.theta_ne == 0.0

    def test_no_force_model(self):
        theta = theta_of(make_model(mu_01=0.0, mu_11=0.0))
        assert theta.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_direct_substitution(self):
        theta = theta_of(make_model(mu_01=0.1, mu_11=0.2))
        assert theta.theta_al == pytest.approx(0.1, abs=1e-15)
        assert theta.theta_mi == pytest.approx(0.2, abs=1e-15)
        assert theta.theta_ma == pytest.approx(-0.1, abs=1e-15)

    @given(models())
    def test_never_stopped_stratum_has_zero_effect(self, model):
        assert theta_of(model).theta_ne == 0.0


class TestWeights:
    def test_detainment_conditional_weights(self):
        model = PopulationModel.from_effects(
            p_d=0.01, pi_al=0.1, pi_ma=0.05, beta_m=0.01, mu_01=0.1, beta_y=0.01
        )
        w = weights_of(Estimand.ATE_M1, model)
        assert w.as_tuple() == pytest.approx((0.1, 0.0006, 0.0495, 0.0), abs=1e-12)
        assert not w.normalized
        w = weights_of(Estimand.ATT_M1, model)
        assert w.as_tuple() == pytest.approx((0.1, 0.06, 0.0, 0.0), abs=1e-12)

    def test_unconditional_weights_are_stratum_masses(self):
        model = make_model(pi=(0.2, 0.1, 0.0, 0.7))
        for estimand in (Estimand.ATE, Estimand.ATT):
            w = weights_of(estimand, model)
            assert w.as_tuple() == (0.2, 0.1, 0.0, 0.7)

    def test_zero_mass_raises(self):
        never = make_model(pi=(0.0, 0.0, 0.0, 1.0))
        for estimand in (Estimand.ATE_M1, Estimand.ATT_M1):
            with pytest.raises(ZeroMassError):
                weights_of(estimand, never)
        # unconditional estimands stay defined
        assert weights_of(Estimand.ATE, never).total == pytest.approx(1.0)

    @given(models())
    def test_weights_nonnegative_and_normalizable(self, model):
        for estimand in Estimand:
            try:
                w = weights_of(estimand, model)
            except ZeroMassError:
                continue
            assert all(v >= 0.0 for v in w.as_tuple())
            normalized = w.normalize()
            assert normalized.normalized
            assert math.isclose(normalized.total, 1.0, abs_tol=1e-12)


class TestEstimandValue:
    def test_sign_reversal_witness_contrasts(self):
        # frozen six-decimal targets for the three witness models
        for witness in sign_reversal_witnesses():
            result = estimand_value(witness.estimand, witness.model)
            assert round(result.contrast, 6) == witness.expected_contrast
            assert result.contrast == pytest.approx(witness.expected_contrast, abs=5e-7)
            # normalized value keeps the contrast's sign
            assert result.value * result.contrast > 0.0

    def test_witness_signs_oppose_effects(self):
        for witness in sign_reversal_witnesses():
            result = estimand_value(witness.estimand, witness.model)
            assert result.contrast * witness.model.beta_m < 0.0
            assert result.contrast * witness.model.beta_y < 0.0

    def test_ate_equals_att(self):
        model = make_model(p_d=0.3, pi=(0.4, 0.3, 0.2, 0.1), mu_01=0.2, mu_11=0.9)
        assert estimand_value(Estimand.ATE, model) == estimand_value(Estimand.ATT, model)

    @given(models())
    @settings(max_examples=300)
    def test_sign_consistency(self, model):
        tol = 1e-12
        ate = estimand_value(Estimand.ATE, model).value
        att = estimand_value(Estimand.ATT, model).value
        if model.beta_m >= 0.0 and model.beta_y >= 0.0:
            assert ate >= -tol and att >= -tol
        if model.beta_m <= 0.0 and model.beta_y <= 0.0:
            assert ate <= tol and att <= tol

    @given(models())
    def test_normalized_matches_contrast_over_total(self, model):
        for estimand in Estimand:
            try:
                result = estimand_value(estimand, model)
            except ZeroMassError:
                continue
            assert result.value == pytest.approx(
                result.contrast / result.weight_total, rel=1e-12
            )


class TestDecomposition:
    def test_worked_example(self, toy_model):
        # beta_m = 0.1, mu_11 = 0.2, beta_y = 0.1, E[M(0)] = 0.2
        pie, pde = pie_pde(toy_model)
        assert pie == pytest.approx(0.02, abs=1e-15)
        assert pde == pytest.approx(0.02, abs=1e-15)
        assert pie + pde == pytest.approx(
            estimand_value(Estimand.ATE, toy_model).contrast, abs=1e-15
        )

    def test_no_detainment_effect(self):
        model = make_model(pi=(0.3, 0.2, 0.2, 0.3))  # beta_m = 0
        assert pie_pde(model)[0] == 0.0

    def test_no_direct_effect(self):
        model = make_model(mu_01=0.4, mu_11=0.4)
        assert pie_pde(model)[1] == 0.0

    @given(models())
    @settings(max_examples=300)
    def test_decomposition_identity(self, model):
        pie, pde = pie_pde(model)
        ate = estimand_value(Estimand.ATE, model).contrast
        assert pie + pde == pytest.approx(ate, abs=1e-12)


class TestRiskRatio:
    def test_toy_model_value(self, toy_model):
        assert crr_true(toy_model) == pytest.approx(3.0, rel=1e-12)

    def test_symmetric_model_is_one(self):
        model = make_model(pi=(0.3, 0.2, 0.2, 0.3), mu_01=0.4, mu_11=0.4)
        assert crr_true(model) == pytest.approx(1.0, rel=1e-12)

    def test_no_race_effect_anywhere(self):
        model = make_model(pi=(0.5, 0.0, 0.0, 0.5), mu_01=0.3, mu_11=0.3)
        assert crr_true(model) == pytest.approx(1.0, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            crr_true(make_model(mu_01=0.0))
        with pytest.raises(ZeroDenominatorError):
            crr_true(make_model(pi=(0.0, 1.0, 0.0, 0.0)))

    def test_identify_ey_values(self, toy_model):
        assert identify_ey(1, toy_model) == pytest.approx(0.06, abs=1e-15)
        assert identify_ey(0, toy_model) == pytest.approx(0.02, abs=1e-15)
        assert identify_ey(1, make_model(mu_11=0.0)) == 0.0
        with pytest.raises(ValueError):
            identify_ey(2, toy_model)

    @given(models())
    def test_identify_ey_ratio_equals_crr(self, model):
        try:
            expected = crr_true(model)
        except ZeroDenominatorError:
            return
        assert identify_ey(1, model) / identify_ey(0, model) == expected

    @given(monotone_models())
    @settings(max_examples=300)
    def test_naive_rr_lower_bounds_crr_under_monotonicity(self, model):
        try:
            crr = crr_true(model)
        except ZeroDenominatorError:
            return
        assert naive_rr_true(model) <= crr + 1e-12

    @given(monotone_models())
    @example(
        # joint0 * p_d underflows to 0: degenerate, not a ZeroDivisionError
        PopulationModel(
            p_d=5e-324, pi_al=1 / 3, pi_mi=1 / 3, pi_ma=0.0, pi_ne=1 / 3, mu_01=1.0, mu_11=0.0
        )
    )
    def test_bias_factor_at_least_one_under_monotonicity(self, model):
        try:
            bf = bias_factor_true(model)
        except DegenerateOddsError:
            return
        assert bf >= 1.0 - 1e-12

    def test_bias_factor_true_matches_detainment_rate_ratio(self, toy_model):
        assert bias_factor_true(toy_model) == pytest.approx(1.5, rel=1e-12)


# -- closed forms on arrays ------------------------------------------------------

#: Each closed form the array checks use, keyed by name.
CLOSED_FORMS = {
    **{
        f"{e.value}.{part}": (lambda m, e=e, part=part: getattr(estimand_value(e, m), part))
        for e in Estimand
        for part in ("value", "contrast")
    },
    "pie": lambda m: pie_pde(m)[0],
    "pde": lambda m: pie_pde(m)[1],
    "crr": crr_true,
    "naive_rr": naive_rr_true,
}

edge = st.sampled_from([0.0, -0.0, 1.0])
edge_unit = edge | st.floats(0.0, 1.0)


@st.composite
def edge_models(draw) -> PopulationModel:
    """Valid models whose fields are often 0.0, -0.0 or 1.0."""
    parts = [draw(edge | st.floats(0.01, 1.0)) for _ in range(4)]
    if sum(parts) == 0.0:
        parts[draw(st.integers(0, 3))] = 1.0
    total = sum(parts)
    return PopulationModel(
        draw(edge_unit), *(p / total for p in parts), draw(edge_unit), draw(edge_unit)
    )


def as_arrays(*records: dict) -> ModelArrays:
    return ModelArrays(**{name: np.array([r[name] for r in records]) for name in MODEL_FIELDS})


class TestArrayForms:
    @given(edge_models())
    @example(PopulationModel(0.5, 0.0, -0.0, 0.0, 1.0, -0.0, 0.0))
    @example(PopulationModel(1.0, -0.0, 0.5, 0.5, -0.0, 0.0, -0.0))
    @settings(max_examples=300)
    def test_one_row_equals_scalar_bit_for_bit(self, model):
        arrays = as_arrays(model.to_dict())
        for name, form in CLOSED_FORMS.items():
            try:
                expected = form(model)
            except (ZeroMassError, ZeroDenominatorError) as exc:
                with pytest.raises(type(exc)):
                    form(arrays)
                continue
            assert type(expected) is float, name
            with np.errstate(over="ignore"):  # Python floats overflow to inf silently
                (got,) = form(arrays).tolist()
            assert got == expected, name
            assert math.copysign(1.0, got) == math.copysign(1.0, expected), name

    def test_any_zero_total_raises(self):
        records = [make_model().to_dict(), make_model(pi=(0.0, 0.0, 0.0, 1.0)).to_dict()]
        with pytest.raises(ZeroMassError):
            estimand_value(Estimand.ATT_M1, as_arrays(*records))
        assert estimand_value(Estimand.ATE, as_arrays(*records)).value.shape == (2,)


field_values = edge_unit | st.sampled_from(
    [math.nan, math.inf, -math.inf, -1e-300, 1.0 + 2**-52, 1.5, -0.5]
)
#: Shifts of pi_ne, inside and outside the mass-sum tolerance.
mass_shifts = st.sampled_from([0.0, 0.5 * PROB_TOL, -0.5 * PROB_TOL, 2 * PROB_TOL, -2e-9])


@st.composite
def field_records(draw) -> dict:
    """Model records, valid or not: any field may be NaN, infinite, outside [0, 1],
    or leave the masses off a unit sum."""
    record = draw(edge_models()).to_dict()
    record["pi_ne"] += draw(mass_shifts)
    for name in draw(st.lists(st.sampled_from(MODEL_FIELDS), unique=True, max_size=2)):
        record[name] = draw(field_values)
    return record


def rejection(build, *args) -> str | None:
    try:
        build(*args)
    except InvalidModelError as exc:
        return str(exc)
    return None


class TestArrayValidation:
    @given(field_records())
    @example({**make_model().to_dict(), "mu_01": math.nan})
    @example({**make_model().to_dict(), "pi_ne": 0.25 + 2e-12})
    @settings(max_examples=300)
    def test_one_row_rejected_exactly_when_scalar_is(self, record):
        assert rejection(as_arrays, record) == rejection(lambda r: PopulationModel(**r), record)

    @given(field_records(), field_records())
    def test_a_block_is_rejected_when_any_row_is(self, first, second):
        scalar = [rejection(lambda r: PopulationModel(**r), r) for r in (first, second)]
        block = rejection(as_arrays, first, second)
        assert (block is None) == (scalar == [None, None])
