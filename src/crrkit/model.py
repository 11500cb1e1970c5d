"""Closed-form population estimands for force outcomes observed only after detainment.

The generative model has two race groups (d = 1 minority, d = 0 majority), a
binary detainment mediator and a binary force outcome. Each encounter belongs
to one of four principal strata defined by its detainment counterfactuals:

    al  always stop      m(0) = m(1) = 1
    mi  minority stop    m(0) = 0, m(1) = 1
    ma  majority stop    m(0) = 1, m(1) = 0
    ne  never stop       m(0) = m(1) = 0

Force can only occur after a stop (mandatory reporting), so the force
counterfactuals are fully described by two conditional means: mu_01 for a
stopped majority civilian and mu_11 for a stopped minority civilian. Every
estimand in this module is a closed-form function of the six numbers
(p_d, pi_al, pi_mi, pi_ma, pi_ne is implied, mu_01, mu_11); nothing here
samples or estimates.

The closed forms are written once, as arithmetic on a model's attributes. On
a ``PopulationModel`` they return Python floats; on a ``ModelArrays``, whose
fields are equal-length float arrays, they return one array entry per model.

All functions are pure and all types immutable, so the module is safe to use
from any number of threads without coordination.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateOddsError,
    InvalidModelError,
    ZeroDenominatorError,
    ZeroMassError,
)

# Tolerance for the stratum-mass sum; pure arithmetic, no sampling noise.
PROB_TOL = 1e-12

STRATA = ("al", "mi", "ma", "ne")

#: Keys of the flat key-value model-file record, in canonical order.
MODEL_FIELDS = ("p_d", "pi_al", "pi_mi", "pi_ma", "pi_ne", "mu_01", "mu_11")


def _require(ok, value, message: str) -> None:
    """Raise InvalidModelError naming the first entry of ``value`` where ``ok`` is false."""
    if isinstance(ok, np.ndarray):
        if not ok.all():
            raise InvalidModelError(f"{message}, got {value[~ok][0].item()!r}")
    elif not ok:
        raise InvalidModelError(f"{message}, got {value!r}")


def _check_fields(model: PopulationModel | ModelArrays) -> None:
    """The validity rules of a model, on float fields or on array fields alike.

    Every field is finite and in [0, 1] (NaN fails both comparisons, an
    infinity one) and the stratum masses sum to 1 within PROB_TOL.
    """
    for name in MODEL_FIELDS:
        value = getattr(model, name)
        _require((value >= 0.0) & (value <= 1.0), value, f"{name} must lie in [0, 1]")
    total = model.pi_al + model.pi_mi + model.pi_ma + model.pi_ne
    _require(
        abs(total - 1.0) <= PROB_TOL, total, f"stratum masses must sum to 1 within {PROB_TOL}"
    )


class _Derived:
    """Quantities derived from the six parameters, for floats and arrays alike."""

    @property
    def beta_m(self):
        """Average effect of minority race on detainment: pi_mi - pi_ma."""
        return self.pi_mi - self.pi_ma

    @property
    def beta_y(self):
        """Controlled direct effect of race on force given a stop: mu_11 - mu_01."""
        return self.mu_11 - self.mu_01

    @property
    def e_m0(self):
        """Detainment rate if everyone were majority: pi_al + pi_ma."""
        return self.pi_al + self.pi_ma

    @property
    def e_m1(self):
        """Detainment rate if everyone were minority: pi_al + pi_mi."""
        return self.pi_al + self.pi_mi

    @property
    def p_m1(self):
        """Marginal detainment probability."""
        return self.p_d * self.e_m1 + (1.0 - self.p_d) * self.e_m0


@dataclass(frozen=True)
class PopulationModel(_Derived):
    """Six-parameter population of police-civilian encounters.

    Parameters
    ----------
    p_d : probability that an encountered civilian is a minority.
    pi_al, pi_mi, pi_ma, pi_ne : principal-stratum masses; must sum to 1.
    mu_01 : force rate for a stopped majority civilian.
    mu_11 : force rate for a stopped minority civilian.

    Mandatory reporting is structural: the force rate without a stop is
    identically zero and is not a parameter.
    """

    p_d: float
    pi_al: float
    pi_mi: float
    pi_ma: float
    pi_ne: float
    mu_01: float
    mu_11: float

    def __post_init__(self) -> None:
        for name in MODEL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidModelError(f"{name} must be a number, got {value!r}")
        _check_fields(self)

    # -- constructors / serialization ---------------------------------------

    @classmethod
    def from_effects(
        cls,
        p_d: float,
        pi_al: float,
        pi_ma: float,
        beta_m: float,
        mu_01: float,
        beta_y: float,
    ) -> "PopulationModel":
        """Build a model from the (pi_al, pi_ma, beta_m, mu_01, beta_y) parameterization.

        pi_mi = pi_ma + beta_m and mu_11 = mu_01 + beta_y; pi_ne absorbs the
        remainder. Raises InvalidModelError when the implied masses leave [0, 1].
        """
        pi_mi = pi_ma + beta_m
        pi_ne = 1.0 - pi_al - pi_mi - pi_ma
        return cls(p_d, pi_al, pi_mi, pi_ma, pi_ne, mu_01, mu_01 + beta_y)

    def to_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in MODEL_FIELDS}

    @classmethod
    def from_dict(cls, record: dict) -> "PopulationModel":
        missing = [k for k in MODEL_FIELDS if k not in record]
        if missing:
            raise InvalidModelError(f"model record is missing keys: {missing}")
        extra = [k for k in record if k not in MODEL_FIELDS]
        if extra:
            raise InvalidModelError(f"model record has unknown keys: {extra}")
        bad = {k: v for k, v in record.items() if type(v) not in (int, float)}
        if bad:
            raise InvalidModelError(f"model values must be JSON numbers, got {bad}")
        return cls(**{k: float(record[k]) for k in MODEL_FIELDS})

    def dumps(self) -> str:
        """Serialize to the flat key-value JSON record used by ``--model-file``."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "PopulationModel":
        try:
            record = json.loads(text, parse_int=float)  # a huge integer reads as inf
        except json.JSONDecodeError as exc:
            raise InvalidModelError(f"model file is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise InvalidModelError("model file must contain a flat JSON object")
        return cls.from_dict(record)


@dataclass(frozen=True, eq=False)  # arrays compare entry by entry, so no __eq__
class ModelArrays(_Derived):
    """Many population models at once: entry i of every field is model i.

    Each field is a one-dimensional float array of the same length. The
    arrays obey the rules of ``PopulationModel``, checked entry by entry.
    """

    p_d: np.ndarray
    pi_al: np.ndarray
    pi_mi: np.ndarray
    pi_ma: np.ndarray
    pi_ne: np.ndarray
    mu_01: np.ndarray
    mu_11: np.ndarray

    def __post_init__(self) -> None:
        _check_fields(self)


class Estimand(str, Enum):
    """Average-treatment-effect variants expressible as stratum-weighted averages."""

    ATE = "ATE"
    ATT = "ATT"
    ATE_M1 = "ATE_M1"
    ATT_M1 = "ATT_M1"

    @property
    def conditions_on_detainment(self) -> bool:
        return self in (Estimand.ATE_M1, Estimand.ATT_M1)


@dataclass(frozen=True)
class ThetaVector:
    """Stratum-specific race effects on force, E[Y(1) - Y(0) | S = s].

    Under mandatory reporting: theta_al = beta_y, theta_mi = beta_y + mu_01,
    theta_ma = -mu_01 and theta_ne = 0 identically.
    """

    theta_al: float
    theta_mi: float
    theta_ma: float
    theta_ne: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.theta_al, self.theta_mi, self.theta_ma, self.theta_ne)


@dataclass(frozen=True)
class StratumWeights:
    """Nonnegative stratum weights; ``normalized`` marks a unit-sum vector."""

    w_al: float
    w_mi: float
    w_ma: float
    w_ne: float
    normalized: bool = False

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.w_al, self.w_mi, self.w_ma, self.w_ne)

    @property
    def total(self) -> float:
        return self.w_al + self.w_mi + self.w_ma + self.w_ne

    def dot(self, theta: ThetaVector) -> float:
        """The contrast w . theta, added left to right from +0.0.

        Not ``sum()``: from Python 3.12 it adds floats with compensation but
        arrays without. Starting at +0.0 makes an all-zero contrast +0.0, as
        ``sum()`` does.
        """
        return (
            0.0
            + self.w_al * theta.theta_al
            + self.w_mi * theta.theta_mi
            + self.w_ma * theta.theta_ma
            + self.w_ne * theta.theta_ne
        )

    def normalize(self) -> "StratumWeights":
        total = self.total
        if np.any(total <= 0.0):
            raise ZeroMassError("cannot normalize an all-zero weight vector")
        return StratumWeights(
            self.w_al / total,
            self.w_mi / total,
            self.w_ma / total,
            self.w_ne / total,
            normalized=True,
        )


@dataclass(frozen=True)
class EstimandValue:
    """A stratum-weighted average together with its unnormalized pieces.

    ``value`` is the weighted average (w . theta) / (w . 1); ``contrast`` is
    the raw inner product w . theta. The two always share a sign because the
    weights are nonnegative.
    """

    value: float
    contrast: float
    weight_total: float


def theta_of(model: PopulationModel | ModelArrays) -> ThetaVector:
    """Stratum-specific effects of race on force for a valid model."""
    return ThetaVector(
        theta_al=model.beta_y,
        theta_mi=model.beta_y + model.mu_01,
        theta_ma=-model.mu_01,
        theta_ne=0.0,
    )


def weights_of(estimand: Estimand, model: PopulationModel | ModelArrays) -> StratumWeights:
    """Unnormalized stratum weights that express ``estimand`` as a theta average.

    ATE and ATT share the raw stratum masses. The detainment-conditional
    estimands reweight by the joint chance of landing in the records:
    P(S = s, M = 1) for ATE_M1 and P(S = s, M(1) = 1) for ATT_M1.

    Raises ZeroMassError when a detainment-conditional estimand's weights all
    vanish (conditioning on a null event).
    """
    estimand = Estimand(estimand)
    if not estimand.conditions_on_detainment:
        return StratumWeights(model.pi_al, model.pi_mi, model.pi_ma, model.pi_ne)
    if estimand is Estimand.ATE_M1:
        w = StratumWeights(
            model.pi_al,
            model.pi_mi * model.p_d,
            model.pi_ma * (1.0 - model.p_d),
            0.0,
        )
    else:  # ATT_M1
        w = StratumWeights(model.pi_al, model.pi_mi, 0.0, 0.0)
    if np.any(w.total <= 0.0):
        raise ZeroMassError(
            f"{estimand.value} conditions on detainment, which has probability zero"
        )
    return w


def estimand_value(estimand: Estimand, model: PopulationModel | ModelArrays) -> EstimandValue:
    """Evaluate an average treatment effect as a stratum-weighted theta average.

    Returns both the normalized average and the raw contrast w . theta; the
    sign-reversal witnesses are stated in terms of the raw contrast while the
    conditional-expectation reading is the normalized value.
    """
    weights = weights_of(estimand, model)
    contrast = weights.dot(theta_of(model))
    total = weights.total
    return EstimandValue(value=contrast / total, contrast=contrast, weight_total=total)


def pie_pde(model: PopulationModel | ModelArrays) -> tuple[float, float]:
    """Pure indirect and pure direct effect of race on force.

    pie = beta_m * mu_11 routes through detainment; pde = beta_y * E[M(0)] is
    the direct pathway. Their sum equals the unconditional ATE.
    """
    pie = model.beta_m * model.mu_11
    pde = model.beta_y * model.e_m0
    return pie, pde


def crr_true(model: PopulationModel | ModelArrays) -> float:
    """Population causal risk ratio E[Y(1)] / E[Y(0)].

    Raises ZeroDenominatorError when the majority-race force probability
    mu_01 * (pi_al + pi_ma) is zero.
    """
    denom = model.mu_01 * model.e_m0
    if np.any(denom <= 0.0):
        raise ZeroDenominatorError(
            "majority-race force probability is zero; risk ratio undefined"
        )
    return (model.mu_11 * model.e_m1) / denom


def identify_ey(d: int, model: PopulationModel) -> float:
    """Mean force counterfactual E[Y(d)] via the stopped-rate decomposition.

    Equals the force rate among stopped civilians of race ``d`` times the
    detainment rate under race ``d``; the d=1 over d=0 ratio reproduces
    crr_true exactly.
    """
    if d not in (0, 1):
        raise ValueError(f"race indicator must be 0 or 1, got {d!r}")
    if d == 1:
        return model.mu_11 * model.e_m1
    return model.mu_01 * model.e_m0


def naive_rr_true(model: PopulationModel | ModelArrays) -> float:
    """Population force-rate ratio among the detained: mu_11 / mu_01.

    This is what a ratio of record-level force rates estimates; it ignores
    who gets detained in the first place.
    """
    if np.any(model.mu_01 <= 0.0):
        raise ZeroDenominatorError("majority force rate among detained is zero")
    return model.mu_11 / model.mu_01


def bias_factor_true(model: PopulationModel) -> float:
    """Population odds ratio of race in detainments versus encounters.

    Algebraically equal to E[M(1)] / E[M(0)]; computed through the same
    odds-ratio route as the data estimator. Requires both races and both
    race-specific detainment rates to be non-degenerate.
    """
    joint1 = model.p_d * model.e_m1          # P(D=1, M=1)
    joint0 = (1.0 - model.p_d) * model.e_m0  # P(D=0, M=1)
    denominator = joint0 * model.p_d  # underflows to 0 for subnormal p_d
    if joint1 <= 0.0 or not 0.0 < model.p_d < 1.0 or not 0.0 < denominator < math.inf:
        raise DegenerateOddsError(
            "population race odds degenerate; bias factor undefined"
        )
    return (joint1 * (1.0 - model.p_d)) / denominator
