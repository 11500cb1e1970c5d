"""Self-contained verification suite for the closed-form estimands.

Four families of checks:

  1. Three witness models where detainment-conditional effects reverse the
     shared sign of the underlying discrimination effects; their raw
     contrasts must reproduce fixed six-decimal values.
  2. Randomized sign consistency: the unconditional ATE/ATT always inherit
     the shared sign of the detainment and force effects.
  3. The indirect/direct decomposition sums to the ATE exactly.
  4. Monte Carlo agreement between every closed-form estimand and the
     brute-force oracle.

The randomized checks (2, 3 and the sign-reversal searches) share one pass
over random models, which evaluates the closed forms on blocks of models at
once (``model_blocks``), so their cost and memory stay small for any ``draws``.
The checks return structured results; the CLI's ``verify`` subcommand
renders them and converts failures into a nonzero exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import (
    MODEL_FIELDS,
    Estimand,
    ModelArrays,
    PopulationModel,
    crr_true,
    estimand_value,
    naive_rr_true,
    pie_pde,
    theta_of,
    weights_of,
)
from .simulate import ORACLE_FIELDS, oracle_estimands, sample_encounters

DEFAULT_VERIFY_SEED = 1729

#: Most models drawn and checked at once, so memory stays flat in ``draws``.
MODEL_BLOCK = 65_536

#: Interior models the oracle check draws besides ``TOY_MODEL``.
ORACLE_EXTRA_MODELS = 4

#: Largest |closed form - oracle| / SE the oracle check allows for any field.
ORACLE_MAX_Z = 4.0

#: Demonstration model used across tests and docs: half minority encounters,
#: strata (al, mi, ma, ne) = (0.2, 0.1, 0, 0.7), force rates 0.1 / 0.2.
#: Its causal risk ratio is exactly 3 while the record-level ratio is 2.
TOY_MODEL = PopulationModel(
    p_d=0.5, pi_al=0.2, pi_mi=0.1, pi_ma=0.0, pi_ne=0.7, mu_01=0.1, mu_11=0.2
)


@dataclass(frozen=True)
class SignReversalWitness:
    """A model whose conditional estimand opposes the sign of both effects."""

    name: str
    model: PopulationModel
    estimand: Estimand
    expected_contrast: float


def sign_reversal_witnesses() -> tuple[SignReversalWitness, ...]:
    common = dict(pi_al=0.1, pi_ma=0.05, mu_01=0.1)
    return (
        SignReversalWitness(
            "positive effects, negative detainment-conditional ATE",
            PopulationModel.from_effects(p_d=0.01, beta_m=0.01, beta_y=0.01, **common),
            Estimand.ATE_M1,
            -0.003884,
        ),
        SignReversalWitness(
            "negative effects, positive detainment-conditional ATE",
            PopulationModel.from_effects(p_d=0.99, beta_m=-0.01, beta_y=-0.01, **common),
            Estimand.ATE_M1,
            0.002514,
        ),
        SignReversalWitness(
            "negative effects, positive detainment-conditional ATT",
            PopulationModel.from_effects(p_d=0.01, beta_m=-0.01, beta_y=-0.01, **common),
            Estimand.ATT_M1,
            0.0026,
        ),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def model_blocks(rng: np.random.Generator, count: int) -> Iterator[ModelArrays]:
    """``count`` random valid models, in blocks of at most ``MODEL_BLOCK``.

    Each block draws its stratum masses from a flat Dirichlet, then p_d,
    mu_01 and mu_11 uniformly, covering the whole parameter space.
    """
    for start in range(0, count, MODEL_BLOCK):
        size = min(MODEL_BLOCK, count - start)
        pi = rng.dirichlet(np.ones(4), size=size)
        p_d, mu_01, mu_11 = rng.uniform(size=(3, size))
        pi /= pi.sum(axis=1, keepdims=True)
        pi_al, pi_mi, pi_ma, _ = pi.T
        yield ModelArrays(p_d, pi_al, pi_mi, pi_ma, 1.0 - pi_al - pi_mi - pi_ma, mu_01, mu_11)


def sample_models(
    rng: np.random.Generator, count: int, *, interior: bool = False
) -> Iterator[PopulationModel]:
    """Random valid models; ``interior`` keeps every estimand well-defined.

    The unconstrained sampler yields the rows of ``model_blocks``. The
    interior sampler draws one model at a time, bounds prevalences and force
    rates away from 0 and 1 and rejects populations that almost never detain,
    so Monte Carlo comparisons keep all denominators healthy.
    """
    if not interior:
        for block in model_blocks(rng, count):
            columns = (getattr(block, name).tolist() for name in MODEL_FIELDS)
            yield from (PopulationModel(*row) for row in zip(*columns))
        return
    produced = 0
    while produced < count:
        pi = rng.dirichlet(np.ones(4))
        p_d = rng.uniform(0.1, 0.9)
        mu_01 = rng.uniform(0.05, 0.95)
        mu_11 = rng.uniform(0.05, 0.95)
        if pi[0] + pi[2] < 0.05 or pi[0] + pi[1] < 0.05:
            continue
        pi_al, pi_mi, pi_ma, _ = (pi / pi.sum()).tolist()
        produced += 1
        yield PopulationModel(
            float(p_d), pi_al, pi_mi, pi_ma, 1.0 - pi_al - pi_mi - pi_ma, float(mu_01), float(mu_11)
        )


def check_sign_reversal_witnesses() -> list[CheckResult]:
    """Reproduce the three witness contrasts to six decimal places.

    Also confirms that each normalized value shares the contrast's sign and
    that the sign really opposes both underlying effects.
    """
    results = []
    for i, witness in enumerate(sign_reversal_witnesses(), start=1):
        weights = weights_of(witness.estimand, witness.model)
        contrast = weights.dot(theta_of(witness.model))
        normalized = contrast / weights.total

        effects_sign = math.copysign(1.0, witness.model.beta_m)
        reproduced = abs(contrast - witness.expected_contrast) < 5e-7
        flipped = contrast * effects_sign < 0.0
        same_sign = normalized * contrast > 0.0
        passed = reproduced and flipped and same_sign
        results.append(
            CheckResult(
                name=f"sign-reversal witness {i} ({witness.estimand.value})",
                passed=passed,
                detail=(
                    f"contrast={contrast:.9f} expected={witness.expected_contrast} "
                    f"normalized={normalized:.9f}"
                ),
            )
        )
    return results


def _random_checks(seed: int, draws: int) -> list[CheckResult]:
    """Sign consistency, both sign-reversal searches and the decomposition, in that order.

    One pass over ``draws`` models from ``default_rng(seed)`` serves all four checks.
    """
    tol = 1e-12
    violations = both_nonneg = both_nonpos = ate_m1_hits = att_m1_hits = 0
    worst = 0.0
    for models in model_blocks(np.random.default_rng(seed), draws):
        ate = estimand_value(Estimand.ATE, models)
        att = estimand_value(Estimand.ATT, models).value
        ate_m1 = estimand_value(Estimand.ATE_M1, models).value
        att_m1 = estimand_value(Estimand.ATT_M1, models).value
        pie, pde = pie_pde(models)
        beta_m, beta_y = models.beta_m, models.beta_y
        nonneg = (beta_m >= 0.0) & (beta_y >= 0.0)
        nonpos = ~nonneg & (beta_m <= 0.0) & (beta_y <= 0.0)
        both_nonneg += int(np.count_nonzero(nonneg))
        both_nonpos += int(np.count_nonzero(nonpos))
        violations += int(np.count_nonzero(nonneg & ((ate.value < -tol) | (att < -tol))))
        violations += int(np.count_nonzero(nonpos & ((ate.value > tol) | (att > tol))))
        ate_m1_hits += int(np.count_nonzero((beta_m > 0.0) & (beta_y > 0.0) & (ate_m1 < 0.0)))
        att_m1_hits += int(np.count_nonzero((beta_m < 0.0) & (beta_y < 0.0) & (att_m1 > 0.0)))
        worst = max(worst, float(np.max(np.abs(pie + pde - ate.contrast))))
    return [
        CheckResult(
            "sign consistency of ATE/ATT",
            violations == 0,
            f"{draws} models ({both_nonneg} with both effects >= 0, "
            f"{both_nonpos} with both <= 0), {violations} violations",
        ),
        CheckResult(
            "sign reversal found: ATE_M1 < 0 with positive effects",
            ate_m1_hits >= 1,
            f"{ate_m1_hits} witnesses in {draws} draws",
        ),
        CheckResult(
            "sign reversal found: ATT_M1 > 0 with negative effects",
            att_m1_hits >= 1,
            f"{att_m1_hits} witnesses in {draws} draws",
        ),
        CheckResult(
            "indirect + direct effects equal the ATE",
            worst <= tol,
            f"max |pie + pde - ate| = {worst:.3e} over {draws} models",
        ),
    ]


def check_sign_consistency(seed: int, draws: int = 10_000) -> CheckResult:
    """ATE and ATT inherit the shared sign of the two effects over random models."""
    return _random_checks(seed, draws)[0]


def check_paradox_search(seed: int, draws: int = 10_000) -> list[CheckResult]:
    """The randomized search must exhibit both sign-reversal phenomena."""
    return _random_checks(seed, draws)[1:3]


def check_decomposition(seed: int, draws: int = 10_000) -> CheckResult:
    """pie + pde equals the ATE contrast exactly (up to float rounding)."""
    return _random_checks(seed, draws)[3]


_CLOSED_FORMS = {
    "ate": lambda m: estimand_value(Estimand.ATE, m).value,
    "att": lambda m: estimand_value(Estimand.ATT, m).value,
    "ate_m1": lambda m: estimand_value(Estimand.ATE_M1, m).value,
    "att_m1": lambda m: estimand_value(Estimand.ATT_M1, m).value,
    "pie": lambda m: pie_pde(m)[0],
    "pde": lambda m: pie_pde(m)[1],
    "crr": crr_true,
    "naive_rr": naive_rr_true,
    "naive_rd": lambda m: m.beta_y,
}


def closed_form_value(field: str, model: PopulationModel) -> float:
    """Closed-form counterpart of an oracle-report field."""
    return _CLOSED_FORMS[field](model)


def check_oracle_agreement(seed: int, n: int = 100_000) -> CheckResult:
    """Every oracle field agrees with its closed form within ``ORACLE_MAX_Z`` SEs.

    Restricted to interior models: the SE-based gate assumes roughly normal
    estimates with reliable SE estimates, which fails for populations whose
    race or detainment groups are near-empty.
    """
    rng = np.random.default_rng(seed)
    models = [TOY_MODEL]
    models += list(sample_models(rng, ORACLE_EXTRA_MODELS, interior=True))

    worst = 0.0
    worst_label = ""
    undefined = []
    for i, model in enumerate(models):
        table = sample_encounters(model, n, seed=int(rng.integers(2**63)))
        report = oracle_estimands(table)
        for field in ORACLE_FIELDS:
            estimate = report.field(field)
            if estimate.value is None or estimate.se is None or estimate.se == 0.0:
                undefined.append(f"{field}[model {i}]")
                continue
            z = abs(closed_form_value(field, model) - estimate.value) / estimate.se
            if z > worst:
                worst, worst_label = z, f"{field}[model {i}]"
    worst_z = f"worst |z| = {worst:.2f} ({worst_label})" if worst_label else "no field defined"
    detail = f"{len(models)} models at n={n}; {worst_z}, allowed {ORACLE_MAX_Z}"
    if undefined:
        detail += f"; {len(undefined)} undefined (first {undefined[0]})"
    return CheckResult(
        name="oracle agrees with closed forms",
        passed=worst <= ORACLE_MAX_Z and not undefined,
        detail=detail,
    )


def run_verification(
    seed: int = DEFAULT_VERIFY_SEED,
    draws: int = 10_000,
    oracle_n: int = 100_000,
) -> list[CheckResult]:
    """Run the full verification suite; order is stable for reporting."""
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    results = check_sign_reversal_witnesses()
    results += _random_checks(seed, draws)
    results.append(check_oracle_agreement(seed, oracle_n))
    return results
