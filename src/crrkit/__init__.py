"""Causal risk ratios from selectively observed detainment records.

Administrative police records describe only the encounters that ended in a
detainment, so force-rate comparisons computed from them condition on a
post-treatment event. This package provides the closed-form population
estimands for that setting, a seeded Monte Carlo simulator whose brute-force
averages serve as an oracle, and data-facing estimation of the
selection-adjusted causal risk ratio with bootstrap confidence intervals,
stratification, and a local/citywide mixture sensitivity analysis.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it. A submodule is imported
#: on the first access to one of its names, so ``import crrkit`` stays cheap
#: and a command loads only what it runs.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "errors"),
        (
            "estimate",
            "AdministrativeDataset EstimateWithCI ExternalRaceDistribution StratumResult "
            "bias_factor bootstrap crr_identified naive_risk_difference naive_risk_ratio "
            "sensitivity_mixture stratified_estimates",
        ),
        (
            "model",
            "Estimand EstimandValue PopulationModel StratumWeights ThetaVector "
            "bias_factor_true crr_true estimand_value identify_ey naive_rr_true pie_pde "
            "theta_of weights_of",
        ),
        (
            "simulate",
            "EncounterTable OracleEstimate OracleReport external_from_table "
            "external_from_tables oracle_estimands sample_encounters to_administrative",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a public name on first access (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
