"""The randomized verify checks on model arrays: reference loops, mutations, details."""

import re
from dataclasses import replace

import numpy as np
import pytest

import crrkit.verify as verify
from crrkit.model import Estimand, estimand_value, pie_pde
from crrkit.verify import (
    check_decomposition,
    check_oracle_agreement,
    check_paradox_search,
    check_sign_consistency,
    model_blocks,
    sample_models,
)


def reference_counts(seed: int, draws: int) -> dict[str, int]:
    """The checks' counts from one scalar model at a time, as a plain loop."""
    counts = dict.fromkeys(("nonneg", "nonpos", "violations", "ate_m1", "att_m1"), 0)
    worst = 0.0
    for model in sample_models(np.random.default_rng(seed), draws):
        ate = estimand_value(Estimand.ATE, model).value
        att = estimand_value(Estimand.ATT, model).value
        if model.beta_m >= 0.0 and model.beta_y >= 0.0:
            counts["nonneg"] += 1
            counts["violations"] += ate < -1e-12 or att < -1e-12
        elif model.beta_m <= 0.0 and model.beta_y <= 0.0:
            counts["nonpos"] += 1
            counts["violations"] += ate > 1e-12 or att > 1e-12
        if model.beta_m > 0.0 and model.beta_y > 0.0:
            counts["ate_m1"] += estimand_value(Estimand.ATE_M1, model).value < 0.0
        elif model.beta_m < 0.0 and model.beta_y < 0.0:
            counts["att_m1"] += estimand_value(Estimand.ATT_M1, model).value > 0.0
        pie, pde = pie_pde(model)
        worst = max(worst, abs(pie + pde - estimand_value(Estimand.ATE, model).contrast))
    counts["worst"] = worst
    return counts


class TestArrayChecksMatchScalarLoop:
    @pytest.mark.parametrize("seed", [0, 1729, 31337])
    def test_counts_equal_the_reference_loop_across_blocks(self, monkeypatch, seed):
        monkeypatch.setattr(verify, "MODEL_BLOCK", 97)  # 500 draws span six blocks
        draws = 500
        ref = reference_counts(seed, draws)
        assert check_sign_consistency(seed, draws).detail == (
            f"{draws} models ({ref['nonneg']} with both effects >= 0, "
            f"{ref['nonpos']} with both <= 0), {ref['violations']} violations"
        )
        ate_m1, att_m1 = check_paradox_search(seed, draws)
        assert ate_m1.detail == f"{ref['ate_m1']} witnesses in {draws} draws"
        assert att_m1.detail == f"{ref['att_m1']} witnesses in {draws} draws"
        assert check_decomposition(seed, draws).detail == (
            f"max |pie + pde - ate| = {ref['worst']:.3e} over {draws} models"
        )

    def test_sample_models_yields_the_rows_of_model_blocks(self, monkeypatch):
        monkeypatch.setattr(verify, "MODEL_BLOCK", 4)
        blocks = list(model_blocks(np.random.default_rng(5), 10))
        assert [len(b.p_d) for b in blocks] == [4, 4, 2]
        rows = list(sample_models(np.random.default_rng(5), 10))
        for i, model in enumerate(rows):
            block = blocks[i // 4]
            assert model.to_dict() == {
                name: float(getattr(block, name)[i % 4]) for name in model.to_dict()
            }

    def test_stream_detail_at_default_seed(self):
        # The three random checks' detail at seed 1729 and 4000 draws, pinned.
        assert check_sign_consistency(1729, 4000).detail == (
            "4000 models (1051 with both effects >= 0, 977 with both <= 0), 0 violations"
        )
        assert [r.detail for r in check_paradox_search(1729, 4000)] == [
            "71 witnesses in 4000 draws",
            "355 witnesses in 4000 draws",
        ]
        assert check_decomposition(1729, 4000).detail == (
            "max |pie + pde - ate| = 2.220e-16 over 4000 models"
        )


class TestChecksCanFail:
    def test_shifted_pie_fails_decomposition(self, monkeypatch):
        def shifted(models):
            pie, pde = pie_pde(models)
            return pie + 1e-9, pde

        monkeypatch.setattr(verify, "pie_pde", shifted)
        result = check_decomposition(1729, 1000)
        assert not result.passed
        assert result.detail.startswith("max |pie + pde - ate| = 1.000e-09")

    def test_flipped_ate_counts_sign_violations(self, monkeypatch):
        def flipped(estimand, models):
            value = estimand_value(estimand, models)
            if Estimand(estimand) is Estimand.ATE:
                return replace(value, value=-value.value, contrast=-value.contrast)
            return value

        monkeypatch.setattr(verify, "estimand_value", flipped)
        result = check_sign_consistency(1729, 1000)
        assert not result.passed
        violations = int(re.search(r"(\d+) violations$", result.detail).group(1))
        assert violations > 100

    def test_no_ate_m1_witness_fails_the_search(self):
        ate_m1, att_m1 = check_paradox_search(seed=1, draws=10)
        assert not ate_m1.passed
        assert ate_m1.detail == "0 witnesses in 10 draws"
        assert att_m1.passed


class TestOracleDetail:
    def test_passing_detail_is_unchanged(self):
        result = check_oracle_agreement(1729, n=200_000)
        assert result.passed
        assert result.detail == (
            "5 models at n=200000; worst |z| = 1.74 (pie[model 3]), allowed 4.0"
        )

    def test_undefined_fields_are_reported_apart_from_the_worst_z(self):
        # Every |z| is below 4 here; only undefined fields fail the check.
        result = check_oracle_agreement(1731, n=40)
        assert not result.passed
        assert result.detail == (
            "5 models at n=40; worst |z| = 2.21 (pde[model 1]), allowed 4.0; "
            "6 undefined (first att[model 0])"
        )

    def test_worst_z_label_names_a_defined_field(self):
        result = check_oracle_agreement(1729, n=5)
        assert not result.passed
        assert re.match(
            r"5 models at n=5; worst \|z\| = [0-9.]+ \(\w+\[model \d\]\), allowed 4\.0; "
            r"\d+ undefined \(first \w+\[model \d\]\)$",
            result.detail,
        ), result.detail

    def test_no_defined_field_prints_no_z(self):
        result = check_oracle_agreement(1729, n=1)
        assert not result.passed
        assert result.detail == (
            "5 models at n=1; no field defined, allowed 4.0; 45 undefined (first ate[model 0])"
        )
