"""Simulator tests: structural invariants, determinism, and oracle agreement."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from crrkit import simulate
from crrkit.estimate import ExternalRaceDistribution, bias_factor, naive_risk_ratio
from crrkit.model import Estimand, PopulationModel, estimand_value, weights_of
from crrkit.simulate import (
    ORACLE_FIELDS,
    EncounterTable,
    OracleEstimate,
    OracleReport,
    external_from_table,
    oracle_estimands,
    sample_encounters,
    to_administrative,
)
from crrkit.verify import TOY_MODEL, closed_form_value, sample_models


def make_model(p_d=0.5, pi=(0.25, 0.25, 0.25, 0.25), mu_01=0.5, mu_11=0.5):
    return PopulationModel(p_d, *pi, mu_01, mu_11)


def traced_peak(f, *args):
    """The peak of the memory that ``f(*args)`` allocates through Python, in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_columns(model, n, seed):
    """Every column of ``n`` encounters drawn as one ``rng.random(n)`` call per column."""
    rng = np.random.default_rng(seed)
    d = rng.random(n) < model.p_d
    u = rng.random(n)
    cuts = (model.pi_al, model.pi_al + model.pi_mi, model.pi_al + model.pi_mi + model.pi_ma)
    s = (u >= cuts[0]).astype(int) + (u >= cuts[1]) + (u >= cuts[2])
    y01 = rng.random(n) < model.mu_01
    y11 = rng.random(n) < model.mu_11
    m0 = (s == 0) | (s == 2)
    m1 = (s == 0) | (s == 1)
    m = np.where(d, m1, m0)
    y = m & np.where(d, y11, y01)
    columns = {"d": d, "s": s, "m0": m0, "m1": m1, "y01": y01, "y11": y11, "m": m, "y": y}
    return {col: values.astype(int) for col, values in columns.items()}


class TestSampling:
    def test_never_stopped_population(self):
        table = sample_encounters(make_model(pi=(0, 0, 0, 1.0)), 500, seed=1)
        assert not table.m.any()
        assert not table.y.any()

    def test_always_stopped_always_forced(self):
        model = make_model(pi=(1.0, 0, 0, 0), mu_01=1.0, mu_11=1.0)
        table = sample_encounters(model, 500, seed=1)
        assert table.m.all()
        assert table.y.all()

    def test_structural_consistency(self):
        table = sample_encounters(make_model(), 20_000, seed=3)
        s = table.s
        assert np.array_equal(table.m0, ((s == 0) | (s == 2)).astype(np.int8))
        assert np.array_equal(table.m1, ((s == 0) | (s == 1)).astype(np.int8))
        assert np.array_equal(table.m, np.where(table.d == 1, table.m1, table.m0))
        expected_y = table.m * np.where(table.d == 1, table.y11, table.y01)
        assert np.array_equal(table.y, expected_y)

    def test_mandatory_reporting_in_samples(self):
        rng = np.random.default_rng(5)
        for model in sample_models(rng, 10):
            table = sample_encounters(model, 2000, seed=int(rng.integers(2**63)))
            assert not np.any((table.m == 0) & (table.y == 1))

    def test_columns_follow_a_hand_written_code(self):
        # d | s << 1 | y01 << 3 | y11 << 4, with m and y filled in by consistency
        code = np.array([0b10111, 0b01000, 0b11101, 0b00110, 0b11011], dtype=np.int8)
        table = EncounterTable(code, "all")
        expected = {
            "d": [1, 0, 1, 0, 1],
            "s": [3, 0, 2, 3, 1],
            "y01": [0, 1, 1, 0, 1],
            "y11": [1, 0, 1, 0, 1],
            "m0": [0, 1, 1, 0, 0],  # stopped as majority in al (0) and ma (2)
            "m1": [0, 1, 0, 0, 1],  # stopped as minority in al (0) and mi (1)
            "m": [0, 1, 0, 0, 1],
            "y": [0, 1, 0, 0, 1],
        }
        for col, values in expected.items():
            column = getattr(table, col)
            assert column.dtype == np.int8, col
            assert column.tolist() == values, col
        assert table.n == 5

    def test_determinism(self):
        a = sample_encounters(TOY_MODEL, 5000, seed=11)
        b = sample_encounters(TOY_MODEL, 5000, seed=11)
        for col in ("d", "s", "m0", "m1", "y01", "y11", "m", "y"):
            assert np.array_equal(getattr(a, col), getattr(b, col))
        c = sample_encounters(TOY_MODEL, 5000, seed=12)
        assert not np.array_equal(a.d, c.d)

    def test_stream_matches_reference_draws(self):
        # one default_rng(seed) draws d, s, y01 and y11 in that order; the
        # detainment and observed columns follow by consistency
        n, seed = 1003, 11
        table = sample_encounters(TOY_MODEL, n, seed=seed)
        for col, values in reference_columns(TOY_MODEL, n, seed).items():
            column = getattr(table, col)
            assert column.dtype == np.int8, col
            assert np.array_equal(column, values.astype(np.int8)), col

    @pytest.mark.parametrize("block", [97, 1])
    def test_outputs_do_not_depend_on_the_block_size(self, monkeypatch, block):
        # each column is drawn a block at a time, which continues one draw of n;
        # the projection and the race counts step through the same blocks
        monkeypatch.setattr(simulate, "BLOCK", block)
        model = PopulationModel(0.4, 0.3, 0.2, 0.1, 0.4, 0.3, 0.6)
        for n in (1, 96, 97, 98, 298):
            table = sample_encounters(model, n, seed=n)
            want = reference_columns(model, n, seed=n)
            code = want["d"] | want["s"] << 1 | want["y01"] << 3 | want["y11"] << 4
            assert np.array_equal(table.code, code.astype(np.int8)), n
            admin = to_administrative(table)
            detained = want["m"] == 1
            assert np.array_equal(admin.cell, 2 * want["d"][detained] + want["y"][detained]), n
            assert admin.cell.dtype == np.int32
            got = external_from_table(table)
            race_counts = np.bincount(want["d"], minlength=2)
            ref = ExternalRaceDistribution.from_cells(
                (table.x,), [0, 0], [[0.0, 1.0], [1.0, 1.0]], race_counts
            )
            for name in ("bounds", "cells", "sizes"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), (name, n)

    @pytest.mark.parametrize(
        "model, n, seed, digest",
        [
            # TOY_MODEL has pi_ma = 0, so two stratum cuts tie
            (TOY_MODEL, 1003, 11, "ecf785373971745aa5e5bd40186b4a814e5a040cb6650f1a3692e74db128db1a"),
            (
                PopulationModel(0.3, 0.0, 0.25, 0.35, 0.4, 0.15, 0.45),  # pi_al = 0
                4099,
                5,
                "71be973e3fa79129520a6791612ab7296dbd0c8f5c929f2a0bce9de93e300393",
            ),
            (
                PopulationModel(0.62, 0.3, 0.2, 0.1, 0.4, 0.05, 0.3),
                65_537,
                2026,
                "8b9e9223ec3cabe71bbf705b6dfabbee6c667e1ebe8c2ba2f8bd161c5cee7549",
            ),
        ],
    )
    def test_columns_are_pinned(self, model, n, seed, digest):
        # any change to a draw, its order, or a column's dtype or derivation changes the digest
        table = sample_encounters(model, n, seed)
        h = hashlib.sha256()
        for col in ("d", "s", "m0", "m1", "y01", "y11", "m", "y"):
            column = getattr(table, col)
            h.update(f"{col}:{column.dtype.str}:".encode())
            h.update(column.tobytes())
        assert h.hexdigest() == digest

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_encounters(TOY_MODEL, 0, seed=1)
        with pytest.raises(TypeError):
            sample_encounters({"p_d": 0.5}, 10, seed=1)

    def test_marginal_rates_match_model(self):
        n = 200_000
        table = sample_encounters(TOY_MODEL, n, seed=17)
        se_d = math.sqrt(0.5 * 0.5 / n)
        assert np.mean(table.d) == pytest.approx(0.5, abs=4 * se_d)
        se_m = math.sqrt(0.25 * 0.75 / n)
        assert np.mean(table.m) == pytest.approx(TOY_MODEL.p_m1, abs=4 * se_m)


class TestAdministrativeProjection:
    def test_filters_to_detained_and_preserves_order(self):
        table = sample_encounters(TOY_MODEL, 2000, seed=23)
        admin = to_administrative(table)
        mask = table.m == 1
        assert admin.n == int(mask.sum())
        assert np.array_equal(admin.d, table.d[mask])
        assert np.array_equal(admin.y, table.y[mask])
        assert all(x == table.x for x in admin.x)

    def test_empty_when_never_stopped(self):
        table = sample_encounters(make_model(pi=(0, 0, 0, 1.0)), 100, seed=1)
        assert to_administrative(table).n == 0

    def test_detained_fraction_matches_closed_form(self):
        n = 1_000_000
        table = sample_encounters(TOY_MODEL, n, seed=29)
        fraction = to_administrative(table).n / n
        se = math.sqrt(0.25 * 0.75 / n)
        assert fraction == pytest.approx(0.25, abs=3 * se)


def _reference_mean(values):
    k = len(values)
    if k == 0:
        return OracleEstimate(None, None)
    se = float(np.std(values, ddof=1) / math.sqrt(k)) if k >= 2 else None
    return OracleEstimate(float(np.mean(values)), se)


def _reference_group(values):
    k = len(values)
    mean = float(np.mean(values)) if k else 0.0
    return k, mean, float(np.var(values, ddof=1)) if k >= 2 else None


def _reference_ratio(num, den):
    k1, m1, v1 = _reference_group(num)
    k0, m0, v0 = _reference_group(den)
    if k1 == 0 or k0 == 0 or m0 == 0.0:
        return OracleEstimate(None, None)
    if v1 is None or v0 is None:
        return OracleEstimate(m1 / m0, None)
    var = v1 / (k1 * m0**2) + (m1**2 / m0**4) * (v0 / k0)
    return OracleEstimate(m1 / m0, math.sqrt(var))


def _reference_difference(a, b):
    k1, m1, v1 = _reference_group(a)
    k0, m0, v0 = _reference_group(b)
    if k1 == 0 or k0 == 0:
        return OracleEstimate(None, None)
    se = math.sqrt(v1 / k1 + v0 / k0) if v1 is not None and v0 is not None else None
    return OracleEstimate(m1 - m0, se)


def reference_oracle(table):
    """The oracle as plain np.mean / np.var over row arrays."""
    diff = (table.y11 * table.m1).astype(np.int16) - (table.y01 * table.m0).astype(np.int16)
    is_d1 = table.d == 1
    is_m1 = table.m == 1
    y = table.y.astype(np.int16)
    return OracleReport(
        ate=_reference_mean(diff),
        att=_reference_mean(diff[is_d1]),
        ate_m1=_reference_mean(diff[is_m1]),
        att_m1=_reference_mean(diff[is_d1 & is_m1]),
        pie=_reference_mean((table.y11 * (table.m1 - table.m0)).astype(np.int16)),
        pde=_reference_mean(((table.y11 - table.y01) * table.m0).astype(np.int16)),
        crr=_reference_ratio(y[is_d1], y[~is_d1]),
        naive_rr=_reference_ratio(y[is_d1 & is_m1], y[~is_d1 & is_m1]),
        naive_rd=_reference_difference(y[is_d1 & is_m1], y[~is_d1 & is_m1]),
        n=table.n,
    )


EDGE_MODELS = [
    make_model(p_d=0.0),
    make_model(p_d=1.0),
    make_model(pi=(0, 0, 0, 1.0)),  # pi_ne = 1: nobody is stopped
    TOY_MODEL,  # pi_ma = 0
    make_model(p_d=1.0, pi=(0.6, 0.4, 0, 0), mu_01=0.0, mu_11=1.0),
    make_model(pi=(1.0, 0, 0, 0), mu_01=1.0, mu_11=1.0),
]


class TestOracleMatchesRowAverages:
    @pytest.mark.parametrize("n", [1, 2, 5, 40, 10_000])
    def test_values_equal_and_ses_within_4_ulp(self, n):
        rng = np.random.default_rng(n)
        models = EDGE_MODELS + list(sample_models(rng, 6)) + list(sample_models(rng, 6, interior=True))
        for i, model in enumerate(models):
            table = sample_encounters(model, n, seed=int(rng.integers(2**63)))
            got, want = oracle_estimands(table), reference_oracle(table)
            assert got.n == want.n
            for field in ORACLE_FIELDS:
                g, w = got.field(field), want.field(field)
                label = f"{field}, model {i}, n={n}"
                assert g.value == w.value, label
                assert (g.se is None) == (w.se is None), label
                if w.se is not None:
                    assert abs(g.se - w.se) <= 4 * math.ulp(w.se), label

    @pytest.mark.parametrize(
        "bad", [np.int8(32), np.int8(-1), np.float64(3.0)], ids=["above-31", "negative", "float"]
    )
    def test_code_outside_the_cells_raises(self, bad):
        # the table refuses the code, so neither the oracle nor a writer reads a wrong cell
        code = sample_encounters(TOY_MODEL, 100, seed=1).code.astype(np.asarray(bad).dtype)
        code[17] = bad
        with pytest.raises(ValueError, match="code must"):
            oracle_estimands(EncounterTable(code, "all"))

    def test_oracle_memory_stays_blocked(self):
        # bincount copies its input to intp: 8 MB for one unblocked 10^6-row code
        table = sample_encounters(TOY_MODEL, 1_000_000, seed=2)
        assert traced_peak(oracle_estimands, table) < 2_000_000

    def test_sampling_memory_stays_blocked(self):
        # the 1 MB code plus one block of draws and comparisons; a float64 column
        # and its comparison drawn whole take 11 MB at 10^6 rows
        assert traced_peak(sample_encounters, TOY_MODEL, 1_000_000, 2) < 3_000_000


class TestOracle:
    def test_toy_model_ratios(self):
        table = sample_encounters(TOY_MODEL, 1_000_000, seed=31)
        report = oracle_estimands(table)
        naive = report.naive_rr
        crr = report.crr
        assert naive.value == pytest.approx(2.0, abs=3 * naive.se)
        assert crr.value == pytest.approx(3.0, abs=3 * crr.se)

    def test_witness_sign_shows_up_in_samples(self):
        model = PopulationModel.from_effects(
            p_d=0.01, pi_al=0.1, pi_ma=0.05, beta_m=0.01, mu_01=0.1, beta_y=0.01
        )
        table = sample_encounters(model, 1_000_000, seed=37)
        report = oracle_estimands(table)
        assert model.beta_m > 0 and model.beta_y > 0
        assert report.ate_m1.value < 0
        assert report.ate_m1.value + 4 * report.ate_m1.se < 0  # decisively negative

    def test_degenerate_prevalence_undefines_race_fields(self):
        table = sample_encounters(make_model(p_d=1.0), 1000, seed=1)
        report = oracle_estimands(table)
        assert report.att.defined and report.att_m1.defined
        assert not report.crr.defined and not report.naive_rr.defined
        table = sample_encounters(make_model(p_d=0.0), 1000, seed=1)
        report = oracle_estimands(table)
        assert not report.att.defined
        assert report.ate.defined

    def test_determinism(self):
        a = oracle_estimands(sample_encounters(TOY_MODEL, 10_000, seed=41))
        b = oracle_estimands(sample_encounters(TOY_MODEL, 10_000, seed=41))
        assert a == b

    def test_oracle_agrees_with_closed_forms(self):
        rng = np.random.default_rng(43)
        n = 50_000
        for model in sample_models(rng, 20, interior=True):
            table = sample_encounters(model, n, seed=int(rng.integers(2**63)))
            report = oracle_estimands(table)
            for field in ORACLE_FIELDS:
                estimate = report.field(field)
                assert estimate.defined and estimate.se
                closed = closed_form_value(field, model)
                assert estimate.value == pytest.approx(closed, abs=4 * estimate.se), field

    def test_identification_identity_is_count_exact(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 10:
            model = next(sample_models(rng, 1, interior=True))
            table = sample_encounters(model, 400, seed=int(rng.integers(2**63)))
            admin = to_administrative(table)
            report = oracle_estimands(table)
            if not report.crr.defined or not report.naive_rr.defined:
                continue
            external = external_from_table(table)
            product = naive_risk_ratio(admin) * bias_factor(admin, external)
            assert product == pytest.approx(report.crr.value, abs=1e-10)
            checked += 1

    def test_stratum_shares_match_conditional_weights(self):
        # normalized ATE_M1 / ATT_M1 weights are the detained-population
        # stratum shares; compare against brute-force frequencies
        rng = np.random.default_rng(53)
        n = 100_000
        for model in sample_models(rng, 5, interior=True):
            table = sample_encounters(model, n, seed=int(rng.integers(2**63)))
            detained = table.s[table.m == 1]
            w = weights_of(Estimand.ATE_M1, model).normalize().as_tuple()
            for code in range(4):
                share = float(np.mean(detained == code))
                se = math.sqrt(max(w[code] * (1 - w[code]), 1e-12) / len(detained))
                assert share == pytest.approx(w[code], abs=4 * se + 1e-9)
            treated_detained = table.s[(table.m == 1) & (table.d == 1)]
            w = weights_of(Estimand.ATT_M1, model).normalize().as_tuple()
            for code in range(4):
                share = float(np.mean(treated_detained == code))
                se = math.sqrt(max(w[code] * (1 - w[code]), 1e-12) / len(treated_detained))
                assert share == pytest.approx(w[code], abs=4 * se + 1e-9)

    def test_conditional_estimands_match_oracle_normalized(self):
        # the normalized weighted averages are the conditional expectations
        table = sample_encounters(TOY_MODEL, 500_000, seed=59)
        report = oracle_estimands(table)
        for estimand, field in ((Estimand.ATE_M1, "ate_m1"), (Estimand.ATT_M1, "att_m1")):
            closed = estimand_value(estimand, TOY_MODEL).value
            estimate = report.field(field)
            assert estimate.value == pytest.approx(closed, abs=4 * estimate.se)
