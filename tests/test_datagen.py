import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from dsbench.core import pool
from dsbench.datagen import (DGPS, GRIDS, ConfigError, ScenarioSpec,
                             deviation_levels, rng_for,
                             sample_scenario, sample_sizes, scale_factor,
                             scenario_grid, shift_offset)


def spec(**kw):
    base = dict(dgp="normal", deviation="null", magnitude=0.0, n_total=100,
                p=2, balance="balanced")
    base.update(kw)
    return ScenarioSpec(**base)


class TestSampleSizes:
    def test_unbalanced_two_sample(self):
        assert sample_sizes(spec(balance="unbalanced")) == (20, 80)

    def test_increasing_four_sample(self):
        s = spec(k=4, grouping="3+1", balance="unbalanced")
        assert sample_sizes(s) == (10, 20, 30, 40)

    def test_balanced_fifty(self):
        assert sample_sizes(spec(n_total=50)) == (25, 25)

    def test_non_integral_split_rejected(self):
        # when the spec is built, before any draw
        with pytest.raises(ConfigError, match="'n_total'"):
            spec(n_total=55)


class TestSpecValidation:
    def test_chisq_correlation_invalid(self):
        with pytest.raises(ConfigError):
            spec(dgp="chisq1", deviation="correlation", magnitude=0.3)

    def test_normal_vs_t_needs_k2(self):
        with pytest.raises(ConfigError):
            spec(deviation="normal_vs_t", magnitude=5.0, k=4,
                 grouping="3+1")

    def test_with_target_rejected(self):
        with pytest.raises(ConfigError, match="'with_target'"):
            spec(with_target=True)
        with pytest.raises(ConfigError, match="unknown deviation"):
            spec(deviation="ogm_sign")

    @pytest.mark.parametrize("kw, field", [
        (dict(n_total=0), "n_total"), (dict(n_total=-4), "n_total"),
        (dict(p=0), "p"),
        (dict(deviation="shift", magnitude=math.nan), "magnitude"),
        (dict(deviation="shift", magnitude=math.inf), "magnitude"),
        (dict(magnitude=-math.inf), "magnitude"),
        (dict(deviation="scale", magnitude=0.0), "magnitude"),
        (dict(deviation="scale", magnitude=-2.0), "magnitude"),
        (dict(dgp="lognormal", deviation="scale", magnitude=0.0),
         "magnitude"),
        (dict(deviation="scale", magnitude=1e200, k=4, grouping="1+1+1+1"),
         "magnitude"),
        (dict(deviation="scale", magnitude=1e200, k=4, grouping="2+1+1"),
         "magnitude"),
        (dict(deviation="normal_vs_t", magnitude=2.0), "magnitude"),
        (dict(deviation="normal_vs_t", magnitude=1.0), "magnitude"),
        (dict(dgp="t3", deviation="kurtosis", magnitude=2.0), "magnitude"),
        (dict(dgp="t3", deviation="kurtosis", magnitude=-0.5, k=4,
              grouping="1+1+1+1"), "magnitude"),
        (dict(dgp="chisq1", deviation="skew_kurtosis", magnitude=0.0),
         "magnitude"),
        (dict(dgp="chisq1", deviation="skew_kurtosis", magnitude=-1.0),
         "magnitude"),
        (dict(deviation="correlation", magnitude=1.0), "magnitude"),
        (dict(deviation="correlation", magnitude=-0.2, p=10), "magnitude"),
        (dict(dgp="t3", deviation="correlation", magnitude=0.4, k=4,
              grouping="1+1+1+1"), "magnitude"),
        # arrays beyond MAX_ENTRIES: the N x p draw, the p x p factor
        (dict(deviation="shift", magnitude=0.5, p=10 ** 12), "p"),
        (dict(deviation="correlation", magnitude=0.1, n_total=2,
              p=10 ** 6), "p"),
    ])
    def test_out_of_range_value_names_field(self, kw, field):
        with pytest.raises(ConfigError, match=repr(field)):
            spec(**kw)

    @pytest.mark.parametrize("kw", [
        dict(deviation="correlation", magnitude=-0.1, p=10),
        dict(deviation="correlation", magnitude=0.99),
        dict(deviation="normal_vs_t", magnitude=2.5),
        dict(dgp="t3", deviation="kurtosis", magnitude=2.1),
        dict(dgp="chisq1", deviation="skew_kurtosis", magnitude=0.2),
        dict(deviation="scale", magnitude=1e-3),
    ])
    def test_in_range_value_draws(self, kw):
        ms = sample_scenario(spec(**kw), rng_for(3, 0, 0))
        assert all(np.abs(x.values).max() > 1e-6 for x in ms.samples)

    @pytest.mark.parametrize("case", ["two_sample", "four_sample"])
    @pytest.mark.parametrize("full", [False, True])
    def test_every_grid_spec_valid(self, case, full):
        # building a spec validates it; no grid value may be rejected
        assert scenario_grid(case, full)

    def test_roundtrip_dict(self):
        s = spec(deviation="shift", magnitude=0.5)
        assert ScenarioSpec.from_dict(s.to_dict()) == s


class TestConstructionIdentities:
    def test_shift_norm_is_delta(self):
        for p in (2, 10, 50):
            for delta in GRIDS["full"]["shift"]:
                vec = np.full(p, shift_offset(p, delta))
                assert abs(np.linalg.norm(vec) - delta) < 1e-12

    def test_scale_product_is_s(self):
        for p in (2, 10, 50):
            for s in GRIDS["full"]["scale"]:
                factors = np.full(p, scale_factor(p, s))
                assert abs(np.prod(factors) - s) < 1e-12 * max(1.0, s)

    def test_equicorrelation_positive_definite(self):
        full = GRIDS["full"]
        k4 = {3 * r for r in full["correlation_k4"]}
        for p in (2, 10, 50):
            for rho in set(full["correlation"]) | k4:
                sigma = rho * np.ones((p, p)) + (1 - rho) * np.eye(p)
                np.linalg.cholesky(sigma)  # raises if not PD


class TestNullMoments:
    @pytest.mark.parametrize("dgp", DGPS)
    def test_mean_and_variance(self, dgp):
        s = ScenarioSpec(dgp, "null", 0.0, 100_000, 2, "balanced")
        ms = sample_scenario(s, rng_for(4, 0, 0))
        pooled, _ = pool(ms)
        target_mean = 1.0 if dgp == "lognormal" else 0.0
        assert np.abs(pooled.values.mean(0) - target_mean).max() < 0.02
        assert np.abs(pooled.values.var(0) - 1.0).max() < 0.05

    def test_t3_covariance_identity(self):
        # dispersion 1/3 at df 3 gives unit variance
        s = ScenarioSpec("t3", "null", 0.0, 200_000, 2, "balanced")
        ms = sample_scenario(s, rng_for(11, 0, 0))
        pooled, _ = pool(ms)
        cov = np.cov(pooled.values.T)
        assert np.abs(np.diag(cov) - 1.0).max() < 0.1
        assert abs(cov[0, 1]) < 0.05

    def test_normal_vs_t_deviating_sample_unit_variance(self):
        s = ScenarioSpec("normal", "normal_vs_t", 5.0, 100_000, 2, "balanced")
        ms = sample_scenario(s, rng_for(5, 0, 0))
        assert np.abs(ms.samples[1].values.var(0) - 1.0).max() < 0.05

    def test_chisq_standardization(self):
        # (x - nu) / sqrt(2 nu) has mean 0 and variance 1
        for nu in (1.0, 2.0, 5.0):
            rng = rng_for(6, 0, 0)
            x = rng.chisquare(nu, size=200_000)
            z = (x - nu) / math.sqrt(2 * nu)
            assert abs(z.mean()) < 0.02 and abs(z.var() - 1) < 0.05


class TestDeviationExamples:
    def test_shift_per_component(self):
        assert abs(shift_offset(2, 1.5) - 1.5 / math.sqrt(2)) < 1e-12

    def test_scale_per_component(self):
        assert abs(scale_factor(10, 2.0) - 2.0 ** 0.1) < 1e-12

    def test_shift_moves_mean_by_delta(self):
        s = spec(deviation="shift", magnitude=1.5, n_total=100_000)
        ms = sample_scenario(s, rng_for(7, 0, 0))
        gap = ms.samples[1].values.mean(0) - ms.samples[0].values.mean(0)
        assert abs(np.linalg.norm(gap) - 1.5) < 0.02

    def test_scale_changes_variance(self):
        s = spec(deviation="scale", magnitude=4.0, n_total=100_000)
        ms = sample_scenario(s, rng_for(8, 0, 0))
        ratio = ms.samples[1].values.var(0) / ms.samples[0].values.var(0)
        assert np.abs(ratio - 4.0 ** (2 / 2)).max() < 0.2


class TestGroupings:
    def test_levels_3plus1(self):
        s = spec(deviation="shift", magnitude=1.0, k=4, grouping="3+1",
                 n_total=100)
        assert deviation_levels(s) == (0.0, 0.0, 0.0, 1.0)

    def test_levels_2plus2(self):
        s = spec(deviation="scale", magnitude=2.0, k=4, grouping="2+2",
                 n_total=100)
        assert deviation_levels(s) == (1.0, 1.0, 2.0, 2.0)

    def test_levels_2plus1plus1_scale_squares(self):
        s = spec(deviation="scale", magnitude=2.0, k=4, grouping="2+1+1",
                 n_total=100)
        assert deviation_levels(s) == (1.0, 1.0, 2.0, 4.0)

    def test_levels_all_distinct_shift(self):
        s = spec(deviation="shift", magnitude=0.5, k=4, grouping="1+1+1+1",
                 n_total=100)
        assert deviation_levels(s) == (0.0, 0.5, 1.0, 1.5)

    def test_levels_2plus1plus1_additive_steps(self):
        s = ScenarioSpec("chisq1", "skew_kurtosis", 0.5, 100, 2, "balanced",
                         k=4, grouping="2+1+1")
        assert deviation_levels(s) == (1.0, 1.0, 1.5, 2.0)

    def test_levels_all_distinct_scale_powers(self):
        s = spec(deviation="scale", magnitude=2.0, k=4, grouping="1+1+1+1",
                 n_total=100)
        assert deviation_levels(s) == (1.0, 2.0, 4.0, 8.0)

    def test_levels_normal_vs_t_base_is_normal(self):
        s = spec(deviation="normal_vs_t", magnitude=5.0)
        assert deviation_levels(s) == (math.inf, 5.0)

    def test_levels_kurtosis_steps(self):
        s = ScenarioSpec("t3", "kurtosis", 0.1, 100, 2, "balanced", k=4,
                         grouping="1+1+1+1")
        assert deviation_levels(s) == (3.0, 3.1, 3.2, 3.3)


class TestGrids:
    def test_shift_grid_values(self):
        assert GRIDS["full"]["shift"] == (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)

    def test_scale_grid_values(self):
        assert GRIDS["full"]["scale"] == (1 / 10, 1 / 3, 1 / 2, 2 / 3,
                                          4 / 5, 5 / 4, 3 / 2, 2.0, 3.0,
                                          10.0)

    def test_four_sample_n_grid(self):
        assert GRIDS["full"]["n_k4"] == (100, 200, 400)

    def test_full_two_sample_grid_magnitudes(self):
        grid = scenario_grid("two_sample", full=True)
        shift = sorted({s.magnitude for s in grid
                        if s.dgp == "normal" and s.deviation == "shift"})
        assert shift == sorted(GRIDS["full"]["shift"])
        corr = sorted({s.magnitude for s in grid
                       if s.deviation == "correlation"})
        assert corr == sorted(GRIDS["full"]["correlation"])

    def test_four_sample_grid_has_all_groupings(self):
        grid = scenario_grid("four_sample")
        assert {s.grouping for s in grid if s.deviation != "null"} == {
            "3+1", "2+2", "2+1+1", "1+1+1+1"}

    def test_target_grid_rejected(self):
        with pytest.raises(ConfigError, match="'two_sample_target'"):
            scenario_grid("two_sample_target")


class TestReproducibility:
    def test_identical_seed_bit_identical(self):
        s = spec(deviation="shift", magnitude=0.5)
        a = sample_scenario(s, rng_for(123, 7, 42))
        b = sample_scenario(s, rng_for(123, 7, 42))
        for x, y in zip(a.samples, b.samples):
            assert (x.values == y.values).all()

    def test_different_rep_differs(self):
        s = spec()
        a = sample_scenario(s, rng_for(123, 7, 42))
        b = sample_scenario(s, rng_for(123, 7, 43))
        assert not (a.samples[0].values == b.samples[0].values).all()


CASES = ("two_sample", "four_sample")


def all_grids():
    return [(case, full, scenario_grid(case, full))
            for case in CASES for full in (False, True)]


class TestPinnedGeneration:
    """sha256 digests of every grid and of one draw of every grid spec.

    The golden dumps cover only the normal null and shift, so these pin the
    other families, deviations and stepwise groupings.  A refactor of
    datagen must leave both digests unchanged."""

    GRID_DIGEST = "e1e5ffa0e449e3d6498def148c416cd3fab4be45360acceeedcc1c799c4290b0"
    DRAW_DIGEST = "1c571678d2b7b58884511af1e79171e2b00cfcb6f9cacc9601ccc9649ffa445f"

    def test_grid_lists(self):
        dump = [[case, full, [s.to_dict() for s in specs]]
                for case, full, specs in all_grids()]
        text = json.dumps(dump, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.GRID_DIGEST

    def test_draws_of_every_grid_spec(self):
        # every distinct grid spec at N=40, in order of first appearance
        specs = dict.fromkeys(dataclasses.replace(s, n_total=40)
                              for _, _, grid in all_grids() for s in grid)
        digest = hashlib.sha256()
        for i, s in enumerate(specs):
            ms = sample_scenario(s, rng_for(2024, i, 0))
            for sample in ms.samples:
                digest.update(sample.values.tobytes())
        assert digest.hexdigest() == self.DRAW_DIGEST
