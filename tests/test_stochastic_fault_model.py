"""Statistical test harness for the stochastic fault model.

Three layers are exercised:

* **sampling primitives** — :meth:`FlipTemplate.sample_flips` /
  :meth:`FlipTemplate.cell_flip_probabilities` and
  :class:`ProbabilisticTrr.tracked_rows`: same-seed determinism, and
  frequency tests asserting the empirical rates converge to the configured
  probabilities within a binomial tolerance (the draws are seeded, so the
  assertions are deterministic — the tolerance is statistical, the test is
  not flaky);
* **Monte-Carlo lowering** — ``lower_attack(..., trials=N, rng=seed)``:
  per-seed determinism of the full trial statistics, and the structural
  property that ``trials = 1`` on a probability-1.0 profile reproduces the
  deterministic ``feasible_mask`` pipeline bit for bit;
* **campaign integration** — the ``hardware_cost`` grid's ``--trials`` /
  ``--flip-seed`` axes: serial and ``--jobs 2`` runs byte-identical, and
  distinct flip seeds producing genuinely different tables.
"""

import numpy as np
import pytest

from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.lowering import lower_attack
from repro.attacks.targets import make_attack_plan
from repro.hardware.bitflip import BitFlipPlan
from repro.hardware.device import (
    FlipTemplate,
    ProbabilisticTrr,
    get_profile,
    plan_hammer,
)
from repro.utils.errors import ConfigurationError

FAST_CONFIG = FaultSneakingConfig(
    norm="l0", iterations=50, warmup_iterations=200, refine_support_steps=20
)


@pytest.fixture(scope="module")
def attack_result(tiny_model, tiny_split):
    plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)
    return FaultSneakingAttack(tiny_model, FAST_CONFIG).attack(plan)


def synthetic_plan(num_cells: int = 4096) -> tuple[BitFlipPlan, np.ndarray]:
    """A dense synthetic plan plus original words, for sampling statistics."""
    cells = np.arange(num_cells, dtype=np.int64)
    word_index = cells // 8
    bit = cells % 8
    plan = BitFlipPlan.from_arrays(
        word_index, bit, word_index, word_index // 64, num_words_total=num_cells // 8
    )
    original_words = np.random.default_rng(99).integers(
        0, 256, size=num_cells // 8, dtype=np.int64
    )
    return plan, original_words


class TestCellFlipProbabilities:
    def test_probability_one_is_exactly_one_everywhere(self):
        template = FlipTemplate(seed=1, landing_probability=1.0)
        p = template.cell_flip_probabilities(np.arange(512), np.zeros(512, dtype=int))
        assert np.all(p == 1.0)

    def test_probabilities_bounded_and_deterministic(self):
        template = FlipTemplate(seed=5, landing_probability=0.6)
        addresses, bits = np.arange(2048), np.arange(2048) % 8
        p1 = template.cell_flip_probabilities(addresses, bits)
        p2 = FlipTemplate(seed=5, landing_probability=0.6).cell_flip_probabilities(
            addresses, bits
        )
        assert np.array_equal(p1, p2)
        assert np.all((p1 > 0.0) & (p1 <= 1.0))
        # The hashed exponent spreads cells around the base rate.
        assert p1.std() > 0.01

    def test_scale_reduces_probabilities(self):
        template = FlipTemplate(seed=5, landing_probability=0.8)
        addresses, bits = np.arange(2048), np.arange(2048) % 8
        full = template.cell_flip_probabilities(addresses, bits)
        halved = template.cell_flip_probabilities(addresses, bits, scale=0.5)
        assert np.all(halved < full)

    def test_invalid_landing_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FlipTemplate(seed=1, landing_probability=0.0)
        with pytest.raises(ConfigurationError):
            FlipTemplate(seed=1, landing_probability=1.5)


class TestSampleFlips:
    def test_same_seed_is_deterministic(self):
        template = FlipTemplate(seed=3, landing_probability=0.5)
        plan, words = synthetic_plan()
        a = template.sample_flips(plan, words, np.random.default_rng(7))
        b = template.sample_flips(plan, words, np.random.default_rng(7))
        c = template.sample_flips(plan, words, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_probability_one_equals_feasible_mask(self):
        template = FlipTemplate(seed=3, landing_probability=1.0)
        plan, words = synthetic_plan()
        for seed in (0, 1, 12345):
            sampled = template.sample_flips(plan, words, np.random.default_rng(seed))
            assert np.array_equal(sampled, template.feasible_mask(plan, words))

    def test_samples_subset_of_feasible(self):
        template = FlipTemplate(seed=3, landing_probability=0.4)
        plan, words = synthetic_plan()
        sampled = template.sample_flips(plan, words, np.random.default_rng(0))
        feasible = template.feasible_mask(plan, words)
        assert np.all(~sampled | feasible)

    def test_sampled_rates_converge_to_cell_probabilities(self):
        # Frequency test: over T seeded bursts the per-cell landing rate must
        # sit within a 4-sigma binomial envelope of the configured per-cell
        # probability (exactly 0 for infeasible cells).
        template = FlipTemplate(seed=11, landing_probability=0.6)
        plan, words = synthetic_plan()
        _, bit, address, _ = plan.as_arrays()
        feasible = template.feasible_mask(plan, words)
        expected = np.where(
            feasible, template.cell_flip_probabilities(address, bit), 0.0
        )
        trials = 600
        counts = np.zeros(plan.num_flips)
        rng = np.random.default_rng(2024)
        for _ in range(trials):
            counts += template.sample_flips(plan, words, rng)
        rate = counts / trials
        sigma = np.sqrt(expected * (1.0 - expected) / trials)
        assert np.all(np.abs(rate - expected) <= 4.0 * sigma + 1e-12)
        # And in aggregate the mean rate matches the mean probability tightly.
        assert abs(rate.mean() - expected.mean()) < 0.005


class TestProbabilisticTrr:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticTrr(tracker_size=0)
        with pytest.raises(ConfigurationError):
            ProbabilisticTrr(sample_probability=0.0)
        with pytest.raises(ConfigurationError):
            ProbabilisticTrr(activations_per_weight=0)
        with pytest.raises(ConfigurationError):
            ProbabilisticTrr(seed=-1)

    def test_seed_derived_draw_is_deterministic(self):
        sampler = ProbabilisticTrr(tracker_size=2, sample_probability=0.05, seed=4)
        rows = np.arange(20)
        weights = np.full(20, 4)
        banks = rows % 4
        a = sampler.tracked_rows(rows, weights, banks)
        b = sampler.tracked_rows(rows, weights, banks)
        assert np.array_equal(a, b)
        # A different sampler seed redraws the tracker.
        other = ProbabilisticTrr(tracker_size=2, sample_probability=0.05, seed=5)
        assert not np.array_equal(a, other.tracked_rows(rows, weights, banks))

    def test_explicit_rng_is_deterministic_and_trial_varying(self):
        sampler = ProbabilisticTrr(tracker_size=2, sample_probability=0.05)
        rows, weights, banks = np.arange(20), np.full(20, 4), np.arange(20) % 4
        a = sampler.tracked_rows(rows, weights, banks, rng=np.random.default_rng(1))
        b = sampler.tracked_rows(rows, weights, banks, rng=np.random.default_rng(1))
        c = sampler.tracked_rows(rows, weights, banks, rng=np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tracker_size_caps_each_bank(self):
        # Probability ~1: every row is sampled, so the cap is what binds.
        sampler = ProbabilisticTrr(tracker_size=3, sample_probability=1.0)
        rows, weights = np.arange(40), np.full(40, 8)
        banks = rows % 2
        tracked = sampler.tracked_rows(rows, weights, banks, rng=np.random.default_rng(0))
        assert tracked.size == 6
        assert np.unique(banks[np.isin(rows, tracked)], return_counts=True)[1].tolist() == [3, 3]

    def test_catch_rate_converges_to_activation_probability(self):
        # One row per bank (no capping): each row is an independent Bernoulli
        # with p = 1 - (1-p_act)^(weight * activations_per_weight).
        sampler = ProbabilisticTrr(
            tracker_size=4, sample_probability=0.01, activations_per_weight=16
        )
        n = 20000
        rows, banks = np.arange(n), np.arange(n)
        weights = np.full(n, 4)
        expected = float(sampler.catch_probabilities(weights)[0])
        tracked = sampler.tracked_rows(rows, weights, banks, rng=np.random.default_rng(3))
        rate = tracked.size / n
        sigma = np.sqrt(expected * (1.0 - expected) / n)
        assert abs(rate - expected) <= 4.0 * sigma
        # Throttled rows (weight 1) must be caught markedly less often.
        weak = sampler.tracked_rows(
            rows, np.ones(n, dtype=int), banks, rng=np.random.default_rng(3)
        )
        assert weak.size < tracked.size * 0.5

    def test_decoys_out_compete_aggressors_for_tracker_slots(self):
        # The TRRespass mechanic: first-sample times scale with activation
        # count, so loud decoys (w=6) must hold the tracker against quieter
        # aggressors (w=2) far more often than uniform contention would.
        sampler = ProbabilisticTrr(
            tracker_size=4, sample_probability=0.02, activations_per_weight=64
        )
        rows, banks = np.arange(10), np.zeros(10, dtype=int)
        weights = np.array([2, 2, 6, 6, 6, 6, 6, 6, 6, 6])
        trials = 500
        aggressors_tracked = sum(
            int(np.isin([0, 1], sampler.tracked_rows(
                rows, weights, banks, rng=np.random.default_rng(seed)
            )).sum())
            for seed in range(trials)
        )
        # 8 loud decoys competing for 4 slots: the two w=2 aggressors are
        # caught well under once per trial on average (~0.33 analytically;
        # a draw-reuse bug that ranks by the catch uniform gives ~0.8).
        assert aggressors_tracked / trials < 0.5

    def test_plan_hammer_dispatches_probabilistic_sampler(self):
        sampler = ProbabilisticTrr(tracker_size=1, sample_probability=1.0)
        hammer = plan_hammer(
            [10, 20], pattern="double-sided", sampler=sampler,
            rng=np.random.default_rng(0),
        )
        # p = 1 with a single tracker entry: exactly one aggressor is caught,
        # so at least one victim is refreshed.
        assert hammer.tracked.size == 1
        assert hammer.feasible_victims.size < hammer.victims.size
        # A vanishing sampling probability catches nothing.
        timid = ProbabilisticTrr(tracker_size=4, sample_probability=1e-12)
        free = plan_hammer(
            [10, 20], pattern="double-sided", sampler=timid,
            rng=np.random.default_rng(0),
        )
        assert free.tracked.size == 0
        assert np.array_equal(free.feasible_victims, free.victims)


class TestMonteCarloLowering:
    def test_trials_one_probability_one_matches_deterministic(self, attack_result):
        # The acceptance property: on a probability-1.0 profile the sampled
        # pipeline IS the deterministic pipeline — every trial lands every
        # repaired flip and reproduces the deterministic rates bit for bit.
        deterministic = lower_attack(attack_result, storage="int8", profile="ddr3-noecc")
        sampled = lower_attack(
            attack_result, storage="int8", profile="ddr3-noecc", trials=1, rng=42
        )
        stats = sampled.trial_stats
        assert stats.trials == 1
        assert stats.flips_landed[0] == deterministic.plan.num_flips
        assert stats.success_rates[0] == deterministic.success_rate
        assert stats.keep_rates[0] == deterministic.keep_rate
        assert stats.success_ci == 0.0 and stats.keep_ci == 0.0
        # The repaired plans themselves are identical objects' worth of flips.
        assert sampled.plan == deterministic.plan

    def test_trial_statistics_deterministic_per_seed(self, attack_result):
        kwargs = dict(storage="int8", profile="stochastic-ddr3", trials=4)
        a = lower_attack(attack_result, rng=123, **kwargs)
        b = lower_attack(attack_result, rng=123, **kwargs)
        c = lower_attack(attack_result, rng=321, **kwargs)
        assert np.array_equal(a.trial_stats.success_rates, b.trial_stats.success_rates)
        assert np.array_equal(a.trial_stats.keep_rates, b.trial_stats.keep_rates)
        assert np.array_equal(a.trial_stats.flips_landed, b.trial_stats.flips_landed)
        assert not np.array_equal(a.trial_stats.flips_landed, c.trial_stats.flips_landed)

    def test_stochastic_profile_drops_flips_sometimes(self, attack_result):
        report = lower_attack(
            attack_result, storage="int8", profile="stochastic-ddr3", trials=8, rng=5
        )
        stats = report.trial_stats
        assert np.all(stats.flips_landed <= report.plan.num_flips)
        # landing_probability 0.75 over several trials: some flip must miss.
        assert stats.expected_flips_landed < report.plan.num_flips
        assert 0.0 <= stats.keep_rate <= 1.0
        assert stats.flips_landed_ci >= 0.0

    def test_metrics_dict_carries_mc_columns(self, attack_result):
        with_trials = lower_attack(
            attack_result, storage="int8", profile="stochastic-ddr3", trials=2, rng=1
        ).as_dict()
        assert with_trials["mc_trials"] == 2
        assert 0.0 <= with_trials["mc_keep"] <= 1.0
        without = lower_attack(attack_result, storage="int8").as_dict()
        assert without["mc_trials"] == 0
        assert np.isnan(without["mc_success"]) and np.isnan(without["mc_flips_landed"])

    def test_negative_trials_rejected(self, attack_result):
        with pytest.raises(ConfigurationError):
            lower_attack(attack_result, storage="int8", trials=-1)

    def test_expected_repair_runs_on_stochastic_profile(self, attack_result):
        report = lower_attack(
            attack_result,
            storage="int8",
            profile="stochastic-ddr3",
            trials=2,
            rng=9,
            expected_repair=True,
        )
        assert report.trial_stats.trials == 2
        # On a probability-1.0 profile expected repair is a strict no-op.
        plain = lower_attack(attack_result, storage="int8", profile="ddr3-noecc")
        expected = lower_attack(
            attack_result, storage="int8", profile="ddr3-noecc", expected_repair=True
        )
        assert expected.plan == plain.plan

    def test_probabilistic_trr_profile_rerolls_rows(self, attack_result):
        report = lower_attack(
            attack_result,
            storage="int8",
            profile="stochastic-trrespass",
            hammer_pattern="many-sided",
            trials=6,
            rng=11,
        )
        stats = report.trial_stats
        assert stats.trials == 6
        assert np.all(stats.flips_landed <= report.plan.num_flips)
        assert np.all((stats.success_rates >= 0) & (stats.success_rates <= 1))


class TestHardwareCostStochasticAxes:
    """--trials / --flip-seed as campaign axes of the hardware_cost grid."""

    @pytest.mark.parametrize("backend", ["process-pool"])
    def test_serial_and_parallel_byte_identical(
        self, backend, session_registry, monkeypatch
    ):
        from repro.experiments import hardware_cost

        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(session_registry.disk_cache.directory)
        )
        kwargs = dict(
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=("stochastic-ddr3",),
            trials=2,
            flip_seed=3,
        )
        serial = hardware_cost.run("smoke", **kwargs)
        parallel = hardware_cost.run("smoke", jobs=2, executor=backend, **kwargs)
        assert parallel.render("csv", digits=9) == serial.render("csv", digits=9)

    def test_flip_seed_changes_the_sampled_columns_only(self, session_registry):
        from repro.experiments import hardware_cost

        kwargs = dict(
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=("stochastic-ddr3",),
            trials=4,
        )
        first = hardware_cost.run("smoke", flip_seed=0, **kwargs)
        second = hardware_cost.run("smoke", flip_seed=1, **kwargs)
        assert first.columns == second.columns
        # The deterministic columns are flip-seed independent...
        for column in ("bit flips", "bit-true success", "bit-true keep"):
            assert first.column(column) == second.column(column)
        # ...while the Monte-Carlo samples genuinely differ.
        assert first.render("csv", digits=9) != second.render("csv", digits=9)

    def test_negative_trials_rejected_in_campaign(self):
        from repro.experiments import hardware_cost

        with pytest.raises(ConfigurationError):
            hardware_cost.build_campaign("smoke", trials=-1)

    def test_trials_zero_reports_nan_columns(self, session_registry):
        from repro.experiments import hardware_cost

        table = hardware_cost.run(
            "smoke",
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=("ddr3-noecc",),
            trials=0,
        )
        assert all(t == 0 for t in table.column("trials"))
        assert all(np.isnan(v) for v in table.column("mc success"))

    def test_probability_one_profiles_match_deterministic_columns(
        self, session_registry
    ):
        from repro.experiments import hardware_cost

        table = hardware_cost.run(
            "smoke",
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=("ddr3-noecc",),
            trials=2,
        )
        for record in table.to_records():
            assert record["mc success"] == record["bit-true success"]
            assert record["mc keep"] == record["bit-true keep"]
            assert record["success ci95"] == 0.0
            assert record["flips landed"] == record["bit flips"]


class TestVarianceReduction:
    """CRN / antithetic trial streams for the Monte-Carlo lowering."""

    KWARGS = dict(storage="int8", profile="stochastic-ddr3", trials=8)

    def test_independent_is_the_default(self, attack_result):
        implicit = lower_attack(attack_result, rng=123, **self.KWARGS)
        explicit = lower_attack(
            attack_result, rng=123, variance_reduction="independent", **self.KWARGS
        )
        assert np.array_equal(
            implicit.trial_stats.flips_landed, explicit.trial_stats.flips_landed
        )
        assert np.array_equal(
            implicit.trial_stats.keep_rates, explicit.trial_stats.keep_rates
        )

    def test_crn_streams_ignore_the_master_rng(self, attack_result):
        # Common random numbers: cells sharing a crn_seed consume identical
        # draw streams regardless of their own rng, so cross-cell comparisons
        # see positively correlated noise.
        a = lower_attack(
            attack_result, rng=1, variance_reduction="crn", crn_seed=7, **self.KWARGS
        )
        b = lower_attack(
            attack_result, rng=999, variance_reduction="crn", crn_seed=7, **self.KWARGS
        )
        c = lower_attack(
            attack_result, rng=1, variance_reduction="crn", crn_seed=8, **self.KWARGS
        )
        assert np.array_equal(a.trial_stats.flips_landed, b.trial_stats.flips_landed)
        assert np.array_equal(a.trial_stats.keep_rates, b.trial_stats.keep_rates)
        assert not np.array_equal(a.trial_stats.flips_landed, c.trial_stats.flips_landed)

    def test_antithetic_pairs_complement_each_other(self):
        from repro.attacks.lowering import _trial_streams

        streams = _trial_streams(6, 42, "antithetic", 0, (128,))
        assert len(streams) == 6
        for first, second in zip(streams[0::2], streams[1::2]):
            np.testing.assert_allclose(first[0] + second[0], 1.0)
        # distinct pairs draw distinct uniforms; odd counts truncate the tail
        assert not np.array_equal(streams[0][0], streams[2][0])
        assert len(_trial_streams(5, 42, "antithetic", 0, (128,))) == 5

    def test_antithetic_is_deterministic_and_reaches_the_sampler(self, attack_result):
        # Statistical efficiency is pinned at the stream level (the pair
        # complementarity test above); end to end we pin that the paired
        # streams are actually consumed: per-seed determinism, and draws
        # that genuinely differ from the independent scheme's.
        anti = lower_attack(
            attack_result, rng=5, variance_reduction="antithetic", **self.KWARGS
        )
        again = lower_attack(
            attack_result, rng=5, variance_reduction="antithetic", **self.KWARGS
        )
        assert np.array_equal(
            anti.trial_stats.flips_landed, again.trial_stats.flips_landed
        )
        independent = lower_attack(attack_result, rng=5, **self.KWARGS)
        assert not np.array_equal(
            anti.trial_stats.flips_landed, independent.trial_stats.flips_landed
        )
        assert np.all(anti.trial_stats.flips_landed <= anti.plan.num_flips)
        assert 0.0 <= anti.trial_stats.keep_rate <= 1.0

    def test_unknown_scheme_rejected(self, attack_result):
        with pytest.raises(ConfigurationError, match="variance_reduction"):
            lower_attack(attack_result, variance_reduction="qmc", **self.KWARGS)


class TestVarianceReductionCampaignAxis:
    """--variance-reduction as a hardware_cost campaign axis."""

    def test_default_scheme_keeps_historical_cell_keys(self):
        from repro.experiments import hardware_cost

        default = hardware_cost.build_campaign("smoke", trials=2)
        explicit = hardware_cost.build_campaign(
            "smoke", trials=2, variance_reduction="independent"
        )
        assert [spec.key for spec in default.jobs] == [spec.key for spec in explicit.jobs]
        assert all(
            "variance_reduction" not in spec.param_dict() for spec in default.jobs
        )
        crn = hardware_cost.build_campaign("smoke", trials=2, variance_reduction="crn")
        assert crn.jobs
        assert all(
            spec.param_dict()["variance_reduction"] == "crn" for spec in crn.jobs
        )

    def test_unknown_scheme_rejected_in_campaign(self):
        from repro.experiments import hardware_cost

        with pytest.raises(ConfigurationError):
            hardware_cost.build_campaign("smoke", variance_reduction="qmc")

    def test_crn_campaign_assembles_end_to_end(self, session_registry):
        # Regression: assemble() must read the cells the campaign declared
        # under its scheme, or every non-default run dies on a key mismatch.
        from repro.experiments import hardware_cost

        kwargs = dict(
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=("stochastic-ddr3",),
            trials=2,
        )
        crn = hardware_cost.run("smoke", variance_reduction="crn", **kwargs)
        independent = hardware_cost.run("smoke", **kwargs)
        assert crn.columns == independent.columns
        # The deterministic columns are scheme-independent...
        for column in ("bit flips", "bit-true success", "bit-true keep"):
            assert crn.column(column) == independent.column(column)
        # ...while the Monte-Carlo draws follow the CRN streams.
        assert crn.render("csv", digits=9) != independent.render("csv", digits=9)
