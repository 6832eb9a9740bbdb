"""Tests for repro.hardware.injectors."""

import pytest

from repro.hardware.bitflip import BitFlip, BitFlipPlan
from repro.hardware.device.mitigations import flat_aggressor_rows
from repro.hardware.injectors import LaserBeamInjector, RowHammerInjector
from repro.utils.errors import ConfigurationError


def make_plan(flips_spec):
    """Build a BitFlipPlan from a list of (word_index, bit, row) tuples."""
    return BitFlipPlan(
        [
            BitFlip(word_index=word, bit=bit, address=word * 4, row=row)
            for word, bit, row in flips_spec
        ],
        num_words_total=100,
    )


class TestLaserBeam:
    def test_cost_scales_with_flips(self):
        injector = LaserBeamInjector(seconds_per_flip=10.0, setup_seconds=100.0)
        small = injector.cost(make_plan([(0, 1, 0)]))
        large = injector.cost(make_plan([(i, 1, 0) for i in range(10)]))
        assert small.time_seconds == pytest.approx(110.0)
        assert large.time_seconds == pytest.approx(200.0)
        assert large.operations == 10

    def test_feasibility_limit(self):
        injector = LaserBeamInjector(max_flips=3)
        ok = injector.cost(make_plan([(i, 0, 0) for i in range(3)]))
        bad = injector.cost(make_plan([(i, 0, 0) for i in range(4)]))
        assert ok.feasible and not bad.feasible
        assert "exceeds" in bad.notes

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            LaserBeamInjector(seconds_per_flip=0.0)

    def test_as_dict(self):
        cost = LaserBeamInjector().cost(make_plan([(0, 0, 0)]))
        record = cost.as_dict()
        assert record["technique"] == "laser"
        assert record["bit_flips"] == 1


class TestRowHammer:
    def test_cost_scales_with_rows_not_flips(self):
        injector = RowHammerInjector(seconds_per_row=100.0, setup_seconds=0.0, max_flips_per_row=64)
        one_row = injector.cost(make_plan([(i, i % 8, 2) for i in range(10)]))
        two_rows = injector.cost(make_plan([(0, 0, 2), (1, 0, 5)]))
        # An isolated victim row costs one double-sided aggressor pair.
        assert one_row.time_seconds == pytest.approx(100.0)
        assert two_rows.time_seconds == pytest.approx(200.0)
        # Operations count aggressor activations: a pair per isolated victim.
        assert one_row.operations == 2
        assert two_rows.operations == 4

    def test_adjacent_rows_amortise_aggressors(self):
        # Regression: two adjacent victim rows share their sandwiching
        # aggressor pair and must NOT each pay full seconds_per_row.
        injector = RowHammerInjector(seconds_per_row=100.0, setup_seconds=0.0)
        adjacent = injector.cost(make_plan([(0, 0, 10), (1, 0, 11)]))
        separate = injector.cost(make_plan([(0, 0, 10), (1, 0, 20)]))
        assert adjacent.time_seconds == pytest.approx(100.0)
        assert adjacent.operations == 2  # rows 9 and 12 hammer both victims
        assert separate.time_seconds == pytest.approx(200.0)
        assert separate.operations == 4

    def test_many_sided_does_not_double_count_shared_aggressors(self):
        # Regression (PR 4): pattern-aware costing must amortise aggressor
        # activations shared between adjacent victims of the same bank —
        # three clustered victims under many-sided cost one sandwiching
        # pair plus the pattern's decoys, never sides x victims.
        from repro.hardware.device import TrrSampler, get_pattern

        injector = RowHammerInjector(seconds_per_row=100.0, setup_seconds=0.0)
        plan = make_plan([(0, 0, 10), (1, 0, 11), (2, 0, 12)])
        sampler = TrrSampler(tracker_size=2, threshold=2)
        cost = injector.cost(plan, pattern="many-sided", trr=sampler)
        decoys = get_pattern("many-sided").decoys_per_bank
        # Aggressors {9, 13} amortised across the cluster, plus the decoys.
        assert cost.operations == 2 + decoys
        assert cost.time_seconds == pytest.approx((2 + decoys) * 50.0)

    def test_pattern_scales_per_row_flip_cap(self):
        injector = RowHammerInjector(
            seconds_per_row=100.0, setup_seconds=0.0, max_flips_per_row=4
        )
        plan = make_plan([(0, b, 10) for b in range(3)])
        assert injector.cost(plan).feasible
        # decoy-throttled retains a quarter of the yield: cap 4 -> 1.
        throttled = injector.cost(plan, pattern="decoy-throttled")
        assert not throttled.feasible
        assert "controlled flips" in throttled.notes

    def test_trr_refreshed_victims_flag_infeasible(self):
        from repro.hardware.device import TrrSampler

        injector = RowHammerInjector(seconds_per_row=100.0, setup_seconds=0.0)
        plan = make_plan([(0, 0, 10), (1, 0, 20)])
        sampler = TrrSampler(tracker_size=8, threshold=2)
        blocked = injector.cost(plan, pattern="double-sided", trr=sampler)
        assert not blocked.feasible
        assert "TRR refreshes" in blocked.notes
        evaded = injector.cost(plan, pattern="many-sided", trr=sampler)
        assert evaded.feasible

    def test_flat_row_zero_has_single_aggressor(self):
        # Even without a geometry, row -1 does not exist: a victim in row 0
        # can only be hammered from row 1.
        injector = RowHammerInjector(seconds_per_row=100.0, setup_seconds=0.0)
        edge = injector.cost(make_plan([(0, 0, 0)]))
        assert edge.operations == 1
        assert edge.time_seconds == pytest.approx(50.0)
        assert flat_aggressor_rows([0]).tolist() == [1]

    def test_geometry_clamps_aggressors_at_bank_edges(self):
        from repro.hardware.device import DramGeometry

        geometry = DramGeometry(bank_bits=1, row_bits=3, column_bits=3)
        injector = RowHammerInjector(
            seconds_per_row=100.0, setup_seconds=0.0, geometry=geometry
        )
        # Global row 0 is local row 0 of bank 0: only row 1 can hammer it.
        edge = injector.cost(make_plan([(0, 0, 0)]))
        assert edge.operations == 1
        assert edge.time_seconds == pytest.approx(50.0)
        # Global rows 7 and 8 are adjacent ids but live in different banks
        # (local rows 7 and 0), so they do NOT share an aggressor.
        split = injector.cost(make_plan([(0, 0, 7), (1, 0, 8)]))
        assert split.operations == 2
        assert sorted(geometry.aggressor_row_ids([7, 8]).tolist()) == [6, 9]

    def test_per_row_limit(self):
        injector = RowHammerInjector(max_flips_per_row=2)
        ok = injector.cost(make_plan([(0, 0, 0), (0, 1, 0)]))
        bad = injector.cost(make_plan([(0, 0, 0), (0, 1, 0), (0, 2, 0)]))
        assert ok.feasible and not bad.feasible
        assert "rows need more" in bad.notes

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            RowHammerInjector(max_flips_per_row=0)

    def test_empty_plan_costs_only_setup(self):
        injector = RowHammerInjector(setup_seconds=42.0)
        cost = injector.cost(BitFlipPlan(num_words_total=10))
        assert cost.feasible
        assert cost.time_seconds == pytest.approx(42.0)
        assert cost.bit_flips == 0
        assert cost.hammer_seconds == 0.0
        assert cost.refresh_windows == 0
        assert cost.refresh_feasible

    def test_invalid_refresh_config(self):
        with pytest.raises(ConfigurationError):
            RowHammerInjector(refresh_window_s=0.0)
        with pytest.raises(ConfigurationError):
            RowHammerInjector(min_activations=0)


class TestRefreshWindowTiming:
    """Regression pins for the tREFW-derived time model of rowhammer cost.

    The numbers are intentionally hard-coded: the amortised hammer time and
    window counts of the shipped patterns on the ``ddr4-trrespass`` device
    are part of the reported tables, and a refactor that silently moves them
    must fail here.
    """

    # Three clustered victims in bank 0 of the ddr4-trrespass geometry:
    # the sandwiching aggressor pair {9, 13} is shared across the cluster.
    PLAN = make_plan([(0, 0, 10), (1, 0, 11), (2, 0, 12)])

    @pytest.fixture()
    def injector(self):
        from repro.hardware.device import get_profile

        return get_profile("ddr4-trrespass").injector()

    def test_double_sided_amortised_hammer_time(self, injector):
        cost = injector.cost(self.PLAN, pattern="double-sided")
        # 2 shared aggressors at 240 s per double-sided pair: 2 * 240 / 2.
        assert cost.hammer_seconds == pytest.approx(240.0)
        assert cost.time_seconds == pytest.approx(3600.0 + 240.0)
        # Default window budget: 0.064 s / 45 ns = ~1.42 M activations, so a
        # bank serves 28 aggressors per window; 2 aggressors fit in one.
        assert cost.refresh_windows == 1
        assert cost.refresh_feasible

    def test_many_sided_pays_decoy_hammer_time(self, injector):
        cost = injector.cost(self.PLAN, pattern="many-sided")
        # The same 2 aggressors plus 8 decoys in the touched bank.
        assert cost.operations == 10
        assert cost.hammer_seconds == pytest.approx(10 * 240.0 / 2.0)
        # Decoys soak 8 * 6 weight units of every window, leaving room for
        # floor(28.4 - 24) = 4 aggressors per window: still one window.
        assert cost.refresh_windows == 1
        assert cost.refresh_feasible

    def test_spread_plan_needs_multiple_windows(self, injector):
        # Six isolated victims need 12 aggressors; at 28 per window that is
        # still one window, but a tighter activation floor forces batching.
        plan = make_plan([(i, 0, 10 * (i + 1)) for i in range(6)])
        tight = RowHammerInjector(
            seconds_per_row=injector.seconds_per_row,
            setup_seconds=injector.setup_seconds,
            geometry=injector.geometry,
            min_activations=300_000,  # ~4.7 aggressors per window -> batch 4
        )
        cost = tight.cost(plan, pattern="double-sided")
        assert cost.refresh_windows == 3  # ceil(12 / 4)
        assert cost.refresh_feasible

    def test_refresh_infeasible_plan_is_flagged_deterministically(self, injector):
        # Under many-sided the decoys alone eat the window budget when each
        # aggressor must accumulate 100 k activations: even one aggressor
        # cannot finish before its victims are refreshed.
        tight = RowHammerInjector(
            seconds_per_row=injector.seconds_per_row,
            setup_seconds=injector.setup_seconds,
            geometry=injector.geometry,
            min_activations=100_000,
        )
        first = tight.cost(self.PLAN, pattern="many-sided")
        second = tight.cost(self.PLAN, pattern="many-sided")
        assert not first.feasible
        assert not first.refresh_feasible
        assert first.refresh_windows == 0
        assert "refresh window" in first.notes
        assert first == second  # flagged deterministically, not sampled
        # The same plan double-sided has no decoy load and stays feasible.
        assert tight.cost(self.PLAN, pattern="double-sided").refresh_feasible
