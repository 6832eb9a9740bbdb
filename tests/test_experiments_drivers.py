"""Tests for the experiment drivers (smoke scale).

These verify that every table/figure driver runs end to end, produces a table
with the expected columns/rows, and that the headline qualitative properties
(the "shapes" of the paper's results) hold even at the smallest scale where
they are meaningful.
"""

import pytest

from repro.analysis.reporting import Table
from repro.experiments import (
    EXPERIMENTS,
    ablations,
    baseline_comparison,
    figure1,
    figure2,
    figure3,
    hardware_cost,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.campaign import (
    CampaignResult,
    CampaignStats,
    JobResult,
    JobSpec,
    execute_job,
)
from repro.experiments.common import anchor_pool_size, get_setting, usable_r_values
from repro.utils.errors import ConfigurationError


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "table4",
            "figure1",
            "figure2",
            "figure3",
            "baseline_comparison",
            "ablations",
            "extension_detection",
            "hardware_cost",
            "defense_matrix",
        }
        assert expected == set(EXPERIMENTS)


class _RecordingResults(dict):
    """A campaign's result map that records every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: list[str] = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


class _CannedMetrics(dict):
    """Metrics of a cell that never ran: every metric reads as 0.5."""

    def __missing__(self, name):
        return 0.5


# Every experiment with its default options, plus the two lowering grids
# under a non-zero drift (an extra cell parameter).
_ASSEMBLY_CASES = [(name, {}) for name in sorted(EXPERIMENTS)] + [
    (name, {"env_drift": 0.1}) for name in ("hardware_cost", "defense_matrix")
]


@pytest.mark.parametrize("scale", ["smoke", "ci"])
@pytest.mark.parametrize(
    "name, options",
    _ASSEMBLY_CASES,
    ids=[name + ("-drift" if options else "") for name, options in _ASSEMBLY_CASES],
)
def test_assemble_reads_every_job_and_nothing_else(name, options, scale):
    # No solve: each declared job gets canned metrics, and the table must be
    # built from exactly those cells.
    module = EXPERIMENTS[name]
    campaign = module.build_campaign(scale, **options)
    results = _RecordingResults(
        {
            spec.key: JobResult(key=spec.key, kind=spec.kind, metrics=_CannedMetrics())
            for spec in campaign.jobs
        }
    )
    stats = CampaignStats(
        total=len(results),
        executed=0,
        cache_hits=0,
        elapsed_seconds=0.0,
        executor="serial",
        jobs=1,
    )
    table = module.assemble(campaign, CampaignResult(campaign, results, stats))
    assert table.rows
    assert set(results.read) == set(results)


def _canned_result(campaign, metrics_for) -> CampaignResult:
    """The campaign's result with ``metrics_for(params)`` as each cell's metrics."""
    results = {
        spec.key: JobResult(
            key=spec.key, kind=spec.kind, metrics=metrics_for(spec.param_dict())
        )
        for spec in campaign.jobs
    }
    stats = CampaignStats(
        total=len(results),
        executed=0,
        cache_hits=0,
        elapsed_seconds=0.0,
        executor="serial",
        jobs=1,
    )
    return CampaignResult(campaign, results, stats)


@pytest.mark.parametrize("scale", ["smoke", "ci"])
class TestSweepGrid:
    """Table 4 and Figures 1-2 declare the (S, R) grid as shared sweep cells."""

    def test_table4_declares_every_valid_cell_once(self, scale):
        setting = get_setting(scale)
        campaign = table4.build_campaign(scale, datasets=("mnist_like",))
        cells = [
            (spec.kind, spec.param_dict()["s"], spec.param_dict()["r"]) for spec in campaign.jobs
        ]
        assert sorted(cells) == sorted(
            ("sweep-cell", s, r)
            for r in usable_r_values(setting)
            for s in setting.s_values
            if s <= r
        )
        assert len(set(cells)) == len(cells)

    def test_cell_params_follow_the_protocol(self, scale):
        campaign = table4.build_campaign(scale, seed=5, datasets=("cifar_like",))
        for spec in campaign.jobs:
            params = spec.param_dict()
            assert params["dataset"] == "cifar_like"
            assert params["scale"] == scale
            assert params["norm"] == "l0"
            assert params["target_strategy"] == "random"
            # One plan seed across the whole grid.
            assert params["seed"] == params["plan_seed"] == 5

    def test_figures_reuse_table4_cells(self, scale):
        table4_keys = {spec.key for spec in table4.build_campaign(scale).jobs}
        figure_keys = {
            spec.key
            for module in (figure1, figure2)
            for spec in module.build_campaign(scale).jobs
        }
        assert figure_keys and figure_keys <= table4_keys


class TestFigure3Campaign:
    @pytest.mark.parametrize("scale", ["smoke", "ci"])
    def test_one_job_per_point(self, scale):
        setting = get_setting(scale)
        campaign = figure3.build_campaign(scale, seed=2)
        points = [
            (spec.kind, spec.param_dict()["dataset"], spec.param_dict()["s"])
            for spec in campaign.jobs
        ]
        assert points == [
            ("tolerance-cell", dataset, s)
            for dataset in ("mnist_like", "cifar_like")
            for s in setting.tolerance_s_values
        ]
        expected_r = min(
            max(setting.tolerance_r, max(setting.tolerance_s_values)), anchor_pool_size(setting)
        )
        for spec in campaign.jobs:
            params = spec.param_dict()
            assert params["num_images"] == expected_r
            assert params["s"] <= params["num_images"]
            assert params["seed"] == params["plan_seed"] == 2

    def test_tolerance_is_max_successful_faults(self):
        # The fault count saturates below the largest S: the tolerance note
        # reports the maximum over the curve, not the last point.
        campaign = figure3.build_campaign("ci")
        faults = {("mnist_like", 2): 2, ("mnist_like", 6): 5, ("mnist_like", 12): 4}
        table = figure3.assemble(
            campaign,
            _canned_result(
                campaign,
                lambda params: {
                    "success_rate": 1.0,
                    "successful_faults": faults.get((params["dataset"], params["s"]), 1),
                    "keep_rate": 1.0,
                    "l0": 3,
                },
            ),
        )
        assert "mnist_like: observed fault tolerance (max successful faults) = 5" in table.notes
        assert "cifar_like: observed fault tolerance (max successful faults) = 1" in table.notes

    def test_rows_follow_the_curve(self):
        campaign = figure3.build_campaign("smoke", datasets=("mnist_like",))
        table = figure3.assemble(
            campaign,
            _canned_result(
                campaign,
                lambda params: {
                    "success_rate": 1.0 if params["s"] == 1 else 0.75,
                    "successful_faults": min(params["s"], 3),
                    "keep_rate": 0.9,
                    "l0": 7,
                },
            ),
        )
        records = table.to_records()
        assert [(r["S"], r["success rate"], r["successful faults"]) for r in records] == [
            (1, 1.0, 1),
            (4, 0.75, 3),
        ]

    def test_tolerance_cell_bounds_faults_by_s(self, session_registry):
        spec = JobSpec.make(
            "tolerance-cell",
            dataset="mnist_like",
            scale="smoke",
            seed=0,
            s=4,
            num_images=10,
            plan_seed=0,
        )
        metrics = execute_job(spec, registry=session_registry).metrics
        assert 0.0 <= metrics["success_rate"] <= 1.0
        assert 0.0 <= metrics["keep_rate"] <= 1.0
        assert 0 <= metrics["successful_faults"] <= 4
        assert metrics["successful_faults"] == round(4 * metrics["success_rate"])

    def test_tolerance_cell_rejects_s_beyond_r(self, session_registry):
        spec = JobSpec.make(
            "tolerance-cell",
            dataset="mnist_like",
            scale="smoke",
            seed=0,
            s=11,
            num_images=10,
            plan_seed=0,
        )
        with pytest.raises(ConfigurationError):
            execute_job(spec, registry=session_registry)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return table1.run("smoke", registry=session_registry, seed=0)

    def test_is_table(self, result):
        assert isinstance(result, Table)
        assert len(result.rows) == 3

    def test_layers_ordered(self, result):
        assert result.column("layer") == ["fc1", "fc2", "fc_logits"]

    def test_last_layer_cheapest(self, result):
        def numeric(cell):
            return int(str(cell).rstrip("*"))

        # use the first S column (index 2)
        values = [numeric(row[2]) for row in result.rows]
        assert values[2] < values[0]
        assert values[2] < values[1]


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return table2.run("smoke", registry=session_registry, seed=0)

    def test_rows(self, result):
        assert [row[0] for row in result.rows] == ["weights", "weights", "biases", "biases"]

    def test_weights_always_succeed(self, result):
        success_row = result.rows[1]
        assert all(v == 1.0 for v in success_row[2:])

    def test_bias_l0_tiny_when_successful(self, result):
        bias_l0_row = result.rows[2]
        numeric = [v for v in bias_l0_row[2:] if v != "-"]
        assert all(int(v) <= 10 for v in numeric)


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return table3.run("smoke", registry=session_registry, seed=0)

    def test_l0_attack_sparser(self, result):
        l0_row, l2_row = result.rows
        # columns alternate l0, l2 per (S, R) setting
        for col in range(1, len(result.columns), 2):
            assert l0_row[col] < l2_row[col]


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return table4.run("smoke", registry=session_registry, seed=0, datasets=("mnist_like",))

    def test_structure(self, result):
        assert result.columns[0] == "dataset"
        assert len(result.rows) == 2  # one per R value at smoke scale

    def test_accuracies_in_range(self, result):
        for row in result.rows:
            for value in row[3:]:
                if value != "-":
                    assert 0.0 <= value <= 1.0


class TestFigures:
    def test_figure1_structure(self, session_registry):
        result = figure1.run("smoke", registry=session_registry, seed=0)
        assert result.columns[0] == "R"
        assert len(result.rows) >= 1

    def test_figure3_success_near_one_for_small_s(self, session_registry):
        result = figure3.run(
            "smoke", registry=session_registry, seed=0, datasets=("mnist_like",)
        )
        records = result.to_records()
        small_s = [r for r in records if r["S"] == 1]
        assert small_s and all(r["success rate"] == 1.0 for r in small_s)


class TestBaselineComparison:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return baseline_comparison.run(
            "smoke", registry=session_registry, seed=0, datasets=("mnist_like",)
        )

    def test_three_attacks_reported(self, result):
        attacks = result.column("attack")
        assert len(attacks) == 3
        assert any("fault sneaking" in a for a in attacks)
        assert any("SBA" in a for a in attacks)
        assert any("GDA" in a for a in attacks)

    def test_sba_single_parameter(self, result):
        records = result.to_records()
        sba = next(r for r in records if "SBA" in r["attack"])
        assert sba["l0"] == 1


class TestAblations:
    def test_rho_sweep(self, session_registry):
        result = ablations.rho_sweep(
            "smoke", registry=session_registry, seed=0, rhos=(200.0, 2000.0)
        )
        assert len(result.rows) == 2
        # larger rho -> lower hard threshold -> at least as many modified params
        assert result.rows[1][2] >= result.rows[0][2]

    def test_warm_start_ablation(self, session_registry):
        result = ablations.warm_start_ablation("smoke", registry=session_registry, seed=0)
        records = result.to_records()
        with_warm = next(r for r in records if r["warm start"] is True)
        without = next(r for r in records if r["warm start"] is False)
        assert with_warm["success rate"] >= without["success rate"]

    def test_hardware_cost(self, session_registry):
        result = ablations.hardware_cost("smoke", registry=session_registry, seed=0)
        records = result.to_records()
        l0_words = [r["words touched"] for r in records if r["attack"] == "l0 attack"]
        l2_words = [r["words touched"] for r in records if r["attack"] == "l2 attack"]
        assert min(l2_words) >= max(l0_words)


class TestHardwareCost:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return hardware_cost.run("smoke", registry=session_registry, seed=0)

    def test_grid_shape(self, result):
        from repro.experiments.common import get_setting

        setting = get_setting("smoke")
        cells_per_s = (
            len(hardware_cost.BUDGET_LEVELS) * len(hardware_cost.DEFAULT_PROFILES) * 3
        )
        assert len(result.column("storage")) // cells_per_s == len(
            setting.hardware_s_values
        )
        assert set(result.column("storage")) == {"float32", "float16", "int8"}
        assert set(result.column("budget")) == {"unlimited", "derived", "expected"}
        assert set(result.column("profile")) == set(hardware_cost.DEFAULT_PROFILES)

    def test_bit_true_rates_in_range(self, result):
        for record in result.to_records():
            assert 0.0 <= record["bit-true success"] <= 1.0
            assert 0.0 <= record["bit-true keep"] <= 1.0

    def test_device_columns_present(self, result):
        import math

        for record in result.to_records():
            assert record["infeasible"] >= 0
            assert record["rerouted"] >= 0
            assert record["ecc alarms"] >= 0
            if record["profile"] == "server-ecc":
                # ECC rows report the unrepaired (raw) bit-true success.
                assert 0.0 <= record["raw success"] <= 1.0
            else:
                assert math.isnan(record["raw success"])

    def test_ecc_corrections_only_on_ecc_profile(self, result):
        for record in result.to_records():
            if record["profile"] != "server-ecc":
                assert record["ecc corrected"] == 0

    def test_narrower_words_need_fewer_flips(self, result):
        # int8 words have a quarter of float32's bits, so realising the same
        # modification must never need more planned flips.  Compare on the
        # no-ECC profile so repair padding does not blur the count.
        records = [
            r
            for r in result.to_records()
            if r["budget"] == "unlimited" and r["profile"] == "ddr3-noecc"
        ]
        by_storage = {}
        for record in records:
            by_storage.setdefault(record["storage"], []).append(record["bit flips"])
        assert sum(by_storage["int8"]) <= sum(by_storage["float32"])

    @pytest.mark.parametrize("backend", ["process-pool"])
    def test_parallel_matches_serial_with_profile(
        self, backend, session_registry, monkeypatch
    ):
        # Runner UX satellite: --profile passthrough must keep serial and
        # parallel campaign outputs byte-identical.
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(session_registry.disk_cache.directory)
        )
        kwargs = dict(
            registry=session_registry, seed=0, profiles=("server-ecc",)
        )
        serial = hardware_cost.run("smoke", **kwargs)
        parallel = hardware_cost.run("smoke", jobs=2, executor=backend, **kwargs)
        assert parallel.render("csv", digits=9) == serial.render("csv", digits=9)


class TestHardwareCostMitigations:
    """The hammer-pattern campaign axis over the mitigation-aware profiles."""

    PROFILES = ("ddr4-trrespass", "ddr5-ondie", "server-chipkill")
    PATTERNS = ("double-sided", "many-sided")

    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return hardware_cost.run(
            "smoke",
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=self.PROFILES,
            patterns=self.PATTERNS,
        )

    def test_pattern_axis_spans_the_grid(self, result):
        assert set(result.column("pattern")) == set(self.PATTERNS)
        assert set(result.column("profile")) == set(self.PROFILES)
        per_combo = {}
        for record in result.to_records():
            key = (record["profile"], record["pattern"])
            per_combo[key] = per_combo.get(key, 0) + 1
        counts = set(per_combo.values())
        assert len(counts) == 1  # every (profile, pattern) combo is complete
        assert len(per_combo) == len(self.PROFILES) * len(self.PATTERNS)

    def test_trr_sampler_profile_is_pattern_dependent(self, result):
        # On the sampler profile double-sided loses rows to the tracker and
        # many-sided evades it; the pattern-independent profiles must report
        # identical refreshed-row counts across patterns.
        refreshed = {}
        for record in result.to_records():
            key = (record["profile"], record["pattern"])
            refreshed[key] = refreshed.get(key, 0) + record["rows refreshed"]
        assert refreshed[("ddr4-trrespass", "many-sided")] == 0
        assert refreshed[("ddr5-ondie", "double-sided")] == 0
        assert refreshed[("server-chipkill", "double-sided")] == 0

    def test_hammer_rows_reported(self, result):
        for record in result.to_records():
            if record["bit flips"] > 0:
                assert record["hammer rows"] > 0

    def test_ondie_never_alarms_chipkill_does(self, result):
        alarms = {}
        for record in result.to_records():
            alarms.setdefault(record["profile"], []).append(record["ecc alarms"])
        assert all(a == 0 for a in alarms["ddr5-ondie"])
        assert any(a > 0 for a in alarms["server-chipkill"])

    @pytest.mark.parametrize("backend", ["process-pool"])
    def test_parallel_matches_serial_with_patterns(
        self, backend, session_registry, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(session_registry.disk_cache.directory)
        )
        kwargs = dict(
            registry=session_registry,
            seed=0,
            storages=("int8",),
            profiles=("ddr4-trrespass",),
            patterns=self.PATTERNS,
        )
        serial = hardware_cost.run("smoke", **kwargs)
        parallel = hardware_cost.run("smoke", jobs=2, executor=backend, **kwargs)
        assert parallel.render("csv", digits=9) == serial.render("csv", digits=9)
