"""Tests for the `defense_matrix` arms-race campaign (smoke scale).

The headline acceptance properties live here: the `none` rows reproduce the
matching undefended `hardware_cost` cells bit for bit, the grid stays
byte-identical between serial and parallel execution, and new campaign axes
(`env_drift`) follow the only-when-non-default cell-key discipline.
"""

from __future__ import annotations

import json

import pytest

from repro.attacks import lowering
from repro.defenses import evaluate_defense
from repro.experiments import defense_matrix, hardware_cost
from repro.experiments.campaign import Campaign, JobSpec, execute_job, run_campaign
from repro.experiments.common import get_setting
from repro.utils.errors import ConfigurationError

ATTACKERS = ("ddr3-blitz", "server-stealth")
DEFENSES = ("none", "checksum-fast", "ecc-scrub", "aslr")
BUDGETS = ("derived",)


class TestDefenseMatrix:
    @pytest.fixture(scope="class")
    def result(self, session_registry):
        return defense_matrix.run(
            "smoke",
            registry=session_registry,
            seed=0,
            attackers=ATTACKERS,
            defenses=DEFENSES,
            budgets=BUDGETS,
        )

    def test_grid_shape(self, result):
        setting = get_setting("smoke")
        expected_rows = (
            len(ATTACKERS) * len(DEFENSES) * len(BUDGETS) * len(setting.hardware_s_values)
        )
        assert len(result.rows) == expected_rows
        assert set(result.column("attacker")) == set(ATTACKERS)
        assert set(result.column("defense")) == set(DEFENSES)
        assert set(result.column("budget")) == set(BUDGETS)
        profiles = {defense_matrix.ATTACKER_PROFILES[a][0] for a in ATTACKERS}
        assert set(result.column("profile")) == profiles

    def test_race_rates_in_range(self, result):
        for record in result.to_records():
            assert 0.0 <= record["detect rate"] <= 1.0
            assert 0.0 <= record["evasion rate"] <= 1.0
            assert record["evasion ci95"] >= 0.0
            assert 0.0 <= record["surviving success"] <= 1.0
            assert record["hammer s"] > 0.0
            if record["detect rate"] > 0.0:
                assert record["ttd s"] > 0.0
            else:
                assert record["ttd s"] != record["ttd s"]  # NaN

    def test_none_rows_match_hardware_cost_bit_for_bit(self, result, session_registry):
        # The acceptance criterion: an undefended matrix row reproduces the
        # corresponding hardware_cost cell exactly — same solve cache, same
        # trial-seed derivation, so every Monte-Carlo column is identical.
        undefended = hardware_cost.run(
            "smoke",
            registry=session_registry,
            seed=0,
            storages=("float32",),
            profiles=tuple(defense_matrix.ATTACKER_PROFILES[a][0] for a in ATTACKERS),
        )
        reference = {
            (r["profile"], r["budget"], r["S"]): r for r in undefended.to_records()
        }
        compared = 0
        for record in result.to_records():
            if record["defense"] != "none":
                continue
            other = reference[(record["profile"], record["budget"], record["S"])]
            for column in (
                "bit-true success",
                "trials",
                "mc success",
                "success ci95",
                "mc keep",
                "keep ci95",
                "mc accuracy",
                "accuracy ci95",
                "flips landed",
            ):
                assert record[column] == other[column], (column, record)
            compared += 1
        assert compared == len(ATTACKERS) * len(BUDGETS) * len(
            get_setting("smoke").hardware_s_values
        )

    def test_none_rows_never_detect(self, result):
        for record in result.to_records():
            if record["defense"] == "none":
                assert record["detect rate"] == 0.0
                assert record["evasion rate"] == 1.0
                assert record["surviving success"] == record["mc success"]

    def test_ecc_scrub_inert_without_ecc(self, result):
        for record in result.to_records():
            if record["defense"] == "ecc-scrub" and record["profile"] == "ddr3-noecc":
                assert record["detect rate"] == 0.0
                assert record["evasion rate"] == 1.0

    def test_aslr_never_detects(self, result):
        for record in result.to_records():
            if record["defense"] == "aslr":
                assert record["detect rate"] == 0.0
                assert record["evasion rate"] == 1.0

    @pytest.mark.parametrize("backend", ["process-pool"])
    def test_parallel_matches_serial(self, backend, session_registry, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(session_registry.disk_cache.directory)
        )
        kwargs = dict(
            registry=session_registry,
            seed=0,
            attackers=("ddr3-blitz",),
            defenses=("none", "checksum-fast"),
            budgets=("derived",),
        )
        serial = defense_matrix.run("smoke", **kwargs)
        parallel = defense_matrix.run("smoke", jobs=2, executor=backend, **kwargs)
        assert parallel.render("csv", digits=9) == serial.render("csv", digits=9)


class TestSharedRepairs:
    """A campaign plans and repairs each distinct lowering once, and no
    cell's metrics change: every cell equals its own job run on its own."""

    @pytest.fixture()
    def repairs(self, monkeypatch):
        """The memo each repair_plan call ran under, one entry per call."""
        calls = []
        repair_plan = lowering.repair_plan

        def counting(*args, **kwargs):
            calls.append(lowering._shared_repairs.get())
            return repair_plan(*args, **kwargs)

        monkeypatch.setattr(lowering, "repair_plan", counting)
        return calls

    @staticmethod
    def _assert_cells_match_unshared(campaign, result, registry):
        for spec in campaign.jobs:
            alone = execute_job(spec, registry=registry).metrics
            # json form: NaN metrics compare equal
            assert json.dumps(result.metrics_for(spec), sort_keys=True) == json.dumps(
                alone, sort_keys=True
            )

    def test_defense_matrix_repairs_each_lowering_once(self, session_registry, repairs):
        campaign = defense_matrix.build_campaign(
            "smoke", attackers=ATTACKERS, defenses=DEFENSES, budgets=BUDGETS
        )
        result = run_campaign(campaign, registry=session_registry)
        lowerings = {(cell["attacker"], cell["budget"], cell["s"]) for cell, _ in result.cells()}
        assert len(repairs) == len(lowerings) == len(campaign.jobs) // len(DEFENSES)
        repairs.clear()
        self._assert_cells_match_unshared(campaign, result, session_registry)
        assert repairs == [None] * len(campaign.jobs)

    def test_hardware_cost_repairs_every_cell(self, session_registry, repairs):
        campaign = hardware_cost.build_campaign(
            "smoke", storages=("float32", "int8"), profiles=("ddr3-noecc", "server-ecc")
        )
        result = run_campaign(campaign, registry=session_registry)
        assert len(repairs) == len(campaign.jobs)
        self._assert_cells_match_unshared(campaign, result, session_registry)

    @pytest.mark.parametrize("fails", [False, True])
    def test_memo_is_empty_and_inactive_after_the_campaign(
        self, fails, session_registry, repairs
    ):
        good = hardware_cost.build_campaign(
            "smoke", storages=("float32",), profiles=("ddr3-noecc",)
        ).jobs[0]
        jobs = (good, JobSpec.make(good.kind, **{**good.param_dict(), "profile": "nope"}))
        campaign = Campaign(name="memo-scope", scale="smoke", seed=0, jobs=jobs[: 1 + fails])
        if fails:
            with pytest.raises(ConfigurationError):
                run_campaign(campaign, registry=session_registry)
        else:
            run_campaign(campaign, registry=session_registry)
        (memo,) = repairs
        assert memo == {} and lowering._shared_repairs.get() is None


class TestCellKeyDiscipline:
    def test_env_drift_enters_keys_only_when_non_default(self):
        nominal = defense_matrix.build_campaign("smoke")
        assert all("env_drift" not in dict(job.params) for job in nominal.jobs)
        assert all(
            "variance_reduction" not in dict(job.params) for job in nominal.jobs
        )
        drifted = defense_matrix.build_campaign("smoke", env_drift=0.25)
        assert all(dict(job.params)["env_drift"] == 0.25 for job in drifted.jobs)
        crn = defense_matrix.build_campaign("smoke", variance_reduction="crn")
        assert all(
            dict(job.params)["variance_reduction"] == "crn" for job in crn.jobs
        )

    def test_hardware_cost_env_drift_same_discipline(self):
        nominal = hardware_cost.build_campaign("smoke")
        assert all("env_drift" not in dict(job.params) for job in nominal.jobs)
        drifted = hardware_cost.build_campaign("smoke", env_drift=-0.1)
        assert all(dict(job.params)["env_drift"] == -0.1 for job in drifted.jobs)

    def test_invalid_configurations_rejected(self):
        with pytest.raises(ConfigurationError):
            defense_matrix.build_campaign("smoke", attackers=("nope",))
        with pytest.raises(ConfigurationError):
            defense_matrix.build_campaign("smoke", defenses=("nope",))
        with pytest.raises(ConfigurationError):
            defense_matrix.build_campaign("smoke", trials=0)
        with pytest.raises(ConfigurationError):
            defense_matrix.build_campaign("smoke", env_drift=1.0)
        with pytest.raises(ConfigurationError, match="unknown budget 'bogus'"):
            defense_matrix.build_campaign("smoke", budgets=("bogus",))


class TestEvaluateDefense:
    def test_requires_monte_carlo_trials(self, session_registry):
        cell = hardware_cost.lowered_cell(
            registry=session_registry,
            dataset="mnist_like",
            scale="smoke",
            seed=0,
            s=1,
            r=100,
            storage="float32",
            profile="ddr3-noecc",
            budget="derived",
            plan_seed=0,
            trials=0,
        )
        with pytest.raises(ConfigurationError):
            evaluate_defense("checksum", report=cell.report, defense_seed=0)
