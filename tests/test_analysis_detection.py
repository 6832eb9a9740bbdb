"""Tests for the detection probability models (stealth / detectability extension)."""

import pytest

from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan
from repro.defenses.detectors import (
    detection_report,
    parameter_audit_detection_probability,
    probe_detection_probability,
    probes_needed_for_detection,
)
from repro.utils.errors import ConfigurationError

FAST = dict(iterations=60, warmup_iterations=250, refine_support_steps=30)


class TestProbeDetection:
    def test_no_degradation_low_probability(self):
        p = probe_detection_probability(0.99, 0.99, probe_size=1000, tolerance=0.02)
        assert p < 0.1

    def test_large_degradation_detected(self):
        p = probe_detection_probability(0.99, 0.60, probe_size=200, tolerance=0.02)
        assert p > 0.99

    def test_monotone_in_probe_size(self):
        small = probe_detection_probability(0.99, 0.90, probe_size=50, tolerance=0.02)
        large = probe_detection_probability(0.99, 0.90, probe_size=2000, tolerance=0.02)
        assert large >= small

    def test_monotone_in_degradation(self):
        mild = probe_detection_probability(0.99, 0.96, probe_size=500, tolerance=0.02)
        severe = probe_detection_probability(0.99, 0.80, probe_size=500, tolerance=0.02)
        assert severe >= mild

    def test_probability_bounds(self):
        p = probe_detection_probability(0.95, 0.5, probe_size=10)
        assert 0.0 <= p <= 1.0

    def test_invalid_probe_size(self):
        with pytest.raises(ConfigurationError):
            probe_detection_probability(0.9, 0.8, probe_size=0)

    def test_zero_threshold_never_detects(self):
        assert probe_detection_probability(0.01, 0.0, probe_size=100, tolerance=0.5) == 0.0


class TestProbesNeeded:
    def test_undetectable_within_tolerance(self):
        assert probes_needed_for_detection(0.99, 0.985, tolerance=0.02) is None

    def test_detectable_attack_has_finite_answer(self):
        needed = probes_needed_for_detection(0.99, 0.90, tolerance=0.02)
        assert needed is not None
        assert probe_detection_probability(0.99, 0.90, probe_size=needed) >= 0.95

    def test_smaller_degradation_needs_more_probes(self):
        mild = probes_needed_for_detection(0.99, 0.94, tolerance=0.02)
        severe = probes_needed_for_detection(0.99, 0.70, tolerance=0.02)
        assert mild is not None and severe is not None
        assert mild >= severe

    def test_cap_respected(self):
        # barely past the tolerance boundary: needs more probes than the cap
        result = probes_needed_for_detection(
            0.99, 0.9699, tolerance=0.02, max_probe_size=64
        )
        assert result is None


class TestParameterAudit:
    def test_zero_modified(self):
        assert parameter_audit_detection_probability(0, 1000, audited=100) == 0.0

    def test_full_audit_always_detects(self):
        assert parameter_audit_detection_probability(5, 100, audited=100) == pytest.approx(1.0)

    def test_monotone_in_modified_count(self):
        sparse = parameter_audit_detection_probability(10, 2010, audited=100)
        dense = parameter_audit_detection_probability(1500, 2010, audited=100)
        assert dense > sparse

    def test_monotone_in_audit_budget(self):
        small = parameter_audit_detection_probability(50, 2010, audited=10)
        large = parameter_audit_detection_probability(50, 2010, audited=500)
        assert large > small

    def test_single_modified_single_audit(self):
        p = parameter_audit_detection_probability(1, 100, audited=1)
        assert p == pytest.approx(0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            parameter_audit_detection_probability(5, 0, audited=1)
        with pytest.raises(ConfigurationError):
            parameter_audit_detection_probability(10, 5, audited=1)
        with pytest.raises(ConfigurationError):
            parameter_audit_detection_probability(1, 5, audited=-1)


class TestDetectionReport:
    def test_report_for_real_attack(self, tiny_model, tiny_split):
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=30, seed=0)
        result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        test = tiny_split.test
        clean = tiny_model.evaluate(test.images, test.labels)
        attacked = result.modified_model().evaluate(test.images, test.labels)
        report = detection_report(
            clean,
            attacked,
            num_modified_parameters=result.l0_norm,
            attacked_parameter_count=result.view.size,
        )
        assert (report.clean_accuracy, report.attacked_accuracy) == (clean, attacked)
        assert report.num_modified_parameters == result.l0_norm
        assert 0.0 <= report.probe_detection_at_100 <= 1.0
        assert 0.0 <= report.audit_detection_at_10_percent <= 1.0
        assert report.audit_detection_at_10_percent >= report.audit_detection_at_1_percent
        record = report.as_dict()
        assert "probes_needed_95" in record

    def test_sparser_modification_is_harder_to_audit(self, tiny_model, tiny_split):
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=1)
        l0_result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        l2_result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l2", kappa=0.0, **FAST)
        ).attack(plan)
        test = tiny_split.test
        clean = tiny_model.evaluate(test.images, test.labels)
        l0_report = detection_report(
            clean,
            l0_result.modified_model().evaluate(test.images, test.labels),
            num_modified_parameters=l0_result.l0_norm,
            attacked_parameter_count=l0_result.view.size,
        )
        l2_report = detection_report(
            clean,
            l2_result.modified_model().evaluate(test.images, test.labels),
            num_modified_parameters=l2_result.l0_norm,
            attacked_parameter_count=l2_result.view.size,
        )
        assert (
            l0_report.audit_detection_at_1_percent <= l2_report.audit_detection_at_1_percent
        )
