"""Tests for the detection probability models (stealth / detectability extension)."""

import math
import sys
from fractions import Fraction

import pytest

from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan
from repro.defenses.detectors import (
    _binomial_cdf,
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


def _exact_binomial_cdf(n, p):
    """``k -> P[X <= k]`` for ``X ~ Binomial(n, p)``, exact in the float ``p``."""
    top, bottom = Fraction(p).as_integer_ratio()
    masses = [0]
    for i in range(n + 1):
        masses.append(masses[-1] + math.comb(n, i) * top**i * (bottom - top) ** (n - i))
    return lambda k: Fraction(masses[min(max(k + 1, 0), n + 1)], bottom**n)


def _assert_close(got, exact):
    """Within 1e-11 relative, or within the smallest normal float of an underflow."""
    error = abs(Fraction(got) - exact)
    assert error <= Fraction(1e-11) * exact + Fraction(sys.float_info.min), (got, float(exact))


class TestBinomialTail:
    @pytest.mark.parametrize("n", [1, 2, 10, 57, 300, 1000])
    @pytest.mark.parametrize("p", [0.0, 1 / 512, 0.125, 0.3, 0.5, 0.75, 0.9, 31 / 32, 1.0])
    def test_matches_exact_fractions(self, n, p):
        exact = _exact_binomial_cdf(n, p)
        for k in sorted({-3, -1, 0, 1, n // 3, n // 2, int(n * p), n - 1, n, n + 5}):
            _assert_close(_binomial_cdf(k, n, p), exact(k))

    def test_probe_probability_is_the_tail(self):
        # alarm iff fewer than ceil(100 * 0.97) = 97 of 100 probes are right
        p = probe_detection_probability(0.99, 0.9, probe_size=100, tolerance=0.02)
        assert p == _binomial_cdf(96, 100, 0.9)


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

    @pytest.mark.parametrize("total", [1, 2, 50, 999, 5000])
    def test_matches_exact_fractions(self, total):
        counts = sorted({0, 1, total // 10, total // 7, total // 2, total - 1, total})
        for modified in counts:
            for audited in counts:
                got = parameter_audit_detection_probability(modified, total, audited=audited)
                exact = 1 - Fraction(
                    math.comb(total - modified, audited), math.comb(total, audited)
                )
                _assert_close(got, exact)

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
