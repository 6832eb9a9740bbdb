"""Tests for repro.analysis.evaluation."""

import numpy as np
import pytest

from repro.analysis import evaluation
from repro.analysis.evaluation import (
    ZERO_TOLERANCE,
    EvaluationContext,
    count_modified_parameters,
    evaluate_attack_result,
    evaluate_attack_results,
)
from repro.attacks import fault_sneaking
from repro.attacks.fault_sneaking import FaultSneakingAttack, FaultSneakingConfig
from repro.attacks.targets import make_attack_plan

FAST = dict(iterations=60, warmup_iterations=250, refine_support_steps=30)


class TestCountModified:
    def test_exact_zeros_ignored(self):
        assert count_modified_parameters(np.array([0.0, 1.0, -2.0, 0.0])) == 2

    def test_entries_up_to_the_zero_tolerance_ignored(self):
        delta = np.array([1e-12, -ZERO_TOLERANCE, ZERO_TOLERANCE, 1e-3, -0.5])
        assert count_modified_parameters(delta) == 2

    @pytest.mark.parametrize(
        ("delta", "count"),
        [
            (np.array([ZERO_TOLERANCE]), 0),
            (np.array([-ZERO_TOLERANCE]), 0),
            (np.array([np.nextafter(ZERO_TOLERANCE, 1.0)]), 1),
            (np.array([-np.nextafter(ZERO_TOLERANCE, 1.0)]), 1),
            (np.zeros(0), 0),
            (np.array([[0.0, 1.0], [1e-3, 1e-9]]), 2),
            ([0.0, 0.5, -0.25], 2),
        ],
        ids=["at-tol", "at-minus-tol", "above-tol", "below-minus-tol", "empty", "2d", "list"],
    )
    def test_boundary_and_input_forms(self, delta, count):
        assert count_modified_parameters(delta) == count

    def test_analysis_re_exports_the_attack_count(self):
        assert evaluation.count_modified_parameters is fault_sneaking.count_modified_parameters
        assert evaluation.ZERO_TOLERANCE == fault_sneaking.ZERO_TOLERANCE == 1e-8


class TestEvaluationContext:
    @pytest.mark.parametrize("start", ["first", "last"])
    def test_unmodified_model_scores_clean_accuracy(self, start, tiny_model, tiny_split):
        # Scoring the clean victim itself from any layer reproduces the clean
        # accuracy: an unmodified model shows no accuracy change.
        context = EvaluationContext(tiny_model, tiny_split.test, batch_size=64)
        index = 0 if start == "first" else len(tiny_model.layers) - 1
        assert context.accuracies([tiny_model], index) == [context.clean_accuracy]
        assert context.clean_accuracy == tiny_model.evaluate(
            tiny_split.test.images, tiny_split.test.labels, batch_size=64
        )

    def test_suffix_logits_equal_a_full_forward_bitwise(self, tiny_model, tiny_split):
        # 100 rows in 64-row batches: the last mini-batch is a partial one.
        test = tiny_split.test.subset(np.arange(100))
        context = EvaluationContext(tiny_model, test, batch_size=64)
        full = tiny_model.predict_logits(test.images, batch_size=64)
        for start in range(len(tiny_model.layers)):
            (logits,) = context.logits([tiny_model], start)
            np.testing.assert_array_equal(logits, full)


class TestEvaluateAttackResult:
    @pytest.fixture(scope="class")
    def evaluated(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        tiny_accuracy = request.getfixturevalue("tiny_accuracy")
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=20, seed=0)
        result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        evaluation = evaluate_attack_result(
            result, tiny_split.test, clean_model=tiny_model, clean_accuracy=tiny_accuracy
        )
        return evaluation, result, tiny_accuracy

    def test_counts_match_result(self, evaluated):
        evaluation, result, _ = evaluated
        assert evaluation.l0_norm == result.l0_norm
        assert evaluation.l2_norm == pytest.approx(result.l2_norm)
        assert evaluation.num_targets == result.num_targets
        assert evaluation.num_images == result.num_images
        assert evaluation.success_rate == result.success_rate
        assert evaluation.keep_rate == result.keep_rate

    def test_clean_accuracy_passthrough(self, evaluated):
        evaluation, _, tiny_accuracy = evaluated
        assert evaluation.clean_test_accuracy == tiny_accuracy

    def test_accuracy_drop_consistency(self, evaluated):
        evaluation, _, _ = evaluated
        assert evaluation.accuracy_drop == pytest.approx(
            evaluation.clean_test_accuracy - evaluation.attacked_test_accuracy
        )
        assert evaluation.accuracy_drop_percent == pytest.approx(100 * evaluation.accuracy_drop)

    def test_attacked_accuracy_reasonable(self, evaluated):
        evaluation, _, _ = evaluated
        # stealth: the modified model should stay within a modest drop on this tiny problem
        assert evaluation.attacked_test_accuracy >= evaluation.clean_test_accuracy - 0.25

    def test_as_dict_keys(self, evaluated):
        evaluation, _, _ = evaluated
        record = evaluation.as_dict()
        for key in ("S", "R", "l0", "l2", "success_rate", "keep_rate", "accuracy_drop_percent"):
            assert key in record

    def test_clean_accuracy_computed_when_missing(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        plan = make_attack_plan(tiny_split.test, num_targets=1, num_images=5, seed=1)
        result = FaultSneakingAttack(
            tiny_model, FaultSneakingConfig(norm="l0", **FAST)
        ).attack(plan)
        evaluation = evaluate_attack_result(result, tiny_split.test)
        expected = tiny_model.evaluate(tiny_split.test.images, tiny_split.test.labels)
        assert evaluation.clean_test_accuracy == pytest.approx(expected)


class TestEvaluateAttackResults:
    """The shared-prefix batched evaluator used by fused campaigns."""

    @pytest.fixture(scope="class")
    def results(self, request):
        tiny_model = request.getfixturevalue("tiny_model")
        tiny_split = request.getfixturevalue("tiny_split")
        attack = FaultSneakingAttack(tiny_model, FaultSneakingConfig(norm="l0", **FAST))
        return [
            attack.attack(
                make_attack_plan(tiny_split.test, num_targets=s, num_images=12, seed=seed)
            )
            for s, seed in ((1, 0), (2, 1), (3, 2))
        ]

    def test_matches_scalar_evaluation_bitwise(self, results, tiny_model, tiny_split):
        batched = evaluate_attack_results(results, tiny_split.test, clean_model=tiny_model)
        scalar = [
            evaluate_attack_result(result, tiny_split.test, clean_model=tiny_model)
            for result in results
        ]
        assert [e.as_dict() for e in batched] == [e.as_dict() for e in scalar]

    def test_matches_full_model_evaluation_bitwise(self, results, tiny_model, tiny_split):
        """The suffix-only forward equals running each whole attacked model."""
        images, labels = tiny_split.test.images, tiny_split.test.labels
        for evaluation, result in zip(
            evaluate_attack_results(results, tiny_split.test, batch_size=64), results
        ):
            assert evaluation.clean_test_accuracy == tiny_model.evaluate(
                images, labels, batch_size=64
            )
            assert evaluation.attacked_test_accuracy == result.modified_model().evaluate(
                images, labels, batch_size=64
            )

    def test_context_computes_clean_work_once(self, results, tiny_model, tiny_split):
        context = EvaluationContext(tiny_model, tiny_split.test)
        first = evaluate_attack_results(results[:1], context=context)
        start = results[0].view.first_layer_index
        prefixes = context.prefix_batches(start)
        second = evaluate_attack_results(results, context=context)
        assert context.prefix_batches(start) is prefixes
        assert first[0].as_dict() == second[0].as_dict()
        assert [e.as_dict() for e in second] == [
            e.as_dict()
            for e in evaluate_attack_results(results, tiny_split.test, clean_model=tiny_model)
        ]

    def test_needs_exactly_one_of_test_set_and_context(self, results, tiny_model, tiny_split):
        context = EvaluationContext(tiny_model, tiny_split.test)
        with pytest.raises(ValueError, match="exactly one"):
            evaluate_attack_results(results, tiny_split.test, context=context)
        with pytest.raises(ValueError, match="exactly one"):
            evaluate_attack_results(results)

    def test_empty_input(self, tiny_split):
        assert evaluate_attack_results([], tiny_split.test) == []

    def test_clean_accuracy_passthrough(self, results, tiny_model, tiny_split):
        batched = evaluate_attack_results(
            results, tiny_split.test, clean_model=tiny_model, clean_accuracy=0.5
        )
        assert all(e.clean_test_accuracy == 0.5 for e in batched)
