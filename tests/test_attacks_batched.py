"""Bit-identity tests for the stacked attack path.

Every attack runs as lanes of one stacked solve.  Its contract is exact:
each lane — of :meth:`FaultSneakingAttack.attack` (one lane) and of
:meth:`BatchedFaultSneakingAttack.attack_batch` (many) — must be
*bit-identical* to the one-plan reference in ``reference_attack.py``, which
keeps its own scalar objective and the plain per-objective ADMM loop, warm
start and refinement.  The
property tests pin that over heterogeneous lanes (different target counts
and plan seeds, shared anchor count R — the shape the campaign fusion pass
produces) and over the configuration knobs, across every ``ADMMResult``
field and the full per-iteration history.  A work-count gate pins lane
compaction: a stacked solve pays, phase by phase, exactly the lane-passes of
its one-plan solves.  The remaining tests pin the solver-level pieces:
per-lane early-stop freezing and the history rows describing the
``z^{k+1}`` iterate they were recorded at.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from reference_attack import (
    ScalarObjective,
    dense_warm_start,
    evaluate_candidate,
    reference_attack,
    reference_solve,
)

from repro.attacks import admm, fault_sneaking
from repro.attacks.admm import ADMMConfig, ADMMSolver
from repro.attacks.batched import BatchedFaultSneakingAttack
from repro.attacks.fault_sneaking import (
    FaultSneakingAttack,
    FaultSneakingConfig,
    build_objective,
    run_attack_lanes,
)
from repro.attacks.objective import StackedAttackObjective
from repro.attacks.parameter_view import ParameterView
from repro.attacks.targets import make_attack_plan
from repro.utils.errors import ConfigurationError

# (num_targets, plan seed) per lane: heterogeneous S and target selections
# sharing one anchor count R, exactly as produced by campaign fusion.
LANES = [(1, 0), (2, 1), (3, 2), (1, 5)]
R = 24

ADMM_FIELDS = ("delta", "z", "raw_delta", "dual")
HISTORY_FIELDS = (
    "objective",
    "measure",
    "primal_residual",
    "dual_residual",
    "success_rate",
    "keep_rate",
)


@pytest.fixture
def loose_primal_tolerance(monkeypatch):
    """A huge primal tolerance, in the library and the reference alike: every
    lane converges at its first feasible candidate."""
    monkeypatch.setattr(admm, "PRIMAL_TOLERANCE", 1e6)
    monkeypatch.setattr("reference_attack.PRIMAL_TOLERANCE", 1e6)


def tiny_attack_config(norm: str, **overrides) -> FaultSneakingConfig:
    kwargs = dict(norm=norm, iterations=30, warmup_iterations=60, refine_support_steps=15)
    kwargs.update(overrides)
    return FaultSneakingConfig(**kwargs)


# Configurations the bit-identity tests sweep: every norm, each phase
# switched off in turn, a fixed α and a multi-layer dense suffix (attacking
# fc1 runs fc1 → fc2 → fc_logits, as Table 1 does).
ATTACK_CASES = {
    "l0": tiny_attack_config("l0"),
    "l1": tiny_attack_config("l1"),
    "l2": tiny_attack_config("l2"),
    "no-warm-start": tiny_attack_config("l0", warm_start=False),
    "no-refinement": tiny_attack_config("l0", refine_support_steps=0),
    "fixed-alpha": tiny_attack_config("l2", alpha=2.0),
    "fc1-suffix": tiny_attack_config("l0", layers=("fc1",)),
}

# Solver configurations for the ADMM-level bit-identity test.
SOLVER_CASES = {
    "l0": ADMMConfig(norm="l0", rho=500.0, iterations=25),
    "l1": ADMMConfig(norm="l1", rho=200.0, iterations=25),
    "l2": ADMMConfig(norm="l2", rho=50.0, iterations=25),
    "fixed-alpha": ADMMConfig(norm="l0", rho=500.0, alpha=3.0, iterations=25),
}


@pytest.fixture(scope="module")
def plans(tiny_split):
    return [
        make_attack_plan(tiny_split.test, num_targets=s, num_images=R, seed=seed)
        for s, seed in LANES
    ]


def assert_admm_bit_equal(result, reference):
    for name in ADMM_FIELDS:
        np.testing.assert_array_equal(
            getattr(result, name), getattr(reference, name), err_msg=name
        )
    assert result.iterations_run == reference.iterations_run
    assert result.converged == reference.converged
    assert result.feasible == reference.feasible
    for name in HISTORY_FIELDS:
        assert getattr(result.history, name) == getattr(reference.history, name), name


def assert_results_bit_equal(result, reference):
    np.testing.assert_array_equal(result.delta, reference.delta)
    np.testing.assert_array_equal(result.success_mask, reference.success_mask)
    np.testing.assert_array_equal(result.keep_mask, reference.keep_mask)
    assert_admm_bit_equal(result.admm, reference.admm)


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("case", sorted(ATTACK_CASES))
    def test_attacks_match_reference_bitwise(self, case, tiny_model, plans):
        config = ATTACK_CASES[case]
        reference = [reference_attack(tiny_model, config, plan) for plan in plans]
        single = [FaultSneakingAttack(tiny_model, config).attack(plan) for plan in plans]
        batched = BatchedFaultSneakingAttack(tiny_model, config).attack_batch(plans)
        assert len(batched) == len(reference)
        for lane, expected in enumerate(reference):
            assert_results_bit_equal(single[lane], expected)
            assert_results_bit_equal(batched[lane], expected)

    def test_single_lane_batch_matches_reference(self, tiny_model, plans):
        config = tiny_attack_config("l0")
        reference = reference_attack(tiny_model, config, plans[0])
        (batched,) = BatchedFaultSneakingAttack(tiny_model, config).attack_batch(plans[:1])
        assert_results_bit_equal(batched, reference)

    def test_reference_is_not_degenerate(self, tiny_model, plans):
        """The pinned attacks do real work: some lane succeeds with a sparse δ."""
        config = tiny_attack_config("l0")
        results = [reference_attack(tiny_model, config, plan) for plan in plans]
        assert any(result.success_rate == 1.0 for result in results)
        assert all(0 < result.l0_norm < result.view.size for result in results)

    def test_model_restored_after_batch(self, tiny_model, plans):
        config = tiny_attack_config("l0")
        view = ParameterView(tiny_model, config.selector())
        before = view.gather()
        BatchedFaultSneakingAttack(tiny_model, config).attack_batch(plans)
        np.testing.assert_array_equal(view.gather(), before)

    def test_empty_batch_rejected(self, tiny_model):
        with pytest.raises(ConfigurationError, match="at least one plan"):
            BatchedFaultSneakingAttack(tiny_model).attack_batch([])

    def test_mismatched_anchor_counts_rejected(self, tiny_model, tiny_split):
        plans = [
            make_attack_plan(tiny_split.test, num_targets=1, num_images=r, seed=0)
            for r in (10, 20)
        ]
        with pytest.raises(ConfigurationError, match="anchor count"):
            BatchedFaultSneakingAttack(tiny_model).attack_batch(plans)


class TestStackedObjective:
    def test_stacked_passes_match_scalar(self, tiny_model, plans):
        config = tiny_attack_config("l0")
        view = ParameterView(tiny_model, config.selector())
        objectives = [build_objective(config, view, plan) for plan in plans]
        stacked = StackedAttackObjective(objectives)
        rng = np.random.default_rng(11)
        deltas = 0.05 * rng.standard_normal((stacked.lanes, stacked.size))

        values, grads = stacked.value_and_gradient(deltas)
        cand_values, successes, keeps = stacked.evaluate_candidates(deltas)
        masks = stacked.masks(deltas)
        for lane, objective in enumerate(objectives):
            scalar = ScalarObjective(objective)
            value, grad = scalar.value_and_gradient(deltas[lane])
            assert values[lane] == value
            np.testing.assert_array_equal(grads[lane], grad)
            assert cand_values[lane] == scalar.value(deltas[lane])
            assert successes[lane] == scalar.success_rate(deltas[lane])
            assert keeps[lane] == scalar.keep_rate(deltas[lane])
            np.testing.assert_array_equal(masks[lane][0], scalar.success_mask(deltas[lane]))
            np.testing.assert_array_equal(masks[lane][1], scalar.keep_mask(deltas[lane]))
        view.restore()


class TestSolveBatch:
    @pytest.fixture()
    def stacked(self, tiny_model, plans):
        config = tiny_attack_config("l0")
        view = ParameterView(tiny_model, config.selector())
        objectives = [build_objective(config, view, plan) for plan in plans]
        yield StackedAttackObjective(objectives)
        view.restore()

    def test_early_stop_freezes_converged_lanes(
        self, tiny_model, plans, stacked, loose_primal_tolerance
    ):
        """A lane converging early keeps its frozen state bit-equal to scalar.

        A huge primal tolerance makes every lane converge at its first
        feasible candidate, so easy lanes (S=1) freeze while harder lanes
        keep iterating — exercising the masked-update path — and the frozen
        results must still match a scalar solve of the same lane.
        """
        attack_config = tiny_attack_config("l0")
        starts = np.stack(
            [dense_warm_start(attack_config, objective) for objective in stacked.objectives]
        )
        config = ADMMConfig(norm="l0", rho=500.0, iterations=40)
        batched = ADMMSolver(config).solve_batch(stacked, initial_deltas=starts)
        scalar = [
            reference_solve(config, stacked.objectives[lane], initial_delta=starts[lane])
            for lane in range(stacked.lanes)
        ]
        assert any(result.converged for result in batched)
        for batched_result, scalar_result in zip(batched, scalar):
            assert batched_result.iterations_run == scalar_result.iterations_run
            assert batched_result.converged == scalar_result.converged
            assert batched_result.history.objective == scalar_result.history.objective
            np.testing.assert_array_equal(batched_result.delta, scalar_result.delta)
            np.testing.assert_array_equal(batched_result.z, scalar_result.z)
            # a frozen lane's history stops growing with its last iteration
            assert len(batched_result.history.measure) == batched_result.iterations_run

    def test_per_lane_rhos_match_scalar_overrides(self, stacked):
        rhos = np.array([200.0, 500.0, 800.0, 350.0])
        batched = ADMMSolver(ADMMConfig(norm="l0", iterations=15)).solve_batch(
            stacked, rhos=rhos
        )
        for lane, rho in enumerate(rhos):
            config = ADMMConfig(norm="l0", rho=float(rho), iterations=15)
            assert_admm_bit_equal(batched[lane], reference_solve(config, stacked.objectives[lane]))

    @pytest.mark.parametrize("case", sorted(SOLVER_CASES))
    def test_solves_match_reference_bitwise(self, case, stacked):
        config = SOLVER_CASES[case]
        rng = np.random.default_rng(5)
        starts = 0.05 * rng.standard_normal((stacked.lanes, stacked.size))
        solver = ADMMSolver(config)
        batched = solver.solve_batch(stacked, initial_deltas=starts)
        for lane, objective in enumerate(stacked.objectives):
            reference = reference_solve(config, objective, initial_delta=starts[lane])
            assert_admm_bit_equal(solver.solve(objective, initial_delta=starts[lane]), reference)
            assert_admm_bit_equal(batched[lane], reference)

    def test_bad_initial_deltas_shape_rejected(self, stacked):
        with pytest.raises(ConfigurationError, match="initial_deltas"):
            ADMMSolver(ADMMConfig()).solve_batch(stacked, initial_deltas=np.zeros((2, 3)))

    def test_bad_rhos_rejected(self, stacked):
        solver = ADMMSolver(ADMMConfig())
        with pytest.raises(ConfigurationError, match="rhos"):
            solver.solve_batch(stacked, rhos=np.ones(2))
        with pytest.raises(ConfigurationError, match="positive"):
            solver.solve_batch(stacked, rhos=np.array([1.0, -1.0, 1.0, 1.0]))


class TestHistoryAlignment:
    """Pins for the history off-by-one fix: rows describe the z^{k+1} iterate."""

    @pytest.fixture()
    def objective(self, tiny_model, tiny_split):
        config = tiny_attack_config("l0")
        view = ParameterView(tiny_model, config.selector())
        plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=R, seed=0)
        yield build_objective(config, view, plan)
        view.restore()

    def test_last_history_row_describes_final_z(self, objective):
        result = ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=20)).solve(objective)
        value, success, keep = evaluate_candidate(objective, result.z)
        assert result.history.objective[-1] == value
        assert result.history.success_rate[-1] == success
        assert result.history.keep_rate[-1] == keep
        assert result.history.measure[-1] == float(np.count_nonzero(result.z))


# Each solve phase of ``run_attack_lanes`` and the function that runs it.
PHASES = {
    "warm_start": (fault_sneaking, "_dense_warm_start"),
    "admm": (ADMMSolver, "solve_batch"),
    "refinement": (fault_sneaking, "_refine_on_support"),
}


def phase_lane_passes(model, config, plans):
    """Run the plans as one stacked solve; return the rows each phase passed to
    :meth:`StackedAttackObjective.value_and_gradient`, and the results."""
    counts = dict.fromkeys(PHASES, 0)
    current = []
    evaluate = StackedAttackObjective.value_and_gradient

    def counting(self, deltas):
        (phase,) = current  # every gradient pass belongs to exactly one phase
        counts[phase] += len(deltas)
        return evaluate(self, deltas)

    def in_phase(phase, function):
        def run(*args, **kwargs):
            current.append(phase)
            try:
                return function(*args, **kwargs)
            finally:
                current.pop()

        return run

    with contextlib.ExitStack() as patches:
        patches.enter_context(
            mock.patch.object(StackedAttackObjective, "value_and_gradient", counting)
        )
        for phase, (owner, name) in PHASES.items():
            patches.enter_context(
                mock.patch.object(owner, name, in_phase(phase, getattr(owner, name)))
            )
        results = run_attack_lanes(model, config, plans)
    return counts, results


class TestLaneCompaction:
    """Work-count gate: every phase evaluates only the lanes still active."""

    def test_stacked_phases_cost_the_sum_of_one_plan_solves(
        self, tiny_model, plans, loose_primal_tolerance
    ):
        # The full warm-start budget and a loose primal tolerance let lanes
        # finish every phase at different passes (warm start 577/76/340/88,
        # ADMM 4/8/15/9, refinement 2/15/15/2 lane-passes).
        config = tiny_attack_config("l0", warmup_iterations=600)
        stacked, results = phase_lane_passes(tiny_model, config, plans)
        single = [phase_lane_passes(tiny_model, config, [plan])[0] for plan in plans]
        for phase in PHASES:
            per_plan = [counts[phase] for counts in single]
            assert stacked[phase] == sum(per_plan), phase
            # Lanes finish the phase at different passes, so a stack that kept
            # paying for finished lanes would exceed the sum.
            assert len(plans) * max(per_plan) > sum(per_plan), phase
        for result, plan in zip(results, plans):
            assert_results_bit_equal(result, reference_attack(tiny_model, config, plan))
