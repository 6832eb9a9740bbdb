"""Tests for repro.attacks.admm."""

import numpy as np
import pytest

from repro.attacks import admm
from repro.attacks.admm import TRUST_RADIUS, ADMMConfig, ADMMSolver
from repro.attacks.objective import AttackObjective, StackedAttackObjective
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.targets import make_attack_plan
from repro.utils.errors import ConfigurationError


@pytest.fixture()
def objective(tiny_model, tiny_split):
    plan = make_attack_plan(tiny_split.test, num_targets=2, num_images=10, seed=0)
    view = ParameterView(tiny_model, ParameterSelector(layers=("fc_logits",)))
    kappa = np.concatenate([np.full(2, 0.5), np.zeros(8)])
    return AttackObjective(
        view, plan.images, plan.desired_labels, num_targets=2, kappa=kappa
    )


def dense_start(objective, iterations=400):
    """Small normalised-gradient warm start used to initialise the solver."""
    delta = np.zeros(objective.view.size)
    velocity = np.zeros_like(delta)
    for _ in range(iterations):
        value, grad = objective.value_and_gradient(delta)
        if value <= 0:
            break
        norm = np.linalg.norm(grad)
        if norm == 0:
            break
        velocity = 0.9 * velocity - 0.05 * grad / norm
        delta = delta + velocity
    return delta


class TestConfig:
    def test_defaults_valid(self):
        ADMMConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"norm": "l7"},
            {"rho": 0.0},
            {"alpha": -1.0},
            {"iterations": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ADMMConfig(**kwargs)


class TestConstants:
    @pytest.mark.parametrize("grad_norm", [1e-3, 1.0, 1e3, 1e6])
    def test_adaptive_alpha_keeps_the_step_inside_the_trust_radius(self, grad_norm):
        # The gradient part of the δ-step, ‖∇G‖ / (αR + ρ), never exceeds
        # TRUST_RADIUS; α sits on its floor only when the step is already short.
        rho, num_images = 50.0, 10
        grads = np.zeros((1, 4))
        grads[0, 0] = grad_norm
        (alpha,) = ADMMSolver(ADMMConfig())._effective_alphas(grads, num_images, np.array([rho]))
        step = grad_norm / (alpha * num_images + rho)
        assert alpha >= 1.0
        assert step <= TRUST_RADIUS * (1 + 1e-12)
        if alpha > 1.0:
            assert step == pytest.approx(TRUST_RADIUS, rel=1e-12)

    @pytest.mark.parametrize("tolerance", [-1.0, 1e6])
    def test_primal_tolerance_decides_convergence(self, tolerance, objective, monkeypatch):
        # A negative tolerance can never be met; a huge one is met by the
        # first feasible iterate.
        monkeypatch.setattr(admm, "PRIMAL_TOLERANCE", tolerance)
        solver = ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=40))
        result = solver.solve(objective, initial_delta=dense_start(objective))
        assert result.converged == (tolerance > 0)
        assert (result.iterations_run < 40) == (tolerance > 0)


class TestSolver:
    def test_solves_from_warm_start(self, objective):
        start = dense_start(objective)
        solver = ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=100))
        result = solver.solve(objective, initial_delta=start)
        assert result.iterations_run <= 100
        _, success, _ = StackedAttackObjective([objective]).evaluate_candidates(result.delta[None])
        assert success[0] >= 0.5
        # the sparse result must have fewer non-zeros than the dense start
        assert result.l0_norm < np.count_nonzero(start)

    def test_history_recorded(self, objective):
        solver = ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=20))
        result = solver.solve(objective, initial_delta=dense_start(objective))
        assert result.history.iterations == result.iterations_run
        assert len(result.history.measure) == result.iterations_run
        assert len(result.history.success_rate) == result.iterations_run

    def test_zero_start_l2(self, objective):
        solver = ADMMSolver(ADMMConfig(norm="l2", rho=50.0, iterations=150))
        result = solver.solve(objective)
        # the dual/gradient interplay should at least make progress on the targets
        assert result.delta.shape == (objective.view.size,)
        assert np.isfinite(result.delta).all()

    def test_bad_initial_delta_shape(self, objective):
        solver = ADMMSolver(ADMMConfig())
        with pytest.raises(ConfigurationError):
            solver.solve(objective, initial_delta=np.zeros(3))

    def test_result_norm_properties(self, objective):
        solver = ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=30))
        result = solver.solve(objective, initial_delta=dense_start(objective))
        assert result.l0_norm == int(np.count_nonzero(result.delta))
        assert result.l2_norm == pytest.approx(float(np.linalg.norm(result.delta)))

    def test_model_left_unmodified(self, objective):
        view = objective.view
        before = view.gather()
        ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=15)).solve(
            objective, initial_delta=dense_start(objective)
        )
        np.testing.assert_array_equal(view.gather(), before)

    def test_adaptive_alpha_bounds_step(self, objective):
        """With alpha=None the delta update per iteration stays bounded."""
        config = ADMMConfig(norm="l2", rho=50.0, iterations=40)
        solver = ADMMSolver(config)
        result = solver.solve(objective)
        # total movement cannot exceed iterations * (TRUST_RADIUS + coupling slack)
        assert np.linalg.norm(result.raw_delta) < 40 * 0.2

    def test_fixed_alpha_respected(self, objective):
        config = ADMMConfig(norm="l2", rho=50.0, alpha=3.0, iterations=10)
        solver = ADMMSolver(config)
        alphas = solver._effective_alphas(np.ones((2, objective.view.size)), 10, np.full(2, 50.0))
        np.testing.assert_array_equal(alphas, [3.0, 3.0])

    def test_effective_alpha_floor(self, objective):
        """A vanishing gradient leaves the adaptive α at its floor of 1."""
        solver = ADMMSolver(ADMMConfig(norm="l2", rho=50.0, iterations=10))
        alphas = solver._effective_alphas(np.zeros((1, objective.view.size)), 10, np.full(1, 50.0))
        np.testing.assert_array_equal(alphas, [1.0])
