"""Micro-benchmarks of the computational kernels behind the attack.

Unlike the table/figure benchmarks these use pytest-benchmark's normal
multi-round timing, because each operation is fast and the throughput numbers
are the interesting output: how expensive is one ADMM iteration, one objective
gradient, one forward pass of the victim CNN.
"""

import numpy as np
import pytest

from repro.attacks.admm import ADMMConfig, ADMMSolver
from repro.attacks.objective import AttackObjective, StackedAttackObjective
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.proximal import prox_l0
from repro.attacks.targets import make_attack_plan
from repro.data.benchmarks import mnist_like
from repro.zoo.architectures import compact_cnn
from repro.zoo.trainer import Trainer, TrainingConfig


@pytest.fixture(scope="module")
def victim_setup():
    split = mnist_like(800, 300, seed=0)
    model = compact_cnn(split.train.image_shape, 10, seed=0)
    Trainer(TrainingConfig(epochs=3, batch_size=64)).fit(model, split.train)
    plan = make_attack_plan(split.test, num_targets=4, num_images=100, seed=0)
    view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
    objective = AttackObjective(
        view, plan.images, plan.desired_labels, num_targets=plan.num_targets, kappa=1.0
    )
    return model, split, plan, view, objective


def bench_cnn_forward(benchmark, victim_setup):
    model, split, _, _, _ = victim_setup
    batch = split.test.images[:128]
    logits = benchmark(lambda: model.predict_logits(batch))
    assert logits.shape == (128, 10)


def bench_objective_value_and_gradient(benchmark, victim_setup):
    """One objective evaluation as the solver runs it: a one-lane stack."""
    _, _, _, view, objective = victim_setup
    stacked = StackedAttackObjective([objective])
    deltas = np.zeros((1, view.size))
    values, grads = benchmark(lambda: stacked.value_and_gradient(deltas))
    assert grads.shape == (1, view.size)
    assert values[0] >= 0.0


def bench_proximal_l0(benchmark, victim_setup):
    _, _, _, view, _ = victim_setup
    vector = np.random.default_rng(0).standard_normal(view.size) * 0.1
    out = benchmark(lambda: prox_l0(vector, 500.0))
    assert out.shape == vector.shape


def bench_admm_iterations(benchmark, victim_setup):
    """Cost of 10 ADMM iterations (z-step + linearised δ-step + dual update)."""
    _, _, _, view, objective = victim_setup
    solver = ADMMSolver(ADMMConfig(norm="l0", rho=500.0, iterations=10))
    warm = np.random.default_rng(1).standard_normal(view.size) * 0.05
    result = benchmark.pedantic(
        lambda: solver.solve(objective, initial_delta=warm), rounds=3, iterations=1
    )
    assert result.iterations_run == 10
