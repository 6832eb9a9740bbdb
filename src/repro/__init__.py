"""repro — reproduction of "Fault Sneaking Attack: a Stealthy Framework for
Misleading Deep Neural Networks" (Zhao et al., DAC 2019).

The package is organised as a stack of substrates with the paper's
contribution on top:

* :mod:`repro.nn` — a numpy neural-network library (layers, losses, the
  Adam optimizer, training, serialisation, quantisation);
* :mod:`repro.data` — synthetic MNIST-like / CIFAR-like datasets;
* :mod:`repro.zoo` — reference architectures, trainer and a train-once model
  registry;
* :mod:`repro.attacks` — **the fault sneaking attack** (ADMM, ℓ0/ℓ2) plus the
  Liu et al. baselines;
* :mod:`repro.hardware` — simulated parameter memory, bit-flip planning and
  injection cost models;
* :mod:`repro.analysis` — attack evaluation and reporting;
* :mod:`repro.experiments` — drivers regenerating every table and figure of
  the paper.

Quickstart::

    from repro import quickstart_attack
    result, evaluation = quickstart_attack()
    print(result.summary())
"""

from repro.attacks import (
    AttackPlan,
    FaultSneakingAttack,
    FaultSneakingConfig,
    FaultSneakingResult,
    ParameterSelector,
    make_attack_plan,
)
from repro.analysis import AttackEvaluation, evaluate_attack_result

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "FaultSneakingAttack",
    "FaultSneakingConfig",
    "FaultSneakingResult",
    "ParameterSelector",
    "AttackPlan",
    "make_attack_plan",
    "AttackEvaluation",
    "evaluate_attack_result",
    "quickstart_attack",
]


def quickstart_attack(
    *,
    num_targets: int = 2,
    num_images: int = 50,
    norm: str = "l0",
    scale: str = "ci",
    seed: int = 0,
):
    """Train a small victim model, attack it, and return ``(result, evaluation)``.

    This is the programmatic equivalent of ``examples/quickstart.py`` — a
    one-call demonstration that exercises the full pipeline (synthetic data,
    training, the ADMM attack and the evaluation metrics).  The victim model
    is cached by the registry, so repeated calls are fast.
    """
    from repro.experiments.common import attack_config_for, get_trained_model

    trained = get_trained_model("mnist_like", scale, seed=seed)
    test_set = trained.data.test
    plan = make_attack_plan(
        test_set,
        num_targets=num_targets,
        num_images=min(num_images, len(test_set)),
        seed=seed,
    )
    config = attack_config_for(scale, norm=norm)
    result = FaultSneakingAttack(trained.model, config).attack(plan)
    evaluation = evaluate_attack_result(
        result, test_set, clean_model=trained.model, clean_accuracy=trained.test_accuracy
    )
    return result, evaluation
