"""Model zoo: reference architectures, an Adam trainer and a train-once registry."""

from repro.zoo.architectures import (
    build_architecture,
    compact_cnn,
    mlp,
    paper_cnn,
)
from repro.zoo.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.zoo.registry import ModelSpec, ModelRegistry, TrainedModel, default_registry

__all__ = [
    "build_architecture",
    "paper_cnn",
    "compact_cnn",
    "mlp",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "ModelSpec",
    "ModelRegistry",
    "TrainedModel",
    "default_registry",
]
