"""Train-once model registry.

Experiments and benchmarks repeatedly need "the trained MNIST-like CNN" and
"the trained CIFAR-like CNN".  Training them anew for every table would
dominate runtime, so the registry caches trained weights both in-process and
on disk (keyed by a stable hash of the full specification).  Datasets are
regenerated from their seed on every call — they are cheap — so a cache hit
returns exactly the same model/dataset pair a cache miss would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.benchmarks import cifar_like, mnist_like
from repro.data.dataset import DataSplit
from repro.nn.model import Sequential
from repro.nn.serialization import model_from_arrays, model_to_arrays
from repro.utils.cache import DiskCache
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger
from repro.zoo.architectures import build_architecture
from repro.zoo.trainer import Trainer, TrainingConfig

__all__ = ["ModelSpec", "TrainedModel", "ModelRegistry", "default_registry"]

_LOGGER = get_logger("zoo.registry")

_DATASETS = {"mnist_like": mnist_like, "cifar_like": cifar_like}


@dataclass(frozen=True)
class ModelSpec:
    """Complete specification of a trained benchmark model.

    Two specs with equal fields always produce byte-identical datasets and
    (up to floating point determinism of the BLAS) equivalent trained models,
    which is what makes disk caching safe.  Every model trains with Adam;
    :meth:`to_dict` still names the optimizer, so the cache keys of models
    trained before that became fixed stay valid.
    """

    dataset: str = "mnist_like"
    architecture: str = "compact_cnn"
    n_train: int = 3000
    n_test: int = 1000
    hidden: tuple[int, int] = (200, 200)
    epochs: int = 8
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.dataset not in _DATASETS:
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; expected one of {sorted(_DATASETS)}"
            )
        if self.n_train <= 0 or self.n_test <= 0:
            raise ConfigurationError("n_train and n_test must be positive")

    def to_dict(self) -> dict:
        """Plain-dict form used as the cache key."""
        return {
            "dataset": self.dataset,
            "architecture": self.architecture,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "hidden": list(self.hidden),
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "optimizer": "adam",
            "seed": self.seed,
        }

    def load_data(self) -> DataSplit:
        """Regenerate the dataset split for this spec."""
        factory = _DATASETS[self.dataset]
        return factory(self.n_train, self.n_test, seed=self.seed)

    def training_config(self) -> TrainingConfig:
        """Return the trainer configuration implied by this spec."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            shuffle_seed=self.seed,
        )


@dataclass
class TrainedModel:
    """A trained model bundled with its data split and provenance.

    ``context`` is a slot for work derived from the trained model that
    callers want to share within the process (the experiment drivers keep
    their per-victim evaluation context there).  It lives only as long as
    this in-memory entry and is never written to the disk cache.
    """

    spec: ModelSpec
    model: Sequential
    data: DataSplit
    test_accuracy: float
    from_cache: bool = False
    context: object | None = field(default=None, repr=False, compare=False)


class ModelRegistry:
    """Caches trained models in memory and on disk.

    Parameters
    ----------
    disk_cache:
        The on-disk cache to use; pass ``DiskCache(enabled=False)`` to force
        retraining (used by tests).
    """

    def __init__(self, disk_cache: DiskCache | None = None):
        self.disk_cache = disk_cache if disk_cache is not None else DiskCache()
        self._memory: dict[str, TrainedModel] = {}

    def clear_memory(self) -> None:
        """Drop all in-process entries (disk entries are kept)."""
        self._memory.clear()

    def get(self, spec: ModelSpec) -> TrainedModel:
        """Return a trained model for ``spec``, training it if necessary."""
        key = self.disk_cache.key_for({"kind": "trained-model", **spec.to_dict()})
        if key in self._memory:
            return self._memory[key]

        data = spec.load_data()
        cached_arrays = self.disk_cache.load(key)
        if cached_arrays is not None:
            model = model_from_arrays(cached_arrays)
            test_accuracy = model.evaluate(data.test.images, data.test.labels)
            trained = TrainedModel(
                spec=spec, model=model, data=data, test_accuracy=test_accuracy, from_cache=True
            )
            self._memory[key] = trained
            return trained

        trained = self._train(spec, data)
        self.disk_cache.store(key, model_to_arrays(trained.model))
        self._memory[key] = trained
        return trained

    def _train(self, spec: ModelSpec, data: DataSplit) -> TrainedModel:
        _LOGGER.info(
            "training %s on %s (%d samples)", spec.architecture, spec.dataset, spec.n_train
        )
        image_shape = data.train.image_shape
        kwargs = {}
        if spec.architecture in ("compact_cnn", "paper_cnn", "mlp"):
            kwargs["hidden"] = spec.hidden
        model = build_architecture(
            spec.architecture, image_shape, data.num_classes, seed=spec.seed, **kwargs
        )
        Trainer(spec.training_config()).fit(model, data.train)
        test_accuracy = model.evaluate(data.test.images, data.test.labels)
        _LOGGER.info("trained %s: test accuracy %.3f", spec.architecture, test_accuracy)
        return TrainedModel(
            spec=spec,
            model=model,
            data=data,
            test_accuracy=test_accuracy,
            from_cache=False,
        )


_DEFAULT_REGISTRY: ModelRegistry | None = None


def default_registry() -> ModelRegistry:
    """Return the process-wide shared registry."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = ModelRegistry()
    return _DEFAULT_REGISTRY
