"""Dataset substrate.

The paper evaluates on MNIST and CIFAR-10.  Neither is available in this
offline environment, so this package generates *synthetic stand-ins* with the
same tensor shapes and the same easy-vs-hard relationship:

* :func:`mnist_like` — 28×28×1 grey-scale "digit" images built from smooth
  stroke prototypes; a small CNN reaches ≈99 % accuracy.
* :func:`cifar_like` — 32×32×3 colour images built from multi-mode textured
  prototypes with heavy nuisance variation; the same CNN tops out around
  75–85 %, mirroring the capacity gap the paper leans on in §5.2/§5.4.

Both are deterministic given a seed.
"""

from repro.data.dataset import Dataset, DataSplit
from repro.data.synthetic import SyntheticImageConfig, SyntheticImageGenerator
from repro.data.benchmarks import cifar_like, mnist_like

__all__ = [
    "Dataset",
    "DataSplit",
    "SyntheticImageConfig",
    "SyntheticImageGenerator",
    "mnist_like",
    "cifar_like",
]
