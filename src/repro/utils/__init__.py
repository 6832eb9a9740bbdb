"""Shared utilities: seeding, logging, configuration helpers and errors."""

from repro.utils.rng import RandomState, fork_rng, seed_everything
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
)
from repro.utils.errors import (
    ReproError,
    ConfigurationError,
    ShapeError,
)
from repro.utils.cache import DiskCache, default_cache_dir
from repro.utils.clock import wall_clock

__all__ = [
    "RandomState",
    "fork_rng",
    "seed_everything",
    "get_logger",
    "set_verbosity",
    "check_in_range",
    "check_positive",
    "check_probability",
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "DiskCache",
    "default_cache_dir",
    "wall_clock",
]
