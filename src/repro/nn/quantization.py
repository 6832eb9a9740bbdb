"""Parameter quantisation helpers.

The paper's threat model allows the adversary to set a parameter to any value
representable in the deployed arithmetic format.  This module models those
formats (float32, float16 and signed fixed-point) so the hardware substrate
can (a) round an attack's continuous modification to representable values and
(b) reason about the bit patterns that must be written into memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError

__all__ = ["QuantizationSpec", "STORAGE_FORMATS", "storage_spec", "quantize", "dequantize"]

_FLOAT_FORMATS = {"float32": np.float32, "float16": np.float16}

# Named deployment storage formats understood by :func:`storage_spec`.  The
# experiment drivers sweep these names; "int8" is the signed 8-bit fixed-point
# format used by integer inference deployments (Q1.6 by default: range ±2 with
# 1/64 resolution, which covers the benchmark models' FC-layer parameters).
STORAGE_FORMATS = ("float32", "float16", "int8")

_INT8_DEFAULT_FRAC_BITS = 6


@dataclass(frozen=True)
class QuantizationSpec:
    """Description of a storage format for DNN parameters.

    Parameters
    ----------
    kind:
        ``"float32"``, ``"float16"`` or ``"fixed"``.
    total_bits:
        Word width for the fixed-point format (ignored for floats).
    frac_bits:
        Number of fractional bits for the fixed-point format.
    """

    kind: str = "float32"
    total_bits: int = 16
    frac_bits: int = 8

    def __post_init__(self):
        if self.kind not in (*_FLOAT_FORMATS, "fixed"):
            raise ConfigurationError(
                f"unknown quantization kind {self.kind!r}; expected float32, float16 or fixed"
            )
        if self.kind == "fixed":
            if self.total_bits not in (8, 16, 32):
                raise ConfigurationError(
                    f"fixed-point width must be 8/16/32, got {self.total_bits}"
                )
            if not 0 <= self.frac_bits < self.total_bits:
                raise ConfigurationError(
                    f"frac_bits must be in [0, {self.total_bits}), got {self.frac_bits}"
                )

    @property
    def bits_per_value(self) -> int:
        """Number of storage bits for a single parameter."""
        if self.kind == "float32":
            return 32
        if self.kind == "float16":
            return 16
        return self.total_bits

    @property
    def scale(self) -> float:
        """Fixed-point scale factor (values are stored as ``round(x * scale)``)."""
        if self.kind != "fixed":
            raise ConfigurationError("scale is only defined for the fixed-point format")
        return float(2**self.frac_bits)

    def value_range(self) -> tuple[float, float]:
        """Return the (min, max) representable value."""
        if self.kind in _FLOAT_FORMATS:
            info = np.finfo(_FLOAT_FORMATS[self.kind])
            return float(-info.max), float(info.max)
        half = 2 ** (self.total_bits - 1)
        return (-half / self.scale, (half - 1) / self.scale)

    def storage_dtype(self) -> np.dtype:
        """Return the numpy dtype used to hold raw encoded words."""
        if self.kind == "float32":
            return np.dtype(np.uint32)
        if self.kind == "float16":
            return np.dtype(np.uint16)
        return np.dtype({8: np.uint8, 16: np.uint16, 32: np.uint32}[self.total_bits])

    def describe(self) -> str:
        """Short human-readable format name used in reports."""
        if self.kind in _FLOAT_FORMATS:
            return self.kind
        return f"int{self.total_bits} (q{self.frac_bits})"


def storage_spec(
    fmt: "str | QuantizationSpec", *, frac_bits: int = _INT8_DEFAULT_FRAC_BITS
) -> QuantizationSpec:
    """Resolve a deployment storage-format name into a :class:`QuantizationSpec`.

    Accepts the names in :data:`STORAGE_FORMATS` (``"int8"`` maps to signed
    8-bit fixed point with ``frac_bits`` fractional bits) or an existing spec,
    which is returned unchanged.
    """
    if isinstance(fmt, QuantizationSpec):
        return fmt
    if fmt in _FLOAT_FORMATS:
        return QuantizationSpec(fmt)
    if fmt == "int8":
        return QuantizationSpec("fixed", total_bits=8, frac_bits=frac_bits)
    raise ConfigurationError(
        f"unknown storage format {fmt!r}; expected one of {STORAGE_FORMATS} "
        "or a QuantizationSpec"
    )


def quantize(values: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Encode float parameters as raw storage words for ``spec``."""
    values = np.asarray(values, dtype=np.float64)
    if spec.kind in _FLOAT_FORMATS:
        as_float = values.astype(_FLOAT_FORMATS[spec.kind])
        return as_float.view(spec.storage_dtype()).copy()
    low, high = spec.value_range()
    clipped = np.clip(values, low, high)
    ints = np.round(clipped * spec.scale).astype(np.int64)
    half = 2 ** (spec.total_bits - 1)
    ints = np.clip(ints, -half, half - 1)
    # Two's complement encoding into an unsigned word.
    unsigned = np.where(ints < 0, ints + 2**spec.total_bits, ints)
    return unsigned.astype(spec.storage_dtype())


def dequantize(words: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Decode raw storage words back to float64 parameter values."""
    words = np.asarray(words)
    if spec.kind in _FLOAT_FORMATS:
        # Words with flipped exponent bits decode to NaN/Inf (signalling NaNs
        # raise "invalid" in the cast).  That is the value such a word holds;
        # the bit-pattern searches in repro.attacks.lowering rank non-finite
        # decodes as unreachable.
        with np.errstate(invalid="ignore"):
            return words.view(_FLOAT_FORMATS[spec.kind]).astype(np.float64)
    ints = words.astype(np.int64)
    half = 2 ** (spec.total_bits - 1)
    ints = np.where(ints >= half, ints - 2**spec.total_bits, ints)
    return ints.astype(np.float64) / spec.scale
