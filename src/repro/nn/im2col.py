"""im2col / col2im helpers for convolution and pooling layers.

Images use the NHWC layout (batch, height, width, channels).  The im2col
transform unrolls every receptive field into a row so that a convolution
becomes a single matrix multiplication, which is the only way to get
acceptable CPU performance out of pure numpy.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.utils.errors import ShapeError

__all__ = ["conv_output_size", "im2col", "col2im", "pad_nhwc"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Return the spatial output size of a convolution/pooling dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size is not positive: input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def pad_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of an NHWC tensor."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))


def _window_slice(offset: int, stride: int, count: int) -> slice:
    """Positions ``offset, offset + stride, ...`` of ``count`` windows."""
    return slice(offset, offset + stride * (count - 1) + 1, stride)


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unroll NHWC input patches into a 2-D matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, H, W, C)``.
    kernel, stride, padding:
        Square kernel size, stride and symmetric zero padding.

    Returns
    -------
    cols:
        Array of shape ``(N * out_h * out_w, kernel * kernel * C)``.  Each row
        is one receptive field with channel-last ordering inside the patch.
    (out_h, out_w):
        Spatial output size.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects NHWC input, got shape {x.shape}")
    n, h, w, c = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_padded = pad_nhwc(x, padding)

    # A strided view of shape (N, out_h, out_w, C, kernel, kernel), copied
    # once with C moved last.  The copy is explicit so that ``cols`` never
    # aliases ``x`` (a 1x1 kernel would otherwise reshape to a view).
    windows = sliding_window_view(x_padded, (kernel, kernel), axis=(1, 2))[
        :, _window_slice(0, stride, out_h), _window_slice(0, stride, out_w)
    ]
    patches = np.array(windows.transpose(0, 1, 2, 4, 5, 3), order="C")
    return patches.reshape(n * out_h * out_w, kernel * kernel * c), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch rows back into an image.

    Overlapping regions accumulate, which is exactly the gradient of the
    im2col gather operation.
    """
    n, h, w, c = input_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    expected_rows = n * out_h * out_w
    if cols.shape[0] != expected_rows:
        raise ShapeError(
            f"col2im received {cols.shape[0]} rows but expected {expected_rows}"
        )

    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, kernel, kernel, c)
    # One strided add per kernel offset, walked in reverse.  A pixel hit by
    # several windows gets its terms in increasing window order (a later
    # window covers the pixel at a smaller offset), which is the order of a
    # scatter-add over the patch rows, so the sums are the same bits.
    for qy in reversed(range(kernel)):
        rows = _window_slice(qy, stride, out_h)
        for qx in reversed(range(kernel)):
            padded[:, rows, _window_slice(qx, stride, out_w)] += patches[:, :, :, qy, qx]
    if padding == 0:
        return padded
    return padded[:, padding:-padding, padding:-padding, :]
