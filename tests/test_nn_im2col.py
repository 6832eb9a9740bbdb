"""Tests for repro.nn.im2col."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.nn import layers
from repro.nn.im2col import col2im, conv_output_size, im2col, pad_nhwc
from repro.utils.errors import ShapeError


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [
            (28, 3, 1, 0, 26),
            (28, 3, 1, 1, 28),
            (28, 5, 2, 2, 14),
            (32, 2, 2, 0, 16),
            (8, 8, 1, 0, 1),
        ],
    )
    def test_known_values(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected

    def test_invalid_raises(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestPad:
    def test_zero_padding_is_identity(self):
        x = np.random.default_rng(0).random((2, 4, 4, 3))
        assert pad_nhwc(x, 0) is x

    def test_padding_shape(self):
        x = np.ones((1, 4, 5, 2))
        out = pad_nhwc(x, 2)
        assert out.shape == (1, 8, 9, 2)
        assert out[0, 0, 0, 0] == 0.0
        assert out[0, 2, 2, 0] == 1.0


class TestIm2Col:
    def test_shapes(self):
        x = np.random.default_rng(0).random((3, 6, 6, 2))
        cols, (oh, ow) = im2col(x, kernel=3, stride=1, padding=0)
        assert (oh, ow) == (4, 4)
        assert cols.shape == (3 * 16, 3 * 3 * 2)

    def test_single_pixel_kernel_is_reshape(self):
        x = np.random.default_rng(1).random((2, 3, 3, 4))
        cols, (oh, ow) = im2col(x, kernel=1)
        assert (oh, ow) == (3, 3)
        np.testing.assert_allclose(cols, x.reshape(-1, 4))

    def test_manual_patch_values(self):
        # a 1-channel 3x3 image with known values
        x = np.arange(9, dtype=float).reshape(1, 3, 3, 1)
        cols, (oh, ow) = im2col(x, kernel=2, stride=1, padding=0)
        assert (oh, ow) == (2, 2)
        # first patch is the top-left 2x2 block
        np.testing.assert_allclose(cols[0], [0, 1, 3, 4])
        # last patch is the bottom-right 2x2 block
        np.testing.assert_allclose(cols[-1], [4, 5, 7, 8])

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 5, 5, 3))
        w = rng.random((3, 3, 3, 4))
        cols, (oh, ow) = im2col(x, kernel=3, stride=1, padding=1)
        fast = (cols @ w.reshape(-1, 4)).reshape(2, oh, ow, 4)

        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        naive = np.zeros_like(fast)
        for n in range(2):
            for i in range(oh):
                for j in range(ow):
                    patch = padded[n, i : i + 3, j : j + 3, :]
                    for c in range(4):
                        naive[n, i, j, c] = np.sum(patch * w[:, :, :, c])
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_requires_nhwc(self):
        with pytest.raises(ShapeError):
            im2col(np.ones((4, 4)), kernel=2)


class TestCol2Im:
    def test_adjoint_of_im2col(self):
        """col2im must be the exact adjoint (transpose) of im2col.

        For linear operators A (im2col) and A^T (col2im):
        <A x, y> == <x, A^T y> for all x, y.
        """
        rng = np.random.default_rng(5)
        x = rng.random((2, 6, 6, 3))
        cols, (oh, ow) = im2col(x, kernel=3, stride=2, padding=1)
        y = rng.random(cols.shape)
        back = col2im(y, x.shape, kernel=3, stride=2, padding=1)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * back))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_non_overlapping_roundtrip(self):
        """With stride == kernel, col2im(im2col(x)) reconstructs x exactly."""
        rng = np.random.default_rng(6)
        x = rng.random((1, 4, 4, 2))
        cols, _ = im2col(x, kernel=2, stride=2, padding=0)
        back = col2im(cols, x.shape, kernel=2, stride=2, padding=0)
        np.testing.assert_allclose(back, x)

    def test_wrong_row_count_raises(self):
        with pytest.raises(ShapeError):
            col2im(np.ones((5, 4)), (1, 4, 4, 1), kernel=2, stride=2)


# -- bit-identity against the index-gather / np.add.at kernels --------------------
#
# The strided im2col and the reversed-offset col2im replaced a fancy-index
# gather and an ``np.add.at`` scatter.  The originals live on here as
# references only: every layer built on the kernels must keep producing the
# same bits, not merely close values.


def _reference_indices(kernel, stride, out_h, out_w):
    i0 = np.repeat(np.arange(kernel), kernel)
    j0 = np.tile(np.arange(kernel), kernel)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    return i0.reshape(1, -1) + i1.reshape(-1, 1), j0.reshape(1, -1) + j1.reshape(-1, 1)


def reference_im2col(x, kernel, stride=1, padding=0):
    n, h, w, c = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    rows, cols = _reference_indices(kernel, stride, out_h, out_w)
    patches = pad_nhwc(x, padding)[:, rows, cols, :]
    return patches.reshape(n * out_h * out_w, kernel * kernel * c), (out_h, out_w)


def reference_col2im(cols, input_shape, kernel, stride=1, padding=0):
    n, h, w, c = input_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
    rows, cols_idx = _reference_indices(kernel, stride, out_h, out_w)
    patches = cols.reshape(n, out_h * out_w, kernel * kernel, c)
    np.add.at(padded, (slice(None), rows, cols_idx, slice(None)), patches)
    if padding == 0:
        return padded
    return padded[:, padding:-padding, padding:-padding, :]


def _spread(rng, shape):
    """Values over many orders of magnitude, so summation order shows in the bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape)


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@st.composite
def geometries(draw):
    """(input_shape, kernel, stride, padding) with a positive output size."""
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 4))
    padding = draw(st.integers(0, 2))
    low = max(1, kernel - 2 * padding)
    shape = (
        draw(st.integers(1, 3)),
        draw(st.integers(low, low + 8)),
        draw(st.integers(low, low + 8)),
        draw(st.integers(1, 4)),
    )
    return shape, kernel, stride, padding


# stride < kernel (overlapping windows), stride > kernel (gaps), padding 0,
# and this package's two conv geometries.
KERNEL_EXAMPLES = (
    ((2, 7, 7, 3), 3, 1, 1),
    ((1, 9, 8, 2), 2, 3, 0),
    ((3, 6, 6, 1), 3, 2, 0),
    ((2, 28, 28, 1), 5, 2, 2),
    ((2, 14, 14, 8), 3, 2, 1),
)


def _with_examples(**extra):
    def decorate(test):
        for geometry in KERNEL_EXAMPLES:
            test = example(geometry=geometry, seed=0, **extra)(test)
        return test

    return decorate


class TestKernelsMatchReference:
    @_with_examples()
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_im2col(self, geometry, seed):
        shape, kernel, stride, padding = geometry
        x = _spread(np.random.default_rng(seed), shape)
        cols, size = im2col(x, kernel, stride, padding)
        expected, expected_size = reference_im2col(x, kernel, stride, padding)
        assert size == expected_size
        _assert_same_bits(cols, expected)
        assert not np.shares_memory(cols, x)

    @_with_examples()
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_col2im(self, geometry, seed):
        shape, kernel, stride, padding = geometry
        rows = reference_im2col(np.zeros(shape), kernel, stride, padding)[0].shape
        grad = _spread(np.random.default_rng(seed), rows)
        _assert_same_bits(
            col2im(grad, shape, kernel, stride, padding),
            reference_col2im(grad, shape, kernel, stride, padding),
        )


@contextlib.contextmanager
def _reference_kernels():
    with mock.patch.object(layers, "im2col", reference_im2col), mock.patch.object(
        layers, "col2im", reference_col2im
    ):
        yield


def _forward_backward(layer, x, grad):
    """Output, input gradient and parameter gradients of one pass."""
    out = layer.forward(x)
    back = layer.backward(grad)
    return [out, back, *(layer.grads[name].copy() for name in sorted(layer.grads))]


def _assert_layer_matches_reference(layer, x, seed):
    grad = _spread(np.random.default_rng(seed + 1), layer.forward(x).shape)
    actual = _forward_backward(layer, x, grad)
    with _reference_kernels():
        expected = _forward_backward(layer, x, grad)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        _assert_same_bits(got, want)


def _assume_reference_layout_is_c_ordered(shape, kernel, stride, padding):
    """Skip the one geometry where the old gather's matrix was Fortran-ordered.

    For a single-channel input with a single output pixel the old gather
    returned the same values in Fortran order, which sends the conv GEMM
    down another BLAS path and changes its last bits.  No model in this
    package has such a layer; everywhere else both matrices are C-ordered.
    """
    _, h, w, c = shape
    out = conv_output_size(h, kernel, stride, padding) * conv_output_size(
        w, kernel, stride, padding
    )
    assume(c > 1 or out > 1)


class TestLayersMatchReference:
    @_with_examples()
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conv2d(self, geometry, seed):
        (n, h, w, c), kernel, stride, padding = geometry
        _assume_reference_layout_is_c_ordered(*geometry)
        rng = np.random.default_rng(seed)
        layer = layers.Conv2D(c, 2, kernel, stride=stride, padding=padding, seed=1)
        layer.params["W"] = _spread(rng, layer.params["W"].shape)
        _assert_layer_matches_reference(layer, _spread(rng, (n, h, w, c)), seed)

    @_with_examples(lanes=3, per_lane_weights=True)
    @given(
        geometry=geometries(),
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 3),
        per_lane_weights=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_conv2d_folded_lanes(self, geometry, seed, lanes, per_lane_weights):
        """The stacked (lanes, N, H, W, C) path folds the lanes into one im2col."""
        (n, h, w, c), kernel, stride, padding = geometry
        _assume_reference_layout_is_c_ordered(*geometry)
        rng = np.random.default_rng(seed)
        layer = layers.Conv2D(c, 3, kernel, stride=stride, padding=padding, seed=1)
        if per_lane_weights:
            layer.params["W"] = _spread(rng, (lanes, *layer.params["W"].shape))
            layer.params["b"] = _spread(rng, (lanes, 3))
        _assert_layer_matches_reference(layer, _spread(rng, (lanes, n, h, w, c)), seed)

    @_with_examples(lanes=2)
    @given(geometry=geometries(), seed=st.integers(0, 2**32 - 1), lanes=st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_maxpool2d(self, geometry, seed, lanes):
        """Backward scatters through col2im; ``lanes=0`` is the plain 4-D path."""
        (n, h, w, c), kernel, stride, padding = geometry
        # Pooling has no padding; grow the input so the window still fits.
        shape = (n, h + 2 * padding, w + 2 * padding, c)
        x = _spread(np.random.default_rng(seed), (lanes, *shape) if lanes else shape)
        _assert_layer_matches_reference(layers.MaxPool2D(kernel, stride=stride), x, seed)
