"""The flip-template kernel: broadcast lookups and integer thresholds.

``FlipTemplate.cell_states`` / ``feasible_cells`` take broadcastable
``(addresses, bits, frames)`` and compare the raw 24-bit draws against
integer thresholds.  These properties pin that both changes are invisible:
the broadcast call equals the same lookup on raveled ``broadcast_to`` grids
under the float-threshold formulation kept below as a reference, and equals
the pure-Python ``cell_states_reference``, including thresholds that sit
exactly on a drawn value ``k / 2**24`` and one float step either side.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.device import FlipTemplate
from repro.hardware.device.templates import (
    CELL_ONE_TO_ZERO,
    CELL_STUCK,
    CELL_ZERO_TO_ONE,
    _splitmix64,
)

_U24 = float(1 << 24)


def _float_threshold_states(template, addresses, bits, frames=None):
    """The float-threshold lookup the kernel replaced (flat inputs only)."""
    cell = (addresses.astype(np.uint64) << np.uint64(3)) + bits.astype(np.uint64)
    if frames is not None:
        cell = cell ^ _splitmix64(frames.astype(np.uint64))
    mixed = _splitmix64(cell ^ template._seed_mix)
    flip_draw = (mixed >> np.uint64(40)).astype(np.float64) / _U24
    polarity_draw = ((mixed >> np.uint64(16)) & np.uint64(0xFFFFFF)).astype(np.float64) / _U24
    states = np.where(
        flip_draw >= template.flip_probability,
        CELL_STUCK,
        np.where(polarity_draw < template.polarity_bias, CELL_ZERO_TO_ONE, CELL_ONE_TO_ZERO),
    )
    return states.astype(np.uint8)


def _draw_of(seed, address, bit, frame, shift):
    """The 24-bit draw of one cell, as a threshold sitting exactly on it."""
    template = FlipTemplate(seed=seed)
    cell = np.uint64(address * 8 + bit)
    if frame is not None:
        cell ^= _splitmix64(np.array([frame], dtype=np.uint64))[0]
    mixed = int(_splitmix64(np.array([cell ^ template._seed_mix], dtype=np.uint64))[0])
    return ((mixed >> shift) & 0xFFFFFF) / _U24


def _neighbours(value):
    return [
        p for p in (np.nextafter(value, 0.0), value, np.nextafter(value, 1.0)) if 0.0 <= p <= 1.0
    ]


_FIXED = sorted({float(p) for v in (0.0, 0.5, 1.0) for p in _neighbours(v)})


@st.composite
def _grids(draw):
    """A (frames, words, bits) broadcast problem and a template."""
    seed = draw(st.integers(0, 2**40))
    num_frames = draw(st.integers(1, 6))
    num_words = draw(st.integers(1, 12))
    width = draw(st.sampled_from([8, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    addresses = rng.integers(0, 1 << 24, size=num_words) * (width // 8)
    stored = rng.integers(0, 2, size=(num_words, width))
    frames = None
    if draw(st.booleans()):
        pages = addresses // 8
        frames = pages[None, :, None] * num_frames + np.arange(num_frames)[:, None, None]
    # Thresholds: fixed edge values, any float, or one float step around the
    # draw of a cell in the grid (so some comparison is decided at the edge).
    word, bit = draw(st.integers(0, num_words - 1)), draw(st.integers(0, width - 1))
    frame = None if frames is None else int(frames[0, word, 0])
    on_flip = _neighbours(_draw_of(seed, int(addresses[word]), bit, frame, 40))
    on_polarity = _neighbours(_draw_of(seed, int(addresses[word]), bit, frame, 16))
    probability = st.one_of(
        st.sampled_from(_FIXED), st.floats(0.0, 1.0), st.sampled_from(on_flip)
    )
    bias = st.one_of(st.sampled_from(_FIXED), st.floats(0.0, 1.0), st.sampled_from(on_polarity))
    template = FlipTemplate(
        seed=seed, flip_probability=draw(probability), polarity_bias=draw(bias)
    )
    return template, addresses[:, None], np.arange(width), stored, frames


@settings(max_examples=150, deadline=None)
@given(problem=_grids())
def test_broadcast_lookup_equals_raveled_float_reference(problem):
    template, addresses, bits, stored, frames = problem
    states = template.cell_states(addresses, bits, frames)
    shape = np.broadcast_shapes(addresses.shape, bits.shape, stored.shape, *(
        () if frames is None else (frames.shape,)
    ))
    assert states.shape == shape

    def flat(grid):
        return np.broadcast_to(grid, shape).ravel()

    reference = _float_threshold_states(
        template, flat(addresses), flat(bits), None if frames is None else flat(frames)
    ).reshape(shape)
    np.testing.assert_array_equal(states, reference)
    needed = np.where(flat(stored) == 1, CELL_ONE_TO_ZERO, CELL_ZERO_TO_ONE).reshape(shape)
    np.testing.assert_array_equal(
        template.feasible_cells(addresses, bits, stored, frames), reference == needed
    )


@settings(max_examples=60, deadline=None)
@given(problem=_grids())
def test_broadcast_lookup_equals_python_reference(problem):
    template, addresses, bits, _, frames = problem
    states = template.cell_states(addresses, bits, frames)
    shape = states.shape
    flat = [np.broadcast_to(grid, shape).ravel() for grid in (addresses, bits)]
    frame_list = None if frames is None else np.broadcast_to(frames, shape).ravel()
    np.testing.assert_array_equal(
        states.ravel(), template.cell_states_reference(*flat, frame_list)
    )


@settings(max_examples=40, deadline=None)
@given(problem=_grids(), landing=st.sampled_from([1.0, 0.7]))
def test_flip_probabilities_take_the_shape_of_all_inputs(problem, landing):
    template, addresses, bits, _, frames = problem
    template = FlipTemplate(seed=template.seed, landing_probability=landing)
    probabilities = template.cell_flip_probabilities(addresses, bits, frames)
    assert probabilities.shape == template.cell_states(addresses, bits, frames).shape
    if landing == 1.0:
        assert (probabilities == 1.0).all()
