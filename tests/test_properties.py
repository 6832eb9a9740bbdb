"""Property-based tests (hypothesis) on core data structures and invariants.

These complement the per-module unit tests by checking algebraic properties on
randomly generated inputs:

* softmax invariances and the attack objective's hinge,
* quantisation round-trips,
* im2col/col2im adjointness for random geometries,
* parameter-view gather/scatter consistency,
* bit-flip planning exactness,
* ADMM z-step optimality on random vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.attacks.objective import AttackObjective, StackedAttackObjective
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.attacks.proximal import prox_l0, prox_l1, prox_l2
from repro.hardware.bitflip import plan_bit_flips
from repro.hardware.memory import ParameterMemoryMap
from repro.nn.im2col import col2im, im2col
from repro.nn.losses import softmax
from repro.nn.metrics import accuracy
from repro.nn.quantization import QuantizationSpec, dequantize, quantize
from repro.zoo.architectures import mlp

# -- strategies ---------------------------------------------------------------------

logit_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(2, 8)),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)

float_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 64),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestSoftmaxProperties:
    @given(logits=logit_arrays)
    @settings(max_examples=50, deadline=None)
    def test_simplex(self, logits):
        probs = softmax(logits)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    @given(logits=logit_arrays, shift=st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, logits, shift):
        np.testing.assert_allclose(softmax(logits), softmax(logits + shift), atol=1e-9)

    @given(logits=logit_arrays)
    @settings(max_examples=50, deadline=None)
    def test_argmax_preserved(self, logits):
        # Compare probabilities rather than argmax indices so that exact or
        # floating-point ties between logits do not produce false failures.
        probs = softmax(logits)
        rows = np.arange(logits.shape[0])
        at_logit_argmax = probs[rows, np.argmax(logits, axis=-1)]
        np.testing.assert_allclose(at_logit_argmax, probs.max(axis=-1), rtol=1e-9)


def _desired_logit_margins(logits, labels):
    """``max_{j≠d} Z_j − Z_d`` per row, for desired labels ``d``."""
    rows = np.arange(logits.shape[0])
    others = logits.copy()
    others[rows, labels] = -np.inf
    return others.max(axis=1) - logits[rows, labels]


class TestHingeProperties:
    """The attack's hinge ``Σ max(max_{j≠d_i} Z_j − Z_{d_i} + κ, 0)``, computed
    by a one-lane :class:`StackedAttackObjective` at δ = 0."""

    MODEL = mlp((4, 4, 1), 5, seed=3, hidden=(8, 6))
    IMAGES = np.random.default_rng(7).random((6, 4, 4, 1))
    LOGITS = MODEL.forward_between(IMAGES, 0, MODEL.logits_end)

    def _value(self, labels, kappa):
        view = ParameterView(self.MODEL, ParameterSelector(layers=("fc_logits",)))
        objective = AttackObjective(view, self.IMAGES, labels, kappa=kappa)
        stack = StackedAttackObjective([objective])
        values, _ = stack.value_and_gradient(np.zeros((1, view.size)))
        return float(values[0])

    @given(
        labels=hnp.arrays(dtype=np.int64, shape=6, elements=st.integers(0, 4)),
        kappa=st.floats(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_value_is_the_logit_hinge(self, labels, kappa):
        value = self._value(labels, kappa)
        margins = _desired_logit_margins(self.LOGITS, labels)
        expected = float(np.sum(np.maximum(margins + kappa, 0.0)))
        assert value >= 0.0
        np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-12)

    @given(fraction=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_zero_when_every_desired_label_wins_by_kappa(self, fraction):
        labels = np.argmax(self.LOGITS, axis=1)
        # Every argmax label wins by at least the smallest runner-up gap.
        kappa = fraction * float(np.min(-_desired_logit_margins(self.LOGITS, labels)))
        assert self._value(labels, kappa) == 0.0


class TestQuantizationProperties:
    @given(values=float_vectors)
    @settings(max_examples=50, deadline=None)
    def test_float32_roundtrip_idempotent(self, values):
        spec = QuantizationSpec("float32")
        once = dequantize(quantize(values, spec), spec)
        twice = dequantize(quantize(once, spec), spec)
        np.testing.assert_array_equal(once, twice)

    @given(values=float_vectors)
    @settings(max_examples=50, deadline=None)
    def test_fixed_point_error_bounded(self, values):
        spec = QuantizationSpec("fixed", total_bits=16, frac_bits=6)
        low, high = spec.value_range()
        clipped = np.clip(values, low, high)
        recovered = dequantize(quantize(clipped, spec), spec)
        assert np.max(np.abs(recovered - clipped)) <= 0.5 / spec.scale + 1e-12

    @given(values=float_vectors)
    @settings(max_examples=50, deadline=None)
    def test_fixed_point_idempotent(self, values):
        spec = QuantizationSpec("fixed", total_bits=16, frac_bits=8)
        once = dequantize(quantize(values, spec), spec)
        twice = dequantize(quantize(once, spec), spec)
        np.testing.assert_array_equal(once, twice)


class TestIm2ColProperties:
    @given(
        batch=st.integers(1, 3),
        size=st.integers(4, 9),
        channels=st.integers(1, 3),
        kernel=st.integers(1, 3),
        stride=st.integers(1, 2),
        padding=st.integers(0, 1),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjointness(self, batch, size, channels, kernel, stride, padding, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((batch, size, size, channels))
        cols, _ = im2col(x, kernel, stride, padding)
        y = rng.random(cols.shape)
        back = col2im(y, x.shape, kernel, stride, padding)
        assert np.sum(cols * y) == pytest.approx(np.sum(x * back), rel=1e-9)


class TestProximalProperties:
    @given(v=float_vectors, rho=st.floats(0.01, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_l0_never_denser_than_input(self, v, rho):
        assert np.count_nonzero(prox_l0(v, rho)) <= np.count_nonzero(v)

    @given(v=float_vectors, rho=st.floats(0.01, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_l1_never_increases_any_magnitude(self, v, rho):
        out = prox_l1(v, rho)
        assert np.all(np.abs(out) <= np.abs(v) + 1e-12)

    @given(v=float_vectors, rho=st.floats(0.01, 100, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_all_operators_fix_zero(self, v, rho):
        del v
        zero = np.zeros(7)
        for prox in (prox_l0, prox_l1, prox_l2):
            np.testing.assert_array_equal(prox(zero, rho), zero)


class TestMetricsProperties:
    @given(
        labels=hnp.arrays(dtype=np.int64, shape=st.integers(1, 50), elements=st.integers(0, 5)),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_accuracy_bounds_and_hit_count(self, labels, seed):
        rng = np.random.default_rng(seed)
        predictions = rng.integers(0, 6, size=labels.shape[0])
        acc = accuracy(labels, predictions)
        assert 0.0 <= acc <= 1.0
        assert np.sum(labels == predictions) == pytest.approx(acc * labels.shape[0])


class TestParameterViewProperties:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_gather_scatter_roundtrip(self, seed):
        model = mlp((5, 5, 1), 3, seed=0, hidden=(8, 6))
        view = ParameterView(model, ParameterSelector(layers=None))
        values = np.random.default_rng(seed).standard_normal(view.size)
        view.scatter(values)
        np.testing.assert_allclose(view.gather(), values)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_apply_restore_is_identity(self, seed):
        model = mlp((5, 5, 1), 3, seed=1, hidden=(8, 6))
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        before = view.gather()
        delta = np.random.default_rng(seed).standard_normal(view.size)
        view.apply_delta(delta)
        view.restore()
        np.testing.assert_allclose(view.gather(), before)


class TestBitFlipProperties:
    @given(seed=st.integers(0, 300), scale=st.floats(0.01, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_plan_execution_reaches_encoded_target(self, seed, scale):
        model = mlp((5, 5, 1), 3, seed=2, hidden=(8, 6))
        view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
        memory = ParameterMemoryMap(view)
        rng = np.random.default_rng(seed)
        target = view.gather() + rng.standard_normal(view.size) * scale
        plan = plan_bit_flips(memory, target)
        for flip in plan.flips:
            memory.flip_bit(flip.word_index, flip.bit)
        np.testing.assert_array_equal(
            memory.read_words(), memory.encode(target)
        )
