"""Micro-benchmark: vectorised device-model hot paths vs reference loops.

The device-model subsystem evaluates two per-flip hot paths on every
lowering: the flip-template feasibility mask (a counter-based hash per cell)
and the SECDED syndrome computation (an XOR reduction per codeword).  Both
are pure NumPy pipelines with pure-Python references kept next to them; this
benchmark verifies the implementations agree bit for bit on a many-thousand
flip workload and gates a >= 10x speedup so a regression fails CI instead of
silently slowing every campaign cell.  ``bench_repair_plan`` times a whole
device-aware repair and gates its template lookup count, which is
deterministic.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_device_model.py --benchmark-only
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest

from repro.attacks.lowering import repair_plan
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.hardware.bitflip import BitFlipPlan, plan_bit_flips
from repro.hardware.device import (
    DramGeometry,
    FlipTemplate,
    OnDieEcc,
    SecdedCode,
    TrrSampler,
    get_profile,
    plan_hammer,
)
from repro.hardware.memory import ParameterMemoryMap
from repro.nn.quantization import storage_spec
from repro.zoo.architectures import mlp

# Vectorisation must beat the reference loop by at least this factor on the
# benchmark workload (both are >= 50x in practice; 10x leaves CI noise room).
MIN_SPEEDUP = 10.0

NUM_FLIPS = 100_000
NUM_WORDS = 32_768
BITS_PER_WORD = 8


@pytest.fixture(scope="module")
def workload():
    """A dense synthetic flip plan over an 8k-word int8 memory."""
    rng = np.random.default_rng(2024)
    words = rng.integers(0, NUM_WORDS, size=NUM_FLIPS)
    bits = rng.integers(0, BITS_PER_WORD, size=NUM_FLIPS)
    addresses = words  # 1-byte words at base address 0
    rows = addresses // 512
    plan = BitFlipPlan.from_arrays(words, bits, addresses, rows, num_words_total=NUM_WORDS)
    original_words = rng.integers(0, 256, size=NUM_WORDS).astype(np.uint8)
    template = FlipTemplate(seed=77, flip_probability=0.4, polarity_bias=0.5)
    return plan, original_words, template


def best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_template_feasible_mask(benchmark, workload):
    plan, original_words, template = workload
    mask = benchmark(lambda: template.feasible_mask(plan, original_words))
    assert 0 < mask.sum() < plan.num_flips


def bench_feasible_mask_identical_and_speedup(benchmark, workload):
    """Correctness + speedup gate for the vectorised feasibility mask."""
    plan, original_words, template = workload

    loop_seconds, loop_mask = best_of(
        lambda: template.feasible_mask_reference(plan, original_words), repeats=1
    )
    vec_seconds, vec_mask = benchmark.pedantic(
        lambda: best_of(lambda: template.feasible_mask(plan, original_words)),
        rounds=1,
        iterations=1,
    )
    np.testing.assert_array_equal(vec_mask, loop_mask)
    speedup = loop_seconds / vec_seconds
    print(
        f"\nfeasible_mask: loop {loop_seconds * 1e3:.2f} ms, vectorised "
        f"{vec_seconds * 1e3:.2f} ms, speedup x{speedup:.1f} "
        f"({plan.num_flips} flips)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised feasible_mask is only x{speedup:.1f} faster than the "
        f"reference loop (required x{MIN_SPEEDUP:.0f})"
    )


def bench_ecc_syndromes(benchmark, workload):
    plan, _, _ = workload
    code = SecdedCode()
    word_index, bit, _, _ = plan.as_arrays()
    codewords = code.codewords_of(word_index, BITS_PER_WORD)
    offsets = code.data_offsets(word_index, bit, BITS_PER_WORD)
    unique, syndrome, counts = benchmark(lambda: code.syndromes(codewords, offsets))
    assert unique.size > 0 and counts.sum() == plan.num_flips


def bench_ecc_syndromes_identical_and_speedup(benchmark, workload):
    """Correctness + speedup gate for the vectorised syndrome computation."""
    plan, _, _ = workload
    code = SecdedCode()
    word_index, bit, _, _ = plan.as_arrays()
    codewords = code.codewords_of(word_index, BITS_PER_WORD)
    offsets = code.data_offsets(word_index, bit, BITS_PER_WORD)

    loop_seconds, loop_result = best_of(
        lambda: code.syndromes_reference(codewords, offsets), repeats=1
    )
    vec_seconds, vec_result = benchmark.pedantic(
        lambda: best_of(lambda: code.syndromes(codewords, offsets)),
        rounds=1,
        iterations=1,
    )
    for vec, ref in zip(vec_result, loop_result):
        np.testing.assert_array_equal(vec, ref)
    speedup = loop_seconds / vec_seconds
    print(
        f"\necc syndromes: loop {loop_seconds * 1e3:.2f} ms, vectorised "
        f"{vec_seconds * 1e3:.2f} ms, speedup x{speedup:.1f} "
        f"({np.unique(codewords).size} codewords)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorised syndromes are only x{speedup:.1f} faster than the "
        f"reference loop (required x{MIN_SPEEDUP:.0f})"
    )


def bench_ondie_syndromes(benchmark, workload):
    """The DDR5 on-die SEC(136,128) decoder on the same flip workload."""
    plan, _, _ = workload
    code = OnDieEcc()
    word_index, bit, _, _ = plan.as_arrays()
    codewords = code.codewords_of(word_index, BITS_PER_WORD)
    offsets = code.data_offsets(word_index, bit, BITS_PER_WORD)
    unique, _, counts = benchmark(lambda: code.syndromes(codewords, offsets))
    assert unique.size > 0 and counts.sum() == plan.num_flips


def bench_plan_hammer_many_sided(benchmark):
    """Hammer-pattern planning against a TRR sampler on 10k victim rows.

    Timing only (no reference loop): the planner runs once per lowering, so
    this tracks that a geometry's worth of victims plans in milliseconds.
    """
    geometry = DramGeometry(bank_bits=4, row_bits=13, column_bits=10)
    sampler = TrrSampler(tracker_size=4, threshold=2)
    rng = np.random.default_rng(11)
    victims = rng.choice(geometry.num_banks * geometry.rows_per_bank, size=10_000,
                         replace=False)
    hammer = benchmark(
        lambda: plan_hammer(
            victims, geometry=geometry, pattern="many-sided", sampler=sampler
        )
    )
    assert hammer.feasible_victims.size > 0
    assert hammer.hammered_rows.size >= hammer.aggressors.size


def bench_repair_plan(benchmark):
    """A float32 repair on the 256-frame ``ddr3-noecc`` profile.

    The massaging stage hashes the template once for every frame candidate
    of every touched word, and re-routing reads that table, so the repair
    makes exactly one ``feasible_cells`` call however many words it
    re-routes (the profile has no ECC stage).  The count is gated; the wall
    time is recorded only.
    """
    profile = get_profile("ddr3-noecc")
    assert profile.massage_frames == 256 and profile.ecc is None
    model = mlp((12, 12, 1), 10, seed=0, hidden=(64, 32))
    view = ParameterView(model, ParameterSelector(layers=("fc2",)))
    memory = ParameterMemoryMap(view, spec=storage_spec("float32"), layout=profile.layout())
    rng = np.random.default_rng(5)
    target = view.baseline
    touched = rng.choice(view.size, size=500, replace=False)
    target[touched] += rng.normal(0.0, 0.05, size=touched.size)
    plan = plan_bit_flips(memory, target)
    template = profile.template(0)

    calls = 0
    original = FlipTemplate.feasible_cells

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    with mock.patch.object(FlipTemplate, "feasible_cells", counting):
        seconds, repair = benchmark.pedantic(
            lambda: best_of(
                lambda: repair_plan(
                    plan, memory, target, template=template,
                    massage_frames=profile.massage_frames,
                ),
                repeats=1,
            ),
            rounds=1,
            iterations=1,
        )
    print(
        f"\nrepair_plan: {seconds * 1e3:.1f} ms, {plan.num_flips} planned flips on "
        f"{np.unique(plan.as_arrays()[0]).size} words, {repair.flips_infeasible} "
        f"infeasible, {calls} feasible_cells call(s)"
    )
    assert repair.flips_infeasible > 0
    assert calls == 1
