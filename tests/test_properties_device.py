"""Property-based tests of the device layer: seeded random sweeps.

Three families of properties, per the device model's contracts:

* address *round-trips*: decompose/recompose are inverse for arbitrary valid
  geometries — random field widths, random field orderings, random bank-hash
  XOR masks (including the registered DRAMA vendor maps);
* *ECC correctness*: every :class:`~repro.hardware.device.ecc.EccScheme`
  undoes any error pattern within its correction radius (one bit for the
  Hamming schemes, one symbol for chipkill) — encode, flip <= t, decode must
  reproduce the original words;
* *repair feasibility*: whatever :func:`repro.attacks.lowering.repair_plan`
  returns must actually satisfy the budget, template, TRR and ECC
  constraints it was repaired against.

Plus the SECDED decoder fuzz: for random groups of 3+ simultaneous flips the
decoder must never claim success while handing back a data word that differs
from a valid codeword by a single data bit (a "false corrected" word) — any
non-alarmed outcome must leave the residual data syndrome at zero or on a
check-bit position.
"""

import numpy as np
import pytest

from repro.attacks.lowering import HardwareBudget, repair_plan
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.hardware.bitflip import BitFlip, BitFlipPlan, plan_bit_flips
from repro.hardware.device import (
    DRAM_FIELDS,
    ChipkillCode,
    DramGeometry,
    FlipTemplate,
    OnDieEcc,
    SecdedCode,
    TrrSampler,
    list_vendor_maps,
    vendor_geometry,
)
from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.nn.quantization import storage_spec

# Every modelled ECC scheme, with a generator of error patterns inside its
# correction radius: (scheme, radius description, max correctable flips).
ECC_SCHEMES = [
    SecdedCode(data_bits=64),
    SecdedCode(data_bits=32),
    OnDieEcc(data_bits=128),
    OnDieEcc(data_bits=64),
    ChipkillCode(data_bits=64, symbol_bits=4),
    ChipkillCode(data_bits=64, symbol_bits=8),
]


def _random_geometry(rng: np.random.Generator) -> DramGeometry:
    """A random valid geometry: widths, field order and bank hash."""
    channel = int(rng.integers(0, 3))
    rank = int(rng.integers(0, 2))
    bank = int(rng.integers(0, 5))
    row = int(rng.integers(3, 11))
    column = int(rng.integers(3, 9))
    mapping = tuple(rng.permutation(DRAM_FIELDS).tolist())
    kwargs = dict(
        channel_bits=channel,
        rank_bits=rank,
        bank_bits=bank,
        row_bits=row,
        column_bits=column,
        mapping=mapping,
        cacheline_bytes=int(2 ** rng.integers(3, 6)),
    )
    hash_kind = rng.integers(0, 3)
    if hash_kind == 1 and bank:
        kwargs["bank_xor_row_bits"] = int(rng.integers(0, min(bank, row) + 1))
    elif hash_kind == 2 and bank:
        num_masks = int(rng.integers(1, bank + 1))
        kwargs["bank_xor_masks"] = tuple(
            int(rng.integers(0, 1 << row)) for _ in range(num_masks)
        )
    return DramGeometry(**kwargs)


class TestGeometryRoundTrips:
    @pytest.mark.parametrize("trial", range(25))
    def test_decompose_recompose_roundtrip_random_geometries(self, trial):
        rng = np.random.default_rng(1000 + trial)
        geometry = _random_geometry(rng)
        addresses = rng.integers(0, geometry.capacity_bytes, size=512)
        coords = geometry.decompose(addresses)
        np.testing.assert_array_equal(
            geometry.recompose(coords), addresses, err_msg=repr(geometry)
        )
        # Field ranges stay inside their declared widths.
        for name, values in zip(DRAM_FIELDS, coords):
            bits = geometry.field_bits(name)
            assert not values.size or (values >= 0).all()
            assert not values.size or values.max() < max(1 << bits, 1)

    @pytest.mark.parametrize("name", sorted(list_vendor_maps()))
    def test_vendor_maps_roundtrip(self, name):
        rng = np.random.default_rng(7)
        geometry = vendor_geometry(name)
        addresses = rng.integers(0, geometry.capacity_bytes, size=2048)
        np.testing.assert_array_equal(
            geometry.recompose(geometry.decompose(addresses)), addresses
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_row_ids_consistent_under_hash(self, trial):
        # The bank hash permutes banks, never rows: every byte of one
        # geometric row maps to the same global row id.
        rng = np.random.default_rng(2000 + trial)
        geometry = _random_geometry(rng)
        addresses = rng.integers(0, geometry.capacity_bytes, size=256)
        coords = geometry.decompose(addresses)
        ids = geometry.row_ids(addresses)
        assert (geometry.local_rows(ids) == coords.row).all()


def _memory(model, spec_name="int8"):
    view = ParameterView(model.copy(), ParameterSelector(layers=None))
    return ParameterMemoryMap(
        view, spec=storage_spec(spec_name), layout=MemoryLayout(base_address=0)
    )


def _correctable_plan(scheme, rng, memory) -> BitFlipPlan:
    """A random error pattern inside the scheme's correction radius."""
    bits = memory.spec.bits_per_value
    wpc = scheme.words_per_codeword(bits)
    full_codewords = memory.num_words // wpc
    cw = int(rng.integers(0, full_codewords))
    if isinstance(scheme, ChipkillCode):
        symbol = int(rng.integers(0, scheme.symbols_per_codeword))
        count = int(rng.integers(1, scheme.symbol_bits + 1))
        offsets = symbol * scheme.symbol_bits + rng.choice(
            scheme.symbol_bits, size=count, replace=False
        )
    else:
        offsets = rng.integers(0, scheme.data_bits, size=1)
    flips = [
        BitFlip(cw * wpc + int(off) // bits, int(off) % bits, cw * wpc + int(off) // bits, 0)
        for off in offsets
    ]
    return BitFlipPlan(flips, num_words_total=memory.num_words)


class TestEccCorrectionRadius:
    @pytest.mark.parametrize("scheme", ECC_SCHEMES, ids=lambda s: s.describe())
    def test_correctable_patterns_fully_undone(self, scheme, tiny_model):
        """encode -> flip <= t -> decode == original, for every scheme."""
        memory = _memory(tiny_model)
        original = memory.read_words()
        rng = np.random.default_rng(42)
        for _ in range(50):
            plan = _correctable_plan(scheme, rng, memory)
            effective, summary = scheme.apply_to_plan(plan, memory)
            assert effective.num_flips == 0, scheme.describe()
            assert summary.corrected == 1
            assert summary.alarms == 0
            memory.apply_plan(effective)
            np.testing.assert_array_equal(memory.read_words(), original)


def _residual_syndrome(code, plan, bits):
    """Net data syndrome of a plan's flips, per codeword (XOR cancels pairs)."""
    word_index, bit, _, _ = plan.as_arrays()
    cw = code.codewords_of(word_index, bits)
    offsets = code.data_offsets(word_index, bit, bits)
    unique, syndrome, counts = code.syndromes(cw, offsets)
    # A duplicated (word, bit) entry is a cancelled flip: net count parity.
    return dict(zip(unique.tolist(), syndrome.tolist()))


class TestSecdedFuzz:
    """Fuzz the SECDED decoder with 3+ simultaneous flips (satellite)."""

    def _plan_for(self, code, memory, cw, offsets):
        bits = memory.spec.bits_per_value
        wpc = code.words_per_codeword(bits)
        flips = [
            BitFlip(cw * wpc + off // bits, off % bits, cw * wpc + off // bits, 0)
            for off in offsets
        ]
        return BitFlipPlan(flips, num_words_total=memory.num_words)

    @pytest.mark.parametrize("trial", range(60))
    def test_no_false_corrected_word_near_a_valid_codeword(self, trial, tiny_model):
        """When the decoder does not alarm, the word it forwards must not sit
        one data bit away from a valid codeword: the residual data syndrome of
        the effective flips must be zero or a check-bit position."""
        code = SecdedCode(data_bits=64)
        memory = _memory(tiny_model)
        bits = memory.spec.bits_per_value
        wpc = code.words_per_codeword(bits)
        rng = np.random.default_rng(9000 + trial)
        cw = int(rng.integers(0, memory.num_words // wpc))
        count = int(rng.integers(3, 9))
        offsets = rng.choice(code.data_bits, size=count, replace=False).tolist()
        plan = self._plan_for(code, memory, cw, offsets)

        effective, summary = code.apply_to_plan(plan, memory)
        outcomes = (
            summary.corrected + summary.detected + summary.miscorrected
            + summary.undetected
        )
        assert outcomes == summary.codewords_touched == 1
        assert summary.corrected == 0, "a >= 3 flip group must never be 'corrected'"

        if summary.detected:
            # Alarmed: flips delivered exactly as planned, no collateral.
            assert summary.flips_added == 0
            assert effective.num_flips == plan.num_flips
            return
        residual = _residual_syndrome(code, effective, bits).get(cw, 0)
        if residual:
            # Non-zero residual must name a check bit (not in the data
            # positions): the data equals a valid codeword's data exactly.
            index = int(np.searchsorted(code.positions, residual))
            is_data = (
                residual <= int(code.positions[-1])
                and index < code.positions.size
                and int(code.positions[index]) == residual
            )
            assert not is_data, (
                f"decoder claimed success but left the data one bit "
                f"(position {residual}) away from a valid codeword"
            )

    @pytest.mark.parametrize("trial", range(20))
    def test_multi_codeword_outcomes_partition(self, trial, tiny_model):
        """Across many codewords at once, every touched codeword gets exactly
        one outcome and the reference syndromes agree with the decoder."""
        code = SecdedCode(data_bits=64)
        memory = _memory(tiny_model)
        bits = memory.spec.bits_per_value
        wpc = code.words_per_codeword(bits)
        rng = np.random.default_rng(500 + trial)
        num_flips = int(rng.integers(3, 40))
        full_words = (memory.num_words // wpc) * wpc
        words = rng.integers(0, full_words, size=num_flips)
        cell_bits = rng.integers(0, bits, size=num_flips)
        # Deduplicate (word, bit) pairs: a plan flips each cell at most once.
        pairs = sorted(set(zip(words.tolist(), cell_bits.tolist())))
        plan = BitFlipPlan(
            [BitFlip(w, b, w, 0) for w, b in pairs], num_words_total=memory.num_words
        )
        _, summary = code.apply_to_plan(plan, memory)
        assert (
            summary.corrected + summary.detected + summary.miscorrected
            + summary.undetected
            == summary.codewords_touched
        )
        word_index, bit, _, _ = plan.as_arrays()
        vec = code.syndromes(
            code.codewords_of(word_index, bits), code.data_offsets(word_index, bit, bits)
        )
        ref = code.syndromes_reference(
            code.codewords_of(word_index, bits), code.data_offsets(word_index, bit, bits)
        )
        for a, b in zip(vec, ref):
            np.testing.assert_array_equal(a, b)


class TestRepairFeasibility:
    """repair_plan output is always feasible under what it repaired against."""

    def _target(self, memory, rng):
        baseline = memory.decoded_values()
        delta = np.zeros_like(baseline)
        touched = rng.choice(baseline.size, size=min(80, baseline.size), replace=False)
        delta[touched] = rng.normal(scale=0.2, size=touched.size)
        return baseline + delta

    @pytest.mark.parametrize("trial", range(12))
    def test_budget_template_trr_ecc_constraints_hold(self, trial, tiny_model):
        rng = np.random.default_rng(3000 + trial)
        memory = _memory(tiny_model)
        target = self._target(memory, rng)
        plan = plan_bit_flips(memory, target)

        budget = HardwareBudget(
            max_flips_per_word=int(rng.integers(2, 9)) if rng.random() < 0.7 else None,
            max_rows=int(rng.integers(2, 30)) if rng.random() < 0.5 else None,
            row_window=int(rng.integers(4, 40)) if rng.random() < 0.5 else None,
        )
        template = (
            FlipTemplate(
                seed=int(rng.integers(0, 2**31)),
                flip_probability=float(rng.uniform(0.3, 0.9)),
                polarity_bias=float(rng.uniform(0.2, 0.8)),
            )
            if rng.random() < 0.7
            else None
        )
        ecc = rng.choice(
            np.array(
                [None, SecdedCode(), OnDieEcc(data_bits=64), ChipkillCode()],
                dtype=object,
            )
        )
        trr = (
            TrrSampler(tracker_size=int(rng.integers(1, 6)), threshold=2)
            if rng.random() < 0.4
            else None
        )
        pattern = str(rng.choice(["double-sided", "many-sided", "decoy-throttled"]))
        massage_frames = int(rng.choice([1, 8, 64]))
        max_flips_per_row = (
            int(rng.integers(2, 17)) if rng.random() < 0.6 else None
        )

        repair = repair_plan(
            plan, memory, target, budget,
            template=template, ecc=ecc, massage_frames=massage_frames,
            trr=trr, hammer_pattern=pattern, max_flips_per_row=max_flips_per_row,
        )
        repaired = repair.plan
        word_index, bit, _, row = repaired.as_arrays()

        if budget.max_flips_per_word is not None:
            _, counts = np.unique(word_index, return_counts=True)
            assert not counts.size or counts.max() <= budget.max_flips_per_word
        if max_flips_per_row is not None and repaired.num_flips:
            from repro.hardware.device import get_pattern

            cap = get_pattern(pattern).effective_flips_per_row(max_flips_per_row)
            _, row_counts = np.unique(row, return_counts=True)
            assert row_counts.max() <= cap, (
                "repair must respect the pattern-scaled per-row flip cap"
            )
        rows = np.unique(row)
        if budget.max_rows is not None:
            assert rows.size <= budget.max_rows
        if budget.row_window is not None and rows.size:
            assert rows.max() - rows.min() < budget.row_window
        if template is not None and repaired.num_flips:
            assert template.feasible_mask(repaired, memory.read_words(), repair.frames).all()
        if ecc is not None and repaired.num_flips:
            bits = memory.spec.bits_per_value
            cw = ecc.codewords_of(word_index, bits)
            offsets = ecc.data_offsets(word_index, bit, bits)
            # With unconstrained repair no codeword may stay correctable
            # (lone flip / single symbol).  Under a tight word budget or a
            # sparse template, unrepairable codewords are deliberately kept:
            # the decoder reverts them, which is harmless but measurable —
            # so there we only check the executed plan stays consistent.
            unconstrained = template is None and budget.max_flips_per_word is None
            if isinstance(ecc, ChipkillCode):
                if unconstrained:
                    symbols = ecc.symbols_of(offsets)
                    for cw_id in np.unique(cw).tolist():
                        assert np.unique(symbols[cw == cw_id]).size != 1
            elif unconstrained:
                _, _, counts = ecc.syndromes(cw, offsets)
                assert (counts != 1).all(), "no codeword may decode as a single error"
            executed, summary = ecc.apply_to_plan(repaired, memory)
            assert executed.num_flips == (
                repaired.num_flips - summary.flips_removed + summary.flips_added
            )
        # Accounting invariant: planned - dropped + added == final flips.
        assert (
            plan.num_flips - repair.flips_dropped + repair.flips_added
            == repaired.num_flips
        )
