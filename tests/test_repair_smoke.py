"""Golden pin of ``repair_plan`` over every device profile.

``tests/golden/repair_smoke.json`` records, for one fixed synthetic attack
plan, what the device-aware repair makes of it under every profile of
:func:`~repro.hardware.device.list_profiles`, every storage format and three
budgets (``unlimited``, the profile-``derived`` one and a ``tight`` one),
plus the TRR profiles under the ``many-sided`` hammer pattern.  Each case
keeps the :class:`~repro.attacks.lowering.PlanRepair` counters and sha256
digests of the repaired plan, the pre-ECC plan and the frame id of every
repaired flip, so a refactor of the repair stages must reproduce them
byte for byte.  The cases are chosen to exercise every repair branch:
padded and dropped codewords of both ECC kinds, self-padded words, and
throttled and refreshed rows (:func:`test_cases_cover_every_repair_branch`).

When a change moves repair outputs on purpose, regenerate the fixture and
review the diff::

    PYTHONPATH=src python tests/test_repair_smoke.py --regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.attacks.lowering import HardwareBudget, repair_plan
from repro.attacks.parameter_view import ParameterSelector, ParameterView
from repro.hardware.bitflip import plan_bit_flips
from repro.hardware.device import get_profile, list_profiles
from repro.hardware.memory import ParameterMemoryMap
from repro.nn.quantization import STORAGE_FORMATS, storage_spec
from repro.zoo.architectures import mlp

GOLDEN = Path(__file__).parent / "golden" / "repair_smoke.json"

BUDGETS = {
    "unlimited": HardwareBudget(),
    "derived": None,  # the profile's own budget
    "tight": HardwareBudget(max_flips_per_word=3, max_rows=6, row_window=12),
}


def _cases() -> list[tuple[str, str, str, str | None]]:
    """Every profile × storage × budget under the profile's hammer pattern;
    the TRR profiles also under ``many-sided``, and the ECC profiles also
    without a hammer pattern (no per-row cap, so every padding branch runs)."""
    cases = []
    for profile in list_profiles():
        device = get_profile(profile)
        for storage in STORAGE_FORMATS:
            for budget in BUDGETS:
                cases.append((profile, storage, budget, device.hammer_pattern))
                if device.ecc is not None:
                    cases.append((profile, storage, budget, None))
            if device.trr is not None:
                cases.append((profile, storage, "derived", "many-sided"))
    return cases


def _digest(*arrays) -> str:
    payload = b"".join(np.asarray(a, dtype="<i8").tobytes() for a in arrays)
    return hashlib.sha256(payload).hexdigest()


def _plan_digest(plan) -> str | None:
    return None if plan is None else _digest(*plan.as_arrays())


# Companion flips only ever use these low-significance bits of a word.
_COMPANION_BITS = {8: 2, 16: 6, 32: 14}


def _self_pads(repair, ecc, bits) -> int:
    """Codewords whose lone flip the ECC stage re-encoded inside its own word.

    Companion padding only adds flips on low-significance cells and dropping
    removes every flip of a codeword, so a lone-flip codeword that is still
    touched but lost its flip, or gained a flip above the companion bits,
    was re-encoded in place.
    """
    if ecc is None:
        return 0
    before_words, before_bits = repair.pre_ecc_plan.as_arrays()[:2]
    after_words, after_bits = repair.plan.as_arrays()[:2]
    before_cw = ecc.codewords_of(before_words, bits)
    after_cw = ecc.codewords_of(after_words, bits)
    cws, counts = np.unique(before_cw, return_counts=True)
    hits = 0
    for cw in cws[counts == 1].tolist():
        index = int(np.flatnonzero(before_cw == cw)[0])
        lone = (int(before_words[index]), int(before_bits[index]))
        after = set(zip(after_words[after_cw == cw].tolist(), after_bits[after_cw == cw].tolist()))
        if after and (
            lone not in after or any(b >= _COMPANION_BITS[bits] for _, b in after - {lone})
        ):
            hits += 1
    return hits


def _inputs(storage: str, layout):
    """The fixed synthetic attack: a sparse mixed-magnitude change of the
    logits layer of a seeded (untrained) MLP."""
    model = mlp((8, 8, 1), 10, seed=1, hidden=(32, 24))
    view = ParameterView(model, ParameterSelector(layers=("fc_logits",)))
    memory = ParameterMemoryMap(view, spec=storage_spec(storage), layout=layout)
    rng = np.random.default_rng(17)
    target = view.baseline.copy()
    touched = rng.choice(view.size, size=48, replace=False)
    scale = np.where(np.arange(touched.size) % 3 == 0, 0.5, 0.02)
    target[touched] += rng.normal(0.0, 1.0, size=touched.size) * scale
    return memory, target


def _record(profile: str, storage: str, budget: str, pattern: str | None) -> dict:
    device = get_profile(profile)
    memory, target = _inputs(storage, device.layout())
    plan = plan_bit_flips(memory, target)
    repair = repair_plan(
        plan,
        memory,
        target,
        BUDGETS[budget] or device.budget(),
        template=device.template(0),
        ecc=device.ecc,
        massage_frames=device.massage_frames,
        trr=device.trr,
        hammer_pattern=pattern,
        max_flips_per_row=device.max_flips_per_row,
    )
    frames = repair.frames
    return {
        "case": f"{profile}/{storage}/{budget}/{pattern}",
        "planned_flips": plan.num_flips,
        "repaired_flips": repair.plan.num_flips,
        "flips_dropped": repair.flips_dropped,
        "words_reverted": repair.words_reverted,
        "words_rounded": repair.words_rounded,
        "flips_infeasible": repair.flips_infeasible,
        "flips_added": repair.flips_added,
        "codewords_padded": repair.codewords_padded,
        "codewords_dropped": repair.codewords_dropped,
        "self_pads": _self_pads(repair, device.ecc, memory.spec.bits_per_value),
        "hammer_pattern": repair.hammer_pattern,
        "rows_refreshed": repair.rows_refreshed,
        "rows_throttled": repair.rows_throttled,
        "hammer_rows": repair.hammer_rows,
        "plan_sha256": _plan_digest(repair.plan),
        "pre_ecc_sha256": _plan_digest(repair.pre_ecc_plan),
        "frames_sha256": None if frames is None else _digest(frames),
    }


def _records() -> list[dict]:
    return [_record(*case) for case in _cases()]


@pytest.fixture(scope="module")
def records() -> list[dict]:
    return _records()


def test_repair_outputs_match_the_golden_fixture(records):
    expected = json.loads(GOLDEN.read_text())
    assert [r["case"] for r in records] == [r["case"] for r in expected]
    changed = [
        f"{want['case']}: {key} {want[key]!r} -> {got[key]!r}"
        for want, got in zip(expected, records)
        for key in want
        if got.get(key) != want[key]
    ]
    assert not changed, "repair outputs moved:\n" + "\n".join(changed)


def test_cases_cover_every_repair_branch(records):
    def total(key, kind=None):
        return sum(
            r[key]
            for r in records
            if kind is None
            or (ecc := get_profile(r["case"].split("/")[0]).ecc) is not None
            and ecc.repair_kind == kind
        )

    for kind in ("hamming", "symbol"):
        assert total("codewords_padded", kind) > 0, kind
        assert total("codewords_dropped", kind) > 0, kind
    assert total("self_pads") > 0
    assert total("rows_throttled") > 0
    assert total("rows_refreshed") > 0
    assert total("words_rounded") > 0
    assert total("flips_infeasible") > 0


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    GOLDEN.write_text(json.dumps(_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
