"""Simulated hardware fault-injection substrate.

The paper motivates minimising the number of modified parameters by the cost
of injecting faults into memory with laser beams or row hammer (§2.3).  The
authors evaluate that cost analytically (the ℓ0 norm); this package simulates
the memory level so an attack's parameter modification can be turned into a
concrete set of bit flips on a *named device* and costed realistically.

Module map (data flows top to bottom)::

    memory      ParameterMemoryMap / MemoryLayout — parameters laid out as
      │         raw words at byte addresses (optionally on a DRAM geometry)
      ▼
    device/     the device model: dram (address bit-slicing, vendor XOR bank
      │         maps, aggressor/victim adjacency), templates (per-cell flip
      │         polarity), ecc (SECDED / DDR5 on-die SEC / chipkill schemes),
      │         mitigations (TRR samplers and hammer-pattern planners),
      │         profiles (named DeviceProfiles that derive budgets,
      │         templates, layouts, injectors)
      ▼
    bitflip     BitFlipPlan / plan_bit_flips — the exact (word, bit) flips
      │         realising a modification, array-backed and vectorised
      ▼
    injectors   RowHammerInjector / LaserBeamInjector — effort and
      │         feasibility of executing a plan (geometry-aware aggressor
      │         amortisation for Rowhammer)
      ▼
    lowering    (in repro.attacks.lowering) budget/template/ECC-aware plan
                repair and the bit-true re-verification of the attack

The lowering pipeline lives in :mod:`repro.attacks.lowering` (it needs the
attack-side result types): ``lower_attack`` applies a plan through the
quantised memory and re-verifies the attack end to end, and an injector's
``cost(report.plan)`` prices the plan it executed.  Everything device-level
is under :mod:`repro.hardware.device`.
"""

from repro.hardware.memory import MemoryLayout, ParameterMemoryMap
from repro.hardware.bitflip import BitFlip, BitFlipPlan, plan_bit_flips
from repro.hardware.injectors import (
    InjectionCost,
    Injector,
    LaserBeamInjector,
    RowHammerInjector,
)
from repro.hardware.device import (
    DEVICE_PROFILES,
    HAMMER_PATTERNS,
    ChipkillCode,
    DeviceProfile,
    DramCoordinates,
    DramGeometry,
    EccScheme,
    EccSummary,
    FlipTemplate,
    HammerPattern,
    HammerPlan,
    OnDieEcc,
    ProbabilisticTrr,
    SecdedCode,
    TrrSampler,
    get_pattern,
    get_profile,
    list_patterns,
    list_profiles,
    plan_hammer,
    register_pattern,
    register_profile,
    vendor_geometry,
)

__all__ = [
    "MemoryLayout",
    "ParameterMemoryMap",
    "BitFlip",
    "BitFlipPlan",
    "plan_bit_flips",
    "Injector",
    "InjectionCost",
    "RowHammerInjector",
    "LaserBeamInjector",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "DramCoordinates",
    "DramGeometry",
    "EccScheme",
    "EccSummary",
    "SecdedCode",
    "OnDieEcc",
    "ChipkillCode",
    "TrrSampler",
    "ProbabilisticTrr",
    "HammerPattern",
    "HammerPlan",
    "HAMMER_PATTERNS",
    "FlipTemplate",
    "get_pattern",
    "get_profile",
    "list_patterns",
    "list_profiles",
    "plan_hammer",
    "register_pattern",
    "register_profile",
    "vendor_geometry",
]
