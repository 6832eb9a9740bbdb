"""End-to-end fault-injection campaign.

A campaign takes a computed attack result, pushes it through the simulated
memory (so the applied modification is exactly what the storage format can
represent), costs it under an injector model, and re-verifies the attack on
the resulting model.  This closes the loop the paper only argues for
analytically: *the ℓ0-minimised modification is what makes the memory-level
attack practical.*
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.bitflip import BitFlipPlan
from repro.hardware.injectors import InjectionCost, Injector, RowHammerInjector
from repro.hardware.memory import MemoryLayout
from repro.nn.model import Sequential
from repro.nn.quantization import QuantizationSpec

__all__ = ["CampaignReport", "FaultInjectionCampaign"]


@dataclass
class CampaignReport:
    """Outcome of simulating an attack at the memory level."""

    plan: BitFlipPlan
    cost: InjectionCost
    quantization_error: float
    success_rate: float
    keep_rate: float
    attacked_model: Sequential

    def as_dict(self) -> dict:
        record = {
            "quantization_error": self.quantization_error,
            "success_rate": self.success_rate,
            "keep_rate": self.keep_rate,
        }
        record.update(self.plan.summary())
        record.update({f"cost_{k}": v for k, v in self.cost.as_dict().items()})
        return record


class FaultInjectionCampaign:
    """Simulate executing a fault-sneaking result on hardware.

    Parameters
    ----------
    injector:
        Cost model; defaults to row hammer.
    spec:
        Storage format of the victim's parameters in memory.
    layout:
        Simulated memory geometry.
    """

    def __init__(
        self,
        *,
        injector: Injector | None = None,
        spec: QuantizationSpec | None = None,
        layout: MemoryLayout | None = None,
    ):
        self.injector = injector or RowHammerInjector()
        self.spec = spec or QuantizationSpec("float32")
        self.layout = layout or MemoryLayout()

    def run(self, attack_result) -> CampaignReport:
        """Execute the campaign for a fault-sneaking (or baseline) result.

        This is :func:`~repro.attacks.lowering.lower_attack` without a device
        or budget (every planned flip executes), costed under the injector.
        """
        from repro.attacks.lowering import lower_attack  # lowering imports repro.hardware

        report = lower_attack(attack_result, storage=self.spec, layout=self.layout)
        return CampaignReport(
            plan=report.plan,
            cost=self.injector.cost(report.plan),
            quantization_error=report.quantization_error,
            success_rate=report.success_rate,
            keep_rate=report.keep_rate,
            attacked_model=report.attacked_model,
        )
