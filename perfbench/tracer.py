"""In-memory span tracer for the benchmark's per-layer breakdown.

The tracer wraps the public entry points of each ``repro`` module from the
outside: it patches class attributes for methods and, for module-level
functions, every module attribute in ``sys.modules`` that is bound to the
function.  The second part matters: ``from repro.nn.im2col import im2col``
leaves a second binding in ``repro.nn.layers`` that patching only the
defining module would miss.

Each call records a span (name, parent, start, end) in memory.  Self time
of a span is its duration minus the time its child spans cover; a layer's
self time is the sum over its spans.  Inclusive time per function counts
only its outermost call, so recursion is not counted twice.  Spans are
written out by :meth:`Tracer.write` when the benchmark ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# (layer, owner, attribute, metric stem).  A layer is the module
# ``repro.<layer>``; ``owner`` is a class in it for methods, or ``None`` for a
# module-level function.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("zoo.registry", "ModelRegistry", "get", "get"),
    ("utils.cache", "DiskCache", "load", "load"),
    ("utils.cache", "DiskCache", "load_json", "load"),
    ("experiments.campaign", None, "run_campaign", "run_campaign"),
    ("attacks.fault_sneaking", "FaultSneakingAttack", "attack", "attack"),
    ("attacks.batched", "BatchedFaultSneakingAttack", "attack_batch", "attack_batch"),
    ("attacks.admm", "ADMMSolver", "solve", "solve"),
    ("attacks.admm", "ADMMSolver", "solve_batch", "solve_batch"),
    ("attacks.objective", "AttackObjective", "value_and_gradient", "value_and_gradient"),
    ("attacks.objective", "StackedAttackObjective", "value_and_gradient", "value_and_gradient"),
    ("analysis.evaluation", None, "evaluate_attack_result", "evaluate"),
    ("analysis.evaluation", None, "evaluate_attack_results", "evaluate"),
    ("attacks.lowering", None, "lower_attack", "lower_attack"),
    ("attacks.lowering", None, "repair_plan", "repair_plan"),
    ("hardware.bitflip", None, "plan_bit_flips", "plan_bit_flips"),
    ("hardware.device.templates", "FlipTemplate", "feasible_cells", "feasible_cells"),
    ("hardware.memory", "ParameterMemoryMap", "apply_plan", "apply_plan"),
    ("hardware.memory", "ParameterMemoryMap", "flush_to_model", "flush_to_model"),
    ("nn.model", "Sequential", "predict_logits", "predict_logits"),
    ("nn.model", "Sequential", "copy", "copy"),
    ("nn.layers", "Conv2D", "forward", "conv_forward"),
    ("nn.layers", "Dense", "forward", "dense_forward"),
    ("nn.layers", "Dense", "backward", "dense_backward"),
    ("nn.im2col", None, "im2col", "im2col"),
    ("defenses.evaluate", None, "evaluate_defense", "evaluate_defense"),
)


def _lowering_key(args: tuple, kwargs: dict) -> str:
    """Identity of one ``lower_attack`` call: the solved delta plus every
    scalar argument.  Calls with equal keys redo the same lowering."""
    digest = hashlib.sha256()
    result = args[0] if args else kwargs.get("result")
    delta = getattr(result, "delta", None)
    if delta is not None:
        digest.update(delta.tobytes())
    for name in sorted(kwargs):
        value = kwargs[name]
        # The budget is a small frozen dataclass; other objects (the
        # evaluation set) are the same for every cell of a campaign.
        if name == "budget" or value is None or isinstance(value, (str, int, float, bool)):
            digest.update(f"{name}={value!r};".encode())
    return digest.hexdigest()


# Attributes whose arguments or results feed a work count, and the counts.
_OBSERVED = frozenset(
    {"load", "load_json", "predict_logits", "attack_batch", "solve", "solve_batch", "lower_attack"}
)
COUNTS = (
    "utils.cache.hits",
    "nn.model.predict_logits_rows",
    "attacks.batched.lanes",
    "attacks.admm.iterations",
)


@dataclass
class FunctionStats:
    """Counters of one traced function."""

    calls: int = 0
    inclusive_ns: int = 0
    active: int = 0


@dataclass
class Tracer:
    """Records spans around the layer entry points while installed."""

    spans: list[list[int]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    functions: dict[str, FunctionStats] = field(default_factory=dict)
    layer_self_ns: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    lowerings: set[str] = field(default_factory=set)
    recording: bool = False
    _stack: list[list[int]] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)
    binding_sites: dict[str, int] = field(default_factory=dict)  # per function

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; the wrappers record only while ``recording``."""
        if self._patches:
            return
        for layer, owner, attribute, stem in TARGETS:
            module_name = f"repro.{layer}"
            module = importlib.import_module(module_name)
            name = f"{layer}.{stem}"
            self.functions.setdefault(name, FunctionStats())
            self.layer_self_ns.setdefault(layer, 0)
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attribute]
                self._patch(cls, attribute, self._wrap(original, name, layer, attribute))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, layer, attribute)
            sites = 0
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for bound_name, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, bound_name, wrapper)
                        sites += 1
            self.binding_sites[f"{module_name}.{attribute}"] = sites

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    # -- recording -------------------------------------------------------------------

    def _wrap(self, original: Callable, name: str, layer: str, attribute: str) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        stats = self.functions[name]
        tracer = self
        perf = time.perf_counter_ns
        observed = attribute in _OBSERVED

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0]
            span = [name_id, parent, perf(), 0]
            tracer.spans.append(span)
            stack.append(frame)
            stats.active += 1
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf()
                span[3] = end
                stack.pop()
                stats.active -= 1
                duration = end - span[2]
                if stack:
                    stack[-1][1] += duration
                tracer.layer_self_ns[layer] += duration - frame[1]
                stats.calls += 1
                if stats.active == 0:
                    stats.inclusive_ns += duration
            if observed:
                tracer._observe(attribute, args, kwargs, result)
            return result

        return wrapper

    def _add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _observe(self, attribute: str, args: tuple, kwargs: dict, result: Any) -> None:
        """Work counts read from the arguments and results of a call."""
        first = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
        if attribute in ("load", "load_json"):
            self._add("utils.cache.hits", result is not None)
        elif attribute == "predict_logits":
            self._add("nn.model.predict_logits_rows", len(first))
        elif attribute == "attack_batch":
            self._add("attacks.batched.lanes", len(first))
        elif attribute == "solve":
            self._add("attacks.admm.iterations", result.iterations_run)
        elif attribute == "solve_batch":
            self._add("attacks.admm.iterations", sum(lane.iterations_run for lane in result))
        elif attribute == "lower_attack":
            self.lowerings.add(_lowering_key(args, kwargs))

    # -- read-out --------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Cumulative counters and times since the last :meth:`reset`."""
        out: dict[str, float] = {}
        for name, stats in self.functions.items():
            out[f"{name}_calls"] = stats.calls
            out[f"{name}_s"] = stats.inclusive_ns / 1e9
        for layer, self_ns in self.layer_self_ns.items():
            out[f"{layer}.self_s"] = self_ns / 1e9
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        out["attacks.lowering.distinct_lowerings"] = len(self.lowerings)
        return out

    def reset(self, *, keep_spans: bool = False) -> None:
        """Zero all counters and, unless ``keep_spans``, drop recorded spans."""
        for stats in self.functions.values():
            stats.calls = 0
            stats.inclusive_ns = 0
        for layer in self.layer_self_ns:
            self.layer_self_ns[layer] = 0
        self.counts.clear()
        self.lowerings.clear()
        if not keep_spans:
            self.spans.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans as ``[name, parent, start_ns, end_ns]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"names": self.names, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
