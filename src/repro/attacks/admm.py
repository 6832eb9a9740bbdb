"""The general ADMM solution framework of the paper (§4).

The fault-sneaking optimisation problem

    min_δ  D(δ) + G(θ + δ, X, T, L)

is reformulated with an auxiliary variable ``z = δ`` (eq. (7)) and solved by
alternating three steps per iteration ``k`` (eqs. (10)–(12)):

* **z-step** — ``z^{k+1} = prox_{D/ρ}(δ^k − s^k)``: hard thresholding for the
  ℓ0 norm, block soft thresholding for the ℓ2 norm (§4.3).
* **δ-step** — the sub-problem (14) is made tractable by *linearising* every
  ``g_i`` around ``δ^k`` and adding the Bregman term ``(R/2)‖δ − δ^k‖²_H`` with
  ``H = αI`` (§4.4), which yields the closed form of eq. (22):

      δ^{k+1} = [ρ (z^{k+1} + s^k) + αR δ^k − Σ_i ∇g_i(θ + δ^k)] / (αR + ρ)

* **dual update** — ``s^{k+1} = s^k + z^{k+1} − δ^{k+1}``.

The solver additionally evaluates, at every iteration, how well the sparse
iterate ``z`` already satisfies the misclassification requirements, records
it in the run's history, and keeps the best feasible candidate seen so far;
this is what is returned as the attack's parameter modification.

Two step and stopping values are constants: the adaptive α bounds the
gradient part of each δ-step by :data:`TRUST_RADIUS`, and a lane stops
early once its constraints are met and ``‖z − δ‖₂ <=``
:data:`PRIMAL_TOLERANCE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.objective import AttackObjective, StackedAttackObjective
from repro.attacks.proximal import get_proximal_operator, row_norms
from repro.utils.errors import ConfigurationError
from repro.utils.logging import get_logger

__all__ = [
    "PRIMAL_TOLERANCE",
    "TRUST_RADIUS",
    "ADMMConfig",
    "ADMMHistory",
    "ADMMResult",
    "ADMMSolver",
    "satisfaction",
]

_LOGGER = get_logger("attacks.admm")

# Lower bound on the adaptive α: keeps the δ-step well-defined when the
# misclassification objective is already satisfied and its gradient vanishes.
_ALPHA_FLOOR = 1.0

# Maximum Euclidean length of the gradient part of one δ-step when α is
# adaptive; the attack's warm start and support refinement step by it too.
TRUST_RADIUS = 0.05

# Early stop once the constraints are met and ``‖z − δ‖₂`` is at most this.
PRIMAL_TOLERANCE = 1e-4


@dataclass(frozen=True)
class ADMMConfig:
    """Hyper-parameters of the ADMM solver.

    Parameters
    ----------
    norm:
        Modification measure ``D``: ``"l0"``, ``"l2"`` or ``"l1"``.
    rho:
        Augmented-Lagrangian penalty ρ.  Larger values tie ``δ`` to the sparse
        iterate ``z`` more tightly; for the ℓ0 norm the hard-threshold level is
        ``sqrt(2/ρ)``, so ρ also controls how large a modification must be to
        be kept.
    alpha:
        Linearisation constant α (``H = αI`` in eq. (21)).  Acts as an inverse
        step size for the δ update.  ``None`` (the default) chooses α
        adaptively at every iteration so that the gradient part of the δ-step
        moves ``δ`` by at most :data:`TRUST_RADIUS` in Euclidean norm — the paper
        leaves H "pre-defined", and the adaptive choice removes the need to
        hand-tune it per model (the hinge gradient magnitude varies by orders
        of magnitude across models and S/R settings).
    iterations:
        Maximum number of ADMM iterations.
    """

    norm: str = "l0"
    rho: float = 1.0
    alpha: float | None = None
    iterations: int = 100

    def __post_init__(self):
        get_proximal_operator(self.norm)  # validates the norm name
        if self.rho <= 0:
            raise ConfigurationError(f"rho must be positive, got {self.rho}")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.iterations <= 0:
            raise ConfigurationError(f"iterations must be positive, got {self.iterations}")


@dataclass
class ADMMHistory:
    """Per-iteration diagnostics of an ADMM run."""

    objective: list[float] = field(default_factory=list)
    measure: list[float] = field(default_factory=list)
    primal_residual: list[float] = field(default_factory=list)
    dual_residual: list[float] = field(default_factory=list)
    success_rate: list[float] = field(default_factory=list)
    keep_rate: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objective)


@dataclass
class ADMMResult:
    """Outcome of one ADMM solve.

    ``delta`` is the parameter modification the attack should apply (the best
    candidate tracked during the run, which for the ℓ0/ℓ1 norms is a sparse
    ``z`` iterate); ``raw_delta`` and ``z`` are the final iterates themselves.
    """

    delta: np.ndarray
    z: np.ndarray
    raw_delta: np.ndarray
    dual: np.ndarray
    history: ADMMHistory
    iterations_run: int
    converged: bool
    feasible: bool

    @property
    def l0_norm(self) -> int:
        """Number of non-zero entries of the returned modification.

        Exact non-zeros, not
        :func:`~repro.attacks.fault_sneaking.count_modified_parameters`: the
        returned candidate is a proximal iterate ``z``, whose dropped entries
        are exactly zero.
        """
        return int(np.count_nonzero(self.delta))

    @property
    def l2_norm(self) -> float:
        """Euclidean norm of the returned modification."""
        return float(np.linalg.norm(self.delta))


def _measure(vector: np.ndarray, norm: str) -> float:
    """``D(z)`` of a proximal iterate; its ℓ0 counts exact non-zeros, since
    the z-step sets every dropped entry to exactly zero."""
    if norm == "l0":
        return float(np.count_nonzero(vector))
    if norm == "l1":
        return float(np.abs(vector).sum())
    return float(np.linalg.norm(vector))


class ADMMSolver:
    """Runs the ADMM iterations of §4 against an :class:`AttackObjective`."""

    def __init__(self, config: ADMMConfig | None = None):
        self.config = config or ADMMConfig()

    def solve(
        self,
        objective: AttackObjective,
        *,
        initial_delta: np.ndarray | None = None,
    ) -> ADMMResult:
        """Solve the fault-sneaking problem for one objective.

        This is one lane of :meth:`solve_batch`, run over a one-objective
        stack.

        Parameters
        ----------
        objective:
            The misclassification objective ``G`` (which also defines the
            attacked-parameter dimension).
        initial_delta:
            Optional warm start for ``δ`` (defaults to zero).
        """
        initial_deltas = None
        if initial_delta is not None:
            initial_deltas = np.asarray(initial_delta, dtype=np.float64)[None]
        (result,) = self.solve_batch(
            StackedAttackObjective([objective]), initial_deltas=initial_deltas
        )
        return result

    def solve_batch(
        self,
        objective: StackedAttackObjective,
        *,
        initial_deltas: np.ndarray | None = None,
        rhos: np.ndarray | None = None,
    ) -> list[ADMMResult]:
        """Solve one stacked batch of fault-sneaking problems lane by lane.

        One stacked forward/backward per iteration does the work of ``lanes``
        separate passes, and every lane's arithmetic is bit-identical to a
        one-lane solve of that lane alone.  A lane that converges drops out
        of the stack (its iterates, candidate and history stop changing)
        while the remaining lanes keep iterating.

        Parameters
        ----------
        objective:
            Stacked misclassification objectives sharing one parameter view.
        initial_deltas:
            Optional per-lane warm starts, shape ``(lanes, size)``.
        rhos:
            Optional per-lane penalty overrides (length ``lanes``); defaults
            to ``config.rho`` for every lane.  This is how per-cell
            calibrated penalties enter a fused solve.
        """
        cfg = self.config
        prox = get_proximal_operator(cfg.norm)
        lanes = objective.lanes
        size = objective.size
        num_images = objective.num_images

        deltas = (
            np.zeros((lanes, size))
            if initial_deltas is None
            else np.asarray(initial_deltas, dtype=np.float64).copy()
        )
        if deltas.shape != (lanes, size):
            raise ConfigurationError(
                f"initial_deltas must have shape ({lanes}, {size}), got {deltas.shape}"
            )
        if rhos is None:
            rho_lanes = np.full(lanes, cfg.rho, dtype=np.float64)
        else:
            rho_lanes = np.asarray(rhos, dtype=np.float64)
            if rho_lanes.shape != (lanes,):
                raise ConfigurationError(
                    f"rhos must have shape ({lanes},), got {rho_lanes.shape}"
                )
            if np.any(rho_lanes <= 0):
                raise ConfigurationError(f"rhos must be positive, got {rho_lanes}")
        rho_col = rho_lanes[:, None]

        z = deltas.copy()
        duals = np.zeros((lanes, size))
        histories = [ADMMHistory() for _ in range(lanes)]
        best_candidates = deltas.copy()
        best_feasible = np.zeros(lanes, dtype=bool)
        best_scores = [(-1.0, np.inf)] * lanes
        converged = np.zeros(lanes, dtype=bool)
        iterations_run = np.zeros(lanes, dtype=np.int64)

        # Converged lanes drop out of the stacked passes entirely: ``rows``
        # maps the compacted stack back to original lane indices, and ``sub``
        # is the sub-stack of the survivors.  Lane slices are arithmetically
        # independent (each is the exact one-lane computation), so compaction
        # never perturbs the remaining lanes' bits — it only stops paying for
        # finished ones.
        rows = np.arange(lanes)
        sub = objective

        for iteration in range(cfg.iterations):
            iterations_run[rows] = iteration + 1

            # z-step (eq. (13)): proximal operator of D at δ^k − s^k; frozen
            # lanes keep their converged iterate.
            z[rows] = prox(deltas[rows] - duals[rows], rho_col[rows])

            # δ-step (eq. (22)): linearised update using ∇G at the previous
            # δ, with per-lane adaptive α.
            grads = sub.value_and_gradient(deltas[rows])[1]
            alphas = self._effective_alphas(grads, num_images, rho_lanes[rows])
            denominators = (alphas * num_images + rho_lanes[rows])[:, None]
            deltas_new = (
                rho_col[rows] * (z[rows] + duals[rows])
                + (alphas * num_images)[:, None] * deltas[rows]
                - grads
            ) / denominators

            primal_residuals = row_norms(z[rows] - deltas_new)
            dual_residuals = rho_lanes[rows] * row_norms(deltas_new - deltas[rows])
            # dual update (eq. (12)), left to right: (s + z) - δ is not
            # bit-equal to s + (z - δ) in floating point.
            duals[rows] = duals[rows] + z[rows] - deltas_new
            deltas[rows] = deltas_new

            # Candidate tracking: the sparse iterate z is the modification the
            # adversary would actually implement; keep the best one seen.  The
            # objective value, rates and measure are all evaluated at z^{k+1},
            # so a history row describes one iterate consistently.
            values, successes, keeps = sub.evaluate_candidates(z[rows])
            for pos, lane in enumerate(rows):
                success = float(successes[pos])
                keep = float(keeps[pos])
                measure = _measure(z[lane], cfg.norm)
                score = satisfaction(objective.objectives[lane], success, keep)
                best = best_scores[lane]
                if (score, -measure) > (best[0], -best[1]):
                    best_scores[lane] = (score, measure)
                    best_candidates[lane] = z[lane].copy()
                    best_feasible[lane] = bool(success >= 1.0 and keep >= 1.0)
                history = histories[lane]
                history.objective.append(float(values[pos]))
                history.measure.append(measure)
                history.primal_residual.append(float(primal_residuals[pos]))
                history.dual_residual.append(float(dual_residuals[pos]))
                history.success_rate.append(success)
                history.keep_rate.append(keep)

            newly_converged = best_feasible[rows] & (primal_residuals <= PRIMAL_TOLERANCE)
            if newly_converged.any():
                converged[rows[newly_converged]] = True
                _LOGGER.debug(
                    "ADMM lanes %s converged after %d iterations",
                    rows[newly_converged].tolist(),
                    iteration + 1,
                )
                rows = rows[~newly_converged]
                if rows.size == 0:
                    break
                sub = sub.subset(np.flatnonzero(~newly_converged))

        return [
            ADMMResult(
                delta=best_candidates[lane].copy(),
                z=z[lane].copy(),
                raw_delta=deltas[lane].copy(),
                dual=duals[lane].copy(),
                history=histories[lane],
                iterations_run=int(iterations_run[lane]),
                converged=bool(converged[lane]),
                feasible=bool(best_feasible[lane]),
            )
            for lane in range(lanes)
        ]

    def _effective_alphas(
        self, grads: np.ndarray, num_images: int, rhos: np.ndarray
    ) -> np.ndarray:
        """Return each lane's α for this iteration's δ-step.

        With ``alpha=None`` the value is chosen so that the gradient
        contribution to the δ update, ``‖∇G‖ / (αR + ρ)``, never exceeds
        :data:`TRUST_RADIUS`; this keeps the linearisation honest regardless of
        the (piecewise-constant, potentially huge) hinge gradient magnitude.
        """
        cfg = self.config
        if cfg.alpha is not None:
            return np.full(grads.shape[0], cfg.alpha)
        grad_norms = row_norms(grads)
        needed_denominators = grad_norms / TRUST_RADIUS
        alphas = (needed_denominators - rhos) / max(num_images, 1)
        return np.maximum(alphas, _ALPHA_FLOOR)


def satisfaction(objective: AttackObjective, success: float, keep: float) -> float:
    """Weighted constraint satisfaction in [0, 1] used to rank candidates."""
    num_targets = objective.num_targets
    num_keep = objective.num_images - num_targets
    total = max(objective.num_images, 1)
    return (success * num_targets + keep * num_keep) / total
