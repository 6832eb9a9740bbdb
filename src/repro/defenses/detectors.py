"""Detection probability models shared by every defender in the suite.

This is the single home of the threshold logic: the stealth-extension
detectability metric (``extension_detection``), the partial-coverage
checksum scrub (:class:`~repro.defenses.integrity.ChecksumScrub`) and the
canary field all reduce their "does an audit of ``k`` things catch the
attacker?" questions to the closed forms below.

* **Accuracy probing** — the defender measures accuracy on a random probe
  set of ``n`` held-out samples and flags the model when the measured
  accuracy falls more than a threshold below the expected (clean) accuracy.
  :func:`probe_detection_probability` computes the detection probability of
  that test for a given modification, and
  :func:`probes_needed_for_detection` inverts it (how large a probe set the
  defender needs before the attack is caught with the requested confidence).
* **Parameter auditing** — the defender compares (a fraction of) the
  deployed parameters against a reference copy or checksum.
  :func:`parameter_audit_detection_probability` gives the probability that a
  random audit of ``k`` parameters hits at least one modified one, which is
  exactly where the ℓ0 objective helps the attacker.  The same
  hypergeometric form prices one tick of a partial-coverage page scrub —
  pages standing in for parameters.

Both tails are computed with :mod:`math` alone:

* the binomial CDF ``P[X <= k]`` sums pmf terms outward from ``k``, starting
  from ``C(n, k) p^k (1-p)^(n-k)`` (via ``lgamma``) and stepping by the pmf
  ratio; below the mode it sums the lower tail, above it returns one minus
  the upper tail from ``k + 1``, and it stops once a term falls below 1e-18
  of the running sum (:func:`_binomial_cdf`);
* the audit miss probability is the product ``prod_{i<n} (1 - K/(N-i))``,
  summed in log space with ``log1p`` and ``fsum`` and mapped back with
  ``expm1`` (:func:`_log_audit_miss`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_in_range, check_positive, check_probability

__all__ = [
    "DetectionReport",
    "probe_detection_probability",
    "probes_needed_for_detection",
    "parameter_audit_detection_probability",
    "detection_report",
]

# Relative size below which a pmf term no longer changes a tail sum.
_TAIL_CUTOFF = 1e-18


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """``P[X <= k]`` for ``X ~ Binomial(n, p)``."""
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    odds = p / (1.0 - p)
    lower = k < math.floor((n + 1) * p)
    i = k if lower else k + 1
    term = math.exp(
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )
    total = term
    # Walk away from the mode, where the terms only shrink.
    while 0 < i < n and term > _TAIL_CUTOFF * total:
        if lower:
            term *= i / ((n - i + 1) * odds)
            i -= 1
        else:
            term *= (n - i) * odds / (i + 1)
            i += 1
        total += term
    return total if lower else 1.0 - total


def _log_audit_miss(marked: int, total: int, drawn: int) -> float:
    """``log P[no marked item among drawn]``, drawing without replacement.

    The probability is ``C(total - marked, drawn) / C(total, drawn)``, which
    is symmetric in ``marked`` and ``drawn``, so the product runs over the
    smaller of the two.
    """
    if marked + drawn > total:
        return -math.inf
    many, few = max(marked, drawn), min(marked, drawn)
    return math.fsum(math.log1p(-many / (total - i)) for i in range(few))


def probe_detection_probability(
    clean_accuracy: float,
    attacked_accuracy: float,
    *,
    probe_size: int,
    tolerance: float = 0.02,
) -> float:
    """Probability that an accuracy probe of ``probe_size`` samples flags the model.

    The defender measures accuracy ``a_hat`` on ``probe_size`` i.i.d. samples of
    the attacked model and raises an alarm when
    ``a_hat < clean_accuracy - tolerance``.  The number of correct probe
    answers is Binomial(``probe_size``, ``attacked_accuracy``), so the alarm
    probability has a closed form in the binomial CDF.
    """
    clean_accuracy = check_probability(clean_accuracy, name="clean_accuracy")
    attacked_accuracy = check_probability(attacked_accuracy, name="attacked_accuracy")
    tolerance = check_in_range(tolerance, low=0.0, high=1.0, name="tolerance")
    if probe_size <= 0:
        raise ConfigurationError(f"probe_size must be positive, got {probe_size}")
    threshold = clean_accuracy - tolerance
    if threshold <= 0.0:
        return 0.0
    # alarm iff (#correct / n) < threshold  <=>  #correct <= ceil(n*threshold) - 1
    max_correct_without_alarm = int(np.ceil(probe_size * threshold)) - 1
    return _binomial_cdf(max_correct_without_alarm, probe_size, attacked_accuracy)


def probes_needed_for_detection(
    clean_accuracy: float,
    attacked_accuracy: float,
    *,
    confidence: float = 0.95,
    tolerance: float = 0.02,
    max_probe_size: int = 1_000_000,
) -> int | None:
    """Smallest probe size whose detection probability reaches ``confidence``.

    Returns ``None`` when even ``max_probe_size`` probes do not reach the
    requested confidence — i.e. the attack is effectively undetectable by
    accuracy probing (this is the regime the fault sneaking attack aims for).
    """
    confidence = check_probability(confidence, name="confidence")
    if attacked_accuracy >= clean_accuracy - tolerance:
        # The attacked accuracy sits inside the tolerance band: the alarm
        # fires only due to sampling noise and its probability does not
        # converge to 1 as the probe grows.
        return None
    size = 16
    while size <= max_probe_size:
        if probe_detection_probability(
            clean_accuracy, attacked_accuracy, probe_size=size, tolerance=tolerance
        ) >= confidence:
            # binary-search the exact crossover inside (size/2, size]
            low, high = size // 2, size
            while low + 1 < high:
                mid = (low + high) // 2
                p = probe_detection_probability(
                    clean_accuracy, attacked_accuracy, probe_size=mid, tolerance=tolerance
                )
                if p >= confidence:
                    high = mid
                else:
                    low = mid
            return high
        size *= 2
    return None


def parameter_audit_detection_probability(
    num_modified: int, num_total: int, *, audited: int
) -> float:
    """Probability that auditing ``audited`` random parameters finds a modified one.

    Sampling without replacement: ``1 - C(num_total - num_modified, audited) /
    C(num_total, audited)`` (hypergeometric).  Minimising the ℓ0 norm directly
    minimises this detection probability for any audit budget.  The same form
    prices one tick of a partial-coverage integrity scrub with pages in place
    of parameters: ``num_modified`` corrupted pages out of ``num_total``, of
    which the scrubber checksums ``audited`` per pass.
    """
    if num_total <= 0 or num_modified < 0 or num_modified > num_total:
        raise ConfigurationError("require 0 <= num_modified <= num_total with num_total > 0")
    if audited < 0:
        raise ConfigurationError("audited must be non-negative")
    audited = min(audited, num_total)
    if num_modified == 0 or audited == 0:
        return 0.0
    # 1 - P[no modified parameter in the audited sample]
    return -math.expm1(_log_audit_miss(num_modified, num_total, audited))


@dataclass(frozen=True)
class DetectionReport:
    """Detectability summary of one attack instance."""

    clean_accuracy: float
    attacked_accuracy: float
    num_modified_parameters: int
    num_total_parameters: int
    probe_detection_at_100: float
    probe_detection_at_1000: float
    probes_needed_95: int | None
    audit_detection_at_1_percent: float
    audit_detection_at_10_percent: float

    def as_dict(self) -> dict:
        return {
            "clean_accuracy": self.clean_accuracy,
            "attacked_accuracy": self.attacked_accuracy,
            "modified_parameters": self.num_modified_parameters,
            "total_parameters": self.num_total_parameters,
            "probe_detection@100": self.probe_detection_at_100,
            "probe_detection@1000": self.probe_detection_at_1000,
            "probes_needed_95": self.probes_needed_95,
            "audit_detection@1%": self.audit_detection_at_1_percent,
            "audit_detection@10%": self.audit_detection_at_10_percent,
        }


def detection_report(
    clean_accuracy: float,
    attacked_accuracy: float,
    *,
    num_modified_parameters: int,
    attacked_parameter_count: int,
    tolerance: float = 0.02,
) -> DetectionReport:
    """Build a :class:`DetectionReport` for a clean/attacked model pair.

    Parameters
    ----------
    clean_accuracy, attacked_accuracy:
        Held-out accuracy of the victim before and after the parameter
        modification.
    num_modified_parameters:
        ℓ0 norm of the modification (e.g. ``result.l0_norm``).
    attacked_parameter_count:
        Size of the parameter population the defender audits.
    tolerance:
        Accuracy slack the defender grants before raising an alarm.
    """
    check_positive(num_modified_parameters, name="num_modified_parameters", strict=False)
    total = int(attacked_parameter_count)
    return DetectionReport(
        clean_accuracy=clean_accuracy,
        attacked_accuracy=attacked_accuracy,
        num_modified_parameters=int(num_modified_parameters),
        num_total_parameters=total,
        probe_detection_at_100=probe_detection_probability(
            clean_accuracy, attacked_accuracy, probe_size=100, tolerance=tolerance
        ),
        probe_detection_at_1000=probe_detection_probability(
            clean_accuracy, attacked_accuracy, probe_size=1000, tolerance=tolerance
        ),
        probes_needed_95=probes_needed_for_detection(
            clean_accuracy, attacked_accuracy, tolerance=tolerance
        ),
        audit_detection_at_1_percent=parameter_audit_detection_probability(
            int(num_modified_parameters), total, audited=max(1, int(total * 0.01))
        ),
        audit_detection_at_10_percent=parameter_audit_detection_probability(
            int(num_modified_parameters), total, audited=max(1, int(total * 0.10))
        ),
    )
