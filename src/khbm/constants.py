"""Moment-comparison constants for symmetric sign sums.

For a moment exponent p >= 1 the two-sided comparison constants are the
extremes of a three-element set:

    S(p) = { 1,  2^(1/2 - 1/p),  2^(1/2) * (Gamma((p+1)/2) / sqrt(pi))^(1/p) }

    A_p = min S(p)   (lower constant)
    B_p = max S(p)   (upper constant)

The second element is the two-point extremal value, the third is the
p-th moment of a standard gaussian.  At p = 2 all three coincide at 1
by the identity Gamma(3/2) = sqrt(pi)/2; the implementation returns the
exact value there instead of a 1-ulp float artifact.  Where Gamma((p+1)/2)
leaves the double range (p > 342.3) the third element is taken from its
logarithm, exp((log Gamma((p+1)/2) - log(pi)/2) / p); past p ~ 5e305 that
logarithm overflows too, and the exponent is refused with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["KhinchineConstants", "khinchine_constants", "lower_constant", "upper_constant"]


@dataclass(frozen=True)
class KhinchineConstants:
    """Lower/upper moment constants at exponent p, plus the defining set."""

    p: float
    a_p: float
    b_p: float
    set_elements: tuple[float, float, float]


def _gaussian_moment_element(p: float) -> float:
    # exact at the removable identity point: Gamma(3/2) = sqrt(pi)/2
    if p == 2.0:
        return 1.0
    x = (p + 1.0) / 2.0
    try:
        return math.sqrt(2.0) * (math.gamma(x) / math.sqrt(math.pi)) ** (1.0 / p)
    except OverflowError:
        pass  # Gamma(x) leaves the double range past p ~ 342.3, its logarithm only past p ~ 5e305
    try:
        return math.sqrt(2.0) * math.exp((math.lgamma(x) - 0.5 * math.log(math.pi)) / p)
    except OverflowError as exc:
        raise ValueError(f"moment exponent {p} is too large: log Gamma((p + 1)/2) leaves the double range") from exc


def khinchine_constants(p: float) -> KhinchineConstants:
    """Compute A_p, B_p and the three-element comparison set.

    Raises ValueError for p < 1 (non-norm exponents are out of scope).
    Ties in min/max are resolved by exact floating comparison.
    """
    if not p >= 1.0:
        raise ValueError(f"moment exponent must satisfy p >= 1, got {p}")
    if math.isinf(p):
        raise ValueError("moment exponent must be finite")
    elements = (1.0, 2.0 ** (0.5 - 1.0 / p), _gaussian_moment_element(p))
    return KhinchineConstants(p=p, a_p=min(elements), b_p=max(elements), set_elements=elements)


def lower_constant(p: float) -> float:
    """A_p = min of the comparison set."""
    return khinchine_constants(p).a_p


def upper_constant(p: float) -> float:
    """B_p = max of the comparison set."""
    return khinchine_constants(p).b_p
